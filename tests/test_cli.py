import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import spinhf
from spinhf import __version__, cli, numeric
from spinhf.cli import (
    PRESETS,
    UsageError,
    main,
    parse_initial,
    parse_methods,
    parse_scalar,
)
from spinhf.special import bessel_j0, bessel_j0_zero, struve_h0

R1 = 2.404825557695773


# --- argument parsing helpers ---------------------------------------------------

def test_parse_scalar_numbers_and_tokens():
    assert parse_scalar("1.5e-3") == 1.5e-3
    assert parse_scalar("-2") == -2.0
    assert parse_scalar("pi/2") == math.pi / 2
    assert parse_scalar("-pi") == -math.pi
    assert parse_scalar("2pi") == 2 * math.pi
    assert parse_scalar("3pi/4") == 3 * math.pi / 4
    assert parse_scalar("+pi") == math.pi
    assert abs(parse_scalar("r1") - R1) < 1e-12
    assert parse_scalar("r2") == bessel_j0_zero(2)


def test_parse_scalar_rejects_garbage():
    for bad in ("abc", "r0", "pi/0", "1..2", "r-1", ""):
        with pytest.raises(UsageError):
            parse_scalar(bad)


def test_parse_initial():
    assert parse_initial("plus").up == 1.0
    assert parse_initial("minus").down == 1.0
    psi = parse_initial("0.6,0.3")
    assert abs(psi.up - 0.6) < 1e-15
    assert abs(psi.down - 0.8 * complex(math.cos(0.3), math.sin(0.3))) < 1e-12
    token = parse_initial("0.5,pi/2")
    assert abs(token.down - math.sqrt(0.75) * 1j) < 1e-12


def test_parse_initial_rejects_bad_specs():
    for bad in ("1.5,0", "-0.1,0", "plus,minus", "0.5", "0.5,0,0"):
        with pytest.raises(UsageError):
            parse_initial(bad)


def test_parse_methods_canonical_order():
    assert parse_methods("numeric,avg") == ["avg", "numeric"]
    assert parse_methods(["ms", "exact"]) == ["exact", "ms"]
    assert parse_methods("avg,avg") == ["avg"]
    with pytest.raises(UsageError):
        parse_methods("magic")
    with pytest.raises(UsageError):
        parse_methods("")


# --- constants -------------------------------------------------------------------

def test_constants_zero_listing_and_table(capsys):
    code = main(["constants", "--zeros", "2", "--gamma-at", "1,r1"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"r_1 = {bessel_j0_zero(1):.10f}"
    assert out[1] == f"r_2 = {bessel_j0_zero(2):.10f}"
    assert out[2] == "r,J0,H0,gamma1,gamma2"
    r, j0, h0, g1, g2 = out[3].split(",")
    assert float(r) == 1.0
    assert abs(float(j0) - bessel_j0(1.0)) < 1e-12
    assert abs(float(h0) - struve_h0(1.0)) < 1e-12
    assert abs(float(g1) - (-0.6845326710661928)) < 1e-12
    row_r1 = out[4].split(",")
    assert abs(float(row_r1[3]) - (-0.6039833732241502)) < 1e-12


def test_constants_reports_per_entry_errors(capsys):
    # 60 is outside the special-function domain; the cell carries the error,
    # for the gamma pair too (whose node count would grow with r)
    code = main(["constants", "--zeros", "0", "--gamma-at", "60,inf,nan"])
    assert code == 0
    out = capsys.readouterr().out
    assert "error:" in out
    assert out.startswith("r,J0,H0,gamma1,gamma2")
    rows = out.splitlines()[1:]
    assert rows[0].split(",")[3] == (
        "error: bessel_j0 argument |x| = 60.0 outside the working domain |x| <= 50.0"
    )
    for row, x in zip(rows[1:], ("inf", "nan")):
        # J0, gamma1 and gamma2 (the message holds a comma)
        assert row.count(f",error: bessel_j0 requires a finite argument, got {x}") == 3


def test_constants_rejects_bad_zero_counts(tmp_path, capsys):
    # an integer from 0 to the cap, from the flag or the config file; every
    # rejected count exits 2 before the listing loop runs
    cap = cli._MAX_ZEROS
    cfg = tmp_path / "zeros.json"
    for value in (-1, cap + 1, True, 2.5, "3", None, math.inf, -math.inf, math.nan):
        cfg.write_text(json.dumps({"zeros": value}))
        assert main(["constants", "--config", str(cfg)]) == 2, value
        assert capsys.readouterr().err.startswith("error: --zeros must be"), value
    for value in ("-1", str(cap + 1)):
        assert main(["constants", f"--zeros={value}"]) == 2, value
        assert capsys.readouterr().err.startswith("error: --zeros must be"), value
    with pytest.raises(SystemExit) as exc_info:
        main(["constants", "--zeros=2.5"])
    assert exc_info.value.code == 2
    capsys.readouterr()
    # an integral float from a config file is an integer
    cfg.write_text(json.dumps({"zeros": 2.0}))
    assert main(["constants", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.splitlines() == [f"r_{j} = {bessel_j0_zero(j):.10f}" for j in (1, 2)]


# --- evolve ----------------------------------------------------------------------

def test_evolve_csv_numeric_matches_exact(tmp_path):
    out = tmp_path / "trace.csv"
    code = main([
        "evolve", "--r", "0", "--omega-par", "0", "--t-end", "2",
        "--methods", "exact,numeric", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,exact,numeric"
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    assert data[0, 0] == 0.0
    assert abs(data[0, 1] - 1.0) < 1e-12
    assert np.max(np.abs(data[:, 1] - data[:, 2])) < 1e-6


def test_evolve_json_schema(tmp_path):
    out = tmp_path / "trace.json"
    code = main([
        "evolve", "--r", "0", "--t-end", "1", "--methods", "avg",
        "--format", "json", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "spinhf/evolve/1"
    assert doc["version"] == __version__
    assert doc["params"]["r"] == 0.0
    assert set(doc["traces"]) == {"avg"}
    assert len(doc["t"]) == len(doc["traces"]["avg"])


def test_evolve_averaged_column_layout(tmp_path):
    out = tmp_path / "avg.csv"
    code = main([
        "evolve", "--omega-par", "-1", "--r", "1", "--t-end", "3",
        "--methods", "avg,numeric", "--hf-average", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,avg,numeric,numeric_avg"
    first_t = float(lines[1].split(",")[0])
    # first averaged sample is the center of the first 32-sample window
    dt = (2 * math.pi / 50) / 32
    assert abs(first_t - 15.5 * dt) < 1e-9
    vals = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    # raw and averaged numeric columns stay within the ripple scale
    assert np.max(np.abs(vals[:, 2] - vals[:, 3])) < 0.2


def test_evolve_t_start_window(tmp_path):
    out = tmp_path / "win.csv"
    code = main([
        "evolve", "--r", "0", "--t-start", "1", "--t-end", "2",
        "--methods", "avg", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    ts = [float(ln.split(",")[0]) for ln in lines[1:]]
    assert ts[0] >= 1.0 - 1e-12
    assert ts[-1] <= 2.0 + 1e-12


def test_evolve_requires_t_end(capsys):
    assert main(["evolve", "--methods", "avg"]) == 2
    assert "t-end" in capsys.readouterr().err


def test_evolve_rejects_exact_with_drive(capsys):
    code = main(["evolve", "--methods", "exact", "--r", "1", "--t-end", "1"])
    assert code == 2
    assert "exact" in capsys.readouterr().err


def test_evolve_rejects_unknown_method(capsys):
    assert main(["evolve", "--methods", "magic", "--t-end", "1"]) == 2


def test_evolve_short_averaging_window_is_usage_error(capsys):
    code = main([
        "evolve", "--t-end", "0.05", "--methods", "numeric", "--hf-average",
    ])
    assert code == 2
    assert "shorter" in capsys.readouterr().err


def test_evolve_sample_grid_is_independent_of_methods(capsys):
    # 0.3 / 0.1 rounds below 3 and 3 * 0.1 > 0.3: the grid keeps exactly
    # the multiples k * dt <= t_end, with or without the numeric engine
    columns = []
    for methods in ("avg", "avg,numeric"):
        code = main(["evolve", "--t-end", "0.3", "--sample-dt", "0.1", "--methods", methods])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        columns.append([ln.split(",")[0] for ln in lines])
    assert columns[0] == columns[1]
    assert len(columns[0]) == 3
    for methods in ("avg", "avg,numeric"):
        code = main([
            "evolve", "--t-start", "0.31", "--t-end", "0.35", "--sample-dt", "0.1",
            "--methods", methods,
        ])
        assert code == 2
        assert "window shorter than one sample interval" in capsys.readouterr().err
        code = main(["evolve", "--t-end", "0.3", "--sample-dt", "0", "--methods", methods])
        assert code == 2
        assert "sample_dt must be > 0" in capsys.readouterr().err


def test_evolve_ms_beside_bessel_zero(capsys):
    # r1 typed to 11 digits sits 1.5e-9 off the zero, inside the branch
    code = main([
        "evolve", "--omega-perp", "3", "--omega-par", "-1", "--Omega-HF", "50",
        "--r", "2.4048255592", "--phi-hf", "pi/2", "--t-end", "0.1", "--methods", "ms",
    ])
    assert code == 0
    assert capsys.readouterr().out.startswith("t,ms\n")


def test_negative_value_in_exponent_notation_is_not_a_flag(capsys):
    code = main([
        "evolve", "--omega-par", "-2.07e-05", "--t-end", "0.1", "--methods", "avg",
    ])
    assert code == 0
    assert capsys.readouterr().out.startswith("t,avg\n")


def test_evolve_deterministic_bytes(tmp_path):
    args = [
        "evolve", "--omega-par", "-1", "--r", "r1", "--t-end", "3",
        "--methods", "avg,ms",
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# --- sweep -----------------------------------------------------------------------

def test_sweep_closed_amplitudes(capsys):
    code = main([
        "sweep", "--r", "0", "--grid", "-1", "0", "2",
        "--methods", "exact",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "omega_par,exact"
    w0, a0 = (float(x) for x in lines[1].split(","))
    w1, a1 = (float(x) for x in lines[2].split(","))
    assert (w0, w1) == (-1.0, 0.0)
    assert abs(a0 - 1.0) < 1e-12
    assert abs(a1 - 0.9) < 1e-12


def test_sweep_failure_exit_code_and_gaps(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--r", "0", "--grid", "-1", "-1", "1",
        "--methods", "numeric", "--t-end", "1",
        "--out", str(out),
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert "sweep point omega_par=-1 [numeric] failed" in err
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "omega_par,numeric"
    assert lines[1].endswith(",")  # gap cell for the failed point


def test_sweep_requires_grid(capsys):
    assert main(["sweep", "--methods", "avg"]) == 2
    assert "--grid" in capsys.readouterr().err


def test_sweep_grid_tokens(capsys):
    # pi tokens work as bounds (negative ones must be written numerically,
    # since a leading dash reads as a flag)
    code = main([
        "sweep", "--r", "0", "--grid", "0", "pi", "3",
        "--methods", "avg",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert abs(float(lines[-1].split(",")[0]) - math.pi) < 1e-12


# --- compare ---------------------------------------------------------------------

def test_compare_closed_form_equivalence(tmp_path, capsys):
    out = tmp_path / "cmp.json"
    code = main([
        "compare", "--preset", "fig7", "--t-end", "30",
        "--methods", "avg,ms", "--out", str(out),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    devs = {}
    for ln in stdout.strip().splitlines():
        name, _, val = ln.partition(" max_deviation = ")
        devs[name] = float(val)
    assert devs["ms"] < 1e-12
    assert devs["avg"] < 1e-12
    doc = json.loads(out.read_text())
    assert doc["schema"] == "spinhf/compare/1"
    assert abs(doc["phase_shift"] - R1) < 1e-12
    assert doc["max_deviation"]["ms"] < 1e-12


def test_compare_requires_t_end(capsys):
    assert main(["compare", "--methods", "ms", "--r", "r1", "--omega-par", "-1"]) == 2


# --- presets and config -----------------------------------------------------------

def test_preset_subcommand_mismatch(capsys):
    assert main(["evolve", "--preset", "fig2"]) == 2
    assert "belongs to subcommand" in capsys.readouterr().err


def test_unknown_preset(capsys):
    assert main(["evolve", "--preset", "fig99"]) == 2


def test_preset_table_is_complete():
    assert set(PRESETS) == {"fig2", "fig3", "fig3b", "fig4", "fig5", "fig6", "fig7"}
    for name, data in PRESETS.items():
        assert data["subcommand"] in ("evolve", "sweep", "compare")


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "subcommand": "evolve", "omega_par": -1.0, "r": 0.0,
        "t_end": 2.0, "methods": "avg",
    }))
    out_cfg = tmp_path / "cfg.csv"
    assert main(["evolve", "--config", str(cfg), "--out", str(out_cfg)]) == 0
    lines = out_cfg.read_text().strip().splitlines()
    assert lines[0] == "t,avg"
    assert float(lines[-1].split(",")[0]) <= 2.0 + 1e-12

    # an explicit flag wins over the config value
    out_flag = tmp_path / "flag.csv"
    assert main([
        "evolve", "--config", str(cfg), "--t-end", "1", "--out", str(out_flag),
    ]) == 0
    last_t = float(out_flag.read_text().strip().splitlines()[-1].split(",")[0])
    assert last_t <= 1.0 + 1e-12


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"t_end": 1.0, "bogus": 2}))
    assert main(["evolve", "--config", str(cfg)]) == 2
    assert "unknown config keys" in capsys.readouterr().err
    # jobs is not a setting: a sweep runs in one process
    cfg.write_text(json.dumps({"grid": [-1, 0, 2], "methods": "avg", "jobs": 2}))
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "unknown config keys: ['jobs']" in capsys.readouterr().err


def test_config_bad_values_rejected_before_out_is_touched(tmp_path, capsys):
    out = tmp_path / "keep.csv"
    for bad, msg in (
        ({"format": "xml"}, "unknown format 'xml'"),
        ({"hf_average": "false"}, "hf_average must be true or false, got 'false'"),
    ):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))
        for argv in (
            ["evolve", "--t-end", "1", "--methods", "avg"],
            ["sweep", "--grid", "-1", "0", "2", "--methods", "avg"],
        ):
            out.write_bytes(b"earlier output\n")
            assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 2
            assert msg in capsys.readouterr().err
            assert out.read_bytes() == b"earlier output\n"


def test_config_subcommand_mismatch(tmp_path, capsys):
    cfg = tmp_path / "mis.json"
    cfg.write_text(json.dumps({"subcommand": "sweep", "t_end": 1.0}))
    assert main(["evolve", "--config", str(cfg), "--methods", "avg"]) == 2


def test_config_invalid_json(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["evolve", "--config", str(cfg)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


# --- top level --------------------------------------------------------------------

def test_unknown_flag_is_argparse_error():
    for argv in (
        ["evolve", "--nope"],
        ["sweep", "--r", "0", "--grid", "-1", "0", "2", "--methods", "avg", "--jobs", "1"],
    ):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2, argv


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["--version"])
    assert exc_info.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_broken_pipe_exits_quietly():
    # a downstream consumer that closes early (| head) must not traceback
    import shlex
    import subprocess
    import sys

    cmd = (
        f"{shlex.quote(sys.executable)} -m spinhf.cli evolve "
        "--omega-perp 3 --omega-par 0 --Omega-HF 50 --r 0 --phi-hf 0 "
        "--t-end 200 --methods exact | head -2"
    )
    proc = subprocess.run(cmd, shell=True, capture_output=True, text=True)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert proc.stderr == ""


def test_unbounded_horizon_exits_2_before_out_is_touched(tmp_path):
    # inf, -inf and nan are no horizon, and 1e300 needs more sample rows
    # than the cap allows (the grid rule would never finish stepping to its
    # last row); each exits 2 before any work. A subprocess with a timeout
    # keeps a hang from stalling the suite.
    src = os.path.dirname(os.path.dirname(os.path.abspath(spinhf.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = tmp_path / "out"
    cases = [(cmd, "avg,numeric") for cmd in ("evolve", "compare", "sweep")] + [("evolve", "avg")]
    for command, methods in cases:
        for t_end in ("inf", "-inf", "nan", "1e300"):
            out.write_bytes(b"kept\n")
            argv = [
                sys.executable, "-m", "spinhf.cli", command, f"--t-end={t_end}",
                "--methods", methods, "--out", str(out),
            ]
            if command == "sweep":
                argv += ["--grid", "-1", "0", "2"]
            proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
            case = (command, methods, t_end, proc.stderr)
            assert proc.returncode == 2, case
            assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr, case
            assert out.read_bytes() == b"kept\n", case


def test_out_of_range_tol_exits_2_before_out_is_touched(tmp_path, capsys):
    # a tol the Floquet engine rejects, or a horizon whose finest substep
    # t_end / 2^17 is 0, is a usage error for every command that runs it,
    # checked before any point runs, stdout is written or --out is opened
    out = tmp_path / "out"
    cases = [(["--tol", tol], f"tol {float(tol)!r} outside supported range (1e-12, 1e-06)")
             for tol in ("1e-3", "1e-15")]
    # the last --t-end given wins
    cases.append((["--t-end", "1e-320"], "t_end must be > 0, and t_end / 2^17 too, got 1e-320"))
    for command in ("evolve", "compare", "sweep"):
        for flags, message in cases:
            out.write_bytes(b"kept\n")
            argv = [command, "--r", "1", "--methods", "avg,numeric", "--out", str(out)]
            argv += ["--grid", "-2", "0", "3"] if command == "sweep" else ["--t-end", "1"]
            assert main(argv + flags) == 2, argv + flags
            assert capsys.readouterr() == ("", f"error: {message}\n"), argv + flags
            assert out.read_bytes() == b"kept\n", argv + flags


def test_compare_numeric_failure_writes_nothing(tmp_path, capsys, monkeypatch):
    # tol = 1e-12 needs more than 128 substeps per period here: the numeric
    # method fails after avg has run, and neither stdout nor --out is written
    monkeypatch.setattr(numeric, "_MAGNUS_MAX_SUBSTEPS", 128)
    out = tmp_path / "out"
    out.write_bytes(b"kept\n")
    argv = ["compare", "--r", "8.65", "--t-end", "1", "--methods", "avg,numeric", "--tol", "1e-12"]
    assert main(argv + ["--out", str(out)]) == 3
    stdout, stderr = capsys.readouterr()
    assert stdout == "" and stderr.startswith("numerical failure: Floquet propagator not converged")
    assert out.read_bytes() == b"kept\n"


# Every scalar option of evolve, compare, sweep (the three --grid fields
# too) and constants, fed each hostile value in turn on an otherwise cheap
# run: 29 options x 7 values. Values go in as --opt=value, so a leading
# dash is read as a value; --grid takes three words, and a -inf or -1
# there reads as a flag, which argparse rejects with exit 2.
_HOSTILE = ("inf", "-inf", "nan", "0", "-1", "1e300", "5e-324")
_TRACE_FLAGS = {
    "omega-perp": "3", "omega-par": "-1", "Omega-HF": "50", "r": "1", "phi-hf": "pi/2",
    "t-end": "0.6", "t-start": "0", "sample-dt": "pi/800", "tol": "1e-8",
}
_SWEEP_FLAGS = {
    "omega-perp": "3", "Omega-HF": "50", "r": "1", "phi-hf": "pi/2", "t-end": "6",
    "tol": "1e-8",
}
_SWEEP_GRID = ("-1.5", "-0.5", "3")


def _hostile_cases():
    methods = ["--methods", "avg,ms,numeric"]
    for command in ("evolve", "compare"):
        for flag in _TRACE_FLAGS:
            for value in _HOSTILE:
                args = [f"--{k}={value if k == flag else v}" for k, v in _TRACE_FLAGS.items()]
                yield [command, *args, *methods, "--hf-average"], True
    for flag in [*_SWEEP_FLAGS, 0, 1, 2]:
        for value in _HOSTILE:
            args = [f"--{k}={value if k == flag else v}" for k, v in _SWEEP_FLAGS.items()]
            grid = [value if i == flag else g for i, g in enumerate(_SWEEP_GRID)]
            yield ["sweep", *args, "--grid", *grid, *methods], True
    for value in _HOSTILE:
        yield ["constants", f"--zeros={value}", "--gamma-at=1"], False
        yield ["constants", "--zeros=2", f"--gamma-at={value}"], False


def test_hostile_scalar_options_exit_cleanly(tmp_path, capsys):
    # every case exits 0, 2 or 3 with no traceback, and an exit 2 leaves
    # an existing --out as it was
    out = tmp_path / "out"
    cases, bad = list(_hostile_cases()), []
    assert len(cases) == 203
    for argv, has_out in cases:
        out.write_bytes(b"kept\n")
        argv = argv + ["--out", str(out)] if has_out else argv
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the word itself
            code = exc.code
        except BaseException as exc:  # noqa: BLE001 - the case under test
            code = f"{type(exc).__name__}: {exc}"
        err = capsys.readouterr().err
        if code not in (0, 2, 3) or "Traceback" in err:
            bad.append((argv, code, err))
        elif code == 2 and out.read_bytes() != b"kept\n":
            bad.append((argv, "--out changed", err))
    assert not bad, bad


def test_overflowing_closed_form_is_a_numerical_failure(capsys):
    # (1 + omega_par)^2 leaves the float range inside the slow record
    for command, methods in (("evolve", "avg"), ("evolve", "ms"), ("compare", "avg"), ("compare", "ms")):
        assert main([command, "--omega-par=1e300", "--t-end=1", "--methods", methods]) == 3
        assert capsys.readouterr().err.startswith("numerical failure: float overflow")
