"""Command-line front end.

Subcommands: constants (zero/coefficient tables), evolve (time traces),
sweep (resonance curves), compare (drive-phase equivalence check).
Named presets carry the parameter sets of the reference figures so each
data file is reproducible with a single command. Every output format
lives here: one CSV writer (_write_csv) gives the evolve and sweep tables
in fixed %.12e cells, and each command builds its own JSON document;
identical inputs give identical bytes. Each subcommand takes only the
flags it reads.

Exit codes: 0 success, 2 usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from typing import Optional

import numpy as np

from . import __version__, analytic, numeric
from .model import TWO_PI, DriveParams
from .special import bessel_j0, bessel_j0_zero, struve_h0
from .su2 import Spinor

_USAGE_EXIT = 2
_NUMERIC_EXIT = 3

_METHOD_ORDER = ("exact", "avg", "ms", "numeric")
_CSV_CHUNK = 1 << 12  # rows formatted at a time; bounds the strings held
_MAX_ZEROS = 10_000  # J0 zeros constants lists at most (its lines are held in memory)


class UsageError(Exception):
    pass


_ANGLE_RE = re.compile(r"^([+-]?(?:\d+\.?\d*|\.\d+)?)\s*pi\s*(?:/\s*(\d+\.?\d*))?$")
_ZERO_RE = re.compile(r"^r(\d+)$")


def parse_scalar(text: str) -> float:
    """Parse a real number, a 'pi' expression (pi, -pi/2, 3pi/4), or a
    Bessel-zero token rN (r1, r2, ...)."""
    s = str(text).strip().lower()
    try:
        return float(s)
    except ValueError:
        pass
    m = _ANGLE_RE.match(s)
    if m:
        coef = m.group(1)
        if coef in ("", "+"):
            c = 1.0
        elif coef == "-":
            c = -1.0
        else:
            c = float(coef)
        div = float(m.group(2)) if m.group(2) else 1.0
        if div == 0.0:
            raise UsageError(f"zero divisor in angle token {text!r}")
        return c * math.pi / div
    m = _ZERO_RE.match(s)
    if m:
        j = int(m.group(1))
        if j < 1:
            raise UsageError(f"zero index in {text!r} must be >= 1")
        return bessel_j0_zero(j)
    raise UsageError(
        f"cannot parse {text!r}: expected a number, a pi token (e.g. pi/2), or rN"
    )


def _initial_coeffs(text: str) -> tuple[float, float]:
    """(c, phase) of an initial-state spec, for Spinor.superposition."""
    s = str(text).strip().lower()
    if s == "plus":
        return 1.0, 0.0
    if s == "minus":
        return 0.0, 0.0
    parts = s.split(",")
    if len(parts) != 2:
        raise UsageError(
            f"initial state {text!r} must be 'plus', 'minus', or 'c,phase'"
        )
    try:
        c = parse_scalar(parts[0])
        phase = parse_scalar(parts[1])
    except ValueError as exc:
        raise UsageError(f"bad initial state {text!r}: {exc}") from exc
    if not 0.0 <= c <= 1.0:
        raise UsageError(f"initial weight c = {c!r} outside [0, 1]")
    return c, phase


def parse_initial(text: str) -> Spinor:
    return Spinor.superposition(*_initial_coeffs(text))


def parse_methods(text) -> list[str]:
    if isinstance(text, (list, tuple)):
        names = [str(x).strip() for x in text]
    else:
        names = [x.strip() for x in str(text).split(",") if x.strip()]
    if not names:
        raise UsageError("empty method list")
    bad = [n for n in names if n not in _METHOD_ORDER]
    if bad:
        raise UsageError(
            f"unknown methods {bad}; choose from {', '.join(_METHOD_ORDER)}"
        )
    return [n for n in _METHOD_ORDER if n in names]


# Preset parameter sets for the reference figures. fig3b is the late
# dephasing window of the fig3 scenario.
_SQRT_HALF = math.sqrt(0.5)
PRESETS: dict[str, dict] = {
    "fig2": {
        "subcommand": "sweep",
        "omega_perp": 3.0, "Omega_HF": 50.0, "phi_hf": "pi/2", "r": 1.0,
        "grid": [-4.0, 2.0, 25], "methods": "avg,numeric", "initial": "plus",
    },
    "fig3": {
        "subcommand": "evolve",
        "omega_perp": 3.0, "omega_par": -1.0, "Omega_HF": 50.0,
        "phi_hf": "pi/2", "r": 1.0, "initial": "plus",
        "methods": "avg,ms,numeric", "t_end": 6.0, "hf_average": True,
    },
    "fig3b": {
        "subcommand": "evolve",
        "omega_perp": 3.0, "omega_par": -1.0, "Omega_HF": 50.0,
        "phi_hf": "pi/2", "r": 1.0, "initial": "plus",
        "methods": "avg,ms,numeric", "t_start": 1700.0, "t_end": 1706.0,
        "hf_average": True,
    },
    "fig4": {
        "subcommand": "sweep",
        "omega_perp": 3.0, "Omega_HF": 50.0, "phi_hf": "pi/2", "r": "r1",
        "grid": [-1.02, -0.98, 9], "methods": "ms,numeric", "initial": "plus",
    },
    "fig5": {
        "subcommand": "evolve",
        "omega_perp": 3.0, "omega_par": -1.0, "Omega_HF": 50.0,
        "phi_hf": "pi/2", "r": "r1", "initial": "plus",
        "methods": "avg,ms,numeric", "t_end": 1000.0, "hf_average": True,
    },
    "fig6": {
        "subcommand": "evolve",
        "omega_perp": 3.0, "omega_par": -1.0, "Omega_HF": 50.0,
        "phi_hf": "pi/2", "r": "r1", "initial": "plus",
        "methods": "ms,numeric", "t_end": 1000.0, "hf_average": True,
    },
    "fig7": {
        "subcommand": "compare",
        "omega_perp": 3.0, "omega_par": -1.0, "Omega_HF": 50.0,
        "phi_hf": "pi/2", "r": "r1", "initial": f"{_SQRT_HALF!r},0",
        "methods": "avg,ms,numeric", "t_end": 1000.0, "hf_average": True,
    },
}

_DEFAULTS = {
    "omega_perp": 3.0, "omega_par": 0.0, "Omega_HF": 50.0, "r": 0.0,
    "phi_hf": 0.0, "initial": "plus", "methods": "numeric",
    "t_start": 0.0, "t_end": None, "sample_dt": None, "tol": 1e-8,
    "grid": None, "hf_average": False, "format": "csv",
    "out": None, "zeros": 3, "gamma_at": None,
}
_CONFIG_KEYS = {"subcommand", *_DEFAULTS}


def _merge_settings(args: argparse.Namespace, subcommand: str) -> dict:
    """defaults < preset < config file < explicit flags."""
    merged = dict(_DEFAULTS)
    preset = getattr(args, "preset", None)
    if preset is not None:
        if preset not in PRESETS:
            raise UsageError(
                f"unknown preset {preset!r}; available: {', '.join(sorted(PRESETS))}"
            )
        pdata = PRESETS[preset]
        if pdata["subcommand"] != subcommand:
            raise UsageError(
                f"preset {preset!r} belongs to subcommand {pdata['subcommand']!r}"
            )
        merged.update({k: v for k, v in pdata.items() if k != "subcommand"})
    cfg_path = getattr(args, "config", None)
    if cfg_path is not None:
        try:
            with open(cfg_path, "r", encoding="utf-8") as fp:
                cfg = json.load(fp)
        except OSError as exc:
            raise UsageError(f"cannot read config {cfg_path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"config {cfg_path!r} is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise UsageError(f"config {cfg_path!r} must hold a JSON object")
        unknown = set(cfg) - _CONFIG_KEYS
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        sub = cfg.pop("subcommand", None)
        if sub is not None and sub != subcommand:
            raise UsageError(
                f"config requests subcommand {sub!r} but {subcommand!r} was invoked"
            )
        merged.update(cfg)
    for key in _DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    # checked before any work, so a bad value cannot truncate --out
    if merged["format"] not in ("csv", "json"):
        raise UsageError(f"unknown format {merged['format']!r}")
    if not isinstance(merged["hf_average"], bool):
        raise UsageError(f"hf_average must be true or false, got {merged['hf_average']!r}")
    try:
        merged["tol"] = float(merged["tol"])
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int past the float range
        raise UsageError(f"tol must be a number, got {merged['tol']!r}") from None
    return merged


def _as_count(value) -> Optional[int]:
    """value as an int if it is one or an integral float, else None (a bool too)."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return value if isinstance(value, int) and not isinstance(value, bool) else None


def _build_params(s: dict) -> DriveParams:
    return DriveParams(
        omega_perp=parse_scalar(s["omega_perp"]),
        omega_par=parse_scalar(s["omega_par"]),
        Omega_HF=parse_scalar(s["Omega_HF"]),
        r=parse_scalar(s["r"]),
        phi_hf=parse_scalar(s["phi_hf"]),
    )


def _check_methods_params(methods: list[str], p: DriveParams):
    if "exact" in methods and p.r != 0.0:
        raise UsageError(
            "method 'exact' is the r = 0 closed form; rerun with --r 0 "
            "or drop it from --methods"
        )


def _write_out(path: Optional[str], write, *args) -> None:
    """write(fp, *args) on stdout (no path, or "-") or on the file at path."""
    if path is None or path == "-":
        write(sys.stdout, *args)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fp:
            write(fp, *args)


def _write_json(fp, obj: dict) -> None:
    json.dump(obj, fp, indent=1, sort_keys=False)
    fp.write("\n")


def _write_csv(fp, header: list[str], columns: list[np.ndarray]) -> None:
    """A header line, then one row of %.12e cells per index of the
    equal-length columns. Rows are stacked and formatted _CSV_CHUNK at a
    time, one format string per block, so the text held stays bounded. A
    non-finite value gets an empty cell (a failed sweep point)."""
    fp.write(",".join(header) + "\n")
    row = ",".join(["%.12e"] * len(columns)) + "\n"
    for lo in range(0, len(columns[0]), _CSV_CHUNK):
        block = np.stack([c[lo : lo + _CSV_CHUNK] for c in columns], axis=1)
        if np.isfinite(block).all():
            fp.write(row * len(block) % tuple(block.ravel().tolist()))
        else:
            fp.writelines(
                ",".join("%.12e" % x if math.isfinite(x) else "" for x in cells) + "\n"
                for cells in block.tolist()
            )


# ---------------------------------------------------------------------------
# constants

def cmd_constants(args: argparse.Namespace) -> int:
    s = _merge_settings(args, "constants")
    zeros = _as_count(s["zeros"])
    if zeros is None or zeros > _MAX_ZEROS:
        raise UsageError(f"--zeros must be an integer from 0 to {_MAX_ZEROS}, got {s['zeros']!r}")
    if zeros < 0:
        raise UsageError("--zeros must be >= 0")
    lines = []
    for j in range(1, zeros + 1):
        try:
            lines.append(f"r_{j} = {bessel_j0_zero(j):.10f}")
        except Exception as exc:
            lines.append(f"r_{j} = error: {exc}")
    gamma_at = s["gamma_at"]
    rows = []
    if gamma_at is not None:
        if isinstance(gamma_at, str):
            tokens = [t for t in gamma_at.split(",") if t.strip()]
        else:
            tokens = list(gamma_at)
        for tok in tokens:
            r = parse_scalar(tok)
            cells = [f"{r:.12e}"]
            for fn in (bessel_j0, struve_h0, analytic.gamma1, analytic.gamma2):
                try:
                    cells.append(f"{fn(r):.12e}")
                except Exception as exc:
                    cells.append(f"error: {exc}")
            rows.append(cells)
    out = sys.stdout
    for ln in lines:
        out.write(ln + "\n")
    if rows:
        out.write("r,J0,H0,gamma1,gamma2\n")
        for cells in rows:
            out.write(",".join(cells) + "\n")
    return 0


# ---------------------------------------------------------------------------
# evolve

def _evolve_columns(s: dict, p: DriveParams, init: Spinor, methods: list[str]):
    """Shared time grid plus one value column per method.

    With hf_average the grid is the averaged one (window centers); the
    raw numeric column is midpoint-interpolated onto it.
    """
    t_start = float(parse_scalar(s["t_start"]))
    if s["t_end"] is None:
        raise UsageError("--t-end is required for evolve")
    t_end = float(parse_scalar(s["t_end"]))
    if not t_end > t_start:
        raise UsageError(f"need t_end > t_start, got [{t_start}, {t_end}]")
    if t_start < 0.0:
        raise UsageError("t_start must be >= 0")
    sample_dt = (
        float(parse_scalar(s["sample_dt"])) if s["sample_dt"] is not None
        else numeric.default_sample_dt(p)
    )
    columns: dict[str, np.ndarray] = {}

    if "numeric" in methods:
        series, _ = numeric.evolve_floquet(p, init, t_end, sample_dt=sample_dt, tol=s["tol"])
        if s["hf_average"]:
            averaged = numeric.hf_average(series, p)
            grid = averaged.times
            m = grid.size
            # window centers fall on samples (odd window) or midway
            # between them (even window); align the raw column by index
            w = round((TWO_PI / p.Omega_HF) / sample_dt)
            if w % 2 == 0:
                raw_mid = 0.5 * (series.values[:-1] + series.values[1:])
                columns["numeric"] = raw_mid[w // 2 - 1 : w // 2 - 1 + m]
            else:
                columns["numeric"] = series.values[w // 2 : w // 2 + m]
            columns["numeric_avg"] = averaged.values
        else:
            grid = series.times
            columns["numeric"] = series.values
    else:
        grid = numeric.sample_times(t_end, sample_dt)
    keep = grid >= t_start - 1e-12 * max(1.0, t_start)
    if not keep.any():
        raise UsageError("window shorter than one sample interval")
    grid = grid[keep]
    columns = {name: col[keep] for name, col in columns.items()}

    for name in methods:
        if name == "numeric":
            continue
        columns[name] = analytic.expect_sz_closed(analytic.MethodId(name), grid, p, init)

    return grid, {n: columns[n] for n in (*_METHOD_ORDER, "numeric_avg") if n in columns}


def cmd_evolve(args: argparse.Namespace) -> int:
    s = _merge_settings(args, "evolve")
    p = _build_params(s)
    init = parse_initial(s["initial"])
    methods = parse_methods(s["methods"])
    _check_methods_params(methods, p)
    grid, columns = _evolve_columns(s, p, init, methods)

    if s["format"] == "csv":
        _write_out(s["out"], _write_csv, ["t", *columns], [grid, *columns.values()])
    else:
        _write_out(s["out"], _write_json, {
            "schema": "spinhf/evolve/1",
            "version": __version__,
            "params": p.to_json_dict(),
            "initial": s["initial"],
            "tol": s["tol"],
            "hf_average": s["hf_average"],
            "t": grid.tolist(),
            "traces": {k: v.tolist() for k, v in columns.items()},
        })
    return 0


# ---------------------------------------------------------------------------
# sweep

def cmd_sweep(args: argparse.Namespace) -> int:
    s = _merge_settings(args, "sweep")
    p = _build_params(s)
    methods = parse_methods(s["methods"])
    _check_methods_params(methods, p)
    if s["grid"] is None:
        raise UsageError("--grid MIN MAX POINTS is required for sweep")
    graw = s["grid"]
    if not isinstance(graw, list) or len(graw) != 3:
        raise UsageError("--grid takes exactly MIN MAX POINTS")
    lo = parse_scalar(graw[0])
    hi = parse_scalar(graw[1])
    # the flag's words parse with int(); a config count must be integral
    npts = int(graw[2]) if isinstance(graw[2], str) else _as_count(graw[2])
    if not (npts is not None and math.isfinite(lo) and math.isfinite(hi)
            and (hi > lo if npts > 1 else npts == 1 and hi == lo)):
        raise UsageError(f"bad grid spec {graw!r}")
    grid = np.linspace(lo, hi, npts)
    t_end = float(parse_scalar(s["t_end"])) if s["t_end"] is not None else None
    result = numeric.resonance_sweep(
        p, grid, methods, tol=s["tol"], t_end=t_end, on_error="collect",
    )
    for w, name, msg in result.failures:
        sys.stderr.write(f"sweep point omega_par={w:.6g} [{name}] failed: {msg}\n")

    grid, amps = result.omega_par_grid, result.amplitudes
    if s["format"] == "csv":
        _write_out(s["out"], _write_csv, ["omega_par", *amps], [grid, *amps.values()])
    else:
        _write_out(s["out"], _write_json, {
            "schema": "spinhf/sweep/1",
            "params": p.to_json_dict(),
            "omega_par": grid.tolist(),
            "amplitudes": {
                k: [x if math.isfinite(x) else None for x in v.tolist()] for k, v in amps.items()
            },
            "failures": [list(f) for f in result.failures],
            "version": __version__,
            "tol": s["tol"],
        })
    return 0 if not result.failures else _NUMERIC_EXIT


# ---------------------------------------------------------------------------
# compare

def cmd_compare(args: argparse.Namespace) -> int:
    """Compare <sigma_z> for the drive phase phi_hf against the drive phase
    zero with the initial-state azimuth advanced by r sin(phi_hf).

    The closed-form methods share one slow generator, so their deviation
    is 0 to rounding. The twins are equivalent only at leading order in
    1/Omega_HF, so the numeric deviation is O(1/Omega_HF), not 0; with
    hf_average it follows the difference of the twins' initial kicks
    (analytic.slow_initial_state)."""
    s = _merge_settings(args, "compare")
    p_a = _build_params(s)
    init_spec = str(s["initial"])
    methods = parse_methods(s["methods"])
    _check_methods_params(methods, p_a)
    if s["t_end"] is None:
        raise UsageError("--t-end is required for compare")

    shift = p_a.r * math.sin(p_a.phi_hf)
    p_b = DriveParams(
        omega_perp=p_a.omega_perp, omega_par=p_a.omega_par,
        Omega_HF=p_a.Omega_HF, r=p_a.r, phi_hf=0.0,
    )
    c, phase = _initial_coeffs(init_spec)
    init_a = Spinor.superposition(c, phase)
    init_b = Spinor.superposition(c, phase + shift)

    report = {}
    for name in methods:
        ga, ca = _evolve_columns(s, p_a, init_a, [name])
        gb, cb = _evolve_columns(s, p_b, init_b, [name])
        if name == "numeric" and s["hf_average"]:
            va, vb = ca["numeric_avg"], cb["numeric_avg"]
        else:
            va, vb = ca[name], cb[name]
        n = min(va.size, vb.size)
        dev = float(np.max(np.abs(va[:n] - vb[:n]))) if n else math.nan
        report[name] = dev
    # written once every method has run, so a failing method leaves stdout empty
    sys.stdout.writelines(f"{name} max_deviation = {dev:.12e}\n" for name, dev in report.items())

    if s["out"] is not None:
        _write_out(s["out"], _write_json, {
            "schema": "spinhf/compare/1",
            "version": __version__,
            "params": p_a.to_json_dict(),
            "initial": init_spec,
            "phase_shift": shift,
            "hf_average": s["hf_average"],
            "max_deviation": report,
        })
    return 0


# ---------------------------------------------------------------------------

def _add_shared_flags(sp: argparse.ArgumentParser):
    """The flags of evolve, sweep and compare."""
    sp.add_argument("--omega-perp", dest="omega_perp", help="transverse drive strength")
    sp.add_argument("--omega-par", dest="omega_par", help="longitudinal offset")
    sp.add_argument("--Omega-HF", dest="Omega_HF", help="fast-drive frequency (> 0)")
    sp.add_argument("--r", dest="r", help="fast-drive strength ratio; accepts rN tokens")
    sp.add_argument("--phi-hf", dest="phi_hf", help="fast-drive phase; accepts pi tokens")
    sp.add_argument("--preset", help=f"named parameter set: {', '.join(sorted(PRESETS))}")
    sp.add_argument("--config", help="JSON config file; explicit flags override it")
    sp.add_argument("--initial", help="plus | minus | c,phase")
    sp.add_argument("--methods", help="comma list from exact,avg,ms,numeric")
    sp.add_argument("--t-end", dest="t_end", help="end of the output window")
    sp.add_argument("--tol", type=float, help="integrator tolerance")
    sp.add_argument("--out", help="output path (default stdout)")


def _add_trace_flags(sp: argparse.ArgumentParser):
    """The sampling flags of the traces that evolve and compare compute."""
    sp.add_argument("--t-start", dest="t_start", help="start of the output window")
    sp.add_argument("--sample-dt", dest="sample_dt", help="output sample spacing")
    sp.add_argument(
        "--hf-average", dest="hf_average", action="store_const", const=True,
        help="append the fast-period moving average of the numeric trace",
    )


_NEGATIVE_NUMBER_RE = re.compile(r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?$")


class _ArgumentParser(argparse.ArgumentParser):
    """ArgumentParser that reads a negative number in exponent notation,
    such as --omega-par -2e-05, as a value; the stock pattern of Python
    3.11 only knows -N and -N.N, so it took -2e-05 for an option flag.
    Subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER_RE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing does not mutate it)."""
    ap = _ArgumentParser(
        prog="spinhf",
        description="Two-level spin dynamics under a fast circular drive: "
        "closed-form and numeric traces, resonance sweeps, constant tables.",
    )
    ap.add_argument("--version", action="version", version=f"spinhf {__version__}")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("constants", help="print zero/coefficient tables")
    sp.add_argument("--zeros", type=int, help=f"how many Bessel zeros to list (0 to {_MAX_ZEROS})")
    sp.add_argument(
        "--gamma-at", dest="gamma_at",
        help="comma list of r values (rN tokens allowed) for the coefficient table",
    )
    sp.add_argument("--config", help="JSON config file")
    sp.add_argument("--preset", help=argparse.SUPPRESS)
    sp.set_defaults(func=cmd_constants)

    sp = sub.add_parser("evolve", help="time trace per method")
    _add_shared_flags(sp)
    _add_trace_flags(sp)
    sp.add_argument("--format", choices=("csv", "json"), help="output format")
    sp.set_defaults(func=cmd_evolve)

    sp = sub.add_parser(
        "sweep", help="amplitude vs omega_par",
        description="Every grid point starts from |+> and takes its omega_par from "
        "the grid; --initial and --omega-par are accepted and not read.",
    )
    _add_shared_flags(sp)
    sp.add_argument("--format", choices=("csv", "json"), help="output format")
    sp.add_argument(
        "--grid", nargs=3, metavar=("MIN", "MAX", "POINTS"),
        help="omega_par grid (MIN and MAX accept pi/rN tokens)",
    )
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser(
        "compare",
        help="drive-phase shift vs initial-azimuth shift equivalence",
        description="Prints one max_deviation line per method; --out writes them as JSON.",
    )
    _add_shared_flags(sp)
    _add_trace_flags(sp)
    sp.set_defaults(func=cmd_compare)

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # downstream closed the pipe (e.g. | head); exit quietly, but give
        # the interpreter a writable stdout so shutdown does not re-raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _NUMERIC_EXIT
    except (UsageError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return _USAGE_EXIT
    except numeric.StiffnessError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return _NUMERIC_EXIT
    except OverflowError as exc:  # parameters whose closed form leaves the float range
        sys.stderr.write(f"numerical failure: float overflow {exc}\n")
        return _NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
