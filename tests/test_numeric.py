import io
import math

import numpy as np
import pytest

from spinhf import cli, numeric, special
from spinhf.analytic import MethodId, amplitude_closed, expect_sz_closed, omega_eff
from spinhf.model import TWO_PI, DriveParams
from spinhf.numeric import (
    InsufficientSpanError,
    StiffnessError,
    SweepPointError,
    SweepResult,
    TimeSeries,
    default_sample_dt,
    evolve_floquet,
    extract_amplitude,
    hf_average,
    integrate_schrodinger,
    resonance_sweep,
)
from spinhf.su2 import Spinor

R1 = special.bessel_j0_zero(1)


def params(**kw):
    base = dict(omega_perp=3.0, omega_par=-1.0, Omega_HF=50.0, r=1.0, phi_hf=math.pi / 2)
    base.update(kw)
    return DriveParams(**base)


# Both engines solve the exact dynamics: lab-frame RK (the oracle) and the
# stroboscopic Floquet-Magnus engine. The engine tests loop over both.
ENGINES = (integrate_schrodinger, evolve_floquet)


# --- integrator accuracy ------------------------------------------------------

def test_matches_exact_solution_without_hf_drive():
    for engine in ENGINES:
        for wpar in (0.0, -1.0):
            p = params(omega_par=wpar, r=0.0)
            series, final = engine(p, Spinor.plus(), 20.0, tol=1e-10)
            ref = expect_sz_closed(MethodId.EXACT_R0, series.times, p, Spinor.plus())
            dev = np.max(np.abs(series.values - ref))
            assert dev < 1e-8, engine.__name__
            assert abs(abs(final.up) ** 2 + abs(final.down) ** 2 - 1.0) < 1e-12, engine.__name__


def test_sz_conserved_without_transverse_field():
    p = params(omega_perp=0.0, omega_par=0.3, r=0.5)
    for engine in ENGINES:
        series, _ = engine(p, Spinor.plus(), 10.0)
        assert np.max(np.abs(series.values - 1.0)) < 1e-12, engine.__name__
        init = Spinor.superposition(0.6, 0.4)
        series, _ = engine(p, init, 10.0)
        assert np.max(np.abs(series.values - (-0.28))) < 1e-12, engine.__name__


_SUPERPOSED = Spinor.superposition(0.6, 0.3)
_FRAME_CASES = {  # name: (DriveParams overrides, initial state, run options)
    "branch": (dict(r=R1), Spinor.plus(), {}),
    "phase": (dict(omega_par=0.3, phi_hf=0.9), Spinor.plus(), {}),
    "r=8.65": (dict(r=8.65), _SUPERPOSED, {}),
    "Omega_HF=10": (dict(Omega_HF=10.0), _SUPERPOSED, {}),
    "sample_dt=0.01": (dict(omega_par=0.3), _SUPERPOSED, dict(sample_dt=0.01)),  # not T/k
    "t_end=0.05": (dict(omega_par=0.3), _SUPERPOSED, dict(t_end=0.05)),  # shorter than T
}


def test_lab_and_transformed_frames_agree():
    # the Floquet engine, stepped in the rotating frame, against lab-frame RK
    for case, (kw, init, run) in _FRAME_CASES.items():
        p = params(**kw)
        t_end = run.get("t_end", 15.0)
        sample_dt = run.get("sample_dt")
        lab, lab_final = integrate_schrodinger(p, init, t_end, sample_dt=sample_dt, tol=1e-10)
        floq, floq_final = evolve_floquet(p, init, t_end, sample_dt=sample_dt, tol=1e-10)
        assert np.array_equal(lab.times, floq.times), case
        assert np.max(np.abs(lab.values - floq.values)) < 1e-8, case
        assert abs(floq_final.up - lab_final.up) < 1e-8, case
        assert abs(floq_final.down - lab_final.down) < 1e-8, case
        assert floq.norm_drift == 0.0, case


def test_tightening_tolerance_never_hurts():
    p = params(omega_par=0.4, r=0.0)
    for engine in ENGINES:
        devs = []
        for tol in (1e-6, 1e-8, 1e-10):
            series, _ = engine(p, Spinor.plus(), 20.0, tol=tol)
            ref = expect_sz_closed(MethodId.EXACT_R0, series.times, p, Spinor.plus())
            devs.append(np.max(np.abs(series.values - ref)))
        assert devs[1] <= devs[0] + 1e-15, engine.__name__
        assert devs[2] <= devs[1] + 1e-15, engine.__name__


def test_norm_drift_budget_over_long_run():
    # contract: recorded drift below 1e-8 per 1000 time units at tol 1e-10
    series, final = integrate_schrodinger(params(), Spinor.plus(), 1000.0, tol=1e-10)
    assert series.norm_drift < 1e-8
    assert abs(abs(final.up) ** 2 + abs(final.down) ** 2 - 1.0) < 1e-12


def test_integrate_validation():
    p = params()
    for engine in ENGINES:
        with pytest.raises(ValueError):
            engine(p, Spinor.plus(), 0.0)
        with pytest.raises(ValueError):
            engine(p, Spinor.plus(), 1.0, tol=1e-3)
        with pytest.raises(ValueError):
            engine(p, Spinor.plus(), 1.0, tol=1e-13)
        with pytest.raises(ValueError):
            engine(p, Spinor.plus(), 1.0, sample_dt=-0.1)


def test_sampling_grid_is_exact_multiples():
    p = params()
    dt = default_sample_dt(p)
    for engine in ENGINES:
        series, _ = engine(p, Spinor.plus(), 10 * dt)
        assert len(series) == 11, engine.__name__
        assert series.times[-1] == 10 * dt, engine.__name__
        assert np.array_equal(series.times, np.arange(11) * dt), engine.__name__
        # t_end / sample_dt rounds below 29 here, and to 35 just below 35 * 0.01
        series, _ = engine(p, Spinor.plus(), 29 * 0.01, sample_dt=0.01)
        assert np.array_equal(series.times, np.arange(30) * 0.01), engine.__name__
        series, _ = engine(p, Spinor.plus(), math.nextafter(35 * 0.01, 0.0), sample_dt=0.01)
        assert np.array_equal(series.times, np.arange(35) * 0.01), engine.__name__


def test_floquet_period_propagator_converges_at_fourth_order():
    # each doubling of the Magnus substeps cuts the change of U(T) about 16x
    p = params(r=R1)
    period = TWO_PI / p.Omega_HF
    ends = [numeric._propagator_table(p, period, n)[:, -1] for n in (32, 64, 128, 256)]
    changes = [float(np.max(np.abs(b - a))) for a, b in zip(ends, ends[1:])]
    for coarse, fine in zip(changes, changes[1:]):
        assert 12.0 < coarse / fine < 20.0, changes


def test_floquet_substep_cap_raises_stiffness_error(monkeypatch, capsys):
    # tol = 1e-12 needs more than 128 substeps per period here
    monkeypatch.setattr(numeric, "_MAGNUS_MAX_SUBSTEPS", 128)
    with pytest.raises(StiffnessError, match="128 substeps"):
        evolve_floquet(params(r=8.65), Spinor.plus(), 1.0, tol=1e-12)
    code = cli.main([
        "evolve", "--r", "8.65", "--t-end", "1", "--tol", "1e-12", "--methods", "numeric",
    ])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


# --- HF averaging ---------------------------------------------------------------

def _uniform_series(p, values, dt):
    n = values.size
    return TimeSeries(
        times=np.arange(n) * dt, values=values, method="synthetic", params=p
    )


def test_hf_average_preserves_constant():
    p = params()
    dt = default_sample_dt(p)
    series = _uniform_series(p, np.full(200, 0.7), dt)
    avg = hf_average(series, p)
    assert np.max(np.abs(avg.values - 0.7)) < 1e-15
    assert len(avg) == 200 - 32 + 1
    assert avg.method.endswith("+hfavg")


def test_hf_average_removes_hf_ripple():
    # a whole-period rectangular window nulls the drive harmonic exactly
    p = params()
    dt = default_sample_dt(p)
    ts = np.arange(320) * dt
    series = _uniform_series(p, np.cos(p.Omega_HF * ts), dt)
    avg = hf_average(series, p)
    assert np.max(np.abs(avg.values)) < 1e-12


def test_hf_average_attenuation_of_slow_component():
    # rectangular window attenuates cos(w t) by 1 - sinc(pi w / Omega_HF),
    # about (pi^2/6) (w / Omega_HF)^2
    p = params()
    w = omega_eff(p)
    dt = default_sample_dt(p)
    n = int(3 * TWO_PI / w / dt)
    ts = np.arange(n) * dt
    series = _uniform_series(p, np.cos(w * ts), dt)
    avg = hf_average(series, p)
    dev = np.max(np.abs(avg.values - np.cos(w * avg.times)))
    ratio2 = (w / p.Omega_HF) ** 2
    assert dev <= 2.0 * ratio2
    assert dev >= 0.5 * ratio2


def test_hf_average_validation():
    p = params()
    dt = default_sample_dt(p)
    with pytest.raises(ValueError, match="uniform"):
        hf_average(
            TimeSeries(
                times=np.array([0.0, dt, 3 * dt]),
                values=np.zeros(3),
                method="synthetic",
                params=p,
            ),
            p,
        )
    big = TWO_PI / p.Omega_HF / 4.0
    with pytest.raises(ValueError, match="tenth"):
        hf_average(_uniform_series(p, np.zeros(100), big), p)
    odd = TWO_PI / p.Omega_HF / 10.5
    with pytest.raises(ValueError, match="divide"):
        hf_average(_uniform_series(p, np.zeros(100), odd), p)
    with pytest.raises(ValueError, match="shorter"):
        hf_average(_uniform_series(p, np.zeros(20), dt), p)


# --- amplitude extraction --------------------------------------------------------

def _closed_series(method, p, times):
    values = expect_sz_closed(method, times, p, Spinor.plus())
    return TimeSeries(times=times, values=values, method=method.value, params=p)


def test_extract_amplitude_on_resonance():
    p = params()
    w = omega_eff(p)
    step = math.pi / w / 100.0  # extremes land exactly on the grid
    times = np.arange(401) * step
    series = _closed_series(MethodId.AVERAGING, p, times)
    assert abs(extract_amplitude(series, p) - 1.0) < 1e-9


def test_extract_amplitude_off_resonance():
    p = params(omega_par=0.0, r=0.0)
    w = math.sqrt(10.0)
    step = math.pi / w / 300.0
    times = np.arange(801) * step
    series = _closed_series(MethodId.EXACT_R0, p, times)
    assert abs(extract_amplitude(series, p) - 0.9) < 1e-9


def test_extract_amplitude_requires_span():
    p = params()
    times = np.linspace(0.0, 1.0, 50)
    series = _closed_series(MethodId.AVERAGING, p, times)
    with pytest.raises(InsufficientSpanError, match="requires t_end >="):
        extract_amplitude(series, p)


# --- TimeSeries container ---------------------------------------------------------

def test_timeseries_validation():
    p = params()
    with pytest.raises(ValueError, match="increasing"):
        TimeSeries(times=np.array([0.0, 2.0, 1.0]), values=np.zeros(3), method="m", params=p)
    with pytest.raises(ValueError, match="outside"):
        TimeSeries(times=np.array([0.0, 1.0]), values=np.array([0.0, 1.5]), method="m", params=p)
    with pytest.raises(ValueError, match="equal length"):
        TimeSeries(times=np.array([0.0, 1.0]), values=np.zeros(3), method="m", params=p)
    with pytest.raises(ValueError, match="at least one"):
        TimeSeries(times=np.array([]), values=np.array([]), method="m", params=p)


def test_timeseries_immutable():
    p = params()
    s = TimeSeries(times=np.array([0.0, 1.0]), values=np.array([0.5, 0.5]), method="m", params=p)
    with pytest.raises(ValueError):
        s.values[0] = 0.0
    assert len(s) == 2
    assert s.norm_drift == 0.0


# --- SweepResult container ----------------------------------------------------------

def test_sweep_result_validation():
    p = params()
    grid = np.array([-1.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="increasing"):
        SweepResult(omega_par_grid=grid[::-1].copy(), amplitudes={}, params=p)
    with pytest.raises(ValueError, match="mismatch"):
        SweepResult(omega_par_grid=grid, amplitudes={"avg": np.zeros(2)}, params=p)
    with pytest.raises(ValueError, match="outside"):
        SweepResult(omega_par_grid=grid, amplitudes={"avg": np.array([0.0, 0.5, 1.5])}, params=p)
    # NaN marks a failed point and is allowed
    SweepResult(omega_par_grid=grid, amplitudes={"avg": np.array([0.0, np.nan, 1.0])}, params=p)


def test_sweep_result_csv_marks_gaps():
    p = params()
    res = SweepResult(
        omega_par_grid=np.array([-1.0, 0.0]),
        amplitudes={"avg": np.array([1.0, 0.25]), "numeric": np.array([np.nan, 0.25])},
        params=p,
        failures=((-1.0, "numeric", "boom"),),
    )
    buf = io.StringIO()
    res.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "omega_par,avg,numeric"
    first = lines[1].split(",")
    assert first[2] == ""  # gap for the failed point
    d = res.to_json_dict()
    assert d["schema"] == "spinhf/sweep/1"
    assert d["amplitudes"]["numeric"][0] is None
    assert d["failures"] == [[-1.0, "numeric", "boom"]]


# --- sweeps ------------------------------------------------------------------------

def test_mini_sweep_matches_exact_amplitudes():
    p = params(r=0.0)
    grid = [-1.5, -1.0, -0.5]
    res = resonance_sweep(p, grid, methods=("exact", "numeric"))
    assert list(res.amplitudes) == ["exact", "numeric"]
    for i, w in enumerate(grid):
        want = amplitude_closed(MethodId.EXACT_R0, params(omega_par=w, r=0.0))
        assert abs(res.amplitudes["exact"][i] - want) < 1e-12
        assert abs(res.amplitudes["numeric"][i] - want) < 0.02
    assert res.failures == ()


def test_sweep_collect_mode_records_failures():
    # horizon too short for the slow period: every numeric point fails
    p = params(r=0.0)
    res = resonance_sweep(
        p, [-1.0], methods=("exact", "numeric"), t_end=1.0, on_error="collect"
    )
    assert math.isfinite(res.amplitudes["exact"][0])
    assert math.isnan(res.amplitudes["numeric"][0])
    assert len(res.failures) == 1
    w, name, msg = res.failures[0]
    assert w == -1.0 and name == "numeric"
    assert "requires t_end" in msg


def test_sweep_raise_mode():
    p = params(r=0.0)
    with pytest.raises(SweepPointError) as exc_info:
        resonance_sweep(p, [-1.0], methods=("numeric",), t_end=1.0)
    assert exc_info.value.omega_par == -1.0


def test_sweep_closed_method_failure_is_per_point():
    # the exact method is undefined at r != 0, so every point fails
    p = params(r=1.0)
    res = resonance_sweep(p, [-1.0, 0.0], methods=("exact", "avg"), on_error="collect")
    assert np.all(np.isnan(res.amplitudes["exact"]))
    assert np.all(np.isfinite(res.amplitudes["avg"]))
    assert len(res.failures) == 2


def test_sweep_validation():
    p = params()
    with pytest.raises(ValueError, match="nonempty"):
        resonance_sweep(p, [], methods=("avg",))
    with pytest.raises(ValueError, match="increasing"):
        resonance_sweep(p, [0.0, 0.0], methods=("avg",))
    with pytest.raises(ValueError, match="unknown methods"):
        resonance_sweep(p, [0.0], methods=("avg", "magic"))
    with pytest.raises(ValueError, match="on_error"):
        resonance_sweep(p, [0.0], methods=("avg",), on_error="ignore")
    with pytest.raises(ValueError, match="at least one"):
        resonance_sweep(p, [0.0], methods=())
