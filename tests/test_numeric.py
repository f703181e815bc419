import math

import numpy as np
import pytest

from oracles import integrate_schrodinger
from spinhf import cli, numeric, special
from spinhf.analytic import MethodId, amplitude_closed, expect_sz_closed, omega_eff, omega_ms
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
    resonance_sweep,
    sample_times,
)
from spinhf.su2 import ZERO_VEC, Spinor

R1 = special.bessel_j0_zero(1)


def params(**kw):
    base = dict(omega_perp=3.0, omega_par=-1.0, Omega_HF=50.0, r=1.0, phi_hf=math.pi / 2)
    base.update(kw)
    return DriveParams(**base)


def lab_rk(p, init, t_end, **kw):
    # the RK oracle without its norm drift: the (series, final state) of an engine
    series, final, _ = integrate_schrodinger(p, init, t_end, **kw)
    return series, final


# Both engines solve the exact dynamics: lab-frame RK (the oracle) and the
# stroboscopic Floquet-Magnus engine. The engine tests loop over both.
ENGINES = (lab_rk, evolve_floquet)


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
        lab, lab_final, _ = integrate_schrodinger(p, init, t_end, sample_dt=sample_dt, tol=1e-10)
        floq, floq_final = evolve_floquet(p, init, t_end, sample_dt=sample_dt, tol=1e-10)
        assert np.array_equal(lab.times, floq.times), case
        assert np.max(np.abs(lab.values - floq.values)) < 1e-8, case
        assert abs(floq_final.up - lab_final.up) < 1e-8, case
        assert abs(floq_final.down - lab_final.down) < 1e-8, case


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
    series, final, drift = integrate_schrodinger(params(), Spinor.plus(), 1000.0, tol=1e-10)
    assert drift < 1e-8
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
    drive = numeric._drives([p], [period])
    ends = [numeric._period_tables(drive, n)[..., -1] for n in (32, 64, 128, 256)]
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


def test_non_finite_drive_fails_at_its_first_level(monkeypatch, capsys):
    # a field too strong for floats gives a NaN U(T) at once: the drive fails
    # at the first comparison of two levels, not after every level up to
    # the cap, while a finite but aliased drive keeps refining to the cap
    levels = []
    tables = numeric._period_tables
    monkeypatch.setattr(numeric, "_period_tables", lambda d, n: levels.append(n) or tables(d, n))
    argv = ["evolve", "--t-end", "1", "--methods", "numeric"]
    assert cli.main(argv + ["--omega-perp", "1e300"]) == 3
    assert levels == [64, 128]
    assert "Floquet propagator not finite at 128 substeps" in capsys.readouterr().err
    levels.clear()
    assert cli.main(argv + ["--r", "1e300"]) == 3
    assert levels == [64 << i for i in range(12)]
    assert "not converged to tol 1e-08 within 131072 substeps" in capsys.readouterr().err
    # in a batch the broken drive fails alone; the finite one is unchanged
    init, good = Spinor.plus(), params(r=8.65)
    ps = [params(omega_perp=1e300), good]
    broken, run = numeric._evolve_drives(ps, init, [1.0, 1.0], [None, None], 1e-8)
    assert isinstance(broken, StiffnessError)
    assert _same_run(evolve_floquet(good, init, 1.0), run)


def test_sample_grid_rejects_unbounded_horizons():
    # an infinite horizon, or one past the row cap, fails before any allocation
    for t_end in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="t_end must be finite"):
            sample_times(t_end, 0.1)
    cap = numeric._MAX_SAMPLES
    for t_end, dt in ((1e300, 0.1), (1.0, 1e-300), (float(cap), 1.0)):
        with pytest.raises(ValueError, match="exceeds the cap"):
            sample_times(t_end, dt)
    # the largest grid allowed, counted without allocating it
    assert numeric._sample_count(cap - 1.0, 1.0) == cap
    assert sample_times(-1e300, 0.1).size == 0


# --- batched engine -------------------------------------------------------------

BATCH_TOLS = (1e-8, 1e-12)


def _batch_drives():
    # horizons, spans, sample spacings and substep counts all differ:
    # 4096, 1024, 1024, 65536, 128, 2048, 1024 and 1024 substeps at tol
    # 1e-12. The first, fourth and fifth grids lie on the period lattice
    # (T / 32); the fifth has U(T) = 1, no axis. The others take each
    # sample as its own phase: the spacings of the second and sixth do not
    # divide T, and the horizons of the third and seventh are shorter than
    # T. The eighth spacing divides its horizon, shorter than T, which the
    # table then spans: a lattice of 25 phases.
    return [
        (params(omega_par=-8.0, r=8.65, phi_hf=0.917), 0.7, None),
        (params(omega_par=0.3, phi_hf=0.9), 2.0, 0.013),
        (params(r=R1), 0.05, None),
        (params(omega_par=-30.0, r=8.65, phi_hf=0.917), 0.4, None),
        (params(omega_perp=0.0, r=0.0), 1.0, None),
        (params(omega_par=0.5, r=2.0, phi_hf=0.3), 3.0, 0.007),
        (params(omega_par=-0.4, r=0.6, phi_hf=2.0), 0.1, None),
        (params(omega_par=-0.4, r=0.6, phi_hf=2.0), 0.1, 0.004),
    ]


def _same_run(single, batched):
    series, final = single
    b_series, b_final = batched
    return (
        np.array_equal(series.times, b_series.times)
        and np.array_equal(series.values, b_series.values)
        and (final.up, final.down) == (b_final.up, b_final.down)
    )


def test_batched_engine_matches_single_drive_runs(monkeypatch):
    init = Spinor.superposition(0.6, 0.4)
    drives = _batch_drives()
    ps, t_ends, dts = zip(*drives)
    for tol in BATCH_TOLS:
        singles = [evolve_floquet(p, init, t, sample_dt=dt, tol=tol) for p, t, dt in drives]
        # a small chunk splits the long grids, lattice or not, into several passes
        for chunk in (numeric._CHUNK, 97):
            monkeypatch.setattr(numeric, "_CHUNK", chunk)
            batched = numeric._evolve_drives(ps, init, t_ends, dts, tol)
            assert all(_same_run(s, b) for s, b in zip(singles, batched)), (tol, chunk)


def test_batched_engine_fails_a_drive_alone(monkeypatch):
    init = Spinor.plus()
    drives = _batch_drives()
    singles = [evolve_floquet(p, init, t, sample_dt=dt, tol=1e-12) for p, t, dt in drives]
    # the fourth drive needs 65536 substeps, the others at most 4096
    monkeypatch.setattr(numeric, "_MAGNUS_MAX_SUBSTEPS", 8192)
    ps, t_ends, dts = zip(*drives)
    batched = numeric._evolve_drives(ps, init, t_ends, dts, 1e-12)
    assert isinstance(batched[3], StiffnessError)
    assert all(_same_run(s, b) for k, (s, b) in enumerate(zip(singles, batched)) if k != 3)


def test_converged_record_is_the_same_in_a_batch_and_alone():
    # each drive's record (table, N, span, beta, u) is built at its own level;
    # U(span) scaled to unit norm is cos beta - i sin beta u.sigma
    ps, t_ends, _ = zip(*_batch_drives())
    for tol in BATCH_TOLS:
        batch = numeric._converged_tables(numeric._drives(ps, t_ends), tol)
        for p, t_end, record in zip(ps, t_ends, batch):
            alone = numeric._converged_tables(numeric._drives([p], [t_end]), tol)[0]
            table, n_sub, span, beta, u = record
            assert np.array_equal(table, alone[0]) and record[1:] == alone[1:], (tol, p)
            assert table.shape == (4, n_sub + 1) and not table.flags.writeable
            assert span == min(TWO_PI / p.Omega_HF, t_end)
            end = table[:, -1] / np.linalg.norm(table[:, -1])
            turn = (math.cos(beta), *(math.sin(beta) * a for a in u.as_tuple()))
            assert np.max(np.abs(end - turn)) < 1e-15, (tol, p)
        # the fifth drive has U(T) = 1, which has no axis
        assert batch[4][3:] == (0.0, ZERO_VEC)


def test_lattice_sampling_matches_per_sample_phases(monkeypatch):
    # the period lattice evaluates each of the P phases once; forcing every
    # sample to be its own phase must agree to rounding, samples and final state
    rng = np.random.default_rng(17)
    drives = []
    for _ in range(24):
        p = DriveParams(
            omega_perp=rng.uniform(-4.0, 4.0), omega_par=rng.uniform(-3.0, 2.0),
            Omega_HF=rng.choice([20.0, 50.0, 80.0]), r=rng.uniform(0.0, 5.0),
            phi_hf=rng.uniform(0.0, TWO_PI),
        )
        period = TWO_PI / p.Omega_HF
        dt = rng.choice([None, period / 16, period / 64])
        drives.append((p, rng.choice([rng.uniform(0.05, 5.0), rng.uniform(5.0, 1000.0)]), dt))
    ps, t_ends, dts = zip(*drives)
    assert all(numeric._lattice(min(TWO_PI / p.Omega_HF, t), dt or default_sample_dt(p))
               for p, t, dt in drives if t > TWO_PI / p.Omega_HF)
    init = Spinor.superposition(0.6, 0.4)
    lattice = numeric._evolve_drives(ps, init, t_ends, dts, 1e-8)
    monkeypatch.setattr(numeric, "_lattice", lambda span, dt: 0)
    phases = numeric._evolve_drives(ps, init, t_ends, dts, 1e-8)
    for (series, final), (b_series, b_final) in zip(lattice, phases):
        assert np.array_equal(series.times, b_series.times)
        assert np.max(np.abs(series.values - b_series.values)) < 1e-12
        assert max(abs(final.up - b_final.up), abs(final.down - b_final.down)) < 1e-12


def test_sweep_horizon_error_fails_its_point_alone():
    # at Omega_HF = 2000 the floored horizon of the branch point needs more
    # sample rows than the cap allows; the point beside it still runs
    p = params(r=R1, Omega_HF=2000.0)
    res = resonance_sweep(p, [-1.0, 0.0], ["avg", "numeric"], on_error="collect")
    assert [f[:2] for f in res.failures] == [(-1.0, "numeric")]
    assert "exceeds the cap" in res.failures[0][2]
    q = params(r=R1, Omega_HF=2000.0, omega_par=0.0)
    series, _ = evolve_floquet(q, Spinor.plus(), 1.5 * TWO_PI / abs(omega_ms(q)))
    assert res.amplitudes["numeric"][1] == extract_amplitude(hf_average(series, q), q)


def _per_point_sweep(p, grid, tol):
    # the numeric column point by point: its own evolve_floquet, then
    # hf_average and extract_amplitude, over 1.5 slow periods
    amps, failures, first = [], [], None
    for w in grid:
        q = DriveParams(p.omega_perp, w, p.Omega_HF, p.r, p.phi_hf)
        try:
            horizon = 1.5 * TWO_PI / max(abs(omega_ms(q)), numeric.OMEGA_FLOOR)
            series, _ = evolve_floquet(q, Spinor.plus(), horizon, tol=tol)
            amps.append(extract_amplitude(hf_average(series, q), q))
        except Exception as exc:
            amps.append(math.nan)
            failures.append((w, "numeric", str(exc)))
            first = first or (w, exc)
    return np.array(amps), tuple(failures), first


def test_batched_sweep_is_bit_identical_to_per_point_runs():
    # at tol 1e-12 the points converge at 4,096 to 65,536 substeps or pass
    # the cap; short horizons, a window longer than the series and the
    # StiffnessError each fail their own point
    p = params(omega_par=0.0, r=8.65, phi_hf=0.917)
    grid = np.linspace(-30.0, 80.0, 6)
    for tol in BATCH_TOLS:
        amps, failures, (w, exc) = _per_point_sweep(p, grid, tol)
        res = resonance_sweep(p, grid, ["avg", "numeric"], tol=tol, on_error="collect")
        assert np.array_equal(res.amplitudes["numeric"], amps, equal_nan=True), tol
        assert res.failures == failures, tol
        assert np.isfinite(amps).any() and failures, tol
        with pytest.raises(SweepPointError) as exc_info:
            resonance_sweep(p, grid, ["avg", "numeric"], tol=tol)
        assert exc_info.value.omega_par == w
        assert type(exc_info.value.cause) is type(exc) and str(exc_info.value.cause) == str(exc)
    # the closed-form failures come first, then the numeric ones in grid order
    res = resonance_sweep(p, grid, ["exact", "numeric"], on_error="collect")
    assert [f[1] for f in res.failures] == ["exact"] * 6 + ["numeric"] * len(failures)


def test_sweep_rejects_unusable_horizon():
    p = params()
    for t_end in (math.inf, -math.inf, math.nan, 0.0, -1.0, 1e300):
        with pytest.raises(ValueError):
            resonance_sweep(p, [-1.0, 0.0], methods=("avg", "numeric"), t_end=t_end)


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


def test_sweep_beside_bessel_zero_has_no_failures():
    # r1 + 1.5e-9 is on the degenerate branch by its J0; the numeric
    # horizon reads the same branch frequency as the ms column
    res = resonance_sweep(params(r=R1 + 1.5e-9), [-1.0], methods=("ms", "numeric"))
    assert res.failures == ()
    assert res.amplitudes["ms"][0] == 1.0
    assert abs(res.amplitudes["numeric"][0] - 1.0) < 0.01


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
