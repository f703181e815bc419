"""Acceptance suite: one test per acceptance criterion, run in order.

Each test prints a single [PASS]/[FAIL] line with the measured values
before asserting, so the tee'd output documents every criterion even
when one fails.
"""

import math
import time

import numpy as np

from oracles import integrate_schrodinger
from spinhf import special, su2
from spinhf.analytic import (
    MethodId,
    amplitude_closed,
    effective_quantities,
    eta,
    eta_via_vectors,
    expect_sz_closed,
    gamma1,
    gamma2,
    h_eff,
    omega_ms,
    propagator,
    sigma_op,
    slow_initial_state,
)
from spinhf.model import TWO_PI, DriveParams, hamiltonian_transformed
from spinhf.numeric import hf_average, resonance_sweep
from spinhf.su2 import Spinor

R1 = special.bessel_j0_zero(1)


def params(**kw):
    base = dict(omega_perp=3.0, omega_par=-1.0, Omega_HF=50.0, r=1.0, phi_hf=math.pi / 2)
    base.update(kw)
    return DriveParams(**base)


def _report(num: int, ok: bool, detail: str) -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    return line


def test_criterion_1_constants():
    t0 = time.perf_counter()
    z1 = special.bessel_j0_zero(1)
    g1_1 = gamma1(1.0)
    g1_r1 = gamma1(z1)
    elapsed = time.perf_counter() - t0
    checks = [
        abs(z1 - 2.40483) < 1e-5,
        abs(g1_1 - (-0.684533)) < 1e-4,
        abs(g1_r1 - (-0.603984)) < 1e-4,
        elapsed < 60.0,
    ]
    line = _report(
        1,
        all(checks),
        f"r_1={z1:.6f} gamma1(1)={g1_1:.6f} gamma1(r_1)={g1_r1:.6f} "
        f"elapsed={elapsed:.1f}s",
    )
    assert all(checks), line


def test_criterion_2_exact_limit():
    t0 = time.perf_counter()
    worst = 0.0
    for wpar in (-1.0, 0.0, 1.0):
        p = params(omega_par=wpar, r=0.0)
        series, _, _ = integrate_schrodinger(p, Spinor.plus(), 20.0, tol=1e-10)
        closed = expect_sz_closed(MethodId.EXACT_R0, series.times, p, Spinor.plus())
        worst = max(worst, float(np.max(np.abs(series.values - closed))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 60.0
    line = _report(2, ok, f"max|numeric-exact|={worst:.3e} elapsed={elapsed:.1f}s")
    assert ok, line


def test_criterion_3_resonance_sweep():
    t0 = time.perf_counter()
    grid = np.linspace(-4.0, 2.0, 25)
    devs = {}
    for r in (1.0, 2.0):
        res = resonance_sweep(params(omega_par=0.0, r=r), grid, methods=("avg", "numeric"))
        assert res.failures == ()
        devs[r] = float(np.max(np.abs(res.amplitudes["numeric"] - res.amplitudes["avg"])))
    exact_curve = np.array(
        [amplitude_closed(MethodId.EXACT_R0, params(omega_par=float(w), r=0.0)) for w in grid]
    )
    peak_idx = int(np.argmax(exact_curve))
    peak_at_res = abs(grid[peak_idx] - (-1.0)) < 1e-12 and abs(exact_curve[peak_idx] - 1.0) < 1e-12
    elapsed = time.perf_counter() - t0
    ok = devs[1.0] < 0.02 and devs[2.0] < 0.02 and peak_at_res and elapsed < 600.0
    line = _report(
        3,
        ok,
        f"maxdev r=1: {devs[1.0]:.4f}, r=2: {devs[2.0]:.4f}, "
        f"exact peak at omega_par={grid[peak_idx]:+.2f} value={exact_curve[peak_idx]:.6f}, "
        f"elapsed={elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_4_resonant_dephasing():
    t0 = time.perf_counter()
    p = params()
    plus = Spinor.plus()

    series, _, _ = integrate_schrodinger(p, plus, 6.0)
    avg = hf_average(series, p)
    ms_early = expect_sz_closed(MethodId.MULTI_SCALE, avg.times, p, plus)
    av_early = expect_sz_closed(MethodId.AVERAGING, avg.times, p, plus)
    dev_ms_early = float(np.max(np.abs(ms_early - avg.values)))
    dev_av_early = float(np.max(np.abs(av_early - avg.values)))

    series, _, _ = integrate_schrodinger(p, plus, 1706.0)
    late = hf_average(series, p)
    mask = late.times >= 1700.0
    lt = late.times[mask]
    lv = late.values[mask]
    ms_late = expect_sz_closed(MethodId.MULTI_SCALE, lt, p, plus)
    av_late = expect_sz_closed(MethodId.AVERAGING, lt, p, plus)
    dev_ms_late = float(np.max(np.abs(ms_late - lv)))
    dev_av_late = float(np.max(np.abs(av_late - lv)))

    elapsed = time.perf_counter() - t0
    checks = [
        dev_ms_early < 0.05,
        dev_av_early < 0.05,
        dev_ms_late < 0.1,
        dev_av_late > 1.0,
        elapsed < 300.0,
    ]
    line = _report(
        4,
        all(checks),
        f"[0,6] ms={dev_ms_early:.4f} avg={dev_av_early:.4f}; "
        f"[1700,1706] ms={dev_ms_late:.4f} avg={dev_av_late:.4f}; elapsed={elapsed:.1f}s",
    )
    assert all(checks), line


def test_criterion_5_degenerate_branch():
    t0 = time.perf_counter()
    plus = Spinor.plus()

    p_branch = params(r=R1)
    w_ms = omega_ms(p_branch)
    series, _, _ = integrate_schrodinger(p_branch, plus, 1000.0)
    avg = hf_average(series, p_branch)
    dev_cos = float(np.max(np.abs(avg.values - np.cos(w_ms * avg.times))))

    p_off = params(omega_par=-1.1, r=R1)
    series, _, _ = integrate_schrodinger(p_off, plus, 6.0)
    off_min = float(hf_average(series, p_off).values.min())

    grid = np.linspace(-1.02, -0.98, 9)
    res = resonance_sweep(p_branch, grid, methods=("numeric",))
    assert res.failures == ()
    amps = res.amplitudes["numeric"]
    center = int(np.argmin(np.abs(grid - (-1.0))))
    above = {int(i) for i in np.nonzero(amps > 0.9)[0]}

    elapsed = time.perf_counter() - t0
    checks = [
        dev_cos < 0.05,
        off_min > 0.9,
        above == {center},
        elapsed < 600.0,
    ]
    amps_str = "[" + " ".join(f"{a:.3f}" for a in amps) + "]"
    line = _report(
        5,
        all(checks),
        f"|numeric-cos|={dev_cos:.4f}; off-resonance min={off_min:.4f}; "
        f"sweep amps={amps_str}; elapsed={elapsed:.1f}s",
    )
    assert all(checks), line


def test_criterion_6_phase_gauge_pair():
    t0 = time.perf_counter()
    c = math.sqrt(0.5)
    p_a = params(r=R1)
    p_b = params(r=R1, phi_hf=0.0)
    init_a = Spinor.superposition(c, 0.0)
    init_b = Spinor.superposition(c, R1)

    series_a, _, _ = integrate_schrodinger(p_a, init_a, 1000.0)
    series_b, _, _ = integrate_schrodinger(p_b, init_b, 1000.0)
    avg_a = hf_average(series_a, p_a)
    avg_b = hf_average(series_b, p_b)
    ts = avg_a.times
    assert np.array_equal(ts, avg_b.times)

    def ms_trace(p, init):
        return expect_sz_closed(MethodId.MULTI_SCALE, ts, p, init)

    ms_a = ms_trace(p_a, init_a)
    ms_b = ms_trace(p_b, init_b)
    av_a = expect_sz_closed(MethodId.AVERAGING, ts, p_a, init_a)
    # The twins are equivalent at leading order in 1/Omega_HF only: at first
    # order they differ by the initial kick of the slow evolution, which
    # vanishes for twin A (phi_hf = pi/2) but not for twin B.
    ms1_a = ms_trace(p_a, slow_initial_state(p_a, init_a))
    ms1_b = ms_trace(p_b, slow_initial_state(p_b, init_b))

    ms_ident = float(np.max(np.abs(ms_a - ms_b)))
    num_pair = float(np.max(np.abs(avg_a.values - avg_b.values)))
    num_pair_kick = float(np.max(np.abs((avg_a.values - avg_b.values) - (ms1_a - ms1_b))))
    num_a_ms = float(np.max(np.abs(avg_a.values - ms_a)))
    num_b_ms = float(np.max(np.abs(avg_b.values - ms_b)))
    num_b_ms1 = float(np.max(np.abs(avg_b.values - ms1_b)))
    avg_flat = float(np.max(np.abs(av_a)))
    num_vs_avg = float(np.max(np.abs(avg_a.values - av_a)))

    elapsed = time.perf_counter() - t0
    checks = [
        ms_ident < 1e-12,
        num_pair_kick < 0.05,
        num_a_ms < 0.05,
        num_b_ms1 < 0.05,
        avg_flat < 1e-12,
        num_vs_avg > 0.5,
        elapsed < 300.0,
    ]
    line = _report(
        6,
        all(checks),
        f"ms identical={ms_ident:.2e}; numeric pair={num_pair:.4f} "
        f"(minus kick difference {num_pair_kick:.4f}); "
        f"numeric vs ms: A={num_a_ms:.4f} B={num_b_ms:.4f} "
        f"(B from kicked state {num_b_ms1:.4f}); "
        f"averaged trace max={avg_flat:.2e}; numeric vs averaged={num_vs_avg:.4f}; "
        f"elapsed={elapsed:.1f}s",
    )
    assert all(checks), line


def test_criterion_7_property_suite():
    t0 = time.perf_counter()
    failures = []

    # two correction routes agree
    worst_eta = 0.0
    for wperp in (1.5, 3.0):
        for wpar in (-1.0, 0.0, 0.7):
            for r in (0.5, 1.0, 2.0):
                for phi in (0.0, math.pi / 2):
                    p = params(omega_perp=wperp, omega_par=wpar, r=r, phi_hf=phi)
                    worst_eta = max(worst_eta, abs(eta(p) - eta_via_vectors(p)))
    if not worst_eta < 1e-8:
        failures.append(f"eta routes {worst_eta:.2e}")

    # secular vector is orthogonal to the rotation axis
    rng = np.random.default_rng(7)
    worst_dot = 0.0
    count = 0
    while count < 100:
        p = DriveParams(
            omega_perp=float(rng.uniform(0.2, 5.0)),
            omega_par=float(rng.uniform(-3.0, 2.0)),
            Omega_HF=float(rng.uniform(10.0, 200.0)),
            r=float(rng.uniform(0.0, 6.0)),
            phi_hf=float(rng.uniform(0.0, TWO_PI)),
        )
        q = effective_quantities(p)
        n, m = q.n, q.m
        if n is None:
            continue
        worst_dot = max(worst_dot, abs(n.dot(m)) / max(1.0, m.norm()))
        count += 1
    if not worst_dot < 1e-12:
        failures.append(f"n.m {worst_dot:.2e}")

    # oscillating accumulation closes over a period
    worst_sigma = 0.0
    for p in (params(omega_par=0.4, r=1.6, phi_hf=0.9), params(), params(omega_par=0.0, r=2.0, phi_hf=0.0)):
        worst_sigma = max(worst_sigma, sigma_op(TWO_PI, p).max_abs())
    if not worst_sigma < 1e-9:
        failures.append(f"sigma(2pi) {worst_sigma:.2e}")

    # averaged generator equals the period average
    worst_heff = 0.0
    n_grid = 200001
    ts = np.linspace(0.0, TWO_PI, n_grid)
    h = ts[1] - ts[0]
    for p in (params(omega_par=0.3, r=1.6, phi_hf=0.9), params(r=2.0)):
        vx = np.empty(n_grid)
        vy = np.empty(n_grid)
        for i, t0_ in enumerate(ts):
            op = hamiltonian_transformed(float(t0_), p)
            vx[i] = op.vx.real
            vy[i] = op.vy.real
        ref = h_eff(p)
        worst_heff = max(
            worst_heff,
            abs(np.trapezoid(vx, dx=h) / TWO_PI - ref.vx.real),
            abs(np.trapezoid(vy, dx=h) / TWO_PI - ref.vy.real),
        )
    if not worst_heff < 1e-10:
        failures.append(f"h_eff average {worst_heff:.2e}")

    # drive-phase shift vs initial-azimuth shift, closed propagators
    worst_pair = 0.0
    init_a = Spinor.superposition(math.sqrt(0.5), 0.0)
    for p_a, p_b, shift in (
        (params(r=R1), params(r=R1, phi_hf=0.0), R1),
        (params(omega_par=0.0, phi_hf=0.7), params(omega_par=0.0, phi_hf=0.0), math.sin(0.7)),
    ):
        init_b = Spinor.superposition(math.sqrt(0.5), shift)
        for method in (MethodId.AVERAGING, MethodId.MULTI_SCALE):
            for t in (0.0, 3.0, 50.0, 400.0):
                worst_pair = max(
                    worst_pair,
                    abs(
                        expect_sz_closed(method, t, p_a, init_a)
                        - expect_sz_closed(method, t, p_b, init_b)
                    ),
                )
    if not worst_pair < 1e-12:
        failures.append(f"phase pair {worst_pair:.2e}")

    # closed propagators stay unitary out to t = 2000
    worst_unit = 0.0
    for p in (params(r=0.0), params(omega_par=0.3), params(r=R1)):
        for method in (MethodId.EXACT_R0, MethodId.AVERAGING, MethodId.MULTI_SCALE):
            if method is MethodId.EXACT_R0 and p.r != 0.0:
                continue
            for t in (0.1, 100.0, 2000.0):
                u = propagator(method, t, p)
                prod = u @ u.adjoint()
                worst_unit = max(
                    worst_unit,
                    abs(prod.s - 1.0),
                    abs(prod.vx),
                    abs(prod.vy),
                    abs(prod.vz),
                )
    if not worst_unit < 1e-9:
        failures.append(f"unitarity {worst_unit:.2e}")

    # correction coefficients vanish with the drive
    g0 = max(abs(gamma1(0.0)), abs(gamma2(0.0)))
    if not g0 < 1e-8:
        failures.append(f"gamma(0) {g0:.2e}")

    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        failures.append(f"elapsed {elapsed:.1f}s")
    ok = not failures
    line = _report(
        7,
        ok,
        f"eta={worst_eta:.1e} n.m={worst_dot:.1e} sigma={worst_sigma:.1e} "
        f"h_eff={worst_heff:.1e} pair={worst_pair:.1e} unitary={worst_unit:.1e} "
        f"gamma0={g0:.1e} elapsed={elapsed:.1f}s"
        + ("" if ok else "; failed: " + "; ".join(failures)),
    )
    assert ok, line
