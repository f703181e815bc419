import math
import threading

import numpy as np
import pytest

from spinhf import analytic, special, su2
from spinhf.analytic import (
    EffectiveQuantities,
    MethodId,
    ResonantBranchError,
    ab_funcs,
    amplitude_closed,
    effective_quantities,
    eta,
    eta_via_vectors,
    expect_sz_closed,
    gamma1,
    gamma2,
    h0_op,
    h_eff,
    is_resonant_branch,
    lambda_op,
    ms_hamiltonian,
    omega0,
    omega_eff,
    omega_ms,
    propagator,
    sigma_op,
    slow_initial_state,
)
from oracles import QuadratureSpec, integrate, integrate_schrodinger, quadrature_gamma_pair
from spinhf.model import TWO_PI, DriveParams, hamiltonian_transformed, initial_gauge_factor
from spinhf.numeric import hf_average, resonance_sweep
from spinhf.su2 import Spinor, Vec3

R1 = 2.404825557695773

# Frozen from high-resolution independent evaluations (cumulative Simpson
# on the unreduced integrals, 1e-12 target); the other gamma values are
# those the adaptive quadrature oracle (oracles.py) converges to.
GAMMA1_AT_1_ORACLE = -0.6845326710662112
GAMMA2_AT_1_ORACLE = -0.3939762631457828
GAMMA1_AT_1 = -0.6845326710661928
GAMMA1_AT_R1 = -0.6039833732241502
GAMMA2_AT_1 = -0.3939762631458468
GAMMA2_AT_R1 = -0.6415807323994118
ETA_REF = -2.012811247283165
ETA_ORACLE = -2.0128112472832203


def params(**kw):
    base = dict(omega_perp=3.0, omega_par=-1.0, Omega_HF=50.0, r=1.0, phi_hf=math.pi / 2)
    base.update(kw)
    return DriveParams(**base)


def _cumtrapz(y, h):
    out = np.empty_like(y)
    out[0] = 0.0
    np.cumsum((y[1:] + y[:-1]) * (h / 2), out=out[1:])
    return out


# --- gamma coefficients ------------------------------------------------------

def test_gamma_frozen_values():
    assert abs(gamma1(1.0) - GAMMA1_AT_1) < 1e-12
    assert abs(gamma1(R1) - GAMMA1_AT_R1) < 1e-12
    assert abs(gamma2(1.0) - GAMMA2_AT_1) < 1e-12
    assert abs(gamma2(R1) - GAMMA2_AT_R1) < 1e-12
    assert abs(gamma1(1.0) - GAMMA1_AT_1_ORACLE) < 1e-10
    assert abs(gamma2(1.0) - GAMMA2_AT_1_ORACLE) < 1e-10
    # headline values
    assert abs(gamma1(1.0) - (-0.684533)) < 1e-4
    assert abs(gamma1(R1) - (-0.603984)) < 1e-4


def test_gamma_matches_trapezoid_oracle():
    # independent re-evaluation of the unreduced forms on a dense grid
    n = 400001
    ts = np.linspace(0.0, TWO_PI, n)
    h = ts[1] - ts[0]
    for r in (1.0, R1):
        s = np.sin(r * np.sin(ts))
        c = np.cos(r * np.sin(ts))
        C = _cumtrapz(c, h)
        S = _cumtrapz(s, h)
        j0 = special.bessel_j0(r)
        h0 = special.struve_h0(r)
        g1 = 0.5 * np.pi**2 * j0 * h0 * h0 + (2 / np.pi) * np.trapezoid(s * C * S, dx=h)
        g2 = (
            0.25 * np.pi**2 * h0 * h0
            - (4 * np.pi**2 / 3) * j0 * j0
            - j0 / TWO_PI * np.trapezoid(ts * ts * c, dx=h)
            + np.trapezoid(ts * (c * C + s * S), dx=h) / np.pi
        )
        assert abs(gamma1(r) - g1) < 5e-10
        assert abs(gamma2(r) - g2) < 5e-10


def test_gamma_vanish_without_drive():
    assert abs(gamma1(0.0)) < 1e-8
    assert abs(gamma2(0.0)) < 1e-8


def test_gamma_rejects_negative_argument():
    with pytest.raises(ValueError):
        gamma1(-0.5)
    # outside the Bessel domain both routes raise before any work
    for r in (50.5, 1e9):
        for route in (gamma1, quadrature_gamma_pair):
            with pytest.raises(ValueError, match=r"^bessel_j0 argument \|x\| = .* outside"):
                route(r)
    for r in (math.inf, math.nan):
        with pytest.raises(ValueError, match=r"^bessel_j0 requires a finite argument"):
            gamma2(r)


def test_gamma_custom_spec_bypasses_cache():
    loose = quadrature_gamma_pair(1.0, QuadratureSpec(rel_tol=1e-6, abs_tol=1e-6, max_refinements=20))[0]
    assert abs(loose - GAMMA1_AT_1) < 1e-5


def test_gamma_cache_thread_safe():
    r = 1.23456789  # not used elsewhere, so every thread races on a cold key
    results = []
    lock = threading.Lock()

    def worker():
        v = (gamma1(r), gamma2(r))
        with lock:
            results.append(v)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 8
    assert all(v == results[0] for v in results)


def test_spectral_gamma_pair_matches_quadrature_oracle():
    # the adaptive-quadrature oracle is independent of the Bessel row;
    # every J0 zero in the domain is included
    zeros = [special.bessel_j0_zero(j) for j in range(1, 17)]
    assert zeros[-1] < special.BESSEL_DOMAIN < special.bessel_j0_zero(17)
    for r in [float(r) for r in np.linspace(0.0, 50.0, 11)] + [0.3, 16.0, 16.1] + zeros:
        g1, g2 = quadrature_gamma_pair(r)
        assert abs(gamma1(r) - g1) < 1e-12, r
        assert abs(gamma2(r) - g2) < 1e-12, r


def test_gamma_node_count_has_converged():
    # a rule of twice the nodes moves the pair by less than 1e-13, at the
    # top of the domain and at r = 16, where 8r + 128 hits the 256-node rung
    # exactly; the doubled record is built outside the rule cache
    for r in (16.0, 50.0):
        n = analytic._rule_size(r)
        base = analytic._rule_gamma_pair(analytic._gauss_rule(n), r)
        doubled = analytic._rule_gamma_pair(analytic._gauss_rule.__wrapped__(2 * n), r)
        assert base == analytic._default_gamma_pair.__wrapped__(r)
        assert base != doubled, r  # the doubled rule did run
        assert abs(base[0] - doubled[0]) < 1e-13 and abs(base[1] - doubled[1]) < 1e-13, r


def _fourier_gamma_pair(r):
    # the gamma pair with sin(k phi_i) and cos(k phi_i) recomputed for each
    # r by _fourier_parts at the nodes, and Q(0) by _fourier_parts at 0
    x, w = special.gauss_legendre(analytic._rule_size(r))
    phi, w = math.pi * (x + 1.0), math.pi * w
    jk = special.bessel_row(r)
    p_, q_ = analytic._fourier_parts(jk, phi)
    q0 = analytic._fourier_parts(jk, 0.0)[1]
    cum_cos, cum_sin = jk[0] * phi + p_, q0 - q_
    c, s = np.cos(r * np.sin(phi)), np.sin(r * np.sin(phi))
    return analytic._combine_gamma(
        jk[0], 2.0 * q0 / math.pi, w @ (s * cum_cos * cum_sin), w @ (phi * phi * c),
        w @ (phi * (c * cum_cos + s * cum_sin)),
    )


def test_gamma_basis_route_is_bit_identical():
    # the rule's cached bases take the same products of the same values as
    # the per-r route, over [0, 50], at the top of each rule size, on the
    # series rows below r = 1e-5 and at every J0 zero
    tops = [0.0, 16.0, math.nextafter(16.0, 50.0), 48.0, math.nextafter(48.0, 50.0), 50.0]
    series = [5e-324, 1e-300, 1e-12, 5e-6, math.nextafter(1e-5, 0.0), 1e-5]
    zeros = [special.bessel_j0_zero(j) for j in range(1, 17)]
    for r in [float(r) for r in np.linspace(0.0, 50.0, 1001)] + tops + series + zeros:
        sin_even, cos_odd = analytic._gauss_rule(analytic._rule_size(r))[3:]
        k = special.bessel_row(r).size - 1
        assert sin_even.shape[1] >= k // 2 and cos_odd.shape[1] >= (k + 1) // 2, r
        assert analytic._default_gamma_pair.__wrapped__(r) == _fourier_gamma_pair(r), r
    # each basis is as wide as the row at the largest r its rule serves;
    # the shared arrays are read-only
    for n, r_top in ((128, 0.0), (256, 16.0), (512, 48.0), (1024, 50.0)):
        rule, k = analytic._gauss_rule(n), special.bessel_order(r_top)
        assert rule[3].shape == (n, k // 2) and rule[4].shape == (n, (k + 1) // 2)
        assert not any(a.flags.writeable for a in rule)


def test_gamma_cache_is_bounded():
    info = analytic._default_gamma_pair.cache_info()
    assert info.maxsize is not None
    for r in np.linspace(0.01, 0.02, 1000):  # fresh r, not used elsewhere
        gamma1(float(r))
    assert analytic._default_gamma_pair.cache_info().currsize <= info.maxsize
    # one rule record per node count, and the domain takes four counts
    sizes = {analytic._rule_size(float(r)) for r in np.linspace(0.0, 50.0, 5001)}
    assert sizes == {128, 256, 512, 1024}
    for r in (0.0, 16.0, 48.0, 50.0):
        gamma1(r)
    assert analytic._gauss_rule.cache_info().maxsize == 4
    assert analytic._gauss_rule.cache_info().currsize <= 4


def test_slow_constants_at_small_r():
    # leading terms of the small-r series: a = -4 J1 cos phi - (r^3/36) cos 3 phi,
    # b = (r^2/4 - r^4/48) sin 2 phi + (r^4/384) sin 4 phi, gamma1 = -r^2,
    # gamma2 = -r^2/2; 2k/r overflows for the smallest r
    phi = 0.7
    for r in (0.0, 5e-324, 1e-300, 1e-12, 1e-3):
        a, b = ab_funcs(r, phi)
        j1 = r / 2.0 - r**3 / 16.0 + r**5 / 384.0
        a_ser = -4.0 * j1 * math.cos(phi) - r**3 / 36.0 * math.cos(3 * phi)
        b_ser = (r * r / 4.0 - r**4 / 48.0) * math.sin(2 * phi) + r**4 / 384.0 * math.sin(4 * phi)
        assert abs(a - a_ser) <= r**5 + 1e-15 * abs(a_ser) + 4.0 * math.ulp(a_ser), r
        assert abs(b - b_ser) <= r**6 + 1e-15 * abs(b_ser) + 4.0 * math.ulp(b_ser), r
        g1, g2 = gamma1(r), gamma2(r)
        assert math.isfinite(g1) and math.isfinite(g2)
        assert abs(g1 + r * r) <= r**4 + 1e-14 * r * r, r
        assert abs(g2 + r * r / 2.0) <= r**4 + 1e-13, r


# --- phase coefficients a, b -------------------------------------------------

def test_ab_closed_form_identities():
    for r in (1.0, R1, 2.7):
        pih0 = math.pi * special.struve_h0(r)
        a_pi, b_pi = ab_funcs(r, math.pi)
        a_0, b_0 = ab_funcs(r, 0.0)
        a_half, _ = ab_funcs(r, math.pi / 2)
        _, b_2pi = ab_funcs(r, TWO_PI)
        assert abs(a_pi - pih0) < 1e-9
        assert abs(a_0 + pih0) < 1e-12
        assert abs(a_half) < 1e-9  # the half-period point is the midpoint of a
        assert b_0 == 0.0
        assert abs(b_pi) < 1e-9
        assert abs(b_2pi) < 1e-9


def test_ab_against_trapezoid_oracle():
    n = 200001
    for r in (1.0, 2.2):
        for phi in (0.7, -1.3, 5.0):
            us = np.linspace(0.0, phi, n)
            h = us[1] - us[0]
            sa = np.trapezoid(np.sin(r * np.sin(us)), dx=h)
            ca = np.trapezoid(np.cos(r * np.sin(us)), dx=h)
            a_ref = 2 * sa - math.pi * special.struve_h0(r)
            b_ref = 2 * (ca - phi * special.bessel_j0(r))
            a, b = ab_funcs(r, phi)
            assert abs(a - a_ref) < 1e-8
            assert abs(b - b_ref) < 1e-8


def test_ab_and_sigma_op_against_quadrature():
    spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13)

    def running(f, lo, hi):
        return integrate(f, lo, hi, spec) if lo <= hi else -integrate(f, hi, lo, spec)

    for r in (0.4, R1, 8.65, 27.5, 50.0):
        cos_r = lambda u: math.cos(r * math.sin(u))
        sin_r = lambda u: math.sin(r * math.sin(u))
        j0 = running(cos_r, 0.0, math.pi) / math.pi
        pih0 = running(sin_r, 0.0, math.pi)
        for phi in (-7.5, -math.pi, -1.3, 0.0, 0.7, math.pi, 5.0, TWO_PI):
            a, b = ab_funcs(r, phi)
            assert abs(a - (2.0 * running(sin_r, 0.0, phi) - pih0)) < 1e-12, (r, phi)
            assert abs(b - 2.0 * (running(cos_r, 0.0, phi) - phi * j0)) < 1e-12, (r, phi)
        for phi_hf in (0.9, 4.0):
            p = params(omega_par=0.4, r=r, phi_hf=phi_hf)
            for t0 in (-TWO_PI, -1.2, 0.0, 2.5, TWO_PI, 9.0):
                ix = running(lambda u: math.cos(r * math.sin(u + phi_hf)) - j0, 0.0, t0)
                iy = running(lambda u: math.sin(r * math.sin(u + phi_hf)), 0.0, t0)
                s = sigma_op(t0, p)
                assert abs(s.vx - (-0.5 * p.omega_perp * ix)) < 1e-12, (r, phi_hf, t0)
                assert abs(s.vy - (-0.5 * p.omega_perp * iy)) < 1e-12, (r, phi_hf, t0)


def test_struve_consistency_through_a():
    # a(r, pi) / pi reproduces the Struve function at the first Bessel zero
    a_pi, _ = ab_funcs(R1, math.pi)
    assert abs(a_pi / math.pi - special.struve_h0(R1)) < 1e-9


# --- first-order secular vector ----------------------------------------------

def test_secular_vector_from_commutator_average():
    # i m . sigma must equal the period average of [Sigma(t0), h(t0)];
    # in vector form m = 2 <Sigma_vec x h_vec>.
    n = 400001
    ts = np.linspace(0.0, TWO_PI, n)
    h = ts[1] - ts[0]
    cases = [
        params(omega_par=0.5, r=2.2, phi_hf=0.0),
        params(omega_par=0.0, r=1.0, phi_hf=1.1),
        params(omega_par=-0.3, r=0.7, phi_hf=4.0),
        params(omega_perp=1.2, omega_par=0.25, r=1.6, phi_hf=math.pi / 2),
    ]
    for p in cases:
        th = p.r * np.sin(ts + p.phi_hf)
        hx = -0.5 * p.omega_perp * np.cos(th)
        hy = -0.5 * p.omega_perp * np.sin(th)
        hz = -0.5 * (1.0 + p.omega_par)
        dx = hx - (-0.5 * p.omega_perp * special.bessel_j0(p.r))
        Sx = _cumtrapz(dx, h)
        Sy = _cumtrapz(hy, h)
        cx = Sy * hz
        cy = -Sx * hz
        cz = Sx * hy - Sy * hx
        mref = 2.0 / TWO_PI * np.array(
            [np.trapezoid(cx, dx=h), np.trapezoid(cy, dx=h), np.trapezoid(cz, dx=h)]
        )
        m = effective_quantities(p).m
        assert abs(m.x - mref[0]) < 1e-8
        assert abs(m.y - mref[1]) < 1e-8
        assert abs(m.z - mref[2]) < 1e-8


def test_secular_vector_orthogonal_to_axis():
    rng = np.random.default_rng(42)
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
        scale = max(1.0, m.norm())
        assert abs(n.dot(m)) < 1e-12 * scale
        count += 1


# --- oscillating accumulation Sigma ------------------------------------------

def test_sigma_op_vanishes_at_period_boundaries():
    p = params(omega_par=0.4, r=1.6, phi_hf=0.9)
    assert sigma_op(0.0, p).max_abs() == 0.0
    assert sigma_op(TWO_PI, p).max_abs() < 1e-9


def test_sigma_op_periodic():
    p = params(omega_par=0.4, r=1.6, phi_hf=0.9)
    for t0 in (0.7, 2.0, 5.1):
        d = sigma_op(t0, p) @ su2.IDENTITY + (-1.0) * (sigma_op(t0 + TWO_PI, p) @ su2.IDENTITY)
        assert d.max_abs() < 1e-9


def test_sigma_op_zero_without_drive():
    p = params(r=0.0)
    for t0 in (0.0, 1.0, 4.4):
        assert sigma_op(t0, p).max_abs() < 1e-12


def test_sigma_op_midpoint_against_trapezoid():
    p = params(omega_par=0.4, r=1.6, phi_hf=0.9)
    t0 = 2.5
    n = 200001
    us = np.linspace(0.0, t0, n)
    h = us[1] - us[0]
    j0 = special.bessel_j0(p.r)
    fx = np.cos(p.r * np.sin(us + p.phi_hf)) - j0
    fy = np.sin(p.r * np.sin(us + p.phi_hf))
    ix = np.trapezoid(fx, dx=h)
    iy = np.trapezoid(fy, dx=h)
    s = sigma_op(t0, p)
    assert abs(s.vx - (-0.5 * p.omega_perp * ix)) < 1e-8
    assert abs(s.vy - (-0.5 * p.omega_perp * iy)) < 1e-8
    assert abs(s.vz) == 0.0


def test_sigma_op_negative_argument():
    p = params(omega_par=0.4, r=1.6, phi_hf=0.9)
    s = sigma_op(-1.2, p)
    n = 200001
    us = np.linspace(-1.2, 0.0, n)
    j0 = special.bessel_j0(p.r)
    ix = -np.trapezoid(np.cos(p.r * np.sin(us + p.phi_hf)) - j0, dx=us[1] - us[0])
    assert abs(s.vx - (-0.5 * p.omega_perp * ix)) < 1e-8


# --- bounded first-order correction ------------------------------------------

def test_lambda_op_boundary_values():
    p = params(omega_par=0.2, r=1.3, phi_hf=0.5)
    assert lambda_op(0.0, p).max_abs() < 1e-15
    period = TWO_PI / omega_eff(p)
    assert lambda_op(period, p).max_abs() < 1e-12


def test_lambda_op_zero_on_branch_and_without_field():
    assert lambda_op(1.0, params(r=R1)) is su2.ZERO_OP
    assert lambda_op(1.0, params(omega_perp=0.0, r=0.5)) is su2.ZERO_OP


def test_lambda_op_is_anti_hermitian():
    p = params(omega_par=0.2, r=1.3, phi_hf=0.5)
    op = lambda_op(0.37, p)
    assert op.s == 0
    for comp in (op.vx, op.vy, op.vz):
        assert abs(comp.real) < 1e-15


# --- slow-frequency correction eta -------------------------------------------

def test_eta_two_routes_agree_on_grid():
    for wperp in (1.5, 3.0):
        for wpar in (-1.0, 0.0, 0.7):
            for r in (0.5, 1.0, 2.0):
                for phi in (0.0, math.pi / 2):
                    p = params(omega_perp=wperp, omega_par=wpar, r=r, phi_hf=phi)
                    assert abs(eta(p) - eta_via_vectors(p)) < 1e-8


def test_eta_phase_independent():
    vals = [eta_via_vectors(params(omega_par=0.3, phi_hf=phi)) for phi in (0.0, 0.9, 2.5, 5.0)]
    for v in vals[1:]:
        assert abs(v - vals[0]) < 1e-9
    # the closed form never references the phase at all
    assert eta(params(omega_par=0.3, phi_hf=0.0)) == eta(params(omega_par=0.3, phi_hf=2.5))


def test_eta_frozen_value():
    p = params()
    assert abs(eta(p) - ETA_REF) < 1e-12
    assert abs(eta(p) - ETA_ORACLE) < 1e-10
    assert abs(eta(p) - (-2.013)) < 1e-3
    assert abs(eta_via_vectors(p) - ETA_REF) < 1e-9


def test_eta_independent_of_hf_frequency():
    assert eta(params()) == eta(params(Omega_HF=100.0))


def test_eta_zero_without_transverse_field():
    p = params(omega_perp=0.0, r=0.5)
    assert eta(p) == 0.0
    assert eta_via_vectors(p) == 0.0


def test_eta_raises_on_branch():
    p = params(r=R1)
    with pytest.raises(ResonantBranchError):
        eta(p)
    with pytest.raises(ResonantBranchError):
        eta_via_vectors(p)


def test_eta_reduces_on_axis_resonance():
    # at omega_par = -1 the closed form collapses to w_perp^2 gamma1 / (4 J0)
    p = params(r=1.0)
    j0 = special.bessel_j0(1.0)
    expected = p.omega_perp**2 * gamma1(1.0) / (4.0 * j0)
    assert abs(eta(p) - expected) < 1e-12


# --- corrected slow frequency and generator ----------------------------------

def test_frequency_anchors():
    p = params()
    assert abs(omega0(p) - 3.0) < 1e-15
    assert abs(omega_eff(p) - 3.0 * special.bessel_j0(1.0)) < 1e-15
    assert abs(omega_eff(p) - 2.2955930596739) < 1e-12
    assert abs((omega_ms(p) - omega_eff(p)) - (-0.0018482382118785168)) < 1e-12


def test_branch_frequency_anchor():
    p = params(r=R1)
    w = omega_ms(p)
    assert abs(w - (-0.0016307551077052057)) < 1e-12
    assert abs(abs(w) - 1.63e-3) < 1e-5
    assert w == 0.25 * p.epsilon**2 * p.omega_perp**3 * gamma1(special.bessel_j0_zero(1))


def test_correction_scales_with_inverse_square_hf_frequency():
    d50 = omega_ms(params(omega_par=0.3)) - omega_eff(params(omega_par=0.3))
    d100 = omega_ms(params(omega_par=0.3, Omega_HF=100.0)) - omega_eff(
        params(omega_par=0.3, Omega_HF=100.0)
    )
    assert abs(d50 / d100 - 4.0) < 1e-12
    b50 = omega_ms(params(r=R1))
    b100 = omega_ms(params(r=R1, Omega_HF=100.0))
    assert abs(b50 / b100 - 4.0) < 1e-12


def test_ms_generator_off_branch_is_rescaled_average():
    p = params(omega_par=0.3)
    g = ms_hamiltonian(p)
    ref = (1.0 + p.epsilon**2 * eta(p)) * h_eff(p)
    assert abs(g.vx - ref.vx) < 1e-15
    assert abs(g.vy - ref.vy) < 1e-15
    assert abs(g.vz - ref.vz) < 1e-15


def test_ms_generator_on_branch():
    p = params(r=R1)
    g = ms_hamiltonian(p)
    coef = -(p.epsilon**2) * (0.5 * p.omega_perp) ** 3 * gamma1(special.bessel_j0_zero(1))
    assert coef > 0.0  # gamma1 < 0 at the first zero
    assert abs(g.vx - coef) < 1e-18
    assert g.vy == 0 and g.vz == 0


def test_ms_generator_without_transverse_field():
    p = params(omega_perp=0.0, r=0.5)
    g = ms_hamiltonian(p)
    ref = h_eff(p)
    assert g.vx == ref.vx and g.vz == ref.vz
    assert omega_ms(p) == omega_eff(p)


def test_branch_requires_bessel_zero():
    # r off its Bessel zero by 1.5e-9 still has |J0(r)| < RESONANCE_EPS:
    # the branch generator takes gamma1 at r itself
    init = Spinor.superposition(0.6, 0.3)
    for j in (1, 2, 3):
        p = params(r=special.bessel_j0_zero(j) + 1.5e-9)
        assert is_resonant_branch(p)  # J0 is still below the resonance window
        # the averaged routes do not need the Bessel zero and keep working
        j0 = special.bessel_j0(p.r)
        assert h_eff(p).vx == -0.5 * p.omega_perp * j0
        assert omega_eff(p) == math.hypot(0.0, p.omega_perp * j0)
        assert amplitude_closed(MethodId.AVERAGING, p) == 0.0
        trace = expect_sz_closed(MethodId.AVERAGING, np.array([0.0, 1.0, 50.0]), p, init)
        assert np.all(trace == trace[0]) and abs(trace[0] - init.bloch().z) < 1e-15
        kicked = slow_initial_state(p, init)
        assert abs(abs(kicked.up) ** 2 + abs(kicked.down) ** 2 - 1.0) < 1e-14
        g = ms_hamiltonian(p)
        assert g.vx == -(p.epsilon**2) * (0.5 * p.omega_perp) ** 3 * gamma1(p.r)
        assert g.vy == 0 and g.vz == 0
        assert omega_ms(p) == 0.25 * p.epsilon**2 * p.omega_perp**3 * gamma1(p.r)
        assert effective_quantities(p).h_ms is g
        assert amplitude_closed(MethodId.MULTI_SCALE, p) == 1.0
        with pytest.raises(ResonantBranchError):
            eta(p)


def test_ms_continuous_across_branch_edge():
    # |J0(r)| = RESONANCE_EPS at r_j +- d, d = RESONANCE_EPS / |J1(r_j)|.
    # Off the branch the eta formula keeps the w_perp J0 term, so |Omega_ms|
    # moves by about w_perp |J0| = 3e-9 across the edge and the generator
    # by half that. Off the branch the sign of Omega_ms follows the
    # averaged axis, so the magnitudes are compared.
    for j in (1, 2, 3):
        rj = special.bessel_j0_zero(j)
        d = analytic.RESONANCE_EPS / abs(special.bessel_j1(rj))
        for side in (-1.0, 1.0):
            inside = params(r=rj + side * 0.99 * d)
            outside = params(r=rj + side * 1.01 * d)
            assert is_resonant_branch(inside) and not is_resonant_branch(outside)
            assert abs(abs(omega_ms(inside)) - abs(omega_ms(outside))) < 1e-8
            g_in, g_out = ms_hamiltonian(inside), ms_hamiltonian(outside)
            assert abs(g_in.vx - g_out.vx) < 1e-8 and abs(g_out.vz) < 1e-8


def test_branch_predicate():
    assert is_resonant_branch(params(r=R1))
    assert is_resonant_branch(params(r=special.bessel_j0_zero(2)))
    assert not is_resonant_branch(params(r=1.0))
    assert not is_resonant_branch(params(omega_par=0.0, r=R1))
    assert not is_resonant_branch(params(omega_perp=0.0, r=R1))


def test_axis_n_properties():
    p = params(omega_par=0.3, r=1.0)
    n = effective_quantities(p).n
    assert abs(n.norm() - 1.0) < 1e-15
    assert n.y == 0.0
    assert n.x * (1.0 + p.omega_par) > 0 and n.z > 0
    assert effective_quantities(params(r=R1)).n is None
    assert effective_quantities(params(omega_perp=0.0, r=0.5)).n is None


# --- averaged generator is the true period average ---------------------------

def test_h_eff_is_period_average():
    n = 200001
    ts = np.linspace(0.0, TWO_PI, n)
    h = ts[1] - ts[0]
    for p in (params(omega_par=0.3, r=1.6, phi_hf=0.9), params(r=2.0, phi_hf=0.0)):
        vx = np.empty(n)
        vy = np.empty(n)
        for i, t0 in enumerate(ts):
            op = hamiltonian_transformed(float(t0), p)
            vx[i] = op.vx.real
            vy[i] = op.vy.real
        avg_x = np.trapezoid(vx, dx=h) / TWO_PI
        avg_y = np.trapezoid(vy, dx=h) / TWO_PI
        ref = h_eff(p)
        assert abs(avg_x - ref.vx.real) < 1e-10
        assert abs(avg_y - ref.vy.real) < 1e-10
        assert abs(hamiltonian_transformed(0.3, p).vz - ref.vz) < 1e-15


# --- propagators --------------------------------------------------------------

ALL_METHODS = (MethodId.EXACT_R0, MethodId.AVERAGING, MethodId.MULTI_SCALE)


def test_propagator_identity_at_t0():
    for p in (params(r=0.0), params(), params(r=R1)):
        for method in ALL_METHODS:
            if method is MethodId.EXACT_R0 and p.r != 0.0:
                continue
            u = propagator(method, 0.0, p)
            assert abs(u.s - 1.0) < 1e-12
            assert max(abs(u.vx), abs(u.vy), abs(u.vz)) < 1e-12


def test_propagator_unitary_to_long_times():
    for p in (params(r=0.0), params(omega_par=0.3), params(r=R1)):
        for method in ALL_METHODS:
            if method is MethodId.EXACT_R0 and p.r != 0.0:
                continue
            for t in (0.1, 5.0, 300.0, 2000.0):
                u = propagator(method, t, p)
                prod = u @ u.adjoint()
                assert abs(prod.s - 1.0) < 1e-9
                assert max(abs(prod.vx), abs(prod.vy), abs(prod.vz)) < 1e-9


def test_methods_coincide_without_hf_drive():
    p = params(r=0.0, omega_par=0.4)
    for t in (0.5, 3.0, 10.0):
        ue = propagator(MethodId.EXACT_R0, t, p)
        for method in (MethodId.AVERAGING, MethodId.MULTI_SCALE):
            um = propagator(method, t, p)
            d = ue @ um.adjoint()
            assert abs(d.s - 1.0) < 1e-12
            assert max(abs(d.vx), abs(d.vy), abs(d.vz)) < 1e-12


def test_exact_method_requires_zero_r():
    p = params()
    with pytest.raises(ValueError):
        propagator(MethodId.EXACT_R0, 1.0, p)
    with pytest.raises(ValueError):
        expect_sz_closed(MethodId.EXACT_R0, 1.0, p, Spinor.plus())
    with pytest.raises(ValueError):
        amplitude_closed(MethodId.EXACT_R0, p)


def test_averaging_vs_ms_trace_stays_within_detuning_bound():
    p = params(omega_par=0.0)
    amp = amplitude_closed(MethodId.AVERAGING, p)
    dw = abs(omega_ms(p) - omega_eff(p))
    for t in (1.0, 10.0, 100.0):
        za = expect_sz_closed(MethodId.AVERAGING, t, p, Spinor.plus())
        zm = expect_sz_closed(MethodId.MULTI_SCALE, t, p, Spinor.plus())
        assert abs(za - zm) <= amp * dw * t + 1e-9


# --- closed traces -------------------------------------------------------------

def test_eigenstate_trace_matches_propagator_route():
    # one array call per case against the per-time propagator route,
    # off the branch, on it (r = r1, omega_par = -1) and at r = 0
    cases = [
        (MethodId.EXACT_R0, params(r=0.0, omega_par=0.4)),
        (MethodId.AVERAGING, params(r=0.0, omega_par=0.4)),
        (MethodId.MULTI_SCALE, params(r=0.0, omega_par=0.4)),
        (MethodId.AVERAGING, params(omega_par=0.3)),
        (MethodId.MULTI_SCALE, params(omega_par=0.3)),
        (MethodId.AVERAGING, params(r=R1)),
        (MethodId.MULTI_SCALE, params(r=R1)),
        (MethodId.MULTI_SCALE, params(r=R1, phi_hf=0.0)),
    ]
    inits = (
        Spinor.plus(),
        Spinor.minus(),
        Spinor.superposition(math.sqrt(0.5), 0.0),
        Spinor.superposition(0.6, 0.3),
    )
    ts = np.concatenate([[0.0, 0.8, 7.3, 20.0], np.linspace(100.0, 1500.0, 57)])
    for method, p in cases:
        for init in inits:
            closed = expect_sz_closed(method, ts, p, init)
            assert isinstance(closed, np.ndarray) and closed.shape == ts.shape
            via_u = [propagator(method, float(t), p).apply(init).bloch().z for t in ts]
            assert np.max(np.abs(closed - via_u)) < 1e-12, (method, p, init)
    single = expect_sz_closed(MethodId.MULTI_SCALE, 7.3, params(omega_par=0.3), inits[3])
    assert type(single) is float
    with pytest.raises(ValueError):
        expect_sz_closed(MethodId.EXACT_R0, ts, params(), Spinor.plus())


def test_exact_trace_closed_form():
    p = params(r=0.0, omega_par=0.0)
    w = omega0(p)
    amp = (p.omega_perp / w) ** 2
    for t in (0.0, 0.5, 2.0):
        want = 1.0 + amp * (math.cos(w * t) - 1.0)
        assert abs(expect_sz_closed(MethodId.EXACT_R0, t, p, Spinor.plus()) - want) < 1e-14
        assert abs(expect_sz_closed(MethodId.EXACT_R0, t, p, Spinor.minus()) + want) < 1e-14


def test_branch_eigenstate_trace_is_slow_cosine():
    p = params(r=R1)
    w = omega_ms(p)
    for t in (0.0, 100.0, 963.0):
        assert abs(expect_sz_closed(MethodId.MULTI_SCALE, t, p, Spinor.plus()) - math.cos(w * t)) < 1e-12
        assert abs(expect_sz_closed(MethodId.AVERAGING, t, p, Spinor.plus()) - 1.0) < 1e-15


def test_branch_arbitrary_state_trace():
    # generator is a pure slow x rotation, so the z component obeys
    # z(t) = z0 cos - y0' sin with the azimuth advanced by theta(0)
    p = params(r=R1)
    w = omega_ms(p)
    c, ph = 0.6, 0.3
    init = Spinor.superposition(c, ph)
    s = math.sqrt(1 - c * c)
    z0 = 2 * c * c - 1
    y0r = 2 * c * s * math.sin(ph + R1 * math.sin(p.phi_hf))
    for t in (0.0, 200.0, 700.0, 1500.0):
        want = z0 * math.cos(w * t) - y0r * math.sin(w * t)
        assert abs(expect_sz_closed(MethodId.MULTI_SCALE, t, p, init) - want) < 1e-12


def test_phase_pair_equivalence_of_closed_traces():
    # (phi_hf, azimuth) and (0, azimuth + r sin phi_hf) are the same physics
    init_a = Spinor.superposition(math.sqrt(0.5), 0.0)
    pairs = [
        (params(r=R1), params(r=R1, phi_hf=0.0), R1 * math.sin(math.pi / 2)),
        (params(omega_par=0.0, phi_hf=0.7), params(omega_par=0.0, phi_hf=0.0), math.sin(0.7)),
    ]
    for p_a, p_b, shift in pairs:
        init_b = Spinor.superposition(math.sqrt(0.5), shift)
        for method in (MethodId.AVERAGING, MethodId.MULTI_SCALE):
            for t in (0.0, 3.0, 50.0, 400.0):
                za = expect_sz_closed(method, t, p_a, init_a)
                zb = expect_sz_closed(method, t, p_b, init_b)
                assert abs(za - zb) < 1e-12


# --- initial kick of the corrected slow evolution --------------------------------

def _states_close(a, b, tol):
    return abs(a.up - b.up) < tol and abs(a.down - b.down) < tol


def test_slow_initial_state_kick_is_period_mean_of_sigma():
    # Omega_HF = 1 makes the kick angle O(1), so the state resolves the
    # closed-form mean (w_perp/4)(b, a, 0) to the tolerance; the
    # trapezoid rule is spectrally accurate for the periodic sigma_op.
    init = Spinor.superposition(0.6, 0.3)
    n = 64
    for wperp, r, phi in ((3.0, R1, 0.0), (1.5, 1.0, 0.9), (2.0, 3.7, 4.5), (0.7, 0.4, 2.0)):
        p = params(omega_perp=wperp, Omega_HF=1.0, r=r, phi_hf=phi)
        ops = [sigma_op(TWO_PI * k / n, p) for k in range(n)]
        s_mean = su2.PauliOperator.hermitian(
            0.0,
            Vec3(sum(o.vx.real for o in ops) / n, sum(o.vy.real for o in ops) / n, 0.0),
        )
        g0 = initial_gauge_factor(p)
        want = (g0.adjoint() @ su2.pauli_exponential(s_mean, p.epsilon) @ g0).apply(init)
        assert s_mean.max_abs() > 0.05
        assert _states_close(slow_initial_state(p, init), want, 1e-12)


def test_slow_initial_state_without_kick():
    init = Spinor.superposition(0.6, 0.3)
    for p in (params(r=R1), params(r=0.0, phi_hf=0.4), params(omega_perp=0.0, phi_hf=0.0)):
        assert _states_close(slow_initial_state(p, init), init, 1e-14)


def test_kicked_state_removes_first_order_error_of_ms_trace():
    # Twin B of the phase-gauge pair (phi_hf = 0, azimuth advanced by r):
    # the bare ms trace is off by O(1/Omega_HF), the one started from the
    # kicked state by O(1/Omega_HF^2) off the branch and less on it.
    for wpar, r in ((-1.0, R1), (0.3, 1.0)):
        init = Spinor.superposition(math.sqrt(0.5), r)
        bare, kicked = [], []
        for big in (50.0, 100.0, 200.0):
            p = params(omega_par=wpar, Omega_HF=big, r=r, phi_hf=0.0)
            series, _, _ = integrate_schrodinger(p, init, 20.0)
            avg = hf_average(series, p)
            for start, gaps in ((init, bare), (slow_initial_state(p, init), kicked)):
                ms = expect_sz_closed(MethodId.MULTI_SCALE, avg.times, p, start)
                gaps.append(float(np.max(np.abs(avg.values - ms))))
        for k in range(2):
            assert 1.8 < bare[k] / bare[k + 1] < 2.2, (wpar, bare)
            assert kicked[k] / kicked[k + 1] > 3.5, (wpar, kicked)


# --- closed amplitudes ----------------------------------------------------------

def test_amplitude_values():
    p0 = params(r=0.0, omega_par=0.0)
    assert abs(amplitude_closed(MethodId.EXACT_R0, p0) - 0.9) < 1e-15
    # on axis resonance the averaged amplitude saturates
    assert abs(amplitude_closed(MethodId.AVERAGING, params()) - 1.0) < 1e-15
    assert amplitude_closed(MethodId.MULTI_SCALE, params(r=R1)) == 1.0
    assert amplitude_closed(MethodId.AVERAGING, params(r=R1)) == 0.0


def test_amplitude_coincides_at_r0():
    p = params(r=0.0, omega_par=0.7)
    vals = {amplitude_closed(m, p) for m in ALL_METHODS}
    assert max(vals) - min(vals) < 1e-15


# --- aggregate -------------------------------------------------------------------

def test_effective_quantities_off_branch():
    p = params(omega_par=0.3)
    q = effective_quantities(p)
    assert isinstance(q, EffectiveQuantities)
    j0 = special.bessel_j0(p.r)
    opar1 = 1.0 + p.omega_par
    w = math.hypot(opar1, p.omega_perp * j0)
    assert q.Omega0 == omega0(p)
    assert q.Omega_eff == omega_eff(p) == w
    assert q.n == Vec3(p.omega_perp * j0 / w, 0.0, opar1 / w)
    assert q.j0r == j0
    assert (q.a, q.b) == ab_funcs(p.r, p.phi_hf)
    f = -0.25 * p.omega_perp
    assert q.m == Vec3(f * opar1 * q.a, -f * opar1 * q.b, -f * p.omega_perp * j0 * q.a)
    assert q.alpha_x == 0.5 * j0 * q.a * q.a - q.gamma1
    assert q.alpha_y == -0.5 * j0 * q.a * q.b
    assert q.alpha_z == 0.25 * q.a * q.a + 0.25 * q.b * q.b - q.gamma2
    half = 0.5 * p.omega_perp
    f = -half * half
    assert q.q == Vec3(f * half * q.alpha_x, f * half * q.alpha_y, f * opar1 * q.alpha_z)
    assert q.gamma1 == gamma1(p.r)
    assert q.gamma2 == gamma2(p.r)
    assert q.eta == eta(p)
    assert q.Omega_ms == omega_ms(p)
    assert not q.resonant_branch


def test_effective_quantities_on_branch():
    q = effective_quantities(params(r=R1))
    assert q.resonant_branch
    assert q.eta is None
    assert q.n is None
    assert q.Omega_ms == omega_ms(params(r=R1))


def test_one_record_per_parameter_set(monkeypatch):
    # The slow constants of a fast drive (r, phi_hf) are derived once, from
    # one Bessel row, and shared by every parameter set with that drive; a
    # record adds only its own algebra. The gamma pair is warmed first
    # because it is cached per r on its own; the other caches start empty.
    analytic._record.cache_clear()
    analytic._drive.cache_clear()
    p = params(omega_par=0.3, r=1.37, phi_hf=0.9)
    gamma1(p.r)
    calls = dict.fromkeys(("bessel_row", "bessel_j0", "_ab_from_row", "_gamma_pair"), 0)

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(special, "bessel_row")
    counted(special, "bessel_j0")
    counted(analytic, "_ab_from_row")
    counted(analytic, "_gamma_pair")

    effective_quantities(p)
    assert calls == {"bessel_row": 1, "bessel_j0": 0, "_ab_from_row": 1, "_gamma_pair": 1}

    # a sweep at a drive already seen rebuilds none of it
    calls.update(dict.fromkeys(calls, 0))
    resonance_sweep(p, [0.11, 0.22, 0.33, 0.44], ["avg", "ms", "numeric"])
    assert calls == dict.fromkeys(calls, 0)

    # past the 64 records the cache holds, a new drive still takes one row
    # and one a/b evaluation for the whole sweep
    p = params(r=1.913, phi_hf=0.41)
    gamma1(p.r)
    calls.update(dict.fromkeys(calls, 0))
    resonance_sweep(p, np.linspace(-3.0, 2.0, 100), ["avg", "ms", "numeric"])
    assert (calls["bessel_row"], calls["_ab_from_row"], calls["bessel_j0"]) == (1, 1, 0)

    # on the branch too: the record and is_resonant_branch share its row
    p = params(r=R1, phi_hf=0.917)
    gamma1(p.r)
    calls.update(dict.fromkeys(calls, 0))
    effective_quantities(p)
    assert is_resonant_branch(p)
    assert (calls["bessel_row"], calls["bessel_j0"]) == (1, 0)


def test_signed_zero_parameters_share_one_record():
    # -0.0 and +0.0 are one parameter set, so the record and every sign of
    # zero in it must not depend on which of the two reached the cache first
    reprs = []
    for order in ((-0.0, 0.0), (0.0, -0.0)):
        analytic._record.cache_clear()
        reprs.append([repr(effective_quantities(DriveParams(w, 0.5, 50.0, 1.0, 0.3))) for w in order])
    assert reprs[0] == reprs[1][::-1]
    assert reprs[0][0] == reprs[0][1]
    p = DriveParams(-0.0, -0.0, 50.0, -0.0, -0.0)
    assert [math.copysign(1.0, v) for v in p.to_json_dict().values()] == [1.0] * 5
