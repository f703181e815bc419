import math

import numpy as np
import pytest

from spinhf.special import (
    BESSEL_DOMAIN,
    DEFAULT_QUADRATURE,
    CumulativeIntegral,
    QuadratureSpec,
    ToleranceNotMetError,
    bessel_j0,
    bessel_j0_zero,
    bessel_j1,
    bessel_row,
    gauss_legendre,
    integrate,
    struve_h0,
)

# reference values frozen from an independent arbitrary-precision run
J0_REFS = {
    0.5: 0.938469807240812904,
    1.0: 0.765197686557966551,
    2.0: 0.223890779141235668,
    5.0: -0.177596771314338304,
    10.0: -0.245935764451348335,
    20.0: 0.167024664340583155,
    40.0: 0.00736689058423728955,
}
J1_AT_1 = 0.440050585744933516
H0_REFS = {
    0.5: 0.309555914583754718,
    1.0: 0.568656627048287951,
    2.0: 0.790858849508095893,
    5.0: -0.18521681577668489,
    20.0: 0.0943936980813234509,
}
ZERO_REFS = {
    1: 2.404825557695772769,
    2: 5.52007811028631065,
    3: 8.653727912911012217,
    5: 14.93091770848778595,
    10: 30.63460646843197512,
    20: 62.04846919022716988,
}


def series_j0(x: float) -> float:
    # in-test ascending series, converges fast for the x used here
    total = term = 1.0
    q = 0.25 * x * x
    for k in range(1, 60):
        term *= -q / (k * k)
        total += term
        if abs(term) < 1e-18:
            break
    return total


def simpson(f, a, b, n=20001):
    xs = np.linspace(a, b, n)
    ys = f(xs)
    h = (b - a) / (n - 1)
    return h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1::2].sum() + 2.0 * ys[2:-1:2].sum())


def test_j0_reference_values():
    for x, want in J0_REFS.items():
        assert abs(bessel_j0(x) - want) < 1e-12, x
        assert abs(bessel_j0(-x) - want) < 1e-12  # even function


def test_j0_matches_in_test_series():
    for x in (0.1, 0.5, 1.0, 2.4048, 5.0, 8.0):
        assert abs(bessel_j0(x) - series_j0(x)) < 1e-12


def test_j0_integral_representation():
    # J0(x) = (1/pi) * int_0^pi cos(x sin t) dt
    for x in (0.5, 1.0, 2.0, 2.40483, 5.0):
        ref = simpson(lambda t: np.cos(x * np.sin(t)), 0.0, math.pi) / math.pi
        assert abs(bessel_j0(x) - ref) < 1e-9


def test_j1_value_and_oddness():
    assert abs(bessel_j1(1.0) - J1_AT_1) < 1e-12
    assert abs(bessel_j1(-1.0) + J1_AT_1) < 1e-12
    assert bessel_j1(0.0) == 0.0


def test_domain_guard():
    assert bessel_j0(BESSEL_DOMAIN) == bessel_j0(50.0)
    with pytest.raises(ValueError):
        bessel_j0(50.000001)
    with pytest.raises(ValueError):
        bessel_j1(-1e3)
    with pytest.raises(ValueError):
        bessel_j0(math.inf)
    for fn in (bessel_j0, bessel_j1, struve_h0):
        name = fn.__name__
        outside = rf"^{name} argument \|x\| = 50\.\d+ outside the working domain \|x\| <= 50\.0$"
        for x in (-50.5, 50.000001):
            with pytest.raises(ValueError, match=outside):
                fn(x)
        with pytest.raises(ValueError, match=rf"^{name} requires a finite argument, got nan$"):
            fn(math.nan)


def test_row_range_and_large_zero_index():
    # the row's cost grows with |x|, so it has a range; zeros past it come
    # from McMahon's expansion alone
    assert bessel_row(-200.0).size == bessel_row(200.0).size
    for x in (200.5, -1e9, math.inf, math.nan):
        with pytest.raises(ValueError):
            bessel_row(x)
    for j in (47, 48, 10**9):
        beta = (j - 0.25) * math.pi
        assert abs(bessel_j0_zero(j) - beta) < 1.0 / beta
    assert bessel_j0_zero(48) > bessel_j0_zero(47) + 3.0


def test_small_arguments_match_ascending_series():
    # 2k/x overflows for the smallest x, so the row needs its own case
    # there; the three-term series are exact to rounding for x <= 1e-3
    for x in (0.0, 5e-324, 1e-300, 1e-12, 1e-3):
        want = {
            bessel_j0: 1.0 - x * x / 4.0 + x**4 / 64.0,
            bessel_j1: x / 2.0 - x**3 / 16.0 + x**5 / 384.0,
            struve_h0: 2.0 / math.pi * (x - x**3 / 9.0 + x**5 / 225.0),
        }
        for fn, w in want.items():
            got = fn(x)
            assert math.isfinite(got)
            assert abs(got - w) <= 1e-15 * abs(w) + 2.0 * math.ulp(w), (fn.__name__, x)
        row = bessel_row(x)
        assert np.all(np.isfinite(row))
        j2 = x * x / 8.0 - x**4 / 96.0 + x**6 / 3072.0
        assert abs(row[2] - j2) <= 1e-15 * j2 + 2.0 * math.ulp(j2)


def test_parity_at_negative_arguments():
    for x in (5e-324, 1e-300, 1e-3, 0.7, 2.404825557695773, 17.3, 50.0):
        assert bessel_j0(-x) == bessel_j0(x)
        assert bessel_j1(-x) == -bessel_j1(x)
        assert struve_h0(-x) == -struve_h0(x)
        row, mirrored = bessel_row(x), bessel_row(-x)
        assert np.array_equal(mirrored[::2], row[::2])
        assert np.array_equal(mirrored[1::2], -row[1::2])


def test_bessel_row_against_scipy():
    # optional independent oracle; scipy is never a runtime dependency
    sp = pytest.importorskip("scipy.special")
    for x in np.concatenate([np.linspace(0.0, 50.0, 401), [1e-5, 1e-5 * (1 - 1e-12), 62.0]]):
        row = bessel_row(float(x))
        k = np.arange(row.size + 40)
        want = sp.jv(k, x)
        assert np.abs(row - want[: row.size]).max() < 1e-13, x
        assert np.abs(want[row.size:]).max() < 1e-17, x  # the truncated tail
        if x <= BESSEL_DOMAIN:
            # scipy's own H0 is off by up to 1.1e-13 near x = 26
            assert abs(struve_h0(float(x)) - sp.struve(0, x)) < 1e-12, x


def test_zero_reference_values():
    for j, want in ZERO_REFS.items():
        got = bessel_j0_zero(j)
        assert abs(got - want) < 1e-10, j
        assert abs(bessel_j0(got)) < 1e-13 if got <= BESSEL_DOMAIN else True


def test_zero_bisection_oracle():
    # brackets straddle a single zero each; pure-bisection oracle on the
    # in-test series
    for j, (lo, hi) in {1: (2.0, 3.0), 2: (5.0, 6.0)}.items():
        a, b = lo, hi
        fa = series_j0(a)
        for _ in range(80):
            mid = 0.5 * (a + b)
            fm = series_j0(mid)
            if (fa < 0) == (fm < 0):
                a, fa = mid, fm
            else:
                b = mid
        assert abs(bessel_j0_zero(j) - 0.5 * (a + b)) < 1e-10


def test_newton_zeros_bracketed_and_increasing():
    # Newton from McMahon's guess runs for j <= 47, McMahon's guess alone
    # from j = 48 on; the range spans the handoff
    zeros = [bessel_j0_zero(j) for j in range(1, 50)]
    for j, x in enumerate(zeros, start=1):
        assert (j - 0.75) * math.pi < x < (j + 0.25) * math.pi, j
        assert abs(bessel_row(x)[0]) < 1e-13, j
    assert all(a < b for a, b in zip(zeros, zeros[1:]))


def test_zero_spacing_approaches_pi():
    gap = bessel_j0_zero(20) - bessel_j0_zero(19)
    assert abs(gap - math.pi) < 0.01


def test_zero_argument_validation():
    bessel_j0_zero(1)  # cached from here on; the rejections must still happen
    with pytest.raises(ValueError):
        bessel_j0_zero(0)
    with pytest.raises(ValueError):
        bessel_j0_zero(1.5)
    with pytest.raises(ValueError):
        bessel_j0_zero(True)


def test_struve_reference_values():
    for x, want in H0_REFS.items():
        assert abs(struve_h0(x) - want) < 1e-10, x
        assert abs(struve_h0(-x) + want) < 1e-10  # odd function
    assert struve_h0(0.0) == 0.0


def test_struve_against_quadrature():
    # H0(x) = (1/pi) int_0^pi sin(x sin u) du, across the domain
    for x in (0.3, 3.1, 15.9, 16.1, 27.5, 49.9):
        ref = integrate(lambda u: math.sin(x * math.sin(u)), 0.0, math.pi,
                        QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14)) / math.pi
        assert abs(struve_h0(x) - ref) < 1e-12, x


def test_gauss_legendre_rule():
    for n in (1, 2, 5, 128, 1024):
        x, w = gauss_legendre(n)
        assert x.shape == w.shape == (n,)
        assert np.all(np.diff(x) > 0.0) and np.all(w > 0.0)
        assert np.abs(x + x[::-1]).max() < 1e-15
        # exact for polynomials of degree 2n - 1
        for deg in (0, 1, 2 * n - 2, 2 * n - 1):
            want = 2.0 / (deg + 1) if deg % 2 == 0 else 0.0
            assert abs(w @ x**deg - want) < 1e-14, (n, deg)
    x, w = gauss_legendre(1024)
    assert abs(w @ np.cos(300.0 * x) - 2.0 * math.sin(300.0) / 300.0) < 1e-14
    assert gauss_legendre(128)[0] is gauss_legendre(128)[0]  # cached
    with pytest.raises(ValueError):
        x[0] = 0.0  # shared, so read-only


def test_struve_integral_representation():
    # H0(x) = (2/pi) * int_0^{pi/2} sin(x cos t) dt
    for x in (0.5, 1.0, 2.0, 2.40483, 5.0):
        ref = 2.0 / math.pi * simpson(lambda t: np.sin(x * np.cos(t)), 0.0, math.pi / 2)
        assert abs(struve_h0(x) - ref) < 1e-9


def test_integrate_simple():
    assert abs(integrate(math.sin, 0.0, math.pi) - 2.0) < 1e-12
    assert integrate(math.sin, 1.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        integrate(math.sin, math.pi, 0.0)  # bounds must be ordered


def test_integrate_additivity():
    r = 1.7
    f = lambda t: math.cos(r * math.sin(t))
    for phi in (0.3, 1.0, 2.5, 4.0):
        whole = integrate(f, 0.0, 2.0 * math.pi)
        split = integrate(f, 0.0, phi) + integrate(f, phi, 2.0 * math.pi)
        assert abs(whole - split) < 1e-11


def test_integrate_tolerance_failure_carries_best_estimate():
    # integrable endpoint singularity: refinement stalls, estimate is close
    with pytest.raises(ToleranceNotMetError) as exc_info:
        integrate(lambda x: x ** -0.5, 0.0, 1.0, QuadratureSpec(1e-14, 1e-14, 18))
    err = exc_info.value
    assert abs(err.best_estimate - 2.0) < 1e-3
    assert err.error_estimate > 0.0


def test_integrate_rejects_bad_bounds():
    with pytest.raises(ValueError):
        integrate(math.sin, 0.0, math.inf)
    with pytest.raises(ValueError):
        integrate(math.sin, math.nan, 1.0)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_refinements=0)


def test_cumulative_integral_matches_adaptive():
    r = 2.4
    f = lambda t: math.sin(r * math.sin(t))
    cum = CumulativeIntegral(f, 0.0, 2.0 * math.pi)
    rng = np.random.default_rng(21)
    for x in rng.uniform(0.0, 2.0 * math.pi, size=12):
        want = integrate(f, 0.0, float(x))
        assert abs(cum(float(x)) - want) < 1e-10


def test_cumulative_integral_bounds():
    cum = CumulativeIntegral(math.sin, 0.0, 1.0)
    assert cum(0.0) == 0.0
    with pytest.raises(ValueError):
        cum(1.5)
    with pytest.raises(ValueError):
        cum(-0.2)
