"""Special functions and adaptive quadrature.

Provides Bessel J0/J1, zeros of J0, Struve H0, an adaptive
Gauss-Kronrod integrator and precomputed cumulative integrals. The
Bessel/Struve routines target absolute error 1e-12 / 1e-10 on the
working domain |x| <= 50; quadrature tolerances are caller-controlled.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

BESSEL_DOMAIN = 50.0
_SERIES_CUTOFF = 16.0  # power series below, asymptotic expansion above
_MAX_PANELS = 200_000
_CUMULATIVE_PANELS = 512  # uniform panel grid of CumulativeIntegral


class ToleranceNotMetError(ArithmeticError):
    """Adaptive quadrature exhausted its refinement budget.

    Carries the best available estimate and its error bound.
    """

    def __init__(self, message: str, best_estimate: float, error_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


@dataclass(frozen=True, slots=True)
class QuadratureSpec:
    """Tolerance and refinement budget for the adaptive integrator."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_refinements: int = 30

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("quadrature tolerances must be positive")
        if self.max_refinements < 1:
            raise ValueError("max_refinements must be >= 1")


DEFAULT_QUADRATURE = QuadratureSpec()


# ---------------------------------------------------------------------------
# Bessel J0, J1 and Struve H0

def _bessel_series(nu: int, x: float) -> float:
    # Ascending series in extended precision; cancellation near the cutoff
    # would otherwise eat the 1e-12 budget (terms peak near 1e5 at x=16).
    q = np.longdouble(x) * np.longdouble(x) / 4.0
    term = np.longdouble(1.0) if nu == 0 else np.longdouble(x) / 2.0
    total = term
    k = 1
    while True:
        term = -term * q / np.longdouble(k * k if nu == 0 else k * (k + 1))
        total += term
        if abs(term) < np.longdouble(1e-24) * (1.0 + abs(total)):
            return float(total)
        k += 1
        if k > 80:  # unreachable for |x| <= 16
            raise ArithmeticError("Bessel series failed to converge")


def _bessel_asymptotic(nu: int, x: float) -> float:
    # Hankel expansion J_nu(x) ~ sqrt(2/(pi x)) [P cos(chi) - Q sin(chi)],
    # chi = x - (2 nu + 1) pi/4; coefficient recurrence in mu = 4 nu^2,
    # truncated at the smallest term.
    mu = 4.0 * nu * nu
    chi = x - (2 * nu + 1) * math.pi / 4.0
    p_sum, q_sum = 0.0, 0.0
    term = 1.0
    sign = 1.0
    m = 0
    prev = math.inf
    while m <= 40:
        mag = abs(term)
        if mag >= prev or mag < 1e-17:
            break
        prev = mag
        if m % 2 == 0:
            p_sum += sign * term
        else:
            q_sum += sign * term
            sign = -sign
        m += 1
        term *= (mu - (2 * m - 1) ** 2) / (8.0 * m * x)
    amp = math.sqrt(2.0 / (math.pi * x))
    return amp * (p_sum * math.cos(chi) - q_sum * math.sin(chi))


def _j0_raw(x: float) -> float:
    ax = abs(x)
    return _bessel_series(0, ax) if ax <= _SERIES_CUTOFF else _bessel_asymptotic(0, ax)


def _j1_raw(x: float) -> float:
    ax = abs(x)
    val = _bessel_series(1, ax) if ax <= _SERIES_CUTOFF else _bessel_asymptotic(1, ax)
    return -val if x < 0.0 else val


def _require_domain(x: float, name: str) -> None:
    if not math.isfinite(x):
        raise ValueError(f"{name} requires a finite argument, got {x!r}")
    if abs(x) > BESSEL_DOMAIN:
        raise ValueError(
            f"{name} argument |x| = {abs(x)!r} outside the working domain |x| <= {BESSEL_DOMAIN}"
        )


def bessel_j0(x: float) -> float:
    """Bessel function J0(x), absolute error < 1e-12 for |x| <= 50."""
    _require_domain(x, "bessel_j0")
    return _j0_raw(x)


def bessel_j1(x: float) -> float:
    """Bessel function J1(x) on |x| <= 50 (odd in x)."""
    _require_domain(x, "bessel_j1")
    return _j1_raw(x)


@functools.lru_cache(maxsize=None)
def bessel_j0_zero(j: int) -> float:
    """j-th positive zero of J0, strictly increasing in j.

    McMahon's asymptotic guess refined by Newton iteration on J0
    (J0' = -J1); falls back to bisection on the single-zero bracket
    ((j - 3/4) pi, (j + 1/4) pi) if an iterate escapes it.
    """
    if not isinstance(j, int) or isinstance(j, bool):
        raise ValueError(f"zero index must be an integer, got {j!r}")
    if j < 1:
        raise ValueError(f"zero index must be >= 1, got {j}")
    beta = (j - 0.25) * math.pi
    x = beta + 1.0 / (8.0 * beta) - 31.0 / (384.0 * beta**3) + 3779.0 / (15360.0 * beta**5)
    lo, hi = (j - 0.75) * math.pi, (j + 0.25) * math.pi
    for _ in range(12):
        step = _j0_raw(x) / _j1_raw(x)  # Newton: x - J0/J0' = x + J0/J1
        x_new = x + step
        if not lo < x_new < hi:
            x = _bisect_j0_zero(lo, hi)
            break
        converged = abs(step) < 4e-16 * x_new
        x = x_new
        if converged:
            break
    if abs(_j0_raw(x)) > 1e-13:
        x = _bisect_j0_zero(lo, hi)
    return x


def _bisect_j0_zero(lo: float, hi: float) -> float:
    flo = _j0_raw(lo)
    if flo == 0.0:
        return lo
    while hi - lo > 1e-16 * hi:
        mid = 0.5 * (lo + hi)
        fm = _j0_raw(mid)
        if fm == 0.0:
            return mid
        if (flo > 0.0) == (fm > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def struve_h0(x: float) -> float:
    """Struve function H0(x), absolute error < 1e-10 for |x| <= 50. Odd in x."""
    _require_domain(x, "struve_h0")
    ax = abs(x)
    if ax <= _SERIES_CUTOFF:
        # Ascending series: t_0 = (2/pi) x, t_k = -t_{k-1} x^2/(2k+1)^2.
        xl = np.longdouble(ax)
        term = (2.0 / np.longdouble(math.pi)) * xl
        total = term
        k = 1
        while True:
            term = -term * xl * xl / np.longdouble((2 * k + 1) * (2 * k + 1))
            total += term
            if abs(term) < np.longdouble(1e-24) * (1.0 + abs(total)):
                break
            k += 1
            if k > 80:
                raise ArithmeticError("Struve series failed to converge")
        val = float(total)
    else:
        # Integral representation H0(x) = (2/pi) int_0^{pi/2} sin(x cos t) dt.
        val = (2.0 / math.pi) * integrate(
            lambda th: math.sin(ax * math.cos(th)), 0.0, math.pi / 2.0,
            QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12, max_refinements=30),
        )
    return -val if x < 0.0 else val


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod quadrature

# 15-point Kronrod nodes (positive half) and weights with the embedded
# 7-point Gauss weights, standard values.
_XGK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
)
_WGK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)


def _gk15(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod 7/15 panel: (Kronrod value, |Kronrod - Gauss|)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fc = f(mid)
    if not math.isfinite(fc):
        raise ValueError(f"integrand not finite at x = {mid!r}")
    kron = _WGK[7] * fc
    gauss = _WG[3] * fc
    for i in range(7):
        dx = half * _XGK[i]
        f1 = f(mid - dx)
        f2 = f(mid + dx)
        if not (math.isfinite(f1) and math.isfinite(f2)):
            raise ValueError(f"integrand not finite near x = {mid!r}")
        kron += _WGK[i] * (f1 + f2)
        if i % 2 == 1:
            gauss += _WG[i // 2] * (f1 + f2)
    return kron * half, abs(kron - gauss) * abs(half)


def integrate(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Adaptive integral of f over [lo, hi].

    Bisects the panel with the largest error estimate until the summed
    estimate meets max(abs_tol, rel_tol * |result|); deterministic for
    fixed inputs. Raises ToleranceNotMetError (best estimate attached)
    when the worst panel has already been refined max_refinements times.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("integration bounds must be finite")
    if lo > hi:
        raise ValueError(f"integration bounds out of order: {lo!r} > {hi!r}")
    if lo == hi:
        return 0.0
    val, err = _gk15(f, lo, hi)
    # heap entries: (-error, left, right, depth, value); left edge breaks ties
    heap = [(-err, lo, hi, 0, val)]
    total = val
    total_err = err
    while total_err > max(spec.abs_tol, spec.rel_tol * abs(total)):
        neg_err, a, b, depth, v = heapq.heappop(heap)
        if depth >= spec.max_refinements or len(heap) >= _MAX_PANELS:
            heapq.heappush(heap, (neg_err, a, b, depth, v))
            best = math.fsum(item[4] for item in heap)
            raise ToleranceNotMetError(
                f"quadrature stalled on [{a!r}, {b!r}] after {depth} refinements "
                f"(error estimate {total_err:.3e})",
                best, total_err,
            )
        mid = 0.5 * (a + b)
        v1, e1 = _gk15(f, a, mid)
        v2, e2 = _gk15(f, mid, b)
        total += (v1 + v2) - v
        total_err += (e1 + e2) + neg_err
        heapq.heappush(heap, (-e1, a, mid, depth + 1, v1))
        heapq.heappush(heap, (-e2, mid, b, depth + 1, v2))
    return math.fsum(item[4] for item in heap)


class CumulativeIntegral:
    """Antiderivative F(x) = int_lo^x f for smooth f, precomputed once.

    Kronrod prefix sums over a fixed uniform panel grid; an evaluation
    adds one partial panel. Panel-rule accuracy is far below 1e-12 for
    the trigonometric integrands used here with _CUMULATIVE_PANELS.
    """

    __slots__ = ("_f", "_lo", "_hi", "_h", "_prefix")

    def __init__(self, f: Callable[[float], float], lo: float, hi: float):
        if hi <= lo:
            raise ValueError("CumulativeIntegral requires hi > lo")
        self._f = f
        self._lo = lo
        self._hi = hi
        self._h = (hi - lo) / _CUMULATIVE_PANELS
        prefix = [0.0]
        running = 0.0
        for k in range(_CUMULATIVE_PANELS):
            running += _gk15(f, lo + k * self._h, lo + (k + 1) * self._h)[0]
            prefix.append(running)
        self._prefix = prefix

    def __call__(self, x: float) -> float:
        if x < self._lo - 1e-12 or x > self._hi + 1e-12:
            raise ValueError(f"argument {x!r} outside table domain [{self._lo}, {self._hi}]")
        u = min(max(x, self._lo), self._hi)
        k = min(int((u - self._lo) / self._h), len(self._prefix) - 2)
        start = self._lo + k * self._h
        if u == start:
            return self._prefix[k]
        return self._prefix[k] + _gk15(self._f, start, u)[0]
