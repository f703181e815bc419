"""Special functions and quadrature.

Bessel J0/J1, the zeros of J0 and Struve H0 derive from one Bessel row
J_0..J_K(x) (Miller's backward recurrence), with absolute error 1e-12 on
the working domain |x| <= 50. Also a fixed Gauss-Legendre rule, and an
adaptive Gauss-Kronrod integrator with precomputed cumulative integrals,
whose tolerances are caller-controlled (the slow constants' oracle).
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

BESSEL_DOMAIN = 50.0
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
# Bessel J0, J1 and Struve H0 from one Bessel row

def bessel_row(x: float) -> np.ndarray:
    """J_0(x), ..., J_K(x) for |x| <= 200, with K = int(|x| + 12 |x|^(1/3)) + 8,
    past which every J_k(x) is below 1e-17.

    Miller's backward recurrence J_{k-1} = (2k/x) J_k - J_{k+1}, started
    from (J_{K+1}, J_K) ~ (0, 1) and normalised by J_0 + 2 sum J_{2k} = 1
    (Abramowitz & Stegun 9.1.27, 9.1.46): absolute error about 1e-15 on
    |x| <= 50. Below |x| = 1e-5, where 2k/x can overflow, the ascending
    series (x/2)^k / k! (1 - (x/2)^2 / (k+1)) is exact to rounding.
    """
    if not abs(x) <= 4.0 * BESSEL_DOMAIN:
        raise ValueError(f"bessel_row argument {x!r} outside |x| <= {4.0 * BESSEL_DOMAIN}")
    ax = abs(x)
    top = bessel_order(ax)
    if ax < 1e-5:
        h, k = 0.5 * ax, np.arange(1, top + 1)
        row = np.cumprod(np.r_[1.0, h / k]) * (1.0 - h * h / np.arange(1, top + 2))
    else:
        f = [0.0] * (top + 2)
        f[top] = 1.0
        for k in range(top, 0, -1):
            f[k - 1] = 2 * k / ax * f[k] - f[k + 1]
        row = np.array(f[:-1])
        row /= row[0] + 2.0 * row[2::2].sum()
    if x < 0.0:
        row[1::2] = -row[1::2]
    return row


def bessel_order(x: float) -> int:
    """K = int(|x| + 12 |x|^(1/3)) + 8, the last order in bessel_row(x)."""
    ax = abs(x)
    return int(ax + 12.0 * ax ** (1.0 / 3.0)) + 8


def require_domain(x: float, name: str) -> None:
    """Raise ValueError, naming the function, unless x is finite with |x| <= 50."""
    if not math.isfinite(x):
        raise ValueError(f"{name} requires a finite argument, got {x!r}")
    if abs(x) > BESSEL_DOMAIN:
        raise ValueError(
            f"{name} argument |x| = {abs(x)!r} outside the working domain |x| <= {BESSEL_DOMAIN}"
        )


def bessel_j0(x: float) -> float:
    """Bessel function J0(x), absolute error < 1e-12 for |x| <= 50."""
    require_domain(x, "bessel_j0")
    return float(bessel_row(x)[0])


def bessel_j1(x: float) -> float:
    """Bessel function J1(x) on |x| <= 50 (odd in x)."""
    require_domain(x, "bessel_j1")
    return float(bessel_row(x)[1])


@functools.lru_cache(maxsize=None)
def bessel_j0_zero(j: int) -> float:
    """j-th positive zero of J0, strictly increasing in j.

    McMahon's asymptotic guess refined by Newton iteration on J0
    (J0' = -J1), which converges within four steps for every j it runs
    at. Past beta = 150 (j >= 48) the guess is final (its next term,
    1.8 / beta^7, is below 1e-15).
    """
    if not isinstance(j, int) or isinstance(j, bool):
        raise ValueError(f"zero index must be an integer, got {j!r}")
    if j < 1:
        raise ValueError(f"zero index must be >= 1, got {j}")
    beta = (j - 0.25) * math.pi
    x = beta + 1.0 / (8.0 * beta) - 31.0 / (384.0 * beta**3) + 3779.0 / (15360.0 * beta**5)
    if beta > 150.0:
        return x
    for _ in range(12):
        j0, j1 = bessel_row(x)[:2]
        x_new = x + float(j0 / j1)  # Newton: x - J0/J0' = x + J0/J1
        converged = abs(x_new - x) < 4e-16 * x_new
        x = x_new
        if converged:
            break
    return x


def struve_h0(x: float) -> float:
    """Struve function H0(x) = (4/pi) sum_{k odd} J_k(x) / k, absolute
    error < 1e-12 for |x| <= 50. Odd in x."""
    require_domain(x, "struve_h0")
    row = bessel_row(x)
    return float(4.0 / math.pi * (row[1::2] / np.arange(1, row.size, 2)).sum())


# ---------------------------------------------------------------------------
# Fixed Gauss-Legendre rule

@functools.lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton iteration on the three-term Legendre recurrence from the guess
    -cos(pi (i - 1/4) / (n + 1/2)), all nodes at once; no eigenproblem.
    Nodes ascend. The read-only arrays are shared between callers.
    """
    x = -np.cos(math.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(20):
        p_prev, p = np.ones_like(x), x
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        dx = p / dp
        x = x - dx
        if np.abs(dx).max() < 1e-15:
            break
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x.flags.writeable = w.flags.writeable = False
    return x, w


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
