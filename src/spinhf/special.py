"""Special functions: Bessel J0/J1, the zeros of J0, Struve H0 and a
fixed Gauss-Legendre rule.

J0, J1 and H0 derive from one Bessel row J_0..J_K(x) (Miller's backward
recurrence), with absolute error 1e-12 on the working domain |x| <= 50.
The Gauss-Legendre rule carries the outer integrals of the gamma pair
(analytic).
"""

from __future__ import annotations

import functools
import math

import numpy as np

BESSEL_DOMAIN = 50.0


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
