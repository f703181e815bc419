"""Reference implementations the tests check spinhf against.

They share no numerical route with the package's fast code, so agreement
between the two is evidence for both:

- `integrate_schrodinger`: an embedded adaptive Runge-Kutta 5(4) pair
  (Dormand-Prince) on the two complex state amplitudes, stepped in the
  lab frame (`hamiltonian_lab`), its step capped at a twentieth of the HF
  period. The oracle of `numeric.evolve_floquet`.
- `integrate` and `CumulativeIntegral`: adaptive Gauss-Kronrod 7/15
  quadrature, and antiderivatives from Kronrod prefix sums, with
  caller-controlled tolerances (`QuadratureSpec`).
- `quadrature_gamma_pair`: the gamma pair by that quadrature, independent
  of the Bessel row. The oracle of `analytic.gamma1`/`gamma2`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from spinhf import analytic, special
from spinhf.model import TWO_PI, DriveParams
from spinhf.numeric import _TOL_RANGE, StiffnessError, TimeSeries, default_sample_dt
from spinhf.su2 import PauliOperator, Spinor, Vec3

_RENORM_THRESHOLD = 1e-10
_NORM_FAILURE = 1e-6
_MAX_PANELS = 200_000
_CUMULATIVE_PANELS = 512  # uniform panel grid of CumulativeIntegral


class IntegratorFailureError(RuntimeError):
    """State norm drifted beyond recovery between renormalizations."""


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
# Lab-frame Hamiltonian and adaptive RK 5(4) integration

def hamiltonian_lab(t: float, p: DriveParams) -> PauliOperator:
    """Lab-frame Hamiltonian at time t (traceless, Hermitian)."""
    hx = -0.5 * p.omega_perp * math.cos(t)
    hy = -0.5 * p.omega_perp * math.sin(t)
    hz = -0.5 * (p.omega_par + p.omega_hf * math.cos(p.Omega_HF * t + p.phi_hf))
    return PauliOperator.hermitian(0.0, Vec3(hx, hy, hz))


# Dormand-Prince tableau
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
_A71, _A73, _A74, _A75, _A76 = (
    35.0 / 384.0,
    500.0 / 1113.0,
    125.0 / 192.0,
    -2187.0 / 6784.0,
    11.0 / 84.0,
)
_C2, _C3, _C4, _C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)


def _rhs_lab(p: DriveParams) -> Callable:
    half_perp = 0.5 * p.omega_perp
    opar = p.omega_par
    whf = p.omega_hf
    ohf = p.Omega_HF
    phi = p.phi_hf
    cos, sin = math.cos, math.sin

    def rhs(t: float, u: complex, d: complex):
        hx = -half_perp * cos(t)
        hy = -half_perp * sin(t)
        hz = -0.5 * (opar + whf * cos(ohf * t + phi))
        hm = complex(hx, -hy)
        return -1j * (hz * u + hm * d), -1j * (hm.conjugate() * u - hz * d)

    return rhs


def integrate_schrodinger(
    p: DriveParams,
    init: Spinor,
    t_end: float,
    sample_dt: Optional[float] = None,
    tol: float = 1e-8,
) -> tuple[TimeSeries, Spinor, float]:
    """Integrate i dpsi/dt = H(t) psi in the lab frame from t = 0 and
    sample <sigma_z>.

    Samples are recorded at exact multiples of sample_dt (default: a
    thirty-second of the HF period), the grid of numeric.sample_times.
    Returns the series, the final state and the norm drift. The state is
    projected back onto the unit sphere after every accepted step. The
    norm drift is the sum of the per-step norm deviations |norm - 1|
    above 1e-10, taken before each projection. It grows with the horizon
    and with tol: at the default tol = 1e-8 it is nonzero in normal
    operation (3.6e-6 at omega_perp = 3, omega_par = -1, r = 1,
    phi_hf = pi/2, Omega_HF = 50, t_end = 100), while at tol = 1e-10 it
    stays 0.0 there.
    """
    if not t_end > 0.0:
        raise ValueError(f"t_end must be > 0, got {t_end!r}")
    if not _TOL_RANGE[0] <= tol <= _TOL_RANGE[1]:
        raise ValueError(f"tol {tol!r} outside supported range {_TOL_RANGE}")
    rhs = _rhs_lab(p)
    if sample_dt is None:
        sample_dt = default_sample_dt(p)
    if not sample_dt > 0.0:
        raise ValueError(f"sample_dt must be > 0, got {sample_dt!r}")

    h_max = (TWO_PI / p.Omega_HF) / 20.0
    u = complex(init.up)
    d = complex(init.down)
    t = 0.0
    drift = 0.0
    times = [0.0]
    values = [(u.real * u.real + u.imag * u.imag) - (d.real * d.real + d.imag * d.imag)]
    next_k = 1
    next_sample = sample_dt

    k1u, k1d = rhs(t, u, d)
    h = min(h_max, sample_dt)
    abs_ = abs

    while t < t_end:
        target = next_sample if next_sample < t_end else t_end
        clipped = t + h >= target
        h_try = (target - t) if clipped else h

        # Dormand-Prince stages (k7 = FSAL)
        yu = u + h_try * (_A21 * k1u)
        yd = d + h_try * (_A21 * k1d)
        k2u, k2d = rhs(t + _C2 * h_try, yu, yd)
        yu = u + h_try * (_A31 * k1u + _A32 * k2u)
        yd = d + h_try * (_A31 * k1d + _A32 * k2d)
        k3u, k3d = rhs(t + _C3 * h_try, yu, yd)
        yu = u + h_try * (_A41 * k1u + _A42 * k2u + _A43 * k3u)
        yd = d + h_try * (_A41 * k1d + _A42 * k2d + _A43 * k3d)
        k4u, k4d = rhs(t + _C4 * h_try, yu, yd)
        yu = u + h_try * (_A51 * k1u + _A52 * k2u + _A53 * k3u + _A54 * k4u)
        yd = d + h_try * (_A51 * k1d + _A52 * k2d + _A53 * k3d + _A54 * k4d)
        k5u, k5d = rhs(t + _C5 * h_try, yu, yd)
        yu = u + h_try * (_A61 * k1u + _A62 * k2u + _A63 * k3u + _A64 * k4u + _A65 * k5u)
        yd = d + h_try * (_A61 * k1d + _A62 * k2d + _A63 * k3d + _A64 * k4d + _A65 * k5d)
        k6u, k6d = rhs(t + h_try, yu, yd)
        nu = u + h_try * (_A71 * k1u + _A73 * k3u + _A74 * k4u + _A75 * k5u + _A76 * k6u)
        nd = d + h_try * (_A71 * k1d + _A73 * k3d + _A74 * k4d + _A75 * k5d + _A76 * k6d)
        t_new = target if clipped else t + h_try
        k7u, k7d = rhs(t_new, nu, nd)

        eu = h_try * (_E1 * k1u + _E3 * k3u + _E4 * k4u + _E5 * k5u + _E6 * k6u + _E7 * k7u)
        ed = h_try * (_E1 * k1d + _E3 * k3d + _E4 * k4d + _E5 * k5d + _E6 * k6d + _E7 * k7d)
        scu = tol * (1.0 + abs_(u))
        scd = tol * (1.0 + abs_(d))
        err = math.sqrt(0.5 * ((abs_(eu) / scu) ** 2 + (abs_(ed) / scd) ** 2))

        if err <= 1.0:
            t = t_new
            u, d = nu, nd
            k1u, k1d = k7u, k7d
            norm2 = u.real * u.real + u.imag * u.imag + d.real * d.real + d.imag * d.imag
            dev = abs_(math.sqrt(norm2) - 1.0)
            if dev > _RENORM_THRESHOLD:
                if dev > _NORM_FAILURE:
                    raise IntegratorFailureError(
                        f"norm drift {dev:.3e} at t = {t:.6g} exceeds {_NORM_FAILURE}"
                    )
                drift += dev
            if norm2 != 1.0:
                # project back onto the unit sphere every step; the RHS is
                # linear so the FSAL stage rescales exactly
                scale = 1.0 / math.sqrt(norm2)
                u *= scale
                d *= scale
                k1u *= scale
                k1d *= scale
            if t == next_sample:
                times.append(t)
                values.append(
                    (u.real * u.real + u.imag * u.imag) - (d.real * d.real + d.imag * d.imag)
                )
                next_k += 1
                next_sample = next_k * sample_dt
            fac = min(5.0, max(0.2, 0.9 * err ** -0.2)) if err > 0.0 else 5.0
            h = min(h_max, h_try * fac)
        else:
            h = h_try * max(0.2, 0.9 * err ** -0.2)
        if h < 1e-14 * max(1.0, t):
            raise StiffnessError(f"step size underflow (h = {h:.3e}) at t = {t:.6g}")

    norm = math.sqrt(u.real * u.real + u.imag * u.imag + d.real * d.real + d.imag * d.imag)
    final = Spinor(u / norm, d / norm)
    series = TimeSeries(times=np.array(times), values=np.array(values), method="numeric[lab]", params=p)
    return series, final, drift


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


# ---------------------------------------------------------------------------
# The gamma pair by quadrature

def quadrature_gamma_pair(r: float, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> tuple[float, float]:
    """(gamma1(r), gamma2(r)) by adaptive quadrature, uncached and
    independent of the Bessel row (J0 and H0 come from the cumulative
    integrals at pi). r must lie in [0, 50], as for analytic.gamma1."""
    if r < 0.0:
        raise ValueError(f"gamma functions are defined for r >= 0, got {r!r}")
    special.require_domain(r, "bessel_j0")
    cum_cos = CumulativeIntegral(lambda u: math.cos(r * math.sin(u)), 0.0, TWO_PI)
    cum_sin = CumulativeIntegral(lambda u: math.sin(r * math.sin(u)), 0.0, TWO_PI)
    # Triple integral with both inner variables independent on [0, phi]:
    # reduces exactly to the product of the two cumulative integrals.
    triple = integrate(
        lambda phi: math.sin(r * math.sin(phi)) * cum_cos(phi) * cum_sin(phi),
        0.0, TWO_PI, spec,
    )
    single = integrate(lambda phi: phi * phi * math.cos(r * math.sin(phi)), 0.0, TWO_PI, spec)
    double = integrate(
        lambda phi: phi * (
            math.cos(r * math.sin(phi)) * cum_cos(phi)
            + math.sin(r * math.sin(phi)) * cum_sin(phi)
        ),
        0.0, TWO_PI, spec,
    )
    return analytic._combine_gamma(
        cum_cos(math.pi) / math.pi, cum_sin(math.pi) / math.pi, triple, single, double
    )
