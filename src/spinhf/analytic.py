"""Closed-form dynamics: effective quantities, slow-frequency corrections,
analytic propagators, sigma_z traces and resonance amplitudes.

Three propagators are provided: the exact one for r = 0, the one-period
average, and the two-time-scale correction of the average. The last two
differ only in the slow generator; on the degenerate branch where the
averaged generator vanishes the corrected one produces a slow
full-amplitude oscillation instead of frozen dynamics.

Every derived quantity of a parameter set lives in one record,
EffectiveQuantities, built once per DriveParams by _record (the one
place that decides the branch); the public functions read its fields.
The slow constants J0, a, b and the gamma pair depend on the fast drive
(r, phi_hf) alone, so _drive computes them once per drive, and the
parameter sets of a sweep share them. They are Jacobi-Anger sums over
one Bessel row. The gamma pair's outer integrals run on a Gauss-Legendre
rule of one of four sizes; a record per size (_gauss_rule), built at its
first use, holds its nodes, weights and the sin/cos bases of the
Jacobi-Anger sums there, so a fresh r costs one Bessel row and two
matrix-vector products.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from . import model, special, su2
from .model import DriveParams, TWO_PI
from .su2 import PauliOperator, Spinor, Vec3

RESONANCE_EPS = 1e-9


class MethodId(Enum):
    """Analytic solution families; the numeric engine is selected separately."""

    EXACT_R0 = "exact"
    AVERAGING = "avg"
    MULTI_SCALE = "ms"


class ResonantBranchError(ValueError):
    """The requested quantity is undefined where the averaged generator vanishes."""


def omega0(p: DriveParams) -> float:
    """Rabi frequency without the HF drive: sqrt((1+w_par)^2 + w_perp^2)."""
    return math.hypot(1.0 + p.omega_par, p.omega_perp)


def is_resonant_branch(p: DriveParams) -> bool:
    """True when the averaged generator vanishes: w_par = -1 and J0(r) = 0.

    Both hold to within RESONANCE_EPS. The trivially field-free case
    w_perp = 0 is excluded; it is handled by the regular formulas (which
    then give frozen dynamics as well).
    """
    return _record(p).resonant_branch


def h0_op(p: DriveParams) -> PauliOperator:
    """Rotating-frame Hamiltonian without the HF drive."""
    return PauliOperator.hermitian(0.0, Vec3(-0.5 * p.omega_perp, 0.0, -0.5 * (1.0 + p.omega_par)))


# ---------------------------------------------------------------------------
# Slow-frequency correction ingredients: Jacobi-Anger sums over one Bessel row

def _fourier_parts(jk: np.ndarray, u):
    """P(u) = sum_{k even >= 2} (2 J_k / k) sin ku and
    Q(u) = sum_{k odd} (2 J_k / k) cos ku for the Bessel row jk of r.

    The Jacobi-Anger series cos(r sin v) = J0 + 2 sum_{k even} J_k cos kv
    and sin(r sin v) = 2 sum_{k odd} J_k sin kv integrate term by term to
    int_0^u cos(r sin v) dv = J0 u + P(u) and
    int_0^u sin(r sin v) dv = Q(0) - Q(u). u is a float or an array.
    """
    k = np.arange(1, jk.size)
    c = 2.0 * jk[1:] / k
    return np.sin(np.multiply.outer(u, k[1::2])) @ c[1::2], np.cos(np.multiply.outer(u, k[::2])) @ c[::2]


def ab_funcs(r: float, phi: float) -> tuple[float, float]:
    """Phase coefficients a(r, phi) and b(r, phi).

    a = 2 int_0^phi sin(r sin u) du - pi H0(r) = -4 sum_{k odd} J_k(r) cos(k phi) / k
    b = 2 [int_0^phi cos(r sin u) du - phi J0(r)] = 4 sum_{k even >= 2} J_k(r) sin(k phi) / k
    """
    return _ab_from_row(special.bessel_row(r), phi)


def _ab_from_row(jk: np.ndarray, phi: float) -> tuple[float, float]:
    """ab_funcs from the Bessel row jk of r."""
    p_, q_ = _fourier_parts(jk, phi)
    return float(-2.0 * q_), float(2.0 * p_)


def sigma_op(t0: float, p: DriveParams) -> PauliOperator:
    """Running integral of (rotating-frame Hamiltonian minus its average).

    Periodic in t0 with period 2 pi and zero at both ends of a period.
    """
    jk = special.bessel_row(p.r)
    p1, q1 = _fourier_parts(jk, t0 + p.phi_hf)
    p0, q0 = _fourier_parts(jk, p.phi_hf)
    f = -0.5 * p.omega_perp
    return PauliOperator.hermitian(0.0, Vec3(f * float(p1 - p0), f * float(q0 - q1), 0.0))


# ---------------------------------------------------------------------------
# gamma integrals (cached per r; sweeps share one r across their grid)

def _rule_size(r: float) -> int:
    """Nodes of the gamma pair's Gauss-Legendre rule at r: 2^ceil(log2(8r + 128)),
    so 128 at r = 0, 256 up to r = 16, 512 up to 48 and 1024 up to 50."""
    return 1 << math.ceil(math.log2(8.0 * r + 128.0))


@functools.lru_cache(maxsize=4)
def _gauss_rule(n: int) -> tuple[np.ndarray, ...]:
    """What the gamma pair evaluates at the nodes of the n-node rule,
    whatever r: the nodes phi on [0, 2 pi], the weights w, sin phi, and the
    Jacobi-Anger bases sin(k phi_i) for even k >= 2 and cos(k phi_i) for
    odd k, one column per k, as wide as the longest Bessel row of an r that
    takes the rule. Built at its first use; the domain takes four sizes
    (_rule_size), so the cache holds every one. The arrays are read-only.
    """
    x, w = special.gauss_legendre(n)
    phi = math.pi * (x + 1.0)
    k = np.arange(1, special.bessel_order(min((n - 128) / 8.0, special.BESSEL_DOMAIN)) + 1)
    rule = (
        phi, math.pi * w, np.sin(phi),
        np.sin(np.multiply.outer(phi, k[1::2])), np.cos(np.multiply.outer(phi, k[::2])),
    )
    for a in rule:
        a.flags.writeable = False
    return rule


@functools.lru_cache(maxsize=256)
def _default_gamma_pair(r: float) -> tuple[float, float]:
    """The gamma pair with its inner integrals in closed form and the outer
    ones on a fixed Gauss-Legendre rule, which converges exponentially on
    these entire integrands, with _rule_size(r) nodes."""
    return _rule_gamma_pair(_gauss_rule(_rule_size(r)), r)


def _rule_gamma_pair(rule: tuple, r: float) -> tuple[float, float]:
    """The gamma pair on the rule (_gauss_rule). The inner integrals are
    _fourier_parts at the nodes, as products of the rule's bases with the
    coefficients of r's Bessel row, and Q(0) = ones . odd coefficients, as
    cos 0 = 1: the same products of the same values, so the same bits."""
    phi, w, sin_phi, sin_even, cos_odd = rule
    jk = special.bessel_row(r)
    coef = 2.0 * jk[1:] / np.arange(1, jk.size)
    even, odd = coef[1::2], coef[::2]
    q0 = np.ones(odd.size) @ odd
    cum_cos = jk[0] * phi + sin_even[:, : even.size] @ even
    cum_sin = q0 - cos_odd[:, : odd.size] @ odd
    c, s = np.cos(r * sin_phi), np.sin(r * sin_phi)
    return _combine_gamma(
        jk[0], 2.0 * q0 / math.pi, w @ (s * cum_cos * cum_sin), w @ (phi * phi * c),
        w @ (phi * (c * cum_cos + s * cum_sin)),
    )


def _combine_gamma(j0, h0, triple, single, double) -> tuple[float, float]:
    g1 = 0.5 * math.pi**2 * j0 * h0 * h0 + (2.0 / math.pi) * triple
    g2 = (
        0.25 * math.pi**2 * h0 * h0
        - (4.0 * math.pi**2 / 3.0) * j0 * j0
        - j0 / TWO_PI * single
        + double / math.pi
    )
    return float(g1), float(g2)


def _gamma_pair(r: float, _unused=None) -> tuple[float, float]:
    # perfbench/tracer.py wraps this choke point and calls it as _gamma_pair(r, None)
    if r < 0.0:
        raise ValueError(f"gamma functions are defined for r >= 0, got {r!r}")
    special.require_domain(r, "bessel_j0")  # the node count and row grow with r
    return _default_gamma_pair(float(r))


def gamma1(r: float) -> float:
    """Triple-integral correction coefficient (first of the pair)."""
    return _gamma_pair(r)[0]


def gamma2(r: float) -> float:
    """Double-integral correction coefficient (second of the pair)."""
    return _gamma_pair(r)[1]


# ---------------------------------------------------------------------------
# The slow solution of one parameter set

@dataclass(frozen=True, slots=True)
class EffectiveQuantities:
    """Every derived scalar and vector of one parameter set, and the
    averaged (h_eff) and corrected (h_ms) slow generators.

    m is the real vector of the first-order secular operator i m.sigma,
    q the second-order secular vector built from the alphas, n the unit
    axis of the averaged generator (None where it vanishes). On the
    degenerate branch eta is None, and Omega_ms and h_ms come from
    gamma1(r).
    """

    Omega0: float
    Omega_eff: float
    n: Optional[Vec3]
    j0r: float
    a: float
    b: float
    m: Vec3
    q: Vec3
    alpha_x: float
    alpha_y: float
    alpha_z: float
    gamma1: float
    gamma2: float
    eta: Optional[float]
    Omega_ms: float
    resonant_branch: bool
    h_eff: PauliOperator = field(repr=False)
    h_ms: PauliOperator = field(repr=False)


@functools.lru_cache(maxsize=256)
def _drive(r: float, phi: float) -> tuple[float, float, float, float, float]:
    """(J0(r), a, b, gamma1, gamma2): the slow constants of the fast drive
    (r, phi_hf), shared by every parameter set that has it, as the points
    of a sweep do. J0, a and b come from one Bessel row; the gamma pair is
    cached per r on its own.
    """
    special.require_domain(r, "bessel_j0")
    jk = special.bessel_row(r)
    return (float(jk[0]), *_ab_from_row(jk, phi), *_gamma_pair(r))


@functools.lru_cache(maxsize=64)
def _record(p: DriveParams) -> EffectiveQuantities:
    """Build the slow solution of p: the per-(w_perp, w_par, Omega_HF)
    algebra on the shared constants of its drive (_drive). It is the one
    place that tests the branch, by w_par = -1 and J0(r) = 0 to within
    RESONANCE_EPS (w_perp != 0). There the corrected generator takes
    gamma1 at r itself.
    """
    j0, a, b, g1, g2 = _drive(p.r, p.phi_hf)
    opar1 = 1.0 + p.omega_par
    branch = p.omega_perp != 0.0 and abs(opar1) < RESONANCE_EPS and abs(j0) < RESONANCE_EPS
    ox = p.omega_perp * j0
    w = math.hypot(opar1, ox)
    h_eff = PauliOperator.hermitian(0.0, Vec3(-0.5 * p.omega_perp * j0, 0.0, -0.5 * opar1))

    f = -0.25 * p.omega_perp
    m = Vec3(f * opar1 * a, -f * opar1 * b, -f * p.omega_perp * j0 * a)
    alpha_x = 0.5 * j0 * a * a - g1
    alpha_y = -0.5 * j0 * a * b
    alpha_z = 0.25 * a * a + 0.25 * b * b - g2
    half_perp = 0.5 * p.omega_perp
    f = -half_perp * half_perp
    q = Vec3(f * half_perp * alpha_x, f * half_perp * alpha_y, f * opar1 * alpha_z)

    if p.omega_perp == 0.0:
        eta_, w_ms, h_ms = 0.0, w, h_eff  # eta vanishes identically
    elif branch:
        # the surviving term is the slow x rotation with coefficient
        # -eps^2 (w_perp/2)^3 gamma1(r)
        eta_ = None
        w_ms = 0.25 * p.epsilon**2 * p.omega_perp**3 * g1
        h_ms = PauliOperator.hermitian(0.0, Vec3(-(p.epsilon**2) * half_perp**3 * g1, 0.0, 0.0))
    else:
        # the correction rescales the averaged generator by (1 + eps^2 eta)
        ratio = p.omega_perp / w
        eta_ = 0.5 * ratio * ratio * (0.5 * p.omega_perp**2 * j0 * g1 + opar1**2 * g2)
        scale = 1.0 + p.epsilon**2 * eta_
        w_ms, h_ms = scale * w, scale * h_eff

    return EffectiveQuantities(
        Omega0=omega0(p), Omega_eff=w,
        n=None if w == 0.0 or branch else Vec3(ox / w, 0.0, opar1 / w),
        j0r=j0, a=a, b=b, m=m, q=q, alpha_x=alpha_x, alpha_y=alpha_y, alpha_z=alpha_z,
        gamma1=g1, gamma2=g2, eta=eta_, Omega_ms=w_ms, resonant_branch=branch,
        h_eff=h_eff, h_ms=h_ms,
    )


def effective_quantities(p: DriveParams) -> EffectiveQuantities:
    """The slow solution of p (cached per parameter set); on the
    degenerate branch its corrected generator takes gamma1(r)."""
    return _record(p)


def omega_eff(p: DriveParams) -> float:
    """Effective Rabi frequency sqrt((1+w_par)^2 + [w_perp J0(r)]^2)."""
    return _record(p).Omega_eff


def h_eff(p: DriveParams) -> PauliOperator:
    """One-period average of the rotating-frame Hamiltonian."""
    return _record(p).h_eff


def lambda_op(t1: float, p: DriveParams) -> PauliOperator:
    """Bounded first-order secular accumulation; zero on the degenerate branch."""
    q = _record(p)
    if q.n is None:
        # the branch, or omega_perp = 0 with omega_par = -1, where m = 0
        return su2.ZERO_OP
    w = q.Omega_eff
    c1 = math.sin(w * t1) / w
    c2 = (1.0 - math.cos(w * t1)) / w
    vec = c1 * q.m + c2 * q.n.cross(q.m)
    return PauliOperator(0j, 1j * vec.x, 1j * vec.y, 1j * vec.z)


def eta(p: DriveParams) -> float:
    """Relative slow-frequency correction (closed form in gamma1/gamma2)."""
    e = _record(p).eta
    if e is None:
        raise ResonantBranchError(
            "eta is undefined where the averaged generator vanishes; "
            "use the degenerate-branch generator instead"
        )
    return e


def eta_via_vectors(p: DriveParams) -> float:
    """Same correction from the vector route 2/w (n.q + |m|^2 / w).

    The formal square of the imaginary secular vector contributes
    -|m|^2; agreement with eta() is a property test.
    """
    q = _record(p)
    if q.resonant_branch:
        raise ResonantBranchError("eta is undefined on the degenerate branch")
    if q.n is None:  # no field at all: omega_perp = 0 and omega_par = -1
        return 0.0
    w = q.Omega_eff
    return (2.0 / w) * (q.n.dot(q.q) + q.m.dot(q.m) / w)


def ms_hamiltonian(p: DriveParams) -> PauliOperator:
    """Slow generator including the second-order secular correction.

    Off the degenerate branch it rescales the averaged generator by
    (1 + eps^2 eta); on it the surviving term is the slow x rotation
    with coefficient -eps^2 (w_perp/2)^3 gamma1(r).
    """
    return _record(p).h_ms


def omega_ms(p: DriveParams) -> float:
    """Corrected slow frequency; on the degenerate branch the signed
    eigenfrequency (eps^2 / 4) w_perp^3 gamma1(r)."""
    return _record(p).Omega_ms


# ---------------------------------------------------------------------------
# Propagators and closed traces

def _slow_generator(method: MethodId, p: DriveParams) -> PauliOperator:
    """Rotating-frame slow generator of a method: the one place that knows
    the method ladder. Propagators, traces and amplitudes all derive from
    it."""
    if method is MethodId.EXACT_R0:
        if p.r != 0.0:
            raise ValueError("the exact propagator is only defined for r = 0")
        return h0_op(p)
    if method is MethodId.AVERAGING:
        # averaging destroys the resonance: on the degenerate branch the
        # averaged generator vanishes (h_eff is zero there up to the
        # RESONANCE_EPS drift of r and omega_par)
        q = _record(p)
        return su2.ZERO_OP if q.resonant_branch else q.h_eff
    if method is MethodId.MULTI_SCALE:
        return ms_hamiltonian(p)
    raise ValueError(f"unknown method {method!r}")


def propagator(method: MethodId, t: float, p: DriveParams) -> PauliOperator:
    """Analytic lab-frame propagator; unitary by construction."""
    g = _slow_generator(method, p)
    return (
        model.gauge_factor(t, p)
        @ su2.pauli_exponential(g, t)
        @ model.initial_gauge_factor(p)
    )


def slow_initial_state(p: DriveParams, init: Spinor) -> Spinor:
    """Lab-frame initial state from which the corrected slow evolution
    tracks the exact HF-averaged dynamics to O(eps^2).

    The corrected generator belongs to the gauge whose micromotion has
    zero period mean, while the running integral sigma_op starts at zero.
    The two differ by the initial kick exp(-i eps S), where S is the
    period mean of sigma_op, (w_perp/4)(b sigma_x + a sigma_y). The kick
    acts on the rotating-frame state G0 init; the result is mapped back
    with G0^dagger so it can be passed to expect_sz_closed or propagator.
    It vanishes (the input state is returned) wherever a = b = 0, e.g.
    at phi_hf = pi/2 or r = 0.
    """
    q = _record(p)
    f = 0.25 * p.omega_perp
    s_mean = PauliOperator.hermitian(0.0, Vec3(f * q.b, f * q.a, 0.0))
    g0 = model.initial_gauge_factor(p)
    return (g0.adjoint() @ su2.pauli_exponential(s_mean, p.epsilon) @ g0).apply(init)


def expect_sz_closed(
    method: MethodId, t: float | np.ndarray, p: DriveParams, init: Spinor
) -> float | np.ndarray:
    """sigma_z expectation under the chosen analytic solution.

    ``t`` is a float (a float is returned) or an array of times (an
    array of the same shape is returned). The lab-frame gauge factor is
    a sigma_z rotation and drops out, so the trace is the z component of
    the Bloch vector b of G0 init rotated about the unit axis n of the
    slow generator v.sigma by the angle 2|v|t:
    z(t) = n_z (n.b) + (b_z - n_z (n.b)) cos(2|v|t) + (n x b)_z sin(2|v|t),
    and the constant b_z where v = 0. It agrees with the propagator
    route to rounding.
    """
    v = _slow_generator(method, p).real_vector()
    b = model.initial_gauge_factor(p).apply(init).bloch()
    w = v.norm()
    if w == 0.0:
        z = np.full(np.shape(t), b.z)
    else:
        n = v * (1.0 / w)
        nb = n.dot(b)
        ang = (2.0 * w) * np.asarray(t, dtype=float)
        z = n.z * nb + (b.z - n.z * nb) * np.cos(ang) + n.cross(b).z * np.sin(ang)
    return float(z) if np.ndim(z) == 0 else z


def amplitude_closed(method: MethodId, p: DriveParams) -> float:
    """Half peak-to-peak excursion of the closed trace from a sigma_z
    eigenstate: the transverse weight (v_x^2 + v_y^2) / |v|^2 of the slow
    generator, 0 where it vanishes."""
    v = _slow_generator(method, p).real_vector()
    w2 = v.dot(v)
    return (v.x * v.x + v.y * v.y) / w2 if w2 != 0.0 else 0.0
