"""Exact 2x2 algebra over the Pauli basis.

Operators are stored as an identity coefficient plus a complex 3-vector
of Pauli coefficients, so products, adjoints and exponentials stay in
closed form and unitarity is structural rather than numerical.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
NORM_TOL = 1e-12


class NonHermitianError(ValueError):
    """An operator that must be Hermitian has complex structure where it may not."""


@dataclass(frozen=True, slots=True)
class Vec3:
    """Real 3-vector. Fields must be finite."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise ValueError("Vec3 components must be finite")

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def __mul__(self, k: float) -> "Vec3":
        return Vec3(self.x * k, self.y * k, self.z * k)

    __rmul__ = __mul__

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm(self) -> float:
        return math.sqrt(self.dot(self))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


ZERO_VEC = Vec3(0.0, 0.0, 0.0)


@dataclass(frozen=True, slots=True)
class Spinor:
    """Normalized two-component state; ``up``/``down`` are the sigma_z eigenbasis
    amplitudes.

    Construction enforces |up|^2 + |down|^2 = 1 within 1e-12.
    """

    up: complex
    down: complex

    def __post_init__(self):
        n = abs(self.up) ** 2 + abs(self.down) ** 2
        if not math.isfinite(n) or abs(n - 1.0) > NORM_TOL:
            raise ValueError(f"spinor norm^2 = {n!r}, must be 1 within {NORM_TOL}")

    @staticmethod
    def plus() -> "Spinor":
        return Spinor(1.0 + 0j, 0j)

    @staticmethod
    def minus() -> "Spinor":
        return Spinor(0j, 1.0 + 0j)

    @staticmethod
    def superposition(c: float, phase: float) -> "Spinor":
        """State c|+> + sqrt(1-c^2) e^{i phase} |->, with c in [0, 1]."""
        if not 0.0 <= c <= 1.0:
            raise ValueError(f"mixing coefficient c = {c!r} outside [0, 1]")
        return Spinor(complex(c), math.sqrt(1.0 - c * c) * cmath.exp(1j * phase))

    def bloch(self) -> Vec3:
        """Expectation values (<sx>, <sy>, <sz>)."""
        cross = self.up.conjugate() * self.down
        return Vec3(2.0 * cross.real, 2.0 * cross.imag, abs(self.up) ** 2 - abs(self.down) ** 2)


@dataclass(frozen=True, slots=True)
class PauliOperator:
    """Operator s*I + vx*sx + vy*sy + vz*sz with complex coefficients."""

    s: complex
    vx: complex
    vy: complex
    vz: complex

    @staticmethod
    def hermitian(s: float, v: Vec3) -> "PauliOperator":
        """Hermitian operator from a real scalar and a real Pauli vector."""
        return PauliOperator(complex(s), complex(v.x), complex(v.y), complex(v.z))

    def __add__(self, other: "PauliOperator") -> "PauliOperator":
        return PauliOperator(self.s + other.s, self.vx + other.vx, self.vy + other.vy, self.vz + other.vz)

    def __sub__(self, other: "PauliOperator") -> "PauliOperator":
        return PauliOperator(self.s - other.s, self.vx - other.vx, self.vy - other.vy, self.vz - other.vz)

    def __neg__(self) -> "PauliOperator":
        return PauliOperator(-self.s, -self.vx, -self.vy, -self.vz)

    def __mul__(self, k: complex) -> "PauliOperator":
        return PauliOperator(self.s * k, self.vx * k, self.vy * k, self.vz * k)

    __rmul__ = __mul__

    def __matmul__(self, other: "PauliOperator") -> "PauliOperator":
        # (s1 + v1.s)(s2 + v2.s) = s1 s2 + v1.v2 + (s1 v2 + s2 v1 + i v1 x v2).s
        s1, x1, y1, z1 = self.s, self.vx, self.vy, self.vz
        s2, x2, y2, z2 = other.s, other.vx, other.vy, other.vz
        return PauliOperator(
            s1 * s2 + x1 * x2 + y1 * y2 + z1 * z2,
            s1 * x2 + s2 * x1 + 1j * (y1 * z2 - z1 * y2),
            s1 * y2 + s2 * y1 + 1j * (z1 * x2 - x1 * z2),
            s1 * z2 + s2 * z1 + 1j * (x1 * y2 - y1 * x2),
        )

    def adjoint(self) -> "PauliOperator":
        return PauliOperator(
            self.s.conjugate(), self.vx.conjugate(), self.vy.conjugate(), self.vz.conjugate()
        )

    def to_matrix(self) -> np.ndarray:
        return np.array(
            [
                [self.s + self.vz, self.vx - 1j * self.vy],
                [self.vx + 1j * self.vy, self.s - self.vz],
            ],
            dtype=complex,
        )

    def max_abs(self) -> float:
        """Largest matrix-entry magnitude; the norm used by the operator invariants."""
        return max(
            abs(self.s + self.vz),
            abs(self.s - self.vz),
            abs(self.vx - 1j * self.vy),
            abs(self.vx + 1j * self.vy),
        )

    def is_hermitian(self, tol: float = HERMITICITY_TOL) -> bool:
        return (
            abs(self.s.imag) <= tol
            and abs(self.vx.imag) <= tol
            and abs(self.vy.imag) <= tol
            and abs(self.vz.imag) <= tol
        )

    def real_vector(self, tol: float = HERMITICITY_TOL) -> Vec3:
        """Pauli vector of a Hermitian operator as a real Vec3."""
        if not self.is_hermitian(tol):
            raise NonHermitianError(f"operator has imaginary structure beyond {tol}")
        return Vec3(self.vx.real, self.vy.real, self.vz.real)

    def apply(self, psi: Spinor) -> Spinor:
        """Apply to a state. Intended for unitaries; the result re-validates its norm."""
        up = (self.s + self.vz) * psi.up + (self.vx - 1j * self.vy) * psi.down
        down = (self.vx + 1j * self.vy) * psi.up + (self.s - self.vz) * psi.down
        return Spinor(up, down)


IDENTITY = PauliOperator(1.0 + 0j, 0j, 0j, 0j)
ZERO_OP = PauliOperator(0j, 0j, 0j, 0j)
SIGMA_X = PauliOperator(0j, 1.0 + 0j, 0j, 0j)
SIGMA_Y = PauliOperator(0j, 0j, 1.0 + 0j, 0j)
SIGMA_Z = PauliOperator(0j, 0j, 0j, 1.0 + 0j)


def pauli_exponential(h: PauliOperator, t: float) -> PauliOperator:
    """exp(-i t h) for Hermitian h = s*I + v.sigma.

    Closed form e^{-i s t}[cos(|v| t) I - i sin(|v| t) (v/|v|).sigma];
    the |v| = 0 case returns the bare phase so no 0/0 path exists.
    """
    if not h.is_hermitian():
        raise NonHermitianError("pauli_exponential requires a Hermitian generator")
    s = h.s.real
    wx, wy, wz = h.vx.real, h.vy.real, h.vz.real
    vnorm = math.sqrt(wx * wx + wy * wy + wz * wz)
    phase = cmath.exp(-1j * s * t)
    if vnorm == 0.0:
        return PauliOperator(phase, 0j, 0j, 0j)
    ang = vnorm * t
    f = phase * (-1j * math.sin(ang) / vnorm)
    return PauliOperator(phase * math.cos(ang), f * wx, f * wy, f * wz)

