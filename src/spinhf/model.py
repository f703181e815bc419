"""Physical model: drive parameters, lab and rotating-frame Hamiltonians.

Everything is in dimensionless units with the rotating-field frequency
as the unit (omega = 1); callers supply frequency ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import su2
from .su2 import PauliOperator, Vec3

TWO_PI = 2.0 * math.pi

_JSON_KEYS = ("omega_perp", "omega_par", "Omega_HF", "r", "phi_hf")


@dataclass(frozen=True, slots=True)
class DriveParams:
    """Field parameters of the driven two-level system.

    omega_perp: rotating-field strength (ratio to the rotation frequency).
    omega_par: static axial field.
    Omega_HF: high-frequency drive frequency, > 0.
    r: HF strength/frequency ratio omega_hf / Omega_HF, >= 0 after
       normalization (a negative r folds into the phase).
    phi_hf: HF phase, reduced to [0, 2 pi).
    """

    omega_perp: float
    omega_par: float
    Omega_HF: float
    r: float = 0.0
    phi_hf: float = 0.0

    def __post_init__(self):
        for name in _JSON_KEYS:
            # -0.0 + 0.0 is +0.0, so equal parameter sets print and cache alike
            object.__setattr__(self, name, getattr(self, name) + 0.0)
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"DriveParams.{name} must be finite")
        if self.Omega_HF <= 0.0 or TWO_PI / self.Omega_HF == math.inf:
            raise ValueError(f"Omega_HF must be > 0 with a finite HF period, got {self.Omega_HF!r}")
        r, phi = self.r, self.phi_hf
        if r < 0.0:
            # -r sin(x + phi) = r sin(x + phi + pi)
            r, phi = -r, phi + math.pi
        if not 0.0 <= phi < TWO_PI:
            phi = math.fmod(phi, TWO_PI)
            if phi < 0.0:
                phi += TWO_PI
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "phi_hf", phi)

    @property
    def epsilon(self) -> float:
        """Expansion parameter 1 / Omega_HF."""
        return 1.0 / self.Omega_HF

    @property
    def omega_hf(self) -> float:
        """HF field strength r * Omega_HF."""
        return self.r * self.Omega_HF

    @property
    def hf_regime_advisory(self) -> bool:
        """True when Omega_HF is NOT comfortably above the slow frequencies.

        The analytical methods are documented as unreliable then;
        computation still proceeds.
        """
        return self.Omega_HF < 10.0 * max(1.0, abs(self.omega_par), abs(self.omega_perp))

    def to_json_dict(self) -> dict:
        return {name: getattr(self, name) for name in _JSON_KEYS}

    @staticmethod
    def from_json_dict(data: dict) -> "DriveParams":
        unknown = set(data) - set(_JSON_KEYS)
        if unknown:
            raise ValueError(f"unknown DriveParams keys: {sorted(unknown)}")
        missing = {"omega_perp", "omega_par", "Omega_HF"} - set(data)
        if missing:
            raise ValueError(f"missing DriveParams keys: {sorted(missing)}")
        return DriveParams(**{k: float(v) for k, v in data.items()})


def theta(t: float, p: DriveParams) -> float:
    """Accumulated HF phase angle r sin(Omega_HF t + phi)."""
    return p.r * math.sin(p.Omega_HF * t + p.phi_hf)


def hamiltonian_lab(t: float, p: DriveParams) -> PauliOperator:
    """Lab-frame Hamiltonian at time t (traceless, Hermitian)."""
    hx = -0.5 * p.omega_perp * math.cos(t)
    hy = -0.5 * p.omega_perp * math.sin(t)
    hz = -0.5 * (p.omega_par + p.omega_hf * math.cos(p.Omega_HF * t + p.phi_hf))
    return PauliOperator.hermitian(0.0, Vec3(hx, hy, hz))


def hamiltonian_transformed(t0: float, p: DriveParams) -> PauliOperator:
    """Rotating-frame Hamiltonian as a function of the fast variable t0 = Omega_HF t.

    Periodic in t0 with period 2 pi; reduces to the static Hamiltonian
    at r = 0.
    """
    th = p.r * math.sin(t0 + p.phi_hf)
    hx = -0.5 * p.omega_perp * math.cos(th)
    hy = -0.5 * p.omega_perp * math.sin(th)
    hz = -0.5 * (1.0 + p.omega_par)
    return PauliOperator.hermitian(0.0, Vec3(hx, hy, hz))


_HALF_SZ = PauliOperator.hermitian(0.0, Vec3(0.0, 0.0, 0.5))


def gauge_factor(t: float, p: DriveParams) -> PauliOperator:
    """Unitary exp(-i [t - theta(t)] sigma_z / 2) relating the two frames.

    The lab propagator is gauge_factor(t) times the rotating-frame one.
    """
    return su2.pauli_exponential(_HALF_SZ, t - theta(t, p))


def initial_gauge_factor(p: DriveParams) -> PauliOperator:
    """Unitary exp(-i theta(0) sigma_z / 2): the rotating-frame state at t = 0."""
    return su2.pauli_exponential(_HALF_SZ, theta(0.0, p))
