"""Spin-1/2 dynamics under a gyrating field with a fast longitudinal drive.

Closed-form propagators (bare, period-averaged, and slow-time corrected),
special-function support, a stroboscopic Floquet engine and a direct
Schrodinger integrator for the exact dynamics, and figure-data tooling.
All frequencies are ratios to the gyration frequency.
"""

__version__ = "0.1.0"

from .analytic import (
    EffectiveQuantities,
    InconsistentParametersError,
    MethodId,
    ResonantBranchError,
    amplitude_closed,
    effective_quantities,
    eta,
    expect_sz_closed,
    gamma1,
    gamma1_at_zero,
    gamma2,
    h_eff,
    ms_hamiltonian,
    omega0,
    omega_eff,
    omega_ms,
    propagator,
    slow_initial_state,
)
from .model import (
    DriveParams,
    gauge_factor,
    hamiltonian_lab,
    hamiltonian_transformed,
    initial_gauge_factor,
    theta,
)
from .numeric import (
    InsufficientSpanError,
    IntegratorFailureError,
    StiffnessError,
    SweepPointError,
    SweepResult,
    TimeSeries,
    evolve_floquet,
    extract_amplitude,
    hf_average,
    integrate_schrodinger,
    resonance_sweep,
)
from .special import (
    QuadratureSpec,
    ToleranceNotMetError,
    bessel_j0,
    bessel_j0_zero,
    bessel_j1,
    integrate,
    struve_h0,
)
from .su2 import (
    NonHermitianError,
    NonUnitAxisError,
    PauliOperator,
    Spinor,
    Vec3,
    commutator,
    expect_sz,
    pauli_exponential,
    rotate_vec,
)

__all__ = [
    "__version__",
    "DriveParams", "theta", "hamiltonian_lab", "hamiltonian_transformed",
    "gauge_factor", "initial_gauge_factor",
    "MethodId", "EffectiveQuantities", "effective_quantities",
    "ResonantBranchError", "InconsistentParametersError",
    "omega0", "omega_eff", "omega_ms", "h_eff", "ms_hamiltonian",
    "gamma1", "gamma2", "gamma1_at_zero", "eta",
    "propagator", "expect_sz_closed", "amplitude_closed", "slow_initial_state",
    "TimeSeries", "SweepResult", "evolve_floquet", "integrate_schrodinger", "hf_average",
    "extract_amplitude", "resonance_sweep",
    "IntegratorFailureError", "StiffnessError", "InsufficientSpanError",
    "SweepPointError",
    "QuadratureSpec", "ToleranceNotMetError", "integrate",
    "bessel_j0", "bessel_j1", "bessel_j0_zero", "struve_h0",
    "Vec3", "Spinor", "PauliOperator", "expect_sz", "commutator",
    "pauli_exponential", "rotate_vec",
    "NonHermitianError", "NonUnitAxisError",
]
