"""Spin-1/2 dynamics under a gyrating field with a fast longitudinal drive.

Closed-form propagators (bare, period-averaged, and slow-time corrected),
special-function support, a stroboscopic Floquet engine for the exact
dynamics, and figure-data tooling. All frequencies are ratios to the
gyration frequency.
"""

__version__ = "0.1.0"

from .analytic import (
    EffectiveQuantities,
    MethodId,
    ResonantBranchError,
    amplitude_closed,
    effective_quantities,
    eta,
    expect_sz_closed,
    gamma1,
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
    hamiltonian_transformed,
    initial_gauge_factor,
    theta,
)
from .numeric import (
    InsufficientSpanError,
    StiffnessError,
    SweepPointError,
    SweepResult,
    TimeSeries,
    evolve_floquet,
    extract_amplitude,
    hf_average,
    resonance_sweep,
)
from .special import (
    bessel_j0,
    bessel_j0_zero,
    bessel_j1,
    struve_h0,
)
from .su2 import (
    NonHermitianError,
    PauliOperator,
    Spinor,
    Vec3,
    pauli_exponential,
)

__all__ = [
    "__version__",
    "DriveParams", "theta", "hamiltonian_transformed",
    "gauge_factor", "initial_gauge_factor",
    "MethodId", "EffectiveQuantities", "effective_quantities",
    "ResonantBranchError",
    "omega0", "omega_eff", "omega_ms", "h_eff", "ms_hamiltonian",
    "gamma1", "gamma2", "eta",
    "propagator", "expect_sz_closed", "amplitude_closed", "slow_initial_state",
    "TimeSeries", "SweepResult", "evolve_floquet", "hf_average",
    "extract_amplitude", "resonance_sweep",
    "StiffnessError", "InsufficientSpanError", "SweepPointError",
    "bessel_j0", "bessel_j1", "bessel_j0_zero", "struve_h0",
    "Vec3", "Spinor", "PauliOperator",
    "pauli_exponential",
    "NonHermitianError",
]
