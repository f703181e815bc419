import os
import subprocess
import sys

import spinhf


def test_every_exported_name_resolves():
    missing = [name for name in spinhf.__all__ if not hasattr(spinhf, name)]
    assert missing == []


def _fresh(code: str) -> str:
    # run code in a fresh interpreter and return what it prints
    src = os.path.dirname(os.path.dirname(os.path.abspath(spinhf.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return out.stdout.strip()


def _fresh_modules(code: str, prefixes: tuple[str, ...]) -> str:
    # run code in a fresh interpreter and list the loaded modules under prefixes
    return _fresh(code + f"; print(sorted(m for m in sys.modules if m.startswith({prefixes!r})))")


def test_cli_import_leaves_scipy_out():
    # scipy is never a runtime dependency; a fresh interpreter shows what
    # importing the CLI pulls in
    assert _fresh_modules("import sys, spinhf.cli", ("scipy",)) == "[]"


def test_slow_constants_leave_scipy_and_numpy_polynomial_out():
    # the Gauss-Legendre nodes come from the Legendre recurrence, not from
    # numpy.polynomial (leggauss) or a LAPACK eigensolver, which cost
    # megabytes of peak RSS per process
    code = (
        "import sys; from spinhf import DriveParams, effective_quantities, gamma1; gamma1(1.0); "
        "effective_quantities(DriveParams(omega_perp=3.0, omega_par=0.3, Omega_HF=50.0, r=8.7, phi_hf=0.9))"
    )
    assert _fresh_modules(code, ("scipy", "numpy.polynomial")) == "[]"


def test_cli_import_builds_no_gauss_rule():
    # the gamma pair's rule records and their nodes are built at the first
    # gamma miss, so importing the CLI does no array work for them
    code = (
        "import spinhf.cli; from spinhf import analytic, special; "
        "print(analytic._gauss_rule.cache_info().currsize, special.gauss_legendre.cache_info().currsize)"
    )
    assert _fresh(code) == "0 0"


def test_public_api_is_pinned():
    # the runtime API: the engine, the closed forms and their types; the
    # oracles live beside the tests (tests/oracles.py)
    assert spinhf.__all__ == [
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


# names that moved to tests/oracles.py or were deleted, per runtime module
_GONE = {
    "numeric": (
        "integrate_schrodinger", "IntegratorFailureError", "_rhs_lab", "_A21", "_E1",
        "_RENORM_THRESHOLD", "_NORM_FAILURE",
    ),
    "special": (
        "integrate", "_gk15", "_XGK", "_WGK", "_WG", "CumulativeIntegral", "QuadratureSpec",
        "DEFAULT_QUADRATURE", "ToleranceNotMetError", "_MAX_PANELS", "_CUMULATIVE_PANELS",
    ),
    "model": ("hamiltonian_lab",),
    "su2": ("commutator", "rotate_vec", "NonUnitAxisError", "UNIT_AXIS_TOL", "expect_sz", "EX", "EY", "EZ"),
    "analytic": ("_quadrature_gamma_pair", "gamma1_at_zero"),
}


def test_cli_import_leaves_oracles_out():
    # a fresh `import spinhf.cli` loads no oracle: the runtime modules hold
    # none of the moved or deleted names, and nothing imports tests/oracles.py
    code = (
        "import sys, spinhf.cli; from spinhf import analytic, model, numeric, special, su2; "
        f"gone = {_GONE!r}; "
        "print(sorted(f'{m}.{n}' for m, names in gone.items() for n in names "
        "if hasattr(sys.modules['spinhf.' + m], n)), "
        "hasattr(su2.PauliOperator, 'expectation'), "
        "sorted(numeric.TimeSeries.__dataclass_fields__), 'oracles' in sys.modules)"
    )
    assert _fresh(code) == "[] False ['method', 'params', 'times', 'values'] False"


def test_sweep_result_holds_no_output_format():
    # the CLI writes every table; numeric returns data only
    assert not hasattr(spinhf.SweepResult, "to_csv")
    assert not hasattr(spinhf.SweepResult, "to_json_dict")


def test_gamma_choke_point_takes_a_second_argument():
    # perfbench/tracer.py wraps analytic._gamma_pair and calls it as (r, None)
    from spinhf import analytic

    assert analytic._gamma_pair(1.0, None) == analytic._gamma_pair(1.0) == (spinhf.gamma1(1.0), spinhf.gamma2(1.0))
