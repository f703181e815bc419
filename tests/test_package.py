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
