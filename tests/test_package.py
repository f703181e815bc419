import os
import subprocess
import sys

import spinhf


def test_every_exported_name_resolves():
    missing = [name for name in spinhf.__all__ if not hasattr(spinhf, name)]
    assert missing == []


def test_cli_import_leaves_scipy_out():
    # scipy is never a runtime dependency; a fresh interpreter shows what
    # importing the CLI pulls in
    src = os.path.dirname(os.path.dirname(os.path.abspath(spinhf.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, spinhf.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"
