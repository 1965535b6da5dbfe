"""Package-level properties: what importing tankmpc pulls in."""

import subprocess
import sys
from pathlib import Path

import tankmpc


def test_import_loads_no_scipy():
    """scipy is a test dependency only; the package runs on numpy alone."""
    src = str(Path(tankmpc.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import tankmpc, tankmpc.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         timeout=60, check=True)
    assert out.stdout.strip() == "[]"
