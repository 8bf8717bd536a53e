"""scipy's slow subpackages load where they are used, not on import.

``flow`` imports ``scipy.linalg`` and ``scipy.spatial`` inside the
functions that solve and query, ``tangent`` and ``ParametricBarrier`` do
the same for ``scipy.spatial`` and ``scipy.interpolate``, and
``regularize`` for ``scipy.integrate``; so importing the package, or the
acceptance suite that imports every module, costs numpy and fbmcf alone.
A fresh interpreter is needed: this test session has loaded them all.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
LAZY = ("scipy.integrate", "scipy.interpolate", "scipy.spatial",
        "scipy.linalg")


def test_importing_fbmcf_loads_no_slow_scipy_subpackage():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys, fbmcf, fbmcf.regularize, fbmcf.acceptance\n"
            f"print(' '.join(m for m in {LAZY!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []
