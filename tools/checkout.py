"""The checkout a tool runs by default, and the environment of its runs.

The tools import this module by name: a script's own directory is on
sys.path when it runs, and `pyproject.toml` puts tools/ on the tests' path.
"""

from __future__ import annotations

import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_env(root: Path) -> dict[str, str]:
    """The environment of every run: the checkout's src/ and bench/ as the
    whole PYTHONPATH, BLAS at one thread. The caller's PYTHONPATH is not
    kept, so a package missing from the checkout is an error, not another
    checkout's copy."""
    path = os.pathsep.join([str(root / "src"), str(root / "bench")])
    return {**os.environ, **BLAS_ENV, "PYTHONPATH": path}
