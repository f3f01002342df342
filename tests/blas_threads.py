"""Run a Python script in child processes under different BLAS thread counts."""

import os
import subprocess
import sys
from pathlib import Path


def stdout_under_1_and_2_blas_threads(script):
    """The output of a child Python running ``script`` with one and with
    two BLAS threads."""
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        outputs.append(subprocess.run([sys.executable, "-c", script], env=env,
                                      check=True, capture_output=True,
                                      text=True).stdout)
    return outputs
