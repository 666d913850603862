"""The benchmark harness's self-checks still pass against the current src/.

perfbench/selfcheck.py pins what the tracer relies on in the program: the
commutator_space call count of an invariants op (1 + report rows, +1 for
the form fallback) and the GF.matmul binding on the class.  It is run as
is, in a subprocess, and only read.
"""
from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selfcheck_passes():
    proc = subprocess.run([sys.executable, "-B", os.path.join("perfbench", "selfcheck.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("0 failed")
