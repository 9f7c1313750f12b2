"""The benchmark's self-test runs against this checkout.

perfbench hooks cli.build_export, cli.render and the verify suites by name,
so a renamed hook or a changed signature fails here, in the unit tests,
rather than only when the benchmark runs.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_self_test_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--self-test"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-test: 23/23 passed" in proc.stdout
    assert not os.path.exists(os.path.join(ROOT, ".perfbench_out", "selftest"))
