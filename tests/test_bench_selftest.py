"""The benchmark's own tests, run by the plain suite.

`bench/selftest.py` starts CLI child processes on each workload at smoke
sizes and checks their outputs with the bench's oracles, so a change whose
outputs those oracles reject fails here, before any benchmark run.
"""

import re
import subprocess
import sys
from pathlib import Path

from conftest import child_env

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "bench/selftest.py"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
    # every test ran and passed: none skipped, deselected or in error
    assert re.fullmatch(r"\d+ passed in .*", proc.stdout.strip().splitlines()[-1]), proc.stdout
