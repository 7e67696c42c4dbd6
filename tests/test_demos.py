"""Every demo runs to completion in a child process where SciPy cannot be
imported: the demos use only the package's own runtime dependencies."""

import subprocess
import sys
from pathlib import Path

import pytest
from conftest import child_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

RUN_WITHOUT_SCIPY = """
import runpy, sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now raises ImportError
runpy.run_path(sys.argv[1], run_name="__main__")
"""


def test_all_five_demos_are_collected():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_without_scipy(demo, tmp_path):
    proc = subprocess.run([sys.executable, "-c", RUN_WITHOUT_SCIPY, str(demo)], cwd=tmp_path,
                          env=child_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
