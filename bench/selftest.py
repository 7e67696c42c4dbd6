"""Tests of the benchmark itself, at smoke sizes.

    python3 -m pytest bench/selftest.py -q

Not collected by a plain `pytest` run (the file name does not match
test_*.py): every test starts CLI child processes.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS

SMOKE_TRIALS = {"scan-small": 20, "scan-large": 4, "sep-gauge": 50, "spectral": 40}
SEED = 4


def smoke(name: str):
    w = WORKLOADS[name]
    args = list(w.args)
    args[args.index("--trials") + 1] = str(SMOKE_TRIALS[name])
    return dataclasses.replace(w, args=tuple(args))


@pytest.fixture(scope="module")
def work_dir():
    path = run.WORK / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def invocations(work_dir):
    """Per workload: one untraced and two traced smoke invocations."""
    return {
        name: [
            run.Invocation(smoke(name), SEED, work_dir / f"{name}-{k}", trace=traced)
            for k, traced in enumerate((False, True, True))
        ]
        for name in WORKLOADS
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_output_passes_check(invocations, name):
    untraced = invocations[name][0]
    assert untraced.ok, untraced.problems
    assert smoke(name).problems(untraced.output, SEED) == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_output_is_byte_identical(invocations, name):
    untraced, *traced = invocations[name]
    for inv in traced:
        assert inv.ok, inv.problems
        assert inv.data == untraced.data


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_times_fit_in_traced_wall_time(invocations, name):
    for inv in invocations[name][1:]:
        own, _, _ = run.self_times(inv.spans)
        assert all(t >= 0.0 for t in own.values())
        assert sum(own.values()) <= inv.wall_s


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_across_traced_runs(invocations, name):
    first, second = (run.self_times(inv.spans) for inv in invocations[name][1:])
    assert first[1] == second[1]
    assert first[2] == second[2]
    assert first[1]["cli"] == 1


def _rewrite_csv(path: Path, edit) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    path.write_text(buf.getvalue(), encoding="utf-8")


def _corrupted(inv, work_dir, label: str) -> Path:
    dest = work_dir / "corrupt" / label
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(inv.output.parent, dest)
    return dest / inv.output.name


def test_scan_check_catches_a_wrong_count(invocations, work_dir):
    w = smoke("scan-small")
    out = _corrupted(invocations["scan-small"][0], work_dir, "scan")

    def bump(rows):  # one more success, with a consistent p_hat
        trials, k = int(rows[1][1]), int(rows[1][2])
        k = k + 1 if k < trials else k - 1
        rows[1][2], rows[1][3] = str(k), repr(k / trials)
        rows[1][4], rows[1][5] = "0.0", "1.0"

    _rewrite_csv(out, bump)
    problems = w.problems(out, SEED)
    assert any("oracle counts" in p for p in problems), problems


def test_sep_gauge_check_catches_a_shifted_value(invocations, work_dir):
    w = smoke("sep-gauge")
    out = _corrupted(invocations["sep-gauge"][0], work_dir, "gauge")
    got = json.loads(out.read_text())
    got["value"] *= 1.0 + 1e-6
    out.write_text(json.dumps(got))
    assert any("differs from PPT0" in p for p in w.problems(out, SEED))


def _farthest_edge(rows):
    """The row whose largest eigenvalue lies farthest beyond 2."""
    col = rows[0].index("lambda_max")
    row = max(rows[1:], key=lambda r: float(r[col]))
    assert float(row[col]) > 2.0
    return [row]


SPECTRAL_CORRUPTIONS = {  # expected problem -> (column, new value, rows edited)
    "edge bound": ("dinf", lambda v: 0.0, _farthest_edge),
    "alpha * beta": ("alpha", lambda v: 0.5, lambda rows: rows[1:2]),
    "spectrum edges": ("lambda_min", lambda v: v + 1e-6, lambda rows: rows[1:2]),
    "median dinf": ("dinf", lambda v: v + 1.0, lambda rows: rows[1:]),
}


@pytest.mark.parametrize("message", sorted(SPECTRAL_CORRUPTIONS))
def test_spectral_check_catches_corruption(invocations, work_dir, message):
    w = smoke("spectral")
    out = _corrupted(invocations["spectral"][0], work_dir, "spectral")
    column, value, targets = SPECTRAL_CORRUPTIONS[message]

    def edit(rows):
        col = rows[0].index(column)
        for row in targets(rows):
            row[col] = repr(value(float(row[col])))

    _rewrite_csv(out, edit)
    assert any(message in p for p in w.problems(out, SEED))


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_sources(work_dir):
    bare = work_dir / "bare"
    shutil.copytree(run.ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan-small", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
