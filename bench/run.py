"""End-to-end benchmark of the entanglab CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the code under test is `src/`, put on
PYTHONPATH; nothing is installed). Each measured unit is one fresh CLI
invocation in a child process (bench/child.py), single-threaded BLAS, with
ENTANGLAB_SEED and ENTANGLAB_THREADS scrubbed. Invocations repeat at the same
seed until S seconds are used (at least MIN_INVOCATIONS); a closed loop, one
client. Every output is checked: the first one against the workload's oracle
(bench/workloads.py), every later one for byte identity with the first.

--trace 0 reports the end-to-end metrics, each the median over the run's
invocations (quartiles and sample count are printed above the result).
--trace 1 alternates untraced and traced invocations and reports per-layer
self times and counts from the traced ones (bench/tracer.py), the import
breakdown from `python -X importtime`, and the tracing overhead.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
`failed` counts invocations whose exit status or output check failed, so
failed / attempted is the run's failed fraction.

The benchmark's own tests: python3 -m pytest bench/selftest.py -q
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_VARS)  # also for the oracles' numpy in this process

import numpy as np  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".bench_build" / "bench"
MIN_INVOCATIONS = 3
MIN_TRACED_PAIRS = 2
# A hung or very slow program still ends the run well inside 180 s.
CHILD_TIMEOUT_S = 40.0
STOP_STARTING_S = 90.0
SCRUBBED = ("ENTANGLAB_SEED", "ENTANGLAB_THREADS", "PYTHONPATH")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "trials_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer self times: metric -> span name (bench/tracer.py).
SELF_TIMES = {
    "rng.generator_s": "rng.generator",
    "ensembles.ginibre_s": "ensembles.ginibre",
    "ensembles.gue_s": "ensembles.gue",
    "ensembles.induced_self_s": "ensembles.induced",
    "ensembles.validate_s": "ensembles.validate",
    "linalg.eigensolve_s": "linalg.eigensolve",
    "linalg.partial_transpose_s": "linalg.partial_transpose",
    "separability.min_pt_s": "separability.min_pt",
    "separability.gauge_separable_s": "separability.gauge_separable",
    "spectral.dinf_s": "spectral.dinf",
    "spectral.alpha_beta_s": "spectral.alpha_beta",
    "spectral.quantile_s": "spectral.quantile",
    "spectral.cdf_s": "spectral.cdf",
    "widths.threshold_estimate_self_s": "widths.threshold_estimate",
    "experiments.scan_point_self_s": "experiments.scan_point",
    "experiments.spectral_rows_self_s": "experiments.spectral_rows",
    "io.write_csv_s": "io.write_csv",
    "io.sidecar_s": "io.sidecar",
    "config.from_dict_s": "config.from_dict",
    "cli.self_s": "cli",
}
# Call counts: metric -> span name; each is also reported per trial.
CALLS = {
    "rng.generator_calls": "rng.generator",
    "ensembles.validate_calls": "ensembles.validate",
    "linalg.eigensolves": "linalg.eigensolve",
    "linalg.partial_transpose_calls": "linalg.partial_transpose",
    "spectral.quantile_calls": "spectral.quantile",
    "spectral.cdf_calls": "spectral.cdf",
}
IMPORTS = {"setup.import_numpy_s": "numpy", "setup.import_scipy_s": "scipy",
           "setup.import_entanglab_s": "entanglab"}

PER_LAYER = {
    **{k: "s" for k in SELF_TIMES},
    **{k: "count" for k in CALLS},
    **{k + "_per_trial": "count/trial" for k in CALLS},
    "separability.membership_evals": "count",
    "separability.evals_per_gauge": "count/gauge",
    "io.csv_bytes": "bytes",
    **{k: "s" for k in IMPORTS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    env.update(THREAD_VARS, PYTHONPATH=str(SRC))
    return env


def run_child(args: list[str], stderr_path: Path) -> tuple[int, float, object]:
    """Run `python3 <args>`; return exit code, wall seconds and rusage.

    `args` may contain "{spawn_ns}", replaced by the monotonic clock reading
    taken just before the process starts.
    """
    with open(stderr_path, "wb") as err:
        spawn_ns = time.monotonic_ns()
        cmd = [sys.executable] + [a.replace("{spawn_ns}", str(spawn_ns)) for a in args]
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall_s = (time.monotonic_ns() - spawn_ns) / 1e9
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall_s, usage


class Invocation:
    """One CLI invocation: its measurements, output bytes and spans."""

    def __init__(self, workload, seed: int, out_dir: Path, trace: bool):
        out_dir.mkdir(parents=True)
        result = out_dir / "child.json"
        status, self.wall_s, usage = run_child(
            [str(CHILD), str(result), "1" if trace else "0", "{spawn_ns}", *workload.argv(seed, out_dir)],
            out_dir / "stderr.txt",
        )
        self.trace = trace
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # kilobytes on Linux
        self.problems: list[str] = []
        self.output = out_dir / workload.out_name
        self.spans = result.with_suffix(".npz") if trace else None
        if status != 0 or not result.exists():
            tail = (out_dir / "stderr.txt").read_text(errors="replace")[-400:]
            self.problems.append(f"exit status {status}: {tail.strip()}")
            return
        timing = json.loads(result.read_text())
        self.setup_s = timing["setup_s"]
        self.trials_per_s = workload.trials / timing["run_s"]
        if not Path(timing["entanglab_file"]).resolve().is_relative_to(SRC):
            self.problems.append(f"benchmarked {timing['entanglab_file']}, not the checkout's src/")
        self.data = self.output.read_bytes() if self.output.exists() else b""

    @property
    def ok(self) -> bool:
        return not self.problems


def self_times(spans_path: Path) -> tuple[dict, Counter, Counter]:
    """Per span name: total self time, call count; plus the recorded counters.

    A span's self time is its duration minus the durations of its direct
    children; children never overlap, so the self times of all spans sum to
    the duration of the root spans.
    """
    with np.load(spans_path) as z:
        meta = json.loads(str(z["meta"]))
        name_id, parent = z["name_id"], z["parent"]
        dur = z["end"] - z["start"]
    nested = parent >= 0
    own = dur - np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    names = meta["names"]
    totals = np.bincount(name_id, weights=own, minlength=len(names))
    calls = np.bincount(name_id, minlength=len(names))
    return (
        {n: float(totals[i]) for i, n in enumerate(names)},
        Counter({n: int(calls[i]) for i, n in enumerate(names)}),
        Counter(meta["counts"]),
    )


def import_breakdown(out_dir: Path) -> dict[str, float]:
    """Self import seconds per top-level package, from `python -X importtime`."""
    err = out_dir / "importtime.txt"
    status, _, _ = run_child(["-X", "importtime", "-c", "import entanglab.cli"], err)
    if status != 0:
        raise RuntimeError(f"import entanglab.cli failed: {err.read_text()[-400:]}")
    totals: Counter = Counter()
    for m in re.finditer(r"^import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)$", err.read_text(), re.M):
        totals[m.group(2).split(".")[0]] += int(m.group(1)) / 1e6
    return dict(totals)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    if Path("/proc/cpuinfo").exists():
        found = re.search(r"^model name\s*:\s*(.+)$", Path("/proc/cpuinfo").read_text(), re.M)
        cpu = found.group(1) if found else cpu
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": THREAD_VARS,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "commit": commit(),
    }


def commit() -> str:
    """HEAD of the checkout's git repository, if it is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median and first and third quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def measure(workload, seed: int, seconds: float, trace: bool, run_dir: Path) -> list[Invocation]:
    """Invoke the CLI until `seconds` are used; in trace mode as untraced and
    traced pairs."""
    kinds = [False, True] if trace else [False]
    minimum = MIN_TRACED_PAIRS if trace else MIN_INVOCATIONS
    start = time.monotonic()
    done: list[Invocation] = []
    while True:
        for traced in kinds:
            done.append(Invocation(workload, seed, run_dir / f"inv{len(done)}", traced))
        rounds = len(done) // len(kinds)
        per_round = statistics.median(i.wall_s for i in done) * len(kinds)
        elapsed = time.monotonic() - start
        if (rounds >= minimum and elapsed + per_round > seconds) or elapsed > STOP_STARTING_S:
            return done


def check_outputs(workload, seed: int, done: list[Invocation]) -> None:
    """Oracle check on the first output; byte identity for every other one."""
    ref = next((i for i in done if i.ok), None)
    if ref is None:
        return
    try:
        found = workload.problems(ref.output, seed)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        found = [f"output could not be checked: {exc!r}"]
    for inv in done:
        if not inv.ok:
            continue
        if inv.data != ref.data:
            inv.problems.append("output differs from the first invocation at the same seed")
        inv.problems.extend(found)


def end_to_end(done: list[Invocation]) -> tuple[dict, list[str]]:
    ok = [i for i in done if i.ok and not i.trace]
    rows, metrics = [], {}
    for name, unit in END_TO_END.items():
        med, q1, q3 = summary([getattr(i, name) for i in ok])
        metrics[name] = {"value": med, "unit": unit}
        rows.append(f"  {name:<14} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(ok)}")
    return metrics, rows


def per_layer(workload, done: list[Invocation], imports: list[dict]) -> tuple[dict, list[str]]:
    traced = [i for i in done if i.ok and i.trace]
    untraced = [i for i in done if i.ok and not i.trace]
    profiles = [self_times(i.spans) for i in traced]
    first_calls, first_counts = profiles[0][1], profiles[0][2]
    for inv, (_, calls, counts) in zip(traced, profiles):
        if calls != first_calls or counts != first_counts:
            inv.problems.append("span counts differ between traced invocations at one seed")
    values = {m: statistics.median(p[0].get(span, 0.0) for p in profiles) for m, span in SELF_TIMES.items()}
    for m, span in CALLS.items():
        values[m] = first_calls[span]
        values[m + "_per_trial"] = first_calls[span] / workload.trials
    evals = first_counts["separability.membership_evals"]
    gauges = first_calls["separability.gauge_separable"]
    values["separability.membership_evals"] = evals
    values["separability.evals_per_gauge"] = evals / gauges if gauges else 0.0
    values["io.csv_bytes"] = first_counts["io.csv_bytes"]
    for m, package in IMPORTS.items():
        values[m] = statistics.median(b.get(package, 0.0) for b in imports)
    traced_wall = statistics.median(i.wall_s for i in traced)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - statistics.median(i.wall_s for i in untraced)
    rows = [f"  {m:<36} {values[m]:.6g} {unit}" for m, unit in PER_LAYER.items()]
    return {m: {"value": values[m], "unit": unit} for m, unit in PER_LAYER.items()}, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "entanglab" / "cli.py").is_file():
        print(f"error: no entanglab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        # Untimed warm-up: byte-compiles src/ and fills the page cache.
        run_child(["-c", "import entanglab.cli"], run_dir / "warmup.txt")
        imports = [import_breakdown(run_dir) for _ in range(3)] if args.trace else []
        done = measure(workload, args.seed, args.seconds, bool(args.trace), run_dir)
        check_outputs(workload, args.seed, done)
        if not all(any(i.ok for i in done if i.trace == kind) for kind in {False, bool(args.trace)}):
            for inv in done:
                print(f"error: {inv.problems}", file=sys.stderr)
            return 1
        if args.trace:
            metrics, rows = per_layer(workload, done, imports)
        else:
            metrics, rows = end_to_end(done)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(not i.ok for i in done)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(done)} invocations, {failed} failed (failed_frac {failed / len(done):.4f})")
    print(f"  command: entanglab {' '.join(workload.argv(args.seed, Path('OUT')))}")
    for problem in dict.fromkeys(p for inv in done for p in inv.problems):
        print(f"  FAILED: {problem}")
    print("\n".join(rows))
    print("environment " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(done), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
