"""One timed entanglab CLI invocation, run by bench/run.py in a fresh process.

    python bench/child.py RESULT_JSON TRACE SPAWN_NS CLI_ARG...

Does what the `entanglab` console script does (import entanglab.cli, call
main) and writes RESULT_JSON with the exit status, the set-up time (from
SPAWN_NS, the parent's time.monotonic_ns() just before it started this
process, to the end of `import entanglab.cli`) and the time spent in main.
With TRACE=1 it first installs the span recorder and writes the spans next
to RESULT_JSON, after main has returned.
"""

import json
import sys
import time


def main() -> int:
    result_path, trace, spawn_ns = sys.argv[1], sys.argv[2] == "1", int(sys.argv[3])
    import entanglab.cli

    imported_ns = time.monotonic_ns()
    recorder = None
    if trace:
        from tracer import Recorder

        recorder = Recorder()
        recorder.install()
    start = time.perf_counter()
    status = entanglab.cli.main(sys.argv[4:])
    run_s = time.perf_counter() - start
    if recorder is not None:
        recorder.dump(result_path[: -len(".json")] + ".npz")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "status": status,
                "setup_s": (imported_ns - spawn_ns) / 1e9,
                "run_s": run_s,
                "entanglab_file": entanglab.cli.__file__,
            },
            fh,
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
