"""Span recorder for the traced benchmark run.

Spans are recorded by rebinding module attributes in the traced child
process only: every entanglab module (and `numpy.linalg`) that holds one of
the target functions gets a timing wrapper in its place, so names imported
into other modules (`experiments.sample_induced_state`,
`separability.partial_transpose`, ...) are traced too. Nothing in `src/` is
edited. Spans stay in memory and are written once, at exit.

The recorder keeps one stack of open spans, which is only correct in a
single thread; the benchmark scrubs ENTANGLAB_THREADS from the child.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import Counter

# (span name, module, attribute). A dotted attribute is a method on a class.
# Spans of one name may nest (sample_gue0 calls sample_gue); self times of
# nested spans are disjoint, so per-name totals never double count.
TARGETS = [
    ("cli", "entanglab.cli", "main"),
    ("config.from_dict", "entanglab.config", "ExperimentConfig.from_dict"),
    ("experiments.scan_point", "entanglab.experiments", "_scan_point"),
    ("experiments.spectral_rows", "entanglab.experiments", "spectral_rows"),
    ("widths.threshold_estimate", "entanglab.widths", "separability_threshold_estimate"),
    ("widths.threshold_estimate", "entanglab.widths", "ppt_threshold_estimate"),
    ("rng.generator", "entanglab.rng", "SeededStream.generator"),
    ("ensembles.ginibre", "entanglab.ensembles", "sample_ginibre"),
    ("ensembles.gue", "entanglab.ensembles", "sample_gue"),
    ("ensembles.gue", "entanglab.ensembles", "sample_gue0"),
    ("ensembles.induced", "entanglab.ensembles", "sample_induced_state"),
    ("ensembles.validate", "entanglab.ensembles", "DensityMatrix.__post_init__"),
    ("linalg.eigensolve", "numpy.linalg", "eigvalsh"),
    ("linalg.eigensolve", "numpy.linalg", "eigh"),
    ("linalg.partial_transpose", "entanglab.linalg", "partial_transpose"),
    ("separability.min_pt", "entanglab.separability", "min_pt_eigenvalue"),
    ("separability.gauge_separable", "entanglab.separability", "gauge_separable"),
    ("spectral.dinf", "entanglab.spectral", "dinf_semicircle"),
    ("spectral.alpha_beta", "entanglab.spectral", "alpha_beta"),
    ("spectral.quantile", "entanglab.spectral", "semicircle_quantile"),
    ("spectral.cdf", "entanglab.spectral", "semicircle_cdf"),
    ("io.write_csv", "entanglab.io", "write_csv"),
    ("io.sidecar", "entanglab.io", "write_sidecar"),
]


def _membership_evals(args, kwargs, result) -> int:
    return int(result.membership_evals)


def _csv_bytes(args, kwargs, result) -> int:
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


# Counters read from a traced call: (span name, counter name, hook).
COUNTERS = [
    ("separability.gauge_separable", "separability.membership_evals", _membership_evals),
    ("io.write_csv", "io.csv_bytes", _csv_bytes),
]


class Recorder:
    """In-memory spans: name id, parent span index, start and end times."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, count=None):
        nid = self._id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self._stack.pop()
            if count is not None:
                self.counts[count[0]] += count[1](args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every target in every loaded module that holds it."""
        hooks = {span: (counter, hook) for span, counter, hook in COUNTERS}
        holders = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == "entanglab" or k.startswith("entanglab."))
        ]
        for name, module, attr in TARGETS:
            owner = sys.modules.get(module)
            *cls_path, leaf = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            raw = None if owner is None else vars(owner).get(leaf)
            if raw is None:
                self.missing.append(f"{module}.{attr}")
                continue
            if isinstance(raw, classmethod):
                setattr(owner, leaf, classmethod(self.wrap(name, raw.__func__, hooks.get(name))))
                continue
            wrapped = self.wrap(name, raw, hooks.get(name))
            setattr(owner, leaf, wrapped)
            if cls_path:
                continue
            for mod in holders:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapped)

    def dump(self, path: str) -> None:
        import json

        import numpy as np

        meta = {"names": self.names, "counts": dict(self.counts), "missing": self.missing}
        np.savez(
            path,
            name_id=np.asarray(self.name_id, dtype=np.int64),
            parent=np.asarray(self.parent, dtype=np.int64),
            start=np.asarray(self.start, dtype=np.float64),
            end=np.asarray(self.end, dtype=np.float64),
            meta=np.array(json.dumps(meta)),
        )
