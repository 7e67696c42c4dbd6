"""Reference implementations shared by several test files."""

import itertools
import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import entanglab
import entanglab.rng
from entanglab.linalg import hermitize, hs_norm
from entanglab.rng import as_generator
from entanglab.separability import _contracted_factor, gauge_states


def child_env() -> dict:
    """Environment for a child Python that imports this checkout's entanglab."""
    src = str(Path(entanglab.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


@pytest.fixture
def generators_built(monkeypatch):
    """The names of the generator builders called while a test runs:
    `rng.trial_generators` and `SeededStream.generator`, each still run."""
    built = []

    def spy(owner, name):
        f = getattr(owner, name)

        def recorded(*args, **kwargs):
            built.append(name)
            return f(*args, **kwargs)

        monkeypatch.setattr(owner, name, recorded)

    spy(entanglab.rng, "trial_generators")
    spy(entanglab.rng.SeededStream, "generator")
    return built


def chunk_trials(monkeypatch, n, trials):
    """Make `rng._chunks` run `trials` n x n trials per chunk: the budget of
    that many trials at the per-trial byte count it sizes chunks by."""
    monkeypatch.setattr(entanglab.rng, "_CHUNK_BYTES", trials * entanglab.rng._trial_bytes(n))


def traced_peak(f):
    """f()'s result and the peak bytes traced while it ran, beyond those
    traced before the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = f()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def pt_index_permutation(H, dims):
    """Second-factor partial transpose by relabeling entries: the entry at
    row (i, j), column (k, l) moves to row (i, l), column (k, j)."""
    d1, d2 = dims.factors
    out = np.empty_like(H)
    for i, j, k, l in itertools.product(range(d1), range(d2), range(d1), range(d2)):
        out[i * d2 + l, k * d2 + j] = H[i * d2 + j, k * d2 + l]
    return out


def separable_bisection_gauge_oracle(A, dims, rel_tol=1e-12):
    """Independent oracle at 2x2 / 2x3, where separable means PPT: bisect on
    the smallest t with Id/n + A/t PSD and PPT. Bracket: the all-states
    gauge from below, the inradius bound sqrt(n(n-1)) |A| from above."""
    n = dims.n
    if hs_norm(A) == 0:
        return 0.0

    def member(t):
        sigma = np.eye(n) / n + A / t
        return (
            np.linalg.eigvalsh(sigma)[0] >= -1e-11
            and np.linalg.eigvalsh(pt_index_permutation(sigma, dims))[0] >= -1e-11
        )

    lo, hi = gauge_states(A), math.sqrt(n * (n - 1)) * hs_norm(A)
    if member(lo):
        return lo
    while hi - lo > rel_tol * hi:
        mid = (lo + hi) / 2
        if member(mid):
            hi = mid
        else:
            lo = mid
    return hi


def support_separable_loop(A, dims, restarts, tol, max_sweeps, stream):
    """The product-state support maximization one restart at a time: the
    same starts, sweeps and stopping rule as `support_separable`, with each
    contracted factor hermitized before its eigensolve. Returns the best
    restart's last sweep value."""
    rng = as_generator(stream)
    T = A.reshape(dims.factors + dims.factors)
    best_val = -np.inf
    for _ in range(restarts):
        psis = []
        for d in dims.factors:
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            psis.append(v / np.linalg.norm(v))
        prev = -np.inf
        for _ in range(max_sweeps):
            for j in range(dims.k):
                w, vecs = np.linalg.eigh(hermitize(_contracted_factor(T, psis, j)))
                val, psis[j] = w[-1], vecs[:, -1]
            if val - prev < tol:
                break
            prev = val
        best_val = max(best_val, val)
    return best_val
