"""Reference implementations shared by several test files."""

import itertools
import math
import os
from pathlib import Path

import numpy as np

import entanglab
from entanglab.linalg import hs_norm
from entanglab.separability import gauge_states


def child_env() -> dict:
    """Environment for a child Python that imports this checkout's entanglab."""
    src = str(Path(entanglab.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


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
