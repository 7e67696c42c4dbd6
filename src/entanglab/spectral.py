"""Empirical spectral distributions against the semicircle law, and the
majorization order with its gauge.

The distance d_inf between laws is the minimal essential-supremum transport
cost. For two n-atom empirical measures the optimal coupling pairs order
statistics. Against a continuous law it is characterized by the two-sided
CDF bracketing
    F_x(t - eps) <= F(t) <= F_x(t + eps)  for all t,
which only needs to be verified where the empirical CDF jumps; we bisect on
eps with that finite test.

Majorization x < y compares partial sums of non-increasing rearrangements;
delta(x, y) is the smallest c with x < c y, i.e. the gauge of the convex
hull of coordinate permutations of y. For nonzero trace-zero y every proper
partial sum of y's rearrangement is strictly positive, so delta is the
largest partial-sum ratio.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

__all__ = [
    "semicircle_cdf",
    "semicircle_quantile",
    "semicircle_quantile_vector",
    "dinf_empirical_empirical",
    "dinf_empirical_continuous",
    "dinf_semicircle",
    "majorizes",
    "majorization_gauge",
    "alpha_beta",
]

SEMICIRCLE_SUPPORT = (-2.0, 2.0)


def semicircle_cdf(x):
    """CDF of the standard semicircle law (density sqrt(4-x^2)/(2 pi))."""
    x = np.asarray(x, dtype=float)
    xc = np.clip(x, -2.0, 2.0)
    val = 0.5 + xc * np.sqrt(4.0 - xc * xc) / (4.0 * np.pi) + np.arcsin(xc / 2.0) / np.pi
    val = np.where(x <= -2.0, 0.0, np.where(x >= 2.0, 1.0, val))
    return val if val.ndim else float(val)


def semicircle_quantile(p: float) -> float:
    """Inverse semicircle CDF on (0, 1), by safeguarded root-finding."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile needs 0 < p < 1, got {p}")
    if p == 0.5:
        return 0.0
    if p > 0.5:
        return -semicircle_quantile(1.0 - p)
    return float(brentq(lambda t: semicircle_cdf(t) - p, -2.0, 0.0, xtol=1e-13))


@lru_cache(maxsize=64)
def semicircle_quantile_vector(n: int) -> np.ndarray:
    """Midpoint-quantile discretization of the semicircle law.

    Entry k (1-based) is the quantile at (2k-1)/(2n); the vector is
    antisymmetric, hence sums to zero exactly. Memoized per n, so the
    returned array is read-only.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    half = [semicircle_quantile((2 * k - 1) / (2 * n)) for k in range(1, n // 2 + 1)]
    mid = [0.0] if n % 2 else []
    vec = np.array(half + mid + [-q for q in reversed(half)])
    vec = vec - vec.sum() / n
    vec.flags.writeable = False
    return vec


def dinf_empirical_empirical(x: np.ndarray, y: np.ndarray) -> float:
    """d_inf between two empirical measures with equally many atoms."""
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    if x.shape != y.shape:
        raise ValueError("equal atom counts required")
    return float(np.max(np.abs(x - y)))


def dinf_empirical_continuous(atoms, cdf, support, tol: float = 1e-8) -> float:
    """d_inf between an empirical measure and a continuous law.

    `cdf` must be vectorized, continuous and strictly increasing on the
    interval `support`. Bisects on eps, checking the CDF bracketing at the
    atom locations shifted by +-eps (the only places the empirical CDF
    jumps; support endpoints are covered by the extreme atoms).
    """
    lo_sup, hi_sup = float(support[0]), float(support[1])
    atoms = np.sort(np.asarray(atoms, dtype=float))
    n = atoms.size
    vals, counts = np.unique(atoms, return_counts=True)
    frac_le = np.cumsum(counts) / n
    frac_lt = frac_le - counts / n

    def bracketing_holds(eps: float) -> bool:
        if np.any(cdf(vals + eps) < frac_le):
            return False
        return not np.any(cdf(vals - eps) > frac_lt)

    hi = max(hi_sup - vals[0], vals[-1] - lo_sup, 0.0) + 1e-12
    lo = 0.0
    if bracketing_holds(lo):
        return 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if bracketing_holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def dinf_semicircle(atoms, tol: float = 1e-8) -> float:
    """d_inf between an empirical spectrum and the semicircle law."""
    return dinf_empirical_continuous(atoms, semicircle_cdf, SEMICIRCLE_SUPPORT, tol=tol)


def _checked_trace_zero(v: np.ndarray, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    scale = np.max(np.abs(v)) if v.size else 0.0
    if abs(v.sum()) > 1e-10 * (1.0 + scale):
        raise ValueError(f"{name} is not trace-zero (sum = {v.sum()})")
    return v - v.sum() / v.size


def majorizes(x, y, tol: float = 1e-12) -> bool:
    """True iff x < y: every partial sum of x's non-increasing rearrangement
    is dominated by y's."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("length mismatch")
    sx = np.cumsum(np.sort(x)[::-1])
    sy = np.cumsum(np.sort(y)[::-1])
    scale = 1.0 + max(np.max(np.abs(sx), initial=0.0), np.max(np.abs(sy), initial=0.0))
    return bool(np.all(sx <= sy + tol * scale))


def majorization_gauge(x, y) -> float:
    """Smallest c >= 0 with x < c y, for trace-zero x and nonzero trace-zero y."""
    x = _checked_trace_zero(x, "x")
    y = _checked_trace_zero(y, "y")
    if x.shape != y.shape:
        raise ValueError("length mismatch")
    if not np.any(y):
        raise ValueError("y must be nonzero")
    if not np.any(x):
        return 0.0
    n = x.size
    sx = np.cumsum(np.sort(x)[::-1])[: n - 1]
    sy = np.cumsum(np.sort(y)[::-1])[: n - 1]
    # proper partial sums of a nonzero trace-zero rearrangement are > 0
    return float(np.max(sx / sy))


def alpha_beta(values) -> tuple[float, float]:
    """Two-sided majorization gauges between a rescaled spectrum and the
    semicircle quantile vector of the same length.

    The caller supplies the already-rescaled spectrum (G/sqrt(n) for GUE-type
    draws, sqrt(ns)(rho - Id/n) spectra for induced states). Always
    alpha * beta >= 1, with both approaching 1 as the spectrum approaches
    the semicircle law.
    """
    values = np.asarray(values, dtype=float)
    ref = semicircle_quantile_vector(values.size)
    return majorization_gauge(values, ref), majorization_gauge(ref, values)
