"""Monte-Carlo mean widths, the width-duality lower bound, the
symmetrized-volume check, and the separability/PPT threshold estimates.

Gaussian mean width of a body K is w_G(K) = E h_K(G) for a standard Gaussian
direction G in the ambient space; dividing by the Gaussian norm constant
gamma_m gives the spherical mean width. For bodies of traceless self-adjoint
matrices the standard Gaussian direction is exactly a trace-zero GUE draw.

Widths of the separable body are reported as certified lower bounds: the
product-state maximization that evaluates its support function is a
heuristic that can stop below the optimum, never above it.

Every estimate reduces a chunk of directions at a time, as each is drawn:
the means into `stats`' exact sums, the hit-or-miss volume check's count
into an int.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ensembles import _gue0_states
from .geometry import gamma_m
from .linalg import ProductDims, _make_traceless, partial_transpose
from .rng import SeededStream, _as_stream, _batch_size, _chunks
from .separability import (
    _MAX_SWEEPS,
    UnsupportedDimensionError,
    _body_gauge,
    _product_starts,
    _require_exact_dims,
    _require_support,
    _support_stack,
)
from .stats import Estimate, _Sums

__all__ = [
    "SupportOracle",
    "WidthEstimate",
    "DualityCheck",
    "SymmetrizationResult",
    "PPTThresholdResult",
    "gaussian_mean_width_mc",
    "separable_width",
    "width_duality_check",
    "mc_intersection_ratio",
    "symmetrization_volume_ratio",
    "separability_threshold_estimate",
    "ppt_threshold_estimate",
]


@dataclass(frozen=True)
class SupportOracle:
    """Support-function evaluator of a convex body in R^dim: `support` maps a
    direction to h_K(direction), positively homogeneous with h_K(0) = 0."""

    dim: int
    support: Callable[[np.ndarray], float]


@dataclass(frozen=True)
class WidthEstimate:
    """Gaussian mean width estimate; `width` is the spherical version."""

    value: float
    width: float
    stderr: float
    trials: int
    failures: int = 0
    lower_bound: bool = False
    seed: str = ""


def gaussian_mean_width_mc(oracle: SupportOracle, trials: int, stream) -> WidthEstimate:
    """Sample mean of h_K over standard Gaussian directions; a NaN support
    value counts as a failed evaluation."""
    gm = gamma_m(oracle.dim)
    # one direction at a time: a chunk holds only generators and values, as at n = 1
    sums = _Sums(vals[~np.isnan(vals)] for vals in _chunks(
        lambda gens: np.array([oracle.support(rng.standard_normal(oracle.dim)) for rng in gens],
                              float), stream, trials, 1))
    if sums.n == 0:
        raise RuntimeError("all support evaluations failed")
    est = sums.estimate()
    return WidthEstimate(est.mean, est.mean / gm, est.stderr, trials, trials - sums.n,
                         seed=str(stream))


def _gue0_width(n: int, support, trials: int, stream) -> tuple[Estimate, float]:
    """E h_K(G) over trace-zero GUE directions G on C^n, with `support`
    mapping each chunk's stack of directions to one value each, and the
    Gaussian norm constant gamma_m of their n^2 - 1 dimensions."""
    sums = _Sums(_chunks(lambda gens: support(_gue0_states(n, gens)), stream, trials, n))
    return sums.estimate(str(stream)), gamma_m(n * n - 1)


def separable_width(
    dims: ProductDims, trials: int, stream, restarts: int = 20, tol: float = 1e-12
) -> WidthEstimate:
    """Certified lower bound on the Gaussian mean width of the centered
    separable body: the product-state support of each direction, from the
    starts of `support_separable(..., stream=0)`, a sub-batch at a time."""
    _require_support(dims, restarts, _MAX_SWEEPS)
    starts = _product_starts(dims, restarts, 0)
    # per restart: a copy of its direction's A, three of its factors and of its contracted factor
    d = dims.factors
    size = _batch_size(16 * restarts * (dims.n ** 2 + 3 * (sum(d) + max(d) ** 2)))

    def support(G):
        T = G.reshape((len(G),) + d * 2)
        return np.concatenate([_support_stack(T[b:b + size], starts, tol, _MAX_SWEEPS)[0]
                               for b in range(0, len(T), size)])

    est, gm = _gue0_width(dims.n, support, trials, stream)
    return WidthEstimate(est.mean, est.mean / gm, est.stderr, trials, lower_bound=True,
                         seed=str(stream))


# ---------------------------------------------------------------------------
# Width duality at (2, 2).
#
# For two qubits the separable body coincides with the PPT body, so its
# symmetrization is { A traceless : ||A||_op <= 1/4 and ||A^PT||_op <= 1/4 }
# and the gauge has the closed form 4 max(||A||_op, ||A^PT||_op). That makes
# both sides of the duality product computable with certified bounds:
# the gauge side exactly, the support side by ascending inside the body and
# rescaling candidates onto its boundary with the exact gauge.
# ---------------------------------------------------------------------------

_DIMS22 = ProductDims((2, 2))
_gauge_sym_qubit_pair = _body_gauge("ssym", _DIMS22)
_ASCENT_STEPS = 25
_ASCENT_STEP_SIZE = 0.05


def _clip_operator_norm(batch: np.ndarray, radius: float) -> np.ndarray:
    w, v = np.linalg.eigh(batch)
    w = np.clip(w, -radius, radius)
    return np.einsum("tij,tj,tkj->tik", v, w, v.conj())


def _certified_sym_support(G: np.ndarray, gauges: np.ndarray) -> np.ndarray:
    """Certified lower bounds on h_{Ssym}(G_t), batched.

    Ascent iterates x <- x + step * G followed by cheap cyclic projections
    toward the body; every iterate is then pulled exactly onto the boundary
    by the closed-form gauge before scoring, so the reported value is always
    attained by a feasible point regardless of how inexact the projections
    are.
    """
    x = G / gauges[:, None, None]
    best = np.einsum("tij,tji->t", x, G).real
    for _ in range(_ASCENT_STEPS):
        x = _clip_operator_norm(_make_traceless(x + _ASCENT_STEP_SIZE * G), 0.25)
        x = partial_transpose(x, _DIMS22, 1)
        x = partial_transpose(_clip_operator_norm(x, 0.25), _DIMS22, 1)
        cand = _make_traceless(x.copy())
        g = _gauge_sym_qubit_pair(cand)
        ok = g > 0
        val = np.where(ok, np.einsum("tij,tji->t", cand, G).real / np.where(ok, g, 1.0), 0.0)
        best = np.maximum(best, val)
    return best


@dataclass(frozen=True)
class DualityCheck:
    """Both sides of w_G(Ssym) * w_G(Ssym polar) >= gamma_m^2."""

    support_side: Estimate   # certified lower bound on w_G(Ssym)
    gauge_side: Estimate     # w_G(Ssym polar) = E ||G||_Ssym
    one_sided_gauge: Estimate  # E ||G||_S0, for the factor-two sandwich
    product: float
    gamma_sq: float
    relative_stderr: float

    @property
    def passed(self) -> bool:
        return self.product >= self.gamma_sq * (1.0 - 3.0 * self.relative_stderr)


def width_duality_check(dims: ProductDims, trials: int, stream) -> DualityCheck:
    """Check the elementary duality lower bound at (2, 2) with certified
    Monte-Carlo estimates on both sides."""
    if dims.factors != (2, 2):
        raise UnsupportedDimensionError(
            f"width duality check is implemented for (2, 2) only, got {dims.factors}"
        )
    s0_gauge = _body_gauge("s0", dims)

    def per_direction(gens):
        """Each direction's Ssym gauge, certified Ssym support and S0 gauge."""
        G = _gue0_states(4, gens)
        gauges = _gauge_sym_qubit_pair(G)
        return gauges, _certified_sym_support(G, gauges), s0_gauge(G)

    sums = [_Sums(), _Sums(), _Sums()]
    for columns in _chunks(per_direction, stream, trials, 4):
        for acc, values in zip(sums, columns):
            acc.add(values)
    gauge_est, support_est, one_sided = (acc.estimate(str(stream)) for acc in sums)

    rel = math.hypot(support_est.stderr / support_est.mean, gauge_est.stderr / gauge_est.mean)
    return DualityCheck(support_side=support_est, gauge_side=gauge_est, one_sided_gauge=one_sided,
                        product=support_est.mean * gauge_est.mean, gamma_sq=gamma_m(dims.m) ** 2,
                        relative_stderr=rel)


# ---------------------------------------------------------------------------
# Symmetrized-volume lower bound vol(-K n K) >= 2^{-m} vol(K) for centered
# convex bodies, checked by hit-or-miss Monte Carlo on random simplices.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymmetrizationResult:
    ratio: float
    stderr: float
    threshold: float
    points: int
    resamples: int
    seed: str = ""

    @property
    def passed(self) -> bool:
        return self.ratio >= self.threshold * (1.0 - 3.0 * self.stderr / max(self.ratio, 1e-300))


def mc_intersection_ratio(sample_points, contains_negated, points: int, stream) -> tuple[float, float]:
    """Fraction of uniform points x of K with -x in K, with binomial SE.

    `sample_points(gens)` draws one point of K per generator, as the rows of
    one array; `contains_negated(Y)` tests every row of a stack for
    membership in K. Both run once per chunk of points.
    """
    # Chunks sized as for 1 x 1 matrices: 252 points, each with its generator.
    hits = int(sum(_chunks(lambda gens: np.count_nonzero(contains_negated(-sample_points(gens))),
                           stream, points, 1)))
    p = hits / points
    se = math.sqrt(max(p * (1 - p), 1.0 / points) / points)
    return p, se


def symmetrization_volume_ratio(m: int, points: int, stream) -> SymmetrizationResult:
    """vol(-K n K) / vol(K) for a random simplex K centered at its center
    of mass, estimated by hit-or-miss sampling."""
    if not 2 <= m <= 4:
        raise ValueError("simplex dimension m must be in {2, 3, 4}")
    if points < 1:
        raise ValueError("points must be >= 1")
    base = _as_stream(stream)
    seeded = isinstance(base, SeededStream)
    resamples = 0
    while True:
        rng = base.substream(resamples).generator() if seeded else base
        verts = rng.standard_normal((m + 1, m))
        verts -= verts.mean(axis=0)  # center of mass of a simplex = vertex mean
        vol = abs(np.linalg.det(verts[1:] - verts[0])) / math.factorial(m)
        bbox = np.prod(verts.max(axis=0) - verts.min(axis=0))
        if vol > 1e-12 * bbox:
            break
        resamples += 1

    # barycentric membership: solve [verts^T; 1] b = [y; 1], need b >= 0
    inv_t = np.linalg.inv(np.vstack([verts.T, np.ones(m + 1)])).T
    alpha = np.ones(m + 1)

    def sample_points(gens):
        return np.stack([r.dirichlet(alpha) for r in gens]) @ verts

    def contains(Y):
        b = np.hstack([Y, np.ones((len(Y), 1))]) @ inv_t
        return np.all(b >= -1e-12, axis=1)

    sub = base.substream(10 ** 6) if seeded else base
    ratio, se = mc_intersection_ratio(sample_points, contains, points, sub)
    return SymmetrizationResult(ratio, se, 2.0 ** (-m), points, resamples, seed=str(stream))


# ---------------------------------------------------------------------------
# Threshold estimates.
# ---------------------------------------------------------------------------


def separability_threshold_estimate(d: int, trials: int, stream) -> Estimate:
    """(E ||G||_S0 / d^2)^2 from the exact separable gauge; d = 2 only.

    At d = 2 the separable body is the PPT body, so this is the PPT
    threshold estimate on the same draws.
    """
    _require_exact_dims(ProductDims((d, d)))
    return ppt_threshold_estimate(2, trials, stream).threshold


@dataclass(frozen=True)
class PPTThresholdResult:
    mean_gauge: Estimate
    threshold: Estimate      # (E ||G||_PPT0 / d^2)^2
    width_polar: Estimate    # w(PPT0 polar) = E ||G||_PPT0 / gamma_m
    d: int
    m: int


def ppt_threshold_estimate(d: int, trials: int, stream) -> PPTThresholdResult:
    """PPT analogue of the threshold, available for every d via the
    closed-form PPT gauge. The polar width comes out ~ 2d, hence the
    threshold ~ 4 d^2."""
    dims = ProductDims((d, d))
    mean_est, gm = _gue0_width(dims.n, _body_gauge("ppt0", dims), trials, stream)
    d2 = float(d * d)
    thr = Estimate((mean_est.mean / d2) ** 2, 2.0 * mean_est.mean / (d2 * d2) * mean_est.stderr,
                   trials, seed=str(stream))
    wp = Estimate(mean_est.mean / gm, mean_est.stderr / gm, trials, seed=str(stream))
    return PPTThresholdResult(mean_est, thr, wp, d, dims.m)
