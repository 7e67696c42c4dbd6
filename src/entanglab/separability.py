"""Entanglement detection and gauges of the state-space convex bodies.

Three nested bodies of centered (traceless) directions are measured here,
each as a Minkowski gauge ||A||_K = inf {t >= 0 : Id/n + A/t in K}:

  * all states          -- closed form n * max(0, -lambda_min(A)), since the
                           positive-semidefinite cone is self-dual;
  * PPT states          -- the intersection with the partially transposed
                           body, so the max of the two one-sided gauges;
  * separable states    -- available only for qubit-qubit and qubit-qutrit
                           systems, where PPT is equivalent to separability,
                           so the gauge is exactly the PPT closed form.

Deciding separability is NP-hard in general, so for any other dimensions the
exact routines raise instead of silently substituting PPT; callers choose the
PPT body explicitly.

`_BODIES` is the one place a body is defined: it maps each body name (d0,
hs, ppt0, s0, ssym) to its batched kernel and its dims rule. The public
gauges, the experiments, the width estimates and the `gauge` command all read
it, through `_body_gauge` for stacks and `_gauge` for one direction.

`_CRITERIA` does the same for per-state criteria (exact, ppt): a kernel with
one bool per state of a stack, a dims rule and a CSV column. Scans, both
monotonicity couplings and `is_separable_exact` read it through `_criterion`.
Both criteria decide PPT by one batched Cholesky factorization of
rho^Gamma + 1e-11 * Id, which agrees with lambda_min(rho^Gamma) >= -1e-11
except within rounding of the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
# numpy's batched Cholesky, which numpy.linalg.cholesky calls: NaN factors for
# the failures, not an exception
from numpy.linalg._umath_linalg import cholesky_lo as _cholesky_lo

from .ensembles import DensityMatrix
from .linalg import ProductDims, _require_size, hermitize, hs_norm, partial_transpose
from .rng import as_generator
from .stats import Estimate

__all__ = [
    "UnsupportedDimensionError",
    "GaugeResult",
    "SupportResult",
    "PPT_EIGENVALUE_TOL",
    "EXACT_DIMS",
    "min_pt_eigenvalue",
    "is_separable_exact",
    "gauge_states",
    "gauge_ppt",
    "gauge_separable",
    "gauge_separable_sym",
    "support_separable",
    "mean_gauge_gue",
]

# Eigenvalues above this threshold count as non-negative; boundary states
# are classified PPT.
PPT_EIGENVALUE_TOL = -1e-11

EXACT_DIMS = {(2, 2), (2, 3), (3, 2)}

TRACE_TOL = 1e-10

_MAX_SWEEPS = 500  # of the product-state support maximization


class UnsupportedDimensionError(ValueError):
    """Exact separability was requested outside qubit-qubit / qubit-qutrit."""


@dataclass(frozen=True)
class GaugeResult:
    value: float
    bracket_width: float
    membership_evals: int


@dataclass(frozen=True)
class SupportResult:
    value: float
    maximizer: list
    restarts_used: int


def _require_traceless(A: np.ndarray) -> np.ndarray:
    A = hermitize(A)
    if abs(float(np.trace(A).real)) > TRACE_TOL * (1.0 + hs_norm(A)):
        raise ValueError("direction must be traceless")
    return A


def _require_exact_dims(dims: ProductDims) -> None:
    if dims.factors not in EXACT_DIMS:
        raise UnsupportedDimensionError(
            f"exact separability is only decidable for 2x2 and 2x3 systems, "
            f"got {dims.factors}; use the PPT criterion explicitly"
        )


def _require_bipartite(dims: ProductDims) -> None:
    if dims.k != 2:
        raise ValueError(f"bipartite dims d1 x d2 required, got {dims.factors}")


def min_pt_eigenvalue(rho) -> float:
    """Smallest eigenvalue of the partial transpose; >= -1e-11 means PPT."""
    if not isinstance(rho, DensityMatrix) or rho.dims is None:
        raise ValueError("need a DensityMatrix with bipartite dims")
    _require_bipartite(rho.dims)
    return float(_min_pt(rho.matrix, rho.dims))


def _min_pt(H: np.ndarray, dims: ProductDims) -> np.ndarray:
    """Smallest eigenvalue of the second-factor partial transpose, over batch axes."""
    return np.linalg.eigvalsh(partial_transpose(H, dims, 1))[..., 0]


def is_separable_exact(rho) -> bool:
    """Exact separability for qubit-qubit and qubit-qutrit states (PPT test)."""
    if not isinstance(rho, DensityMatrix) or rho.dims is None:
        raise ValueError("need a DensityMatrix with bipartite dims")
    return bool(_criterion("exact", rho.dims)(rho.matrix[None])[0])


def _is_ppt(states: np.ndarray, dims: ProductDims) -> np.ndarray:
    """Whether each state of a stack is PPT, boundary states included: whether
    rho^Gamma + 1e-11 * Id has a Cholesky factor, which agrees with
    lambda_min(rho^Gamma) >= -1e-11 outside rounding at the tolerance."""
    pt = partial_transpose(states, dims, 1)  # a fresh array
    np.einsum("...ii->...i", pt)[...] -= PPT_EIGENVALUE_TOL
    with np.errstate(invalid="ignore"):
        # the gufunc copies each matrix into its work buffer, so the factor
        # can overwrite its input
        return ~np.isnan(_cholesky_lo(pt, out=pt)[..., -1, -1])


@dataclass(frozen=True)
class _Criterion:
    kernel: Callable[..., np.ndarray]  # (stack, dims) -> bool per state
    dims_rule: Callable[[ProductDims], None]
    column: str  # CSV column of the fraction of states meeting it


_CRITERIA = {
    # at 2x2 and 2x3 separable means PPT
    "exact": _Criterion(_is_ppt, _require_exact_dims, "p_hat"),
    "ppt": _Criterion(_is_ppt, _require_bipartite, "ppt_probability"),
}


def _criterion(name: str, dims: ProductDims) -> Callable[[np.ndarray], np.ndarray]:
    """Whether each state of a stack on `dims` meets criterion `name`;
    raises if the criterion's dims rule refuses `dims`."""
    entry = _CRITERIA[name]
    entry.dims_rule(dims)
    return partial(entry.kernel, dims=dims)


def _pt_spectra(A: np.ndarray, dims: ProductDims) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of A and of its partial transpose A^Gamma (second
    factor transposed), over any leading batch axes: one pair of eigensolves."""
    return np.linalg.eigvalsh(A), np.linalg.eigvalsh(partial_transpose(A, dims, 1))


def _ppt_gauge(A: np.ndarray, dims: ProductDims) -> np.ndarray:
    """Batched gauge of the centered PPT body, an intersection of the state
    body with its partial transpose: n * max(0, -lambda_min(A), -lambda_min(A^Gamma))."""
    lam, lam_pt = _pt_spectra(A, dims)
    return dims.n * (np.maximum(0.0, -np.minimum(lam[..., 0], lam_pt[..., 0])) + 0.0)


def _ppt_gauge_sym(A: np.ndarray, dims: ProductDims) -> np.ndarray:
    """Batched gauge of the symmetrized PPT body PPT0 intersect -PPT0: the max
    of the one-sided gauges of A and -A, n * max(-lambda_min, lambda_max) over
    A and A^Gamma (traceless A has lambda_max >= 0)."""
    lam, lam_pt = _pt_spectra(A, dims)
    low = np.minimum(lam[..., 0], lam_pt[..., 0])
    high = np.maximum(lam[..., -1], lam_pt[..., -1])
    return dims.n * (np.maximum(-low, high) + 0.0)


def _state_gauge(A: np.ndarray) -> np.ndarray:
    """Batched gauge of the centered set of all states: n * max(0, -lambda_min(A))."""
    # + 0.0 turns the -0.0 of max(0.0, -0.0) into 0.0, as in the PPT gauges
    return A.shape[-1] * (np.maximum(0.0, -np.linalg.eigvalsh(A)[..., 0]) + 0.0)


@dataclass(frozen=True)
class _Body:
    kernel: Callable[..., np.ndarray]  # (stack, dims) -> gauge of each matrix
    dims_rule: Callable[[ProductDims], None]
    eigensolves: int  # per matrix


def _any_dims(dims: ProductDims) -> None:
    """Dims rule of the bodies whose gauge reads only the matrix."""


_BODIES = {
    "d0": _Body(lambda A, dims: _state_gauge(A), _any_dims, 1),
    "hs": _Body(lambda A, dims: np.linalg.norm(A, axis=(-2, -1)), _any_dims, 0),
    "ppt0": _Body(_ppt_gauge, _require_bipartite, 2),
    # at 2x2 and 2x3 separable means PPT
    "s0": _Body(_ppt_gauge, _require_exact_dims, 2),
    "ssym": _Body(_ppt_gauge_sym, _require_exact_dims, 2),
}


def _body_gauge(body: str, dims: ProductDims) -> Callable[[np.ndarray], np.ndarray]:
    """Batched gauge ||A||_K of a stack of traceless self-adjoint matrices
    on `dims`; raises if the body's dims rule refuses `dims`."""
    if body not in _BODIES:
        raise ValueError(f"unknown body {body!r}")
    entry = _BODIES[body]
    entry.dims_rule(dims)
    return partial(entry.kernel, dims=dims)


def _gauge(body: str, A: np.ndarray, dims: ProductDims) -> GaugeResult:
    """Gauge of one direction: checked traceless and sized for `dims`, 0 for
    the zero direction, with the eigensolves made."""
    gauge = _body_gauge(body, dims)
    A = _require_traceless(A)
    _require_size(A, dims)
    if hs_norm(A) == 0.0:
        return GaugeResult(0.0, 0.0, 0)
    return GaugeResult(float(gauge(A[None])[0]), 0.0, _BODIES[body].eigensolves)


def gauge_states(A: np.ndarray) -> float:
    """Gauge of the centered set of all states: n * max(0, -lambda_min(A))."""
    return float(_state_gauge(_require_traceless(A)))


def gauge_ppt(A: np.ndarray, dims: ProductDims) -> float:
    """Gauge of the centered PPT body: an intersection, so a max of gauges."""
    return _gauge("ppt0", A, dims).value


def gauge_separable(A: np.ndarray, dims: ProductDims, tol: float = 1e-8) -> GaugeResult:
    """Gauge of the centered separable body at 2x2 and 2x3, where separable
    means PPT, so the gauge is exactly the PPT closed form
    n * max(0, -lambda_min(A), -lambda_min(A^Gamma)).

    The result is exact: `bracket_width` is 0 and `membership_evals` counts
    the eigensolves made. `tol` is accepted for compatibility and unused.
    """
    return _gauge("s0", A, dims)


def gauge_separable_sym(A: np.ndarray, dims: ProductDims, tol: float = 1e-8) -> GaugeResult:
    """Gauge of the symmetrized separable body S0 intersect -S0, exact like
    `gauge_separable`: n * max(-lambda_min, lambda_max) over A and A^Gamma.
    `tol` is accepted for compatibility and unused."""
    return _gauge("ssym", A, dims)


def _contracted_factor(T: np.ndarray, psis: list[np.ndarray], j: int) -> np.ndarray:
    """Matrices M (..., d_j, d_j) with <a|M|b> = <..psi,a,psi..|A|..psi,b,psi..>."""
    # einsum labels: row index of factor i is i, column index is k + i.
    k = len(psis)
    operands = [T, [..., *range(2 * k)]]
    for i in range(k):
        if i != j:
            operands += [psis[i].conj(), [..., i], psis[i], [..., k + i]]
    return np.einsum(*operands, [..., j, k + j])


def _product_starts(dims: ProductDims, restarts: int, stream) -> list[np.ndarray]:
    """Uniform product unit vectors, a stack (restarts, d_i) per factor: drawn restart
    by restart, factor by factor, real parts first, each v / |v|; None is seed 0."""
    rng = as_generator(stream if stream is not None else 0)
    starts = [rng.standard_normal(d) + 1j * rng.standard_normal(d)
              for _ in range(restarts) for d in dims.factors]
    return [np.array([v / np.linalg.norm(v) for v in starts[i::dims.k]]) for i in range(dims.k)]


def _support_stack(T: np.ndarray, starts: list[np.ndarray], tol: float,
                   max_sweeps: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Product-state support of each direction of a stack T (D, d_1..d_k, d_1..d_k)
    from the same starts (R, d_i) per factor. Every (direction, restart) pair
    sweeps until a sweep gains less than `tol`; a half-step contracts the
    directions with a live pair and runs one eigh over the live pairs. Each
    direction reports its first best restart: the witness's own <psi|A|psi>,
    a certified lower bound, and its factors (D, d_i)."""
    if len(starts) < 2:
        raise ValueError("need at least two tensor factors")
    if len(starts[0]) < 1 or max_sweeps < 1:
        raise ValueError("restarts and max_sweeps must be >= 1")
    psis = [np.repeat(s[None], len(T), axis=0) for s in starts]  # (D, R, d_i)
    val = np.full(psis[0].shape[:2], -np.inf)
    live = np.ones(val.shape, dtype=bool)
    for _ in range(max_sweeps):
        rows, pairs = np.flatnonzero(live.any(axis=1)), np.nonzero(live)
        prev = val[pairs]
        for j in range(len(psis)):
            M = _contracted_factor(T[rows, None], [p[rows] for p in psis], j)[live[rows]]
            w, vecs = np.linalg.eigh(M)
            psis[j][pairs] = vecs[..., -1]
        val[pairs] = w[:, -1]
        live[pairs] = val[pairs] - prev >= tol
        if not live.any():
            break
    best = [p[np.arange(len(T)), np.argmax(val, axis=1)] for p in psis]
    M = _contracted_factor(T, best, 0)
    return np.einsum("...a,...ab,...b->...", best[0].conj(), M, best[0]).real, best


def support_separable(
    A: np.ndarray,
    dims: ProductDims,
    restarts: int = 20,
    tol: float = 1e-12,
    max_sweeps: int = _MAX_SWEEPS,
    stream=None,
) -> SupportResult:
    """Support function of the centered separable body in direction A: for
    traceless A, the maximum of <psi|A|psi> over product unit vectors
    psi = psi_1 x ... x psi_k. Alternating maximization from `restarts`
    uniform product starts: with all factors but one frozen the optimum is
    the top eigenvector of the contracted operator, so each half-step is
    exact and the objective never decreases. The result is a certified lower
    bound (the maximization can stop at a local maximum)."""
    A = _require_traceless(A)
    _require_size(A, dims)
    starts = _product_starts(dims, restarts, stream)
    vals, best = _support_stack(A.reshape((1,) + dims.factors * 2), starts, tol, max_sweeps)
    return SupportResult(float(vals[0]), [p[0] for p in best], restarts)


def mean_gauge_gue(d: int, trials: int, stream) -> Estimate:
    """Monte-Carlo mean of the separable gauge of trace-zero GUE draws on
    C^d x C^d. Only d = 2 has an exact separable gauge, the PPT gauge, so
    this is the mean gauge of `ppt_threshold_estimate(2, ...)`, on the same
    draws."""
    _require_exact_dims(ProductDims((d, d)))
    from .widths import ppt_threshold_estimate

    return ppt_threshold_estimate(2, trials, stream).mean_gauge
