"""Dense complex linear algebra over the Hilbert-Schmidt inner product.

Tensor-factor convention, fixed project-wide: composite indices are row-major
with the FIRST factor most significant, i.e. the basis vector of
C^{d1} x C^{d2} with index a = i*d2 + j is e_i (x) e_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

__all__ = [
    "ProductDims",
    "hermitize",
    "traceless_part",
    "hs_inner",
    "hs_norm",
    "hermitian_eigenvalues",
    "top_eigenpair",
    "kron",
    "partial_trace",
    "partial_transpose",
]


@dataclass(frozen=True)
class ProductDims:
    """Factor dimensions (d1, ..., dk) of a tensor-product Hilbert space."""

    factors: tuple[int, ...]

    def __post_init__(self):
        factors = tuple(int(d) for d in self.factors)
        if len(factors) < 1:
            raise ValueError("need at least one factor")
        if any(d < 2 for d in factors):
            raise ValueError(f"factor dimensions must be >= 2, got {factors}")
        object.__setattr__(self, "factors", factors)

    @property
    def k(self) -> int:
        return len(self.factors)

    @property
    def n(self) -> int:
        """Total Hilbert-space dimension, the product of the factors."""
        return int(reduce(lambda a, b: a * b, self.factors, 1))

    @property
    def m(self) -> int:
        """Real dimension n^2 - 1 of the traceless self-adjoint space."""
        return self.n * self.n - 1

    @classmethod
    def of(cls, *factors: int) -> "ProductDims":
        return cls(tuple(factors))


def _check_square(A: np.ndarray, batched: bool = False) -> np.ndarray:
    """A as an array, checked non-empty, square and finite; `batched` also
    admits a stack of square matrices with leading batch axes (..., n, n)."""
    A = np.asarray(A)
    ndim_ok = A.ndim >= 2 if batched else A.ndim == 2
    if not ndim_ok or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if A.shape[-1] == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    return A


def hermitize(A: np.ndarray) -> np.ndarray:
    """Return the self-adjoint part (A + A^dagger) / 2."""
    A = _check_square(A)
    return (A + A.conj().T) / 2


def traceless_part(A: np.ndarray) -> np.ndarray:
    """Project A onto the trace-zero hyperplane, A - (tr A / n) Id; a stack
    (..., n, n) is projected matrix by matrix."""
    A = _check_square(A, batched=True)
    return _make_traceless(A.astype(np.result_type(A, 1.0)))


def _make_traceless(A: np.ndarray) -> np.ndarray:
    """`traceless_part` of a float or complex stack, in place on its diagonals."""
    diag = np.einsum("...ii->...i", A)
    diag -= diag.sum(axis=-1, keepdims=True) / A.shape[-1]
    return A


def hs_inner(A: np.ndarray, B: np.ndarray) -> float:
    """Hilbert-Schmidt inner product tr(A B) of self-adjoint A, B (real)."""
    val = np.trace(A @ B)
    return float(val.real)


def hs_norm(A: np.ndarray) -> float:
    """Hilbert-Schmidt norm of a matrix, by the stacked call of the `hs` body."""
    return float(np.linalg.norm(A, axis=(-2, -1)))


def hermitian_eigenvalues(H: np.ndarray) -> np.ndarray:
    """All real eigenvalues of self-adjoint H, sorted non-increasing."""
    H = hermitize(H)
    return np.linalg.eigvalsh(H)[::-1]


def top_eigenpair(H: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of self-adjoint H and a unit eigenvector."""
    H = hermitize(H)
    w, v = np.linalg.eigh(H)
    return float(w[-1]), v[:, -1]


def kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product, first factor most significant."""
    return np.kron(np.asarray(A), np.asarray(B))


def _require_size(A: np.ndarray, dims: ProductDims) -> None:
    """Refuse a matrix or stack (..., n, n) whose n is not the size of `dims`."""
    if A.shape[-1] != dims.n:
        raise ValueError(f"matrix size {A.shape[-1]} does not match dims {dims.factors}")


def _on_factors(H: np.ndarray, dims: ProductDims, factors, role: str) -> tuple[np.ndarray, list]:
    """H checked as a matrix or stack (..., n, n) on `dims`, and the sorted
    distinct factor indices `factors`, checked in range."""
    H = _check_square(H, batched=True)
    _require_size(H, dims)
    idx = sorted(set(int(i) for i in np.atleast_1d(np.asarray(factors, dtype=int))))
    if any(i < 0 or i >= dims.k for i in idx):
        raise ValueError(f"{role} factor indices {idx} out of range for {dims.k} factors")
    return H, idx


def partial_trace(H: np.ndarray, dims: ProductDims, keep) -> np.ndarray:
    """Trace out all tensor factors not in `keep` (iterable of factor indices).

    Preserves the trace; the result acts on the kept factors in their
    original order. H is one matrix or a stack (..., n, n), traced matrix by
    matrix.
    """
    H, keep = _on_factors(H, dims, keep, "kept")
    ds, k = dims.factors, dims.k
    if len(keep) == k:
        return H.copy()

    # einsum labels: row index of factor i is i, column index is k + i; a
    # traced factor shares its row label between row and column side.
    batch = H.shape[:-2]
    col = [i if i not in keep else k + i for i in range(k)]
    res = np.einsum(H.reshape(batch + ds + ds), [..., *range(k), *col],
                    [..., *keep, *(k + i for i in keep)])
    nk = int(np.prod([ds[i] for i in keep]))
    return res.reshape(batch + (nk, nk))


def partial_transpose(H: np.ndarray, dims: ProductDims, transposed) -> np.ndarray:
    """Transpose the given tensor factor(s); an involution.

    H is one matrix or a stack of them with leading batch axes (..., n, n);
    each matrix of the stack is transposed on the same factors. For a
    bipartite product this sends A (x) B to A (x) B^T when the second factor
    is transposed.
    """
    H, tset = _on_factors(H, dims, transposed, "transposed")
    ds, k = dims.factors, dims.k
    batch = H.shape[:-2]
    b = len(batch)
    perm = list(range(b + 2 * k))
    for i in tset:
        perm[b + i], perm[b + k + i] = perm[b + k + i], perm[b + i]
    return H.reshape(batch + ds + ds).transpose(perm).reshape(batch + (dims.n, dims.n))
