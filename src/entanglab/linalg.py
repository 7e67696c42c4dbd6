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
    """A as an array, checked square and finite; `batched` also admits a
    stack of square matrices with leading batch axes (..., n, n)."""
    A = np.asarray(A)
    ndim_ok = A.ndim >= 2 if batched else A.ndim == 2
    if not ndim_ok or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    return A


def hermitize(A: np.ndarray) -> np.ndarray:
    """Return the self-adjoint part (A + A^dagger) / 2."""
    A = _check_square(A)
    return (A + A.conj().T) / 2


def _hermitize_stack(A: np.ndarray) -> np.ndarray:
    """`hermitize` of each matrix in a stack (..., n, n)."""
    A = _check_square(A, batched=True)
    return (A + np.swapaxes(A.conj(), -1, -2)) / 2


def traceless_part(A: np.ndarray) -> np.ndarray:
    """Project A onto the trace-zero hyperplane, A - (tr A / n) Id; a stack
    (..., n, n) is projected matrix by matrix."""
    A = _check_square(A, batched=True)
    n = A.shape[-1]
    return A - (np.trace(A, axis1=-2, axis2=-1) / n)[..., None, None] * np.eye(n, dtype=A.dtype)


def hs_inner(A: np.ndarray, B: np.ndarray) -> float:
    """Hilbert-Schmidt inner product tr(A B) of self-adjoint A, B (real)."""
    val = np.trace(A @ B)
    return float(val.real)


def hs_norm(A: np.ndarray) -> float:
    return float(np.linalg.norm(A))


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


def _validate_dims(H: np.ndarray, dims: ProductDims) -> None:
    if H.shape[-1] != dims.n:
        raise ValueError(f"matrix size {H.shape[-1]} does not match dims {dims.factors}")


def partial_trace(H: np.ndarray, dims: ProductDims, keep) -> np.ndarray:
    """Trace out all tensor factors not in `keep` (iterable of factor indices).

    Preserves the trace; the result acts on the kept factors in their
    original order.
    """
    H = _check_square(H)
    _validate_dims(H, dims)
    ds = dims.factors
    k = dims.k
    keep = sorted(set(int(i) for i in np.atleast_1d(np.asarray(keep, dtype=int))))
    if any(i < 0 or i >= k for i in keep):
        raise ValueError(f"kept factor indices {keep} out of range for {k} factors")
    if len(keep) == k:
        return H.copy()

    # einsum labels: row index of factor i is i, column index is k + i; a
    # traced factor shares its row label between row and column side.
    col = [i if i not in keep else k + i for i in range(k)]
    res = np.einsum(H.reshape(ds + ds), list(range(k)) + col, keep + [k + i for i in keep])
    nk = int(np.prod([ds[i] for i in keep]))
    return res.reshape(nk, nk)


def partial_transpose(H: np.ndarray, dims: ProductDims, transposed) -> np.ndarray:
    """Transpose the given tensor factor(s); an involution.

    H is one matrix or a stack of them with leading batch axes (..., n, n);
    each matrix of the stack is transposed on the same factors. For a
    bipartite product this sends A (x) B to A (x) B^T when the second factor
    is transposed.
    """
    H = _check_square(H, batched=True)
    _validate_dims(H, dims)
    ds = dims.factors
    k = dims.k
    tset = sorted(set(int(i) for i in np.atleast_1d(np.asarray(transposed, dtype=int))))
    if any(i < 0 or i >= k for i in tset):
        raise ValueError(f"transposed factor indices {tset} out of range for {k} factors")

    batch = H.shape[:-2]
    b = len(batch)
    perm = list(range(b + 2 * k))
    for i in tset:
        perm[b + i], perm[b + k + i] = perm[b + k + i], perm[b + i]
    return H.reshape(batch + ds + ds).transpose(perm).reshape(batch + (dims.n, dims.n))
