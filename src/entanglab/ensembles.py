"""Samplers for random matrices and random quantum states.

Conventions:
  * GUE is the standard Gaussian on self-adjoint matrices with the
    Hilbert-Schmidt inner product: density ~ exp(-tr(A^2)/2). Diagonal
    entries are real N(0,1); off-diagonal entries have independent real and
    imaginary parts N(0, 1/2). With this normalization spec(G/sqrt(n))
    approaches the semicircle law on [-2, 2].
  * A complex Ginibre matrix has i.i.d. N_C(0,1) entries, E|z|^2 = 1
    (real/imaginary parts N(0, 1/2)).
  * An induced state with environment dimension s is AA^dagger / tr(AA^dagger)
    for an n x s Ginibre A, which costs O(n^2 s) instead of the O((ns)^2) of
    tracing an explicit pure state; both give the same distribution. s = n is
    the uniform (Hilbert-Schmidt) distribution on states.

Draws: each trial makes only its own generator calls, and everything else
runs in buffers of the chunk of trials it belongs to. A Ginibre draw fills
the float view of a scratch n x s complex buffer with all 2ns normals in one
call (real parts, then imaginary parts) and scales them into the real and
imaginary views of the draw by the rounded reciprocal 1/sqrt(2). That product
is what numpy computes for a complex array divided by np.sqrt(2), so the
bytes equal those of the formula (re + 1j*im) / np.sqrt(2); dividing the
views by sqrt(2) would round differently. The conjugate then overwrites the
scratch buffer and the Gram product is written straight into the chunk's
stack. A GUE chunk draws every generator's diagonal and off-diagonal normals
into rows of one array and builds the triangle, Hermitian completion,
diagonal and traceless projection once for the whole stack. The public
samplers run the same kernels on a chunk of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import log_znorm
from .linalg import ProductDims, _hermitize_stack, hermitize, partial_trace, traceless_part
from .rng import SeededStream, _as_stream, as_generator

__all__ = [
    "DensityMatrix",
    "EnsembleSpec",
    "CoupledPair",
    "sample_gue",
    "sample_gue0",
    "sample_ginibre",
    "sample_induced_state",
    "sample_uniform_state",
    "induced_log_density",
    "coupled_local_projection",
    "coupled_partial_trace",
    "draw_ensemble",
]

PSD_TOL = 1e-12
_INV_SQRT2 = 1 / np.sqrt(2)  # see the module docstring


@dataclass(frozen=True)
class DensityMatrix:
    """Positive unit-trace operator, optionally with tensor-factor metadata.

    Construction symmetrizes but never clips eigenvalues; inputs that are
    not positive semidefinite (beyond eigensolver noise) are rejected.
    """

    dims: ProductDims | None
    matrix: np.ndarray

    def __post_init__(self):
        M = hermitize(self.matrix)
        n = M.shape[0]
        if self.dims is not None and self.dims.n != n:
            raise ValueError(
                f"matrix size {n} does not match dims {self.dims.factors}"
            )
        tr = float(np.trace(M).real)
        if abs(tr - 1.0) > 1e-12:
            raise ValueError(f"trace {tr} is not 1 within 1e-12")
        lam_min = float(np.linalg.eigvalsh(M)[0])
        if lam_min < -PSD_TOL * n:
            raise ValueError(f"not positive semidefinite: lambda_min = {lam_min}")
        object.__setattr__(self, "matrix", M)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def centered(self) -> np.ndarray:
        """Deviation from the maximally mixed state, rho - Id/n."""
        return traceless_part(self.matrix)


@dataclass(frozen=True)
class EnsembleSpec:
    """Which ensemble to draw from: gue, gue0, ginibre, induced or uniform."""

    kind: str
    n: int
    s: int | None = None

    def __post_init__(self):
        if self.kind not in ("gue", "gue0", "ginibre", "induced", "uniform"):
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.kind in ("ginibre", "induced") and (self.s is None or self.s < 1):
            raise ValueError(f"{self.kind} requires s >= 1")
        if self.kind == "uniform":
            object.__setattr__(self, "s", self.n)


def sample_gue(n: int, stream) -> np.ndarray:
    """Standard Gaussian self-adjoint n x n matrix (E ||A||_HS^2 = n^2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _gue_states(n, [as_generator(stream)])[0]


def sample_gue0(n: int, stream) -> np.ndarray:
    """Trace-zero GUE: the standard Gaussian on traceless self-adjoint matrices."""
    return traceless_part(sample_gue(n, stream))


def _gue_states(n: int, gens) -> np.ndarray:
    """Stack of GUE matrices, one per generator. Each generator draws its
    diagonal and then the real and imaginary parts of a full n x n
    off-diagonal block, in one call into its row of the chunk; the strict
    upper triangle, the Hermitian completion and the diagonal are then
    assembled once for the whole stack."""
    gens = list(gens)
    raw = np.empty((len(gens), n + 2 * n * n))
    for row, rng in zip(raw, gens):
        rng.standard_normal(out=row)
    parts = raw[:, n:].reshape(-1, 2, n, n)
    G = np.empty((len(gens), n, n), dtype=complex)
    np.multiply(parts[:, 0], _INV_SQRT2, out=G.real)
    np.multiply(parts[:, 1], _INV_SQRT2, out=G.imag)
    G[:, np.tri(n, dtype=bool)] = 0  # keep the strict upper triangle
    G += np.swapaxes(G.conj(), -1, -2)
    i = np.arange(n)
    G[:, i, i] = raw[:, :n]
    return G


def _gue0_states(n: int, gens) -> np.ndarray:
    """Stack of trace-zero GUE matrices, bit-identical to `sample_gue0` of
    each generator."""
    return traceless_part(_gue_states(n, gens))


def _ginibre_into(A: np.ndarray, Ac: np.ndarray, rng: np.random.Generator) -> None:
    """Draw one Ginibre matrix into A and its conjugate into Ac (both n x s
    complex). The 2ns normals (real parts, then imaginary parts) land in
    Ac's float view before it is overwritten by the conjugate."""
    raw = Ac.view(np.float64).reshape(2, *A.shape)
    rng.standard_normal(out=raw)
    np.multiply(raw[0], _INV_SQRT2, out=A.real)
    np.multiply(raw[1], _INV_SQRT2, out=A.imag)
    np.conjugate(A, out=Ac)


def sample_ginibre(n: int, s: int, stream) -> np.ndarray:
    """n x s matrix of i.i.d. N_C(0,1) entries."""
    if n < 1 or s < 1:
        raise ValueError("n and s must be >= 1")
    A = np.empty((n, s), dtype=complex)
    _ginibre_into(A, np.empty_like(A), as_generator(stream))
    return A


def sample_induced_state(
    n: int, s: int, stream, dims: ProductDims | None = None
) -> DensityMatrix:
    """Random state on C^n induced by an s-dimensional environment."""
    if n < 1 or s < 1:
        raise ValueError("n and s must be >= 1")
    rho = _induced_states(n, s, [as_generator(stream)])[0]
    if dims is None and n >= 2:
        dims = ProductDims((n,))
    return DensityMatrix(dims, rho)


def _wishart_stack(n: int, s: int, gens: list) -> np.ndarray:
    """Gram products A A^dagger, one Ginibre draw per generator. Every trial
    draws into the same two n x s buffers and writes its product straight
    into its slot of the stack; the buffers are freed on return."""
    A = np.empty((n, s), dtype=complex)
    Ac = np.empty_like(A)
    W = np.empty((len(gens), n, n), dtype=complex)
    for Wk, rng in zip(W, gens):
        _ginibre_into(A, Ac, rng)
        np.matmul(A, Ac.T, out=Wk)
    return W


def _induced_states(n: int, s: int, gens) -> np.ndarray:
    """Stack of induced states, one per generator: normalization and
    hermitization run once over the stack of Gram products."""
    W = _wishart_stack(n, s, list(gens))
    W /= np.trace(W, axis1=-2, axis2=-1).real[:, None, None]
    return _hermitize_stack(W)


def _centered_induced_states(n: int, s: int, gens) -> np.ndarray:
    """Stack of rho - Id/n for the induced states of `_induced_states`."""
    return traceless_part(_induced_states(n, s, gens))


def sample_uniform_state(n: int, stream, dims: ProductDims | None = None) -> DensityMatrix:
    """Uniform (Hilbert-Schmidt) random state: induced with s = n."""
    return sample_induced_state(n, n, stream, dims=dims)


def induced_log_density(rho: DensityMatrix, s: float) -> float:
    """Log density of the induced measure at rho, (s-n) log det rho - log Z.

    Real s >= n is allowed. Returns -inf for singular rho when s > n.
    """
    n = rho.n
    if s < n:
        raise ValueError(f"density form requires s >= n, got s={s}, n={n}")
    log_z = log_znorm(n, s)
    if s == n:
        return -log_z
    lam = np.linalg.eigvalsh(rho.matrix)
    if np.any(lam <= 0):
        return -np.inf
    return float((s - n) * np.sum(np.log(lam)) - log_z)


@dataclass(frozen=True)
class CoupledPair:
    """Two states drawn from one source of randomness, large system first."""

    large: DensityMatrix
    small: DensityMatrix
    resamples: int = 0


def coupled_local_projection(d1: int, d2: int, s: int, stream) -> CoupledPair:
    """Couple mu_{d2^2,s} on C^{d2}xC^{d2} with mu_{d1^2,s} on C^{d1}xC^{d1}.

    The small state is the compression of the large one to the leading
    d1-dimensional local subspaces, renormalized. Separability of the large
    state implies separability of the small one (local operations cannot
    create entanglement). Rows of the underlying Ginibre matrix with both
    local coordinates below d1 are themselves i.i.d. Ginibre, so the small
    state carries exactly the d1-system induced distribution.
    """
    if not (2 <= d1 <= d2):
        raise ValueError("need 2 <= d1 <= d2")
    if s < 1:
        raise ValueError("s must be >= 1")

    rows = [i * d2 + j for i in range(d1) for j in range(d1)]
    base = _as_stream(stream)
    rng = as_generator(base)
    attempt = 0
    while True:
        A = sample_ginibre(d2 * d2, s, rng)
        B = A[rows, :]
        wB = B @ B.conj().T
        trB = float(np.trace(wB).real)
        if trB > 1e-300:
            break
        # Measure-zero degenerate compression: move to a fresh substream.
        attempt += 1
        if isinstance(base, SeededStream):
            rng = base.substream(attempt).generator()

    wA = A @ A.conj().T
    large = DensityMatrix(ProductDims((d2, d2)), wA / float(np.trace(wA).real))
    small = DensityMatrix(ProductDims((d1, d1)), wB / trB)
    return CoupledPair(large, small, resamples=attempt)


def coupled_partial_trace(d: int, s: int, stream) -> CoupledPair:
    """Couple mu_{4d^2,s} on C^{2d}xC^{2d} with mu_{d^2,4s} on C^d x C^d.

    Writing C^{2d} = C^2 x C^d, the small state is the partial trace of the
    large one over the two qubit factors; the partial trace turns the
    environment dimension s into 4s and preserves PPT.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if s < 1:
        raise ValueError("s must be >= 1")
    large = sample_induced_state(4 * d * d, s, stream, dims=ProductDims((2 * d, 2 * d)))
    fine = ProductDims((2, d, 2, d))
    reduced = partial_trace(large.matrix, fine, keep=(1, 3))
    small = DensityMatrix(ProductDims((d, d)), reduced)
    return CoupledPair(large, small)


def draw_ensemble(spec: EnsembleSpec, stream):
    """Draw one sample described by an EnsembleSpec."""
    if spec.kind == "gue":
        return sample_gue(spec.n, stream)
    if spec.kind == "gue0":
        return sample_gue0(spec.n, stream)
    if spec.kind == "ginibre":
        return sample_ginibre(spec.n, spec.s, stream)
    return sample_induced_state(spec.n, spec.s, stream)
