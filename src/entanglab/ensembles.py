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
runs in buffers of the chunk of trials it belongs to. Every stacked kernel,
Ginibre, GUE and induced alike, takes its trials' normals from
`rng._normal_rows`, which says how a sub-batch is sized and filled, and
keeps only its transform. An induced trial's row holds its 2ns normals, real
parts first: z = [re; im]. One stacked matmul gives G = z z^T per trial, and
with A = (re + i im)/sqrt(2) the Gram product 2 A A^dagger is
(G11 + G22) + i (G21 - G12), written straight into the real and imaginary
views of the chunk's stack. The factor 2 cancels when the state is
normalized: its real and imaginary parts are divided by the real trace.
numpy runs the product of an array with its own transpose as a syrk, so G is
exactly symmetric and the Gram products exactly Hermitian; the stacked
matmul runs the same kernel on each slice as on a single matrix, so no byte
depends on the sub-batch size. Traceless draws subtract tr/n from the
stack's diagonals in place. The stacked kernels refuse n or s < 1 and, for
the projection coupling, anything but 2 <= d1 <= d2 before they allocate;
the public samplers and couplings run them on a chunk of one and add no
checks of their own.

`_ENSEMBLES` is the one place an ensemble is named: it maps each name (gue,
gue0, ginibre, induced, uniform) to its stacked kernel and whether it reads
s, and the two with a semicircle limit (gue0, induced) to the rescaled
spectra of their centered draws. `EnsembleSpec`, `draw_ensemble`, the
`sample` command and the spectral experiment read it through `_ensemble`,
which refuses any other name with the table's text and applies the s rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import log_znorm
from .linalg import ProductDims, _make_traceless, _require_size, hermitize, partial_trace, traceless_part
from .rng import _normal_rows, as_generator

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
        if self.dims is not None:
            _require_size(M, self.dims)
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
    """Which ensemble to draw from: a name of the ensemble table (gue, gue0,
    ginibre, induced or uniform), checked with s by `_ensemble`."""

    kind: str
    n: int
    s: int | None = None

    def __post_init__(self):
        _ensemble(self.kind, self.s)
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.kind == "uniform":
            object.__setattr__(self, "s", self.n)


def sample_gue(n: int, stream) -> np.ndarray:
    """Standard Gaussian self-adjoint n x n matrix (E ||A||_HS^2 = n^2)."""
    return _gue_states(n, [as_generator(stream)])[0]


def sample_gue0(n: int, stream) -> np.ndarray:
    """Trace-zero GUE: the standard Gaussian on traceless self-adjoint matrices."""
    return _make_traceless(sample_gue(n, stream))


def _gue_states(n: int, gens: list) -> np.ndarray:
    """Stack of GUE matrices, one per generator. A trial's row of normals is
    its diagonal and then the real and imaginary parts of a full n x n block,
    whose strict upper triangle, its conjugate below it and the diagonal are
    assembled once per sub-batch."""
    if n < 1:
        raise ValueError("n must be >= 1")
    fill = _normal_rows(gens, (n + 2 * n * n,), 16 * n * n)  # and the gathered triangle
    G = np.empty((len(gens), n, n), dtype=complex)
    lower, i = np.tri(n, k=-1, dtype=bool), np.arange(n)
    for b, z in fill:
        Gb = G[b:b + len(z)]
        Gb.real, Gb.imag = np.moveaxis(z[:, n:].reshape(-1, 2, n, n), 1, 0)
        scaled = Gb.view(np.float64)
        scaled *= _INV_SQRT2
        Gb[:, lower] = np.swapaxes(Gb, -1, -2)[:, lower].conj()
        Gb[:, i, i] = z[:, :n]
    return G


def _gue0_states(n: int, gens) -> np.ndarray:
    """Stack of trace-zero GUE matrices, bit-identical to `sample_gue0` of
    each generator."""
    return _make_traceless(_gue_states(n, gens))


def sample_ginibre(n: int, s: int, stream) -> np.ndarray:
    """n x s matrix of i.i.d. N_C(0,1) entries: the stream's 2ns normals,
    real parts first, each times the rounded reciprocal 1/sqrt(2). That
    product is what numpy computes for a complex array divided by
    np.sqrt(2), so the result holds the bytes of (re + 1j*im) / np.sqrt(2)."""
    return _ginibre_stack(n, s, [as_generator(stream)])[0]


def _ginibre_stack(n: int, s: int, gens: list) -> np.ndarray:
    """Stack of n x s Ginibre matrices, one per generator: their normals times 1/sqrt(2)."""
    if n < 1 or s < 1:
        raise ValueError("n and s must be >= 1")
    fill = _normal_rows(gens, (2, n, s), 16 * n * s)  # and the trial's A
    A = np.empty((len(gens), n, s), dtype=complex)
    for b, z in fill:
        Ab = A[b:b + len(z)]
        np.multiply(z[:, 0], _INV_SQRT2, out=Ab.real)
        np.multiply(z[:, 1], _INV_SQRT2, out=Ab.imag)
    return A


def sample_induced_state(
    n: int, s: int, stream, dims: ProductDims | None = None
) -> DensityMatrix:
    """Random state on C^n induced by an s-dimensional environment."""
    rho = _induced_states(n, s, [as_generator(stream)])[0]
    if dims is None and n >= 2:
        dims = ProductDims((n,))
    return DensityMatrix(dims, rho)


def _wishart_stack(n: int, s: int, gens: list) -> np.ndarray:
    """Gram products W = 2 A A^dagger, one Ginibre draw A per generator, from
    the real Gram products G = z z^T of their normals, a sub-batch at a time
    (see the module docstring). The buffers are freed on return."""
    if n < 1 or s < 1:
        raise ValueError("n and s must be >= 1")
    # and a trial's real Gram product and the ufunc buffers of the combine's two n x n reads
    fill = _normal_rows(gens, (2 * n, s), 32 * n * n + 16 * n * n)
    W = np.empty((len(gens), n, n), dtype=complex)
    for b, z in fill:
        if b == 0:  # the first sub-batch is the largest
            G = np.empty((len(z), 2 * n, 2 * n))
        Gb, Wb = G[:len(z)], W[b:b + len(z)]
        np.matmul(z, np.swapaxes(z, -1, -2), out=Gb)
        np.add(Gb[:, :n, :n], Gb[:, n:, n:], out=Wb.real)
        np.subtract(Gb[:, n:, :n], Gb[:, :n, n:], out=Wb.imag)
    return W


def _unit_trace(W: np.ndarray) -> np.ndarray:
    """States from a C-contiguous stack of Gram products: real and imaginary
    parts divided by the real trace in place. The Gram products are exactly
    Hermitian (see the module docstring), and so are their quotients."""
    parts = W.view(np.float64)
    parts /= np.trace(W.real, axis1=-2, axis2=-1)[:, None, None]
    return W


def _induced_states(n: int, s: int, gens: list) -> np.ndarray:
    """Stack of induced states, one per generator."""
    return _unit_trace(_wishart_stack(n, s, gens))


def _centered_induced_states(n: int, s: int, gens) -> np.ndarray:
    """Stack of rho - Id/n for the induced states of `_induced_states`."""
    return _make_traceless(_induced_states(n, s, gens))


def sample_uniform_state(n: int, stream, dims: ProductDims | None = None) -> DensityMatrix:
    """Uniform (Hilbert-Schmidt) random state: induced with s = n."""
    return sample_induced_state(n, n, stream, dims=dims)


def induced_log_density(rho: DensityMatrix, s: float) -> float:
    """Log density of the induced measure at rho, (s-n) log det rho - log Z.

    Real s >= n is allowed. Returns -inf for singular rho when s > n.
    """
    n = rho.n
    log_z = log_znorm(n, s)  # refuses s < n
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


def _projection_pairs(d1: int, d2: int, s: int, gens: list) -> tuple[np.ndarray, np.ndarray, int]:
    """Stacks of the small and the large states of `coupled_local_projection`,
    one pair per generator, and the count of degenerate compressions redrawn
    from the same generator."""
    small, large, resamples = _projection_grams(d1, d2, s, gens)
    return _unit_trace(small), _unit_trace(large), resamples


def _projection_grams(d1: int, d2: int, s: int, gens: list) -> tuple[np.ndarray, np.ndarray, int]:
    """The Gram products behind `_projection_pairs`: of all rows of each draw,
    and its principal submatrix at the kept rows. After the chunk's draws, a
    trial whose kept block has zero trace is redrawn alone from its generator
    until it has not."""
    if not (2 <= d1 <= d2):
        raise ValueError("need 2 <= d1 <= d2")
    n = d2 * d2
    rows = (d2 * np.arange(d1)[:, None] + np.arange(d1)).ravel()

    def kept(W):  # a contiguous copy, which `_unit_trace` divides in place
        return W.take(rows, axis=-2).take(rows, axis=-1)

    large = _wishart_stack(n, s, gens)
    small = kept(large)
    resamples = 0
    for t in np.flatnonzero(np.trace(small.real, axis1=-2, axis2=-1) <= 1e-300):
        while np.trace(small[t].real) <= 1e-300:
            resamples += 1
            large[t] = _wishart_stack(n, s, gens[t:t + 1])[0]
            small[t] = kept(large[t])
    return small, large, resamples


def _partial_trace_pairs(d: int, s: int, gens) -> tuple[np.ndarray, np.ndarray]:
    """Stacks of the small and the large states of `coupled_partial_trace`,
    one pair per generator."""
    if d < 2:  # before the draw
        raise ValueError("d must be >= 2")
    large = _induced_states(4 * d * d, s, gens)
    return partial_trace(large, ProductDims((2, d, 2, d)), keep=(1, 3)), large


def coupled_local_projection(d1: int, d2: int, s: int, stream) -> CoupledPair:
    """Couple mu_{d2^2,s} on C^{d2}xC^{d2} with mu_{d1^2,s} on C^{d1}xC^{d1}.

    The small state is the compression of the large one to the leading
    d1-dimensional local subspaces, renormalized. Separability of the large
    state implies separability of the small one (local operations cannot
    create entanglement). Rows of the underlying Ginibre matrix with both
    local coordinates below d1 are themselves i.i.d. Ginibre, so the small
    state carries exactly the d1-system induced distribution. A degenerate
    compression (measure zero) is redrawn and counted in `resamples`.
    """
    small, large, resamples = _projection_pairs(d1, d2, s, [as_generator(stream)])
    return CoupledPair(DensityMatrix(ProductDims((d2, d2)), large[0]),
                       DensityMatrix(ProductDims((d1, d1)), small[0]), resamples)


def coupled_partial_trace(d: int, s: int, stream) -> CoupledPair:
    """Couple mu_{4d^2,s} on C^{2d}xC^{2d} with mu_{d^2,4s} on C^d x C^d.

    Writing C^{2d} = C^2 x C^d, the small state is the partial trace of the
    large one over the two qubit factors; the partial trace turns the
    environment dimension s into 4s and preserves PPT.
    """
    small, large = _partial_trace_pairs(d, s, [as_generator(stream)])
    return CoupledPair(DensityMatrix(ProductDims((2 * d, 2 * d)), large[0]),
                       DensityMatrix(ProductDims((d, d)), small[0]))


def _gue0_spectra(n: int, s: None, gens) -> np.ndarray:
    """Spectra of a chunk's trace-zero GUE draws over sqrt(n)."""
    return np.linalg.eigvalsh(_gue0_states(n, gens)) / math.sqrt(n)


def _induced_spectra(n: int, s: int, gens) -> np.ndarray:
    """Spectra of a chunk's centered induced states times sqrt(ns)."""
    return np.linalg.eigvalsh(_centered_induced_states(n, s, gens)) * math.sqrt(n * s)


@dataclass(frozen=True)
class _Ensemble:
    kernel: Callable[..., np.ndarray]  # (n, s, gens) -> a stack of one draw per generator
    reads_s: bool
    states: bool = False  # an induced state: `draw_ensemble` returns a DensityMatrix
    # (n, s, gens) -> rescaled spectra of centered draws, for a semicircle limit
    spectra: Callable[..., np.ndarray] | None = None


_ENSEMBLES = {
    "gue": _Ensemble(lambda n, s, gens: _gue_states(n, gens), reads_s=False),
    "gue0": _Ensemble(lambda n, s, gens: _gue0_states(n, gens), reads_s=False,
                      spectra=_gue0_spectra),
    "ginibre": _Ensemble(_ginibre_stack, reads_s=True),
    "induced": _Ensemble(_induced_states, reads_s=True, states=True, spectra=_induced_spectra),
    "uniform": _Ensemble(lambda n, s, gens: _induced_states(n, n, gens), reads_s=False,
                         states=True),
}


def _ensemble(name, s: int | None, table: dict = _ENSEMBLES) -> _Ensemble:
    """Entry `name` of `table`; the one check of an ensemble name. Raises, naming the
    table's names, unless `name` is one of them, or if `s` breaks the entry's s rule:
    s >= 1 for an entry that reads it, None for any other."""
    if not isinstance(name, str) or name not in table:
        raise ValueError(f"'ensemble' must be {' or '.join(map(repr, sorted(table)))}")
    if table[name].reads_s and (s is None or s < 1):
        raise ValueError(f"{name} requires s >= 1")
    if not table[name].reads_s and s is not None:
        readers = sorted(k for k, entry in table.items() if entry.reads_s)
        raise ValueError(f"'s' applies only to the {' and '.join(readers)} ensemble"
                         + "s" * (len(readers) > 1))
    return table[name]


def draw_ensemble(spec: EnsembleSpec, stream):
    """Draw one sample described by an EnsembleSpec: its ensemble's kernel on a
    chunk of one, or a state as `sample_induced_state` draws it."""
    if _ENSEMBLES[spec.kind].states:
        return sample_induced_state(spec.n, spec.s, stream)  # uniform's spec.s is n
    return _ENSEMBLES[spec.kind].kernel(spec.n, spec.s, [as_generator(stream)])[0]
