"""Slower dual-route checks: each validates a core operation against a
structurally different reference implementation."""

import math

import numpy as np
from scipy.stats import ks_2samp

from entanglab.ensembles import sample_induced_state
from entanglab.linalg import ProductDims, hermitize, partial_trace, partial_transpose
from entanglab.rng import SeededStream, trial_generators
from entanglab.separability import _contracted_factor


def random_hermitian(rng, n):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitize(A)


def partial_trace_loop_oracle(H, dims, keep):
    """Element-wise reference: explicit sums over traced multi-indices."""
    ds = dims.factors
    k = len(ds)
    keep = sorted(keep)
    traced = [i for i in range(k) if i not in keep]
    nk = int(np.prod([ds[i] for i in keep]))
    out = np.zeros((nk, nk), dtype=complex)

    def multi(index, dims_):
        res = []
        for d in reversed(dims_):
            res.append(index % d)
            index //= d
        return list(reversed(res))

    def flat(idx, dims_):
        v = 0
        for i, d in zip(idx, dims_):
            v = v * d + i
        return v

    kept_dims = [ds[i] for i in keep]
    traced_dims = [ds[i] for i in traced]
    for r in range(nk):
        for c in range(nk):
            ridx = multi(r, kept_dims)
            cidx = multi(c, kept_dims)
            total = 0.0 + 0.0j
            for t in range(int(np.prod(traced_dims) or 1)):
                tidx = multi(t, traced_dims) if traced_dims else []
                full_r = [0] * k
                full_c = [0] * k
                for pos, i in enumerate(keep):
                    full_r[i] = ridx[pos]
                    full_c[i] = cidx[pos]
                for pos, i in enumerate(traced):
                    full_r[i] = tidx[pos]
                    full_c[i] = tidx[pos]
                total += H[flat(full_r, ds), flat(full_c, ds)]
            out[r, c] = total
    return out


def test_partial_trace_against_loop_oracle():
    rng = np.random.default_rng(0)
    for factors, keep in (((2, 3), [0]), ((2, 3), [1]), ((2, 2, 3), [0, 2]), ((2, 2, 2), [1])):
        dims = ProductDims(factors)
        H = random_hermitian(rng, dims.n)
        fast = partial_trace(H, dims, keep)
        slow = partial_trace_loop_oracle(H, dims, keep)
        assert np.allclose(fast, slow, atol=1e-12)


def partial_transpose_entry_oracle(H, dims, factor):
    """Entry-relabeling reference for the partial transpose."""
    ds = dims.factors
    k = len(ds)
    n = dims.n
    out = np.zeros_like(H)

    def multi(index):
        res = []
        for d in reversed(ds):
            res.append(index % d)
            index //= d
        return list(reversed(res))

    def flat(idx):
        v = 0
        for i, d in zip(idx, ds):
            v = v * d + i
        return v

    for r in range(n):
        for c in range(n):
            ridx, cidx = multi(r), multi(c)
            ridx[factor], cidx[factor] = cidx[factor], ridx[factor]
            out[flat(ridx), flat(cidx)] = H[r, c]
    return out


def test_partial_transpose_against_entry_oracle():
    rng = np.random.default_rng(1)
    for factors, factor in (((2, 3), 0), ((2, 3), 1), ((2, 2, 2), 1)):
        dims = ProductDims(factors)
        H = random_hermitian(rng, dims.n)
        assert np.allclose(
            partial_transpose(H, dims, factor),
            partial_transpose_entry_oracle(H, dims, factor),
            atol=1e-14,
        )


def induced_via_pure_state(n, s, rng):
    """Definitional route: partial-trace a uniform pure state on C^n x C^s."""
    psi = rng.standard_normal(n * s) + 1j * rng.standard_normal(n * s)
    psi /= np.linalg.norm(psi)
    M = psi.reshape(n, s)  # <i,a|psi>; tracing the environment gives M M^dagger
    return M @ M.conj().T


def test_induced_sampler_matches_pure_state_construction():
    # the Ginibre realization and the literal partial-trace construction
    # must produce the same distribution; two-sample KS on lambda_max
    n, s, trials = 4, 9, 3000
    a = np.empty(trials)
    b = np.empty(trials)
    for i, rng in enumerate(trial_generators(SeededStream(2), trials)):
        a[i] = np.linalg.eigvalsh(sample_induced_state(n, s, rng).matrix)[-1]
    for i, rng in enumerate(trial_generators(SeededStream(3), trials)):
        b[i] = np.linalg.eigvalsh(induced_via_pure_state(n, s, rng))[-1]
    assert ks_2samp(a, b).pvalue >= 0.01
    # and on lambda_min
    for i, rng in enumerate(trial_generators(SeededStream(4), trials)):
        a[i] = np.linalg.eigvalsh(sample_induced_state(n, s, rng).matrix)[0]
    for i, rng in enumerate(trial_generators(SeededStream(5), trials)):
        b[i] = np.linalg.eigvalsh(induced_via_pure_state(n, s, rng))[0]
    assert ks_2samp(a, b).pvalue >= 0.01


def test_contracted_factor_against_basis_loop():
    # M_j[a, b] must equal the expectation of A in the product vector with
    # factor j replaced by basis vectors e_a (bra) and e_b (ket)
    rng = np.random.default_rng(6)
    dims = ProductDims((2, 3, 2))
    A = random_hermitian(rng, dims.n)
    T = A.reshape(dims.factors + dims.factors)
    psis = []
    for d in dims.factors:
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        psis.append(v / np.linalg.norm(v))
    for j, dj in enumerate(dims.factors):
        M = _contracted_factor(T, psis, j)
        assert M.shape == (dj, dj)
        assert np.allclose(M, M.conj().T, atol=1e-12)
        for a in range(dj):
            for b in range(dj):
                bra = [psis[i] for i in range(dims.k)]
                ket = [psis[i] for i in range(dims.k)]
                bra[j] = np.eye(dj)[a]
                ket[j] = np.eye(dj)[b]
                vb = bra[0]
                vk = ket[0]
                for i in range(1, dims.k):
                    vb = np.kron(vb, bra[i])
                    vk = np.kron(vk, ket[i])
                expect = vb.conj() @ A @ vk
                assert abs(M[a, b] - expect) < 1e-12
    # a stack (R, d_i) of product vectors gives one matrix per row, each the
    # unbatched call's
    stack = []
    for d in dims.factors:
        v = rng.standard_normal((5, d)) + 1j * rng.standard_normal((5, d))
        stack.append(v / np.linalg.norm(v, axis=1, keepdims=True))
    for j, dj in enumerate(dims.factors):
        M = _contracted_factor(T, stack, j)
        assert M.shape == (5, dj, dj)
        for r in range(5):
            assert np.allclose(M[r], _contracted_factor(T, [p[r] for p in stack], j),
                               rtol=0, atol=1e-14)


def test_gue0_matches_projected_gue_distribution():
    # conditioning on trace zero = orthogonal projection of the Gaussian;
    # the trace-zero part of a GUE draw must match a direct trace-zero
    # Gaussian in distribution. Checked on the HS norm.
    from entanglab.ensembles import sample_gue, sample_gue0

    trials = 4000
    a = np.empty(trials)
    b = np.empty(trials)
    for i, rng in enumerate(trial_generators(SeededStream(7), trials)):
        G = sample_gue(6, rng)
        G = G - np.trace(G) / 6 * np.eye(6)
        a[i] = np.linalg.norm(G)
    for i, rng in enumerate(trial_generators(SeededStream(8), trials)):
        b[i] = np.linalg.norm(sample_gue0(6, rng))
    assert ks_2samp(a, b).pvalue >= 0.01
