import math
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from conftest import traced_peak
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

import entanglab.rng
from entanglab import ensembles
from entanglab.ensembles import (
    DensityMatrix,
    EnsembleSpec,
    _centered_induced_states,
    _gue0_states,
    _induced_states,
    _partial_trace_pairs,
    _projection_pairs,
    coupled_local_projection,
    coupled_partial_trace,
    draw_ensemble,
    induced_log_density,
    sample_ginibre,
    sample_gue,
    sample_gue0,
    sample_induced_state,
    sample_uniform_state,
)
from entanglab.geometry import log_znorm
from entanglab.linalg import ProductDims, hs_norm
from entanglab.rng import (
    SeededStream,
    _chunks,
    _trial_seed_words,
    _TrialSeed,
    as_generator,
    split_stream,
    trial_generators,
)
from entanglab.separability import is_separable_exact


def fixed_unitary(n, seed=123):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


# -- streams ---------------------------------------------------------------------


def test_stream_determinism():
    a = sample_gue(6, SeededStream(99, 3))
    b = sample_gue(6, SeededStream(99, 3))
    assert np.array_equal(a, b)
    c = sample_gue(6, SeededStream(99, 4))
    assert not np.array_equal(a, c)


def test_substreams_are_distinct():
    s = SeededStream(7)
    draws = {sample_gue(3, s.substream(i)).tobytes() for i in range(20)}
    assert len(draws) == 20
    with pytest.raises(ValueError):
        SeededStream(-1)
    with pytest.raises(TypeError):
        as_generator("not a stream")


BAD_ADDRESSES = {
    "negative substream": (lambda: SeededStream(3).substream(-1), ValueError),
    "negative stream index": (lambda: SeededStream(3, -1), ValueError),
    "negative subpath entry": (lambda: SeededStream(3, 0, (1, -2)), ValueError),
    "float master seed": (lambda: SeededStream(3.5), TypeError),
    "float sibling": (lambda: SeededStream(3).stream(1.0), TypeError),
    "float subpath entry": (lambda: SeededStream(3, 0, (2.0,)), TypeError),
}


@pytest.mark.parametrize("case", sorted(BAD_ADDRESSES))
def test_seeded_stream_rejects_bad_address_when_built(case):
    build, error = BAD_ADDRESSES[case]
    with pytest.raises(error):
        build()


def test_seeded_stream_stores_python_ints():
    s = SeededStream(np.int64(7), np.uint8(2), [np.int32(5)])
    assert s == SeededStream(7, 2, (5,))
    assert all(type(k) is int for k in (s.master_seed, s.stream_index, *s.subpath))


STREAM_TAKERS = {
    "as_generator": lambda stream: [as_generator(stream)],
    "trial_generators": lambda stream: list(trial_generators(stream, 3)),
    "split_stream": lambda stream: split_stream(stream, 3),
}


@pytest.mark.parametrize("taker", sorted(STREAM_TAKERS))
def test_stream_coercion(taker):
    take = STREAM_TAKERS[taker]

    def draws(sources):
        return [as_generator(src).standard_normal(3).tobytes() for src in sources]

    # an int k is SeededStream(k)
    assert draws(take(7)) == draws(take(np.int64(7))) == draws(take(SeededStream(7)))
    # a raw Generator is shared, not copied
    rng = np.random.default_rng(7)
    assert all(src is rng for src in take(rng))
    for bad in (3.5, "7"):
        with pytest.raises(TypeError):
            take(bad)


def test_trial_generators_match_substreams():
    s = SeededStream(11)
    via_iter = [sample_gue(2, g) for g in trial_generators(s, 3)]
    via_sub = [sample_gue(2, s.substream(i)) for i in range(3)]
    for a, b in zip(via_iter, via_sub):
        assert np.array_equal(a, b)


def test_trial_generators_fit_their_byte_count():
    # the bytes each generator of a full n = 1 chunk holds, its row of seed
    # words included: chunks are sized by this count, so a numpy release
    # whose generators outgrow it fails here
    trials = entanglab.rng._batch_size(entanglab.rng._trial_bytes(1))
    list(trial_generators(SeededStream(1), trials))  # first-use allocations
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        gens = list(trial_generators(SeededStream(2), trials))
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(gens) == trials and held <= trials * entanglab.rng._GENERATOR_BYTES, held / trials


def test_trial_seed_words_peak_near_their_own_bytes():
    # a full block's derivation holds its uint32 state columns, their stack
    # and the words it returns, which are that stack reinterpreted, not copied
    s = SeededStream(7, 3, (1, 2))
    _trial_seed_words(s, 0, entanglab.rng._BLOCK)  # first-use allocations
    words, peak = traced_peak(lambda: _trial_seed_words(s, 0, entanglab.rng._BLOCK))
    assert words.nbytes == 32 << 10 and peak <= 3.25 * words.nbytes, peak / words.nbytes


def test_trial_seed_words_refuse_indices_past_32_bits():
    s = SeededStream(11, 2, (3,))
    last = _trial_seed_words(s, 2**32 - 1, 2**32)[0]
    want = np.random.PCG64(s.substream(2**32 - 1)._seed_sequence())
    assert np.random.PCG64(_TrialSeed(last, s, 2**32 - 1)).state == want.state
    with pytest.raises(ValueError, match="2\\*\\*32"):
        _trial_seed_words(s, 2**32 - 1, 2**32 + 1)


# -- draw oracle ------------------------------------------------------------------
# The documented draws, written out here rather than imported from the package:
# every sampler, stacked or not, must reproduce them byte for byte.


def _ginibre_oracle(n, s, rng):
    re = rng.standard_normal((n, s))
    im = rng.standard_normal((n, s))
    return (re + 1j * im) / np.sqrt(2)


def _gue_oracle(n, rng):
    diag = rng.standard_normal(n)
    off = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    A = np.zeros((n, n), dtype=complex)
    iu = np.triu_indices(n, k=1)
    A[iu] = off[iu]
    A = A + A.conj().T
    A[np.diag_indices(n)] = diag
    return A


def _traceless_oracle(A):
    n = A.shape[0]
    return A - np.trace(A) / n * np.eye(n, dtype=complex)


def _wishart_oracle(n, s, rng):
    """2 A A^dagger for the Ginibre draw A = (re + 1j*im) / sqrt(2) of the same
    normals, from the real Gram product G = z z^T of z = [re; im]:
    (G11 + G22) + i (G21 - G12)."""
    z = rng.standard_normal((2 * n, s))
    G = z @ z.T
    W = np.empty((n, n), dtype=complex)
    W.real = G[:n, :n] + G[n:, n:]
    W.imag = G[n:, :n] - G[:n, n:]
    return W


def _state_oracle(W):
    """The state of a Gram product: its real and imaginary parts divided by
    its real trace, hermitized."""
    rho = (W.view(float) / np.trace(W.real)).view(complex)
    return (rho + rho.conj().T) / 2


def _induced_oracle(n, s, rng):
    return _state_oracle(_wishart_oracle(n, s, rng))


def _kept_rows(d1, d2):
    """Rows of a d2 x d2 draw with both local coordinates below d1."""
    return [i * d2 + j for i in range(d1) for j in range(d1)]


def _projection_dims(n):
    """(d1, d2) of the local-projection coupling drawn at size n."""
    d2 = 2 + n % 3
    return min(d2, 2 + n % 2), d2


def _projection_oracle(d1, d2, s, rng):
    """The states of the Gram product of one draw and of its principal
    submatrix at the kept rows, flattened into one row: small, large."""
    W = _wishart_oracle(d2 * d2, s, rng)
    rows = _kept_rows(d1, d2)
    return np.concatenate([_state_oracle(B).ravel() for B in (W[np.ix_(rows, rows)], W)])


def _partial_trace_oracle(d, s, rng):
    """An induced state on C^2 x C^d x C^2 x C^d and its explicit partial
    trace over the two qubit factors, flattened into one row: small, large."""
    rho = _induced_oracle(4 * d * d, s, rng)
    small = np.einsum("iajbicjd->abcd", rho.reshape((2, d) * 4)).reshape(d * d, d * d)
    return np.concatenate([small.ravel(), rho.ravel()])


def _pair_rows(small, large, *resamples):
    """A coupling's two stacks as rows of the oracles' form; a resample
    count, if given, is dropped."""
    return np.concatenate([small.reshape(len(small), -1), large.reshape(len(large), -1)], axis=1)


# name: (stacked sampler (n, s, gens), oracle of one trial (n, s, rng)); a
# coupling maps n to its dims and draws rows of its small and large states
STACKED_DRAWS = {
    "induced": (_induced_states, _induced_oracle),
    "centered_induced": (
        _centered_induced_states, lambda n, s, rng: _traceless_oracle(_induced_oracle(n, s, rng))),
    "gue0": (
        lambda n, s, gens: _gue0_states(n, gens),
        lambda n, s, rng: _traceless_oracle(_gue_oracle(n, rng))),
    "projection_pairs": (
        lambda n, s, gens: _pair_rows(*_projection_pairs(*_projection_dims(n), s, gens)),
        lambda n, s, rng: _projection_oracle(*_projection_dims(n), s, rng)),
    "partial_trace_pairs": (
        lambda n, s, gens: _pair_rows(*_partial_trace_pairs(2 + n % 2, s, gens)),
        lambda n, s, rng: _partial_trace_oracle(2 + n % 2, s, rng)),
    "ginibre": (ensembles._ginibre_stack, _ginibre_oracle),
}


@settings(max_examples=40, deadline=None, database=None)
@given(shapes=st.lists(st.tuples(st.integers(1, 9), st.integers(1, 70)), min_size=2, max_size=2),
       trials=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
@example(shapes=[(9, 2), (1, 70)], trials=3, seed=0)
@example(shapes=[(2, 9), (9, 1)], trials=1, seed=1)
def test_draws_match_documented_formulas(shapes, trials, seed):
    # the second shape is drawn after the first, so a workspace left over
    # from one call would show in the next
    for k, (n, s) in enumerate(shapes):
        sub = SeededStream(seed).substream(k)
        for sample, oracle in (
            (partial(sample_ginibre, n, s), partial(_ginibre_oracle, n, s)),
            (partial(sample_gue, n), partial(_gue_oracle, n)),
            (partial(sample_gue0, n), lambda rng: _traceless_oracle(_gue_oracle(n, rng))),
            (lambda stream: sample_induced_state(n, s, stream).matrix, partial(_induced_oracle, n, s)),
        ):
            assert sample(sub).tobytes() == oracle(sub.generator()).tobytes()
        for name, (stacked, oracle) in STACKED_DRAWS.items():
            ref = [oracle(n, s, rng).tobytes() for rng in trial_generators(sub, trials)]
            for size in sorted({1, 2, max(trials - 1, 1), trials + 1}):
                gens = list(trial_generators(sub, trials))
                got = np.concatenate([stacked(n, s, gens[i:i + size])
                                      for i in range(0, trials, size)])
                assert [x.tobytes() for x in got] == ref, (name, n, s, size)


def _gram_trial(rows):
    """Bytes of an induced trial's sub-batch buffers at n x s, whose Gram
    product has rows(n) rows: its normals (2 rows(n) x s), real Gram product
    (2 rows(n) square) and the ufunc buffers of the combine (two rows(n)
    square)."""
    return lambda n, s: 16 * rows(n) * s + 48 * rows(n) ** 2


# bytes of one trial's sub-batch buffers behind each stacked sampler at n x s
TRIAL_BYTES = {
    "induced": _gram_trial(lambda n: n),
    "centered_induced": _gram_trial(lambda n: n),
    "projection_pairs": _gram_trial(lambda n: _projection_dims(n)[1] ** 2),
    "partial_trace_pairs": _gram_trial(lambda n: 4 * (2 + n % 2) ** 2),
    "ginibre": lambda n, s: 32 * n * s,  # its 2ns normals and its n x s matrix
    "gue0": lambda n, s: 8 * (n + 2 * n * n) + 16 * n * n,  # its normals and gathered triangle
}


def _hooked(hook):
    """The normals fill, calling hook(rows, batch) with each sub-batch's rows
    and generators once they are drawn."""
    def fill(gens, shape, extra):
        for b, rows in entanglab.rng._normal_rows(gens, shape, extra):
            hook(rows, gens[b:b + len(rows)])
            yield b, rows

    return fill


@settings(max_examples=30, deadline=None, database=None)
@given(n=st.integers(1, 9), s=st.integers(1, 70), trials=st.integers(3, 7),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=9, s=70, trials=7, seed=0)
@example(n=1, s=1, trials=3, seed=1)
def test_sub_batches_keep_every_byte(n, s, trials, seed):
    # chunk budgets that split a chunk's draws into sub-batches of 1 and 2
    # trials, of trials - 1 (a ragged last one) and of the whole chunk
    sub = SeededStream(seed)
    for name, trial_bytes in TRIAL_BYTES.items():
        stacked, oracle = STACKED_DRAWS[name]
        ref = [oracle(n, s, rng).tobytes() for rng in trial_generators(sub, trials)]
        for k in sorted({1, 2, trials - 1, trials}):
            budget, draw = k * trial_bytes(n, s), mock.Mock()
            with mock.patch.object(entanglab.rng, "_CHUNK_BYTES", budget), \
                    mock.patch.object(ensembles, "_normal_rows", _hooked(draw)):
                got = stacked(n, s, list(trial_generators(sub, trials)))
            assert draw.call_count == -(-trials // k), (name, n, s, k)
            assert [x.tobytes() for x in got] == ref, (name, n, s, k)


def _complex_state_oracle(n, s, rng):
    """The induced state of the complex formula: A = (re + 1j*im) / sqrt(2),
    then A A^dagger / tr."""
    A = _ginibre_oracle(n, s, rng)
    W = A @ A.conj().T
    return W / np.trace(W).real


@settings(max_examples=40, deadline=None, database=None)
@given(n=st.integers(1, 9), s=st.integers(1, 70), trials=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=64, s=256, trials=2, seed=0)
def test_real_gram_states_match_the_complex_formula(n, s, trials, seed):
    # the real Gram product of the normals is the complex one up to rounding,
    # and exactly Hermitian, as are the states drawn from it: no pass
    # hermitizes them
    def gens():
        return list(trial_generators(SeededStream(seed), trials))

    def hermitian(stack):
        return np.array_equal(stack, np.swapaxes(stack.conj(), -1, -2))

    assert hermitian(ensembles._wishart_stack(n, s, gens()))
    small, large, _ = _projection_pairs(*_projection_dims(n), s, gens())
    assert hermitian(small) and hermitian(large)
    rho = _induced_states(n, s, gens())
    assert hermitian(rho)
    ref = np.stack([_complex_state_oracle(n, s, rng) for rng in gens()])
    scale = np.abs(rho).max(axis=(1, 2))
    assert np.all(np.abs(rho - ref).max(axis=(1, 2)) <= 1e-13 * scale)


@pytest.mark.parametrize("d1, d2, s, trials", [
    (2, 3, 40, 60), (4, 8, 200, 2), (2, 3, 64, 202), (4, 8, 200, 4), (2, 2, 8, 1024),
    (2, 3, 64, 112), (4, 8, 200, 3), (2, 2, 8, 204)])
def test_draw_buffers_stay_within_the_chunk_budget(d1, d2, s, trials):
    # beyond its outputs, a chunk's draw holds at most the larger of the chunk
    # budget and one trial's two n x s buffers: several trials per sub-batch
    # at 9 x 40 and 9 x 64, one at 64 x 200; the last three inputs are full
    # chunks (`rng._chunks`), and the three before them hold more trials
    # than a chunk. The traceless draws project the drawn stack in place.
    n = d2 * d2
    bound = max(entanglab.rng._CHUNK_BYTES, 32 * n * s) + (16 << 10)
    gens = list(trial_generators(SeededStream(37), trials))
    for draw in (ensembles._wishart_stack, _induced_states, _centered_induced_states):
        W, peak = traced_peak(lambda: draw(n, s, gens))
        assert peak - W.nbytes <= bound, draw.__name__
    G, peak = traced_peak(lambda: _gue0_states(n, gens))
    assert peak - G.nbytes <= bound
    out, peak = traced_peak(lambda: _projection_pairs(d1, d2, s, gens))
    assert peak - out[0].nbytes - out[1].nbytes <= bound


def test_trials_over_the_byte_limit_are_refused_before_allocating(monkeypatch):
    # at a 1 MiB limit, a 64 x 4096 draw (4 MiB of normals), a GUE draw at
    # n = 256 (1 MiB of normals and 1 MiB of gathered triangle) and a chunk
    # trial at n = 512 (4 MiB of matrix) are refused before their buffers exist
    monkeypatch.setattr(entanglab.rng, "_TRIAL_BYTES_MAX", 1 << 20)
    gens = list(trial_generators(SeededStream(38), 1))
    for call in (lambda: ensembles._wishart_stack(64, 4096, gens),
                 lambda: ensembles._gue_states(256, gens),
                 lambda: next(_chunks(lambda g: np.zeros(len(g)), SeededStream(38), 1, 512)),
                 lambda: sample_ginibre(64, 4096, 1)):

        def refused():
            with pytest.raises(ValueError, match="over the limit"):
                call()

        _, peak = traced_peak(refused)
        assert peak < 64 << 10, peak


# -- GUE / Ginibre ----------------------------------------------------------------


def test_gue_is_hermitian_and_moment():
    # E ||A||_HS^2 = n^2, the real dimension of the self-adjoint matrices
    n, trials = 8, 10000
    vals = np.empty(trials)
    for i, rng in enumerate(trial_generators(SeededStream(1), trials)):
        A = sample_gue(n, rng)
        if i == 0:
            assert np.allclose(A, A.conj().T)
        vals[i] = hs_norm(A) ** 2
    se = vals.std(ddof=1) / math.sqrt(trials)
    assert abs(vals.mean() - n * n) <= 3 * se


def test_gue_n1_is_standard_normal():
    draws = np.array([sample_gue(1, r)[0, 0].real for r in trial_generators(SeededStream(2), 4000)])
    assert abs(draws.mean()) <= 3 / math.sqrt(4000)
    assert abs(draws.std() - 1) < 0.05
    assert sample_gue0(1, SeededStream(3))[0, 0] == 0.0


def test_gue0_trace_zero_and_moment():
    n, trials = 8, 10000
    vals = np.empty(trials)
    for i, rng in enumerate(trial_generators(SeededStream(4), trials)):
        G = sample_gue0(n, rng)
        if i < 100:
            assert abs(np.trace(G)) <= 1e-12
        vals[i] = hs_norm(G) ** 2
    se = vals.std(ddof=1) / math.sqrt(trials)
    assert abs(vals.mean() - (n * n - 1)) <= 3 * se


def test_gue_unitary_invariance():
    # two-sample KS on lambda_max between A and U A U^dagger draws
    n, trials = 6, 2000
    U = fixed_unitary(n)
    plain = np.empty(trials)
    conj = np.empty(trials)
    for i, rng in enumerate(trial_generators(SeededStream(5), trials)):
        plain[i] = np.linalg.eigvalsh(sample_gue(n, rng))[-1]
    for i, rng in enumerate(trial_generators(SeededStream(6), trials)):
        conj[i] = np.linalg.eigvalsh(U @ sample_gue(n, rng) @ U.conj().T)[-1]
    assert ks_2samp(plain, conj).pvalue >= 0.01


def test_ginibre_shape_and_moments():
    A = sample_ginibre(3, 5, SeededStream(7))
    assert A.shape == (3, 5)
    rng = SeededStream(8).generator()
    big = sample_ginibre(200, 500, rng)
    m2 = np.abs(big) ** 2
    se = m2.std(ddof=1) / math.sqrt(m2.size)
    assert abs(m2.mean() - 1.0) <= 3 * se


# -- induced states ----------------------------------------------------------------


def test_induced_state_basic():
    rho = sample_induced_state(4, 7, SeededStream(9), dims=ProductDims((2, 2)))
    assert abs(np.trace(rho.matrix) - 1) < 1e-12
    assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-12 * 4
    one = sample_induced_state(1, 3, SeededStream(10))
    assert one.matrix.shape == (1, 1) and one.matrix[0, 0] == pytest.approx(1.0)


def test_induced_state_mean_is_maximally_mixed():
    n, s, trials = 4, 8, 10000
    acc = np.zeros((n, n), dtype=complex)
    for rng in trial_generators(SeededStream(11), trials):
        acc += sample_induced_state(n, s, rng).matrix
    mean = acc / trials
    # entrywise 3-sigma in the rough scale 1/(n sqrt(trials))
    assert np.max(np.abs(mean - np.eye(n) / n)) <= 3 / (n * math.sqrt(trials))


def purity_oracle(n, s, trials, seed):
    """Separately coded estimator of E tr(rho^2), straight from the Ginibre
    construction in one vectorized batch."""
    rng = np.random.default_rng(seed)
    A = (rng.standard_normal((trials, n, s)) + 1j * rng.standard_normal((trials, n, s))) / math.sqrt(2)
    W = A @ np.conj(np.swapaxes(A, 1, 2))
    tr = np.trace(W, axis1=1, axis2=2).real
    purity = np.einsum("tij,tji->t", W, W).real / tr**2
    return purity.mean(), purity.std(ddof=1) / math.sqrt(trials)


def test_induced_purity_moment():
    # E tr rho^2 = (n+s)/(ns+1); the Bloch-ball moment at n=s=2 gives
    # 1 - 2 E det rho = 4/5, matching the same formula
    mean, se = purity_oracle(2, 2, 100000, 123)
    assert abs(mean - 0.8) <= 3 * se

    n, s, trials = 4, 4, 100000
    mean, se = purity_oracle(n, s, trials, 124)
    assert abs(mean - (n + s) / (n * s + 1)) <= 3 * se

    # the sampler agrees with the separately coded estimator
    vals = np.empty(2000)
    for i, rng in enumerate(trial_generators(SeededStream(12), 2000)):
        rho = sample_induced_state(n, s, rng)
        vals[i] = np.trace(rho.matrix @ rho.matrix).real
    se2 = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - (n + s) / (n * s + 1)) <= 3 * se2


def test_induced_rank_equals_min_n_s():
    for n, s, seed in ((4, 2, 13), (3, 5, 14)):
        for rng in trial_generators(SeededStream(seed), 10000):
            lam = np.linalg.eigvalsh(sample_induced_state(n, s, rng).matrix)
            assert np.sum(lam > 1e-10) == min(n, s)


def test_induced_unitary_invariance():
    n, s, trials = 4, 6, 2000
    U = fixed_unitary(n)
    plain = np.empty(trials)
    conj = np.empty(trials)
    for i, rng in enumerate(trial_generators(SeededStream(15), trials)):
        plain[i] = np.linalg.eigvalsh(sample_induced_state(n, s, rng).matrix)[-1]
    for i, rng in enumerate(trial_generators(SeededStream(16), trials)):
        M = sample_induced_state(n, s, rng).matrix
        conj[i] = np.linalg.eigvalsh(U @ M @ U.conj().T)[-1]
    assert ks_2samp(plain, conj).pvalue >= 0.01


def test_pure_states_on_two_qubits_never_separable():
    # environment dimension 1: pure bipartite states, separable with
    # probability zero
    hits = 0
    for rng in trial_generators(SeededStream(17), 10000):
        rho = sample_induced_state(4, 1, rng, dims=ProductDims((2, 2)))
        hits += is_separable_exact(rho)
    assert hits == 0


# -- density -----------------------------------------------------------------------


def test_induced_log_density():
    rho = DensityMatrix(None, np.eye(2) / 2)
    # s = n: constant density
    assert induced_log_density(rho, 2) == pytest.approx(-log_znorm(2, 2))
    # frozen: log(0.25) - log Z(2,3) = log(0.25 * 30 / (pi sqrt 2))
    expect = math.log(0.25) - math.log(math.pi * math.sqrt(2) / 30)
    assert induced_log_density(rho, 3) == pytest.approx(expect, abs=1e-12)
    assert expect == pytest.approx(0.5236, abs=2e-4)

    with pytest.raises(ValueError):
        induced_log_density(rho, 1.5)
    singular = DensityMatrix(None, np.diag([1.0, 0.0]))
    assert induced_log_density(singular, 3) == -math.inf
    # real s is allowed
    assert np.isfinite(induced_log_density(rho, 2.5))


def test_log_density_maximized_at_maximally_mixed():
    rng = np.random.default_rng(18)
    n, s = 3, 6.0
    center = DensityMatrix(None, np.eye(n) / n)
    best = induced_log_density(center, s)
    for r in trial_generators(SeededStream(19), 50):
        rho = sample_induced_state(n, 9, r)
        assert induced_log_density(rho, s) <= best + 1e-12


# -- coupled samplers ---------------------------------------------------------------


def test_coupled_projection_trivial_case():
    pair = coupled_local_projection(3, 3, 9, SeededStream(20))
    assert np.allclose(pair.large.matrix, pair.small.matrix, atol=1e-12)
    assert pair.resamples == 0


def test_coupled_projection_traces_and_dims():
    pair = coupled_local_projection(2, 3, 12, SeededStream(21))
    assert pair.large.dims.factors == (3, 3)
    assert pair.small.dims.factors == (2, 2)
    assert abs(np.trace(pair.large.matrix) - 1) < 1e-12
    assert abs(np.trace(pair.small.matrix) - 1) < 1e-12
    with pytest.raises(ValueError):
        coupled_local_projection(3, 2, 5, SeededStream(0))


# the normals of the rows kept at d1 = 2, d2 = 3: real parts, then imaginary
KEPT_NORMALS = _kept_rows(2, 3) + [9 + r for r in _kept_rows(2, 3)]


def test_coupled_projection_int_seed_resamples_like_its_stream(monkeypatch):
    # a degenerate compression is redrawn from the same generator, for an
    # int seed exactly as for the SeededStream it stands for
    degenerate = []

    def draw(z, gens):
        if degenerate and degenerate.pop():
            z[0, KEPT_NORMALS] = 0

    monkeypatch.setattr(ensembles, "_normal_rows", _hooked(draw))
    pairs = []
    for stream in (7, SeededStream(7)):
        degenerate.append(True)
        pairs.append(coupled_local_projection(2, 3, 5, stream))
    a, b = pairs
    assert a.resamples == b.resamples == 1
    assert a.large.matrix.tobytes() == b.large.matrix.tobytes()
    assert a.small.matrix.tobytes() == b.small.matrix.tobytes()


def test_projection_pairs_redraw_only_a_degenerate_compression(monkeypatch):
    # trial 2 of a 3-trial chunk first draws a zero compressed block: it is
    # redrawn from its own generator, and the other pairs keep their bytes
    def chunk():
        return list(trial_generators(SeededStream(36), 3))

    clean = _pair_rows(*_projection_pairs(2, 3, 5, chunk()))
    draws = []

    def draw(z, gens):
        # draws counts generators, not sub-batches: one sub-batch draws trials
        # 1-3 and the redraw of trial 2 is a sub-batch of its own
        for k, rng in enumerate(gens):
            draws.append(rng)
            if len(draws) == 2:
                z[k, KEPT_NORMALS] = 0

    monkeypatch.setattr(ensembles, "_normal_rows", _hooked(draw))
    small, large, resamples = _projection_pairs(2, 3, 5, chunk())
    got = _pair_rows(small, large)
    assert resamples == 1 and len(draws) == 4
    assert got[0].tobytes() == clean[0].tobytes()
    assert got[2].tobytes() == clean[2].tobytes()
    rng = chunk()[1]
    _wishart_oracle(9, 5, rng)  # the discarded draw
    assert got[1].tobytes() == _projection_oracle(2, 3, 5, rng).tobytes()


@pytest.mark.parametrize("d1, d2, s", [(2, 2, 3), (2, 3, 5), (2, 4, 30), (3, 4, 7)])
def test_projection_small_gram_is_a_principal_submatrix_of_the_large(d1, d2, s):
    # byte for byte, also for a trial redrawn after a degenerate compression,
    # and the large Gram products are those of the induced sampler
    def gens():
        return list(trial_generators(SeededStream(39), 4))

    rows = _kept_rows(d1, d2)
    calls = []

    def draw(z, batch):
        calls.append(len(batch))
        if len(calls) == 1:  # trial 1's first draw
            n = d2 * d2
            z[1, rows + [n + r for r in rows]] = 0

    with mock.patch.object(ensembles, "_normal_rows", _hooked(draw)):
        small, large, resamples = ensembles._projection_grams(d1, d2, s, gens())
    assert resamples == 1 and calls == [4, 1]
    assert small.tobytes() == large[:, rows][:, :, rows].tobytes()
    clean = ensembles._wishart_stack(d2 * d2, s, gens())
    for t in (0, 2, 3):
        assert large[t].tobytes() == clean[t].tobytes()


def test_coupled_projection_marginal_distribution():
    # two-sample KS against the direct sampler of mu_{4,12} on lambda_max
    trials = 2000
    coupled = np.empty(trials)
    direct = np.empty(trials)
    for i, rng in enumerate(trial_generators(SeededStream(22), trials)):
        coupled[i] = np.linalg.eigvalsh(coupled_local_projection(2, 3, 12, rng).small.matrix)[-1]
    for i, rng in enumerate(trial_generators(SeededStream(23), trials)):
        direct[i] = np.linalg.eigvalsh(sample_induced_state(4, 12, rng).matrix)[-1]
    assert ks_2samp(coupled, direct).pvalue >= 0.01


def test_coupled_partial_trace_basics():
    pair = coupled_partial_trace(2, 5, SeededStream(24))
    assert pair.large.dims.factors == (4, 4)
    assert pair.small.dims.factors == (2, 2)
    assert abs(np.trace(pair.small.matrix) - 1) < 1e-12
    assert np.linalg.eigvalsh(pair.small.matrix)[0] >= -1e-12 * 4


class _NoDraw:
    """A generator stand-in that fails the test if it is drawn from."""

    def __getattr__(self, name):
        raise AssertionError(f"drew ({name}) before refusing the size")


def test_partial_trace_kernel_refuses_d_below_two_before_drawing():
    # the kernel owns the rule; coupled_partial_trace adds no check of its own
    for call in (lambda: _partial_trace_pairs(1, 5, [_NoDraw()]),
                 lambda: coupled_partial_trace(1, 5, SeededStream(1))):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == "d must be >= 2"


def test_coupled_partial_trace_marginal_distribution():
    # the reduced state of mu_{16,5} over the qubit pair is mu_{4,20}
    trials = 2000
    coupled = np.empty(trials)
    direct = np.empty(trials)
    for i, rng in enumerate(trial_generators(SeededStream(25), trials)):
        coupled[i] = np.linalg.eigvalsh(coupled_partial_trace(2, 5, rng).small.matrix)[0]
    for i, rng in enumerate(trial_generators(SeededStream(26), trials)):
        direct[i] = np.linalg.eigvalsh(sample_induced_state(4, 20, rng).matrix)[0]
    assert ks_2samp(coupled, direct).pvalue >= 0.01


def test_coupled_partial_trace_preserves_ppt():
    # PPT of the large state implies PPT of the reduced one, draw by draw
    from entanglab.separability import PPT_EIGENVALUE_TOL, min_pt_eigenvalue

    for rng in trial_generators(SeededStream(27), 200):
        pair = coupled_partial_trace(2, 40, rng)
        if min_pt_eigenvalue(pair.large) >= PPT_EIGENVALUE_TOL:
            assert min_pt_eigenvalue(pair.small) >= PPT_EIGENVALUE_TOL


# -- ensemble spec -------------------------------------------------------------------


def test_ensemble_spec():
    spec = EnsembleSpec("uniform", 4)
    assert spec.s == 4
    assert isinstance(draw_ensemble(spec, SeededStream(28)), DensityMatrix)
    with pytest.raises(ValueError):
        EnsembleSpec("induced", 4)  # missing s
    with pytest.raises(ValueError):
        EnsembleSpec("wat", 4)
    for kind in ("gue", "gue0", "uniform"):  # kinds that read no s refuse one
        with pytest.raises(ValueError, match="'s' applies only to the ginibre and induced"):
            EnsembleSpec(kind, 4, 4)
    G = draw_ensemble(EnsembleSpec("gue0", 5), SeededStream(29))
    assert abs(np.trace(G)) < 1e-12
    A = draw_ensemble(EnsembleSpec("ginibre", 3, 7), SeededStream(30))
    assert A.shape == (3, 7)


def test_uniform_state_is_induced_at_s_equals_n():
    a = sample_uniform_state(3, SeededStream(31))
    b = sample_induced_state(3, 3, SeededStream(31))
    assert np.array_equal(a.matrix, b.matrix)


def test_sampled_states_pass_full_validation():
    # the batched engine draws states through the samplers' own Gram product
    # and normalization; each sampled state must be the one the validating
    # constructor builds from the same draw, bit for bit
    for t, rng in enumerate(trial_generators(SeededStream(32), 20)):
        n, s = (4, 9) if t % 2 else (6, 2)
        W = _wishart_oracle(n, s, SeededStream(32).substream(t).generator())
        checked = DensityMatrix(None, (W.view(float) / np.trace(W.real)).view(complex))
        rho = sample_induced_state(n, s, rng)
        assert rho.matrix.tobytes() == checked.matrix.tobytes()
    for rng in trial_generators(SeededStream(33), 20):
        for pair in (coupled_local_projection(2, 3, 5, rng), coupled_partial_trace(2, 3, rng)):
            for rho in (pair.small, pair.large):
                assert DensityMatrix(rho.dims, rho.matrix).matrix.tobytes() == rho.matrix.tobytes()
    with pytest.raises(ValueError):
        sample_induced_state(5, 3, SeededStream(34), dims=ProductDims((2, 2)))


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(None, np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(ValueError):
        DensityMatrix(None, np.diag([1.5, -0.5]))  # not PSD
    with pytest.raises(ValueError):
        DensityMatrix(ProductDims((2, 2)), np.eye(2) / 2)  # size mismatch
