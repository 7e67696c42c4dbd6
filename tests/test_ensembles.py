import math
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from entanglab import ensembles
from entanglab.ensembles import (
    DensityMatrix,
    EnsembleSpec,
    _centered_induced_states,
    _gue0_states,
    _induced_states,
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
from entanglab.rng import SeededStream, as_generator, split_stream, trial_generators
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


def _induced_oracle(n, s, rng):
    A = _ginibre_oracle(n, s, rng)
    W = A @ A.conj().T
    rho = W / np.trace(W).real
    return (rho + rho.conj().T) / 2


# name: (stacked sampler (n, s, gens), oracle of one trial (n, s, rng))
STACKED_DRAWS = {
    "induced": (_induced_states, _induced_oracle),
    "centered_induced": (
        _centered_induced_states, lambda n, s, rng: _traceless_oracle(_induced_oracle(n, s, rng))),
    "gue0": (
        lambda n, s, gens: _gue0_states(n, gens),
        lambda n, s, rng: _traceless_oracle(_gue_oracle(n, rng))),
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


def test_coupled_projection_int_seed_resamples_like_its_stream(monkeypatch):
    # a degenerate compression moves to substream(attempt) for an int seed
    # exactly as for the SeededStream it stands for
    real_draw = ensembles.sample_ginibre
    degenerate = []

    def draw(n, s, stream):
        A = real_draw(n, s, stream)
        return np.zeros_like(A) if degenerate and degenerate.pop() else A

    monkeypatch.setattr(ensembles, "sample_ginibre", draw)
    pairs = []
    for stream in (7, SeededStream(7)):
        degenerate.append(True)
        pairs.append(coupled_local_projection(2, 3, 5, stream))
    a, b = pairs
    assert a.resamples == b.resamples == 1
    assert a.large.matrix.tobytes() == b.large.matrix.tobytes()
    assert a.small.matrix.tobytes() == b.small.matrix.tobytes()


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
        A = sample_ginibre(n, s, SeededStream(32).substream(t))
        W = A @ A.conj().T
        checked = DensityMatrix(None, W / float(np.trace(W).real))
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
