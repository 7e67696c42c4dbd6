"""Property tests over random inputs: the batched partial transpose, the
Cholesky PPT test and the closed-form gauges of the state, PPT and separable
bodies, the partial trace, the separable support function over one direction
and over stacks of directions, d_inf and the
semicircle quantile, the output path of every written file, binary matrix
records, config digests, block-derived trial streams and the exact sums
behind every mean estimate."""

import math
import pickle
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from conftest import support_separable_loop

from entanglab.config import ExperimentConfig
from entanglab import rng, separability
from entanglab.ensembles import _induced_states
from entanglab.io import read_matrix_records, write_csv, write_matrix_records
from entanglab.linalg import (
    ProductDims,
    hermitize,
    partial_trace,
    partial_transpose,
    traceless_part,
)
from entanglab.separability import (
    PPT_EIGENVALUE_TOL,
    _BODIES,
    _body_gauge,
    _product_starts,
    _support_stack,
    gauge_ppt,
    gauge_separable,
    gauge_separable_sym,
    gauge_states,
    support_separable,
)
from entanglab.rng import SeededStream, trial_generators
from entanglab.spectral import dinf_empirical_empirical, semicircle_quantile
from entanglab.stats import Estimate, _Sums, from_samples

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, database=None)

dims_st = st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 2, 2)]).map(ProductDims)
batch_st = st.one_of(
    st.just(()),
    st.tuples(st.integers(1, 4)),
    st.tuples(st.integers(1, 3), st.integers(1, 3)),
)
seed_st = st.integers(0, 2**32 - 1)


def complex_stack(seed, shape):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def traceless_direction(seed, n):
    return traceless_part(hermitize(complex_stack(seed, (n, n))))


@st.composite
def stack_and_factors(draw):
    dims = draw(dims_st)
    batch = draw(batch_st)
    factors = draw(st.lists(st.integers(0, dims.k - 1), min_size=1, max_size=dims.k, unique=True))
    H = complex_stack(draw(seed_st), batch + (dims.n, dims.n))
    return dims, H, factors


@PROPERTY_SETTINGS
@given(stack_and_factors())
def test_partial_transpose_of_stack_is_per_slice(case):
    # and the partial trace over the other factors, bit for bit
    dims, H, factors = case
    got = partial_transpose(H, dims, factors)
    traced = partial_trace(H, dims, factors)
    assert got.shape == H.shape
    assert traced.shape[:-2] == H.shape[:-2]
    for idx in np.ndindex(H.shape[:-2]):
        assert np.array_equal(got[idx], partial_transpose(H[idx], dims, factors))
        assert traced[idx].tobytes() == partial_trace(H[idx], dims, factors).tobytes()


@PROPERTY_SETTINGS
@given(stack_and_factors())
def test_partial_transpose_is_involution(case):
    dims, H, factors = case
    assert np.array_equal(partial_transpose(partial_transpose(H, dims, factors), dims, factors), H)


# offsets of lambda_min(rho^Gamma) from the PPT tolerance; None keeps the draw
pt_offset_st = st.sampled_from([None, -1e-9, -1e-12, -2e-13, 2e-13, 1e-12, 1e-9])


@PROPERTY_SETTINGS
@given(
    st.sampled_from([(2, 2), (2, 3), (3, 3), (4, 4)]).map(ProductDims),
    seed_st,
    st.integers(1, 40),
    st.lists(pt_offset_st, min_size=1, max_size=6),
)
def test_cholesky_ppt_matches_eigvalsh_outside_rounding(dims, seed, s, offsets):
    # induced states, some shifted by a multiple of Id (which commutes with
    # the partial transpose) to put lambda_min(rho^Gamma) next to the
    # tolerance; the two tests agree on every state outside a 1e-13 band
    states = _induced_states(dims.n, s, list(trial_generators(seed, len(offsets))))
    lam = separability._min_pt(states, dims)
    for i, offset in enumerate(offsets):
        if offset is not None:
            states[i] += (PPT_EIGENVALUE_TOL + offset - lam[i]) * np.eye(dims.n)
    lam = separability._min_pt(states, dims)
    clear = np.abs(lam - PPT_EIGENVALUE_TOL) > 1e-13
    got = separability._is_ppt(states, dims)
    np.testing.assert_array_equal(got[clear], (lam >= PPT_EIGENVALUE_TOL)[clear])


exact_dims_st = st.sampled_from([(2, 2), (2, 3), (3, 2)]).map(ProductDims)


@PROPERTY_SETTINGS
@given(exact_dims_st, seed_st, st.floats(1e-3, 1e3))
def test_gauges_positively_homogeneous(dims, seed, c):
    A = traceless_direction(seed, dims.n)
    gauges = (
        gauge_states,
        lambda B: gauge_ppt(B, dims),
        lambda B: gauge_separable(B, dims).value,
        lambda B: gauge_separable_sym(B, dims).value,
    )
    for gauge in gauges:
        assert np.isclose(gauge(c * A), c * gauge(A), rtol=1e-9, atol=0.0)


@PROPERTY_SETTINGS
@given(exact_dims_st, seed_st, st.sampled_from([0.0, -0.0, 1e-300, 1.0]))
def test_no_gauge_is_negative_zero(dims, seed, scale):
    # a gauge is >= 0 and its zero is +0.0, also where lambda_min is +0.0
    A = scale * traceless_direction(seed, dims.n)
    stack = np.stack([A, np.zeros_like(A)])
    for body in sorted(_BODIES):
        assert not np.signbit(_body_gauge(body, dims)(stack)).any(), body
    assert not np.signbit(gauge_states(stack[1]))


@PROPERTY_SETTINGS
@given(exact_dims_st, seed_st)
def test_gauges_ordered(dims, seed):
    # D0 contains PPT0 = S0 (at 2x2 and 2x3), which contains S0 n -S0
    A = traceless_direction(seed, dims.n)
    g_ppt = gauge_ppt(A, dims)
    assert gauge_states(A) <= g_ppt
    assert g_ppt == gauge_separable(A, dims).value
    assert g_ppt <= gauge_separable_sym(A, dims).value


# -- partial trace, distances, records and config digests ----------------------


@PROPERTY_SETTINGS
@given(dims_st, seed_st, st.data())
def test_partial_trace_preserves_trace(dims, seed, data):
    keep = data.draw(st.lists(st.integers(0, dims.k - 1), min_size=1, max_size=dims.k, unique=True))
    H = complex_stack(seed, (dims.n, dims.n))
    assert np.isclose(np.trace(partial_trace(H, dims, keep)), np.trace(H), rtol=1e-12, atol=1e-12)


@PROPERTY_SETTINGS
@given(exact_dims_st, seed_st)
def test_support_separable_below_operator_norm(dims, seed):
    # a product unit vector is a unit vector, so <psi|A|psi> <= lambda_max(A)
    A = traceless_direction(seed, dims.n)
    h = support_separable(A, dims, restarts=2, stream=seed).value
    assert h <= np.linalg.eigvalsh(A)[-1] + 1e-12


@PROPERTY_SETTINGS
@given(
    st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 4), (2, 2, 2)]).map(ProductDims),
    seed_st,
    st.integers(1, 6),
    st.sampled_from([1, 2, 3, 500]),
    st.sampled_from([1e-12, 1e-6, 1e-3]),
)
def test_support_separable_stack_matches_restart_loop(dims, seed, restarts, max_sweeps, tol):
    # the restarts swept as one stack reach the values of the restarts swept
    # one at a time; two restarts equal to rounding may swap places, so only
    # the values are compared
    A = traceless_direction(seed, dims.n)
    res = support_separable(A, dims, restarts, tol, max_sweeps, stream=SeededStream(seed))
    ref = support_separable_loop(A, dims, restarts, tol, max_sweeps, SeededStream(seed))
    assert abs(res.value - ref) <= 1e-10
    psi = res.maximizer[0]
    for p in res.maximizer[1:]:
        psi = np.kron(psi, p)
    assert abs(res.value - np.real(psi.conj() @ A @ psi)) <= 1e-12


@PROPERTY_SETTINGS
@given(
    st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 4), (2, 2, 2)]).map(ProductDims),
    seed_st,
    st.integers(1, 4),
    st.integers(1, 6),
    st.sampled_from([1, 2, 3, 500]),
)
def test_support_stack_matches_one_direction_calls(dims, seed, directions, restarts, max_sweeps):
    # a stack of directions swept from shared starts gives each direction the
    # value of its own call from the same starts, as its witness's own value
    A = np.stack([traceless_direction(seed + i, dims.n) for i in range(directions)])
    starts = _product_starts(dims, restarts, 0)
    vals, best = _support_stack(A.reshape((directions,) + dims.factors * 2), starts, 1e-12,
                                max_sweeps)
    assert vals.shape == (directions,)
    assert [p.shape for p in best] == [(directions, d) for d in dims.factors]
    for i in range(directions):
        ref = support_separable(A[i], dims, restarts, 1e-12, max_sweeps, stream=0)
        assert abs(vals[i] - ref.value) <= 1e-12
        psi = best[0][i]
        for p in best[1:]:
            psi = np.kron(psi, p[i])
        assert abs(vals[i] - np.real(psi.conj() @ A[i] @ psi)) <= 1e-12


atoms_st = st.integers(1, 40).flatmap(
    lambda n: st.tuples(*(st.lists(st.floats(-5, 5), min_size=n, max_size=n) for _ in range(2)))
)


@PROPERTY_SETTINGS
@given(atoms_st)
def test_dinf_empirical_empirical_symmetric(xy):
    x, y = xy
    assert dinf_empirical_empirical(x, y) == dinf_empirical_empirical(y, x)


@PROPERTY_SETTINGS
@given(st.floats(1e-6, 1 - 1e-6))
def test_semicircle_quantile_antisymmetric(p):
    # 1 - p is rounded, which moves Q by at most ~1e-14 this far from the ends
    assert abs(semicircle_quantile(1 - p) + semicircle_quantile(p)) <= 1e-12


class SourceFailed(Exception):
    pass


def fail_after(rows, k):
    yield from rows[:k]
    raise SourceFailed


def csv_bytes(rows) -> bytes:
    """The CSV the writer has always produced for header a,b: CRLF rows."""
    return ("a,b\r\n" + "".join(f"{i},{x!r}\r\n" for i, x in rows)).encode()


@PROPERTY_SETTINGS
@given(st.lists(st.tuples(st.integers(-2**63, 2**63), st.floats()), max_size=6), st.data())
def test_csv_writer_output_contract(rows, data):
    # a source that fails after k rows leaves no new file (k = 0) or
    # <path>.partial with exactly those k rows, and never touches an
    # existing <path>; a source that runs out leaves only <path>
    k = data.draw(st.integers(0, len(rows)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out" / "t.csv"
        part = path.with_name("t.csv.partial")
        with pytest.raises(SourceFailed):
            write_csv(path, ["a", "b"], fail_after(rows, k))
        assert sorted(Path(tmp).rglob("*")) == ([path.parent, part] if k else [])
        if k:
            assert part.read_bytes() == csv_bytes(rows[:k])

        path.parent.mkdir(exist_ok=True)
        path.write_bytes(b"earlier")
        with pytest.raises(SourceFailed):
            write_csv(path, ["a", "b"], fail_after(rows, k))
        assert path.read_bytes() == b"earlier"

        assert write_csv(path, ["a", "b"], iter(rows)) == len(rows)
        assert list(path.parent.iterdir()) == [path]
        assert path.read_bytes() == csv_bytes(rows)


records_st = st.lists(
    st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
        lambda shape: hnp.arrays(np.float64, shape + (2,))
    ),
    max_size=4,
)


@PROPERTY_SETTINGS
@given(records_st)
def test_matrix_records_round_trip_bit_for_bit(pairs):
    # every float64 value, -0.0, infinities and NaN included, comes back as written
    mats = [np.ascontiguousarray(p).view(np.complex128)[..., 0] for p in pairs]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.bin"
        write_matrix_records(path, mats)
        back = read_matrix_records(path)
    assert [m.shape for m in back] == [m.shape for m in mats]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(mats, back))


SCAN_CONFIG = {
    "experiment": "threshold-scan",
    "dims": [2, 2],
    "s_values": [2, 4],
    "criterion": "exact",
    "trials": 10,
    "master_seed": 3,
    "output": "scan",
    "tolerances": {"gauge_tol": 1e-8},
}


@PROPERTY_SETTINGS
@given(st.permutations(sorted(SCAN_CONFIG)))
def test_config_digest_ignores_key_order(keys):
    reordered = ExperimentConfig.from_dict({k: SCAN_CONFIG[k] for k in keys})
    assert reordered.digest() == ExperimentConfig.from_dict(SCAN_CONFIG).digest()


def _same_generators(a, b):
    assert a.bit_generator.state == b.bit_generator.state
    assert a.integers(2**63, size=4).tolist() == b.integers(2**63, size=4).tolist()


@PROPERTY_SETTINGS
@given(
    st.integers(0, 2**130),
    st.integers(0, 2**40),
    st.lists(st.integers(0, 2**40), max_size=3),
    st.integers(1, 8),
)
# master seeds of 3, 4 and 5 words (padded, full and past the pool), 2-word
# stream index and subpath entry, and an empty subpath
@example(2**96 - 1, 2**32, [], 4)
@example(2**96, 0, [2**32], 7)
@example(2**128, 2**32, [2**32, 0], 8)
def test_trial_generators_match_seed_sequence(master_seed, stream_index, subpath, trials):
    # Trial streams come from a vectorized copy of numpy's SeedSequence mixing,
    # here in blocks of 3 trials; numpy's own derivation is the oracle, so this
    # fails if numpy's SeedSequence ever changes. Warnings are errors: a uint32
    # overflow warning means the arithmetic left the arrays.
    stream = SeededStream(master_seed, stream_index, tuple(subpath))
    with warnings.catch_warnings(), mock.patch.object(rng, "_BLOCK", 3):
        warnings.simplefilter("error")
        got = list(trial_generators(stream, trials))
        for t, gen in enumerate(got):
            want = stream.substream(t).generator()
            assert gen.bit_generator.state == want.bit_generator.state
            back, want_back = (pickle.loads(pickle.dumps(g)) for g in (gen, want))
            _same_generators(gen, want)
            _same_generators(back, want_back)
            for a, b in zip(gen.spawn(2) + back.spawn(2), want.spawn(2) + want_back.spawn(2)):
                _same_generators(a, b)
        raw = np.random.default_rng(master_seed)
        assert all(g is raw for g in trial_generators(raw, trials))


# finite values of every scale: normal ones up to 1e300, subnormals and both zeros
finite_st = st.one_of(st.floats(-1e300, 1e300), st.floats(-1e-300, 1e-300),
                      st.sampled_from([0.0, -0.0, 5e-324, -5e-324]))


@PROPERTY_SETTINGS
@given(st.lists(finite_st, min_size=1, max_size=40), st.integers(1, 8))
def test_exact_sums_match_fsum_at_any_split(values, parts):
    # sum x rounds to math.fsum's correctly rounded sum; both sums equal an
    # integer oracle built from each value's exact ratio; and any split into
    # chunks leaves them as they are
    whole = _Sums([values])
    assert whole.s1 / (1 << 1136) == math.fsum(values)
    units = [p * (1 << 1136) // q for p, q in (x.as_integer_ratio() for x in values)]
    assert (whole.n, whole.s1, whole.s2) == (len(values), sum(units), sum(u * u for u in units))
    split = _Sums(np.array_split(np.array(values), parts))
    assert (split.n, split.s1, split.s2, split.odd) == (whole.n, whole.s1, whole.s2, whole.odd)


@PROPERTY_SETTINGS
@given(st.lists(finite_st, max_size=20),
       st.lists(st.sampled_from([np.inf, -np.inf, np.nan]), min_size=1, max_size=3), st.data())
def test_non_finite_values_give_the_np_mean_and_no_stderr(finite, odd, data):
    values = data.draw(st.permutations(finite + odd))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expected = float(np.mean(values))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = from_samples(values)
    assert repr(est.mean) == repr(expected) and math.isnan(est.stderr)
    assert est.trials == len(values)


def test_estimates_agree_with_numpy_and_need_a_sample():
    x = np.random.default_rng(7).standard_normal(1000) * 3 + 10
    est = from_samples(x)
    assert est.mean == pytest.approx(x.mean(), rel=1e-15, abs=0)
    assert est.stderr == pytest.approx(x.std(ddof=1) / math.sqrt(x.size), rel=1e-13, abs=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = from_samples([1.5])
        with pytest.raises(ValueError, match="at least one sample"):
            from_samples([])
    assert one.mean == 1.5 and math.isnan(one.stderr)


def test_estimate_interval_is_the_mean_give_or_take_z_stderrs():
    est = Estimate(2.5, 0.25, 10)
    assert est.interval() == (1.75, 3.25)
    assert est.interval(z=2.0) == (2.0, 3.0)
