"""Property tests over random inputs: the batched partial transpose and the
closed-form gauges of the state, PPT and separable bodies."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from entanglab.linalg import ProductDims, hermitize, partial_transpose, traceless_part
from entanglab.separability import gauge_ppt, gauge_separable, gauge_separable_sym, gauge_states

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
    dims, H, factors = case
    got = partial_transpose(H, dims, factors)
    assert got.shape == H.shape
    for idx in np.ndindex(H.shape[:-2]):
        assert np.array_equal(got[idx], partial_transpose(H[idx], dims, factors))


@PROPERTY_SETTINGS
@given(stack_and_factors())
def test_partial_transpose_is_involution(case):
    dims, H, factors = case
    assert np.array_equal(partial_transpose(partial_transpose(H, dims, factors), dims, factors), H)


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
@given(exact_dims_st, seed_st)
def test_gauges_ordered(dims, seed):
    # D0 contains PPT0 = S0 (at 2x2 and 2x3), which contains S0 n -S0
    A = traceless_direction(seed, dims.n)
    g_ppt = gauge_ppt(A, dims)
    assert gauge_states(A) <= g_ppt
    assert g_ppt == gauge_separable(A, dims).value
    assert g_ppt <= gauge_separable_sym(A, dims).value
