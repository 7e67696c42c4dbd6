import math
import warnings

import numpy as np
import pytest
from conftest import separable_bisection_gauge_oracle

from entanglab import separability
from entanglab.ensembles import DensityMatrix, _induced_states, sample_gue0
from entanglab.linalg import ProductDims, hermitize, hs_norm, kron, partial_transpose, traceless_part
from entanglab.rng import SeededStream, trial_generators
from entanglab.separability import (
    PPT_EIGENVALUE_TOL,
    GaugeResult,
    UnsupportedDimensionError,
    gauge_ppt,
    gauge_separable,
    gauge_separable_sym,
    gauge_states,
    is_separable_exact,
    mean_gauge_gue,
    min_pt_eigenvalue,
    support_separable,
)

DIMS22 = ProductDims((2, 2))
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def bell_projector():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / math.sqrt(2)
    return np.outer(phi, phi.conj())


def werner(p):
    return DensityMatrix(DIMS22, p * bell_projector() + (1 - p) * np.eye(4) / 4)


def random_traceless(rng, n):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return traceless_part(hermitize(A))


# -- PPT / exact separability ----------------------------------------------------


def test_min_pt_eigenvalue_werner():
    # PT spectrum of the Werner state: (1+p)/4 three times, (1-3p)/4 once
    assert min_pt_eigenvalue(werner(0.5)) == pytest.approx(-1 / 8, abs=1e-12)
    assert min_pt_eigenvalue(werner(1 / 3)) == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(0)
    for p in rng.uniform(0, 1, size=10):
        assert min_pt_eigenvalue(werner(p)) == pytest.approx(min((1 + p) / 4, (1 - 3 * p) / 4), abs=1e-12)


def test_min_pt_eigenvalue_product_state():
    rho1 = np.diag([0.2, 0.8]).astype(complex)
    rho2 = np.diag([0.7, 0.3]).astype(complex)
    rho = DensityMatrix(DIMS22, kron(rho1, rho2))
    assert min_pt_eigenvalue(rho) >= 0


def test_min_pt_requires_bipartite():
    rho = DensityMatrix(ProductDims((2, 2, 2)), np.eye(8) / 8)
    with pytest.raises(ValueError):
        min_pt_eigenvalue(rho)


def test_is_separable_exact():
    assert is_separable_exact(DensityMatrix(DIMS22, np.eye(4) / 4))
    assert not is_separable_exact(werner(0.5))
    assert not is_separable_exact(DensityMatrix(DIMS22, bell_projector()))
    assert is_separable_exact(werner(1 / 3))  # boundary counts as separable
    for dims in ((2, 3), (3, 2)):
        rho = DensityMatrix(ProductDims(dims), np.eye(6) / 6)
        assert is_separable_exact(rho)
    with pytest.raises(UnsupportedDimensionError):
        is_separable_exact(DensityMatrix(ProductDims((3, 3)), np.eye(9) / 9))


def test_boundary_states_stay_ppt():
    # lambda_min(rho^Gamma) is 0 (Werner at 1/3, the pure product state, whose
    # partial transpose has rank one) or well inside (Id/n)
    product = np.zeros(4, dtype=complex)
    product[1] = 1.0
    states = [werner(1 / 3), DensityMatrix(DIMS22, np.outer(product, product)),
              DensityMatrix(DIMS22, np.eye(4) / 4)]
    assert all(is_separable_exact(rho) for rho in states)
    stack = np.stack([r.matrix for r in states])
    assert separability._is_ppt(stack, DIMS22).all()
    assert (separability._min_pt(stack, DIMS22) >= PPT_EIGENVALUE_TOL).all()


def test_rank_deficient_induced_states_classified_alike():
    # s = 3 < n = 4: each state has a zero eigenvalue; some are PPT, most not
    states = _induced_states(4, 3, trial_generators(SeededStream(29), 300))
    ppt = separability._is_ppt(states, DIMS22)
    lam = separability._min_pt(states, DIMS22)
    np.testing.assert_array_equal(ppt, lam >= PPT_EIGENVALUE_TOL)
    assert 0 < ppt.sum() < 300
    assert all(is_separable_exact(DensityMatrix(DIMS22, rho)) for rho in states[ppt])


def test_numpy_cholesky_gufunc_behaves_as_the_ppt_kernel_needs():
    # `_is_ppt` reads a NaN last entry of each factor as "not PPT" and factors
    # in place; a numpy that changes any of this fails here, not as a miscount
    gufunc = separability._cholesky_lo
    assert gufunc.signature == "(m,m)->(m,m)", (
        f"numpy's cholesky_lo now has signature {gufunc.signature!r}, not one factor per matrix")
    stack = np.array([[[2.0, 1.0], [1.0, 2.0]], [[1.0, 2.0], [2.0, 1.0]]], dtype=complex)
    aliased = stack.copy()
    try:
        with warnings.catch_warnings(), np.errstate(invalid="ignore"):
            warnings.simplefilter("error")
            fresh = gufunc(stack)
            gufunc(aliased, out=aliased)
    except Exception as exc:
        pytest.fail(f"numpy's cholesky_lo now raises {exc!r} on an indefinite matrix "
                    f"under errstate(invalid='ignore') instead of writing NaN")
    assert np.isfinite(fresh[0]).all(), (
        "numpy's cholesky_lo no longer gives a finite factor of a positive-definite matrix")
    np.testing.assert_allclose(fresh[0] @ fresh[0].conj().T, stack[0], rtol=1e-15, atol=1e-15,
                               err_msg="numpy's cholesky_lo no longer returns the lower factor")
    assert np.isnan(fresh[1, -1, -1]), (
        "numpy's cholesky_lo no longer writes NaN into the factor of an indefinite matrix")
    assert aliased.tobytes() == fresh.tobytes(), (
        "numpy's cholesky_lo with out= aliased to its input no longer matches a fresh output")


def test_ppt_kernel_leaves_its_input_alone():
    states = _induced_states(6, 4, trial_generators(SeededStream(30), 5))
    before = states.copy()
    separability._is_ppt(states, ProductDims((2, 3)))
    assert np.array_equal(states, before)


# -- gauges -----------------------------------------------------------------------


def psd_bisection_gauge_oracle(A, tol=1e-12):
    """Independent oracle: bisect on the smallest t with Id/n + A/t PSD."""
    n = A.shape[0]
    if hs_norm(A) == 0:
        return 0.0
    lo, hi = 0.0, 2 * n * hs_norm(A) + 1.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid == 0 or np.linalg.eigvalsh(np.eye(n) / n + A / mid)[0] >= 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol:
            break
    return hi


def test_gauge_states_closed_form():
    assert gauge_states(np.zeros((3, 3))) == 0.0
    A = kron(SZ, SZ)
    assert gauge_states(A) == pytest.approx(4.0, abs=1e-12)
    assert gauge_states(A) == pytest.approx(psd_bisection_gauge_oracle(A), abs=1e-9)
    rng = np.random.default_rng(1)
    for n in (2, 3, 6):
        for _ in range(10):
            B = random_traceless(rng, n)
            assert gauge_states(B) == pytest.approx(psd_bisection_gauge_oracle(B), abs=1e-8)
            for c in (0.5, 2.0, 10.0):
                assert gauge_states(c * B) == pytest.approx(c * gauge_states(B), rel=1e-12)
    with pytest.raises(ValueError):
        gauge_states(np.eye(3))  # not traceless


def test_gauge_ppt_examples():
    A = bell_projector() - np.eye(4) / 4
    # eigenvalues of A: 3/4, -1/4 x3; of PT(A): 1/4 x3, -3/4.
    # The PPT body is an intersection, so the gauge is the larger branch:
    # max(4 * 1/4, 4 * 3/4) = 3.
    assert gauge_ppt(A, DIMS22) == pytest.approx(3.0, abs=1e-12)
    both = max(gauge_states(A), gauge_states(partial_transpose(A, DIMS22, 1)))
    assert gauge_ppt(A, DIMS22) == pytest.approx(both)
    # PT-invariant directions reduce to the state gauge
    B = kron(SZ, np.eye(2)) + 0.0j
    assert np.allclose(partial_transpose(B, DIMS22, 1), B)
    assert gauge_ppt(B, DIMS22) == pytest.approx(gauge_states(B))
    rng = np.random.default_rng(2)
    for _ in range(50):
        C = random_traceless(rng, 4)
        assert gauge_ppt(C, DIMS22) >= gauge_states(C) - 1e-12


def test_gauge_separable_werner():
    A = bell_projector() - np.eye(4) / 4
    res = gauge_separable(A, DIMS22, tol=1e-9)
    # Werner states p|phi><phi| + (1-p)Id/4 are separable exactly for
    # p <= 1/3, i.e. the gauge of the direction is 3
    assert res.value == pytest.approx(3.0, abs=1e-6)
    assert res.bracket_width <= 1e-9 * res.value * 1.01
    assert res.membership_evals > 0
    assert gauge_separable(np.zeros((4, 4)), DIMS22) == GaugeResult(0.0, 0.0, 0)


def test_gauge_separable_matches_ppt_closed_form():
    # at 2x2 and 2x3 the gauge must land where the independent membership
    # bisection does
    rng = np.random.default_rng(3)
    for dims in ((2, 2), (2, 3)):
        pd = ProductDims(dims)
        for _ in range(25):
            A = random_traceless(rng, pd.n)
            res = gauge_separable(A, pd, tol=1e-10)
            assert res.value == pytest.approx(separable_bisection_gauge_oracle(A, pd), rel=1e-8)
    with pytest.raises(UnsupportedDimensionError):
        gauge_separable(random_traceless(rng, 9), ProductDims((3, 3)))


def test_closed_form_gauges_match_bisection_oracle():
    from entanglab.separability import _ppt_gauge, _ppt_gauge_sym
    from entanglab.widths import _gauge_sym_qubit_pair

    rng = np.random.default_rng(33)
    for dims in ((2, 2), (2, 3)):
        pd = ProductDims(dims)
        stack = np.stack([random_traceless(rng, pd.n) for _ in range(15)])
        one_sided = _ppt_gauge(stack, pd)
        sym = _gauge_sym_qubit_pair(stack) if dims == (2, 2) else _ppt_gauge_sym(stack, pd)
        for A, g_batch, s_batch in zip(stack, one_sided, sym):
            plus = separable_bisection_gauge_oracle(A, pd)
            both = max(plus, separable_bisection_gauge_oracle(-A, pd))
            assert gauge_separable(A, pd).value == pytest.approx(plus, rel=1e-8)
            assert g_batch == pytest.approx(plus, rel=1e-8)
            assert gauge_separable_sym(A, pd).value == pytest.approx(both, rel=1e-8)
            assert s_batch == pytest.approx(both, rel=1e-8)


def test_gauge_chain_and_scaling():
    rng = np.random.default_rng(4)
    for i in range(1000):
        A = random_traceless(rng, 4)
        g_d = gauge_states(A)
        g_p = gauge_ppt(A, DIMS22)
        g_s = gauge_separable(A, DIMS22).value
        tol = 1e-7 * (1 + g_s)
        assert g_d <= g_p + tol
        assert g_p <= g_s + tol
        if i < 100:
            for c in (0.5, 2.0, 10.0):
                assert gauge_separable(c * A, DIMS22).value == pytest.approx(c * g_s, rel=1e-6)


def test_gauge_separable_sym():
    rng = np.random.default_rng(5)
    A = random_traceless(rng, 4)
    plus = gauge_separable_sym(A, DIMS22)
    minus = gauge_separable_sym(-A, DIMS22)
    assert plus.value == pytest.approx(minus.value, rel=1e-9)
    assert plus.value >= gauge_separable(A, DIMS22).value - 1e-9
    # sandwich sqrt(n) |A| <= ||A||_sym <= n |A| at n = 4
    for _ in range(50):
        B = random_traceless(rng, 4)
        g = gauge_separable_sym(B, DIMS22).value
        assert 2 * hs_norm(B) - 1e-7 <= g <= 4 * hs_norm(B) + 1e-7
    # Bell direction: the positive branch saturates at 3
    A = bell_projector() - np.eye(4) / 4
    got = gauge_separable_sym(A, DIMS22).value
    assert got == pytest.approx(max(3.0, gauge_separable(-A, DIMS22).value), abs=1e-6)


# -- support function --------------------------------------------------------------


def test_support_simple_directions():
    A = kron(SZ, SZ)
    res = support_separable(A, DIMS22, restarts=8, stream=SeededStream(6))
    assert res.value == pytest.approx(1.0, abs=1e-10)
    A2 = bell_projector() - np.eye(4) / 4
    res2 = support_separable(A2, DIMS22, restarts=8, stream=SeededStream(7))
    # best product overlap with the maximally entangled state is 1/2
    assert res2.value == pytest.approx(0.25, abs=1e-9)
    assert len(res2.maximizer) == 2
    psi = np.kron(res2.maximizer[0], res2.maximizer[1])
    direct = np.real(psi.conj() @ A2 @ psi)
    assert res2.value >= direct - 1e-12


def test_support_requires_traceless_and_factors():
    with pytest.raises(ValueError):
        support_separable(np.eye(4), DIMS22)
    with pytest.raises(ValueError):
        support_separable(np.zeros((2, 2)), ProductDims((2,)))
    with pytest.raises(ValueError, match=r"^matrix size 4 does not match dims \(2, 3\)$"):
        support_separable(np.diag([1.0, -1.0, 0.0, 0.0]), ProductDims((2, 3)))
    A = np.diag([1.0, -1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match=r"^restarts and max_sweeps must be >= 1$"):
        support_separable(A, DIMS22, restarts=0)
    with pytest.raises(ValueError, match=r"^restarts and max_sweeps must be >= 1$"):
        support_separable(A, DIMS22, max_sweeps=0)


def test_support_sweep_monotone():
    # each half-step is an exact eigenvector maximization, so the sweep
    # objective never decreases; replicate the loop with hooks here
    from entanglab.separability import _contracted_factor

    rng = np.random.default_rng(8)
    A = random_traceless(rng, 8)
    dims = ProductDims((2, 2, 2))
    T = A.reshape(dims.factors + dims.factors)
    psis = []
    gen = np.random.default_rng(9)
    for d in dims.factors:
        v = gen.standard_normal(d) + 1j * gen.standard_normal(d)
        psis.append(v / np.linalg.norm(v))
    values = []
    for _ in range(30):
        for j in range(dims.k):
            M = _contracted_factor(T, psis, j)
            w, vecs = np.linalg.eigh(M)
            psis[j] = vecs[:, -1]
            values.append(w[-1])
    diffs = np.diff(values)
    assert np.all(diffs >= -1e-12)


def bloch_grid_max(A, steps=50):
    """Global grid oracle over product states of two qubits."""
    theta = np.linspace(0, math.pi, steps)
    phi = np.linspace(0, 2 * math.pi, steps, endpoint=False)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    states = np.stack(
        [np.cos(tt / 2).ravel(), np.exp(1j * pp.ravel()) * np.sin(tt / 2).ravel()], axis=1
    )  # (steps^2, 2)
    T = A.reshape(2, 2, 2, 2)
    # B[b, i, k] = <v_b| T[i, :, k, :] |v_b> over the second factor
    B = np.einsum("bj,ijkl,bl->bik", states.conj(), T, states)
    vals = np.einsum("ai,bik,ak->ab", states.conj(), B, states).real
    return float(vals.max())


def test_support_matches_bloch_grid():
    rng = np.random.default_rng(10)
    worst_gap = 0.0
    for _ in range(50):
        A = random_traceless(rng, 4)
        A /= hs_norm(A)
        grid = bloch_grid_max(A)
        alt = support_separable(A, DIMS22, restarts=20, stream=SeededStream(11)).value
        # the alternating maximization must reach at least the grid value
        # (minus slack); the grid can undershoot the true maximum only by
        # its own discretization error
        assert alt >= grid - 1e-3
        worst_gap = max(worst_gap, grid - alt)
    assert worst_gap <= 1e-3


def test_support_seven_factors():
    # |0...0><0...0| - Id/128: the product state |0...0> attains 1 - 1/128
    dims = ProductDims((2,) * 7)
    A = -np.eye(dims.n, dtype=complex) / dims.n
    A[0, 0] += 1.0
    res = support_separable(A, dims, restarts=1, stream=SeededStream(34))
    assert res.value == pytest.approx(1 - 1 / 128, abs=1e-12)
    assert len(res.maximizer) == 7


def test_support_three_factors_smoke():
    rng = np.random.default_rng(12)
    dims = ProductDims((2, 2, 2))
    A = random_traceless(rng, 8)
    res = support_separable(A, dims, restarts=12, stream=SeededStream(13))
    assert np.isfinite(res.value) and res.value > 0
    # certified lower bound property against the returned witness
    psi = np.kron(np.kron(res.maximizer[0], res.maximizer[1]), res.maximizer[2])
    assert res.value >= np.real(psi.conj() @ A @ psi) - 1e-12


def test_support_gauge_polar_inequality():
    # <A, B> <= h(A) for any B in the separable body (gauge <= 1)
    rng = np.random.default_rng(14)
    for _ in range(20):
        A = random_traceless(rng, 4)
        B = random_traceless(rng, 4)
        B = B / gauge_separable(B, DIMS22).value  # boundary point
        h = support_separable(A, DIMS22, restarts=16, stream=SeededStream(15)).value
        inner = np.trace(A @ B).real
        assert inner <= h + 1e-6


# -- Gaussian mean gauge ------------------------------------------------------------


def test_mean_gauge_gue_consistency():
    est1 = mean_gauge_gue(2, 800, SeededStream(16))
    est2 = mean_gauge_gue(2, 800, SeededStream(17))
    assert est1.compatible(est2, z=3.0)
    with pytest.raises(UnsupportedDimensionError):
        mean_gauge_gue(3, 10, SeededStream(18))


def test_mean_gauge_gue_golden():
    # golden value recorded on the first validated run (10^4 trials,
    # master seed 1001): 10.664073 +- 0.021764
    est = mean_gauge_gue(2, 2000, SeededStream(1001))
    assert abs(est.mean - 10.664073) <= 4 * math.hypot(est.stderr, 0.021764)


def test_mean_gauge_sandwich_per_draw():
    # sqrt(n)|G| <= ||G||_sym and the one-sided gauge sits between the
    # state gauge and the outradius bound on every draw used
    for rng in trial_generators(SeededStream(19), 100):
        G = sample_gue0(4, rng)
        g = gauge_separable(G, DIMS22).value
        assert gauge_states(G) - 1e-9 <= g <= math.sqrt(12) * hs_norm(G) + 1e-9
