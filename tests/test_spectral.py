import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq, linprog

from entanglab.ensembles import sample_gue0, sample_induced_state
from entanglab.rng import SeededStream, trial_generators
from entanglab.spectral import (
    _quantiles,
    alpha_beta,
    dinf_empirical_continuous,
    dinf_empirical_empirical,
    dinf_semicircle,
    majorization_gauge,
    majorizes,
    semicircle_cdf,
    semicircle_quantile,
    semicircle_quantile_vector,
)


def sc_density(x):
    return math.sqrt(max(4 - x * x, 0.0)) / (2 * math.pi)


def cdf_by_quadrature(x):
    # independent oracle: adaptive quadrature of the density
    val, _ = quad(sc_density, -2.0, x, epsabs=1e-13)
    return val


# -- semicircle CDF / quantiles ------------------------------------------------


def test_cdf_endpoints_and_symmetry():
    assert semicircle_cdf(-2.0) == 0.0
    assert semicircle_cdf(2.0) == 1.0
    assert semicircle_cdf(-3.0) == 0.0
    assert semicircle_cdf(5.0) == 1.0
    assert semicircle_cdf(0.0) == pytest.approx(0.5, abs=1e-15)


def test_cdf_against_quadrature_oracle():
    # quad loses a few digits near the square-root edges, hence the 5e-11
    for x in (-1.9, -1.0, -0.3, 0.7, 1.0, 1.5, 1.99):
        assert semicircle_cdf(x) == pytest.approx(cdf_by_quadrature(x), abs=5e-11)
    # frozen value from the quadrature oracle
    assert semicircle_cdf(1.0) == pytest.approx(0.8044988905221148, abs=1e-12)


def test_quantile_basics():
    assert semicircle_quantile(0.5) == 0.0
    for p in (0.05, 0.2, 0.42, 0.75, 0.93):
        q = semicircle_quantile(p)
        assert semicircle_cdf(q) == pytest.approx(p, abs=1e-10)
        assert semicircle_quantile(1 - p) == pytest.approx(-q, abs=1e-12)
    with pytest.raises(ValueError):
        semicircle_quantile(0.0)
    with pytest.raises(ValueError):
        semicircle_quantile(1.2)


def test_quantile_against_independent_oracle():
    # bisection against the quadrature CDF, fully independent of the
    # closed-form antiderivative
    oracle = brentq(lambda t: cdf_by_quadrature(t) - 0.75, -2, 2, xtol=1e-12)
    assert semicircle_quantile(0.75) == pytest.approx(oracle, abs=1e-9)
    assert semicircle_quantile(0.75) == pytest.approx(0.8079455065990344, abs=1e-9)


def test_quantile_vector_is_memoized_and_read_only():
    v = semicircle_quantile_vector(32)
    assert semicircle_quantile_vector(32) is v
    with pytest.raises(ValueError):
        v[0] = 1.0
    assert v.tobytes() == semicircle_quantile_vector.__wrapped__(32).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 64, 257, 1000])
def test_quantile_vector_matches_brentq(n):
    p = (2 * np.arange(1, n + 1) - 1) / (2 * n)
    ref = [brentq(lambda t, pk=pk: semicircle_cdf(t) - pk, -2.0, 2.0, xtol=1e-14) for pk in p]
    assert np.max(np.abs(semicircle_quantile_vector(n) - ref)) <= 5e-14


def test_quantile_solve_on_both_sides_of_one_half():
    # one vectorized solve serves p < 1/2, p = 1/2 and p > 1/2 alike
    p = np.array([1e-6, 0.01, 0.2, 0.4999, 0.5, 0.5001, 0.8, 0.99, 1 - 1e-6])
    q = _quantiles(p)
    assert np.all(np.diff(q) > 0)
    assert np.array_equal(np.sign(q), np.sign(p - 0.5))
    assert np.max(np.abs(semicircle_cdf(q) - p)) <= 1e-15
    assert np.max(np.abs(q + _quantiles(1 - p))) <= 1e-13


def test_quantile_vector():
    assert np.array_equal(semicircle_quantile_vector(1), [0.0])
    v2 = semicircle_quantile_vector(2)
    assert v2[1] == pytest.approx(semicircle_quantile(0.75), abs=1e-12)
    assert v2[0] == pytest.approx(-v2[1])
    for n in (3, 8, 13):
        v = semicircle_quantile_vector(n)
        assert abs(v.sum()) < 1e-12
        assert np.allclose(v, -v[::-1], atol=1e-12)
        assert np.allclose(semicircle_cdf(v), (2 * np.arange(1, n + 1) - 1) / (2 * n), atol=1e-10)


# -- infinity-Wasserstein -------------------------------------------------------


def test_dinf_empirical_pairs():
    assert dinf_empirical_empirical([1.0, -1.0], [1.0, -1.0]) == 0.0
    # brute force over both couplings of two atoms: identity pairing costs
    # max(1,1)=1, the swap costs max(3,3)=3
    assert dinf_empirical_empirical([1, -1], [2, -2]) == 1.0
    rng = np.random.default_rng(0)
    x = rng.standard_normal(8)
    c = 0.37
    assert dinf_empirical_empirical(x, x + c) == pytest.approx(c)
    with pytest.raises(ValueError):
        dinf_empirical_empirical([1, 2], [1, 2, 3])


def test_dinf_continuous_single_atom():
    # all mass must transport to the essential sup |Z| = 2
    assert dinf_semicircle([0.0]) == pytest.approx(2.0, abs=1e-7)
    assert dinf_semicircle([0.5]) == pytest.approx(2.5, abs=1e-7)


def test_dinf_continuous_sign_symmetry():
    rng = np.random.default_rng(1)
    x = np.sort(rng.uniform(-2, 2, size=30))
    x -= x.mean()
    assert dinf_semicircle(x) == pytest.approx(dinf_semicircle(-x), abs=1e-7)


def dinf_monotone_coupling_oracle(atoms):
    """Closed-form independent oracle: the monotone coupling sends the k-th
    of n atoms onto the quantile interval ((k-1)/n, k/n); its sup cost is
    attained at an interval endpoint."""
    atoms = np.sort(np.asarray(atoms, dtype=float))
    n = atoms.size
    qs = [-2.0] + [semicircle_quantile(k / n) for k in range(1, n)] + [2.0]
    worst = 0.0
    for k, a in enumerate(atoms):
        worst = max(worst, abs(a - qs[k]), abs(a - qs[k + 1]))
    return worst


def test_dinf_continuous_matches_monotone_coupling_oracle():
    rng = np.random.default_rng(2)
    for n in (1, 2, 7, 40):
        for _ in range(5):
            atoms = rng.uniform(-2.3, 2.3, size=n)
            a = dinf_semicircle(atoms, tol=1e-10)
            b = dinf_monotone_coupling_oracle(atoms)
            assert a == pytest.approx(b, abs=1e-8)


# The bisection's CDF test cannot resolve an eps that places a shifted atom
# within about 1e-10 of a support end, where F grows like t^(3/2) and is
# evaluated to 1e-16, so the oracle may stop up to that much below the exact
# value. The closed form may exceed it by that much and no more.
EDGE_RESOLUTION = 2e-10


def test_dinf_semicircle_matches_bisection_oracle():
    rng = np.random.default_rng(12)
    cases = [np.array([0.0]), np.array([2.5]), np.array([-3.0, 3.0]), np.zeros(5)]
    for n in (1, 2, 3, 8, 31, 64):
        for _ in range(8):
            cases.append(rng.uniform(-2.6, 2.6, size=n))
            cases.append(np.round(rng.uniform(-2.6, 2.6, size=n), 1))  # ties
    cases += [
        np.linalg.eigvalsh(sample_gue0(64, g)) / 8.0 for g in trial_generators(SeededStream(13), 5)
    ]
    for atoms in cases:
        exact = dinf_semicircle(atoms)
        oracle = dinf_empirical_continuous(atoms, semicircle_cdf, (-2.0, 2.0), tol=1e-12)
        assert oracle - 1e-8 <= exact <= oracle + EDGE_RESOLUTION


def test_dinf_tol_is_validated_and_unused():
    atoms = [0.3, -1.1, 0.9]
    assert dinf_semicircle(atoms, tol=1e-3) == dinf_semicircle(atoms)
    for bad in (0.0, -1e-8, float("nan")):
        with pytest.raises(ValueError):
            dinf_semicircle(atoms, tol=bad)
        with pytest.raises(ValueError):
            dinf_empirical_continuous(atoms, semicircle_cdf, (-2.0, 2.0), tol=bad)
    with pytest.raises(ValueError):
        dinf_semicircle([])


def test_dinf_ideal_vector():
    # frozen via the monotone-coupling oracle; dominated by the edge gap
    # between the extreme quantile and the support endpoint
    val = dinf_semicircle(semicircle_quantile_vector(1000))
    assert val == pytest.approx(0.017722, abs=5e-5)
    assert val == pytest.approx(dinf_monotone_coupling_oracle(semicircle_quantile_vector(1000)), abs=1e-7)
    assert dinf_semicircle(semicircle_quantile_vector(4000)) < val


# -- majorization ---------------------------------------------------------------


def test_majorizes_basic():
    assert majorizes([0.5, -0.5], [0.5, -0.5])
    assert majorizes([0, 0], [1, -1])
    assert not majorizes([1, -1], [0.5, -0.5])
    with pytest.raises(ValueError):
        majorizes([1, -1], [1, 0, -1])


def delta_by_permutation_lp(x, y):
    """Independent oracle: smallest total weight sum(v_sigma) expressing x as
    a nonnegative combination of coordinate permutations of y (Rado: x < cy
    iff x lies in c times the permutation polytope of y)."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    n = x.size
    perms = np.array([y[list(p)] for p in itertools.permutations(range(n))]).T
    res = linprog(
        c=np.ones(perms.shape[1]),
        A_eq=perms,
        b_eq=x,
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0, res.message
    return res.fun


def random_trace_zero(rng, n):
    v = rng.standard_normal(n)
    return v - v.mean()


def test_delta_identity_and_examples():
    rng = np.random.default_rng(3)
    for n in (2, 4, 7):
        x = random_trace_zero(rng, n)
        assert majorization_gauge(x, x) == pytest.approx(1.0)
    assert majorization_gauge([2, -1, -1], [1, 0, -1]) == pytest.approx(2.0)
    assert majorization_gauge(np.zeros(4), [1, 0, 0, -1]) == 0.0
    with pytest.raises(ValueError):
        majorization_gauge([1, -1], [0, 0])


def test_delta_against_permutation_lp_oracle():
    rng = np.random.default_rng(4)
    for _ in range(60):
        n = int(rng.integers(2, 6))
        x = random_trace_zero(rng, n)
        y = random_trace_zero(rng, n)
        assert majorization_gauge(x, y) == pytest.approx(delta_by_permutation_lp(x, y), abs=1e-8)


def test_delta_sign_vector_identity():
    # delta(x, z) = max|x_i| when z has floor(n/2) entries +1 and -1 each
    rng = np.random.default_rng(5)
    for n in (2, 3, 6, 9):
        z = np.array([1.0] * (n // 2) + [-1.0] * (n // 2) + ([0.0] if n % 2 else []))
        for _ in range(20):
            x = random_trace_zero(rng, n)
            assert majorization_gauge(x, z) == pytest.approx(np.abs(x).max(), abs=1e-12)


def test_delta_submultiplicative():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        x, y, z = (random_trace_zero(rng, n) for _ in range(3))
        assert majorization_gauge(x, z) <= majorization_gauge(x, y) * majorization_gauge(y, z) + 1e-10


def test_delta_vs_majorizes_consistency():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(2, 8))
        x = random_trace_zero(rng, n)
        y = random_trace_zero(rng, n)
        assert (majorization_gauge(x, y) <= 1 + 1e-12) == majorizes(x, y)


def test_majorization_absolute_moment_characterization():
    # x < y iff sum |x_i - t| <= sum |y_i - t| for every t
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        x = random_trace_zero(rng, n)
        y = random_trace_zero(rng, n)
        grid = np.linspace(y.min() - 1, y.max() + 1, 401)
        cond = all(
            np.abs(x - t).sum() <= np.abs(y - t).sum() + 1e-11 for t in grid
        )
        assert cond == majorizes(x, y)


# -- alpha / beta ---------------------------------------------------------------


def test_alpha_beta_on_ideal_vector():
    a, b = alpha_beta(semicircle_quantile_vector(16))
    assert a == pytest.approx(1.0, abs=1e-12)
    assert b == pytest.approx(1.0, abs=1e-12)


def test_alpha_beta_product_at_least_one():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        a, b = alpha_beta(random_trace_zero(rng, n))
        assert a * b >= 1 - 1e-10


def test_alpha_calibration_gue():
    # alpha <= 1.5 for at least 95% of trace-zero GUE draws at n = 256
    hits = 0
    trials = 100
    for rng in trial_generators(SeededStream(40), trials):
        lam = np.linalg.eigvalsh(sample_gue0(256, rng)) / 16.0
        a, _ = alpha_beta(lam)
        hits += a <= 1.5
    assert hits >= 95


# -- convergence and tails -------------------------------------------------------


def gue_dinf_median(n, trials, seed):
    vals = [
        dinf_semicircle(np.linalg.eigvalsh(sample_gue0(n, rng)) / math.sqrt(n))
        for rng in trial_generators(SeededStream(seed), trials)
    ]
    return float(np.median(vals))


def test_semicircle_convergence_decreasing():
    meds = [gue_dinf_median(n, 20, 41) for n in (64, 128, 256)]
    assert meds[0] > meds[1] > meds[2]
    assert meds[2] <= 0.10


def test_induced_state_convergence():
    vals = []
    for rng in trial_generators(SeededStream(42), 10):
        rho = sample_induced_state(64, 4096, rng)
        lam = np.linalg.eigvalsh(rho.centered()) * math.sqrt(64 * 4096)
        vals.append(dinf_semicircle(lam))
    # the rescaled induced spectrum approaches the semicircle only when both
    # n and s/n grow; at s/n = 64 the support mismatch keeps the median near
    # 0.22 (see the acceptance suite for the stated-threshold check)
    assert float(np.median(vals)) <= 0.30


def test_gue_operator_norm_tail():
    # P(||G/sqrt(n)|| >= 2 + t) <= exp(-n t^2 / 2) at n=100, t=0.3
    n, t, trials = 100, 0.3, 2000
    hits = 0
    for rng in trial_generators(SeededStream(43), trials):
        lam = np.linalg.eigvalsh(sample_gue0(n, rng)) / math.sqrt(n)
        hits += max(lam[-1], -lam[0]) >= 2 + t
    bound = math.exp(-n * t * t / 2)
    p = hits / trials
    assert p <= bound + 3 * math.sqrt(bound * (1 - bound) / trials)
