import math

import numpy as np
import pytest
from conftest import chunk_trials, separable_bisection_gauge_oracle

from entanglab.ensembles import sample_gue0
from entanglab.geometry import gamma_m, vrad_states
from entanglab.linalg import ProductDims
from entanglab.rng import SeededStream, trial_generators
from entanglab.separability import (
    gauge_ppt,
    gauge_separable_sym,
    gauge_states,
    mean_gauge_gue,
    support_separable,
)
from entanglab.stats import from_samples
from entanglab.widths import (
    SupportOracle,
    gaussian_mean_width_mc,
    mc_intersection_ratio,
    ppt_threshold_estimate,
    separability_threshold_estimate,
    separable_width,
    symmetrization_volume_ratio,
    width_duality_check,
    _gauge_sym_qubit_pair,
)


# -- generic mean width -------------------------------------------------------------


def test_width_unit_ball_is_gamma():
    for m in (3, 15):
        oracle = SupportOracle(m, support=lambda u: float(np.linalg.norm(u)))
        est = gaussian_mean_width_mc(oracle, 4000, SeededStream(0))
        assert abs(est.value - gamma_m(m)) <= 3 * est.stderr
        assert est.width == pytest.approx(est.value / gamma_m(m))


def test_width_single_point_and_segment():
    oracle0 = SupportOracle(6, support=lambda u: 0.0)
    assert gaussian_mean_width_mc(oracle0, 100, SeededStream(1)).value == 0.0

    direction = np.zeros(6)
    direction[2] = 1.0
    seg = SupportOracle(6, support=lambda u: abs(float(u @ direction)))
    est = gaussian_mean_width_mc(seg, 20000, SeededStream(2))
    assert abs(est.value - math.sqrt(2 / math.pi)) <= 3 * est.stderr


def test_width_counts_nan_failures():
    calls = {"k": 0}

    def flaky_support(u):
        calls["k"] += 1
        return float("nan") if calls["k"] % 3 == 0 else float(np.linalg.norm(u))

    oracle = SupportOracle(4, support=flaky_support)
    est = gaussian_mean_width_mc(oracle, 99, SeededStream(3))
    assert est.failures == 33
    assert est.trials == 99


# -- separable width ----------------------------------------------------------------


def test_separable_width_qubit_pair_sandwich():
    dims = ProductDims((2, 2))
    est = separable_width(dims, 300, SeededStream(4), restarts=12)
    gm = gamma_m(dims.m)
    # inradius/outradius sandwich: w in [1/sqrt(n(n-1)), sqrt((n-1)/n)]
    assert gm / math.sqrt(12) - 3 * est.stderr <= est.value <= gm * math.sqrt(3 / 4) + 3 * est.stderr
    assert est.lower_bound


def test_separable_width_growth_like_fourth_root():
    # w_G of the centered separable body grows like n^{1/4}; allow a loose
    # factor-two corridor at these tiny sizes
    vals = {}
    for d, seed, trials in ((2, 5, 200), (3, 6, 120), (4, 7, 80)):
        dims = ProductDims((d, d))
        vals[d] = separable_width(dims, trials, SeededStream(seed), restarts=10).value
    for d1, d2 in ((2, 3), (3, 4), (2, 4)):
        expected = ((d2 * d2) / (d1 * d1)) ** 0.25
        measured = vals[d2] / vals[d1]
        assert expected / 2 <= measured <= expected * 2


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2)])
def test_separable_width_matches_per_direction_calls(monkeypatch, dims):
    # directions swept a chunk at a time, against one `support_separable`
    # call per direction from the same starts, at trial counts around the chunk
    dims = ProductDims(dims)
    chunk_trials(monkeypatch, dims.n, 3)
    for trials in (1, 2, 3, 4):
        for new in (lambda: SeededStream(34), lambda: np.random.default_rng(34)):
            est = separable_width(dims, trials, new(), restarts=2)
            ref = from_samples([support_separable(sample_gue0(dims.n, g), dims, 2, stream=0).value
                                for g in trial_generators(new(), trials)])
            assert est.value == pytest.approx(ref.mean, rel=1e-12, abs=0)
            assert est.width == est.value / gamma_m(dims.m)
            if trials > 1:
                assert est.stderr == pytest.approx(ref.stderr, rel=1e-12, abs=0)
            else:
                assert math.isnan(est.stderr)
            assert (est.trials, est.failures, est.lower_bound) == (trials, 0, True)


def test_separable_width_three_factors_smoke():
    dims = ProductDims((2, 2, 2))
    est = separable_width(dims, 100, SeededStream(8), restarts=8)
    assert np.isfinite(est.value) and est.value > 0
    assert est.stderr / est.value < 0.05


# -- duality ------------------------------------------------------------------------


def test_gauge_sym_batch_matches_bisection():
    dims = ProductDims((2, 2))
    G = np.stack([sample_gue0(4, r) for r in trial_generators(SeededStream(9), 25)])
    batch = _gauge_sym_qubit_pair(G)
    for i in range(G.shape[0]):
        slow = max(separable_bisection_gauge_oracle(G[i], dims),
                   separable_bisection_gauge_oracle(-G[i], dims))
        assert batch[i] == pytest.approx(slow, rel=1e-8)
        assert gauge_separable_sym(G[i], dims, tol=1e-10).value == pytest.approx(slow, rel=1e-8)


def test_width_duality_check():
    res = width_duality_check(ProductDims((2, 2)), 3000, SeededStream(10))
    assert res.passed
    assert res.product >= res.gamma_sq * (1 - 3 * res.relative_stderr)
    # factor-two sandwich between one-sided and symmetrized gauges
    assert res.one_sided_gauge.mean <= res.gauge_side.mean <= 2 * res.one_sided_gauge.mean
    assert res.gamma_sq == pytest.approx(gamma_m(15) ** 2)
    with pytest.raises(Exception):
        width_duality_check(ProductDims((3, 3)), 10, SeededStream(11))


# -- symmetrized volume ---------------------------------------------------------------


def test_cross_polytope_ratio_is_one():
    # uniform sampling of the L1 ball: signed Dirichlet weights
    m = 3

    def sample_points(gens):
        return np.stack([rng.dirichlet(np.ones(m + 1))[:m] * rng.choice([-1.0, 1.0], size=m)
                         for rng in gens])

    def contains(Y):
        return np.abs(Y).sum(axis=1) <= 1.0 + 1e-12

    ratio, _ = mc_intersection_ratio(sample_points, contains, 2000, SeededStream(12))
    assert ratio == 1.0


def test_simplex_symmetrization_bound():
    for m in (2, 3, 4):
        res = symmetrization_volume_ratio(m, 4000, SeededStream(13 + m))
        assert res.threshold == 0.5 ** m
        assert res.passed, (m, res.ratio, res.threshold)


def test_symmetrization_seed_stability():
    a = symmetrization_volume_ratio(2, 4000, SeededStream(20))
    b = symmetrization_volume_ratio(2, 4000, SeededStream(20))
    assert a.ratio == b.ratio  # determinism
    # same simplex distribution, different points: compatible within 3 SE...
    # use the same seed for the simplex and vary only the sampling stream by
    # comparing against an independent full run
    c = symmetrization_volume_ratio(2, 4000, SeededStream(21))
    # different random simplices have genuinely different ratios, so only
    # the bound itself is comparable
    assert c.passed and a.passed


def test_regular_triangle_ratio():
    # centered equilateral triangle: the intersection with its negation is a
    # hexagon of 2/3 the area; comfortably above the 1/4 bound
    verts = np.array([[1.0, 0.0], [-0.5, math.sqrt(3) / 2], [-0.5, -math.sqrt(3) / 2]])
    mat = np.vstack([verts.T, np.ones(3)])
    inv = np.linalg.inv(mat)

    def sample_points(gens):
        return np.stack([rng.dirichlet(np.ones(3)) for rng in gens]) @ verts

    def contains(Y):
        return np.all(np.hstack([Y, np.ones((len(Y), 1))]) @ inv.T >= -1e-12, axis=1)

    ratio, se = mc_intersection_ratio(sample_points, contains, 20000, SeededStream(22))
    assert abs(ratio - 2 / 3) <= 4 * se
    assert ratio >= 0.25


# -- threshold estimates ----------------------------------------------------------------


def test_separability_threshold_seed_consistency_and_sandwich():
    est1 = separability_threshold_estimate(2, 1500, SeededStream(23))
    est2 = separability_threshold_estimate(2, 1500, SeededStream(24))
    assert est1.compatible(est2, z=3.0)

    # analytic sandwich from the gauge chain
    lo_vals = []
    hi_vals = []
    for rng in trial_generators(SeededStream(25), 1500):
        G = sample_gue0(4, rng)
        lo_vals.append(gauge_states(G))
        hi_vals.append(math.sqrt(12) * np.linalg.norm(G))
    lo = from_samples(lo_vals)
    hi = from_samples(hi_vals)
    assert (lo.mean / 4) ** 2 - 3 * lo.stderr <= est1.mean <= (hi.mean / 4) ** 2 + 3 * hi.stderr


def test_ppt_threshold_matches_separable_at_d2():
    # PPT and separability coincide for two qubits, so the two estimates
    # must agree within Monte-Carlo error
    sep = separability_threshold_estimate(2, 1200, SeededStream(26))
    ppt = ppt_threshold_estimate(2, 1200, SeededStream(27))
    assert abs(sep.mean - ppt.threshold.mean) <= 3 * math.hypot(sep.stderr, ppt.threshold.stderr)


def test_separability_threshold_is_ppt_threshold_at_d2():
    # same draws, same closed-form gauge: the two estimates are the same numbers
    sep = separability_threshold_estimate(2, 500, SeededStream(7))
    ppt = ppt_threshold_estimate(2, 500, SeededStream(7))
    assert (sep.mean, sep.stderr) == (ppt.threshold.mean, ppt.threshold.stderr)
    gauge = mean_gauge_gue(2, 500, SeededStream(7))
    assert (gauge.mean, gauge.stderr) == (ppt.mean_gauge.mean, ppt.mean_gauge.stderr)


@pytest.mark.parametrize("d", [2, 3])
def test_ppt_threshold_estimate_matches_per_trial_gauges(monkeypatch, d):
    # batched draws and gauges, in chunks of 3, against one public gauge call
    # per trial: the same numbers, bit for bit
    dims = ProductDims((d, d))
    chunk_trials(monkeypatch, dims.n, 3)
    for trials in (1, 2, 3, 4, 7):
        for new in (lambda: SeededStream(31), lambda: np.random.default_rng(31)):
            res = ppt_threshold_estimate(d, trials, new())
            ref = from_samples([gauge_ppt(sample_gue0(dims.n, g), dims)
                                for g in trial_generators(new(), trials)])
            assert (res.mean_gauge.mean, res.mean_gauge.stderr) == (ref.mean, ref.stderr)


def test_ppt_threshold_orders():
    res = ppt_threshold_estimate(4, 300, SeededStream(28))
    # polar width ~ 2d and threshold ~ 4 d^2, loosely at this small size
    assert 0.7 <= res.width_polar.mean / (2 * 4) <= 1.2
    assert 0.4 <= res.threshold.mean / (4 * 16) <= 1.3


# -- urysohn / polar consistency ----------------------------------------------------------


def test_urysohn_inequality_for_states():
    # vrad(D) <= w(D0); the width of the centered state body comes from the
    # support function h(A) = lambda_max(A)
    for n, seed in ((2, 29), (3, 30), (4, 31)):
        vals = [
            float(np.linalg.eigvalsh(sample_gue0(n, rng))[-1])
            for rng in trial_generators(SeededStream(seed), 3000)
        ]
        est = from_samples(vals)
        gm = gamma_m(n * n - 1)
        assert vrad_states(n) <= (est.mean + 3 * est.stderr) / gm


def test_polar_consistency_states_gauge():
    # the polar of the centered state body is -n times itself, so
    # E ||G||_D0 = n E lambda_max(G) by symmetry of G
    n = 4
    gauges = []
    tops = []
    for rng in trial_generators(SeededStream(32), 3000):
        gauges.append(gauge_states(sample_gue0(n, rng)))
    for rng in trial_generators(SeededStream(33), 3000):
        tops.append(float(np.linalg.eigvalsh(sample_gue0(n, rng))[-1]))
    g = from_samples(gauges)
    t = from_samples(tops)
    assert abs(g.mean - n * t.mean) <= 3 * math.hypot(g.stderr, n * t.stderr)
