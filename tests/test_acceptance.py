"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Stated tolerances and runtime budgets are asserted as written; Monte-Carlo
criteria use fixed seeds, so reruns are exact reproductions.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.stats import ks_2samp

from entanglab.config import ExperimentConfig
from entanglab.ensembles import (
    coupled_local_projection,
    coupled_partial_trace,
    sample_gue0,
    sample_induced_state,
)
from entanglab.experiments import (
    gue_approx_experiment,
    partial_trace_monotonicity,
    projection_monotonicity,
    run_config,
    spectral_rows,
    threshold_scan,
)
from entanglab.geometry import density_comparison_ratio, log_znorm, vrad_states
from entanglab.linalg import ProductDims, partial_transpose
from entanglab.rng import SeededStream, trial_generators
from entanglab.separability import gauge_separable, gauge_states
from entanglab.spectral import dinf_semicircle, majorization_gauge
from entanglab.stats import from_samples
from entanglab.widths import (
    ppt_threshold_estimate,
    separability_threshold_estimate,
    symmetrization_volume_ratio,
    width_duality_check,
)

DIMS22 = ProductDims((2, 2))

# Golden value recorded on the first validated run of criterion 17
# (10^4 trials, master seed 1001).
S0_D2_GOLDEN = 7.107654
S0_D2_GOLDEN_STDERR = 0.029012


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")


def bell_direction():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / math.sqrt(2)
    return np.outer(phi, phi.conj()) - np.eye(4) / 4


def test_criterion_01_werner_gauge():
    t0 = time.time()
    res = gauge_separable(bell_direction(), DIMS22, tol=1e-8)
    elapsed = time.time() - t0
    ok = abs(res.value - 3.0) <= 1e-6 and elapsed < 1.0
    report(1, "Werner gauge", ok, f"value={res.value:.9f} (target 3), {elapsed:.3f}s")
    assert abs(res.value - 3.0) <= 1e-6
    assert elapsed < 1.0


def test_criterion_02_partial_transpose_spectrum():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / math.sqrt(2)
    P = np.outer(phi, phi.conj())
    lam = np.sort(np.linalg.eigvalsh(partial_transpose(P, DIMS22, 1)))
    target = np.array([-0.5, 0.5, 0.5, 0.5])
    err = float(np.max(np.abs(lam - target)))
    report(2, "PT spectrum of the Bell projector", err <= 1e-11, f"max error {err:.2e}")
    assert err <= 1e-11


def test_criterion_03_normalization_constants():
    z22 = math.exp(log_znorm(2, 2))
    z23 = math.exp(log_znorm(2, 3))
    e22 = abs(z22 - math.pi * math.sqrt(2) / 3) / (math.pi * math.sqrt(2) / 3)
    e23 = abs(z23 - math.pi * math.sqrt(2) / 30) / (math.pi * math.sqrt(2) / 30)
    ok = e22 <= 1e-10 and e23 <= 1e-10
    report(3, "state-space normalization constants", ok, f"rel errors {e22:.2e}, {e23:.2e}")
    assert ok


def test_criterion_04_volume_radius():
    t0 = time.time()
    v2 = vrad_states(2)
    v64 = vrad_states(64) * 8 * math.exp(0.25)
    elapsed = time.time() - t0
    ok = abs(v2 - 1 / math.sqrt(2)) <= 1e-10 and 0.95 <= v64 <= 1.05 and elapsed < 1.0
    report(4, "volume radius", ok, f"vrad(2)={v2:.12f}, normalized vrad(64)={v64:.4f}, {elapsed:.3f}s")
    assert abs(v2 - 1 / math.sqrt(2)) <= 1e-10
    assert 0.95 <= v64 <= 1.05
    assert elapsed < 1.0


def gue_dinf_median(n: int, trials: int, seed: int) -> float:
    vals = [
        dinf_semicircle(np.linalg.eigvalsh(sample_gue0(n, rng)) / math.sqrt(n))
        for rng in trial_generators(SeededStream(seed), trials)
    ]
    return float(np.median(vals))


def test_criterion_05_semicircle_convergence():
    t0 = time.time()
    med256 = gue_dinf_median(256, 20, 501)
    med64 = gue_dinf_median(64, 20, 502)
    elapsed = time.time() - t0
    ok = med256 <= 0.10 and med256 < med64 and elapsed < 30
    report(5, "GUE semicircle convergence", ok,
           f"median d_inf: n=256 {med256:.4f} (<=0.10), n=64 {med64:.4f}, {elapsed:.1f}s")
    assert med256 <= 0.10
    assert med256 < med64
    assert elapsed < 30


def test_criterion_06_induced_semicircle():
    # Faithful to the stated threshold. The measured median is ~0.22-0.23:
    # at s/n = 64 the centered rescaled spectrum has limiting support
    # [-2+q, 2+q] with q = sqrt(n/s) = 0.125, so its smallest eigenvalue
    # sits ~0.18 above -2 (support offset plus the finite-n edge inset) and
    # the transport of left-edge mass alone forces d_inf >= 0.18; the bulk
    # shape mismatch brings the total to ~0.23. The distance does fall once
    # s/n grows (0.14 at s/n = 1024), but not at these stated parameters.
    t0 = time.time()
    n, s = 64, 4096
    vals = []
    for rng in trial_generators(SeededStream(503), 10):
        rho = sample_induced_state(n, s, rng)
        lam = np.linalg.eigvalsh(rho.centered()) * math.sqrt(n * s)
        vals.append(dinf_semicircle(lam))
    med = float(np.median(vals))
    elapsed = time.time() - t0
    ok = med <= 0.20 and elapsed < 120
    report(6, "induced-state semicircle convergence", ok,
           f"median d_inf={med:.4f} (stated threshold 0.20), {elapsed:.1f}s")
    assert elapsed < 120
    assert med <= 0.20, (
        f"median {med:.4f} > 0.20: the stated tolerance is unattainable at "
        "(n=64, s=4096); see the README paragraph on criterion 6 (Install and "
        "test) for the support-mismatch analysis"
    )


def delta_permutation_lp(x, y):
    perms = np.array([y[list(p)] for p in itertools.permutations(range(len(y)))]).T
    res = linprog(np.ones(perms.shape[1]), A_eq=perms, b_eq=x, bounds=(0, None), method="highs")
    assert res.status == 0
    return res.fun


def test_criterion_07_majorization_suite():
    rng = np.random.default_rng(504)
    # delta(x, x) = 1
    for n in (2, 5, 9):
        x = rng.standard_normal(n)
        x -= x.mean()
        assert majorization_gauge(x, x) == pytest.approx(1.0, abs=1e-12)
    # delta(x, z) = max |x_i| for the sign vector z
    for n in (2, 5, 8):
        z = np.array([1.0] * (n // 2) + [-1.0] * (n // 2) + ([0.0] if n % 2 else []))
        for _ in range(25):
            x = rng.standard_normal(n)
            x -= x.mean()
            assert majorization_gauge(x, z) == pytest.approx(np.abs(x).max(), abs=1e-12)
    # LP-oracle agreement on 200 random triples
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        x, y, z = (rng.standard_normal(n) for _ in range(3))
        x, y, z = x - x.mean(), y - y.mean(), z - z.mean()
        worst = max(worst, abs(majorization_gauge(x, y) - delta_permutation_lp(x, y)))
        worst = max(worst, abs(majorization_gauge(x, z) - delta_permutation_lp(x, z)))
        assert majorization_gauge(x, z) <= majorization_gauge(x, y) * majorization_gauge(y, z) + 1e-10
    # alpha * beta >= 1 on all spectral rows
    rows = spectral_rows("gue0", 64, None, 20, SeededStream(505))
    rows += spectral_rows("induced", 16, 64, 10, SeededStream(506))
    prods = [r[5] * r[6] for r in rows]
    ok = worst <= 1e-8 and all(p >= 1 - 1e-10 for p in prods)
    report(7, "majorization suite", ok,
           f"LP worst gap {worst:.2e}, min alpha*beta {min(prods):.6f} over {len(prods)} rows")
    assert worst <= 1e-8
    assert all(p >= 1 - 1e-10 for p in prods)


def test_criterion_08_gue_approximation_ratio():
    t0 = time.time()
    res = gue_approx_experiment(32, 1024, "d0", 200, SeededStream(507))
    elapsed = time.time() - t0
    ok = 0.9 <= res.ratio <= 1.1 and elapsed < 120
    report(8, "GUE approximation ratio", ok,
           f"R(32,1024)={res.ratio:.4f} +- {res.stderr:.4f}, {elapsed:.1f}s")
    assert 0.9 <= res.ratio <= 1.1
    assert elapsed < 120


def test_criterion_09_ppt_width():
    t0 = time.time()
    d = 8
    res = ppt_threshold_estimate(d, 500, SeededStream(508))
    width_ratio = res.width_polar.mean / (2 * d)
    thr_ratio = res.threshold.mean / (4 * d * d)
    elapsed = time.time() - t0
    ok = 0.8 <= width_ratio <= 1.1 and 0.6 <= thr_ratio <= 1.2 and elapsed < 300
    report(9, "PPT polar width and threshold", ok,
           f"w/(2d)={width_ratio:.4f}, s0_ppt/(4d^2)={thr_ratio:.4f}, {elapsed:.1f}s")
    assert 0.8 <= width_ratio <= 1.1
    assert 0.6 <= thr_ratio <= 1.2
    assert elapsed < 300


def monotone_within_2sigma(points) -> bool:
    for a, b in zip(points, points[1:]):
        t = a.trials
        sigma = math.sqrt(max(a.p_hat * (1 - a.p_hat), b.p_hat * (1 - b.p_hat), 1.0 / t) / t)
        if b.p_hat < a.p_hat - 2 * sigma:
            return False
    return True


def test_criterion_10_ppt_threshold_scan():
    t0 = time.time()
    cfg = ExperimentConfig.from_dict({
        "experiment": "threshold-scan",
        "dims": [3, 3],
        "s_values": {"start": 16, "stop": 64, "step": 4},
        "criterion": "ppt",
        "trials": 2000,
        "master_seed": 509,
    })
    res = threshold_scan(cfg)
    elapsed = time.time() - t0
    mono = monotone_within_2sigma(res.points)
    ok = res.crossing is not None and 20 <= res.crossing <= 60 and mono and elapsed < 600
    report(10, "PPT threshold scan at d=3", ok,
           f"crossing={res.crossing:.2f} in [20,60], monotone={mono}, {elapsed:.1f}s")
    assert res.crossing is not None and 20 <= res.crossing <= 60
    assert mono
    assert elapsed < 600


def scan(dims, s_values, trials, seed, criterion="exact"):
    cfg = ExperimentConfig.from_dict({
        "experiment": "threshold-scan",
        "dims": list(dims),
        "s_values": list(s_values),
        "criterion": criterion,
        "trials": trials,
        "master_seed": seed,
    })
    return threshold_scan(cfg)


def test_criterion_11_exact_separability_endpoints():
    p1 = scan((2, 2), [1], 10000, 510).points[0].p_hat
    p80 = scan((2, 2), [80], 2000, 511).points[0].p_hat
    grid = scan((2, 2), [2, 4, 8, 16, 32, 64], 2000, 512)
    mono = monotone_within_2sigma(grid.points)
    ok = p1 == 0.0 and p80 >= 0.9 and mono
    report(11, "exact separability endpoints", ok,
           f"p(2,1)={p1}, p(2,80)={p80:.4f}, grid monotone={mono}")
    assert p1 == 0.0
    assert p80 >= 0.9
    assert mono


def test_criterion_12_coupling_laws():
    trials = 2000
    coupled = np.empty(trials)
    direct = np.empty(trials)
    for i, rng in enumerate(trial_generators(SeededStream(513), trials)):
        coupled[i] = np.linalg.eigvalsh(coupled_local_projection(2, 3, 12, rng).small.matrix)[-1]
    for i, rng in enumerate(trial_generators(SeededStream(514), trials)):
        direct[i] = np.linalg.eigvalsh(sample_induced_state(4, 12, rng).matrix)[-1]
    ks_proj = ks_2samp(coupled, direct).pvalue

    for i, rng in enumerate(trial_generators(SeededStream(515), trials)):
        coupled[i] = np.linalg.eigvalsh(coupled_partial_trace(2, 5, rng).small.matrix)[0]
    for i, rng in enumerate(trial_generators(SeededStream(516), trials)):
        direct[i] = np.linalg.eigvalsh(sample_induced_state(4, 20, rng).matrix)[0]
    ks_pt = ks_2samp(coupled, direct).pvalue

    mono_proj = projection_monotonicity(2, 3, 12, trials, SeededStream(517))
    mono_pt = partial_trace_monotonicity(2, 5, trials, SeededStream(518))
    ok = (ks_proj >= 0.01 and ks_pt >= 0.01
          and mono_proj.ordering_holds() and mono_pt.ordering_holds())
    report(12, "coupling laws", ok,
           f"KS p-values: projection {ks_proj:.3f}, partial-trace {ks_pt:.3f}; "
           f"orderings {mono_proj.ordering_holds()}/{mono_pt.ordering_holds()}")
    assert ks_proj >= 0.01 and ks_pt >= 0.01
    assert mono_proj.ordering_holds() and mono_pt.ordering_holds()


def test_criterion_13_comparison_lemma():
    worst_hi, worst_lo = 0.0, math.inf
    for n in (4, 9, 16, 36, 64):
        assert density_comparison_ratio(n, n) == pytest.approx(1.0, rel=1e-12)
        for s in (n, 2 * n, 4 * n, 8 * n):
            r = density_comparison_ratio(n, s)
            worst_hi = max(worst_hi, r)
            worst_lo = min(worst_lo, r)
    ok = worst_hi <= 3.0 and worst_lo >= 0.1
    report(13, "measure comparison ratio", ok, f"range [{worst_lo:.4f}, {worst_hi:.4f}] on the grid")
    assert worst_hi <= 3.0
    assert worst_lo >= 0.1


def test_criterion_14_width_duality_lower_bound():
    res = width_duality_check(DIMS22, 10000, SeededStream(519))
    ratio = res.product / res.gamma_sq
    ok = res.product >= res.gamma_sq * (1 - 3 * res.relative_stderr)
    report(14, "width duality lower bound", ok,
           f"product/gamma^2 = {ratio:.4f}, rel SE {res.relative_stderr:.4f}")
    assert ok


def test_criterion_15_tail_bound():
    n, t, trials = 100, 0.3, 2000
    hits = 0
    for rng in trial_generators(SeededStream(520), trials):
        lam = np.linalg.eigvalsh(sample_gue0(n, rng)) / math.sqrt(n)
        hits += max(lam[-1], -lam[0]) >= 2 + t
    bound = math.exp(-n * t * t / 2)
    limit = bound + 3 * math.sqrt(bound * (1 - bound) / trials)
    p = hits / trials
    report(15, "operator norm tail bound", p <= limit,
           f"empirical {p:.5f} <= exp(-4.5)+3SE = {limit:.5f}")
    assert p <= limit


def test_criterion_16_symmetrized_volume():
    oks = []
    details = []
    for m, seed in ((2, 521), (3, 522)):
        res = symmetrization_volume_ratio(m, 20000, SeededStream(seed))
        oks.append(res.passed)
        details.append(f"m={m}: ratio {res.ratio:.4f} vs 2^-{m} = {res.threshold:.4f}")
    report(16, "symmetrized volume bound", all(oks), "; ".join(details))
    assert all(oks)


def test_criterion_17_threshold_estimate_golden():
    est1 = separability_threshold_estimate(2, 10000, SeededStream(1001))
    est2 = separability_threshold_estimate(2, 10000, SeededStream(1002))
    compatible = est1.compatible(est2, z=3.0)

    lo_vals, hi_vals = [], []
    for rng in trial_generators(SeededStream(523), 10000):
        G = sample_gue0(4, rng)
        lo_vals.append(gauge_states(G))
        hi_vals.append(math.sqrt(12) * np.linalg.norm(G))
    lo = from_samples(lo_vals)
    hi = from_samples(hi_vals)
    lo_bound = (lo.mean / 4) ** 2
    hi_bound = (hi.mean / 4) ** 2
    inside = lo_bound - 3 * lo.stderr <= est1.mean <= hi_bound + 3 * hi.stderr
    golden_ok = abs(est1.mean - S0_D2_GOLDEN) <= 4 * math.hypot(est1.stderr, S0_D2_GOLDEN_STDERR)
    ok = compatible and inside and golden_ok
    report(17, "threshold estimate at d=2", ok,
           f"s0(2)={est1.mean:.4f}+-{est1.stderr:.4f} vs golden {S0_D2_GOLDEN}, "
           f"sandwich [{lo_bound:.3f}, {hi_bound:.3f}], seeds compatible={compatible}")
    assert compatible
    assert inside
    assert golden_ok


def test_criterion_18_run_determinism(tmp_path):
    raw = {
        "experiment": "threshold-scan",
        "dims": [2, 2],
        "s_values": [2, 6, 10],
        "criterion": "exact",
        "trials": 50,
        "master_seed": 77,
        "output": str(tmp_path / "det"),
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert run_config(str(cfg)) == 0
    first = (tmp_path / "det.csv").read_bytes()
    assert run_config(str(cfg)) == 0
    second = (tmp_path / "det.csv").read_bytes()
    ok = first == second
    report(18, "byte-identical reruns", ok, f"{len(first)} bytes, identical={ok}")
    assert ok
