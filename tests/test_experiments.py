import dataclasses
import importlib.metadata
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from conftest import child_env, chunk_trials, traced_peak

import entanglab.experiments as exps
import entanglab.rng
import entanglab.separability
from entanglab.config import ConfigError, ExperimentConfig
from entanglab.ensembles import (
    _centered_induced_states,
    _induced_states,
    coupled_local_projection,
    coupled_partial_trace,
    sample_gue,
    sample_gue0,
    sample_induced_state,
)
from entanglab.experiments import (
    ConcentrationPoint,
    ConcentrationSummary,
    RatioResult,
    ScanPoint,
    concentration_experiment,
    crossing_estimate,
    gue_approx_experiment,
    partial_trace_monotonicity,
    projection_monotonicity,
    run_config,
    spectral_rows,
    threshold_scan,
)
from entanglab.linalg import ProductDims, hs_norm
from entanglab.rng import SeededStream, _chunks, split_stream, trial_generators
from entanglab.separability import (
    EXACT_DIMS,
    PPT_EIGENVALUE_TOL,
    gauge_ppt,
    gauge_separable,
    gauge_separable_sym,
    gauge_states,
    is_separable_exact,
    min_pt_eigenvalue,
)
from entanglab.spectral import alpha_beta, dinf_semicircle
from entanglab.stats import from_samples, wilson_interval
from entanglab.widths import (
    SupportOracle,
    gaussian_mean_width_mc,
    ppt_threshold_estimate,
    separable_width,
    symmetrization_volume_ratio,
    width_duality_check,
)


def make_config(**overrides):
    raw = {
        "experiment": "threshold-scan",
        "dims": [2, 2],
        "s_values": [2, 8],
        "criterion": "exact",
        "trials": 40,
        "master_seed": 5,
    }
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


# -- config validation ---------------------------------------------------------


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown key"):
        make_config(bogus=1)
    with pytest.raises(ConfigError, match="experiment"):
        ExperimentConfig.from_dict({"experiment": "nope", "trials": 1, "master_seed": 0})


def test_config_criterion_dims_rule():
    with pytest.raises(ConfigError, match="exact"):
        make_config(dims=[3, 3])
    cfg = make_config(dims=[3, 3], criterion="ppt")
    assert cfg.criterion == "ppt"
    cfg23 = make_config(dims=[2, 3])
    assert cfg23.dims == (2, 3)
    # the scan checks each entry; the criterion's dims rule checks their count
    with pytest.raises(ConfigError, match=r"bipartite dims d1 x d2 required, got \(2, 2, 2\)"):
        make_config(dims=[2, 2, 2], criterion="ppt")
    with pytest.raises(ConfigError, match=r"2x2 and 2x3 systems, got \(2,\)"):
        make_config(dims=[2])
    for bad in ([2, 1], [2, True], [2, "3"], "2,2"):
        with pytest.raises(ConfigError, match="'dims' must be a list of integers >= 2"):
            make_config(dims=bad)


def test_config_s_values_range_form():
    cfg = make_config(s_values={"start": 16, "stop": 28, "step": 4})
    assert cfg.s_values == (16, 20, 24, 28)
    with pytest.raises(ConfigError):
        make_config(s_values=[0, 4])
    with pytest.raises(ConfigError):
        make_config(s_values={"start": 1, "stop": 4, "step": 0})
    with pytest.raises(ConfigError, match="empty"):
        make_config(s_values={"start": 9, "stop": 3})
    # JSON true/false load as bools, which are ints to isinstance
    for bad in ([True, 4], {"start": True, "stop": 3}, {"start": 2, "stop": 3, "step": True}):
        with pytest.raises(ConfigError, match="s_values"):
            make_config(s_values=bad)


def test_config_digest_is_canonical():
    a = ExperimentConfig.from_dict(
        {"experiment": "spectral", "ensemble": "gue0", "n": 8, "trials": 3, "master_seed": 1}
    )
    b = ExperimentConfig.from_dict(
        {"master_seed": 1, "trials": 3, "n": 8, "ensemble": "gue0", "experiment": "spectral"}
    )
    assert a.digest() == b.digest()


def test_config_tolerances():
    cfg = make_config(tolerances={"gauge_tol": 1e-6})
    assert cfg.gauge_tol == 1e-6
    assert make_config(tolerances={"gauge_tol": 1}).gauge_tol == 1.0
    with pytest.raises(ConfigError):
        make_config(tolerances={"nope": 1})
    for bad in (None, [1e-8], "x", True, 0, -1e-8, math.nan, math.inf, 10 ** 400):
        with pytest.raises(ConfigError, match="gauge_tol"):
            make_config(tolerances={"gauge_tol": bad})


# -- wilson ----------------------------------------------------------------------


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 50)
    assert lo == 0.0 and hi < 0.12
    lo, hi = wilson_interval(50, 50)
    assert hi == 1.0
    with pytest.raises(ValueError):
        wilson_interval(5, 0)


def test_wilson_coverage():
    # known Bernoulli(0.3) stream: 95% intervals should cover p about 95%
    # of the time
    rng = np.random.default_rng(77)
    p, reps, per = 0.3, 1000, 200
    covered = 0
    for _ in range(reps):
        k = int(rng.binomial(per, p))
        lo, hi = wilson_interval(k, per)
        covered += lo <= p <= hi
    assert 0.92 <= covered / reps <= 0.98


# -- threshold scan ----------------------------------------------------------------


def test_threshold_scan_shape_and_monotone_window():
    res = threshold_scan(make_config(s_values=[1, 2, 8, 32], trials=300))
    assert res.header == ["s", "trials", "successes", "p_hat", "ci_low", "ci_high"]
    ps = [p.p_hat for p in res.points]
    assert ps[0] == 0.0  # pure states never separable
    assert ps[-1] >= 0.9
    assert res.crossing is not None and 2 <= res.crossing <= 16


def test_threshold_scan_ppt_column():
    res = threshold_scan(make_config(dims=[3, 3], criterion="ppt", s_values=[9, 36], trials=100))
    assert res.header[3] == "ppt_probability"
    assert "bound_entanglement_note" in res.metadata


def test_crossing_interpolation():
    from entanglab.experiments import ScanPoint

    pts = [
        ScanPoint(10, 100, 30, 0.3, 0.2, 0.4),
        ScanPoint(20, 100, 70, 0.7, 0.6, 0.8),
    ]
    # linear interpolation: 10 + (0.5-0.3)/(0.7-0.3) * 10 = 15
    assert crossing_estimate(pts) == pytest.approx(15.0)
    assert crossing_estimate(pts[:1]) is None


def _mono_counts(res):
    return [side.successes for side in (res.coupled_small, res.coupled_large,
                                        res.direct_small, res.direct_large)]


# each count path: (the n its chunks are sized by, its trial count, its counts)
CHUNK_COUNTS = {
    "scan": (4, 60, lambda k: [p.successes for p in threshold_scan(make_config(trials=k)).points]),
    "projection": (9, 40, lambda k: _mono_counts(
        projection_monotonicity(2, 3, 16, k, SeededStream(5)))),
    "partial-trace": (16, 40, lambda k: _mono_counts(
        partial_trace_monotonicity(2, 40, k, SeededStream(5)))),
    "rogers-shephard": (1, 300, lambda k: round(
        symmetrization_volume_ratio(3, k, SeededStream(5)).ratio * k)),
}


@pytest.mark.parametrize("name", sorted(CHUNK_COUNTS))
def test_same_counts_at_any_chunk_size(monkeypatch, name):
    n, trials, counts = CHUNK_COUNTS[name]
    expected = counts(trials)
    for chunk in (1, 2, 7, trials - 1, trials, trials + 1):
        chunk_trials(monkeypatch, n, chunk)
        assert counts(trials) == expected, chunk


# l1 norm of a direction in R^3, or NaN (a failed evaluation) when its first
# coordinate exceeds 1
L1_OR_NAN = SupportOracle(3, lambda u: math.nan if u[0] > 1 else float(np.abs(u).sum()))

# each mean estimate: (the n its chunks are sized by, its trial count, its result)
CHUNK_MEANS = {
    "ppt-threshold": (4, 40, lambda k: ppt_threshold_estimate(2, k, SeededStream(5))),
    "separable-width": (4, 12, lambda k: separable_width(ProductDims((2, 2)), k, SeededStream(5),
                                                         restarts=3)),
    "mean-width": (1, 40, lambda k: gaussian_mean_width_mc(L1_OR_NAN, k, SeededStream(5))),
    "duality": (4, 20, lambda k: width_duality_check(ProductDims((2, 2)), k, SeededStream(5))),
    "gue-approx": (4, 40, lambda k: [gue_approx_experiment(4, 16, body, k, SeededStream(5))
                                     for body in ("hs", "ppt0")]),
    "concentration": (4, 40, lambda k: concentration_experiment(2, 4, k, SeededStream(5),
                                                                body="ppt0")),
}


@pytest.mark.parametrize("name", sorted(CHUNK_MEANS))
def test_same_estimates_at_any_chunk_size(monkeypatch, name):
    # a mean is rounded once from exact sums of its values, so every estimate
    # is the same at the default chunk size and at 1, 3 and 7 trials per
    # chunk, bit for bit (repr compares floats exactly and NaN as equal)
    n, trials, estimate = CHUNK_MEANS[name]
    expected = repr(estimate(trials))
    for chunk in (1, 3, 7):
        chunk_trials(monkeypatch, n, chunk)
        assert repr(estimate(trials)) == expected, chunk


def test_two_qubit_hilbert_schmidt_separability_probability():
    # at (2,2) with s = 4 the induced measure is the Hilbert-Schmidt measure,
    # whose separability probability is 8/33 (Slater, J. Phys. A 45, 095305,
    # 2012); 4 standard errors at 10^6 trials are 0.0017, so this catches a
    # bias that small in the sampler, the partial transpose or the criterion
    trials, p = 10 ** 6, 8 / 33
    p_hat = exps._scan_point(ProductDims((2, 2)), 4, trials, "exact", SeededStream(1)).p_hat
    z = (p_hat - p) / math.sqrt(p * (1 - p) / trials)
    assert abs(z) <= 4, (p_hat, z)


# -- concentration ------------------------------------------------------------------


def test_concentration_scaling():
    summary = concentration_experiment(2, 50, 600, SeededStream(6), body="s0")
    assert summary.at_s.s == 50 and summary.at_4s.s == 200
    # the concentration window shrinks like 1/sqrt(s)
    assert 1.4 <= summary.std_ratio <= 2.8
    assert summary.at_s.mean > summary.at_4s.mean > 0


def test_concentration_median_close_to_mean():
    summary = concentration_experiment(2, 200, 2000, SeededStream(7), body="s0")
    pt = summary.at_s
    assert abs(pt.median - pt.mean) <= 5 * pt.stderr
    assert min(pt.mean, pt.median) > 0


def test_concentration_body_validation():
    with pytest.raises(ValueError):
        concentration_experiment(3, 10, 10, SeededStream(8), body="s0")
    summary = concentration_experiment(3, 20, 50, SeededStream(9), body="ppt0")
    assert summary.at_s.mean > 0


# -- GUE approximation ----------------------------------------------------------------


def test_gue_approx_hs_matches_wishart_moment():
    n, s, trials = 16, 64, 400
    res = gue_approx_experiment(n, s, "hs", trials, SeededStream(10))
    # first-moment ratio should sit near sqrt(ns/(ns+1)) ~ 1
    assert abs(res.ratio - 1.0) <= 0.02

    # second-moment identity, exact: n^2 s E||rho - Id/n||_HS^2 / (n^2-1)
    # equals ns/(ns+1) as a Wishart moment
    vals = np.empty(trials)
    for i, rng in enumerate(trial_generators(SeededStream(11), trials)):
        rho = sample_induced_state(n, s, rng)
        vals[i] = np.linalg.norm(rho.centered()) ** 2
    scaled = vals * n * n * s / (n * n - 1)
    se = scaled.std(ddof=1) / math.sqrt(trials)
    assert abs(scaled.mean() - n * s / (n * s + 1)) <= 3 * se


def test_gue_approx_improves_with_size():
    far = gue_approx_experiment(8, 64, "d0", 200, SeededStream(12))
    close = gue_approx_experiment(32, 1024, "d0", 200, SeededStream(13))
    assert abs(close.ratio - 1) < abs(far.ratio - 1)
    assert res_within(close)


def res_within(res):
    return res.ratio - 3 * res.stderr <= 1.1 and res.ratio + 3 * res.stderr >= 0.85


def test_gue_approx_validation():
    with pytest.raises(ValueError, match=r"perfect square d\^2 for the ppt0 body, got n = 6"):
        gue_approx_experiment(6, 12, "ppt0", 10, SeededStream(14))
    with pytest.raises(ValueError, match=r"perfect square d\^2 for the s0 body, got n = 8"):
        gue_approx_experiment(8, 12, "s0", 10, SeededStream(15))


# -- monotonicity ----------------------------------------------------------------------


def test_projection_monotonicity_trivial_equal_dims():
    res = projection_monotonicity(2, 2, 6, 200, SeededStream(16))
    assert res.coupled_small.successes == res.coupled_large.successes
    assert res.ordering_holds()


def test_projection_monotonicity_2_3():
    res = projection_monotonicity(2, 3, 12, 500, SeededStream(17))
    assert res.coupled_small.criterion == "exact"
    assert res.coupled_large.criterion == "ppt"
    # pointwise coupling: the small compression satisfies the criterion
    # whenever the large state does
    assert res.coupled_small.p_hat >= res.coupled_large.p_hat
    assert res.ordering_holds()


def test_partial_trace_monotonicity():
    res = partial_trace_monotonicity(2, 5, 500, SeededStream(18))
    assert res.coupled_small.dims == (2, 2) and res.coupled_small.s == 20
    assert res.coupled_large.dims == (4, 4) and res.coupled_large.s == 5
    assert res.coupled_small.p_hat >= res.coupled_large.p_hat
    assert res.ordering_holds()


# -- the PPT kernel: one batched Cholesky, no eigensolve --------------------------


def _ppt_counts():
    """Successes of scans and of both monotonicity modes, all counted by `_is_ppt`."""
    scans = (
        threshold_scan(make_config(dims=[3, 3], criterion="ppt", s_values=[24, 36, 48], trials=300)),
        threshold_scan(make_config(dims=[2, 3], s_values=[4, 8, 12], trials=300)),
    )
    monos = (
        projection_monotonicity(2, 3, 20, 300, SeededStream(41)),
        partial_trace_monotonicity(2, 12, 300, SeededStream(42)),
    )
    counts = [p.successes for r in scans for p in r.points]
    counts += [side.successes for m in monos
               for side in (m.coupled_small, m.coupled_large, m.direct_small, m.direct_large)]
    return counts


def test_ppt_counts_match_the_min_pt_reference_kernel(monkeypatch):
    counts = _ppt_counts()
    assert sum(0 < c < 300 for c in counts) >= 6
    sep = entanglab.separability

    def eigvalsh_ppt(states, dims):
        return sep._min_pt(states, dims) >= PPT_EIGENVALUE_TOL

    for name, entry in list(sep._CRITERIA.items()):
        monkeypatch.setitem(sep._CRITERIA, name, dataclasses.replace(entry, kernel=eigvalsh_ppt))
    assert _ppt_counts() == counts


def test_ppt_counts_make_no_eigensolve(monkeypatch):
    # the PPT kernel factors rho^Gamma; any eigvalsh call on its path raises here
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(entanglab.separability.np.linalg, "eigvalsh", no_eigensolve)
    res = threshold_scan(make_config(dims=[3, 3], criterion="ppt", s_values=[36], trials=50))
    mono = projection_monotonicity(2, 3, 20, 50, SeededStream(43))
    assert res.points[0].trials == 50 and mono.coupled_large.trials == 50


def _complex_formula_states(stream, n, s, trials):
    """Induced states of trials 0..trials-1 under `stream` by the complex
    formula: A = (re + 1j*im) / sqrt(2), A A^dagger / tr, hermitized."""
    out = np.empty((trials, n, n), dtype=complex)
    for t in range(trials):
        rng = stream.substream(t).generator()
        A = (rng.standard_normal((n, s)) + 1j * rng.standard_normal((n, s))) / np.sqrt(2)
        out[t] = A @ A.conj().T
    out /= np.trace(out, axis1=1, axis2=2).real[:, None, None]
    return (out + np.conj(np.swapaxes(out, 1, 2))) / 2


def _eigvalsh_ppt_count(rho, d1, d2):
    """PPT states of a stack on C^d1 x C^d2, by eigvalsh of the explicit
    partial transpose on the second factor."""
    pt = rho.reshape(-1, d1, d2, d1, d2).transpose(0, 1, 4, 3, 2).reshape(rho.shape)
    return int(np.count_nonzero(np.linalg.eigvalsh(pt)[:, 0] >= PPT_EIGENVALUE_TOL))


def _oracle_scan_count(dims, s, trials, stream):
    return _eigvalsh_ppt_count(_complex_formula_states(stream, dims[0] * dims[1], s, trials), *dims)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ppt_counts_match_a_complex_formula_oracle(seed):
    # the states of the real Gram product differ from those of the complex
    # formula by rounding only, so every count must equal the oracle's
    counts = []
    for dims, criterion, s_values, trials in (
        ((3, 3), "ppt", range(16, 65, 4), 40),
        ((8, 8), "ppt", range(192, 321, 32), 8),
        ((2, 3), "exact", range(2, 15, 2), 40),
    ):
        res = threshold_scan(make_config(dims=list(dims), criterion=criterion, s_values=list(s_values),
                                         trials=trials, master_seed=seed))
        for i, p in enumerate(res.points):
            expected = _oracle_scan_count(dims, p.s, trials, SeededStream(seed).substream(i))
            assert p.successes == expected, (dims, p.s)
            counts.append(p.successes / trials)

    trials, rows = 60, [0, 1, 3, 4]  # the rows of a 3x3 draw kept at d1 = 2
    stream = SeededStream(seed)
    for res in (projection_monotonicity(2, 3, 12, trials, stream),
                partial_trace_monotonicity(2, 5, trials, stream)):
        d = res.direct_small.dims[0]
        coupled = stream.substream(0)
        if res.mode == "projection":
            large = _complex_formula_states(coupled, 9, 12, trials)
            small = large[:, rows][:, :, rows]
            small /= np.trace(small, axis1=1, axis2=2).real[:, None, None]
        else:
            large = _complex_formula_states(coupled, 4 * d * d, 5, trials)
            small = np.einsum("tiajbicjd->tabcd", large.reshape((trials,) + (2, d) * 4))
            small = small.reshape(trials, d * d, d * d)
        dl = res.direct_large.dims[0]
        assert res.coupled_small.successes == _eigvalsh_ppt_count(small, d, d)
        assert res.coupled_large.successes == _eigvalsh_ppt_count(large, dl, dl)
        for k, side in ((1, res.direct_small), (2, res.direct_large)):
            assert side.successes == _oracle_scan_count(side.dims, side.s, trials, stream.substream(k))
        counts += [side.successes / trials for side in (res.coupled_small, res.coupled_large,
                                                        res.direct_small, res.direct_large)]
    assert sum(0 < c < 1 for c in counts) >= 10


# -- spectral rows -----------------------------------------------------------------------


def test_spectral_rows_schema_and_invariants():
    rows = spectral_rows("gue0", 32, None, 10, SeededStream(19))
    assert len(rows) == 10
    for t, (trial, n, s, ens, dinf, a, b, mx, mn) in enumerate(rows):
        assert trial == t and n == 32 and ens == "gue0" and s == ""
        assert a * b >= 1 - 1e-10
        assert mx > 0 > mn
        assert 0 < dinf < 1
    rows = spectral_rows("induced", 16, 256, 5, SeededStream(20))
    assert all(r[2] == 256 for r in rows)
    with pytest.raises(ValueError):
        spectral_rows("induced", 16, None, 5, SeededStream(21))


def test_spectral_run_holds_a_chunk_of_rows_not_every_trial():
    # the rows reach the CSV a chunk at a time, so ten times the trials add
    # no stack of rows to the peak
    def peak(trials):
        config = ExperimentConfig.from_dict({"experiment": "spectral", "trials": trials,
                                             "master_seed": 4, "ensemble": "gue0", "n": 4})
        return traced_peak(lambda: sum(1 for _ in exps.EXPERIMENTS["spectral"].run(config, {})))

    (rows_small, small), (rows_large, large) = peak(2_000), peak(20_000)
    assert (rows_small, rows_large) == (2_000, 20_000)
    assert large <= 1.5 * small, (small, large)


ZERO_TRIAL_RUNS = {
    "chunks": lambda: next(_chunks(len, 3, 0, 4)),
    "spectral_rows": lambda: spectral_rows("induced", 4, 8, 0, SeededStream(3)),
    "concentration": lambda: concentration_experiment(2, 50, 0, SeededStream(3), body="s0"),
    "gue_approx": lambda: gue_approx_experiment(8, 64, "d0", 0, SeededStream(3)),
    "ppt_threshold_estimate": lambda: ppt_threshold_estimate(2, 0, 1),
}


@pytest.mark.parametrize("run", sorted(ZERO_TRIAL_RUNS))
def test_zero_trials_rejected(run, generators_built):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        ZERO_TRIAL_RUNS[run]()
    assert generators_built == []


def _in_child(call: str):
    """Run `call` on entanglab.experiments and SeededStream in a child Python
    with a timeout, and raise its ValueError here, so a call that never
    returns fails the test instead of stalling the suite."""
    code = f"from entanglab.experiments import *\nfrom entanglab.rng import SeededStream\n{call}"
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True, timeout=60)
    last = (proc.stderr.strip().splitlines() or [""])[-1]
    if last.startswith("ValueError: "):
        raise ValueError(last.removeprefix("ValueError: "))
    assert proc.returncode == 0, proc.stderr


N_S = "n and s must be >= 1"

# every public draw path, at a size its stacked kernel refuses, and the
# kernel's message: no path checks sizes before it reaches the kernel
# (but spectral, whose binding refuses n < 2 first; see the test below)
ZERO_SIZE_RUNS = {
    "sample_gue": (lambda: sample_gue(0, 1), "n must be >= 1"),
    "sample_induced_state": (lambda: sample_induced_state(3, 0, 1), N_S),
    "coupled_local_projection_s0": (lambda: coupled_local_projection(2, 3, 0, 1), N_S),
    "coupled_local_projection_d1_over_d2": (lambda: coupled_local_projection(3, 2, 5, 1),
                                            "need 2 <= d1 <= d2"),
    "coupled_partial_trace": (lambda: coupled_partial_trace(2, 0, 1), N_S),
    "concentration": (lambda: concentration_experiment(2, 0, 3, SeededStream(3)), N_S),
    "gue_approx": (lambda: gue_approx_experiment(4, 0, "d0", 3, SeededStream(3)), N_S),
    "partial_trace_monotonicity": (lambda: partial_trace_monotonicity(2, 0, 3, SeededStream(3)),
                                   N_S),
    # in a child: an s = 0 draw that reached the degenerate-compression redraw
    # loop would spin there on all-zero Gram products
    "projection_monotonicity_s0": (
        lambda: _in_child("projection_monotonicity(2, 3, 0, 4, SeededStream(1))"), N_S),
    "projection_monotonicity_d1_over_d2": (
        lambda: projection_monotonicity(3, 2, 5, 4, SeededStream(1)), "need 2 <= d1 <= d2"),
}


@pytest.mark.parametrize("run", sorted(ZERO_SIZE_RUNS))
def test_sizes_refused_by_the_stacked_kernels(run):
    call, message = ZERO_SIZE_RUNS[run]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("ensemble, s", [("gue0", None), ("induced", 8)])
@pytest.mark.parametrize("n", [0, 1])
def test_spectral_refuses_n_below_two_before_drawing(monkeypatch, ensemble, s, n):
    # a one-eigenvalue spectrum has no alpha and beta factors: spectral's
    # binding refuses it with the config rule's text, and no chunk is drawn
    def no_chunks(*args):
        raise AssertionError("spectral drew before refusing n")

    monkeypatch.setattr(exps, "_chunks", no_chunks)
    with pytest.raises(ValueError) as info:
        spectral_rows(ensemble, n, s, 3, SeededStream(3))
    assert str(info.value) == f"'n' must be >= 2, got {n}"


# -- chunk memory ------------------------------------------------------------------------


def test_chunk_sizes_count_each_trials_generator(monkeypatch):
    # a chunk holds as many trials as fit their n x n matrices and generators
    # into the budget; `chunk_trials` forces the chunk size it names
    def first_chunk(n):
        return next(_chunks(len, 3, 1000, n))

    assert [first_chunk(n) for n in (1, 4, 9, 64)] == [252, 204, 112, 3]
    for k in (1, 3, 60):
        chunk_trials(monkeypatch, 4, k)
        assert first_chunk(4) == k


CHUNK_PIPELINES = {  # whole `_chunks` runs at n = 1, 4, 9, 16 and 64
    "symmetrization-n1": lambda: symmetrization_volume_ratio(3, 20000, SeededStream(3)),
    "ppt-threshold-n4": lambda: ppt_threshold_estimate(2, 1200, SeededStream(3)),
    "scan-3x3": lambda: exps._scan_point(ProductDims((3, 3)), 64, 400, "ppt", SeededStream(3)),
    "scan-8x8": lambda: exps._scan_point(ProductDims((8, 8)), 256, 100, "ppt", SeededStream(3)),
    "duality-n4": lambda: width_duality_check(ProductDims((2, 2)), 3000, SeededStream(3)),
    "separable-width": lambda: separable_width(ProductDims((4, 4)), 200, SeededStream(3),
                                               restarts=20),
}


@pytest.mark.parametrize("name", sorted(CHUNK_PIPELINES))
def test_chunk_pipelines_stay_within_four_chunk_budgets(name):
    # a run holds one chunk at a time: its generators, its stack and their
    # temporaries, plus one block of seed words, whatever its trial count
    run = CHUNK_PIPELINES[name]
    run()  # first-use allocations (caches, lazy imports) are not the chunk's
    _, peak = traced_peak(run)
    assert peak <= 4 * entanglab.rng._CHUNK_BYTES, peak


# each count path at a small and a large count (in trials or points)
COUNT_PEAKS = {
    "scan-2x2": (lambda k: exps._scan_point(ProductDims((2, 2)), 4, k, "exact", SeededStream(3)),
                 2_000, 100_000),
    "rogers-shephard-m2": (lambda k: symmetrization_volume_ratio(2, k, SeededStream(3)),
                           2_000, 100_000),
    "partial-trace-d2": (lambda k: partial_trace_monotonicity(2, 2, k, SeededStream(3)),
                         1_000, 40_000),
}


def assert_peak_flat(run, small, large):
    run(small)  # first-use allocations (caches, lazy imports) are not the run's
    (_, at_small), (_, at_large) = traced_peak(lambda: run(small)), traced_peak(lambda: run(large))
    assert at_large <= 1.25 * at_small, (at_small, at_large)


@pytest.mark.parametrize("name", sorted(COUNT_PEAKS))
def test_counts_keep_no_value_per_trial(name):
    # a count adds up each chunk's as it is drawn, so fifty times the trials
    # add no array of per-trial values to the peak
    assert_peak_flat(*COUNT_PEAKS[name])


# each mean-only estimate at a small and a large trial count; the duality
# check, at about 0.3 ms a trial, at ten times its small count
MEAN_PEAKS = {
    "ppt-threshold-d2": (lambda k: ppt_threshold_estimate(2, k, SeededStream(3)), 2_000, 100_000),
    "gue-approx-n4-hs": (lambda k: gue_approx_experiment(4, 16, "hs", k, SeededStream(3)),
                         2_000, 100_000),
    "mean-width-dim3": (lambda k: gaussian_mean_width_mc(L1_OR_NAN, k, SeededStream(3)),
                        2_000, 100_000),
    "duality-2x2": (lambda k: width_duality_check(ProductDims((2, 2)), k, SeededStream(3)),
                    2_000, 20_000),
}


@pytest.mark.parametrize("name", sorted(MEAN_PEAKS))
def test_means_keep_no_value_per_trial(name):
    # a mean folds each chunk's values into exact sums as they are drawn, so
    # more trials add no array of per-trial values to the peak
    assert_peak_flat(*MEAN_PEAKS[name])


# -- batched engine against a per-trial reference -------------------------------------
#
# The reference draws and evaluates one trial at a time through the public
# sampler and gauges; the engine must reproduce it bit for bit at trial
# counts around the chunk size, for seeded streams (one substream per trial)
# and raw generators (sequential draws).

ENGINE_CASES = {  # dims -> (s, scan criterion, gue-approx body)
    (2, 2): (4, "exact", "s0"),
    (2, 3): (6, "exact", "d0"),
    (3, 3): (30, "ppt", "ppt0"),
}
CHUNK = 3
TRIAL_COUNTS = [1, CHUNK - 1, CHUNK, CHUNK + 1]
STREAMS = {
    "seeded": lambda: SeededStream(41),
    "generator": lambda: np.random.default_rng(41),
}


def public_gauges(dims):
    gauges = {"d0": gauge_states, "hs": hs_norm, "ppt0": lambda A: gauge_ppt(A, dims)}
    if dims.factors in EXACT_DIMS:
        gauges["s0"] = lambda A: gauge_separable(A, dims).value
        gauges["ssym"] = lambda A: gauge_separable_sym(A, dims).value
    return gauges


def reference_gauges(n, s, trials, stream, gauge):
    return np.array([
        gauge(sample_induced_state(n, s, rng).centered())
        for rng in trial_generators(stream, trials)
    ])


def reference_successes(dims, s, trials, criterion, stream):
    meets = is_separable_exact if criterion == "exact" else (
        lambda rho: min_pt_eigenvalue(rho) >= PPT_EIGENVALUE_TOL
    )
    return sum(
        meets(sample_induced_state(dims.n, s, rng, dims=dims))
        for rng in trial_generators(stream, trials)
    )


def reference_concentration(d, s, trials, stream, body):
    gauge = public_gauges(ProductDims((d, d)))[body]
    pts = []
    for sub, s_val in zip(split_stream(stream, 2), (s, 4 * s)):
        vals = reference_gauges(d * d, s_val, trials, sub, gauge)
        est = from_samples(vals)
        std = float(vals.std(ddof=1)) if trials > 1 else math.nan  # one sample has no spread
        pts.append(ConcentrationPoint(s_val, trials, est.mean, float(np.median(vals)), std,
                                      est.stderr))
    return ConcentrationSummary(d, body, *pts)


def reference_ratio(n, s, body, trials, stream, dims):
    gauge = public_gauges(dims)[body]
    sub_state, sub_gue = split_stream(stream, 2)
    num = from_samples(reference_gauges(n, s, trials, sub_state, gauge))
    den = from_samples([gauge(sample_gue0(n, rng)) for rng in trial_generators(sub_gue, trials)])
    ratio = n * math.sqrt(s) * num.mean / den.mean
    rel = math.hypot(num.stderr / num.mean, den.stderr / den.mean)
    return RatioResult(n, s, body, trials, ratio, ratio * rel,
                       num.mean, num.stderr, den.mean, den.stderr)


def reference_spectral_rows(ensemble, n, s, trials, stream):
    rows = []
    for t, rng in enumerate(trial_generators(stream, trials)):
        if ensemble == "gue0":
            lam = np.linalg.eigvalsh(sample_gue0(n, rng)) / math.sqrt(n)
        else:
            lam = np.linalg.eigvalsh(sample_induced_state(n, s, rng).centered()) * math.sqrt(n * s)
        a, b = alpha_beta(lam)
        rows.append((t, n, s if ensemble == "induced" else "", ensemble,
                     dinf_semicircle(lam), a, b, float(lam[-1]), float(lam[0])))
    return rows


@pytest.mark.parametrize("stream_kind", sorted(STREAMS))
@pytest.mark.parametrize("trials", TRIAL_COUNTS)
@pytest.mark.parametrize("dims", sorted(ENGINE_CASES))
def test_engine_scan_and_gauges_match_per_trial_reference(monkeypatch, dims, trials, stream_kind):
    new = STREAMS[stream_kind]
    pd = ProductDims(dims)
    s, criterion, _ = ENGINE_CASES[dims]
    chunk_trials(monkeypatch, pd.n, CHUNK)

    k = reference_successes(pd, s, trials, criterion, new())
    expected = ScanPoint(s, trials, k, k / trials, *wilson_interval(k, trials))
    assert exps._scan_point(pd, s, trials, criterion, new()) == expected

    states = _induced_states(pd.n, s, list(trial_generators(new(), trials)))
    ref = [min_pt_eigenvalue(sample_induced_state(pd.n, s, g, dims=pd))
           for g in trial_generators(new(), trials)]
    assert entanglab.separability._min_pt(states, pd).tolist() == ref

    for body, gauge in public_gauges(pd).items():
        gauge_of = exps._body_gauge(body, pd)
        got = np.concatenate(list(_chunks(
            lambda gens: gauge_of(_centered_induced_states(pd.n, s, gens)), new(), trials, pd.n)))
        assert got.tobytes() == reference_gauges(pd.n, s, trials, new(), gauge).tobytes(), body


@pytest.mark.parametrize("stream_kind", sorted(STREAMS))
@pytest.mark.parametrize("trials", TRIAL_COUNTS)
@pytest.mark.parametrize("dims", sorted(ENGINE_CASES))
def test_engine_experiments_match_per_trial_reference(monkeypatch, dims, trials, stream_kind):
    # repr compares floats exactly and treats NaN as equal to itself
    new = STREAMS[stream_kind]
    pd = ProductDims(dims)
    n = pd.n
    s, _, body = ENGINE_CASES[dims]
    chunk_trials(monkeypatch, n, CHUNK)

    if dims[0] == dims[1]:
        d, conc_body = dims[0], ("s0" if dims == (2, 2) else "ppt0")
        got = concentration_experiment(d, s, trials, new(), body=conc_body)
        assert repr(got) == repr(reference_concentration(d, s, trials, new(), conc_body))

    gauge_dims = pd if body in ("ppt0", "s0") else ProductDims((n,))
    for b in (body, "hs"):
        got = gue_approx_experiment(n, s, b, trials, new())
        assert repr(got) == repr(reference_ratio(n, s, b, trials, new(), gauge_dims))

    for ensemble, s_val in (("induced", s), ("gue0", None)):
        got = spectral_rows(ensemble, n, s_val, trials, new())
        assert repr(got) == repr(reference_spectral_rows(ensemble, n, s_val, trials, new()))


@pytest.mark.parametrize("stream_kind", sorted(STREAMS))
def test_engine_monotonicity_matches_per_trial_reference(monkeypatch, stream_kind):
    new = STREAMS[stream_kind]
    trials = CHUNK + 1
    chunk_trials(monkeypatch, 9, CHUNK)
    for res, couple in (
        (projection_monotonicity(2, 3, 12, trials, new()),
         lambda rng: coupled_local_projection(2, 3, 12, rng)),
        (partial_trace_monotonicity(2, 5, trials, new()),
         lambda rng: coupled_partial_trace(2, 5, rng)),
    ):
        sub_coupled, sub_ds, sub_dl = split_stream(new(), 3)
        pairs = [couple(rng) for rng in trial_generators(sub_coupled, trials)]
        for side, rhos in ((res.coupled_small, [p.small for p in pairs]),
                           (res.coupled_large, [p.large for p in pairs])):
            meets = is_separable_exact if side.criterion == "exact" else (
                lambda rho: min_pt_eigenvalue(rho) >= PPT_EIGENVALUE_TOL
            )
            assert side.successes == sum(meets(rho) for rho in rhos)
        for side, sub in ((res.direct_small, sub_ds), (res.direct_large, sub_dl)):
            expected = reference_successes(ProductDims(side.dims), side.s, trials, side.criterion, sub)
            assert side.successes == expected


# -- run_config ---------------------------------------------------------------------------


def write_config(tmp_path, raw, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def test_run_config_roundtrip_and_determinism(tmp_path):
    raw = {
        "experiment": "threshold-scan",
        "dims": [2, 2],
        "s_values": [2, 6],
        "criterion": "exact",
        "trials": 30,
        "master_seed": 9,
        "output": str(tmp_path / "scan"),
    }
    path = write_config(tmp_path, raw)
    assert run_config(path) == 0
    first = (tmp_path / "scan.csv").read_bytes()
    assert first.startswith(b"s,trials,successes,p_hat,ci_low,ci_high\r\n")
    meta = json.loads((tmp_path / "scan.meta.json").read_text())
    assert meta["master_seed"] == 9
    assert set(meta["versions"]) == {"entanglab", "numpy"}
    assert meta["versions"]["entanglab"]
    assert run_config(path) == 0
    assert (tmp_path / "scan.csv").read_bytes() == first


def test_sidecar_versions_are_entanglab_and_numpy(tmp_path, monkeypatch):
    # the sidecar records the versions of the code that wrote the file, SciPy
    # not among them, whether or not SciPy's metadata is installed
    real_version = importlib.metadata.version

    def version(package):
        if package == "scipy":
            raise importlib.metadata.PackageNotFoundError(package)
        return real_version(package)

    monkeypatch.setattr(importlib.metadata, "version", version)
    raw = {"experiment": "spectral", "ensemble": "gue0", "n": 4, "trials": 2,
           "master_seed": 1, "output": str(tmp_path / "spec")}
    assert run_config(write_config(tmp_path, raw)) == 0
    versions = json.loads((tmp_path / "spec.meta.json").read_text())["versions"]
    assert set(versions) == {"entanglab", "numpy"}
    assert versions["numpy"] == np.__version__


def test_run_config_env_seed_override(tmp_path, monkeypatch):
    raw = {
        "experiment": "spectral",
        "ensemble": "gue0",
        "n": 8,
        "trials": 4,
        "master_seed": 1,
        "output": str(tmp_path / "a"),
    }
    path = write_config(tmp_path, raw)
    assert run_config(path) == 0
    base = (tmp_path / "a.csv").read_bytes()

    monkeypatch.setenv("ENTANGLAB_SEED", "2")
    path2 = write_config(tmp_path, {**raw, "output": str(tmp_path / "b")}, name="c2.json")
    assert run_config(path2) == 0
    assert (tmp_path / "b.csv").read_bytes() != base
    meta = json.loads((tmp_path / "b.meta.json").read_text())
    assert meta["seed_overridden_by_env"] is True and meta["master_seed"] == 2


@pytest.mark.parametrize("env", ["-3", "x"])
def test_run_config_rejects_bad_env_seed(tmp_path, monkeypatch, capsys, env):
    monkeypatch.setenv("ENTANGLAB_SEED", env)
    path = write_config(tmp_path, {"experiment": "spectral", "ensemble": "gue0", "n": 4,
                                   "trials": 2, "master_seed": 1, "output": str(tmp_path / "a")})
    assert run_config(path) == 2
    assert capsys.readouterr().err.startswith("config error: ENTANGLAB_SEED must be a non-negative")
    assert not (tmp_path / "a.csv").exists()


def test_run_config_error_paths(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  broken\n}")
    assert run_config(str(bad)) == 2
    assert "line 2" in capsys.readouterr().err

    path = write_config(
        tmp_path,
        {
            "experiment": "threshold-scan",
            "dims": [3, 3],
            "s_values": [4],
            "criterion": "exact",
            "trials": 5,
            "master_seed": 0,
            "output": str(tmp_path / "x"),
        },
    )
    assert run_config(path) == 2  # criterion/dims mismatch, before sampling
    assert not (tmp_path / "x.csv").exists()

    no_out = write_config(
        tmp_path,
        {
            "experiment": "spectral",
            "ensemble": "gue0",
            "n": 4,
            "trials": 1,
            "master_seed": 0,
        },
        name="noout.json",
    )
    assert run_config(no_out) == 2


def test_run_config_partial_flush(tmp_path, monkeypatch):
    # after the first point an error returns 1 and an exit propagates; both
    # leave the completed point in .partial, and a successful rerun leaves
    # only the CSV and its sidecar
    original = exps._scan_point
    for k, exc in enumerate((RuntimeError("boom"), SystemExit(3))):
        calls = {"k": 0}

        def explode_after_first(*args, **kwargs):
            if calls["k"] >= 1:
                raise exc
            calls["k"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(exps, "_scan_point", explode_after_first)
        path = write_config(
            tmp_path,
            {
                "experiment": "threshold-scan",
                "dims": [2, 2],
                "s_values": [2, 4],
                "criterion": "exact",
                "trials": 5,
                "master_seed": 0,
                "output": str(tmp_path / f"part{k}"),
            },
            name=f"part{k}.json",
        )
        if isinstance(exc, Exception):
            assert run_config(path) == 1
        else:
            with pytest.raises(SystemExit) as info:
                run_config(path)
            assert info.value.code == 3
        partial = (tmp_path / f"part{k}.csv.partial").read_text()
        assert partial.startswith("s,trials")
        assert len(partial.strip().splitlines()) == 2  # header + one completed point
        assert not (tmp_path / f"part{k}.csv").exists()

    monkeypatch.setattr(exps, "_scan_point", original)
    for k in range(2):
        assert run_config(str(tmp_path / f"part{k}.json")) == 0
        assert sorted(p.name for p in tmp_path.glob(f"part{k}.*")) == [
            f"part{k}.csv", f"part{k}.json", f"part{k}.meta.json"]


def test_run_config_other_experiments(tmp_path):
    for raw in (
        {
            "experiment": "concentration",
            "d": 2,
            "s": 20,
            "trials": 40,
            "master_seed": 3,
            "output": str(tmp_path / "conc"),
        },
        {
            "experiment": "gue-approx",
            "n": 8,
            "s": 32,
            "body": "d0",
            "trials": 40,
            "master_seed": 3,
            "output": str(tmp_path / "ga"),
        },
        {
            "experiment": "monotonicity",
            "mode": "partial-trace",
            "d": 2,
            "s": 5,
            "trials": 40,
            "master_seed": 3,
            "output": str(tmp_path / "mono"),
        },
    ):
        path = write_config(tmp_path, raw, name=raw["experiment"] + ".json")
        assert run_config(path) == 0
        assert (tmp_path / (os.path.basename(raw["output"]) + ".csv")).exists()
