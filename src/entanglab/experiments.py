"""Batch experiments: threshold scans, concentration, the GUE approximation
ratio, coupled monotonicity comparisons, spectral statistics, and the config
runner behind the CLI.

Every experiment draws each trial from its own derived random stream, so
results are independent of execution order and can be parallelized by
setting ENTANGLAB_THREADS. Scan output rows are sorted by the scan variable
before writing.
"""

from __future__ import annotations

import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .config import ConfigError, ExperimentConfig
from .ensembles import (
    DensityMatrix,
    coupled_local_projection,
    coupled_partial_trace,
    sample_gue0,
    sample_induced_state,
)
from .io import write_csv, write_sidecar
from .linalg import ProductDims, hs_norm
from .rng import SeededStream, trial_generators
from .separability import (
    PPT_EIGENVALUE_TOL,
    gauge_ppt,
    gauge_separable,
    gauge_states,
    is_separable_exact,
    min_pt_eigenvalue,
)
from .spectral import alpha_beta, dinf_semicircle
from .stats import from_samples, wilson_interval

__all__ = [
    "ScanPoint",
    "ScanResult",
    "ConcentrationPoint",
    "ConcentrationSummary",
    "RatioResult",
    "MonotonicityResult",
    "threshold_scan",
    "crossing_estimate",
    "concentration_experiment",
    "gue_approx_experiment",
    "projection_monotonicity",
    "partial_trace_monotonicity",
    "spectral_rows",
    "spectral_experiment",
    "run_config",
    "worker_count",
]

SPECTRAL_HEADER = ["trial", "n", "s", "ensemble", "dinf", "alpha", "beta", "lambda_max", "lambda_min"]


def worker_count() -> int:
    """Worker cap from ENTANGLAB_THREADS; defaults to sequential."""
    raw = os.environ.get("ENTANGLAB_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def map_trials(fn, stream, trials: int) -> list:
    """Apply fn to one generator per trial, optionally on a thread pool."""
    gens = list(trial_generators(stream, trials))
    workers = worker_count()
    if workers <= 1 or isinstance(stream, np.random.Generator):
        return [fn(g) for g in gens]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, gens))


def split_stream(stream, parts: int) -> list:
    """Independent sub-sources for the distinct sampling phases of one
    experiment. (An experiment derives its per-trial streams from these,
    never from the parent directly.)"""
    if isinstance(stream, np.random.Generator):
        return [stream] * parts
    if isinstance(stream, (int, np.integer)):
        stream = SeededStream(int(stream))
    return [stream.substream(i) for i in range(parts)]


def _body_gauge(body: str, dims: ProductDims):
    if body == "d0":
        return gauge_states
    if body == "hs":
        return hs_norm
    if body == "ppt0":
        return lambda A: gauge_ppt(A, dims)
    if body == "s0":
        return lambda A: gauge_separable(A, dims).value
    raise ValueError(f"unknown body {body!r}")


def _meets_criterion(criterion: str, rho: DensityMatrix) -> bool:
    if criterion == "exact":
        return is_separable_exact(rho)
    return min_pt_eigenvalue(rho) >= PPT_EIGENVALUE_TOL


# ---------------------------------------------------------------------------
# Threshold scan.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanPoint:
    s: int
    trials: int
    successes: int
    p_hat: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class ScanResult:
    dims: tuple[int, int]
    criterion: str
    points: list[ScanPoint]
    crossing: float | None
    metadata: dict = field(default_factory=dict)

    @property
    def header(self) -> list[str]:
        p_col = "p_hat" if self.criterion == "exact" else "ppt_probability"
        return ["s", "trials", "successes", p_col, "ci_low", "ci_high"]

    def rows(self) -> list[tuple]:
        return [
            (p.s, p.trials, p.successes, p.p_hat, p.ci_low, p.ci_high)
            for p in self.points
        ]


def _scan_point(dims: ProductDims, s: int, trials: int, criterion: str, stream) -> ScanPoint:
    n = dims.n

    def one(rng) -> bool:
        rho = sample_induced_state(n, s, rng, dims=dims)
        return _meets_criterion(criterion, rho)

    successes = int(sum(map_trials(one, stream, trials)))
    lo, hi = wilson_interval(successes, trials)
    return ScanPoint(s, trials, successes, successes / trials, lo, hi)


def crossing_estimate(points: list[ScanPoint]) -> float | None:
    """First s where p_hat >= 1/2 with ci_low >= 0.4, linearly interpolated
    from the previous grid point."""
    pts = sorted(points, key=lambda p: p.s)
    for i, p in enumerate(pts):
        if p.p_hat >= 0.5 and p.ci_low >= 0.4:
            if i == 0 or pts[i - 1].p_hat >= 0.5:
                return float(p.s)
            prev = pts[i - 1]
            frac = (0.5 - prev.p_hat) / (p.p_hat - prev.p_hat)
            return float(prev.s + frac * (p.s - prev.s))
    return None


def threshold_scan(config: ExperimentConfig) -> ScanResult:
    """Fraction of induced states meeting the chosen criterion, per s.

    The exact criterion is only available where PPT decides separability;
    everywhere else the PPT column is labeled as such, because PPT is a
    necessary condition only.
    """
    if config.experiment != "threshold-scan":
        raise ConfigError(f"expected a threshold-scan config, got {config.experiment!r}")
    dims = ProductDims(config.dims)
    base = SeededStream(config.master_seed)
    points = [
        _scan_point(dims, s, config.trials, config.criterion, base.substream(i))
        for i, s in enumerate(sorted(config.s_values))
    ]
    crossing = crossing_estimate(points)
    meta = {"dims": list(config.dims), "criterion": config.criterion}
    if crossing is not None:
        meta["crossing_s"] = crossing
    if config.criterion == "ppt" and min(config.dims) >= 3:
        meta["bound_entanglement_note"] = _bound_entanglement_note(config.dims, points)
    return ScanResult(config.dims, config.criterion, points, crossing, meta)


def _bound_entanglement_note(dims: tuple[int, int], points: list[ScanPoint]) -> str:
    """Descriptive annotation: where PPT is already typical although the
    environment is far below the separability scale d^3."""
    d = min(dims)
    window = [p.s for p in points if p.p_hat >= 0.75 and p.s <= d ** 3]
    if not window:
        return "no scanned s with high PPT probability below d^3"
    return (
        f"PPT probability >= 0.75 for s in [{min(window)}, {max(window)}] "
        f"while d^3 = {d ** 3}; for large d states in this window are "
        "typically entangled despite being PPT (bound entanglement)"
    )


# ---------------------------------------------------------------------------
# Concentration of the gauge around its central value.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConcentrationPoint:
    s: int
    trials: int
    mean: float
    median: float
    std: float
    stderr: float


@dataclass(frozen=True)
class ConcentrationSummary:
    d: int
    body: str
    at_s: ConcentrationPoint
    at_4s: ConcentrationPoint

    @property
    def std_ratio(self) -> float:
        """std at s over std at 4s; the concentration window shrinks like
        1/sqrt(s), so this comes out near 2."""
        return self.at_s.std / self.at_4s.std


def _gauge_samples(d: int, s: int, trials: int, stream, gauge) -> np.ndarray:
    dims = ProductDims((d, d))

    def one(rng) -> float:
        rho = sample_induced_state(dims.n, s, rng, dims=dims)
        return gauge(rho.centered())

    return np.asarray(map_trials(one, stream, trials))


def concentration_experiment(
    d: int, s: int, trials: int, stream, body: str = "s0", gauge_tol: float = 1e-8
) -> ConcentrationSummary:
    """Location and spread of ||rho - Id/n||_K at environment sizes s and 4s.

    `gauge_tol` is unused: every body's gauge, s0 included, is exact.
    """
    dims = ProductDims((d, d))
    if body == "s0" and dims.factors != (2, 2):
        raise ValueError("body 's0' needs the exact gauge, available only at d = 2")
    gauge = _body_gauge(body, dims)
    subs = split_stream(stream, 2)
    pts = []
    for sub, s_val in zip(subs, (s, 4 * s)):
        vals = _gauge_samples(d, s_val, trials, sub, gauge)
        est = from_samples(vals)
        pts.append(
            ConcentrationPoint(
                s_val, trials, est.mean, float(np.median(vals)), float(vals.std(ddof=1)), est.stderr
            )
        )
    return ConcentrationSummary(d, body, pts[0], pts[1])


# ---------------------------------------------------------------------------
# GUE approximation ratio.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatioResult:
    n: int
    s: int
    body: str
    trials: int
    ratio: float
    stderr: float
    state_mean: float
    state_stderr: float
    gue_mean: float
    gue_stderr: float


def gue_approx_experiment(n: int, s: int, body: str, trials: int, stream,
                          gauge_tol: float = 1e-8) -> RatioResult:
    """R(n, s) = n sqrt(s) E||rho - Id/n||_K / E||G||_K for the chosen body.

    Approaches 1 when both n and s/n are large; how fast depends on the body.
    `gauge_tol` is unused: every body's gauge, s0 included, is exact.
    """
    if body == "s0" and n != 4:
        raise ValueError("body 's0' requires n = 4")
    if body == "ppt0":
        d = math.isqrt(n)
        if d * d != n:
            raise ValueError("body 'ppt0' requires n to be a perfect square")
        dims = ProductDims((d, d))
    elif body == "s0":
        dims = ProductDims((2, 2))
    else:
        dims = ProductDims((n,))
    gauge = _body_gauge(body, dims)

    sub_state, sub_gue = split_stream(stream, 2)

    def state_trial(rng) -> float:
        rho = sample_induced_state(n, s, rng, dims=dims if body in ("ppt0", "s0") else None)
        return gauge(rho.centered())

    def gue_trial(rng) -> float:
        return gauge(sample_gue0(n, rng))

    num = from_samples(map_trials(state_trial, sub_state, trials))
    den = from_samples(map_trials(gue_trial, sub_gue, trials))
    ratio = n * math.sqrt(s) * num.mean / den.mean
    rel = math.hypot(num.stderr / num.mean, den.stderr / den.mean)
    return RatioResult(
        n, s, body, trials, ratio, ratio * rel,
        num.mean, num.stderr, den.mean, den.stderr,
    )


# ---------------------------------------------------------------------------
# Coupled monotonicity comparisons.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonoSide:
    label: str
    dims: tuple[int, int]
    s: int
    criterion: str
    trials: int
    successes: int

    @property
    def p_hat(self) -> float:
        return self.successes / self.trials

    def interval(self) -> tuple[float, float]:
        return wilson_interval(self.successes, self.trials)


@dataclass(frozen=True)
class MonotonicityResult:
    mode: str
    coupled_small: MonoSide
    coupled_large: MonoSide
    direct_small: MonoSide
    direct_large: MonoSide

    def ordering_holds(self, slack_sigmas: float = 2.0) -> bool:
        """Coupled small-system probability should dominate the large one."""
        ps, pl = self.coupled_small.p_hat, self.coupled_large.p_hat
        t = self.coupled_small.trials
        sigma = math.sqrt(max(pl * (1 - pl), ps * (1 - ps), 1.0 / t) / t)
        return ps >= pl - slack_sigmas * sigma


def _exactish_criterion(dims: tuple[int, int]) -> str:
    return "exact" if dims in ((2, 2), (2, 3), (3, 2)) else "ppt"


def projection_monotonicity(d1: int, d2: int, s: int, trials: int, stream) -> MonotonicityResult:
    """Local-compression coupling: the probability of the criterion cannot
    drop when passing from the C^{d2} x C^{d2} state to its coupled
    C^{d1} x C^{d1} compression."""
    crit_small = _exactish_criterion((d1, d1))
    crit_large = _exactish_criterion((d2, d2))
    sub_coupled, sub_ds, sub_dl = split_stream(stream, 3)

    def coupled_trial(rng) -> tuple[bool, bool]:
        pair = coupled_local_projection(d1, d2, s, rng)
        return (
            _meets_criterion(crit_small, pair.small),
            _meets_criterion(crit_large, pair.large),
        )

    both = map_trials(coupled_trial, sub_coupled, trials)
    cs = sum(1 for a, _ in both if a)
    cl = sum(1 for _, b in both if b)

    def direct(dims_pair, s_val, crit, sub) -> int:
        dims = ProductDims(dims_pair)

        def one(rng) -> bool:
            rho = sample_induced_state(dims.n, s_val, rng, dims=dims)
            return _meets_criterion(crit, rho)

        return int(sum(map_trials(one, sub, trials)))

    ds_cnt = direct((d1, d1), s, crit_small, sub_ds)
    dl_cnt = direct((d2, d2), s, crit_large, sub_dl)
    return MonotonicityResult(
        "projection",
        MonoSide("coupled-small", (d1, d1), s, crit_small, trials, cs),
        MonoSide("coupled-large", (d2, d2), s, crit_large, trials, cl),
        MonoSide("direct-small", (d1, d1), s, crit_small, trials, ds_cnt),
        MonoSide("direct-large", (d2, d2), s, crit_large, trials, dl_cnt),
    )


def partial_trace_monotonicity(d: int, s: int, trials: int, stream) -> MonotonicityResult:
    """Qubit-pair partial-trace coupling: PPT probability at (2d, s) is
    dominated by the one at (d, 4s)."""
    sub_coupled, sub_ds, sub_dl = split_stream(stream, 3)

    def coupled_trial(rng) -> tuple[bool, bool]:
        pair = coupled_partial_trace(d, s, rng)
        return (
            _meets_criterion("ppt", pair.small),
            _meets_criterion("ppt", pair.large),
        )

    both = map_trials(coupled_trial, sub_coupled, trials)
    cs = sum(1 for a, _ in both if a)
    cl = sum(1 for _, b in both if b)

    def direct(dd: int, s_val: int, sub) -> int:
        dims = ProductDims((dd, dd))

        def one(rng) -> bool:
            rho = sample_induced_state(dims.n, s_val, rng, dims=dims)
            return _meets_criterion("ppt", rho)

        return int(sum(map_trials(one, sub, trials)))

    return MonotonicityResult(
        "partial-trace",
        MonoSide("coupled-small", (d, d), 4 * s, "ppt", trials, cs),
        MonoSide("coupled-large", (2 * d, 2 * d), s, "ppt", trials, cl),
        MonoSide("direct-small", (d, d), 4 * s, "ppt", trials, direct(d, 4 * s, sub_ds)),
        MonoSide("direct-large", (2 * d, 2 * d), s, "ppt", trials, direct(2 * d, s, sub_dl)),
    )


# ---------------------------------------------------------------------------
# Spectral statistics.
# ---------------------------------------------------------------------------


def spectral_rows(ensemble: str, n: int, s: int | None, trials: int, stream) -> list[tuple]:
    """Per-trial rows (trial, n, s, ensemble, dinf, alpha, beta, lambda_max,
    lambda_min) for the rescaled spectrum of the chosen ensemble."""
    if ensemble not in ("gue0", "induced"):
        raise ValueError("ensemble must be 'gue0' or 'induced'")
    if ensemble == "induced" and (s is None or s < 1):
        raise ValueError("induced ensemble requires s >= 1")

    def one(rng):
        if ensemble == "gue0":
            lam = np.linalg.eigvalsh(sample_gue0(n, rng)) / math.sqrt(n)
        else:
            rho = sample_induced_state(n, s, rng)
            lam = np.linalg.eigvalsh(rho.centered()) * math.sqrt(n * s)
        a, b = alpha_beta(lam)
        return (dinf_semicircle(lam), a, b, float(lam[-1]), float(lam[0]))

    stats = map_trials(one, stream, trials)
    s_col = s if ensemble == "induced" else ""
    return [
        (t, n, s_col, ensemble, d, a, b, mx, mn)
        for t, (d, a, b, mx, mn) in enumerate(stats)
    ]


def spectral_experiment(config: ExperimentConfig) -> list[tuple]:
    if config.experiment != "spectral":
        raise ConfigError(f"expected a spectral config, got {config.experiment!r}")
    return spectral_rows(
        config.ensemble, config.n, config.s, config.trials, SeededStream(config.master_seed)
    )


# ---------------------------------------------------------------------------
# Config runner.
# ---------------------------------------------------------------------------


def _effective_seed(config: ExperimentConfig) -> tuple[int, bool]:
    env = os.environ.get("ENTANGLAB_SEED")
    if env is not None:
        try:
            return int(env), True
        except ValueError as exc:
            raise ConfigError(f"ENTANGLAB_SEED must be an integer, got {env!r}") from exc
    return config.master_seed, False


def _header_for(config: ExperimentConfig) -> list[str]:
    if config.experiment == "threshold-scan":
        return ScanResult(config.dims, config.criterion, [], None).header
    if config.experiment == "spectral":
        return SPECTRAL_HEADER
    if config.experiment == "concentration":
        return ["s", "trials", "mean", "median", "std", "stderr"]
    if config.experiment == "gue-approx":
        return ["n", "s", "body", "trials", "ratio", "ratio_stderr",
                "state_mean", "state_stderr", "gue_mean", "gue_stderr"]
    return ["side", "dims", "s", "criterion", "trials", "successes", "p_hat", "ci_low", "ci_high"]


def _execute(config: ExperimentConfig, seed: int, rows_acc: list):
    """Run the configured experiment, appending CSV rows to rows_acc as they
    become available (so an interrupted run can flush partial results).
    Returns (header, extra_meta)."""
    cfg = ExperimentConfig.from_dict({**config.raw, "master_seed": seed})
    stream = SeededStream(seed)
    if cfg.experiment == "threshold-scan":
        dims = ProductDims(cfg.dims)
        base = SeededStream(cfg.master_seed)
        points = []
        header = _header_for(cfg)
        for i, s in enumerate(sorted(cfg.s_values)):
            p = _scan_point(dims, s, cfg.trials, cfg.criterion, base.substream(i))
            points.append(p)
            rows_acc.append((p.s, p.trials, p.successes, p.p_hat, p.ci_low, p.ci_high))
        meta = {"dims": list(cfg.dims), "criterion": cfg.criterion}
        crossing = crossing_estimate(points)
        if crossing is not None:
            meta["crossing_s"] = crossing
        if cfg.criterion == "ppt" and min(cfg.dims) >= 3:
            meta["bound_entanglement_note"] = _bound_entanglement_note(cfg.dims, points)
        return header, meta
    if cfg.experiment == "spectral":
        rows_acc.extend(spectral_experiment(cfg))
        return SPECTRAL_HEADER, {"ensemble": cfg.ensemble, "n": cfg.n, "s": cfg.s}
    if cfg.experiment == "concentration":
        summary = concentration_experiment(cfg.d, cfg.s, cfg.trials, stream, body=cfg.body)
        header = ["s", "trials", "mean", "median", "std", "stderr"]
        rows_acc.extend(
            (p.s, p.trials, p.mean, p.median, p.std, p.stderr)
            for p in (summary.at_s, summary.at_4s)
        )
        return header, {"body": summary.body, "std_ratio": summary.std_ratio}
    if cfg.experiment == "gue-approx":
        r = gue_approx_experiment(cfg.n, cfg.s, cfg.body, cfg.trials, stream)
        header = [
            "n", "s", "body", "trials", "ratio", "ratio_stderr",
            "state_mean", "state_stderr", "gue_mean", "gue_stderr",
        ]
        rows_acc.append(
            (r.n, r.s, r.body, r.trials, r.ratio, r.stderr,
             r.state_mean, r.state_stderr, r.gue_mean, r.gue_stderr)
        )
        return header, {}
    # monotonicity
    if cfg.mode == "projection":
        res = projection_monotonicity(cfg.d1, cfg.d2, cfg.s, cfg.trials, stream)
    else:
        res = partial_trace_monotonicity(cfg.d, cfg.s, cfg.trials, stream)
    header = ["side", "dims", "s", "criterion", "trials", "successes", "p_hat", "ci_low", "ci_high"]
    for side in (res.coupled_small, res.coupled_large, res.direct_small, res.direct_large):
        lo, hi = side.interval()
        rows_acc.append(
            (side.label, "%dx%d" % side.dims, side.s, side.criterion,
             side.trials, side.successes, side.p_hat, lo, hi)
        )
    return header, {"mode": res.mode, "ordering_holds_2sigma": res.ordering_holds()}


def run_config(path: str, output_override: str | None = None) -> int:
    """Execute a config file; write CSV plus a JSON metadata sidecar.

    Re-running with the same seed reproduces the CSV byte for byte. On
    interruption, whatever rows exist are flushed with a `.partial` suffix.
    Returns a process exit status (0 on success, 2 on config errors).
    """
    try:
        config = ExperimentConfig.from_file(path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return execute_config(config, output_override)


def execute_config(config: ExperimentConfig, output_override: str | None = None) -> int:
    """Execute an already-validated config; see run_config."""
    try:
        seed, overridden = _effective_seed(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out = output_override or config.output
    if out is None:
        print("config error: no 'output' path (set it in the config or pass one)", file=sys.stderr)
        return 2
    csv_path = out if str(out).endswith(".csv") else str(out) + ".csv"

    started = time.time()
    rows: list[tuple] = []
    header = _header_for(config)
    try:
        header, extra = _execute(config, seed, rows)
    except BaseException as exc:  # flush whatever completed, then report
        if rows:
            write_csv(str(csv_path) + ".partial", header, rows)
        if isinstance(exc, KeyboardInterrupt):
            raise
        print(f"experiment failed: {exc}", file=sys.stderr)
        return 1

    write_csv(csv_path, header, rows)
    import scipy

    from . import __version__

    payload = {
        "experiment": config.experiment,
        "config_digest": config.digest(),
        "master_seed": seed,
        "seed_overridden_by_env": overridden,
        "csv": os.path.basename(csv_path),
        "rows": len(rows),
        "wall_time_s": round(time.time() - started, 6),
        "versions": {
            "entanglab": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "extra": extra,
    }
    write_sidecar(csv_path, payload)
    return 0
