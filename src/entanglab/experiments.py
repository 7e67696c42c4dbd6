"""Batch experiments: threshold scans, concentration, the GUE approximation
ratio, coupled monotonicity comparisons, spectral statistics, and the config
runner behind the CLI.

Every experiment draws each trial from its own derived random stream, so
results are independent of execution order. Trials are drawn one at a time
and evaluated in chunks: a chunk's matrices are stacked, and normalization,
partial transposes, eigensolves and gauges run once over the stack. Scan
output rows are sorted by the scan variable before writing.
"""

from __future__ import annotations

import importlib.metadata
import math
import os
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import islice

import numpy as np

from .config import ConfigError, ExperimentConfig
from .ensembles import (
    _trace_normalized,
    _wishart,
    coupled_local_projection,
    coupled_partial_trace,
    sample_gue0,
)
from .io import write_csv, write_sidecar
from .linalg import ProductDims, _hermitize_stack, hs_norm, traceless_part
from .rng import SeededStream, trial_generators
from .separability import (
    EXACT_DIMS,
    PPT_EIGENVALUE_TOL,
    _min_pt,
    _ppt_gauge,
    _require_exact_dims,
    _state_gauge,
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
]

SPECTRAL_HEADER = ["trial", "n", "s", "ensemble", "dinf", "alpha", "beta", "lambda_max", "lambda_min"]


# Byte budget of one chunk's stack of n x n complex matrices (about 200 trials
# at n = 9, 4 at n = 64). It bounds a chunk's memory at any trial count; at
# 256 KiB the stack's temporaries stay within the peak of one large draw.
_CHUNK_BYTES = 1 << 18


def _chunks(stream, trials: int, n: int):
    """The trials' generators, one per trial, in chunks of as many trials as
    fit n x n complex matrices into _CHUNK_BYTES (at least one)."""
    size = max(1, _CHUNK_BYTES // (16 * n * n))
    gens = trial_generators(stream, trials)
    while chunk := list(islice(gens, size)):
        yield chunk


def _induced_states(n: int, s: int, gens) -> np.ndarray:
    """Stack of induced states, one per generator, bit-identical to
    `sample_induced_state`: each trial draws and forms its own Gram product;
    normalization and hermitization run once over the stack."""
    return _hermitize_stack(_trace_normalized(np.stack([_wishart(n, s, g) for g in gens])))


def _centered_induced_states(n: int, s: int, gens) -> np.ndarray:
    """Stack of rho - Id/n for the induced states of `_induced_states`."""
    return traceless_part(_induced_states(n, s, gens))


def _gue0_states(n: int, gens) -> np.ndarray:
    """Stack of trace-zero GUE matrices, one `sample_gue0` draw per generator."""
    return np.stack([sample_gue0(n, g) for g in gens])


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
    """Gauge ||A||_K of each traceless direction in a stack. At 2x2 the
    separable body s0 is the PPT body, so both read the PPT closed form."""
    if body == "d0":
        return lambda A: _state_gauge(_hermitize_stack(A))
    if body == "hs":
        return lambda A: np.array([hs_norm(a) for a in A])
    if body in ("ppt0", "s0"):
        return lambda A: _ppt_gauge(_hermitize_stack(A), dims)
    raise ValueError(f"unknown body {body!r}")


def _count_meeting(criterion: str, dims: ProductDims, states: np.ndarray) -> int:
    """How many states of a stack are PPT, or separable for criterion
    "exact", which PPT decides only at 2x2 and 2x3."""
    if criterion == "exact":
        _require_exact_dims(dims)
    return int(np.count_nonzero(_min_pt(states, dims) >= PPT_EIGENVALUE_TOL))


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
    """Successes among `trials` induced states on `dims`, with their Wilson
    interval."""
    successes = sum(
        _count_meeting(criterion, dims, _induced_states(dims.n, s, gens))
        for gens in _chunks(stream, trials, dims.n)
    )
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
    meta = _scan_metadata(config, points)
    return ScanResult(config.dims, config.criterion, points, meta.get("crossing_s"), meta)


def _scan_metadata(config: ExperimentConfig, points: list[ScanPoint]) -> dict:
    meta = {"dims": list(config.dims), "criterion": config.criterion}
    crossing = crossing_estimate(points)
    if crossing is not None:
        meta["crossing_s"] = crossing
    if config.criterion == "ppt" and min(config.dims) >= 3:
        meta["bound_entanglement_note"] = _bound_entanglement_note(config.dims, points)
    return meta


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


def _gauge_samples(states, n: int, trials: int, stream, gauge) -> np.ndarray:
    """Batched gauge of `trials` matrices on C^n, stacked chunk by chunk by
    states(gens)."""
    return np.concatenate([gauge(states(gens)) for gens in _chunks(stream, trials, n)])


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
        vals = _gauge_samples(partial(_centered_induced_states, dims.n, s_val),
                              dims.n, trials, sub, gauge)
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
    num = from_samples(_gauge_samples(partial(_centered_induced_states, n, s),
                                      n, trials, sub_state, gauge))
    den = from_samples(_gauge_samples(partial(_gue0_states, n), n, trials, sub_gue, gauge))
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
    return "exact" if dims in EXACT_DIMS else "ppt"


def _coupled_successes(couple, n: int, crit_small: str, crit_large: str,
                       trials: int, stream) -> tuple[int, int]:
    """Successes of the small and of the large states of `trials` coupled
    pairs couple(rng), whose large states act on C^n."""
    small = large = 0
    for gens in _chunks(stream, trials, n):
        pairs = [couple(g) for g in gens]
        smalls = np.stack([p.small.matrix for p in pairs])
        larges = np.stack([p.large.matrix for p in pairs])
        small += _count_meeting(crit_small, pairs[0].small.dims, smalls)
        large += _count_meeting(crit_large, pairs[0].large.dims, larges)
    return small, large


def projection_monotonicity(d1: int, d2: int, s: int, trials: int, stream) -> MonotonicityResult:
    """Local-compression coupling: the probability of the criterion cannot
    drop when passing from the C^{d2} x C^{d2} state to its coupled
    C^{d1} x C^{d1} compression."""
    crit_small = _exactish_criterion((d1, d1))
    crit_large = _exactish_criterion((d2, d2))
    sub_coupled, sub_ds, sub_dl = split_stream(stream, 3)
    cs, cl = _coupled_successes(
        lambda rng: coupled_local_projection(d1, d2, s, rng), d2 * d2,
        crit_small, crit_large, trials, sub_coupled,
    )
    ds_cnt = _scan_point(ProductDims((d1, d1)), s, trials, crit_small, sub_ds).successes
    dl_cnt = _scan_point(ProductDims((d2, d2)), s, trials, crit_large, sub_dl).successes
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
    cs, cl = _coupled_successes(
        lambda rng: coupled_partial_trace(d, s, rng), 4 * d * d, "ppt", "ppt", trials, sub_coupled
    )
    ds_cnt = _scan_point(ProductDims((d, d)), 4 * s, trials, "ppt", sub_ds).successes
    dl_cnt = _scan_point(ProductDims((2 * d, 2 * d)), s, trials, "ppt", sub_dl).successes
    return MonotonicityResult(
        "partial-trace",
        MonoSide("coupled-small", (d, d), 4 * s, "ppt", trials, cs),
        MonoSide("coupled-large", (2 * d, 2 * d), s, "ppt", trials, cl),
        MonoSide("direct-small", (d, d), 4 * s, "ppt", trials, ds_cnt),
        MonoSide("direct-large", (2 * d, 2 * d), s, "ppt", trials, dl_cnt),
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

    gue0 = ensemble == "gue0"
    draw = partial(_gue0_states, n) if gue0 else partial(_centered_induced_states, n, s)
    lams = np.concatenate([np.linalg.eigvalsh(draw(gens)) for gens in _chunks(stream, trials, n)])
    lams = lams / math.sqrt(n) if gue0 else lams * math.sqrt(n * s)
    s_col = "" if gue0 else s
    return [
        (t, n, s_col, ensemble, dinf_semicircle(lam), *alpha_beta(lam),
         float(lam[-1]), float(lam[0]))
        for t, lam in enumerate(lams)
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
    header = _header_for(cfg)
    if cfg.experiment == "threshold-scan":
        dims = ProductDims(cfg.dims)
        base = SeededStream(cfg.master_seed)
        points = []
        for i, s in enumerate(sorted(cfg.s_values)):
            p = _scan_point(dims, s, cfg.trials, cfg.criterion, base.substream(i))
            points.append(p)
            rows_acc.append((p.s, p.trials, p.successes, p.p_hat, p.ci_low, p.ci_high))
        return header, _scan_metadata(cfg, points)
    if cfg.experiment == "spectral":
        rows_acc.extend(spectral_experiment(cfg))
        return header, {"ensemble": cfg.ensemble, "n": cfg.n, "s": cfg.s}
    if cfg.experiment == "concentration":
        summary = concentration_experiment(cfg.d, cfg.s, cfg.trials, stream, body=cfg.body)
        rows_acc.extend(
            (p.s, p.trials, p.mean, p.median, p.std, p.stderr)
            for p in (summary.at_s, summary.at_4s)
        )
        return header, {"body": summary.body, "std_ratio": summary.std_ratio}
    if cfg.experiment == "gue-approx":
        r = gue_approx_experiment(cfg.n, cfg.s, cfg.body, cfg.trials, stream)
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
            "scipy": importlib.metadata.version("scipy"),
        },
        "extra": extra,
    }
    write_sidecar(csv_path, payload)
    return 0
