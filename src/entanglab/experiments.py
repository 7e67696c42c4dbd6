"""Batch experiments: threshold scans, concentration, the GUE approximation
ratio, coupled monotonicity comparisons, spectral statistics, and the
registry (EXPERIMENTS) that the config, the config runner and the CLI read.

Every experiment draws each trial from its own derived random stream, so
results are independent of execution order. Trials are drawn one at a time
and evaluated in chunks: a chunk's matrices are stacked, and normalization,
partial transposes, eigensolves and gauges run once over the stack. Scan
output rows are sorted by the scan variable before writing.
"""

from __future__ import annotations

import math
import os
import sys
import time
from collections.abc import Callable, Iterator
from dataclasses import astuple, dataclass, field, replace
from functools import partial

import numpy as np

from .config import ConfigError, ExperimentConfig, _is_int, _require_int
from .ensembles import (
    _ENSEMBLES,
    _centered_induced_states,
    _ensemble,
    _gue0_states,
    _induced_states,
    _partial_trace_pairs,
    _projection_pairs,
)
from .io import _writable, sidecar_path, write_csv, write_sidecar
from .linalg import ProductDims
from .rng import SeededStream, _chunks, split_stream
from .separability import _BODIES, _CRITERIA, EXACT_DIMS, _any_dims, _body_gauge, _criterion
from .spectral import alpha_beta, dinf_semicircle
from .stats import _Sums, from_samples, wilson_interval

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
    "EXPERIMENTS",
]

_S_POINTS_MAX = 10_000  # most s values a scan may run
SPECTRAL_HEADER = ["trial", "n", "s", "ensemble", "dinf", "alpha", "beta", "lambda_max", "lambda_min"]


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
    dims: tuple[int, ...]
    criterion: str
    points: list[ScanPoint]
    crossing: float | None
    metadata: dict = field(default_factory=dict)

    @property
    def header(self) -> list[str]:
        return ["s", "trials", "successes", _CRITERIA[self.criterion].column, "ci_low", "ci_high"]


def _scan_point(dims: ProductDims, s: int, trials: int, criterion: str, stream) -> ScanPoint:
    """Successes among `trials` induced states on `dims`, with their Wilson
    interval."""
    meets = _criterion(criterion, dims)
    successes = int(sum(_chunks(lambda g: np.count_nonzero(meets(_induced_states(dims.n, s, g))),
                                stream, trials, dims.n)))
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
    meta: dict = {}
    points = [ScanPoint(*row) for row in _run_scan(config, meta)]
    return ScanResult(config.dims, config.criterion, points, meta.get("crossing_s"), meta)


def _run_scan(config: ExperimentConfig, extra: dict):
    """Yield the scan's points in increasing s, each as soon as it is done."""
    dims = ProductDims(config.dims)
    base = SeededStream(config.master_seed)
    points = []
    for i, s in enumerate(sorted(config.s_values)):
        points.append(_scan_point(dims, s, config.trials, config.criterion, base.substream(i)))
        yield astuple(points[-1])
    extra.update(_scan_metadata(config, points))


def _check_scan(raw: dict, kw: dict) -> None:
    dims = raw.get("dims")
    if not (isinstance(dims, list) and all(_is_int(d) and d >= 2 for d in dims)):
        raise ConfigError("'dims' must be a list of integers >= 2")
    kw["dims"] = tuple(dims)  # the criterion's dims rule checks their count

    sv = raw.get("s_values")
    if isinstance(sv, dict):
        bad = set(sv) - {"start", "stop", "step"}
        if bad:
            raise ConfigError(f"unknown s_values key(s) {sorted(bad)}")
        start = sv.get("start")
        stop = sv.get("stop")
        step = sv.get("step", 1)
        if not all(map(_is_int, (start, stop, step))) or step < 1:
            raise ConfigError("'s_values' range needs integer start/stop and step >= 1")
        values = range(start, stop + 1, step)  # counted unbuilt: len() overflows past 2**63
        points = max(0, (stop - start) // step + 1)
        if not points:
            raise ConfigError(f"'s_values' range {start}:{stop}:{step} is empty")
    elif isinstance(sv, list) and sv and all(map(_is_int, sv)):
        values, points = sv, len(sv)
    else:
        raise ConfigError("'s_values' must be a non-empty integer list or a start/stop/step object")
    if points > _S_POINTS_MAX:
        raise ConfigError(f"'s_values' has {points} points, over the limit of {_S_POINTS_MAX}")
    if any(v < 1 for v in values):
        raise ConfigError("'s_values' must be positive")
    kw["s_values"] = tuple(values)

    kw["criterion"] = raw.get("criterion")
    _criterion(kw["criterion"], ProductDims(kw["dims"]))


def _scan_metadata(config: ExperimentConfig, points: list[ScanPoint]) -> dict:
    meta = {"dims": list(config.dims), "criterion": config.criterion}
    crossing = crossing_estimate(points)
    if crossing is not None:
        meta["crossing_s"] = crossing
    if config.criterion == "ppt" and min(config.dims) >= 3:
        meta["bound_entanglement_note"] = _bound_entanglement_note(config.dims, points)
    return meta


def _bound_entanglement_note(dims: tuple[int, ...], points: list[ScanPoint]) -> str:
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


def concentration_experiment(d: int, s: int, trials: int, stream,
                             body: str = "s0") -> ConcentrationSummary:
    """Location and spread of ||rho - Id/n||_K at environment sizes s and 4s.
    Its median needs every value, so each size keeps its trials' gauges in
    one array."""
    dims = ProductDims((d, d))
    gauge = _body_gauge(body, dims)
    subs = split_stream(stream, 2)
    pts = []
    for sub, s_val in zip(subs, (s, 4 * s)):
        vals = np.concatenate(list(_chunks(
            lambda gens: gauge(_centered_induced_states(dims.n, s_val, gens)), sub, trials, dims.n)))
        est = from_samples(vals)
        # one sample has no spread: NaN, as its stderr, without numpy's warnings
        std = float(vals.std(ddof=1)) if trials > 1 else math.nan
        pts.append(ConcentrationPoint(s_val, trials, est.mean, float(np.median(vals)), std,
                                      est.stderr))
    return ConcentrationSummary(d, body, pts[0], pts[1])


def _run_concentration(config: ExperimentConfig, extra: dict):
    summary = concentration_experiment(config.d, config.s, config.trials,
                                       SeededStream(config.master_seed), body=config.body)
    extra.update(body=summary.body, std_ratio=summary.std_ratio)
    yield from map(astuple, (summary.at_s, summary.at_4s))


def _check_concentration(raw: dict, kw: dict) -> None:
    kw["d"] = _require_int(raw, "d", 2)
    kw["s"] = _require_int(raw, "s", 1)
    kw["body"] = raw.get("body", "s0" if kw["d"] == 2 else "ppt0")
    _body_gauge(kw["body"], ProductDims((kw["d"], kw["d"])))


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


def _gue_approx_gauge(body: str, n: int) -> Callable[[np.ndarray], np.ndarray]:
    """The body's batched gauge on C^n, read as d x d when n = d^2: the
    factors the PPT and separable bodies need, so for them n must be square."""
    d = math.isqrt(n)
    entry = _BODIES.get(body) if isinstance(body, str) else None  # else _body_gauge refuses
    if d * d != n and entry is not None and entry.dims_rule is not _any_dims:
        raise ValueError(f"n must be a perfect square d^2 for the {body} body, got n = {n}")
    return _body_gauge(body, ProductDims((d, d) if d * d == n else (n,)))


def gue_approx_experiment(n: int, s: int, body: str, trials: int, stream) -> RatioResult:
    """R(n, s) = n sqrt(s) E||rho - Id/n||_K / E||G||_K for the chosen body.

    Approaches 1 when both n and s/n are large; how fast depends on the body.
    """
    gauge = _gue_approx_gauge(body, n)
    sub_state, sub_gue = split_stream(stream, 2)
    num = _Sums(_chunks(lambda gens: gauge(_centered_induced_states(n, s, gens)),
                        sub_state, trials, n)).estimate()
    den = _Sums(_chunks(lambda gens: gauge(_gue0_states(n, gens)), sub_gue, trials, n)).estimate()
    ratio = n * math.sqrt(s) * num.mean / den.mean
    rel = math.hypot(num.stderr / num.mean, den.stderr / den.mean)
    return RatioResult(
        n, s, body, trials, ratio, ratio * rel,
        num.mean, num.stderr, den.mean, den.stderr,
    )


def _run_gue_approx(config: ExperimentConfig, extra: dict):
    yield astuple(gue_approx_experiment(config.n, config.s, config.body, config.trials,
                                        SeededStream(config.master_seed)))


def _check_gue_approx(raw: dict, kw: dict) -> None:
    kw["n"] = _require_int(raw, "n", 2)
    kw["s"] = _require_int(raw, "s", 1)
    kw["body"] = raw.get("body")
    _gue_approx_gauge(kw["body"], kw["n"])


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


def _monotonicity(mode: str, pairs, small: tuple, large: tuple,
                  trials: int, stream) -> MonotonicityResult:
    """Successes of both sides of `trials` coupled pairs and of direct draws
    of each side, a side being (dims, s, criterion); pairs(gens) draws a
    chunk's stacks of small and of large states."""
    sub_coupled, sub_ds, sub_dl = split_stream(stream, 3)
    meets = [_criterion(crit, ProductDims(dims)) for dims, _, crit in (small, large)]
    cs, cl = map(int, sum(_chunks(
        lambda gens: np.array([np.count_nonzero(m(x)) for m, x in zip(meets, pairs(gens))]),
        sub_coupled, trials, math.prod(large[0]))))
    ds, dl = [_scan_point(ProductDims(dims), s, trials, crit, sub).successes
              for (dims, s, crit), sub in ((small, sub_ds), (large, sub_dl))]
    return MonotonicityResult(
        mode,
        MonoSide("coupled-small", *small, trials, cs),
        MonoSide("coupled-large", *large, trials, cl),
        MonoSide("direct-small", *small, trials, ds),
        MonoSide("direct-large", *large, trials, dl),
    )


def projection_monotonicity(d1: int, d2: int, s: int, trials: int, stream) -> MonotonicityResult:
    """Local-compression coupling: the probability of the criterion cannot
    drop when passing from the C^{d2} x C^{d2} state to its coupled
    C^{d1} x C^{d1} compression."""
    small, large = (((d, d), s, "exact" if (d, d) in EXACT_DIMS else "ppt") for d in (d1, d2))
    return _monotonicity("projection", lambda gens: _projection_pairs(d1, d2, s, gens)[:2],
                         small, large, trials, stream)


def partial_trace_monotonicity(d: int, s: int, trials: int, stream) -> MonotonicityResult:
    """Qubit-pair partial-trace coupling: PPT probability at (2d, s) is
    dominated by the one at (d, 4s)."""
    return _monotonicity("partial-trace", partial(_partial_trace_pairs, d, s),
                         ((d, d), 4 * s, "ppt"), ((2 * d, 2 * d), s, "ppt"), trials, stream)


def _run_monotonicity(config: ExperimentConfig, extra: dict):
    stream = SeededStream(config.master_seed)
    if config.mode == "projection":
        res = projection_monotonicity(config.d1, config.d2, config.s, config.trials, stream)
    else:
        res = partial_trace_monotonicity(config.d, config.s, config.trials, stream)
    extra.update(mode=res.mode, ordering_holds_2sigma=res.ordering_holds())
    for side in (res.coupled_small, res.coupled_large, res.direct_small, res.direct_large):
        yield (side.label, "%dx%d" % side.dims, side.s, side.criterion,
               side.trials, side.successes, side.p_hat, *side.interval())


def _check_monotonicity(raw: dict, kw: dict) -> None:
    mode = raw.get("mode")
    if mode not in ("projection", "partial-trace"):
        raise ConfigError("'mode' must be 'projection' or 'partial-trace'")
    kw["mode"] = mode
    kw["s"] = _require_int(raw, "s", 1)
    if mode == "projection":
        kw["d1"] = _require_int(raw, "d1", 2, default=2)
        kw["d2"] = _require_int(raw, "d2", 2, default=3)
        if kw["d1"] > kw["d2"]:
            raise ConfigError("'d1' must be <= 'd2'")
        if "d" in raw:
            raise ConfigError("'d' applies only to partial-trace mode")
    else:
        kw["d"] = _require_int(raw, "d", 2, default=2)
        if "d1" in raw or "d2" in raw:
            raise ConfigError("'d1'/'d2' apply only to projection mode")


# ---------------------------------------------------------------------------
# Spectral statistics.
# ---------------------------------------------------------------------------


def spectral_rows(ensemble: str, n: int, s: int | None, trials: int, stream) -> list[tuple]:
    """Per-trial rows (trial, n, s, ensemble, dinf, alpha, beta, lambda_max,
    lambda_min) for the rescaled spectrum of the chosen ensemble."""
    return list(_spectral_rows(ensemble, n, s, trials, stream))


# the ensembles spectral draws: those with a semicircle limit
_SEMICIRCLE = {name: entry for name, entry in _ENSEMBLES.items() if entry.spectra is not None}


def _spectral_ensemble(ensemble, n: int, s: int | None):
    """Spectral's binding, checked before any draw: a name of `_SEMICIRCLE` with
    its s rule, at n >= 2 (the alpha and beta factors need two eigenvalues)."""
    entry = _ensemble(ensemble, s, _SEMICIRCLE)
    if n < 2:
        raise ValueError(f"'n' must be >= 2, got {n}")
    return entry


def _spectral_rows(ensemble: str, n: int, s: int | None, trials: int, stream) -> Iterator[tuple]:
    """The rows of `spectral_rows`, computed a chunk of trials at a time."""
    spectra = _spectral_ensemble(ensemble, n, s).spectra

    def summarize(gens):  # five numbers per trial leave the chunk, not its spectrum
        return np.array([(dinf_semicircle(lam), *alpha_beta(lam), lam[-1], lam[0])
                         for lam in spectra(n, s, gens)])

    s_col = "" if s is None else s
    rows = (row for chunk in _chunks(summarize, stream, trials, n) for row in chunk)
    return ((t, n, s_col, ensemble, *row.tolist()) for t, row in enumerate(rows))


def spectral_experiment(config: ExperimentConfig) -> list[tuple]:
    if config.experiment != "spectral":
        raise ConfigError(f"expected a spectral config, got {config.experiment!r}")
    return list(_run_spectral(config, {}))


def _run_spectral(config: ExperimentConfig, extra: dict):
    extra.update(ensemble=config.ensemble, n=config.n, s=config.s)
    yield from _spectral_rows(config.ensemble, config.n, config.s, config.trials,
                              SeededStream(config.master_seed))


def _check_spectral(raw: dict, kw: dict) -> None:
    kw["ensemble"] = raw.get("ensemble")
    kw["n"] = _require_int(raw, "n")
    if "s" in raw:
        kw["s"] = _require_int(raw, "s")
    _spectral_ensemble(kw["ensemble"], kw["n"], kw.get("s"))


# ---------------------------------------------------------------------------
# Experiment registry.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Experiment:
    """One experiment as the config, the runner and the CLI see it: its CLI
    subcommand `command`, with its one-line `help` and default `trials`; its
    config keys beyond the common ones, which are also the subcommand's
    flags; `check(raw, kwargs)`, which validates a raw config and fills the
    `ExperimentConfig` fields; `header(config)`, the CSV header; and
    `run(config, extra)`, a generator of the CSV rows that fills the
    sidecar's `extra` dict by the time it is exhausted."""

    command: str
    help: str
    trials: int
    keys: frozenset[str]
    check: Callable[[dict, dict], None]
    header: Callable[[ExperimentConfig], list[str]]
    run: Callable[[ExperimentConfig, dict], Iterator[tuple]]


EXPERIMENTS = {
    "threshold-scan": Experiment(
        "scan-threshold", "criterion probability over s values", 1000,
        frozenset({"dims", "s_values", "criterion"}), _check_scan,
        lambda c: ScanResult(c.dims, c.criterion, [], None).header, _run_scan,
    ),
    "spectral": Experiment(
        "spectral", "per-trial spectral statistics CSV", 20,
        frozenset({"ensemble", "n", "s"}), _check_spectral, lambda c: SPECTRAL_HEADER, _run_spectral
    ),
    "concentration": Experiment(
        "concentration", "gauge spread at s versus 4s", 1000,
        frozenset({"d", "s", "body"}), _check_concentration,
        lambda c: ["s", "trials", "mean", "median", "std", "stderr"], _run_concentration,
    ),
    "gue-approx": Experiment(
        "gue-approx", "GUE approximation ratio R(n, s)", 200,
        frozenset({"n", "s", "body"}), _check_gue_approx,
        lambda c: ["n", "s", "body", "trials", "ratio", "ratio_stderr",
                   "state_mean", "state_stderr", "gue_mean", "gue_stderr"],
        _run_gue_approx,
    ),
    "monotonicity": Experiment(
        "monotonicity", "coupled monotonicity comparison", 1000,
        frozenset({"mode", "d", "d1", "d2", "s"}), _check_monotonicity,
        lambda c: ["side", "dims", "s", "criterion", "trials", "successes",
                   "p_hat", "ci_low", "ci_high"],
        _run_monotonicity,
    ),
}


# ---------------------------------------------------------------------------
# Config runner.
# ---------------------------------------------------------------------------


def _effective_seed(config: ExperimentConfig) -> tuple[int, bool]:
    env = os.environ.get("ENTANGLAB_SEED")
    if env is None:
        return config.master_seed, False
    try:
        seed = int(env)
        if seed < 0:
            raise ValueError
    except ValueError as exc:
        raise ConfigError(f"ENTANGLAB_SEED must be a non-negative integer, got {env!r}") from exc
    return seed, True


def run_config(path: str, output_override: str | None = None) -> int:
    """Execute a config file; write CSV plus a JSON metadata sidecar.

    Re-running with the same seed reproduces the CSV byte for byte. Rows
    stream through `io.write_csv`: a failed run leaves an earlier CSV as it
    was, and `<csv>.partial` with the rows it completed. Returns a process
    exit status (0 on success, 1 if the experiment failed, 2 on config errors).
    """
    try:
        config = ExperimentConfig.from_file(path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return execute_config(config, output_override)


def execute_config(config: ExperimentConfig, output_override: str | None = None) -> int:
    """Execute an already-validated config; see run_config."""
    out = config.output if output_override is None else output_override
    csv_path = out if str(out).endswith(".csv") else f"{out}.csv"
    try:
        seed, overridden = _effective_seed(config)
        for path in (out, csv_path, sidecar_path(csv_path)):  # every target, before any draw
            _writable(path)
    except ValueError as exc:  # a ConfigError or the output rule
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    started = time.time()
    experiment = EXPERIMENTS[config.experiment]
    extra: dict = {}
    try:
        rows = write_csv(csv_path, experiment.header(config),
                         experiment.run(replace(config, master_seed=seed), extra))
    except Exception as exc:
        print(f"experiment failed: {exc}", file=sys.stderr)
        return 1
    from . import __version__

    payload = {
        "experiment": config.experiment,
        "config_digest": config.digest(),
        "master_seed": seed,
        "seed_overridden_by_env": overridden,
        "csv": os.path.basename(csv_path),
        "rows": rows,
        "wall_time_s": round(time.time() - started, 6),
        "versions": {
            "entanglab": __version__,
            "numpy": np.__version__,
        },
        "extra": extra,
    }
    write_sidecar(csv_path, payload)
    return 0
