"""Command-line interface.

Experiment subcommands (scan-threshold, spectral, concentration, gue-approx,
monotonicity, run) write an RFC-4180 CSV plus a JSON metadata sidecar that
records the seed, config digest and versions needed to reproduce the file.
Query subcommands (sample, gauge, geometry, estimate-s0) print JSON unless
directed to a file. ENTANGLAB_SEED overrides configured seeds.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .config import ExperimentConfig
from .ensembles import EnsembleSpec, draw_ensemble
from .experiments import EXPERIMENTS, execute_config, run_config
from .geometry import (
    density_comparison_ratio,
    log_weyl_chamber_znorm,
    log_znorm,
    separable_volume_bounds,
    vrad_states,
)
from .io import _write_through, read_matrix_records, write_csv, write_matrix_records
from .linalg import ProductDims, hermitian_eigenvalues, hermitize, traceless_part
from .rng import SeededStream, trial_generators
from .separability import _CRITERIA, _gauge
from .widths import (
    _gue0_width,
    ppt_threshold_estimate,
    separability_threshold_estimate,
    symmetrization_volume_ratio,
    width_duality_check,
)

__all__ = ["main"]


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=np.generic.item)
    if out:
        _write_through(out, [text + "\n"])
    else:
        print(text)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse_dims(text: str) -> list[int]:
    try:
        dims = [int(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dims {text!r}; expected e.g. 2,2")
    if len(dims) < 2:
        raise argparse.ArgumentTypeError("dims needs at least two factors")
    return dims


def _parse_s_values(text: str):
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise argparse.ArgumentTypeError("range must be start:stop[:step]")
        start, stop = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
        return {"start": start, "stop": stop, "step": step}
    return [int(p) for p in text.split(",")]


# -- subcommand handlers ------------------------------------------------------


def _cmd_experiment(args) -> int:
    """Run the experiment whose config keys are the flags given."""
    keys = EXPERIMENTS[args.experiment].keys
    raw = {"experiment": args.experiment, "trials": args.trials, "master_seed": args.seed}
    raw.update((k, v) for k, v in vars(args).items() if k in keys and v is not None)
    return execute_config(ExperimentConfig.from_dict(raw), output_override=args.out)


def _cmd_sample(args) -> int:
    if not args.out:
        print("sample requires --out", file=sys.stderr)
        return 2
    spec = EnsembleSpec(args.ensemble, args.n, args.s)
    if spec.kind == "ginibre" and args.format == "csv":
        print("ginibre draws are not self-adjoint; use --format bin", file=sys.stderr)
        return 2
    # written a draw at a time; induced and uniform draws are DensityMatrix objects
    gens = trial_generators(SeededStream(args.seed), args.trials)
    draws = (draw_ensemble(spec, rng) for rng in gens)
    mats = (getattr(d, "matrix", d) for d in draws)
    if args.format == "bin":
        write_matrix_records(args.out, mats)
        return 0
    rows = ((t, i, lam) for t, mat in enumerate(mats)
            for i, lam in enumerate(hermitian_eigenvalues(mat)))
    write_csv(args.out, ["trial", "index", "value"], rows)
    return 0


def _cmd_gauge(args) -> int:
    mats = read_matrix_records(args.input)
    if not mats:
        print("no matrix records in input", file=sys.stderr)
        return 2
    A = hermitize(mats[0])
    trace = float(np.trace(A).real)
    A = traceless_part(A)
    dims = ProductDims(args.dims)
    res = _gauge(args.body, A, dims)
    _emit(
        {
            "body": args.body,
            "dims": list(dims.factors),
            "value": res.value,
            "bracket_width": res.bracket_width,
            "evals": res.membership_evals,
            "trace_removed": trace,
        },
        args.out,
    )
    return 0


def _cmd_geometry(args) -> int:
    check = args.check
    seed = args.seed
    payload: dict = {"check": check, "seed": seed}
    if check == "zvol":
        s = args.s if args.s is not None else args.n
        payload.update(
            n=args.n, s=s,
            log_znorm=log_znorm(args.n, s),
            log_weyl_chamber_znorm=log_weyl_chamber_znorm(args.n, s),
        )
    elif check == "vrad":
        v = vrad_states(args.n)
        payload.update(
            n=args.n, vrad=v,
            normalized=v * args.n ** 0.5 * np.exp(0.25),
        )
    elif check == "comparison":
        svals = [args.s] if args.s is not None else [args.n * f for f in (1, 2, 4, 8)]
        payload.update(
            n=args.n,
            ratios={str(s): density_comparison_ratio(args.n, s) for s in svals},
        )
    elif check == "duality":
        res = width_duality_check(ProductDims((2, 2)), args.trials, SeededStream(seed))
        payload.update(dataclasses.asdict(res), passed=res.passed)
    elif check == "urysohn":  # lambda_max is the support function of the centered state body
        est, gm = _gue0_width(args.n, lambda G: np.linalg.eigvalsh(G)[:, -1], args.trials,
                              SeededStream(seed))
        width, v = est.mean / gm, vrad_states(args.n)
        payload.update(n=args.n, trials=args.trials, vrad=v, width=width,
                       width_stderr=est.stderr / gm, passed=bool(v <= width + 3 * est.stderr / gm))
    elif check == "rogers-shephard":
        res = symmetrization_volume_ratio(args.m, args.points, SeededStream(seed))
        payload.update(dataclasses.asdict(res), passed=res.passed)
    elif check == "sep-bounds":
        b1, b2, beta = separable_volume_bounds(args.k, args.d)
        payload.update(k=args.k, d=args.d, bound_i=b1, bound_ii=b2, beta_d=beta)
    else:  # s0 or s0-ppt
        payload.update(_s0_estimate(args.d, check == "s0-ppt", args.trials, seed))
    _emit(payload, args.out)
    return 0


def _s0_estimate(d: int, ppt: bool, trials: int, seed: int) -> dict:
    """The PPT threshold result, or the S0 threshold estimate, at local dimension d."""
    if ppt:
        return dataclasses.asdict(ppt_threshold_estimate(d, trials, SeededStream(seed)))
    est = separability_threshold_estimate(d, trials, SeededStream(seed))
    return {"d": d, "trials": trials, "value": est.mean, "stderr": est.stderr}


def _cmd_estimate_s0(args) -> int:
    payload = _s0_estimate(args.d, args.ppt, args.trials, args.seed)
    payload.update(kind="ppt" if args.ppt else "separable", trials=args.trials, seed=args.seed)
    _emit(payload, args.out)
    return 0


def _cmd_run(args) -> int:
    return run_config(args.config, output_override=args.out)


# -- parser -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entanglab",
        description="Monte-Carlo laboratory for random induced quantum states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, trials_default=1000):
        p.add_argument("--trials", type=_positive_int, default=trials_default)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)

    p = sub.add_parser("sample", help="draw from an ensemble and serialize")
    p.add_argument("--ensemble", required=True,
                   choices=["gue", "gue0", "ginibre", "induced", "uniform"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--format", choices=["csv", "bin"], default="csv")
    add_common(p, trials_default=1)
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("spectral", help="per-trial spectral statistics CSV")
    p.add_argument("--ensemble", required=True, choices=["gue0", "induced"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, default=None)
    add_common(p, trials_default=20)
    p.set_defaults(fn=_cmd_experiment, experiment="spectral")

    p = sub.add_parser("gauge", help="gauge of a direction read from a matrix dump")
    p.add_argument("--input", required=True)
    p.add_argument("--body", required=True, choices=["s0", "ssym", "d0", "ppt0"])
    p.add_argument("--dims", type=_parse_dims, required=True)
    p.add_argument("--tol", type=float, default=1e-8,
                   help="accepted and ignored: every gauge here is exact")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_gauge)

    p = sub.add_parser("geometry", help="exact and Monte-Carlo geometry checks")
    p.add_argument("--check", required=True,
                   choices=["zvol", "vrad", "comparison", "duality", "urysohn",
                            "rogers-shephard", "sep-bounds", "s0", "s0-ppt"])
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--points", type=_positive_int, default=20000)
    add_common(p)
    p.set_defaults(fn=_cmd_geometry)

    p = sub.add_parser("scan-threshold", help="criterion probability over s values")
    p.add_argument("--dims", type=_parse_dims, required=True)
    p.add_argument("--criterion", required=True, choices=sorted(_CRITERIA))
    p.add_argument("--s-values", type=_parse_s_values, required=True,
                   help="comma list (2,4,8) or range start:stop[:step]")
    add_common(p)
    p.set_defaults(fn=_cmd_experiment, experiment="threshold-scan")

    p = sub.add_parser("estimate-s0", help="threshold estimate from the Gaussian mean gauge")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--ppt", action="store_true", help="use the PPT body (any d)")
    add_common(p, trials_default=2000)
    p.set_defaults(fn=_cmd_estimate_s0)

    p = sub.add_parser("gue-approx", help="GUE approximation ratio R(n, s)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--body", required=True, choices=["d0", "ppt0", "hs", "s0"])
    add_common(p, trials_default=200)
    p.set_defaults(fn=_cmd_experiment, experiment="gue-approx")

    p = sub.add_parser("concentration", help="gauge spread at s versus 4s")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--body", choices=["s0", "d0", "ppt0"])
    add_common(p)
    p.set_defaults(fn=_cmd_experiment, experiment="concentration")

    p = sub.add_parser("monotonicity", help="coupled monotonicity comparison")
    p.add_argument("--mode", required=True, choices=["projection", "partial-trace"])
    p.add_argument("--d1", type=int)
    p.add_argument("--d2", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--s", type=int, required=True)
    add_common(p)
    p.set_defaults(fn=_cmd_experiment, experiment="monotonicity")

    p = sub.add_parser("run", help="execute a JSON experiment config")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="override the config's output path")
    p.set_defaults(fn=_cmd_run)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
