"""Command-line interface.

Experiment subcommands (scan-threshold, spectral, concentration, gue-approx,
monotonicity, run) write an RFC-4180 CSV plus a JSON metadata sidecar that
records the seed, config digest and versions needed to reproduce the file.
`sample` writes its draws to --out; gauge, geometry and estimate-s0 print JSON
or write it to --out. ENTANGLAB_SEED overrides configured seeds.

A process that imports this module freezes its heap at exit, so it skips the
interpreter's shutdown collection; `import entanglab` alone leaves GC as it is.
"""

from __future__ import annotations

import argparse
import atexit
import dataclasses
import gc
import json
import sys
from functools import partial

import numpy as np

from .config import ExperimentConfig
from .ensembles import _ENSEMBLES, EnsembleSpec
from .experiments import EXPERIMENTS, execute_config, run_config
from .geometry import (
    density_comparison_ratio,
    log_weyl_chamber_znorm,
    log_znorm,
    separable_volume_bounds,
    vrad_states,
)
from .io import _matrix_records, _writable, _write_through, write_csv, write_matrix_records
from .linalg import ProductDims, traceless_part
from .rng import SeededStream, _chunks
from .separability import _gauge
from .widths import (
    _gue0_width,
    ppt_threshold_estimate,
    separability_threshold_estimate,
    symmetrization_volume_ratio,
    width_duality_check,
)

__all__ = ["main"]

# A CLI process ends right after main: freezing the heap at exit spares it the
# interpreter's shutdown collection, a walk of the whole heap the OS frees anyway.
atexit.register(gc.freeze)


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=np.generic.item)
    if out is None:
        print(text)
    else:
        _write_through(out, [text + "\n"])


def _query(handler, args) -> int:
    """Run `handler` as a query whose --out, if given, is checked before it runs."""
    out = args.out if args.out is None else _writable(args.out)
    _emit(handler(args), out)
    return 0


def _parse_dims(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dims {text!r}; expected e.g. 2,2") from None


def _parse_s_values(text: str):
    parts = text.split(":")
    if len(parts) > 3:
        raise argparse.ArgumentTypeError("range must be start:stop[:step]")
    try:
        values = [int(p) for p in (parts if len(parts) > 1 else text.split(","))]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad s values {text!r}; expected e.g. 2,4,8 or 16:64:4") from None
    return values if len(parts) == 1 else dict(zip(("start", "stop", "step"), values + [1]))


# an experiment flag only converts its text, to int unless listed; the config rules check it
_FLAG_TYPES = {"dims": _parse_dims, "s_values": _parse_s_values,
               **dict.fromkeys(("criterion", "ensemble", "body", "mode"), str)}


# -- subcommand handlers ------------------------------------------------------


def _cmd_experiment(args) -> int:
    """Run the experiment whose config keys are the flags given."""
    keys = EXPERIMENTS[args.experiment].keys
    raw = {"experiment": args.experiment, "trials": args.trials, "master_seed": args.seed}
    raw.update((k, v) for k, v in vars(args).items() if k in keys and v is not None)
    return execute_config(ExperimentConfig.from_dict(raw), output_override=args.out)


def _cmd_sample(args) -> int:
    _writable(args.out)  # before any draw
    spec = EnsembleSpec(args.ensemble, args.n, args.s)
    square = spec.kind != "ginibre"  # a ginibre draw is n x s
    if not square and args.format == "csv":
        raise ValueError("ginibre draws are not self-adjoint; use --format bin")
    # drawn and written a chunk of trials at a time
    chunks = _chunks(partial(_ENSEMBLES[spec.kind].kernel, spec.n, spec.s),
                     SeededStream(args.seed), args.trials, spec.n, spec.n if square else spec.s)
    if args.format == "bin":
        write_matrix_records(args.out, (mat for chunk in chunks for mat in chunk))
        return 0
    spectra = (lams for chunk in chunks for lams in np.linalg.eigvalsh(chunk)[:, ::-1])
    rows = ((t, i, lam) for t, lams in enumerate(spectra) for i, lam in enumerate(lams))
    write_csv(args.out, ["trial", "index", "value"], rows)
    return 0


def _cmd_gauge(args) -> dict:
    A = next(_matrix_records(args.input), None)  # the first record; no other is read
    if A is None:
        raise ValueError("no matrix records in input")
    dims = ProductDims(args.dims)
    res = _gauge(args.body, traceless_part(A), dims)
    return {
        "body": args.body,
        "dims": list(dims.factors),
        "value": res.value,
        "bracket_width": res.bracket_width,
        "evals": res.membership_evals,
        "trace_removed": float(np.trace(A).real),
    }


def _cmd_geometry(args) -> dict:
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
        v = vrad_states(args.n)  # its rule, n >= 2, refuses a size before any draw
        est, gm = _gue0_width(args.n, lambda G: np.linalg.eigvalsh(G)[:, -1], args.trials,
                              SeededStream(seed))
        width = est.mean / gm
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
    return payload


def _s0_estimate(d: int, ppt: bool, trials: int, seed: int) -> dict:
    """The PPT threshold result, or the S0 threshold estimate, at local dimension d."""
    if ppt:
        return dataclasses.asdict(ppt_threshold_estimate(d, trials, SeededStream(seed)))
    est = separability_threshold_estimate(d, trials, SeededStream(seed))
    return {"d": d, "trials": trials, "value": est.mean, "stderr": est.stderr}


def _cmd_estimate_s0(args) -> dict:
    payload = _s0_estimate(args.d, args.ppt, args.trials, args.seed)
    payload.update(kind="ppt" if args.ppt else "separable", trials=args.trials, seed=args.seed)
    return payload


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
        p.add_argument("--trials", type=int, default=trials_default)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)

    p = sub.add_parser("sample", help="draw from an ensemble and serialize")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--format", choices=["csv", "bin"], default="csv")
    add_common(p, trials_default=1)
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("gauge", help="gauge of the first direction of a matrix dump")
    p.add_argument("--input", required=True,
                   help="a matrix dump; its first record is gauged, and no other is read")
    p.add_argument("--body", required=True)
    p.add_argument("--dims", type=_parse_dims, required=True)
    p.add_argument("--tol", type=float, default=1e-8,
                   help="accepted and ignored: every gauge here is exact")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=partial(_query, _cmd_gauge))

    p = sub.add_parser("geometry", help="exact and Monte-Carlo geometry checks")
    p.add_argument("--check", required=True,
                   choices=["zvol", "vrad", "comparison", "duality", "urysohn",
                            "rogers-shephard", "sep-bounds", "s0", "s0-ppt"])
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--points", type=int, default=20000)
    add_common(p)
    p.set_defaults(fn=partial(_query, _cmd_geometry))

    p = sub.add_parser("estimate-s0", help="threshold estimate from the Gaussian mean gauge")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--ppt", action="store_true", help="use the PPT body (any d)")
    add_common(p, trials_default=2000)
    p.set_defaults(fn=partial(_query, _cmd_estimate_s0))

    for name, experiment in EXPERIMENTS.items():  # its flags are its config keys
        p = sub.add_parser(experiment.command, help=experiment.help)
        for key in sorted(experiment.keys):
            p.add_argument("--" + key.replace("_", "-"), type=_FLAG_TYPES.get(key, int))
        add_common(p, trials_default=experiment.trials)
        p.set_defaults(fn=_cmd_experiment, experiment=name)

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
