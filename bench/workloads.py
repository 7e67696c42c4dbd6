"""The benchmark's workloads: one CLI invocation each, plus its output check.

Each check is an independent oracle written with numpy only. It rebuilds the
draws from their documented `(master_seed, stream_index)` addresses (a
trial's generator is PCG64 seeded by SeedSequence(master_seed,
spawn_key=(stream_index, *subpath))) and recomputes what the CLI reported,
so a check holds for every seed. A check returns a list of problems; an
empty list means the output is correct.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Same classification threshold as the library: boundary states are PPT.
PPT_TOL = -1e-11
# The separable gauge is a bisection stopped at relative bracket width 1e-8;
# it reports the upper end, so S0 >= PPT0 and S0 <= PPT0 / (1 - 1e-8).
# Squaring the mean gauge doubles that; the rest is eigensolver noise.
S0_REL_LOW, S0_REL_HIGH = -1e-9, 3e-8
# Median semicircle distance of rescaled induced spectra at n=64, s=4096 is
# about 0.23 (README); per-trial spread is 0.043, so the median of >= 40
# trials stays within +-0.05 of it for any seed.
DINF_BAND = (0.18, 0.28)


def generator(master_seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(master_seed, spawn_key=key)))


def _ginibre(g: np.random.Generator, n: int, s: int) -> np.ndarray:
    re = g.standard_normal((n, s))
    im = g.standard_normal((n, s))
    return (re + 1j * im) / np.sqrt(2)


def _dagger(a: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(a, -1, -2))


def _pt_second(batch: np.ndarray, d1: int, d2: int) -> np.ndarray:
    t = batch.shape[0]
    return batch.reshape(t, d1, d2, d1, d2).transpose(0, 1, 4, 3, 2).reshape(t, d1 * d2, d1 * d2)


def induced_states(master_seed: int, keys, n: int, s: int) -> np.ndarray:
    """Stack of the induced states drawn from the given stream keys."""
    a = np.stack([_ginibre(generator(master_seed, *key), n, s) for key in keys])
    w = a @ _dagger(a)
    w /= np.trace(w, axis1=1, axis2=2).real[:, None, None]
    return (w + _dagger(w)) / 2


def ppt_successes(master_seed: int, point: int, d1: int, d2: int, s: int, trials: int) -> int:
    """PPT count of one scan point: point i of a scan draws trial t from
    substream (0, i, t)."""
    rho = induced_states(master_seed, [(0, point, t) for t in range(trials)], d1 * d2, s)
    lam_min = np.linalg.eigvalsh(_pt_second(rho, d1, d2))[:, 0]
    return int(np.count_nonzero(lam_min >= PPT_TOL))


def gue0_stack(master_seed: int, n: int, trials: int) -> np.ndarray:
    out = np.empty((trials, n, n), dtype=complex)
    iu = np.triu_indices(n, k=1)
    for t in range(trials):
        g = generator(master_seed, 0, t)
        diag = g.standard_normal(n)
        re = g.standard_normal((n, n))
        im = g.standard_normal((n, n))
        a = np.zeros((n, n), dtype=complex)
        a[iu] = ((re + 1j * im) / np.sqrt(2))[iu]
        a = a + a.conj().T
        a[np.diag_indices(n)] = diag
        out[t] = a
    out -= (np.trace(out, axis1=1, axis2=2) / n)[:, None, None] * np.eye(n)
    return (out + _dagger(out)) / 2


def ppt_gauges(directions: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """Closed-form PPT0 gauge n * max(0, -lambda_min(A), -lambda_min(A^Gamma))."""
    n = d1 * d2
    lam = np.linalg.eigvalsh(directions)[:, 0]
    lam_pt = np.linalg.eigvalsh(_pt_second(directions, d1, d2))[:, 0]
    return n * np.maximum(0.0, np.maximum(-lam, -lam_pt))


def _read_csv(path: Path) -> tuple[list[str], list[dict]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames or []), list(reader)


def _check_sidecar(csv_path: Path, seed: int, rows: int) -> list[str]:
    meta = json.loads(csv_path.with_suffix(".meta.json").read_text())
    problems = []
    if meta.get("master_seed") != seed:
        problems.append(f"sidecar master_seed {meta.get('master_seed')} != {seed}")
    if meta.get("rows") != rows:
        problems.append(f"sidecar rows {meta.get('rows')} != {rows}")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    args: tuple[str, ...]  # CLI arguments without --seed and --out
    out_name: str  # file the CLI writes, passed as --out
    check: Callable[["Workload", Path, int], list[str]]

    def problems(self, out: Path, seed: int) -> list[str]:
        """What is wrong with the output file `out` of an invocation at `seed`."""
        return self.check(self, out, seed)

    def argv(self, seed: int, out_dir: Path) -> list[str]:
        return [*self.args, "--seed", str(seed), "--out", str(out_dir / self.out_name)]

    def option(self, flag: str) -> str:
        return self.args[self.args.index(flag) + 1]

    @property
    def trials(self) -> int:
        """Trials per invocation: one per state, gauge or spectrum."""
        per_point = int(self.option("--trials"))
        if "--s-values" in self.args:
            return per_point * len(_s_values(self.option("--s-values")))
        return per_point


def _s_values(text: str) -> list[int]:
    start, stop, step = (int(v) for v in text.split(":"))
    return list(range(start, stop + 1, step))


def check_scan(w: Workload, out: Path, seed: int) -> list[str]:
    d1, d2 = (int(v) for v in w.option("--dims").split(","))
    s_values = _s_values(w.option("--s-values"))
    trials = int(w.option("--trials"))
    header, rows = _read_csv(out)
    if header != ["s", "trials", "successes", "ppt_probability", "ci_low", "ci_high"]:
        return [f"unexpected header {header}"]
    if [int(r["s"]) for r in rows] != s_values:
        return [f"s column {[r['s'] for r in rows]} != {s_values}"]
    problems = _check_sidecar(out, seed, len(rows))
    for i, (s, r) in enumerate(zip(s_values, rows)):
        k, lo, p, hi = int(r["successes"]), float(r["ci_low"]), float(r["ppt_probability"]), float(r["ci_high"])
        if int(r["trials"]) != trials or p != k / trials or not 0.0 <= lo <= p <= hi <= 1.0:
            problems.append(f"s={s}: inconsistent row {r}")
        expected = ppt_successes(seed, i, d1, d2, s, trials)
        if k != expected:
            problems.append(f"s={s}: {k} PPT states reported, oracle counts {expected}")
    return problems


def check_sep_gauge(w: Workload, out: Path, seed: int) -> list[str]:
    got = json.loads(out.read_text())
    d, trials = int(w.option("--d")), int(w.option("--trials"))
    if (got.get("kind"), got.get("d"), got.get("trials"), got.get("seed")) != ("separable", d, trials, seed):
        return [f"unexpected fields {got}"]
    gauges = ppt_gauges(gue0_stack(seed, d * d, trials), d, d)
    mean, se = gauges.mean(), gauges.std(ddof=1) / math.sqrt(trials)
    d2 = float(d * d)
    value, stderr = (mean / d2) ** 2, 2.0 * mean / (d2 * d2) * se
    problems = []
    rel = got["value"] / value - 1.0
    if not S0_REL_LOW <= rel <= S0_REL_HIGH:
        problems.append(f"S0 estimate {got['value']!r} differs from PPT0 {value!r} by {rel:.3g} relative")
    if abs(got["stderr"] / stderr - 1.0) > 1e-6:
        problems.append(f"stderr {got['stderr']!r} != PPT0 stderr {stderr!r}")
    return problems


def check_spectral(w: Workload, out: Path, seed: int) -> list[str]:
    n, s, trials = int(w.option("--n")), int(w.option("--s")), int(w.option("--trials"))
    header, rows = _read_csv(out)
    expected_header = ["trial", "n", "s", "ensemble", "dinf", "alpha", "beta", "lambda_max", "lambda_min"]
    if header != expected_header:
        return [f"unexpected header {header}"]
    if [(int(r["trial"]), int(r["n"]), int(r["s"]), r["ensemble"]) for r in rows] != [
        (t, n, s, "induced") for t in range(trials)
    ]:
        return ["trial, n, s or ensemble columns do not match the request"]
    problems = _check_sidecar(out, seed, len(rows))
    dinf = np.array([float(r["dinf"]) for r in rows])
    for t, r in enumerate(rows):
        lmax, lmin = float(r["lambda_max"]), float(r["lambda_min"])
        # Mass at lambda_max must travel to the support [-2, 2].
        if dinf[t] < max(lmax - 2.0, -2.0 - lmin, 0.0) - 1e-12:
            problems.append(f"trial {t}: dinf {dinf[t]!r} below the edge bound")
        if float(r["alpha"]) * float(r["beta"]) < 1.0 - 1e-12:
            problems.append(f"trial {t}: alpha * beta < 1")
    median = float(np.median(dinf))
    if not DINF_BAND[0] <= median <= DINF_BAND[1]:
        problems.append(f"median dinf {median:.4f} outside {DINF_BAND}")
    edges = (0, trials - 1)
    for t, rho in zip(edges, induced_states(seed, [(0, t) for t in edges], n, s)):
        lam = np.linalg.eigvalsh(rho - np.trace(rho).real / n * np.eye(n)) * math.sqrt(n * s)
        got = (float(rows[t]["lambda_max"]), float(rows[t]["lambda_min"]))
        if max(abs(got[0] - lam[-1]), abs(got[1] - lam[0])) > 1e-9:
            problems.append(f"trial {t}: spectrum edges {got} != oracle {(lam[-1], lam[0])}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scan-small",
            "README PPT scan of 9x9 states: per-trial Python overhead (streams, validation, 2 eigensolves per trial)",
            ("scan-threshold", "--dims", "3,3", "--criterion", "ppt", "--s-values", "16:64:4", "--trials", "400"),
            "scan.csv", check_scan,
        ),
        Workload(
            "scan-large",
            "PPT scan of 64x64 states at s near 4d^2: LAPACK eigensolves and 64 x s Ginibre draws dominate",
            ("scan-threshold", "--dims", "8,8", "--criterion", "ppt", "--s-values", "192:320:32", "--trials", "100"),
            "scan.csv", check_scan,
        ),
        Workload(
            "sep-gauge",
            "S0 threshold estimate at d=2: the bisection separable gauge, which no scan calls",
            ("estimate-s0", "--d", "2", "--trials", "1200"),
            "estimate.json", check_sep_gauge,
        ),
        Workload(
            "spectral",
            "induced spectra at n=64, s=4096: big Ginibre draw and Gram product, dinf bisection, brentq quantiles",
            ("spectral", "--ensemble", "induced", "--n", "64", "--s", "4096", "--trials", "40"),
            "spectral.csv", check_spectral,
        ),
    )
}
