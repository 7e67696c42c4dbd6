import argparse
import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from conftest import child_env, chunk_trials, traced_peak

import entanglab
import entanglab.cli
import entanglab.rng
from entanglab.cli import _build_parser, main
from entanglab.config import ConfigError, ExperimentConfig
from entanglab.ensembles import sample_gue0
from entanglab.experiments import EXPERIMENTS
from entanglab.geometry import gamma_m, vrad_states
from entanglab.io import (
    format_value,
    read_matrix_records,
    sidecar_path,
    write_csv,
    write_matrix_records,
)
from entanglab.rng import SeededStream, trial_generators
from entanglab.stats import from_samples
from entanglab.widths import ppt_threshold_estimate

def test_format_value():
    assert format_value(0.5) == "0.5"
    assert format_value(np.float64(1.25)) == "1.25"
    assert format_value(3) == "3"
    assert format_value(True) == "true"
    assert format_value("x") == "x"


def test_csv_writer_rfc4180(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [(1, 0.5), (2, 0.25)])
    data = path.read_bytes()
    assert data == b"a,b\r\n1,0.5\r\n2,0.25\r\n"


def test_matrix_records_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    mats = [
        rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
        rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5)),
    ]
    path = tmp_path / "m.bin"
    write_matrix_records(path, mats)
    back = read_matrix_records(path)
    assert len(back) == 2
    for a, b in zip(mats, back):
        assert np.array_equal(a, b)
    # documented layout: 16-byte header then interleaved float64 pairs
    blob = path.read_bytes()
    rows = int.from_bytes(blob[:8], "little")
    cols = int.from_bytes(blob[8:16], "little")
    assert (rows, cols) == (3, 3)
    first = np.frombuffer(blob, dtype="<f8", count=2, offset=16)
    assert first[0] == mats[0][0, 0].real and first[1] == mats[0][0, 0].imag


def test_non_2d_first_record_opens_no_file(tmp_path):
    path = tmp_path / "m.bin"
    write_matrix_records(path, [np.eye(2)])
    before = path.read_bytes()
    with pytest.raises(ValueError, match="matrix records must be 2-D"):
        write_matrix_records(path, [np.zeros(3)])
    assert not (tmp_path / "m.bin.partial").exists()
    assert path.read_bytes() == before


def test_sidecar_path():
    assert str(sidecar_path("out/run.csv")).endswith("run.meta.json")
    assert str(sidecar_path("out/run")).endswith("run.meta.json")


# -- CLI ---------------------------------------------------------------------------


def test_cli_sample_csv_and_bin(tmp_path, monkeypatch):
    out = tmp_path / "eigs.csv"
    rc = main(["sample", "--ensemble", "gue0", "--n", "4", "--trials", "2",
               "--seed", "3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "trial,index,value"
    assert len(lines) == 1 + 2 * 4

    binout = tmp_path / "draws.bin"
    rc = main(["sample", "--ensemble", "induced", "--n", "4", "--s", "6",
               "--trials", "3", "--seed", "3", "--format", "bin", "--out", str(binout)])
    assert rc == 0
    mats = read_matrix_records(binout)
    assert len(mats) == 3
    assert all(abs(np.trace(m) - 1) < 1e-12 for m in mats)

    # eigenvalue CSV undefined for non-hermitian draws: refused before drawing
    def no_draws(*args):
        raise AssertionError("sample drew before refusing the format")

    monkeypatch.setattr(entanglab.cli, "draw_ensemble", no_draws)
    rc = main(["sample", "--ensemble", "ginibre", "--n", "3", "--s", "4",
               "--trials", "1", "--seed", "0", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert not (tmp_path / "x.csv").exists()


def test_cli_sample_writes_each_draw_as_it_is_made(tmp_path):
    # holding all 1000 draws of n = 16 before writing peaked at about 4.6 MB
    # (bin) and 6 MB (csv); written one at a time, the peak does not grow with --trials
    for fmt in ("csv", "bin"):
        argv = ["sample", "--ensemble", "gue", "--n", "16", "--format", fmt,
                "--seed", "0", "--out", str(tmp_path / f"draws.{fmt}")]
        assert main([*argv, "--trials", "2"]) == 0  # first-use allocations
        rc, peak = traced_peak(lambda: main([*argv, "--trials", "1000"]))
        assert rc == 0 and peak < 1 << 20, (fmt, peak)


def test_cli_refuses_trials_over_the_byte_limit(tmp_path, monkeypatch, capsys):
    # at a 1 MiB limit one 64 x 4096 induced draw is too large
    monkeypatch.setattr(entanglab.rng, "_TRIAL_BYTES_MAX", 1 << 20)
    assert main(["spectral", "--ensemble", "induced", "--n", "64", "--s", "4096",
                 "--trials", "2", "--seed", "0", "--out", str(tmp_path / "spec")]) == 1
    assert "over the limit" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("ensemble, fmt", [("ginibre", "bin"), ("induced", "csv")])
def test_failed_sample_leaves_an_earlier_file_as_it_was(tmp_path, monkeypatch, capsys,
                                                        ensemble, fmt):
    # at a 1 MiB limit one 64 x 4096 Ginibre or induced draw is too large;
    # the output is opened only once the first draw exists, so the refused
    # draw neither truncates the earlier file nor leaves a .partial beside it
    out = tmp_path / f"draws.{fmt}"
    argv = ["sample", "--ensemble", ensemble, "--format", fmt, "--seed", "0", "--out", str(out)]
    assert main([*argv, "--n", "4", "--s", "6", "--trials", "2"]) == 0
    good = out.read_bytes()
    monkeypatch.setattr(entanglab.rng, "_TRIAL_BYTES_MAX", 1 << 20)
    assert main([*argv, "--n", "64", "--s", "4096"]) == 2
    assert "over the limit" in capsys.readouterr().err
    assert out.read_bytes() == good
    assert [p.name for p in tmp_path.iterdir()] == [out.name]


def test_emit_writes_numpy_scalars_as_plain_json(tmp_path, capsys):
    ppt = dataclasses.asdict(ppt_threshold_estimate(2, 20, SeededStream(1)))
    payload = {"count": np.int64(3), "flag": np.bool_(True), "mean": np.float64(0.1),
               "missing": np.float64("nan"), "pair": (np.int64(-2), np.float64(2.5)),
               "ppt": ppt}
    plain = {"count": 3, "flag": True, "mean": 0.1, "missing": float("nan"),
             "pair": [-2, 2.5], "ppt": ppt}
    expected = json.dumps(plain, indent=2, sort_keys=True) + "\n"
    assert '"missing": NaN' in expected and '"mean": 0.1,' in expected

    entanglab.cli._emit(payload, None)
    assert capsys.readouterr().out == expected
    out = tmp_path / "payload.json"
    entanglab.cli._emit(payload, str(out))
    assert out.read_text() == expected
    with pytest.raises(TypeError):
        entanglab.cli._emit({"set": {1}}, None)


def test_cli_gauge_refuses_dims_of_another_size(tmp_path, capsys):
    dump = tmp_path / "rho.bin"
    assert main(["sample", "--ensemble", "induced", "--n", "4", "--s", "6",
                 "--format", "bin", "--out", str(dump)]) == 0
    out = tmp_path / "gauge.json"
    rc = main(["gauge", "--input", str(dump), "--body", "ppt0", "--dims", "2,3",
               "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: matrix size 4 does not match dims (2, 3)\n"


def test_cli_gauge_bell_direction(tmp_path, capsys):
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / math.sqrt(2)
    A = np.outer(phi, phi.conj()) - np.eye(4) / 4
    path = tmp_path / "a.bin"
    write_matrix_records(path, [A])
    zero = tmp_path / "zero.bin"
    write_matrix_records(zero, [np.eye(4)])  # Id/n is the zero direction
    # body -> (gauge, eigensolves): A has lambda_min -1/4, A^Gamma -3/4
    for body, (value, evals) in {"s0": (3.0, 2), "ssym": (3.0, 2),
                                 "d0": (1.0, 1), "ppt0": (3.0, 2)}.items():
        rc = main(["gauge", "--input", str(path), "--body", body, "--dims", "2,2"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0, body
        assert payload["value"] == pytest.approx(value, abs=1e-10), body
        assert payload["evals"] == evals, body
        assert payload["bracket_width"] == 0.0, body

        rc = main(["gauge", "--input", str(zero), "--body", body, "--dims", "2,2"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0 and payload["value"] == 0.0 and payload["evals"] == 0, body


def test_cli_geometry_checks(tmp_path, capsys):
    rc = main(["geometry", "--check", "vrad", "--n", "2"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["vrad"] == pytest.approx(1 / math.sqrt(2), rel=1e-10)

    rc = main(["geometry", "--check", "zvol", "--n", "2", "--s", "3"])
    payload = json.loads(capsys.readouterr().out)
    assert math.exp(payload["log_znorm"]) == pytest.approx(math.pi * math.sqrt(2) / 30, rel=1e-10)

    rc = main(["geometry", "--check", "sep-bounds", "--k", "2", "--d", "2"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["beta_d"] == pytest.approx(0.18872, abs=5e-6)

    out = tmp_path / "urysohn.json"
    rc = main(["geometry", "--check", "urysohn", "--n", "3", "--trials", "500",
               "--seed", "1", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True

    rc = main(["geometry", "--check", "rogers-shephard", "--m", "2",
               "--points", "2000", "--seed", "2"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["ratio"] >= payload["threshold"]


def test_cli_geometry_s0_reads_d(capsys):
    # --d reaches the S0 estimate, whose dims rule refuses d = 3
    rc = main(["geometry", "--check", "s0", "--d", "3", "--trials", "5"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: exact separability is only decidable for 2x2 and 2x3 systems, "
        "got (3, 3); use the PPT criterion explicitly\n")


def test_one_sample_has_no_standard_error(capsys):
    # the standard error of one sample is undefined: NaN, and no check
    # passes on it
    assert math.isnan(from_samples([1.5]).stderr)
    for argv, key in ((["--check", "duality"], "relative_stderr"),
                      (["--check", "urysohn", "--n", "3"], "width_stderr")):
        assert main(["geometry", *argv, "--trials", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is False and math.isnan(payload[key])


def test_cli_urysohn_matches_per_trial_reference(tmp_path, monkeypatch):
    # batched lambda_max over chunks of any size against one eigensolve per
    # trial: the same JSON, bit for bit
    n, trials, seed = 3, 7, 5
    tops = [float(np.linalg.eigvalsh(sample_gue0(n, rng))[-1])
            for rng in trial_generators(SeededStream(seed), trials)]
    est, gm, v = from_samples(tops), gamma_m(n * n - 1), vrad_states(n)
    expected = {"check": "urysohn", "seed": seed, "n": n, "trials": trials, "vrad": v,
                "width": est.mean / gm, "width_stderr": est.stderr / gm,
                "passed": bool(v <= est.mean / gm + 3 * est.stderr / gm)}
    out = tmp_path / "urysohn.json"
    for chunk in (1, 2, trials - 1, trials, trials + 1):
        chunk_trials(monkeypatch, n, chunk)
        assert main(["geometry", "--check", "urysohn", "--n", str(n), "--trials", str(trials),
                     "--seed", str(seed), "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == expected, chunk


@pytest.mark.parametrize("raw", [
    {"experiment": "concentration", "d": 3, "s": 4, "body": "s0"},
    {"experiment": "gue-approx", "n": 6, "s": 4, "body": "ppt0"},
])
def test_run_reports_body_dims_rules_as_config_errors(tmp_path, capsys, raw):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**raw, "trials": 3, "master_seed": 1,
                               "output": str(tmp_path / "x")}))
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [cfg]


def test_cli_scan_threshold_and_run(tmp_path):
    out = tmp_path / "scan"
    rc = main(["scan-threshold", "--dims", "2,2", "--criterion", "exact",
               "--s-values", "2,8", "--trials", "25", "--seed", "4", "--out", str(out)])
    assert rc == 0
    text = (tmp_path / "scan.csv").read_text()
    assert text.startswith("s,trials,successes,p_hat")

    cfg = {
        "experiment": "threshold-scan",
        "dims": [2, 2],
        "s_values": [2, 8],
        "criterion": "exact",
        "trials": 25,
        "master_seed": 4,
        "output": str(tmp_path / "run_out"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["run", str(cfg_path)])
    assert rc == 0
    # the CLI flags and the config file describe the same experiment
    assert (tmp_path / "run_out.csv").read_bytes() == (tmp_path / "scan.csv").read_bytes()


def test_cli_estimate_s0(capsys):
    rc = main(["estimate-s0", "--d", "2", "--trials", "300", "--seed", "8"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert 3 < payload["value"] < 15

    rc = main(["estimate-s0", "--d", "3", "--ppt", "--trials", "100", "--seed", "8"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "ppt"
    assert 15 < payload["threshold"]["mean"] < 55  # ~ 4 d^2 = 36


def test_cli_spectral_and_monotonicity(tmp_path):
    rc = main(["spectral", "--ensemble", "gue0", "--n", "16", "--trials", "4",
               "--seed", "0", "--out", str(tmp_path / "sp")])
    assert rc == 0
    lines = (tmp_path / "sp.csv").read_text().strip().splitlines()
    assert lines[0] == "trial,n,s,ensemble,dinf,alpha,beta,lambda_max,lambda_min"
    assert len(lines) == 5

    rc = main(["monotonicity", "--mode", "projection", "--d1", "2", "--d2", "3",
               "--s", "10", "--trials", "50", "--seed", "0", "--out", str(tmp_path / "mono")])
    assert rc == 0
    meta = json.loads((tmp_path / "mono.meta.json").read_text())
    assert meta["extra"]["ordering_holds_2sigma"] is True


def test_cli_error_handling(tmp_path, capsys):
    assert main(["scan-threshold", "--dims", "2,2", "--criterion", "exact",
                 "--s-values", "4", "--trials", "5", "--seed", "0"]) == 2  # no --out
    capsys.readouterr()
    assert main(["sample", "--ensemble", "induced", "--n", "4", "--trials", "1",
                 "--seed", "0", "--out", str(tmp_path / "y.csv")]) == 2  # missing --s
    capsys.readouterr()
    assert main(["gauge", "--input", str(tmp_path / "nope.bin"), "--body", "d0",
                 "--dims", "2,2"]) == 2  # missing input file
    assert "error" in capsys.readouterr().err
    # the PPT body reads C^n as d x d, so n must be square; 36 = 6^2 runs
    argv = ["gue-approx", "--s", "64", "--body", "ppt0", "--trials", "4", "--seed", "0"]
    assert main([*argv, "--n", "32", "--out", str(tmp_path / "r32")]) == 2
    err = capsys.readouterr().err
    assert "n must be a perfect square d^2 for the ppt0 body, got n = 32" in err
    assert main([*argv, "--n", "36", "--out", str(tmp_path / "r36")]) == 0
    capsys.readouterr()
    # the GUE kernel refuses n = 0 before it sizes its buffers
    assert main(["geometry", "--check", "urysohn", "--n", "0", "--trials", "3"]) == 2
    assert capsys.readouterr().err == "error: n must be >= 1\n"


# -- experiment subcommands are the configs whose keys are their flags ----------------

# (subcommand flags, the equivalent config without trials, master_seed and output)
CLI_CONFIG_CASES = {
    "threshold-scan": (
        ["scan-threshold", "--dims", "2,3", "--criterion", "exact", "--s-values", "2:8:3"],
        {"dims": [2, 3], "criterion": "exact", "s_values": {"start": 2, "stop": 8, "step": 3}},
    ),
    "spectral": (
        ["spectral", "--ensemble", "induced", "--n", "6", "--s", "12"],
        {"ensemble": "induced", "n": 6, "s": 12},
    ),
    # no --body: the default at d = 3 is ppt0, for the flags as for the file
    "concentration": (
        ["concentration", "--d", "3", "--s", "20"],
        {"d": 3, "s": 20},
    ),
    "gue-approx": (
        ["gue-approx", "--n", "4", "--s", "16", "--body", "s0"],
        {"n": 4, "s": 16, "body": "s0"},
    ),
    # no --d1/--d2: the defaults 2 and 3 hold for the flags and for the file
    "monotonicity": (
        ["monotonicity", "--mode", "projection", "--s", "6"],
        {"mode": "projection", "s": 6},
    ),
}


def test_cli_config_cases_cover_every_experiment():
    assert set(CLI_CONFIG_CASES) == set(EXPERIMENTS)


@pytest.mark.parametrize("experiment", sorted(CLI_CONFIG_CASES))
def test_cli_subcommand_equals_config_file(tmp_path, experiment):
    flags, keys = CLI_CONFIG_CASES[experiment]
    assert main([*flags, "--trials", "12", "--seed", "5", "--out", str(tmp_path / "cli")]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": experiment, "trials": 12, "master_seed": 5, **keys}))
    assert main(["run", str(cfg), "--out", str(tmp_path / "file")]) == 0

    assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "file.csv").read_bytes()
    cli_meta = json.loads((tmp_path / "cli.meta.json").read_text())
    file_meta = json.loads((tmp_path / "file.meta.json").read_text())
    assert cli_meta["config_digest"] == file_meta["config_digest"]
    assert cli_meta["extra"] == file_meta["extra"]


@pytest.mark.parametrize(
    "argv",
    [
        ["geometry", "--check", "urysohn", "--n", "3", "--trials", "0"],
        ["geometry", "--check", "rogers-shephard", "--m", "2", "--points", "0"],
        ["scan-threshold", "--dims", "2,2", "--criterion", "exact", "--s-values", "1:2:3:4"],
        ["scan-threshold", "--dims", "2,2", "--criterion", "exact", "--s-values", "2,x"],
    ],
)
def test_cli_rejects_bad_counts_and_s_values_at_parse(tmp_path, capsys, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "1", "--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


def test_cli_experiment_flags_follow_config_rules(tmp_path, capsys):
    # 's' applies only to the induced ensemble, as in a config file
    assert main(["spectral", "--ensemble", "gue0", "--n", "4", "--s", "5",
                 "--out", str(tmp_path / "sp")]) == 2
    assert "induced" in capsys.readouterr().err
    assert main(["monotonicity", "--mode", "projection", "--d", "3", "--s", "4",
                 "--out", str(tmp_path / "mono")]) == 2
    assert "partial-trace" in capsys.readouterr().err
    # an empty s_values range, as in a config file
    assert main(["scan-threshold", "--dims", "2,2", "--criterion", "ppt", "--s-values", "9:3",
                 "--out", str(tmp_path / "scan")]) == 2
    assert "empty" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_config_rejects_unhashable_experiment():
    with pytest.raises(ConfigError, match="'experiment' must be one of"):
        ExperimentConfig.from_dict({"experiment": ["spectral"], "trials": 1, "master_seed": 0})


# -- SciPy is a test-only dependency ------------------------------------------------

# One tiny invocation of every subcommand (every geometry check too), run in
# a child process in which `import scipy` raises ImportError; none of them
# loads importlib.metadata either.
NO_SCIPY_RUNS = {
    "sample": [["sample", "--ensemble", "induced", "--n", "4", "--s", "6", "--trials", "2",
                "--format", "bin", "--out", "d.bin"]],
    "gauge": [["gauge", "--input", "d.bin", "--body", "s0", "--dims", "2,2",
               "--out", "gauge.json"]]
             + [["gauge", "--input", "d.bin", "--body", b, "--dims", "2,2"]
                for b in ("ssym", "d0", "ppt0")],
    "geometry": [["geometry", "--check", c, "--trials", "20", "--points", "100"]
                 for c in ("zvol", "vrad", "comparison", "duality", "urysohn",
                           "rogers-shephard", "sep-bounds", "s0", "s0-ppt")],
    "spectral": [["spectral", "--ensemble", "induced", "--n", "8", "--s", "16", "--trials", "3",
                  "--out", "spec"]],
    "scan-threshold": [["scan-threshold", "--dims", "2,2", "--criterion", "exact",
                        "--s-values", "2,4", "--trials", "10", "--out", "scan"]],
    "estimate-s0": [["estimate-s0", "--d", "2", "--trials", "20", "--out", "s0.json"],
                    ["estimate-s0", "--d", "3", "--ppt", "--trials", "20"]],
    "gue-approx": [["gue-approx", "--n", "4", "--s", "8", "--body", "s0", "--trials", "10",
                    "--out", "ratio"]],
    "concentration": [["concentration", "--d", "2", "--s", "4", "--trials", "10",
                       "--out", "conc"]],
    "monotonicity": [["monotonicity", "--mode", "partial-trace", "--s", "2", "--trials", "10",
                      "--out", "mono"]],
    "run": [["run", "cfg.json"]],
}

NO_SCIPY_SCRIPT = """
import json, sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now raises ImportError
from entanglab.cli import main
statuses = [main(argv) for argvs in json.loads(sys.argv[1]).values() for argv in argvs]
print(json.dumps(statuses), file=sys.stderr)
assert "importlib.metadata" not in sys.modules  # no run reads package metadata
sys.exit(max(statuses))
"""


def test_cli_import_leaves_scipy_unloaded():
    # nor importlib.metadata, which would bring email, socket and more
    code = ("import sys, entanglab.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
            "             or m in ('importlib.metadata', 'email')))")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_every_subcommand_runs_without_scipy(tmp_path):
    subparsers = next(a for a in _build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert set(NO_SCIPY_RUNS) == set(subparsers.choices)
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"experiment": "spectral", "ensemble": "gue0", "n": 6, "trials": 3,
         "master_seed": 1, "output": "run"}))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, json.dumps(NO_SCIPY_RUNS)],
                          cwd=tmp_path, env=child_env(), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    # every file went through the one output path: each target is in place
    # (an experiment's as a CSV and its sidecar) and no .partial is left
    experiments = {name for name, p in subparsers.choices.items()
                   if p.get_default("fn") is entanglab.cli._cmd_experiment}
    expected = {"run.csv", "run.meta.json"}
    for name, argvs in NO_SCIPY_RUNS.items():
        for out in (argv[argv.index("--out") + 1] for argv in argvs if "--out" in argv):
            expected |= {out + ".csv", out + ".meta.json"} if name in experiments else {out}
    for name in expected:
        assert (tmp_path / name).stat().st_size > 0, name
    assert list(tmp_path.glob("*.partial")) == []


# -- every subcommand is quiet at its smallest count ---------------------------------

# Each subcommand (every geometry check and experiment too) at one trial, and
# the Rogers-Shephard check at one point: one sample has no spread, and no
# run may say so on stderr.
SMALLEST_RUNS = {
    "sample": [["sample", "--ensemble", "induced", "--n", "4", "--s", "6", "--trials", "1",
                "--format", "bin", "--out", "d.bin"]],
    "gauge": [["gauge", "--input", "d.bin", "--body", b, "--dims", "2,2", "--out", "g.json"]
              for b in ("s0", "ssym", "d0", "ppt0")],
    "geometry": [["geometry", "--check", c, "--trials", "1", "--points", "1", "--out", "geo.json"]
                 for c in ("zvol", "vrad", "comparison", "duality", "urysohn",
                           "rogers-shephard", "sep-bounds", "s0", "s0-ppt")],
    "estimate-s0": [["estimate-s0", "--d", "2", "--trials", "1", "--out", "s0.json"],
                    ["estimate-s0", "--d", "3", "--ppt", "--trials", "1", "--out", "s0.json"]],
    **{name: [[*flags, "--trials", "1", "--out", "exp"]]
       for name, (flags, _) in CLI_CONFIG_CASES.items()},
    "run": [["run", f"{name}.json"] for name in sorted(CLI_CONFIG_CASES)],
}
SMALLEST_RUNS["scan-threshold"] = SMALLEST_RUNS.pop("threshold-scan")


def test_smallest_runs_cover_every_subcommand():
    subparsers = next(a for a in _build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert set(SMALLEST_RUNS) == set(subparsers.choices)


@pytest.mark.parametrize("argv", [argv for argvs in SMALLEST_RUNS.values() for argv in argvs],
                         ids=" ".join)
def test_every_subcommand_is_quiet_at_its_smallest_count(tmp_path, monkeypatch, capfd, argv):
    monkeypatch.chdir(tmp_path)
    assert main(SMALLEST_RUNS["sample"][0]) == 0
    for name, (_, keys) in CLI_CONFIG_CASES.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(
            {"experiment": name, "trials": 1, "master_seed": 1, "output": name, **keys}))
    capfd.readouterr()
    assert main(argv) == 0
    assert capfd.readouterr().err == ""
