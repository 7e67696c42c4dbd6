import argparse
import dataclasses
import errno
import gc
import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import child_env, chunk_trials, traced_peak

import entanglab
import entanglab.cli
import entanglab.ensembles
import entanglab.rng
from entanglab.cli import _build_parser, main
from entanglab.config import ConfigError, ExperimentConfig
from entanglab.ensembles import _ENSEMBLES, EnsembleSpec, draw_ensemble, sample_gue0
from entanglab.experiments import EXPERIMENTS, concentration_experiment, gue_approx_experiment
from entanglab.geometry import gamma_m, vrad_states
from entanglab.io import (
    format_value,
    read_matrix_records,
    sidecar_path,
    write_csv,
    write_matrix_records,
    write_sidecar,
)
from entanglab.linalg import ProductDims, hermitian_eigenvalues, traceless_part
from entanglab.rng import SeededStream, trial_generators
from entanglab.separability import _BODIES, _CRITERIA, _gauge
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


def _unpulled():
    """A record source that fails the test if a record is pulled from it."""
    raise AssertionError("a record was pulled before the path was checked")
    yield


@pytest.mark.parametrize("name", ["", "sub/", "sub", "f/x"])
def test_writers_refuse_a_path_that_names_no_file_before_pulling(tmp_path, monkeypatch, name):
    # "" and "sub/" name no file, "sub" is an existing directory and "f/x"
    # lies under a regular file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "f").write_text("")
    writes = [lambda: write_csv(name, ["a"], _unpulled()),
              lambda: write_matrix_records(name, _unpulled()),
              lambda: write_sidecar(name, {"rows": 0})]
    for write in writes:
        with pytest.raises(ValueError) as info:
            write()
        assert str(info.value) == f"'output' must name a file, got {name!r}"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["f", "sub"]


def test_writers_never_follow_a_symlink_at_partial(tmp_path):
    victim, part = tmp_path / "victim.txt", tmp_path / "e.json.partial"
    victim.write_text("victim\n")
    part.symlink_to(victim)
    with pytest.raises(ValueError, match="is not a regular file"):
        write_csv(tmp_path / "e.json", ["a"], _unpulled())
    part.unlink()

    def planting():  # the symlink appears after the output rule ran
        part.symlink_to(victim)
        yield ("x",)

    with pytest.raises(OSError) as info:
        write_csv(tmp_path / "e.json", ["a"], planting())
    assert info.value.errno == errno.ELOOP
    assert victim.read_text() == "victim\n" and not (tmp_path / "e.json").exists()


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

    ginibre = entanglab.ensembles._ENSEMBLES["ginibre"]
    monkeypatch.setitem(entanglab.ensembles._ENSEMBLES, "ginibre",
                        dataclasses.replace(ginibre, kernel=no_draws))
    rc = main(["sample", "--ensemble", "ginibre", "--n", "3", "--s", "4",
               "--trials", "1", "--seed", "0", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert not (tmp_path / "x.csv").exists()


def test_cli_sample_writes_each_draw_as_it_is_made(tmp_path):
    # holding all 1000 draws of n = 16 before writing peaked at about 4.6 MB
    # (bin) and 6 MB (csv); drawn and written a chunk at a time, the peak does
    # not grow with --trials
    for fmt in ("csv", "bin"):
        argv = ["sample", "--ensemble", "gue", "--n", "16", "--format", fmt,
                "--seed", "0", "--out", str(tmp_path / f"draws.{fmt}")]
        assert main([*argv, "--trials", "2"]) == 0  # first-use allocations
        rc, peak = traced_peak(lambda: main([*argv, "--trials", "1000"]))
        assert rc == 0 and peak < 1 << 20, (fmt, peak)


def _sample_oracle(path, spec: EnsembleSpec, seed: int, trials: int, fmt: str) -> None:
    """What `sample` writes, made a trial at a time through `draw_ensemble`."""
    draws = (draw_ensemble(spec, SeededStream(seed).substream(t)) for t in range(trials))
    mats = [getattr(d, "matrix", d) for d in draws]
    if fmt == "bin":
        write_matrix_records(path, mats)
    else:
        write_csv(path, ["trial", "index", "value"],
                  [(t, i, lam) for t, m in enumerate(mats)
                   for i, lam in enumerate(hermitian_eigenvalues(m))])


@pytest.mark.parametrize("ensemble", sorted(_ENSEMBLES))
def test_cli_sample_writes_the_bytes_of_per_trial_draws(tmp_path, monkeypatch, ensemble):
    # three trials a chunk, so eight trials span three chunks; ginibre draws are
    # n x s and not self-adjoint, so they are written as bin only
    n, s = 3, 5 if _ENSEMBLES[ensemble].reads_s else None
    cols = s if ensemble == "ginibre" else n
    monkeypatch.setattr(entanglab.rng, "_CHUNK_BYTES", 3 * entanglab.rng._trial_bytes(n, cols))
    spec = EnsembleSpec(ensemble, n, s)
    for seed in (1, 2):
        for fmt in ("bin",) if ensemble == "ginibre" else ("csv", "bin"):
            out, ref = tmp_path / f"cli.{fmt}", tmp_path / f"ref.{fmt}"
            flags = ["--s", str(s)] if s is not None else []
            assert main(["sample", "--ensemble", ensemble, "--n", str(n), *flags, "--trials", "8",
                         "--seed", str(seed), "--format", fmt, "--out", str(out)]) == 0
            _sample_oracle(ref, spec, seed, 8, fmt)
            assert out.read_bytes() == ref.read_bytes(), (seed, fmt)


def test_cli_gauge_reads_only_the_first_record(tmp_path, capsys):
    dump = tmp_path / "rho.bin"
    assert main(["sample", "--ensemble", "induced", "--n", "4", "--s", "6", "--trials", "3",
                 "--seed", "1", "--format", "bin", "--out", str(dump)]) == 0
    first = read_matrix_records(dump)[0]
    expected = _gauge("ppt0", traceless_part(first), ProductDims((2, 2)))
    # a damaged later record is never reached
    cut = tmp_path / "cut.bin"
    cut.write_bytes(dump.read_bytes()[:-8])
    with pytest.raises(ValueError, match="truncated matrix record payload"):
        read_matrix_records(cut)
    for path in (dump, cut):
        assert main(["gauge", "--input", str(path), "--body", "ppt0", "--dims", "2,2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == expected.value, path
        assert payload["trace_removed"] == float(np.trace(first).real), path
    # a damaged first record still is
    cut.write_bytes(dump.read_bytes()[:16 + 8])
    assert main(["gauge", "--input", str(cut), "--body", "ppt0", "--dims", "2,2"]) == 2
    assert capsys.readouterr().err == "error: truncated matrix record payload\n"


def test_cli_sample_sizes_a_ginibre_chunk_by_its_n_x_s_draws(tmp_path):
    # a 4 x 4096 draw takes 256 KiB, so a chunk holds one; sized as a 4 x 4
    # matrix, it would hold all 50 draws, 12.8 MB
    argv = ["sample", "--ensemble", "ginibre", "--n", "4", "--s", "4096", "--format", "bin",
            "--seed", "0", "--out", str(tmp_path / "draws.bin")]
    assert main([*argv, "--trials", "2"]) == 0  # first-use allocations
    rc, peak = traced_peak(lambda: main([*argv, "--trials", "50"]))
    assert rc == 0 and peak < 4 << 20, peak


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


def test_cli_gauge_one_factor_dims_follow_the_body_rule(tmp_path, capsys):
    dump = tmp_path / "rho.bin"
    assert main(["sample", "--ensemble", "induced", "--n", "4", "--s", "6",
                 "--format", "bin", "--out", str(dump)]) == 0
    out = tmp_path / "gauge.json"
    for body, rule in (("ppt0", "bipartite dims d1 x d2 required"),
                       ("s0", "exact separability is only decidable for 2x2 and 2x3 systems")):
        assert main(["gauge", "--input", str(dump), "--body", body, "--dims", "4",
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {rule}, got (4,)\n"


def test_cli_gauge_refuses_an_empty_matrix(tmp_path, capsys):
    dump = tmp_path / "empty.bin"
    write_matrix_records(dump, [np.zeros((0, 0))])
    assert main(["gauge", "--input", str(dump), "--body", "d0", "--dims", "2,2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: expected a non-empty square matrix, got shape (0, 0)\n"


def test_cli_gauge_d0_reads_only_the_matrix(tmp_path, capsys):
    dump = tmp_path / "rho.bin"
    assert main(["sample", "--ensemble", "induced", "--n", "4", "--s", "6",
                 "--format", "bin", "--out", str(dump)]) == 0
    capsys.readouterr()
    assert main(["gauge", "--input", str(dump), "--body", "d0", "--dims", "4"]) == 0
    one = json.loads(capsys.readouterr().out)
    assert main(["gauge", "--input", str(dump), "--body", "d0", "--dims", "2,2"]) == 0
    two = json.loads(capsys.readouterr().out)
    assert one["dims"] == [4] and two["dims"] == [2, 2]
    assert one["value"] == two["value"] > 0 and one["evals"] == 1


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
        "error: exact separability is only decidable for 2x2 and 2x3 systems, got (3, 3)\n")


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

    # without --ppt, the S0 body's dims rule refuses d = 3
    assert main(["estimate-s0", "--d", "3", "--trials", "5"]) == 2
    assert capsys.readouterr().err == (
        "error: exact separability is only decidable for 2x2 and 2x3 systems, got (3, 3)\n")


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
    # the Urysohn check's volume radius refuses n < 2 before any direction is drawn
    for n in ("0", "1"):
        assert main(["geometry", "--check", "urysohn", "--n", n, "--trials", "3"]) == 2
        assert capsys.readouterr().err == "error: n must be >= 2\n"


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


SCAN = ["scan-threshold", "--dims", "2,2", "--criterion", "exact", "--s-values", "4"]
NAMES_NO_FILE = "config error: 'output' must name a file, got {!r}"
QUERY_NO_FILE = "error: 'output' must name a file, got {!r}"
GAUGE = ["gauge", "--input", "missing.bin", "--body", "s0", "--dims", "2,2"]
BLOCKED = "'output' {0!r} is blocked: '{0}.partial' is not a regular file"

# (argv, the last line on stderr): a flag only converts its text, and each
# count is refused by the code that reads it: an experiment's by its config
# rule, a query's trials by `rng._chunks` and rogers-shephard's points by its
# own rule; every output path (an experiment's, its CSV's and its sidecar's,
# and a query's --out) by the one output rule, before any draw or read
REFUSAL_CASES = [
    ([*SCAN, "--trials", "0", "--out", "out"], "error: 'trials' must be >= 1, got 0"),
    (["spectral", "--ensemble", "gue0", "--n", "4", "--trials", "-1", "--out", "out"],
     "error: 'trials' must be >= 1, got -1"),
    (["sample", "--ensemble", "gue0", "--n", "4", "--trials", "0", "--out", "out.csv"],
     "error: trials must be >= 1"),
    (["sample", "--ensemble", "ginibre", "--n", "2", "--s", "3", "--format", "bin",
      "--trials", "0", "--out", "out.bin"], "error: trials must be >= 1"),
    (["estimate-s0", "--trials", "0", "--out", "out.json"], "error: trials must be >= 1"),
    (["estimate-s0", "--ppt", "--d", "3", "--trials", "0", "--out", "out.json"],
     "error: trials must be >= 1"),
    *((["geometry", "--check", check, "--n", "3", "--trials", "0", "--out", "out.json"],
       "error: trials must be >= 1") for check in ("duality", "urysohn", "s0", "s0-ppt")),
    (["geometry", "--check", "rogers-shephard", "--m", "2", "--points", "0", "--out", "out.json"],
     "error: points must be >= 1"),
    ([*SCAN, "--trials", "5", "--out", "sub/"], NAMES_NO_FILE.format("sub/")),
    ([*SCAN, "--trials", "5"], NAMES_NO_FILE.format(None)),
    ([*SCAN, "--trials", "5", "--out", ""], NAMES_NO_FILE.format("")),
    (["run", "cfg/empty.json"], NAMES_NO_FILE.format("")),
    (["run", "cfg/dir.json"], NAMES_NO_FILE.format("sub/")),
    (["run", "cfg/empty.json", "--out", "sub/"], NAMES_NO_FILE.format("sub/")),
    (["run", "cfg/dir.json", "--out", ""], NAMES_NO_FILE.format("")),
    ([*SCAN, "--trials", "5", "--out", "x"], NAMES_NO_FILE.format("x.csv")),
    ([*SCAN, "--trials", "5", "--out", "y"], NAMES_NO_FILE.format("y.meta.json")),
    (["sample", "--ensemble", "gue0", "--n", "4", "--out", "sub/"], QUERY_NO_FILE.format("sub/")),
    (["sample", "--ensemble", "gue0", "--n", "4", "--out", "sub"], QUERY_NO_FILE.format("sub")),
    (["sample", "--ensemble", "gue0", "--n", "4"], QUERY_NO_FILE.format(None)),
    (["estimate-s0", "--trials", "5", "--out", "sub/"], QUERY_NO_FILE.format("sub/")),
    (["estimate-s0", "--trials", "5", "--out", ""], QUERY_NO_FILE.format("")),
    (["geometry", "--check", "duality", "--trials", "5", "--out", "sub"],
     QUERY_NO_FILE.format("sub")),
    ([*GAUGE, "--out", "sub/"], QUERY_NO_FILE.format("sub/")),
    # a path under the regular file f
    (["estimate-s0", "--trials", "5", "--out", "f/x"], QUERY_NO_FILE.format("f/x")),
    (["sample", "--ensemble", "gue0", "--n", "2", "--out", "f/x"], QUERY_NO_FILE.format("f/x")),
    ([*SCAN, "--trials", "5", "--out", "f/x"], NAMES_NO_FILE.format("f/x")),
    ([*GAUGE, "--out", "f/x"], QUERY_NO_FILE.format("f/x")),
    (["run", "cfg/file.json"], NAMES_NO_FILE.format("f/x/y")),
    # a .partial that is a symlink (e.json.partial -> victim.txt) or a directory
    (["estimate-s0", "--trials", "5", "--out", "e.json"], "error: " + BLOCKED.format("e.json")),
    (["sample", "--ensemble", "gue0", "--n", "2", "--out", "e.json"],
     "error: " + BLOCKED.format("e.json")),
    ([*GAUGE, "--out", "e.json"], "error: " + BLOCKED.format("e.json")),
    (["estimate-s0", "--trials", "5", "--out", "d.json"], "error: " + BLOCKED.format("d.json")),
    ([*SCAN, "--trials", "5", "--out", "p"], "config error: " + BLOCKED.format("p.csv")),
    ([*SCAN, "--trials", "5", "--out", "q"], "config error: " + BLOCKED.format("q.meta.json")),
    (["run", "cfg/empty.json", "--out", "p"], "config error: " + BLOCKED.format("p.csv")),
    # a size, by the one library rule that reads it
    (["estimate-s0", "--ppt", "--d", "1", "--trials", "5", "--out", "out.json"],
     "error: factor dimensions must be >= 2, got (1, 1)"),
    (["geometry", "--check", "comparison", "--n", "4", "--s", "2", "--out", "out.json"],
     "error: normalization requires s >= n, got s=2, n=4"),
    # an s grid over 10,000 points, counted before it is built or any other
    # scan key is read
    ([*SCAN, "--criterion", "bogus", "--s-values", "1:10001", "--out", "out"],
     "error: 's_values' has 10001 points, over the limit of 10000"),
    ([*SCAN, "--s-values", "1:2:3:4", "--out", "out"],
     "entanglab scan-threshold: error: argument --s-values: range must be start:stop[:step]"),
    ([*SCAN, "--s-values", "2,x", "--out", "out"], "entanglab scan-threshold: error: argument "
     "--s-values: bad s values '2,x'; expected e.g. 2,4,8 or 16:64:4"),
]


@pytest.mark.parametrize("argv, text", REFUSAL_CASES,
                         ids=[" ".join(argv) for argv, _ in REFUSAL_CASES])
def test_cli_rejects_bad_counts_s_values_and_outputs(tmp_path, monkeypatch, capsys,
                                                     generators_built, argv, text):
    monkeypatch.chdir(tmp_path)
    for directory in ("sub", "cfg", "x.csv", "y.meta.json",
                      "d.json.partial", "p.csv.partial", "q.meta.json.partial"):
        (tmp_path / directory).mkdir()
    (tmp_path / "f").write_text("")
    (tmp_path / "victim.txt").write_text("victim\n")
    (tmp_path / "e.json.partial").symlink_to("victim.txt")
    for name, output in (("empty", ""), ("dir", "sub/"), ("file", "f/x/y")):
        (tmp_path / "cfg" / f"{name}.json").write_text(json.dumps(
            {"experiment": "threshold-scan", "dims": [2, 2], "s_values": [4],
             "criterion": "exact", "trials": 5, "master_seed": 1, "output": output}))
    before = sorted(tmp_path.rglob("*"))
    try:
        code = main([*argv, "--seed", "1"] if argv[0] not in ("run", "gauge") else argv)
    except SystemExit as exc:  # a text that does not convert, refused at parse
        code = exc.code
    assert code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines()[-1] == text
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "victim.txt").read_text() == "victim\n"
    assert generators_built == []


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


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    """The CLI's subcommand parsers by name."""
    return next(a for a in _build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_each_experiment_subcommand_has_exactly_its_config_keys_as_flags():
    subcommands, common = _subcommands(), {"help", "trials", "seed", "out"}
    for name, experiment in EXPERIMENTS.items():
        p = subcommands[experiment.command]
        assert p.get_default("fn") is entanglab.cli._cmd_experiment
        assert p.get_default("experiment") == name
        assert p.get_default("trials") == experiment.trials
        assert {a.dest for a in p._actions} - common == experiment.keys, name


# (subcommand flags, the equal config keys, the config rule's text)
BAD_VALUE_CASES = [
    (["spectral", "--ensemble", "gue", "--n", "4"], {"ensemble": "gue", "n": 4},
     "'ensemble' must be 'gue0' or 'induced'"),
    (["spectral", "--ensemble", "gue0"], {"ensemble": "gue0"}, "missing required key 'n'"),
    (["spectral", "--ensemble", "gue0", "--n", "1"], {"ensemble": "gue0", "n": 1},
     "'n' must be >= 2, got 1"),
    (["spectral", "--ensemble", "induced", "--n", "1", "--s", "5"],
     {"ensemble": "induced", "n": 1, "s": 5}, "'n' must be >= 2, got 1"),
    (["scan-threshold", "--dims", "2,2", "--criterion", "sep", "--s-values", "2,4"],
     {"dims": [2, 2], "criterion": "sep", "s_values": [2, 4]},
     "'criterion' must be 'exact' or 'ppt'"),
    (["scan-threshold", "--dims", "2,2,2", "--criterion", "ppt", "--s-values", "2,4"],
     {"dims": [2, 2, 2], "criterion": "ppt", "s_values": [2, 4]},
     "bipartite dims d1 x d2 required, got (2, 2, 2)"),
    (["scan-threshold", "--dims", "2", "--criterion", "ppt", "--s-values", "2,4"],
     {"dims": [2], "criterion": "ppt", "s_values": [2, 4]},
     "bipartite dims d1 x d2 required, got (2,)"),
    (["gue-approx", "--n", "4", "--s", "8"], {"n": 4, "s": 8},
     "'body' must be 'd0' or 'hs' or 'ppt0' or 's0' or 'ssym'"),
    (["concentration", "--d", "2", "--s", "4", "--body", "sep"], {"d": 2, "s": 4, "body": "sep"},
     "'body' must be 'd0' or 'hs' or 'ppt0' or 's0' or 'ssym'"),
    (["concentration", "--d", "3", "--s", "4", "--body", "s0"], {"d": 3, "s": 4, "body": "s0"},
     "exact separability is only decidable for 2x2 and 2x3 systems, got (3, 3)"),
    (["monotonicity", "--mode", "trace", "--s", "4"], {"mode": "trace", "s": 4},
     "'mode' must be 'projection' or 'partial-trace'"),
]


@pytest.mark.parametrize("flags, keys, rule", BAD_VALUE_CASES,
                         ids=[" ".join(flags) for flags, _, _ in BAD_VALUE_CASES])
def test_cli_and_config_refuse_a_bad_value_with_the_same_rule(tmp_path, capsys, flags, keys,
                                                              rule):
    experiment = next(k for k, e in EXPERIMENTS.items() if e.command == flags[0])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": experiment, "trials": 2, "master_seed": 1, **keys}))
    assert main([*flags, "--trials", "2", "--seed", "1", "--out", str(tmp_path / "cli")]) == 2
    assert capsys.readouterr().err == f"error: {rule}\n"
    assert main(["run", str(cfg), "--out", str(tmp_path / "file")]) == 2
    assert capsys.readouterr().err == f"config error: {cfg}: {rule}\n"
    assert list(tmp_path.iterdir()) == [cfg]


# -- a name is checked once, by the table that defines it -----------------------------


def _table_text(key: str, table: dict) -> str:
    return f"'{key}' must be {' or '.join(map(repr, sorted(table)))}"


def _admitted_bodies(dims: ProductDims) -> list[str]:
    """The _BODIES names whose dims rule accepts `dims`."""
    names = []
    for name, body in _BODIES.items():
        try:
            body.dims_rule(dims)
        except ValueError:
            continue
        names.append(name)
    return names


@pytest.mark.parametrize("body", _admitted_bodies(ProductDims((2, 2))))
def test_every_admitted_body_runs_in_gauge_concentration_and_gue_approx(tmp_path, capsys, body):
    dump = tmp_path / "rho.bin"
    assert main(["sample", "--ensemble", "induced", "--n", "4", "--s", "6",
                 "--format", "bin", "--out", str(dump)]) == 0
    assert main(["gauge", "--input", str(dump), "--body", body, "--dims", "2,2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    res = _gauge(body, traceless_part(read_matrix_records(dump)[0]), ProductDims((2, 2)))
    assert (payload["value"], payload["evals"]) == (res.value, res.membership_evals)

    summary = concentration_experiment(2, 4, 5, SeededStream(3), body=body)
    ratio = gue_approx_experiment(4, 8, body, 5, SeededStream(3))
    for flags, rows in (
        (["concentration", "--d", "2", "--s", "4"],
         [dataclasses.astuple(p) for p in (summary.at_s, summary.at_4s)]),
        (["gue-approx", "--n", "4", "--s", "8"], [dataclasses.astuple(ratio)]),
    ):
        experiment = next(e for e in EXPERIMENTS.values() if e.command == flags[0])
        assert main([*flags, "--body", body, "--trials", "5", "--seed", "3",
                     "--out", str(tmp_path / "cli")]) == 0
        write_csv(tmp_path / "lib.csv", experiment.header(None), rows)
        assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes(), flags


# (experiment, its keys but the name, the name's key, its table)
NAMED_CONFIGS = [
    ("threshold-scan", {"dims": [2, 2], "s_values": [2, 4]}, "criterion", _CRITERIA),
    ("concentration", {"d": 2, "s": 4}, "body", _BODIES),
    ("gue-approx", {"n": 4, "s": 8}, "body", _BODIES),
    # not a square: the perfect-square rule reads the table only for the table's names
    ("gue-approx", {"n": 5, "s": 8}, "body", _BODIES),
]


@pytest.mark.parametrize("name", ["sep", ["s0"], {"a": 1}, None], ids=json.dumps)
@pytest.mark.parametrize("experiment, keys, key, table", NAMED_CONFIGS,
                         ids=[f"{e}-{json.dumps(k)}" for e, k, _, _ in NAMED_CONFIGS])
def test_run_refuses_a_name_outside_the_table_with_the_table_text(tmp_path, capsys, experiment,
                                                                   keys, key, table, name):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": experiment, "trials": 2, "master_seed": 1,
                               **keys, key: name}))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {cfg}: {_table_text(key, table)}\n"
    assert list(tmp_path.iterdir()) == [cfg]


def test_gauge_and_sample_refuse_an_unknown_name_with_the_library_text(tmp_path, capsys):
    dump = tmp_path / "rho.bin"
    write_matrix_records(dump, [np.eye(4)])
    assert main(["gauge", "--input", str(dump), "--body", "sep", "--dims", "2,2",
                 "--out", str(tmp_path / "gauge.json")]) == 2
    assert capsys.readouterr().err == f"error: {_table_text('body', _BODIES)}\n"
    assert main(["sample", "--ensemble", "sep", "--n", "4",
                 "--out", str(tmp_path / "draws.csv")]) == 2
    assert capsys.readouterr().err == f"error: {_table_text('ensemble', _ENSEMBLES)}\n"
    assert list(tmp_path.iterdir()) == [dump]


def test_name_flags_carry_no_choices_of_their_own():
    # the library's tables refuse a name; argparse restates none of them
    named = [(command, a) for command, p in _subcommands().items() for a in p._actions
             if a.dest in ("body", "criterion", "ensemble")]
    assert {(command, a.dest) for command, a in named} >= {("gauge", "body"),
                                                          ("sample", "ensemble")}
    assert [(command, a.dest) for command, a in named if a.choices is not None] == []


# (flags after the scan's dims and criterion, the last line argparse prints)
PARSE_ERROR_CASES = [
    (["--s-values", "4:x"], "argument --s-values: bad s values '4:x'; expected e.g. 2,4,8 or 16:64:4"),
    (["--s-values", "x"], "argument --s-values: bad s values 'x'; expected e.g. 2,4,8 or 16:64:4"),
    (["--s-values", "4,,8"],
     "argument --s-values: bad s values '4,,8'; expected e.g. 2,4,8 or 16:64:4"),
    (["--s-values", "1:2:3:4"], "argument --s-values: range must be start:stop[:step]"),
    (["--s-values", "4", "--trials", "x"], "argument --trials: invalid int value: 'x'"),
]


@pytest.mark.parametrize("flags, text", PARSE_ERROR_CASES,
                         ids=[" ".join(flags) for flags, _ in PARSE_ERROR_CASES])
def test_cli_parse_errors_say_what_is_wrong_in_plain_text(tmp_path, capsys, flags, text):
    with pytest.raises(SystemExit) as exc:
        main(["scan-threshold", "--dims", "2,2", "--criterion", "ppt", *flags,
              "--out", str(tmp_path / "scan")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"entanglab scan-threshold: error: {text}"
    with pytest.raises(SystemExit) as exc:
        main(["geometry", "--check", "rogers-shephard", "--points", "x",
              "--out", str(tmp_path / "geometry.json")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "entanglab geometry: error: argument --points: invalid int value: 'x'")
    assert list(tmp_path.iterdir()) == []


def _readme_block(heading: str, fence: str) -> str:
    """The first code block opened by `fence` after README's `heading`."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split(heading, 1)[1].split(fence, 1)[1].split("```", 1)[0]


def _readme_commands() -> list[list[str]]:
    """The argv of each `entanglab` line of README's command-line block."""
    block = _readme_block("## Command line", "```\n")
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("entanglab ")]


def test_readme_commands_parse_and_experiments_run(tmp_path, monkeypatch, capsys):
    # the block runs as written, line by line, in an empty directory: `gauge`
    # reads the dump a `sample` line writes, `run` README's example config
    monkeypatch.chdir(tmp_path)
    config = _readme_block("### Config files", "```json\n")
    (tmp_path / "config.json").write_text(config)
    argvs = _readme_commands()
    commands = {e.command for e in EXPERIMENTS.values()} | {"run"}
    assert len(argvs) == 12 and {argv[0] for argv in argvs} >= commands
    for argv in argvs:
        assert main(argv) == 0, argv
        out = argv[argv.index("--out") + 1] if "--out" in argv else None
        if argv[0] in commands:  # a CSV at the output path, ".csv" added unless there
            out = json.loads(config)["output"] if argv[0] == "run" else out
            csv_path = tmp_path / (out if out.endswith(".csv") else out + ".csv")
            assert csv_path.stat().st_size > 0 and sidecar_path(csv_path).is_file(), argv
        elif out is None:  # a query without --out prints its JSON
            assert json.loads(capsys.readouterr().out), argv
        else:
            assert (tmp_path / out).stat().st_size > 0, argv


def test_cli_sample_refuses_s_for_ensembles_that_do_not_read_it(tmp_path, capsys):
    for ensemble in ("gue", "gue0", "uniform"):
        argv = ["sample", "--ensemble", ensemble, "--n", "3", "--s", "99", "--out",
                str(tmp_path / "x.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: 's' applies only to the ginibre and induced ensembles\n")
    assert list(tmp_path.iterdir()) == []


def test_config_rejects_unhashable_experiment():
    with pytest.raises(ConfigError, match="'experiment' must be one of"):
        ExperimentConfig.from_dict({"experiment": ["spectral"], "trials": 1, "master_seed": 0})


# -- SciPy is a test-only dependency ------------------------------------------------

# One tiny invocation of every subcommand (every geometry check too), run in
# a child process in which `import scipy` raises ImportError; none of them
# loads importlib.metadata either.
# the geometry parser's --check choices, so that no run list can miss a check
GEOMETRY_CHECKS = next(a.choices for a in _subcommands()["geometry"]._actions if a.dest == "check")
NO_SCIPY_RUNS = {
    "sample": [["sample", "--ensemble", "induced", "--n", "4", "--s", "6", "--trials", "2",
                "--format", "bin", "--out", "d.bin"]],
    "gauge": [["gauge", "--input", "d.bin", "--body", "s0", "--dims", "2,2",
               "--out", "gauge.json"]]
             + [["gauge", "--input", "d.bin", "--body", b, "--dims", "2,2"]
                for b in ("ssym", "d0", "ppt0")],
    "geometry": [["geometry", "--check", c, "--trials", "20", "--points", "100"]
                 for c in GEOMETRY_CHECKS],
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
    # nor importlib.metadata, which would bring email, socket and more, nor
    # the exact-arithmetic modules: the estimates' exact sums are Python ints
    code = ("import sys, entanglab.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
            "             or m in ('importlib.metadata', 'email', 'fractions', 'decimal',\n"
            "                      'statistics')))")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_every_subcommand_runs_without_scipy(tmp_path):
    subcommands = _subcommands()
    assert set(NO_SCIPY_RUNS) == set(subcommands)
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"experiment": "spectral", "ensemble": "gue0", "n": 6, "trials": 3,
         "master_seed": 1, "output": "run"}))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, json.dumps(NO_SCIPY_RUNS)],
                          cwd=tmp_path, env=child_env(), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    # every file went through the one output path: each target is in place
    # (an experiment's as a CSV and its sidecar) and no .partial is left
    experiments = {name for name, p in subcommands.items()
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
                 for c in GEOMETRY_CHECKS],
    "estimate-s0": [["estimate-s0", "--d", "2", "--trials", "1", "--out", "s0.json"],
                    ["estimate-s0", "--d", "3", "--ppt", "--trials", "1", "--out", "s0.json"]],
    **{EXPERIMENTS[name].command: [[*flags, "--trials", "1", "--out", "exp"]]
       for name, (flags, _) in CLI_CONFIG_CASES.items()},
    "run": [["run", f"{name}.json"] for name in sorted(CLI_CONFIG_CASES)],
}


def test_smallest_runs_cover_every_subcommand():
    assert set(SMALLEST_RUNS) == set(_subcommands())


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


# -- CLI processes freeze their heap at exit -----------------------------------------

# Registered before `import entanglab.cli`, so it runs after that module's
# exit handler (atexit runs the last registered first).
FREEZE_PROBE = """
import atexit, gc, sys
atexit.register(lambda: print(gc.get_freeze_count(), flush=True))
{body}
"""


def _exit_freeze_count(body: str, cwd) -> int:
    proc = subprocess.run([sys.executable, "-c", FREEZE_PROBE.format(body=body)], cwd=cwd,
                          env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


def test_cli_process_freezes_its_heap_at_exit(tmp_path):
    body = ("from entanglab.cli import main\n"
            "sys.exit(main(['estimate-s0', '--d', '2', '--trials', '20', '--out', 's0.json']))")
    assert _exit_freeze_count(body, tmp_path) > 0
    assert json.loads((tmp_path / "s0.json").read_text())["trials"] == 20


def test_library_import_leaves_the_heap_unfrozen_at_exit(tmp_path):
    assert _exit_freeze_count("import entanglab", tmp_path) == 0


def test_in_process_main_calls_freeze_nothing(capsys):
    for _ in range(2):
        assert main(["estimate-s0", "--d", "2", "--trials", "20", "--seed", "1"]) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == 0
    assert gc.isenabled()


# What the console script runs.
CONSOLE_SCRIPT = "import sys; from entanglab.cli import main; sys.exit(main())"


def _console(argv, cwd) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, "-c", CONSOLE_SCRIPT, *argv], cwd=cwd,
                          env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_printed_output_survives_the_exit(tmp_path, capsys):
    argv = ["estimate-s0", "--d", "2", "--trials", "50", "--seed", "3"]
    proc = _console(argv, tmp_path)
    assert main(argv) == 0
    assert json.loads(proc.stdout) == json.loads(capsys.readouterr().out)
    assert list(tmp_path.iterdir()) == []


def test_written_files_survive_the_exit(tmp_path):
    argv = ["scan-threshold", "--dims", "2,2", "--criterion", "ppt", "--s-values", "2,8",
            "--trials", "30", "--seed", "3", "--out"]
    (tmp_path / "child").mkdir()
    _console([*argv, "x"], tmp_path / "child")
    assert main([*argv, str(tmp_path / "x")]) == 0
    assert sorted(p.name for p in (tmp_path / "child").iterdir()) == ["x.csv", "x.meta.json"]
    assert (tmp_path / "child/x.csv").read_bytes() == (tmp_path / "x.csv").read_bytes()
    child, here = (json.loads((tmp_path / d / "x.meta.json").read_text())
                   for d in ("child", "."))
    for meta in (child, here):
        del meta["wall_time_s"]
    assert child == here
