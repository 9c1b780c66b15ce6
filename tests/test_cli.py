"""CLI contract: commands, exit codes, file outputs, determinism."""

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import wood
import wood.cli
import wood.data
from wood._blas import blas_info
from wood.cli import _median_call_ms, _score_blocks, main
from wood.data import Dataset, Role, load_dataset_csv, save_dataset_csv
from wood.detect import evaluate, report_text
from wood.errors import NumericError
from wood.geometry import EvalPath, ScoreConfig, scores
from wood.model import forward, init
from wood.trainer import (
    DEFAULT_HIDDEN,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
)
from wood.transport import CostKind, SinkhornConfig

from conftest import csv_texts, edit_json, make_checkpoint


def run_cli(*argv):
    return main(list(argv))


def gen_blobs(out_dir, n=40, seed=7):
    code = run_cli(
        "gen-data", "--kind", "blobs", "--k", "3", "--n", str(n), "--dim", "2",
        "--sep", "4.0", "--noise", "0.5", "--seed", str(seed), "--out", str(out_dir),
    )
    assert code == 0
    return out_dir / "ind.csv"


def data_error_line(capsys, *argv):
    """Run the CLI on ``argv``, check that it exits 2 with one ``data error:``
    line on stderr, and return that line."""
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: "), err
    return err[0]


def write_checkpoint(path, model=None):
    """Save ``model`` (a fresh 2-3-3 network by default) as a checkpoint."""
    model = init((2, 3, 3), seed=0) if model is None else model
    save_checkpoint(make_checkpoint(model), path)


def dataset_flags(command, ind_csv, ood_csv):
    """The dataset flags of ``score`` (the OOD file) or of ``evaluate``."""
    if command == "score":
        return ["--features", str(ood_csv)]
    return ["--ind", str(ind_csv), "--ood", str(ood_csv)]


def gen_ring(out_dir, n=60, seed=8):
    code = run_cli(
        "gen-data", "--kind", "ring", "--n", str(n), "--sep", "0.5",
        "--noise", "0.5", "--seed", str(seed), "--out", str(out_dir),
    )
    assert code == 0
    return out_dir / "ood.csv"


class TestGenData:
    def test_writes_expected_rows(self, tmp_path):
        path = gen_blobs(tmp_path / "d", n=200)
        lines = path.read_text().splitlines()
        assert len(lines) == 601  # header + 3 classes x 200

    def test_missing_out_is_usage_error(self, capsys):
        assert run_cli("gen-data", "--kind", "blobs") == 1
        assert "usage error" in capsys.readouterr().err

    def test_identical_flags_identical_bytes(self, tmp_path):
        a = gen_blobs(tmp_path / "a")
        b = gen_blobs(tmp_path / "b")
        assert a.read_bytes() == b.read_bytes()


class TestTrainEvaluateScore:
    @pytest.fixture
    def artifacts(self, tmp_path):
        ind_csv = gen_blobs(tmp_path / "data", n=40)
        ood_csv = gen_ring(tmp_path / "data2", n=60)
        run_dir = tmp_path / "run"
        code = run_cli(
            "train", "--ind", str(ind_csv), "--ood", str(ood_csv),
            "--epochs", "3", "--b-ind", "20", "--b-ood", "5",
            "--hidden", "8", "--seed", "1", "--out", str(run_dir),
        )
        assert code == 0
        return ind_csv, ood_csv, run_dir

    def test_train_outputs(self, artifacts):
        _, _, run_dir = artifacts
        outputs = ["checkpoint.json", "checkpoint.json.params", "metrics.csv", "run_config.txt"]
        assert sorted(path.name for path in run_dir.iterdir()) == outputs
        metrics = (run_dir / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "epoch,ce_term,ood_term,total,alpha_M,m,wall_ms"
        assert len(metrics) == 4
        assert (run_dir / "run_config.txt").exists()

    def test_evaluate_outputs(self, artifacts, tmp_path):
        ind_csv, ood_csv, run_dir = artifacts
        out = tmp_path / "eval"
        code = run_cli(
            "evaluate", "--checkpoint", str(run_dir / "checkpoint.json"),
            "--ind", str(ind_csv), "--ood", str(ood_csv), "--out", str(out),
        )
        assert code == 0
        report = (out / "report.txt").read_text()
        assert "auroc:" in report
        assert "fnr_at_tnr:" in report
        hist = (out / "hist_ind.csv").read_text().splitlines()
        assert hist[0] == "bin_center,count"
        assert len(hist) == 51
        assert (out / "hist_ood.csv").exists()

    def test_evaluate_rejects_bad_tnr(self, artifacts, tmp_path, capsys):
        ind_csv, ood_csv, run_dir = artifacts
        code = run_cli(
            "evaluate", "--checkpoint", str(run_dir / "checkpoint.json"),
            "--ind", str(ind_csv), "--ood", str(ood_csv),
            "--tnr", "1.5", "--out", str(tmp_path / "x"),
        )
        assert code == 1

    def test_evaluate_rejects_dim_mismatch(self, artifacts, tmp_path):
        ind_csv, _, run_dir = artifacts
        wide = gen_blobs(tmp_path / "wide")
        bad = tmp_path / "bad.csv"
        rows = wide.read_text().splitlines()
        bad.write_text(
            "\n".join(["f0,f1,f2"] + [r + ",0.0" for r in rows[1:]]) + "\n"
        )
        code = run_cli(
            "evaluate", "--checkpoint", str(run_dir / "checkpoint.json"),
            "--ind", str(ind_csv), "--ood", str(bad), "--out", str(tmp_path / "y"),
        )
        assert code == 2

    def test_score_outputs(self, artifacts, tmp_path):
        ind_csv, _, run_dir = artifacts
        out = tmp_path / "scores"
        code = run_cli(
            "score", "--checkpoint", str(run_dir / "checkpoint.json"),
            "--features", str(ind_csv), "--epsilon", "0.25", "--out", str(out),
        )
        assert code == 0
        lines = (out / "scores.csv").read_text().splitlines()
        assert lines[0] == "index,argmin_class,score,decision"
        assert len(lines) == 121  # header + 3 classes x 40
        cells = lines[1].split(",")
        assert cells[3] in ("0", "1")

    def test_score_deterministic(self, artifacts, tmp_path):
        ind_csv, _, run_dir = artifacts
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            run_cli(
                "score", "--checkpoint", str(run_dir / "checkpoint.json"),
                "--features", str(ind_csv), "--out", str(out),
            )
            outs.append((out / "scores.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_score_rejects_non_csv_features(self, artifacts, tmp_path, capsys):
        ind_csv, _, run_dir = artifacts
        features = tmp_path / "ind.txt"
        features.write_text(ind_csv.read_text())
        code = run_cli(
            "score", "--checkpoint", str(run_dir / "checkpoint.json"),
            "--features", str(features), "--out", str(tmp_path / "scores"),
        )
        assert code == 2
        assert capsys.readouterr().err == f"data error: expected a .csv dataset, got {features}\n"

    def test_missing_checkpoint_is_data_error(self, tmp_path, artifacts):
        ind_csv, ood_csv, _ = artifacts
        code = run_cli(
            "evaluate", "--checkpoint", str(tmp_path / "nope.json"),
            "--ind", str(ind_csv), "--ood", str(ood_csv), "--out", str(tmp_path / "z"),
        )
        assert code == 2


class TestConfigFile:
    def test_flags_override_config_file(self, tmp_path):
        ind_csv = gen_blobs(tmp_path / "d", n=20)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=9\nlr=0.5\n# comment\n")
        out = tmp_path / "run"
        code = run_cli(
            "train", "--ind", str(ind_csv), "--b-ood", "0", "--b-ind", "20",
            "--hidden", "4", "--epochs", "2", "--config", str(cfg), "--out", str(out),
        )
        assert code == 0
        # flag epochs=2 wins; config lr=0.5 applies
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert len(metrics) == 3
        run_config = (out / "run_config.txt").read_text()
        assert "epochs=2" in run_config
        assert "lr=0.5" in run_config
        assert (out / "config.txt").read_text() == cfg.read_text()

    def test_unknown_config_key_rejected(self, tmp_path):
        ind_csv = gen_blobs(tmp_path / "d", n=20)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("warp_speed=9\n")
        code = run_cli(
            "train", "--ind", str(ind_csv), "--b-ood", "0",
            "--config", str(cfg), "--out", str(tmp_path / "r"),
        )
        assert code == 2

    @pytest.mark.parametrize("line", ["lam=inf", "lr=0", "matrix=foo", "tnr=0.5"])
    def test_bad_config_line_is_a_data_error(self, line, tmp_path, capsys):
        ind_csv = gen_blobs(tmp_path / "d", n=20)
        capsys.readouterr()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"epochs=1\n{line}\n")
        out = tmp_path / "r"
        err = data_error_line(
            capsys, "train", "--ind", str(ind_csv), "--b-ood", "0", "--config", str(cfg),
            "--out", str(out),
        )
        assert line.partition("=")[0] in err
        # Settings are validated before anything is written.
        assert not out.exists()

    @pytest.mark.parametrize("key, flag", [("lr", "--lr"), ("lam", "--lambda")])
    def test_text_that_is_no_number_names_no_function(self, key, flag, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}=abc\n")
        out = tmp_path / "r"
        err = data_error_line(
            capsys, "train", "--ind", "ind.csv", "--config", str(cfg), "--out", str(out)
        )
        assert err == f"data error: config key {key}: argument {flag}: expected a number, got 'abc'"
        assert not out.exists()

    def test_defaults_are_the_library_defaults(self, tmp_path):
        ind_csv = gen_blobs(tmp_path / "d", n=5)
        ood_csv = gen_ring(tmp_path / "d2", n=10)
        out = tmp_path / "run"
        code = run_cli("train", "--ind", str(ind_csv), "--ood", str(ood_csv), "--out", str(out))
        assert code == 0
        saved = json.loads((out / "checkpoint.json").read_text())
        model = init((2, *DEFAULT_HIDDEN, 3), seed=0)
        library = make_checkpoint(model, cfg=TrainConfig(epochs=50))
        assert saved["train_config"] == library.train_config
        assert saved["layer_dims"] == list(model.layer_dims)


class TestBenchScore:
    def test_refuses_closed_path(self, tmp_path, capsys):
        code = run_cli(
            "bench-score", "--k", "4", "--eval-path", "closed", "--out", str(tmp_path)
        )
        assert code == 1
        assert "closed" in capsys.readouterr().err

    def test_writes_bench_csv(self, tmp_path):
        code = run_cli(
            "bench-score", "--k", "4,8", "--repeats", "2", "--out", str(tmp_path)
        )
        assert code == 0
        lines = (tmp_path / "bench.csv").read_text().splitlines()
        assert lines[0] == "K,binary_ms,dynamic_ms,ratio"
        assert len(lines) == 3

    @pytest.mark.parametrize(
        "error, line",
        [
            (MemoryError(), "data error: out of memory"),
            (
                MemoryError("Unable to allocate 74.5 GiB for an array"),
                "data error: out of memory: Unable to allocate 74.5 GiB for an array",
            ),
        ],
    )
    def test_out_of_memory_is_one_data_error(self, error, line, tmp_path, capsys):
        # A stand-in for a K x K cost matrix larger than memory; no test
        # allocates one, as a machine that overcommits would page instead.
        out = tmp_path / "out"
        with mock.patch.object(wood.cli, "scores", side_effect=error):
            code = run_cli("bench-score", "--k", "4", "--repeats", "1", "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [line]
        assert not out.exists()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_timed_calls_run_without_gc(self, enabled):
        prior = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            seen = []
            _median_call_ms([lambda: seen.append(gc.isenabled())], 2)
            assert seen == [False, False]
            assert gc.isenabled() is enabled
            with pytest.raises(ZeroDivisionError):
                _median_call_ms([lambda: 1 / 0], 1)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if prior else gc.disable)()


class TestUndecodableBytes:
    """A byte the reader cannot decode is one data-error line naming the
    path and the byte's offset, exit 2."""

    def test_dataset_csv(self, tmp_path, capsys):
        ind_csv = tmp_path / "ind.csv"
        ind_csv.write_bytes(b"f0,f1,label\n1.0,2.0,0\n3.0,\xe94.0,1\n")
        err = data_error_line(
            capsys, "train", "--ind", str(ind_csv), "--out", str(tmp_path / "o"),
            "--epochs", "1", "--b-ood", "0", "--b-ind", "2",
        )
        assert err == f"data error: {ind_csv}: byte 0xe9 at offset 26 is not ascii"

    def test_checkpoint(self, tmp_path, capsys):
        ind_csv = gen_blobs(tmp_path / "data", n=10)
        path = tmp_path / "checkpoint.json"
        write_checkpoint(path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-2] + b"\xe9" + raw[-2:])
        err = data_error_line(
            capsys, "score", "--checkpoint", str(path), "--features", str(ind_csv),
            "--out", str(tmp_path / "o"),
        )
        assert err == f"data error: {path}: byte 0xe9 at offset {len(raw) - 2} is not ascii"

    def test_config_file(self, tmp_path, capsys):
        ind_csv = gen_blobs(tmp_path / "data", n=10)
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"epochs=1\n# caf\xc3\xa9 \xff\n")
        err = data_error_line(
            capsys, "train", "--ind", str(ind_csv), "--config", str(cfg),
            "--out", str(tmp_path / "o"),
        )
        assert err == f"data error: {cfg}: byte 0xff at offset 17 is not utf-8"


class TestTwoProcessScore:
    """``score`` over the two-process threshold: the checkpoint loads first,
    then a forked child parses the second byte range of ``--features`` (of
    ``--ind`` for ``evaluate``), and the errors are those of one process, in
    its order."""

    ROWS = 60_000  # of 8 bytes: 480 kB

    @pytest.fixture
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        forks = []
        real_fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(None) or real_fork())
        yield forks
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def features(self, path, bad=b"0.5,1.0", row=-10):
        """A file over the threshold whose row ``row`` (by default in the
        child's range) holds ``bad``, and the offset of ``bad`` in it."""
        rows = [b"0.5,1.0"] * self.ROWS
        rows[row] = bad
        raw = b"f0,f1\n" + b"\n".join(rows) + b"\n"
        path.write_bytes(raw)
        assert len(raw) >= wood.data._SPLIT_BYTES
        return raw.rindex(bad)

    def test_scores_equal_the_one_process_run(self, tmp_path, two_cpus):
        checkpoint, features = tmp_path / "checkpoint.json", tmp_path / "f.csv"
        write_checkpoint(checkpoint)
        self.features(features, bad=b"-2.25,3e-5")
        argv = ["score", "--checkpoint", str(checkpoint), "--features", str(features)]
        assert run_cli(*argv, "--out", str(tmp_path / "two")) == 0
        # Two forks: the parse of the second byte range and the render of the
        # second half of scores.csv.
        assert len(two_cpus) == 2
        with mock.patch.object(os, "sched_getaffinity", lambda pid: {0}, create=True):
            assert run_cli(*argv, "--out", str(tmp_path / "one")) == 0
        assert len(two_cpus) == 2
        two = (tmp_path / "two" / "scores.csv").read_bytes()
        assert two == (tmp_path / "one" / "scores.csv").read_bytes()
        assert two.count(b"\n") == self.ROWS + 1

    def test_undecodable_byte_in_the_child_range_names_its_offset(
        self, tmp_path, two_cpus, capsys
    ):
        checkpoint, features = tmp_path / "checkpoint.json", tmp_path / "f.csv"
        write_checkpoint(checkpoint)
        offset = self.features(features, bad=b"0.5,\xe9")
        err = data_error_line(
            capsys, "score", "--checkpoint", str(checkpoint), "--features", str(features),
            "--out", str(tmp_path / "o"),
        )
        assert err == f"data error: {features}: byte 0xe9 at offset {offset + 4} is not ascii"
        assert offset > features.stat().st_size // 2
        assert len(two_cpus) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "features",
        [
            "bad row here",
            "bad row in the child",
            "not a .csv",
            "empty",
            "missing",
            "evaluate: bad row in the child of --ind",
        ],
    )
    def test_bad_checkpoint_is_reported_before_the_bad_file(
        self, tmp_path, two_cpus, capsys, features
    ):
        checkpoint = tmp_path / "checkpoint.json"
        write_checkpoint(checkpoint)
        edit_json(checkpoint, rng_digest=5)
        path = tmp_path / ("f.txt" if features == "not a .csv" else "f.csv")
        if features == "empty":
            path.write_bytes(b"")
        elif features != "missing":
            self.features(path, bad=b"0.5,x", row=-10 if "child" in features else 10)
        if features.startswith("evaluate"):
            inputs = ["evaluate", "--ind", str(path), "--ood", str(path)]
        else:
            inputs = ["score", "--features", str(path)]
        err = data_error_line(
            capsys, *inputs, "--checkpoint", str(checkpoint), "--out", str(tmp_path / "o")
        )
        assert err.startswith(f"data error: {checkpoint}: "), err
        assert not two_cpus  # the checkpoint fails before the file loads
        assert not (tmp_path / "o").exists()


class TestNothingWrittenOnFailure:
    """Every command loads and checks its inputs before it creates --out."""

    @pytest.fixture
    def inputs(self, tmp_path):
        ind_csv = gen_blobs(tmp_path / "data", n=10)
        checkpoint = tmp_path / "checkpoint.json"
        write_checkpoint(checkpoint)
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{")
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("f0,f1\n1.0\n")
        one_class = tmp_path / "one_class.csv"
        one_class.write_text("f0,f1,label\n0.5,1.0,0\n-0.5,2.0,0\n")
        wide = tmp_path / "wide.csv"
        wide.write_text("f0,f1,f2\n0.5,1.0,2.0\n")
        wide_ind = tmp_path / "wide_ind.csv"
        wide_ind.write_text("f0,f1,f2,label\n0.5,1.0,2.0,0\n")
        wide_label = tmp_path / "wide_label.csv"
        wide_label.write_text("f0,f1,f2,label\n0.5,1.0,2.0,0\n-0.5,2.0,1.0,3\n")
        one_row = tmp_path / "one_row.csv"
        one_row.write_text("f0,f1,label\n0.5,1.0,0\n")
        no_features = tmp_path / "no_features.csv"
        no_features.write_text("label\n0\n1\n")
        one_output = tmp_path / "one_output.json"
        write_checkpoint(one_output, init((2, 4, 1), seed=0))
        return {"ind": str(ind_csv), "ckpt": str(checkpoint), "bad": str(bad_json),
                "ragged": str(ragged), "one_class": str(one_class), "wide": str(wide),
                "wide_ind": str(wide_ind), "wide_label": str(wide_label), "one_row": str(one_row),
                "one_output": str(one_output), "no_features": str(no_features)}

    @pytest.mark.parametrize(
        "argv",
        [
            ["score", "--checkpoint", "{bad}", "--features", "{ind}"],
            ["score", "--checkpoint", "{ckpt}", "--features", "{ragged}"],
            ["evaluate", "--checkpoint", "{bad}", "--ind", "{ind}", "--ood", "{ind}"],
            ["evaluate", "--checkpoint", "{ckpt}", "--ind", "{ind}", "--ood", "{ragged}"],
            ["evaluate", "--checkpoint", "{ckpt}", "--ind", "{ind}", "--ood", "{ind}",
             "--calib-frac", "1.0"],
            ["gen-data", "--kind", "blobs", "--k", "1"],
            ["evaluate", "--checkpoint", "{ckpt}", "--ind", "{ind}", "--ood", "{ind}",
             "--calib-frac", "0"],
            ["evaluate", "--checkpoint", "{ckpt}", "--ind", "{ind}", "--ood", "{ind}",
             "--calib-frac", "-0.5"],
            ["train", "--ind", "{ind}"],
            ["train", "--ind", "{one_class}", "--b-ood", "0"],
            ["score", "--checkpoint", "{one_output}", "--features", "{ind}"],
            ["evaluate", "--checkpoint", "{one_output}", "--ind", "{ind}", "--ood", "{ind}"],
            ["train", "--ind", "{no_features}", "--b-ood", "0"],
        ],
    )
    def test_data_error_leaves_no_out_dir(self, inputs, argv, tmp_path, capsys):
        out = tmp_path / "out"
        data_error_line(capsys, *(arg.format(**inputs) for arg in argv), "--out", str(out))
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["--ind", "{ind}"], "data error: --b-ood 10 needs an --ood dataset"),
            (["--ind", "{one_class}", "--b-ood", "0"],
             "data error: {one_class}: training needs at least 2 classes, got 1"),
            (["--ind", "{ind}", "--ood", "{wide}"],
             "data error: {wide}: feature dim 3 does not match {ind} dim 2"),
            (["--ind", "{no_features}", "--b-ood", "0"],
             "data error: {no_features}: no feature columns"),
        ],
    )
    def test_train_input_error_names_the_flag_or_file(self, inputs, argv, line, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli("train", *(arg.format(**inputs) for arg in argv), "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == line.format(**inputs) + "\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["score", "--checkpoint", "{ckpt}", "--features", "{wide}"],
             "data error: {wide}: feature dim 3 does not match {ckpt} input dim 2"),
            (["evaluate", "--checkpoint", "{ckpt}", "--ind", "{wide_ind}", "--ood", "{ind}"],
             "data error: {wide_ind}: feature dim 3 does not match {ckpt} input dim 2"),
            (["evaluate", "--checkpoint", "{ckpt}", "--ind", "{ind}", "--ood", "{wide}"],
             "data error: {wide}: feature dim 3 does not match {ckpt} input dim 2"),
            (["evaluate", "--checkpoint", "{ckpt}", "--ind", "{one_row}", "--ood", "{ind}"],
             "data error: calibration fraction leaves no evaluation samples"),
            # The label check comes before the width check.
            (["evaluate", "--checkpoint", "{ckpt}", "--ind", "{wide_label}", "--ood", "{ind}"],
             "data error: {wide_label}: label 3 is out of range for 3 classes"),
        ],
    )
    def test_scoring_input_error_line(self, inputs, argv, line, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(*(arg.format(**inputs) for arg in argv), "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == line.format(**inputs) + "\n"
        assert not out.exists()

    def test_bench_score_failure_leaves_no_out_dir(self, tmp_path, monkeypatch, capsys):
        def fail(probs, cfg):
            raise NumericError("sinkhorn did not converge")

        monkeypatch.setattr("wood.cli.scores", fail)
        out = tmp_path / "out"
        assert run_cli("bench-score", "--k", "3", "--repeats", "1", "--out", str(out)) == 3
        assert capsys.readouterr().err == "numeric error: sinkhorn did not converge\n"
        assert not out.exists()


def reference_scores_csv(values, classes, epsilon):
    """``scores.csv`` rendered one row at a time."""
    lines = ["index,argmin_class,score" + (",decision" if epsilon is not None else "")]
    for i, (score, k_star) in enumerate(zip(values.tolist(), classes.tolist())):
        row = f"{i},{k_star},{score!r}"
        if epsilon is not None:
            row += f",{int(score > epsilon)}"
        lines.append(row)
    return "\n".join(lines) + "\n"


class TestSplitRender:
    """``score`` renders ``scores.csv`` in two halves, the second in a forked
    child; the threshold is patched to one row here, so every file forks."""

    @pytest.mark.parametrize("epsilon", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 10])
    def test_scores_csv_equals_per_row_rendering(self, n, epsilon, tmp_path):
        model = init((2, 6, 3), seed=3)
        model.params *= 3.0  # spread the softmax rows, so argmin classes differ
        checkpoint = tmp_path / "checkpoint.json"
        write_checkpoint(checkpoint, model)
        features = tmp_path / "f.csv"
        x = np.random.default_rng(n).normal(0, 2, (n, 2))
        save_dataset_csv(Dataset(x, None, Role.OOD), features)
        saved = load_checkpoint(checkpoint).model
        probs = forward(saved, load_dataset_csv(features, Role.OOD).features).probs
        values, classes = scores(probs, ScoreConfig(CostKind.BINARY, EvalPath.CLOSED_FORM))
        # A threshold at the median value puts decisions of 0 and 1 (and a
        # value equal to it) on both sides of the cut.
        threshold = float(np.median(values)) if epsilon else None
        argv = ["score", "--checkpoint", str(checkpoint), "--features", str(features),
                "--matrix", "binary", "--eval-path", "closed", "--out", str(tmp_path / "out")]
        if epsilon:
            argv += ["--epsilon", repr(threshold)]
        real_fork, forks = os.fork, []
        with (
            mock.patch.object(wood.cli, "_SPLIT_ROWS", 1),
            mock.patch.object(os, "sched_getaffinity", return_value={0, 1}, create=True),
            mock.patch.object(os, "fork", lambda: forks.append(None) or real_fork()),
        ):
            assert run_cli(*argv) == 0
        with pytest.raises(ChildProcessError):  # every child was waited for
            os.waitpid(-1, os.WNOHANG)
        assert len(forks) == 1
        want = reference_scores_csv(values, classes, threshold)
        assert (tmp_path / "out" / "scores.csv").read_bytes() == want.encode("ascii")
        if n >= 7:
            assert classes.any()


class TestScoringCommands:
    @pytest.fixture
    def inputs(self, tmp_path):
        ind_csv = gen_blobs(tmp_path / "data", n=4)
        checkpoint = tmp_path / "checkpoint.json"
        write_checkpoint(checkpoint)
        return ind_csv, checkpoint

    @pytest.mark.parametrize("epsilon", [None, 0.1 + 0.2])
    def test_scores_csv_equals_per_row_rendering(self, inputs, epsilon, tmp_path, monkeypatch):
        # Zero, tiny and subnormal scores, a score equal to epsilon (the
        # decision is a strict >), its neighbours, and repeated values.
        eps = 0.1 + 0.2
        chosen = [0.0, 1e-17, 5e-324, eps, eps, np.nextafter(eps, 1.0),
                  np.nextafter(eps, 0.0), 1.0 / 3.0, 1.0 / 3.0, 2.0, 1e300, 0.5]
        values = np.array(chosen)
        classes = np.arange(values.size) % 3

        def fake_scores(probs, cfg):
            assert probs.shape[0] == values.size
            return values, classes

        monkeypatch.setattr("wood.cli.scores", fake_scores)
        ind_csv, checkpoint = inputs
        out = tmp_path / "out"
        argv = ["score", "--checkpoint", str(checkpoint), "--features", str(ind_csv)]
        if epsilon is not None:
            argv += ["--epsilon", repr(epsilon)]
        assert run_cli(*argv, "--out", str(out)) == 0
        want = reference_scores_csv(values, classes, epsilon)
        assert (out / "scores.csv").read_bytes() == want.encode("ascii")

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf"])
    def test_non_finite_epsilon_is_a_usage_error(self, inputs, epsilon, tmp_path, capsys):
        ind_csv, checkpoint = inputs
        out = tmp_path / "out"
        code = run_cli(
            "score", "--checkpoint", str(checkpoint), "--features", str(ind_csv),
            "--epsilon", epsilon, "--out", str(out),
        )
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("usage error:")
        assert not out.exists()

    def test_ind_label_beyond_checkpoint_classes_is_a_data_error(self, inputs, tmp_path, capsys):
        ind_csv, checkpoint = inputs
        bad = tmp_path / "ind4.csv"
        bad.write_text("f0,f1,label\n0.5,1.0,0\n-0.5,2.0,3\n1.5,0.0,1\n")
        out = tmp_path / "out"
        code = run_cli(
            "evaluate", "--checkpoint", str(checkpoint), "--ind", str(bad),
            "--ood", str(ind_csv), "--out", str(out),
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"data error: {bad}: label 3 is out of range for 3 classes\n"
        )
        assert not out.exists()


def per_block_reference(model, x, block, cfg):
    """Scores, argmin classes and predicted classes of ``x``, one forward
    pass per block of ``block`` rows."""
    parts = []
    for start in range(0, x.shape[0], block):
        probs = forward(model, x[start : start + block]).probs
        parts.append((*scores(probs, cfg), probs.argmax(axis=1)))
    return tuple(np.concatenate(column) for column in zip(*parts))


# Score flags and the configuration they select, one Sinkhorn case.
BLOCKED_CONFIGS = [
    (["--matrix", "binary", "--eval-path", "closed"],
     ScoreConfig(CostKind.BINARY, EvalPath.CLOSED_FORM)),
    (["--matrix", "dynamic", "--eval-path", "closed"],
     ScoreConfig(CostKind.DYNAMIC, EvalPath.CLOSED_FORM)),
    (["--matrix", "binary", "--eval-path", "sinkhorn", "--lambda", "10"],
     ScoreConfig(CostKind.BINARY, EvalPath.SINKHORN, SinkhornConfig(lam=10.0))),
]


class TestBlockedScoring:
    """``score`` and ``evaluate`` run the model over blocks of
    ``SCORE_BLOCK_ROWS`` rows; the constant is patched small here."""

    @staticmethod
    def write_checkpoint(path):
        model = init((2, 6, 3), seed=3)
        model.params *= 3.0  # spread the softmax rows away from uniform
        write_checkpoint(path, model)
        return load_checkpoint(path).model

    @settings(max_examples=60, deadline=None)
    @given(
        block=st.integers(2, 8),
        n_ind=st.integers(1, 40),
        n_ood=st.integers(1, 40),
        config=st.sampled_from(range(len(BLOCKED_CONFIGS))),
        seed=st.integers(0, 2**16),
    )
    def test_outputs_equal_the_per_block_reference(self, block, n_ind, n_ood, config, seed):
        flags, cfg = BLOCKED_CONFIGS[config]
        n_ind = min(n_ind, 4 * block + block - 1)
        n_ood = min(n_ood, 4 * block + block - 1)
        rng = np.random.default_rng(seed)
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            tmp = Path(tmp)
            model = self.write_checkpoint(tmp / "checkpoint.json")
            ind_csv, ood_csv = tmp / "ind.csv", tmp / "ood.csv"
            labels = np.arange(n_ind) % 3
            save_dataset_csv(Dataset(rng.normal(0, 2, (n_ind, 2)), labels, Role.IND), ind_csv)
            save_dataset_csv(Dataset(rng.normal(0, 2, (n_ood, 2)), None, Role.OOD), ood_csv)
            ind_x = load_dataset_csv(ind_csv, Role.IND).features
            ood_x = load_dataset_csv(ood_csv, Role.OOD).features

            forward_rows = []

            def counting_forward(model, x):
                forward_rows.append(x.shape[0])
                return forward(model, x)

            mp.setattr("wood.cli.SCORE_BLOCK_ROWS", block)
            mp.setattr("wood.cli.forward", counting_forward)
            common = ["--checkpoint", str(tmp / "checkpoint.json"), *flags]
            assert run_cli("score", *common, "--features", str(ood_csv),
                           "--out", str(tmp / "s")) == 0
            assert run_cli("evaluate", *common, "--ind", str(ind_csv), "--ood", str(ood_csv),
                           "--calib-on-eval", "--out", str(tmp / "e")) == 0
            written = (tmp / "s" / "scores.csv").read_text()
            report = (tmp / "e" / "report.txt").read_text()

        def block_sizes(n):
            return [min(block, n - start) for start in range(0, n, block)]

        assert forward_rows == block_sizes(n_ood) + block_sizes(n_ind) + block_sizes(n_ood)
        ood_values, ood_classes, _ = per_block_reference(model, ood_x, block, cfg)
        assert written == reference_scores_csv(ood_values, ood_classes, None)
        full_values, _ = scores(forward(model, ood_x).probs, cfg)
        written_values = np.array([float(line.split(",")[2]) for line in written.splitlines()[1:]])
        np.testing.assert_allclose(written_values, full_values, rtol=0, atol=1e-12)

        ind_values, _, ind_predicted = per_block_reference(model, ind_x, block, cfg)
        want = report_text(evaluate(ind_values, ind_values, ood_values, 0.95))
        want += f"n_calibration: {n_ind}\n"
        want += f"ind_accuracy: {float(np.mean(ind_predicted == labels))!r}\n"
        assert report == want

    @pytest.mark.parametrize("command", ["score", "evaluate"])
    def test_diverged_row_in_a_later_block_is_named(self, command, tmp_path, capsys, monkeypatch):
        # Finite but huge features overflow the first layer of a model whose
        # first weights are all 1: the row's softmax output is non-finite.
        model = init((2, 3, 3), seed=0)
        model.weights[0][...] = 1.0
        path = tmp_path / "checkpoint.json"
        write_checkpoint(path, model)
        x = np.random.default_rng(5).normal(size=(13, 2))
        x[9] = 1e308
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(forward(model, x[9]).probs).all()
        labels = np.arange(13) % 3
        ind_csv, bad_csv = tmp_path / "ind.csv", tmp_path / "bad.csv"
        save_dataset_csv(Dataset(x[:8], labels[:8], Role.IND), ind_csv)
        save_dataset_csv(Dataset(x, None, Role.OOD), bad_csv)
        inputs = dataset_flags(command, ind_csv, bad_csv)
        monkeypatch.setattr("wood.cli.SCORE_BLOCK_ROWS", 4)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(command, "--checkpoint", str(path), *inputs, "--out", str(out))
        assert caught == []
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            f"numeric error: model diverged: non-finite softmax output for row 9 of {bad_csv}"
        ]
        assert not out.exists()

    def test_scoring_failure_names_its_block(self, tmp_path, capsys, monkeypatch):
        ind_csv = gen_blobs(tmp_path / "data", n=4)
        path = tmp_path / "checkpoint.json"
        self.write_checkpoint(path)
        calls = []

        def fail_on_second_block(probs, cfg):
            calls.append(probs.shape[0])
            if len(calls) == 2:
                raise NumericError("sinkhorn failed to converge on row 1")
            return 1.0 - probs.max(axis=1), probs.argmax(axis=1)

        monkeypatch.setattr("wood.cli.SCORE_BLOCK_ROWS", 5)
        monkeypatch.setattr("wood.cli.scores", fail_on_second_block)
        out = tmp_path / "out"
        code = run_cli("score", "--checkpoint", str(path), "--features", str(ind_csv),
                       "--out", str(out))
        assert code == 3
        assert calls == [5, 5]
        assert capsys.readouterr().err == (
            "numeric error: sinkhorn failed to converge on row 1,"
            f" in the block from row 5 of {ind_csv}\n"
        )
        assert not out.exists()

    def test_peak_memory_grows_only_with_the_per_row_outputs(self, monkeypatch):
        block = 256
        monkeypatch.setattr("wood.cli.SCORE_BLOCK_ROWS", block)
        model = init((2, 64, 3), seed=0)
        cfg = ScoreConfig(CostKind.BINARY, EvalPath.CLOSED_FORM)
        rng = np.random.default_rng(0)

        def traced(n_blocks):
            ds = Dataset(rng.normal(size=(n_blocks * block, 2)), None, Role.OOD)
            _score_blocks(model, ds, "f.csv", cfg)  # warm up lazy imports and caches
            tracemalloc.start()
            try:
                outputs = _score_blocks(model, ds, "f.csv", cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak, sum(a.nbytes for a in outputs)

        peak_small, outputs_small = traced(4)
        peak_large, outputs_large = traced(16)
        assert peak_large - peak_small <= outputs_large - outputs_small


EVALUATE = ["evaluate", "--checkpoint", "c.json", "--ind", "i.csv", "--ood", "o.csv"]
# Each command with its required flags but --out.
REQUIRED = {
    "gen-data": ["gen-data", "--kind", "blobs"],
    "train": ["train", "--ind", "ind.csv"],
    "evaluate": EVALUATE,
    "score": ["score", "--checkpoint", "c.json", "--features", "f.csv"],
    "bench-score": ["bench-score"],
}


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["bench-score", "--repeats", "0"],
            ["bench-score", "--k", "x"],
            ["train", "--ind", "ind.csv", "--hidden", "a,b"],
            ["gen-data", "--kind", "blobs", "--seed", "-1"],
            ["train", "--ind", "ind.csv", "--seed", "-1"],
            [*EVALUATE, "--seed", "-1"],
            ["bench-score", "--seed", "-1"],
            [*EVALUATE, "--calib-frac", "nan"],
            ["train", "--ind", "ind.csv", "--lr", "inf"],
            ["train", "--ind", "ind.csv", "--lr", "nan"],
            ["train", "--ind", "ind.csv", "--lambda", "inf"],
            ["score", "--checkpoint", "c.json", "--features", "f.csv", "--lambda", "nan"],
            ["gen-data", "--kind", "blobs", "--sep", "inf"],
            ["gen-data", "--kind", "ring", "--noise", "nan"],
        ],
    )
    def test_one_line_and_exit_1(self, argv, tmp_path, capsys):
        assert run_cli(*argv, "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("usage error:")

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("gen-data", "--sep"),
            ("gen-data", "--noise"),
            ("train", "--lr"),
            ("train", "--lambda"),
            ("evaluate", "--lambda"),
            ("evaluate", "--tnr"),
            ("evaluate", "--calib-frac"),
            ("score", "--lambda"),
            ("score", "--epsilon"),
            ("score", "--tnr"),
            ("bench-score", "--lambda"),
        ],
    )
    def test_text_that_is_no_number_names_no_function(self, command, flag, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(*REQUIRED[command], flag, "abc", "--out", str(out)) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"usage error: argument {flag}: expected a number, got 'abc'"]
        assert not out.exists()


class TestCheckpointScoreConfig:
    @pytest.fixture
    def binary_run(self, tmp_path):
        ind_csv = gen_blobs(tmp_path / "data", n=20)
        run_dir = tmp_path / "run"
        code = run_cli(
            "train", "--ind", str(ind_csv), "--b-ood", "0", "--b-ind", "20",
            "--epochs", "2", "--hidden", "4", "--matrix", "binary", "--out", str(run_dir),
        )
        assert code == 0
        return ind_csv, run_dir / "checkpoint.json"

    def probs(self, ind_csv, checkpoint):
        model = load_checkpoint(checkpoint).model
        return forward(model, load_dataset_csv(ind_csv, role=Role.IND).features).probs

    def read_scores(self, out):
        rows = [line.split(",") for line in (out / "scores.csv").read_text().splitlines()[1:]]
        return np.array([float(row[2]) for row in rows])

    def test_score_defaults_to_trained_config(self, binary_run, tmp_path):
        ind_csv, checkpoint = binary_run
        out = tmp_path / "scores"
        code = run_cli(
            "score", "--checkpoint", str(checkpoint), "--features", str(ind_csv),
            "--out", str(out),
        )
        assert code == 0
        probs = self.probs(ind_csv, checkpoint)
        np.testing.assert_array_equal(self.read_scores(out), 1.0 - probs.max(axis=1))

    def test_flags_override_trained_config(self, binary_run, tmp_path):
        ind_csv, checkpoint = binary_run
        out = tmp_path / "scores"
        code = run_cli(
            "score", "--checkpoint", str(checkpoint), "--features", str(ind_csv),
            "--matrix", "dynamic", "--out", str(out),
        )
        assert code == 0
        probs = self.probs(ind_csv, checkpoint)
        expected = 1.0 - np.array([float(f @ f) for f in probs])
        np.testing.assert_array_equal(self.read_scores(out), expected)

    @pytest.mark.parametrize("lam, shown", [(0, "0.0"), ("nan", "nan")])
    def test_bad_saved_lambda_names_the_checkpoint(self, binary_run, lam, shown, tmp_path, capsys):
        ind_csv, checkpoint = binary_run
        payload = json.loads(checkpoint.read_text())
        payload["train_config"]["score"]["sinkhorn"]["lam"] = lam
        checkpoint.write_text(json.dumps(payload))
        argv = ["score", "--checkpoint", str(checkpoint), "--features", str(ind_csv)]
        out = tmp_path / "scores"
        assert run_cli(*argv, "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"data error: {checkpoint}: malformed train_config.score:"
            f" lam must be finite and positive, got {shown}\n"
        )
        assert not out.exists()
        # A --lambda flag replaces the saved value, so the checkpoint still scores.
        assert run_cli(*argv, "--lambda", "5", "--out", str(out)) == 0

    def test_evaluate_echoes_trained_config(self, binary_run, tmp_path):
        ind_csv, checkpoint = binary_run
        out = tmp_path / "eval"
        code = run_cli(
            "evaluate", "--checkpoint", str(checkpoint), "--ind", str(ind_csv),
            "--ood", str(ind_csv), "--out", str(out),
        )
        assert code == 0
        run_config = (out / "run_config.txt").read_text()
        assert "matrix=binary" in run_config
        assert "eval_path=closed" in run_config
        assert "lam=50.0" in run_config


# A saved score setting that ``evaluate`` and ``score`` can run with.
SAVED_SCORE = {"matrix_kind": "binary", "evaluation": "closed", "sinkhorn": {"lam": 10.0}}


class TestCheckpointValidation:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_weights_are_a_data_error(self, bad, tmp_path, capsys):
        ind_csv = gen_blobs(tmp_path / "data", n=10)
        model = init((2, 3, 3), seed=0)
        model.weights[1][0, 0] = bad
        path = tmp_path / "checkpoint.json"
        write_checkpoint(path, model)
        err = data_error_line(
            capsys, "score", "--checkpoint", str(path), "--features", str(ind_csv),
            "--out", str(tmp_path / "out"),
        )
        assert "non-finite" in err

    @pytest.mark.parametrize("command", ["score", "evaluate"])
    def test_diverged_model_is_a_numeric_error(self, command, tmp_path, capsys):
        # Finite but huge weights, as a diverging last training step leaves
        # them: the forward pass overflows to non-finite softmax rows.
        ind_csv = gen_blobs(tmp_path / "data", n=10)
        model = init((2, 3, 3), seed=0)
        model.weights[0] *= 1e306
        model.weights[1] *= 1e306
        path = tmp_path / "checkpoint.json"
        write_checkpoint(path, model)
        inputs = dataset_flags(command, ind_csv, ind_csv)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(command, "--checkpoint", str(path), *inputs, "--out", str(tmp_path / "o"))
        assert caught == []
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"numeric error: model diverged: non-finite softmax output for row 0 of {ind_csv}"
        ]

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"layer_dims": [2], "weights": [], "biases": []},
             "layer_dims needs at least input and output sizes"),
            ({"layer_dims": [2, 0, 3], "weights": [[[], []], []], "biases": [[], [0, 0, 0]]},
             "layer sizes must be positive, got (2, 0, 3)"),
            ({"n_classes": 7}, "n_classes 7 disagrees with output width 3"),
            ({"layer_dims": [2.7, 3, 3.2]},
             "malformed checkpoint field: a layer_dims entry must be an integer, got 2.7"),
            ({"n_classes": "3"},
             "malformed checkpoint field: n_classes must be an integer, got '3'"),
            ({"n_classes": 3.9},
             "malformed checkpoint field: n_classes must be an integer, got 3.9"),
            ({"format_version": True}, "unsupported version True"),
            ({"weights": [[["0.5"] * 3] * 2, [["1"] * 3] * 3]},
             "malformed checkpoint field: weights must be lists of numbers"),
            ({"biases": [[0, True, 0], [0, 0, 0]]},
             "malformed checkpoint field: biases must be lists of numbers"),
            ({"biases": [[0, 0, 0], [0, 0, 10**400]]},
             "malformed checkpoint field: int too large to convert to float"),
            ({"rng_digest": 5}, "malformed checkpoint field: rng_digest must be a string, got 5"),
            ({"activation": 5}, "malformed checkpoint field: activation must be a string, got 5"),
            ({"normalization": [["a", 1]]},
             "malformed checkpoint field: normalization must be an object, got [['a', 1]]"),
            ({"train_config": [["score", SAVED_SCORE]]},
             "malformed checkpoint field: train_config must be an object,"
             f" got [['score', {SAVED_SCORE!r}]]"),
        ],
    )
    @pytest.mark.parametrize("command", ["score", "evaluate"])
    def test_unusable_architecture_is_a_data_error(
        self, fields, message, command, tmp_path, capsys
    ):
        ind_csv = gen_blobs(tmp_path / "data", n=10)
        path = tmp_path / "checkpoint.json"
        write_checkpoint(path)
        edit_json(path, **fields)
        inputs = dataset_flags(command, ind_csv, ind_csv)
        out = tmp_path / "out"
        assert run_cli(command, "--checkpoint", str(path), *inputs, "--out", str(out)) == 2
        assert capsys.readouterr().err == f"data error: {path}: {message}\n"
        assert not out.exists()

    def test_unknown_activation_is_a_data_error(self, tmp_path, capsys):
        ind_csv = gen_blobs(tmp_path / "data", n=10)
        model = init((2, 3, 3), seed=0)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(make_checkpoint(model, {"kind": "identity"}), path)
        edit_json(path, activation="tanh")
        err = data_error_line(
            capsys, "score", "--checkpoint", str(path), "--features", str(ind_csv),
            "--out", str(tmp_path / "out"),
        )
        assert "unsupported activation 'tanh'" in err

    @pytest.mark.parametrize("opening", ["[", '{"a":'])
    def test_deeply_nested_checkpoint_is_a_data_error(self, opening, tmp_path, capsys):
        # Too deep for the JSON decoder's recursion, which must not escape.
        ind_csv = gen_blobs(tmp_path / "data", n=10)
        path = tmp_path / "deep.json"
        path.write_text(opening * 100_000)
        out = tmp_path / "out"
        err = data_error_line(
            capsys, "score", "--checkpoint", str(path), "--features", str(ind_csv),
            "--out", str(out),
        )
        assert err == f"data error: {path}: corrupt checkpoint: nested too deeply to parse"
        assert not out.exists()


# Each optional flag of each subcommand with a small valid value. The fuzz
# test draws flag values only from these plus 0, -1, nan, inf and text, so
# no draw asks for much work or memory.
FUZZ_FLAGS = {
    "gen-data": {
        "--kind": "blobs", "--k": "3", "--n": "5", "--dim": "2",
        "--sep": "4.0", "--noise": "0.5", "--seed": "1",
    },
    "train": {
        "--beta": "0.1", "--b-ind": "8", "--b-ood": "3", "--matrix": "binary",
        "--eval-path": "sinkhorn", "--lambda": "10", "--epochs": "1", "--lr": "0.01",
        "--momentum": "0.5", "--seed": "1", "--hidden": "3",
    },
    "evaluate": {
        "--tnr": "0.9", "--matrix": "binary", "--eval-path": "sinkhorn", "--lambda": "10",
        "--calib-frac": "0.3", "--seed": "1",
    },
    "score": {
        "--matrix": "binary", "--eval-path": "sinkhorn", "--lambda": "10",
        "--epsilon": "0.2", "--tnr": "0.9",
    },
    "bench-score": {
        "--k": "3", "--repeats": "1", "--lambda": "10", "--seed": "1",
    },
}
# Float flags whose size costs no work also draw a huge finite value.
FUZZ_HUGE = {
    "--lr", "--beta", "--lambda", "--sep", "--noise", "--momentum", "--epsilon",
    "--calib-frac", "--tnr",
}
EXIT_PREFIXES = {1: ("usage error:",), 2: ("data error:",), 3: ("numeric error:",)}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    ind_csv = gen_blobs(base / "ind", n=5)
    ood_csv = gen_ring(base / "ood", n=10)
    code = run_cli(
        "train", "--ind", str(ind_csv), "--ood", str(ood_csv), "--epochs", "1",
        "--hidden", "3", "--out", str(base / "run"),
    )
    assert code == 0
    checkpoint = str(base / "run" / "checkpoint.json")
    files = {
        "gen-data": [],
        "train": ["--ind", str(ind_csv), "--ood", str(ood_csv)],
        "evaluate": ["--checkpoint", checkpoint, "--ind", str(ind_csv), "--ood", str(ood_csv)],
        "score": ["--checkpoint", checkpoint, "--features", str(ood_csv)],
        "bench-score": [],
    }
    return base, files


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    argv = [command]
    for flag, valid in FUZZ_FLAGS[command].items():
        if draw(st.booleans()):
            values = [valid, "0", "-1", "nan", "inf", "x"]
            if flag in FUZZ_HUGE:
                values.append("1e300")
            argv += [flag, draw(st.sampled_from(values))]
    if command == "evaluate" and draw(st.booleans()):
        argv.append("--calib-on-eval")
    return argv


def _run_captured(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue().splitlines()


@settings(max_examples=200, deadline=None)
@given(argv=fuzz_argv())
def test_fuzzed_argv_one_line_and_documented_exit(fuzz_files, argv):
    base, files = fuzz_files
    out = tempfile.mkdtemp(dir=base)
    code, lines = _run_captured([*argv, *files[argv[0]], "--out", out])
    assert code in (0, 1, 2, 3)
    if code:
        assert len(lines) == 1, lines
        assert lines[0].startswith(EXIT_PREFIXES[code]), lines


def _past_line_end(raw: bytes, offset: int) -> int:
    """The offset just past the first line end (``\\n``, ``\\r\\n`` or
    ``\\r``) at or after ``offset`` in ``raw``; ``len(raw)`` where there is none."""
    ends = [i for i in (raw.find(b"\n", offset), raw.find(b"\r", offset)) if i >= 0]
    if not ends:
        return len(raw)
    end = min(ends)
    return end + (2 if raw[end : end + 2] == b"\r\n" else 1)


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["score", "evaluate"]),
    ind=csv_texts(2, has_label=True),
    ood=csv_texts(2, has_label=False),
    side_by_side=st.booleans(),
)
# One InD row, and an OOD file whose middle byte is in its last row: no fork
# (and no evaluation samples).
@example(
    command="evaluate",
    ind="f0,f1,label\n0.5,1.0,0\n",
    ood="f0,f1\n1,2\n0.25,-0.5000000\n",
    side_by_side=True,
)
# Two InD rows and one OOD row: the --ind file forks.
@example(
    command="evaluate",
    ind="f0,f1,label\n0.5,1.0,0\n-1.5,2.0,1\n",
    ood="f0,f1\n0.25,-0.5\n",
    side_by_side=True,
)
# Two rows in each file: each file forks in turn.
@example(
    command="evaluate",
    ind="f0,f1,label\n0.5,1.0,0\n-1.5,2.0,1\n",
    ood="f0,f1\n0.25,-0.5\n3.0,1.0\n",
    side_by_side=True,
)
# A label beyond the checkpoint's classes: the --ind file forks, and the
# --ood file does not load.
@example(
    command="evaluate",
    ind="f0,f1,label\n0.5,1.0,0\n-1.5,2.0,5\n",
    ood="f0,f1\n0.25,-0.5\n3.0,1.0\n",
    side_by_side=True,
)
def test_fuzzed_csv_one_line_and_documented_exit(fuzz_files, command, ind, ood, side_by_side):
    base, files = fuzz_files
    run_dir = Path(tempfile.mkdtemp(dir=base))
    ind_csv, ood_csv, out = run_dir / "ind.csv", run_dir / "ood.csv", run_dir / "out"
    ind_csv.write_bytes(ind.encode("latin-1"))
    ood_csv.write_bytes(ood.encode("latin-1"))
    inputs = dataset_flags(command, ind_csv, ood_csv)
    checkpoint = files["score"][1]
    argv = [command, "--checkpoint", checkpoint, *inputs]
    beside_out = run_dir / "beside"
    forks = []
    real_fork = os.fork
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, lines = _run_captured([*argv, "--out", str(out)])
        if side_by_side:
            # The same run, as if on two CPUs, where each file of a few bytes
            # parses in two byte ranges.
            with (
                mock.patch.object(wood.data, "_SPLIT_BYTES", 1),
                mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1}, create=True),
                mock.patch.object(os, "fork", lambda: forks.append(None) or real_fork()),
            ):
                beside_run = _run_captured([*argv, "--out", str(beside_out)])
    assert caught == []
    assert code in (0, 2)
    if code:
        assert len(lines) == 1 and lines[0].startswith("data error:"), lines
        assert not out.exists()
    if side_by_side:
        assert beside_run == (code, lines)
        # The checkpoint loads before the files. evaluate's --ood file loads
        # unless --ind failed, and each file that loads is cut at the first
        # line end from the middle of its rows.
        loaded = [ood] if command == "score" else [ind]
        if command == "evaluate" and not (code and lines[0].startswith(f"data error: {ind_csv}")):
            loaded.append(ood)
        want = 0
        for text in loaded:
            raw = text.encode("latin-1")
            body = _past_line_end(raw, 0)
            want += _past_line_end(raw, (body + len(raw)) // 2) < len(raw)
        assert len(forks) == want
        if code:
            assert not beside_out.exists()
        elif command == "evaluate":
            for name in ["report.txt", "hist_ind.csv", "hist_ood.csv", "run_config.txt"]:
                assert (beside_out / name).read_bytes() == (out / name).read_bytes(), name
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# A config file sets train's settings by the flags' dest names.
CONFIG_KEYS = {flag: flag[2:].replace("-", "_") for flag in FUZZ_FLAGS["train"]} | {
    "--lambda": "lam"
}


@settings(max_examples=120, deadline=None)
@given(
    flag=st.sampled_from(sorted(FUZZ_FLAGS["train"])),
    value=st.sampled_from(["valid", "0", "-1", "nan", "inf", "x", "1e300"]),
)
def test_config_line_accepts_what_the_flag_accepts(fuzz_files, flag, value):
    base, files = fuzz_files
    if value == "valid":
        value = FUZZ_FLAGS["train"][flag]
    others = [token for f, v in FUZZ_FLAGS["train"].items() if f != flag for token in (f, v)]
    run_dir = Path(tempfile.mkdtemp(dir=base))
    config = run_dir / "run.cfg"
    config.write_text(f"{CONFIG_KEYS[flag]}={value}\n")
    common = ["train", *files["train"], *others]
    by_flag = _run_captured([*common, flag, value, "--out", str(run_dir / "flag")])
    by_config = _run_captured([*common, "--config", str(config), "--out", str(run_dir / "cfg")])
    if by_flag[0] == 1:
        code, err = by_config
        assert code == 2
        assert len(by_flag[1]) == 1 and by_flag[1][0].startswith("usage error:")
        assert len(err) == 1 and err[0].startswith(f"data error: config key {CONFIG_KEYS[flag]}:")
    else:
        assert by_config == by_flag
    if by_flag[0] == 0:
        flag_ckpt = (run_dir / "flag" / "checkpoint.json").read_bytes()
        assert (run_dir / "cfg" / "checkpoint.json").read_bytes() == flag_ckpt


def fresh_env():
    """The environment for a fresh interpreter that imports this ``wood``."""
    src = str(Path(wood.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_import_loads_no_scipy():
    # NumPy is the only runtime dependency, and the test oracles are not
    # one; a fresh interpreter shows what importing the package pulls in.
    env = fresh_env()
    for modules in ("wood.cli", "wood, wood.cli"):
        probe = (
            f"import sys, {modules}; print([m for m in sys.modules"
            " if m.split('.')[0] == 'scipy' or m == 'wood.oracles'])"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "[]", modules


def test_readme_quickstart_runs():
    # The README's library quickstart, run as written in a fresh interpreter.
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    result = subprocess.run(
        [sys.executable, "-c", code], env=fresh_env(), capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    auroc, fnr = map(float, result.stdout.split())
    assert 0.0 <= fnr <= 1.0 and 0.5 < auroc <= 1.0


def test_diverged_train_keeps_its_settings(tmp_path):
    # The run that most needs explaining is one that diverges: in its own
    # process, it exits 3 with one line and leaves its settings and the
    # epochs it finished (here none: the header alone), but no checkpoint,
    # under --out.
    ind_csv = gen_blobs(tmp_path / "data", n=30)
    out = tmp_path / "run"
    argv = ["train", "--ind", str(ind_csv), "--b-ood", "0", "--epochs", "5", "--lr", "1e300"]
    result = subprocess.run(
        [sys.executable, "-m", "wood.cli", *argv, "--out", str(out)],
        env=fresh_env(), capture_output=True, text=True,
    )
    assert result.returncode == 3
    err = result.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("numeric error: model diverged: "), err
    assert sorted(path.name for path in out.iterdir()) == ["metrics.csv", "run_config.txt"]
    assert "lr=1e+300\nmomentum=0.9\n" in (out / "run_config.txt").read_text(encoding="utf-8")
    header = "epoch,ce_term,ood_term,total,alpha_M,m,wall_ms\n"
    assert (out / "metrics.csv").read_text(encoding="ascii") == header


def test_diverged_train_keeps_the_epochs_it_finished(tmp_path):
    # One batch per epoch, at a learning rate that diverges after a few
    # epochs: the failed run's metrics.csv holds the lines of a run that
    # stops at the epochs it finished, wall_ms aside.
    ind_csv = gen_blobs(tmp_path / "data", n=30)
    argv = ["train", "--ind", str(ind_csv), "--b-ood", "0", "--b-ind", "90", "--hidden", "8"]
    argv += ["--lr", "4e153"]
    failed, stopped = tmp_path / "failed", tmp_path / "stopped"
    code, err = _run_captured([*argv, "--epochs", "6", "--out", str(failed)])
    assert code == 3
    assert len(err) == 1 and err[0].startswith("numeric error: model diverged: "), err
    assert sorted(path.name for path in failed.iterdir()) == ["metrics.csv", "run_config.txt"]

    def without_wall_ms(out):
        lines = (out / "metrics.csv").read_text(encoding="ascii").splitlines()
        return [line.rsplit(",", 1)[0] for line in lines]

    kept = without_wall_ms(failed)
    finished = len(kept) - 1
    assert 1 <= finished < 6
    assert _run_captured([*argv, "--epochs", str(finished), "--out", str(stopped)])[0] == 0
    assert kept == without_wall_ms(stopped)


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="two BLAS threads need two CPUs",
)
def test_run_config_records_the_blas_thread_count(tmp_path):
    # The output bits depend on the BLAS thread count, so each run records the
    # count that the library reports, and repeats its own checkpoint bytes.
    if blas_info() is None:
        pytest.skip("NumPy loaded no bundled OpenBLAS")
    ind_csv = gen_blobs(tmp_path / "data", n=30)
    recorded = {"1": set(), "2": set()}
    checkpoints = {"1": set(), "2": set()}
    for index, threads in enumerate("1212"):
        out = tmp_path / f"run{index}"
        argv = ["train", "--ind", str(ind_csv), "--b-ood", "0", "--epochs", "2", "--out", str(out)]
        result = subprocess.run(
            [sys.executable, "-m", "wood.cli", *argv],
            env={**fresh_env(), "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        lines = (out / "run_config.txt").read_text(encoding="utf-8").splitlines()
        keys = [line.split("=", 1)[0] for line in lines[-3:]]
        assert keys == ["blas_library", "blas_version", "blas_threads"]
        recorded[threads].add(lines[-1])
        checkpoints[threads].add((out / "checkpoint.json").read_bytes())
    assert recorded == {"1": {"blas_threads=1"}, "2": {"blas_threads=2"}}
    assert [len(found) for found in checkpoints.values()] == [1, 1]


@pytest.mark.parametrize("command", ["gen-data", "train", "evaluate", "score", "bench-score"])
def test_every_command_records_its_run(command, tmp_path):
    # Every output's bits may depend on the BLAS thread count, so every
    # command leaves its settings and the count beside its outputs.
    ind_csv = gen_blobs(tmp_path / "data", n=10)
    ood_csv = gen_ring(tmp_path / "data", n=10)
    checkpoint = tmp_path / "checkpoint.json"
    write_checkpoint(checkpoint)
    flags = {
        "gen-data": ["--kind", "ring", "--n", "5"],
        "train": ["--ind", str(ind_csv), "--b-ood", "0", "--epochs", "1", "--hidden", "3"],
        "evaluate": ["--checkpoint", str(checkpoint), *dataset_flags(command, ind_csv, ood_csv)],
        "score": ["--checkpoint", str(checkpoint), *dataset_flags(command, ind_csv, ood_csv)],
        "bench-score": ["--k", "3", "--repeats", "1"],
    }[command]
    out = tmp_path / "out"
    assert run_cli(command, *flags, "--out", str(out)) == 0
    lines = (out / "run_config.txt").read_text(encoding="utf-8").splitlines()
    assert f"command={command}" in lines
    keys = [line.split("=", 1)[0] for line in lines[-3:]]
    assert keys == ["blas_library", "blas_version", "blas_threads"]


@pytest.mark.parametrize("command", [[]] + [[name] for name in wood.cli._COMMANDS])
def test_help_returns_ok(command, capsys):
    assert main([*command, "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(" ".join(["usage: wood", *command]) + " [-h]")


# The one-command parser that main builds for an argument list starting with
# a command name must parse that list as the parser of all five commands does.
PARSE_VALUES = ["1", "0.5", "-1", "nan", "x", "a.csv", ""]


def _declared_options(command):
    """The option actions of ``command`` in the parser of all five commands."""
    subparsers = wood.cli._build_parser({})._subparsers._group_actions[0]
    return [action for action in subparsers.choices[command]._actions if action.option_strings]


def _parse_outcome(parser, argv):
    """What ``parser`` makes of ``argv``: the namespace (by ``repr``, so that
    nan equals nan and the key order counts), the usage error or the help."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            args = parser.parse_args(argv)
    except wood.cli._UsageError as exc:
        return "usage error", str(exc)
    except wood.cli._HelpShown:
        return "help", out.getvalue()
    return "namespace", repr(vars(args))


@st.composite
def command_argv(draw, command):
    actions = _declared_options(command)
    flags = [
        flag for action in actions if action.dest != "help" for flag in action.option_strings
    ] + ["--unknown"]
    values = PARSE_VALUES + [choice for action in actions for choice in action.choices or ()]
    argv = [command]
    if draw(st.integers(0, 3)):  # every required flag, so that a namespace can come out
        for action in actions:
            if action.required:
                argv += [action.option_strings[0], (action.choices or ["a.csv"])[0]]
    for flag, value in draw(
        st.lists(st.tuples(st.sampled_from(flags), st.none() | st.sampled_from(values)), max_size=4)
    ):
        argv += [flag] if value is None else [flag, value]
    if draw(st.integers(0, 4)) == 0:
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(["-h", "--help"])))
    return argv


@pytest.mark.parametrize("command", list(wood.cli._COMMANDS))
@settings(max_examples=150, deadline=None)
@given(data=st.data(), train_defaults=st.sampled_from([{}, {"epochs": 3, "lam": 2.0}]))
def test_one_command_parser_agrees_with_the_full_one(command, data, train_defaults):
    argv = data.draw(command_argv(command))
    one = _parse_outcome(wood.cli._build_parser(train_defaults, command), argv)
    full = _parse_outcome(wood.cli._build_parser(train_defaults), argv)
    assert one == full


@pytest.mark.parametrize(
    "argv, kind, text",
    [
        ([], "usage error", "the following arguments are required: command"),
        (["--help"], "help", "{gen-data,train,evaluate,score,bench-score}"),
        (["-h", "score"], "help", "{gen-data,train,evaluate,score,bench-score}"),
        (["bogus"], "usage error", "argument command: invalid choice: 'bogus'"),
        (["--bogus"], "usage error", "the following arguments are required: command"),
    ],
)
def test_no_command_name_first_declares_every_command(argv, kind, text):
    # None of these starts with a command name, so main builds all five
    # commands, and the help and the errors list them.
    outcome = _parse_outcome(wood.cli._build_parser({}, *argv[:1]), argv)
    assert outcome == _parse_outcome(wood.cli._build_parser({}), argv)
    assert outcome[0] == kind
    assert text in outcome[1]
