import importlib
import inspect
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import sfda2
from sfda2.cli import _CONFIG_SCHEMA, _SUITES, _UsageError, _build_parser, _load_run_config, run_cli
from sfda2.data import load_checkpoint, load_dataset, save_checkpoint
from sfda2.verify import VerifyReport, verify_snc_factorization


def write_spec(path, source_counts=(12, 12), target_counts=(12, 12)):
    spec = {
        "means": [[3.0, 0.0], [-3.0, 0.0]],
        "covariances": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]],
        "source_counts": list(source_counts),
        "target_counts": list(target_counts),
        "angle_degrees": 30.0,
        "translation": [0.0, 0.0],
        "noise_scale": 0.0,
    }
    path.write_text(json.dumps(spec))
    return str(path)


@pytest.fixture
def workspace(tmp_path):
    """Generated data plus a pretrained checkpoint for command tests."""
    spec_path = write_spec(tmp_path / "spec.json")
    data_dir = tmp_path / "data"
    assert run_cli(["gen-data", "--spec", spec_path, "--seed", "1", "--out", str(data_dir)]) == 0
    pre_dir = tmp_path / "pre"
    assert (
        run_cli(
            [
                "pretrain",
                "--source", str(data_dir / "source.csv"),
                "--seed", "1",
                "--epochs", "5",
                "--lr", "0.1",
                "--hidden-dims", "6",
                "--feature-dim", "4",
                "--out", str(pre_dir),
            ]
        )
        == 0
    )
    return tmp_path, data_dir, pre_dir


class TestGenData:
    def test_writes_both_files_with_exact_counts(self, tmp_path):
        spec_path = write_spec(tmp_path / "spec.json", (5, 7), (6, 4))
        out = tmp_path / "data"
        assert run_cli(["gen-data", "--spec", spec_path, "--seed", "2", "--out", str(out)]) == 0
        source = load_dataset(str(out / "source.csv"))
        target = load_dataset(str(out / "target.csv"))
        assert_array_equal(np.bincount(source.labels), [5, 7])
        assert_array_equal(np.bincount(target.labels), [6, 4])

    def test_default_benchmark_shape(self, tmp_path):
        out = tmp_path / "data"
        assert run_cli(["gen-data", "--seed", "0", "--out", str(out)]) == 0
        source = load_dataset(str(out / "source.csv"))
        assert source.size == 600
        assert source.n_classes == 3

    def test_reruns_are_byte_identical(self, tmp_path):
        spec_path = write_spec(tmp_path / "spec.json")
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(["gen-data", "--spec", spec_path, "--seed", "5", "--out", str(a)])
        run_cli(["gen-data", "--spec", spec_path, "--seed", "5", "--out", str(b)])
        for name in ("source.csv", "target.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        spec_path = write_spec(tmp_path / "spec.json")
        monkeypatch.setenv("SFDA2_SEED", "9")
        env_dir = tmp_path / "env"
        run_cli(["gen-data", "--spec", spec_path, "--out", str(env_dir)])
        monkeypatch.delenv("SFDA2_SEED")
        flag_dir = tmp_path / "flag"
        run_cli(["gen-data", "--spec", spec_path, "--seed", "9", "--out", str(flag_dir)])
        assert (env_dir / "source.csv").read_bytes() == (flag_dir / "source.csv").read_bytes()

    def test_bad_env_seed_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SFDA2_SEED", "not-a-number")
        assert run_cli(["gen-data", "--out", str(tmp_path / "x")]) == 1

    def test_unknown_spec_field_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"angle": 10}')
        assert run_cli(["gen-data", "--spec", str(bad), "--out", str(tmp_path / "x")]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, text, message",
        [
            ("translation", "[Infinity, 0.0]", "translation contains non-finite entries"),
            ("noise_scale", "NaN", "noise scale must be finite and >= 0"),
            ("noise_scale", "Infinity", "noise scale must be finite and >= 0"),
            ("means", "[[NaN, 0.0], [0.0, 1.0]]", "class means contain non-finite entries"),
            (
                "covariances",
                "[[[1.0, 2.0], [2.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]]",
                "class 0 covariance is not positive semidefinite",
            ),
            ("source_counts", "[1.5, 2.7]", "spec field 'source_counts' must hold integers, got 1.5"),
            ("target_counts", "[12, true]", "spec field 'target_counts' must hold integers, got True"),
            ("angle_degrees", "true", "spec field 'angle_degrees' must hold numbers, got True"),
            ("noise_scale", "1" + "0" * 400, "malformed spec value: int too large to convert to float"),
        ],
        ids=[
            "inf-translation", "nan-noise", "inf-noise", "nan-mean", "indefinite-covariance",
            "fractional-counts", "boolean-count", "boolean-angle", "overflowing-noise",
        ],
    )
    def test_bad_spec_value_exits_one_with_one_error_line(self, field, text, message, tmp_path, capsys):
        # Each spec is valid but for one field, written as JSON text so that
        # NaN, Infinity and true reach the loader as parsed.
        path = tmp_path / "spec.json"
        write_spec(path)
        raw = json.loads(path.read_text())
        raw[field] = "@"
        path.write_text(json.dumps(raw).replace('"@"', text))
        out = tmp_path / "data"
        assert run_cli(["gen-data", "--spec", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()


class TestPretrain:
    def test_outputs_checkpoint_and_metrics(self, workspace):
        _, _, pre_dir = workspace
        model = load_checkpoint(str(pre_dir / "source.ckpt"))
        assert model.n_classes == 2
        assert model.input_dim == 2
        metrics = json.loads((pre_dir / "metrics.json").read_text())
        assert metrics["source_eval"]["accuracy"] >= 0.9  # well-separated blobs

    def test_config_file_with_flag_override(self, tmp_path, workspace):
        ws, data_dir, _ = workspace
        config = tmp_path / "run.json"
        config.write_text('{"epochs": 1, "lr": 0.05, "seed": 2}')
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        base = ["pretrain", "--source", str(data_dir / "source.csv"), "--config", str(config)]
        assert run_cli(base + ["--out", str(out_a)]) == 0
        # the flag must beat the config file
        assert run_cli(base + ["--epochs", "1", "--out", str(out_b)]) == 0
        assert (out_a / "source.ckpt").read_bytes() == (out_b / "source.ckpt").read_bytes()

    def test_unknown_config_field_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text('{"learning_rate": 0.1}')
        code = run_cli(
            ["pretrain", "--source", "unused.csv", "--config", str(config), "--out", str(tmp_path)]
        )
        assert code == 1
        assert "learning_rate" in capsys.readouterr().err

    def test_divergence_reported_as_numerical_failure(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert run_cli(["gen-data", "--seed", "0", "--out", str(data_dir)]) == 0
        capsys.readouterr()
        code = run_cli(
            [
                "pretrain",
                "--source", str(data_dir / "source.csv"),
                "--seed", "0",
                "--lr", "50",
                "--out", str(tmp_path / "pre"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: non-finite forward pass at epoch 0, iteration ")
        assert not (tmp_path / "pre" / "source.ckpt").exists()

    def test_non_finite_lr_rejected_before_training(self, tmp_path, workspace, capsys):
        _, data_dir, _ = workspace
        capsys.readouterr()
        out = tmp_path / "x"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(
                ["pretrain", "--source", str(data_dir / "source.csv"), "--lr", "nan", "--out", str(out)]
            )
        assert code == 1
        assert capsys.readouterr().err == "error: lr must be finite and >= 0, got nan\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--hidden-dims", "0"], "hidden layer widths must be >= 1, got (0,)"),
            (["--hidden-dims=-3"], "hidden layer widths must be >= 1, got (-3,)"),
            (["--hidden-dims", "4,0"], "hidden layer widths must be >= 1, got (4, 0)"),
            (["--feature-dim", "0"], "feature_dim must be >= 1, got 0"),
        ],
        ids=["hidden-0", "hidden-minus-3", "hidden-4-0", "feature-0"],
    )
    def test_bad_layer_widths_exit_one_with_one_error_line(self, argv, message, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert run_cli(["gen-data", "--spec", write_spec(tmp_path / "spec.json"), "--out", str(data_dir)]) == 0
        capsys.readouterr()
        out = tmp_path / "pre"
        assert run_cli(["pretrain", "--source", str(data_dir / "source.csv"), *argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_invalid_config_value_rejected(self, tmp_path, workspace):
        _, data_dir, _ = workspace
        code = run_cli(
            [
                "pretrain",
                "--source", str(data_dir / "source.csv"),
                "--momentum", "1.5",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 1


# A config-file value and a differing flag value for every schema key.
SCHEMA_VALUES = {
    "k": (3, "4"),
    "alpha1": (0.5, "0.25"),
    "alpha2": (2.0, "3.5"),
    "beta": (1.0, "1.5"),
    "lambda0": (2.5, "0.75"),
    "lr": (0.01, "0.02"),
    "momentum": (0.5, "0.25"),
    "batch_size": (8, "16"),
    "epochs": (2, "3"),
    "seed": (4, "9"),
    "bank_fraction": (0.5, "0.75"),
    "hidden_dims": ([3], "5,6"),
    "feature_dim": (2, "7"),
}


class TestConfigFlags:
    def parse(self, *extra):
        return _build_parser().parse_args(["pretrain", "--source", "s.csv", "--out", "o", *extra])

    def test_schema_values_cover_every_key(self):
        assert set(SCHEMA_VALUES) == set(_CONFIG_SCHEMA)

    @pytest.mark.parametrize("key", sorted(SCHEMA_VALUES))
    def test_flag_parses_to_schema_type_and_beats_config(self, tmp_path, key):
        file_value, flag_text = SCHEMA_VALUES[key]
        config = tmp_path / "run.json"
        config.write_text(json.dumps({key: file_value}))
        flag = "--" + key.replace("_", "-")
        args = self.parse("--config", str(config), flag, flag_text)
        parsed = getattr(args, key)
        if key == "hidden_dims":
            parsed = tuple(parsed)
            assert parsed == (5, 6)
        else:
            assert type(parsed) is _CONFIG_SCHEMA[key]
            assert parsed == _CONFIG_SCHEMA[key](flag_text)
            if _CONFIG_SCHEMA[key] is int:
                with pytest.raises(_UsageError):
                    self.parse(flag, "1.5")
        config_value, shape = _load_run_config(str(config), args)
        resolved = {**vars(config_value), **shape}
        assert resolved[key] == parsed
        # without the flag the file's value stands
        config_value, shape = _load_run_config(str(config), self.parse("--config", str(config)))
        resolved = {**vars(config_value), **shape}
        expected = tuple(file_value) if key == "hidden_dims" else file_value
        assert resolved[key] == expected


class TestAdapt:
    def adapt_args(self, workspace, out, extra=()):
        _, data_dir, pre_dir = workspace
        return [
            "adapt",
            "--model", str(pre_dir / "source.ckpt"),
            "--target", str(data_dir / "target.csv"),
            "--seed", "3",
            "--epochs", "2",
            "--k", "3",
            "--out", str(out),
            *extra,
        ]

    def test_outputs_and_loss_csv_header(self, tmp_path, workspace):
        out = tmp_path / "run"
        assert run_cli(self.adapt_args(workspace, out)) == 0
        lines = (out / "losses.csv").read_text().splitlines()
        assert lines[0] == "iteration,snc,ifa,fd,total,decay,lambda"
        assert len(lines) == 3  # 24 rows, batch 64: one batch per epoch
        model = load_checkpoint(str(out / "adapted.ckpt"))
        assert model.n_classes == 2

    def test_zero_weights_zero_loss_columns(self, tmp_path, workspace):
        out = tmp_path / "run"
        assert run_cli(
            self.adapt_args(workspace, out, ("--alpha1", "0", "--alpha2", "0"))
        ) == 0
        header, *rows = (out / "losses.csv").read_text().splitlines()
        assert rows
        for line in rows:
            row = dict(zip(header.split(","), map(float, line.split(","))))
            assert row["ifa"] == 0.0
            assert row["fd"] == 0.0
            assert row["total"] == row["snc"]
        # the loss table lives only in losses.csv
        assert json.loads((out / "metrics.json").read_text()) == {"epoch_eval": []}

    def test_reruns_are_byte_identical(self, tmp_path, workspace):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(self.adapt_args(workspace, out_a)) == 0
        assert run_cli(self.adapt_args(workspace, out_b)) == 0
        for name in ("adapted.ckpt", "losses.csv", "metrics.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_epoch_eval_diagnostics(self, tmp_path, workspace):
        _, data_dir, _ = workspace
        out = tmp_path / "run"
        extra = ("--eval-data", str(data_dir / "target.csv"))
        assert run_cli(self.adapt_args(workspace, out, extra)) == 0
        payload = json.loads((out / "metrics.json").read_text())
        assert len(payload["epoch_eval"]) == 2
        assert all(0.0 <= e["accuracy"] <= 1.0 for e in payload["epoch_eval"])

    def test_eval_data_naming_the_target_is_parsed_once(self, tmp_path, workspace, monkeypatch):
        _, data_dir, _ = workspace
        target = data_dir / "target.csv"
        copy = tmp_path / "copy.csv"
        copy.write_bytes(target.read_bytes())
        parsed = []
        cli = sys.modules["sfda2.cli"]
        monkeypatch.setattr(cli, "load_dataset", lambda path, **kw: parsed.append(path) or load_dataset(path, **kw))
        # The same file by another path name is still one file.
        same = tmp_path / "same"
        assert run_cli(self.adapt_args(workspace, same, ("--eval-data", str(data_dir / ".." / "data" / "target.csv")))) == 0
        assert parsed == [str(target)]
        parsed.clear()
        other = tmp_path / "other"
        assert run_cli(self.adapt_args(workspace, other, ("--eval-data", str(copy)))) == 0
        assert parsed == [str(target), str(copy)]
        for name in ("adapted.ckpt", "losses.csv", "metrics.json"):
            assert (same / name).read_bytes() == (other / name).read_bytes()

    def test_missing_eval_data_is_an_io_error(self, tmp_path, workspace, capsys):
        missing = tmp_path / "missing.csv"
        code = run_cli(self.adapt_args(workspace, tmp_path / "run", ("--eval-data", str(missing))))
        assert code == 1
        assert capsys.readouterr().err == f"io error: [Errno 2] No such file or directory: '{missing}'\n"

    def test_undersized_bank_exits_one(self, tmp_path, workspace, capsys):
        # 24 target rows at fraction 0.1 leave 3 searchable rows for k=3
        out = tmp_path / "run"
        code = run_cli(self.adapt_args(workspace, out, ("--bank-fraction", "0.1")))
        assert code == 1
        err = capsys.readouterr().err
        assert "bank_fraction=0.1" in err
        assert "capacity of 3 rows" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, config, field, value",
        [
            (("--lr", "nan"), None, "lr", "nan"),
            (("--alpha2", "inf"), None, "alpha2", "inf"),
            ((), '{"beta": NaN}', "beta", "nan"),  # Python's json accepts NaN
        ],
    )
    def test_non_finite_hyperparameter_rejected_before_training(
        self, tmp_path, workspace, capsys, extra, config, field, value
    ):
        if config is not None:
            path = tmp_path / "run.json"
            path.write_text(config)
            extra = ("--config", str(path))
        out = tmp_path / "run"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(self.adapt_args(workspace, out, extra))
        assert code == 1
        assert capsys.readouterr().err == f"error: {field} must be finite and >= 0, got {value}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, config, message",
        [
            (
                ("--hidden-dims", "0", "--feature-dim", "0"),
                None,
                "hidden_dims (0,) disagrees with the checkpoint's (6,)",
            ),
            ((), {"hidden_dims": [5]}, "hidden_dims (5,) disagrees with the checkpoint's (6,)"),
            ((), {"feature_dim": 3}, "feature_dim 3 disagrees with the checkpoint's 4"),
        ],
        ids=["flags", "config-hidden-dims", "config-feature-dim"],
    )
    def test_model_shape_disagreeing_with_checkpoint_exits_one(
        self, tmp_path, workspace, capsys, extra, config, message
    ):
        # The workspace checkpoint has hidden_dims (6,) and feature_dim 4.
        if config is not None:
            path = tmp_path / "run.json"
            path.write_text(json.dumps(config))
            extra = ("--config", str(path))
        out = tmp_path / "run"
        capsys.readouterr()
        assert run_cli(self.adapt_args(workspace, out, extra)) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_model_shape_equal_to_checkpoint_passes(self, tmp_path, workspace):
        # A config file shared with `pretrain` names the checkpoint's shape.
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"hidden_dims": [6], "feature_dim": 4}))
        base, out = tmp_path / "base", tmp_path / "run"
        assert run_cli(self.adapt_args(workspace, base)) == 0
        assert run_cli(self.adapt_args(workspace, out, ("--config", str(path), "--hidden-dims", "6"))) == 0
        for name in ("adapted.ckpt", "losses.csv", "metrics.json"):
            assert (base / name).read_bytes() == (out / name).read_bytes()

    def test_missing_checkpoint_rejected(self, tmp_path, workspace):
        _, data_dir, _ = workspace
        code = run_cli(
            [
                "adapt",
                "--model", str(tmp_path / "nope.ckpt"),
                "--target", str(data_dir / "target.csv"),
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 1


class TestEval:
    def test_writes_metrics(self, tmp_path, workspace, capsys):
        _, data_dir, pre_dir = workspace
        out = tmp_path / "eval"
        code = run_cli(
            [
                "eval",
                "--model", str(pre_dir / "source.ckpt"),
                "--data", str(data_dir / "source.csv"),
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads((out / "metrics.json").read_text())
        for key in ("accuracy", "per_class_accuracy", "harmonic_mean", "macro_f1"):
            assert key in payload
        assert "accuracy" in capsys.readouterr().out

    def test_unlabeled_data_rejected(self, tmp_path, workspace):
        _, data_dir, pre_dir = workspace
        unlabeled = load_dataset(str(data_dir / "source.csv")).unlabeled()
        from sfda2.data import save_dataset

        path = tmp_path / "nolabel.csv"
        save_dataset(unlabeled, str(path))
        code = run_cli(
            [
                "eval",
                "--model", str(pre_dir / "source.ckpt"),
                "--data", str(path),
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 1


class TestVerifyCommand:
    def test_single_suite_pass_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report"
        code = run_cli(
            ["verify", "--suite", "gradients", "--trials", "2", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        stdout_payload = json.loads(capsys.readouterr().out)
        assert stdout_payload["passed"] is True
        file_payload = json.loads((out / "report.json").read_text())
        assert file_payload == stdout_payload
        assert file_payload["suites"][0]["suite"] == "gradients"

    def test_negative_control_exits_two(self, tmp_path, capsys):
        code = run_cli(
            ["verify", "--suite", "gradients", "--trials", "2", "--seed", "1", "--negative-control"]
        )
        assert code == 2
        assert json.loads(capsys.readouterr().out)["passed"] is False
        ifa = ["--suite", "ifa-bound", "--trials", "40", "--pairs", "10000", "--seed", "3", "--negative-control"]
        assert run_cli(["verify", *ifa]) == 2
        assert json.loads(capsys.readouterr().out)["passed"] is False

    def test_factorization_suite_via_cli(self, capsys):
        code = run_cli(["verify", "--suite", "snc-factorization", "--trials", "3", "--seed", "0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["suites"][0]["worst"] <= 1e-8

    def test_flagless_suite_keeps_the_function_defaults(self, capsys, monkeypatch):
        monkeypatch.delenv("SFDA2_SEED", raising=False)
        assert run_cli(["verify", "--suite", "snc-factorization"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["suites"] == [json.loads(verify_snc_factorization(seed=0).to_json())]

    @pytest.mark.parametrize(
        "suite, flag",
        [("snc-factorization", "--pairs"), ("gradients", "--pairs"), ("oracles", "--pairs"), ("oracles", "--trials")],
    )
    def test_flag_a_named_suite_does_not_take_is_a_usage_error(self, suite, flag, tmp_path, capsys):
        out = tmp_path / "report"
        assert run_cli(["verify", "--suite", suite, flag, "5", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"usage error: {flag} does not apply to --suite {suite}"]
        assert not out.exists()

    def test_suite_all_gives_each_suite_the_flags_it_takes(self, monkeypatch, capsys):
        calls = {}

        def recorder(name):
            def suite(**kwargs):
                calls[name] = kwargs
                return VerifyReport(suite=name, trials=1, passed=True, worst=None)
            return suite

        cli = importlib.import_module("sfda2.cli")
        for name, (function, _) in _SUITES.items():
            monkeypatch.setattr(cli, function, recorder(name))
        monkeypatch.delenv("SFDA2_SEED", raising=False)
        assert run_cli(["verify", "--trials", "2", "--pairs", "10000"]) == 0
        assert calls == {
            "ifa-bound": {"negative_control": False, "trials": 2, "n_pairs": 10000},
            "snc-factorization": {"negative_control": False, "trials": 2},
            "gradients": {"negative_control": False, "n_instances": 2},
            "oracles": {"negative_control": False},
        }

    def test_a_rebound_suite_function_is_called(self, monkeypatch, capsys):
        calls = []

        def recording(**kwargs):
            calls.append(kwargs)
            return verify_snc_factorization(**kwargs)

        monkeypatch.setattr(importlib.import_module("sfda2.cli"), "verify_snc_factorization", recording)
        assert run_cli(["verify", "--suite", "snc-factorization", "--seed", "3"]) == 0
        assert calls == [{"negative_control": False, "seed": 3}]

    def test_suites_take_only_the_seed_the_control_and_their_flags(self):
        # A suite parameter no flag sets would serve only direct callers.
        verify = importlib.import_module("sfda2.verify")
        for function, keywords in _SUITES.values():
            parameters = inspect.signature(getattr(verify, function)).parameters
            assert set(parameters) == {"seed", "negative_control", *keywords.values()}, function


class TestNegativeSeed:
    @pytest.mark.parametrize(
        "route, seed",
        [("gen-data-flag", -1), ("env", -3), ("pretrain-config", -2), ("verify-flag", -1)],
    )
    def test_each_route_exits_one_with_one_error_line(
        self, route, seed, tmp_path, monkeypatch, capsys
    ):
        out = tmp_path / "out"
        if route == "env":
            monkeypatch.setenv("SFDA2_SEED", str(seed))
        if route == "pretrain-config":
            assert run_cli(["gen-data", "--seed", "0", "--out", str(tmp_path / "data")]) == 0
            config = tmp_path / "run.json"
            config.write_text(json.dumps({"seed": seed, "epochs": 1}))
        argv = {
            "gen-data-flag": ["gen-data", "--seed", str(seed), "--out", str(out)],
            "env": ["gen-data", "--out", str(out)],
            "pretrain-config": ["pretrain", "--source", str(tmp_path / "data" / "source.csv"),
                                "--config", str(tmp_path / "run.json"), "--out", str(out)],
            "verify-flag": ["verify", "--suite", "oracles", "--seed", str(seed), "--out", str(out)],
        }[route]
        capsys.readouterr()
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: seed must be a non-negative integer, got {seed}"]
        assert not out.exists()

    @pytest.mark.parametrize("route, seed", [("flag", -1), ("config", -2)])
    def test_adapt_fails_before_reading_inputs_or_building_banks(
        self, route, seed, tmp_path, monkeypatch, capsys
    ):
        # The checkpoint and target do not exist, so reading either would
        # fail with another message.
        built = []
        monkeypatch.setattr(importlib.import_module("sfda2.adapt"), "init_banks", lambda *args: built.append(args))
        out = tmp_path / "out"
        argv = ["adapt", "--model", str(tmp_path / "missing.ckpt"), "--target", str(tmp_path / "missing.csv"),
                "--out", str(out)]
        if route == "flag":
            argv += ["--seed", str(seed)]
        else:
            config = tmp_path / "run.json"
            config.write_text(json.dumps({"seed": seed}))
            argv += ["--config", str(config)]
        capsys.readouterr()
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: seed must be a non-negative integer, got {seed}"]
        assert built == [] and not out.exists()


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run_cli(["frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert run_cli(["gen-data"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert run_cli(["gen-data", "--out", "x", "--frob", "1"]) == 1


class TestModuleEntryPoint:
    def test_python_m_sfda2_runs_a_command(self, tmp_path):
        # `python3 -m sfda2` needs no installed console script
        src = os.path.dirname(os.path.dirname(sfda2.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = tmp_path / "data"
        result = subprocess.run(
            [sys.executable, "-m", "sfda2", "gen-data", "--seed", "0", "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
            cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        assert load_dataset(str(out / "source.csv")).size == 600
        assert load_dataset(str(out / "target.csv")).size == 600

    def test_cli_import_leaves_the_thread_pool_unloaded(self):
        # `concurrent.futures` pulls in `logging`, and scipy is a test-only
        # dependency: neither the CLI's import nor an ifa-bound run, whose
        # trials run on the calling thread, may load any of them.
        src = os.path.dirname(os.path.dirname(sfda2.__file__))
        loaded = "print(sorted({m.split('.')[0] for m in sys.modules} & {'concurrent', 'logging', 'scipy'}))"
        script = (
            "import sys, io, contextlib, sfda2.cli\n"
            + loaded
            + "\nwith contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = sfda2.cli.run_cli(['verify', '--suite', 'ifa-bound', '--trials', '2', '--pairs', '10000'])\n"
            "print(code)\n" + loaded
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["[]", "0", "[]"]

    def test_cli_import_adds_only_the_standard_library_and_numpy(self):
        # NumPy is the one runtime dependency, and the import that the
        # benchmark's setup probe times loads no process or thread pool.
        src = os.path.dirname(os.path.dirname(sfda2.__file__))
        script = (
            "import sys\n"
            "before = {m.split('.')[0] for m in sys.modules}\n"
            "import sfda2.cli\n"
            "print(' '.join(sorted({m.split('.')[0] for m in sys.modules} - before)))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert result.returncode == 0, result.stderr
        added = set(result.stdout.split())
        assert {"numpy", "sfda2"} <= added
        assert {name for name in added if name not in sys.stdlib_module_names} == {"numpy", "sfda2"}
        assert not added & {"concurrent", "multiprocessing"}

    def test_diverging_pretrain_prints_one_stderr_line(self, tmp_path):
        # NumPy's overflow warnings must not precede the failure line
        src = os.path.dirname(os.path.dirname(sfda2.__file__))
        env = dict(os.environ, PYTHONPATH=src)

        def run(*argv):
            return subprocess.run(
                [sys.executable, "-m", "sfda2", *argv],
                capture_output=True,
                text=True,
                timeout=120,
                env=env,
                cwd=tmp_path,
            )

        assert run("gen-data", "--seed", "0", "--out", "data").returncode == 0
        result = run(
            "pretrain", "--source", "data/source.csv", "--seed", "0", "--lr", "50", "--out", "pre"
        )
        assert result.returncode == 1
        lines = result.stderr.splitlines()
        assert len(lines) == 1, result.stderr
        assert lines[0].startswith("numerical failure: non-finite forward pass at epoch 0")


    def test_diverging_adapt_prints_one_stderr_line(self, tmp_path):
        # README data and pretraining; lr 1e3 overflows the loss kernels
        src = os.path.dirname(os.path.dirname(sfda2.__file__))
        env = dict(os.environ, PYTHONPATH=src)

        def run(*argv):
            return subprocess.run(
                [sys.executable, "-m", "sfda2", *argv],
                capture_output=True,
                text=True,
                timeout=120,
                env=env,
                cwd=tmp_path,
            )

        assert run("gen-data", "--seed", "0", "--out", "data").returncode == 0
        pretrain = run(
            "pretrain", "--source", "data/source.csv", "--seed", "0", "--epochs", "15",
            "--lr", "0.1", "--out", "pre",
        )
        assert pretrain.returncode == 0, pretrain.stderr
        result = run(
            "adapt", "--model", "pre/source.ckpt", "--target", "data/target.csv",
            "--seed", "0", "--lr", "1e3", "--epochs", "2", "--out", "run",
        )
        assert result.returncode == 1
        lines = result.stderr.splitlines()
        assert len(lines) == 1, result.stderr
        assert lines[0].startswith("numerical failure: non-finite ")
        assert not (tmp_path / "run").exists()


    def test_diverged_checkpoint_adapt_prints_one_stderr_line(self, tmp_path, workspace):
        # Finite logits over overflowing features: the bank write, the
        # neighbour search and the class statistics must fail inside the
        # guard, with one line and no warning or traceback.
        _, data_dir, pre_dir = workspace
        model = load_checkpoint(str(pre_dir / "source.ckpt"))
        model.layers[-1].weights[...] *= 1e155
        model.layers[-1].bias[...] *= 1e155
        model.clf_weights[...] *= 1e-155
        save_checkpoint(model, str(tmp_path / "diverged.ckpt"))
        src = os.path.dirname(os.path.dirname(sfda2.__file__))
        result = subprocess.run(
            [sys.executable, "-m", "sfda2", "adapt", "--model", str(tmp_path / "diverged.ckpt"),
             "--target", str(data_dir / "target.csv"), "--seed", "0", "--k", "3",
             "--out", str(tmp_path / "run")],
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert result.returncode == 1
        lines = result.stderr.splitlines()
        assert len(lines) == 1, result.stderr
        assert lines[0].startswith("numerical failure: non-finite loss evaluation at epoch 0, iteration 0: ")
        assert not (tmp_path / "run").exists()


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        result = subprocess.run(
            ["sfda2", "verify", "--suite", "gradients", "--trials", "1", "--seed", "0"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["passed"] is True
