import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from s3moe import cli


def run(args, monkeypatch, tmp_path):
    monkeypatch.setenv("S3_RUN_ROOT", str(tmp_path / "runs"))
    return cli.main(args)


def write_config(tmp_path, overrides):
    cfg = cli.merge_config(cli.default_run_config(), overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


TINY = {
    "data": {"n_train": 48, "n_test": 24},
    "model": {"d_model": 16, "n_heads": 2, "n_layers": 2, "chi": 2, "rho": 2},
    "specialization": {"epochs": 1, "batch_size": 16},
    "selection": {"epochs": 1, "batch_size": 16},
    "sweep": {"p_grid": [1.0, 0.5], "n_seeds": 1},
}


def only_run_dir(tmp_path) -> Path:
    dirs = list((tmp_path / "runs").iterdir())
    assert len(dirs) == 1
    return dirs[0]


class TestConfig:
    def test_defaults_validate(self):
        cli._validate_keys(cli.default_run_config(), cli.DEFAULT_CONFIG)

    def test_unknown_key_rejected(self):
        with pytest.raises(cli.UserError, match="unknown config key"):
            cli._validate_keys({"modle": {}}, cli.DEFAULT_CONFIG)

    def test_nested_unknown_key_rejected(self):
        with pytest.raises(cli.UserError, match="model.granularity"):
            cli._validate_keys({"model": {"granularity": 3}}, cli.DEFAULT_CONFIG)

    def test_merge_is_deep(self):
        merged = cli.merge_config(cli.default_run_config(), {"model": {"chi": 8}})
        assert merged["model"]["chi"] == 8
        assert merged["model"]["d_model"] == cli.DEFAULT_CONFIG["model"]["d_model"]

    def test_hash_stable_and_order_free(self):
        a = {"b": 1, "a": {"y": 2, "x": 3}}
        b = {"a": {"x": 3, "y": 2}, "b": 1}
        assert cli.config_hash(a) == cli.config_hash(b)
        assert cli.config_hash(a) != cli.config_hash({"b": 2, "a": {"y": 2, "x": 3}})

    def test_missing_config_file_is_user_error(self):
        with pytest.raises(cli.UserError, match="not found"):
            cli.load_run_config("/nonexistent/config.json")

    def test_bad_json_is_user_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(cli.UserError, match="valid JSON"):
            cli.load_run_config(str(p))


class TestFlags:
    def parse(self, extra):
        return cli.build_parser().parse_args(extra + ["gen-data"])

    def test_seed_overrides_all_stages(self):
        cfg = cli.apply_flags(cli.default_run_config(), self.parse(["--seed", "9"]))
        assert cfg["data"]["seed"] == 9
        assert cfg["model"]["seed"] == 9
        assert cfg["specialization"]["seed"] == 9
        assert cfg["selection"]["seed"] == 9

    def test_chi_rho_topk(self):
        cfg = cli.apply_flags(cli.default_run_config(), self.parse(["--chi", "8", "--rho", "2", "--topk", "3"]))
        assert (cfg["model"]["chi"], cfg["model"]["rho"], cfg["model"]["top_k"]) == (8, 2, 3)

    def test_p_grid(self):
        cfg = cli.apply_flags(cli.default_run_config(), self.parse(["--p-grid", "1.0,0.5,0.25"]))
        assert cfg["sweep"]["p_grid"] == [1.0, 0.5, 0.25]

    def test_bad_p_grid(self):
        with pytest.raises(cli.UserError):
            cli.apply_flags(cli.default_run_config(), self.parse(["--p-grid", "1.0,zebra"]))


class TestCommands:
    def test_gen_data_layout_and_determinism(self, monkeypatch, tmp_path):
        cfg_path = write_config(tmp_path, TINY)
        assert run(["--config", str(cfg_path), "gen-data"], monkeypatch, tmp_path) == 0
        d = only_run_dir(tmp_path)
        for sub in ("data", "checkpoints", "logs", "reports"):
            assert (d / sub).is_dir()
        assert json.loads((d / "config.json").read_text())["data"]["n_train"] == 48
        first = hashlib.sha256((d / "data" / "train.npz").read_bytes()).hexdigest()
        assert run(["--config", str(cfg_path), "gen-data"], monkeypatch, tmp_path) == 0
        assert hashlib.sha256((d / "data" / "train.npz").read_bytes()).hexdigest() == first

    def test_gen_data_empty_dataset(self, monkeypatch, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {**TINY, "data": {**TINY["data"], "n_train": 0, "n_test": 0}})
        assert run(["--config", str(cfg_path), "gen-data"], monkeypatch, tmp_path) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "user" and "data.n_train" in err["error"]
        assert not list((only_run_dir(tmp_path) / "data").iterdir())

    def test_pretrain_without_data_is_user_error(self, monkeypatch, tmp_path, capsys):
        cfg_path = write_config(tmp_path, TINY)
        assert run(["--config", str(cfg_path), "pretrain"], monkeypatch, tmp_path) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "user" and "gen-data" in err["error"]

    def test_select_without_checkpoint_is_user_error(self, monkeypatch, tmp_path, capsys):
        cfg_path = write_config(tmp_path, TINY)
        run(["--config", str(cfg_path), "gen-data"], monkeypatch, tmp_path)
        assert run(["--config", str(cfg_path), "select"], monkeypatch, tmp_path) == 1
        assert "pretrain" in json.loads(capsys.readouterr().err)["error"]

    def test_mismatched_checkpoint_is_user_error(self, monkeypatch, tmp_path, capsys):
        cfg_path = write_config(tmp_path, TINY)
        for command in ("gen-data", "pretrain"):
            assert run(["--config", str(cfg_path), command], monkeypatch, tmp_path) == 0, command
        ckpt = only_run_dir(tmp_path) / "checkpoints" / "specialization.npz"
        data = ckpt.read_bytes()
        with np.load(ckpt) as blob:
            params = {name: blob[name] for name in blob.files}
        dropped = sorted(params)[len(params) // 2]
        nan = io.BytesIO()
        np.savez(nan, **{**params, dropped: np.full_like(params[dropped], np.nan)})
        del params[dropped]
        missing = io.BytesIO()
        np.savez(missing, **params)
        # a checkpoint missing one parameter, one cut short mid-file, an empty one, one with a NaN,
        # then a directory in the checkpoint's place
        for corrupt, named in ((missing.getvalue(), dropped), (data[:1000], str(ckpt)), (b"", str(ckpt)),
                               (nan.getvalue(), dropped), (None, str(ckpt))):
            if corrupt is None:
                ckpt.unlink()
                ckpt.mkdir()
            else:
                ckpt.write_bytes(corrupt)
            capsys.readouterr()
            assert run(["--config", str(cfg_path), "select"], monkeypatch, tmp_path) == 1
            err = json.loads(capsys.readouterr().err)
            assert err["kind"] == "user"
            assert named in err["error"] and "re-run pretrain" in err["error"]

    @pytest.mark.parametrize("command", ["probe", "sparsify"])
    def test_non_finite_checkpoint_is_user_error(self, monkeypatch, tmp_path, capsys, command):
        cfg_path = write_config(tmp_path, TINY)
        for stage in ("gen-data", "pretrain", "select"):
            assert run(["--config", str(cfg_path), stage], monkeypatch, tmp_path) == 0, stage
        ckpt = only_run_dir(tmp_path) / "checkpoints" / "selection.npz"
        with np.load(ckpt) as blob:
            params = {name: blob[name] for name in blob.files}
        params["m2/layer1/moe/router/Wg"][0, 0] = np.inf
        with open(ckpt, "wb") as f:
            np.savez(f, **params)
        capsys.readouterr()
        assert run(["--config", str(cfg_path), command], monkeypatch, tmp_path) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "user"
        assert "m2/layer1/moe/router/Wg" in err["error"] and "re-run select" in err["error"]

    @pytest.mark.parametrize("command", ["probe", "sparsify"])
    def test_split_without_labels_is_user_error(self, monkeypatch, tmp_path, capsys, command):
        cfg_path = write_config(tmp_path, TINY)
        for stage in ("gen-data", "pretrain", "select"):
            assert run(["--config", str(cfg_path), stage], monkeypatch, tmp_path) == 0, stage
        split = only_run_dir(tmp_path) / "data" / "train.npz"
        with np.load(split) as blob:
            arrays = {name: blob[name] for name in blob.files if name != "y"}
        with open(split, "wb") as f:
            np.savez(f, **arrays)
        capsys.readouterr()
        assert run(["--config", str(cfg_path), command], monkeypatch, tmp_path) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "user"
        assert str(split) in err["error"] and "lacks y" in err["error"] and "re-run gen-data" in err["error"]

    @pytest.mark.parametrize("command", ["probe", "sparsify"])
    def test_single_class_train_split_is_user_error(self, monkeypatch, tmp_path, capsys, command):
        # every shared symbol is 0, so the shared-only task gives every sample label 0
        cfg_path = write_config(tmp_path, cli.merge_config(TINY, {"data": {"factor": {"shared_dist": [1, 0, 0, 0]}}}))
        for stage in ("gen-data", "pretrain", "select"):
            assert run(["--config", str(cfg_path), stage], monkeypatch, tmp_path) == 0, stage
        capsys.readouterr()
        assert run(["--config", str(cfg_path), command], monkeypatch, tmp_path) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "user"
        assert str(only_run_dir(tmp_path) / "data" / "train.npz") in err["error"] and "two classes" in err["error"]

    def test_gen_data_noise_overflowing_float32_is_user_error(self, monkeypatch, tmp_path, capsys):
        # the warnings filter turns an escaped overflow warning into a failure
        cfg_path = write_config(tmp_path, cli.merge_config(TINY, {"data": {"factor": {"embed_noise_sigma": 1e39}}}))
        assert run(["--config", str(cfg_path), "gen-data"], monkeypatch, tmp_path) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "user" and "data.factor.embed_noise_sigma" in err["error"]
        assert not list((only_run_dir(tmp_path) / "data").iterdir())

    def test_unreadable_sweep_log_is_user_error(self, monkeypatch, tmp_path, capsys):
        cfg_path = write_config(tmp_path, TINY)
        for command in ("gen-data", "pretrain", "select", "sparsify"):
            assert run(["--config", str(cfg_path), command], monkeypatch, tmp_path) == 0, command
        log = only_run_dir(tmp_path) / "logs" / "sweep.json"
        text = log.read_text()
        # a log cut short mid-file, one that is not a list of rows, then a row without its accuracy
        for corrupt in (text[:50], '{"p": 1.0}', '[{"p": 1.0, "active_param_pct": 100.0}]'):
            log.write_text(corrupt)
            capsys.readouterr()
            assert run(["--config", str(cfg_path), "report"], monkeypatch, tmp_path) == 1
            err = json.loads(capsys.readouterr().err)
            assert err["kind"] == "user"
            assert str(log) in err["error"] and "re-run sparsify" in err["error"]

    def test_corrupt_data_split_is_user_error(self, monkeypatch, tmp_path, capsys):
        cfg_path = write_config(tmp_path, TINY)
        assert run(["--config", str(cfg_path), "gen-data"], monkeypatch, tmp_path) == 0
        (split,) = (only_run_dir(tmp_path) / "data").glob("train.*")
        data = split.read_bytes()
        no_x1 = io.BytesIO()
        np.savez(no_x1, x2=np.zeros((48, 4, 16), np.float32))
        nan_token = io.BytesIO()
        with np.load(split) as blob:
            arrays = {name: blob[name] for name in blob.files}
        other_shapes = [io.BytesIO(), io.BytesIO()]
        # tokens as a split made with data.factor.d_in 8 has them, then no tokens at all
        for f, tokens in zip(other_shapes, ((4, 8), (0, 16))):
            x = np.ones((48, *tokens), np.float32)
            np.savez(f, **{**arrays, "x1": x, "x2": x})
        arrays["x1"][5, 2, 7] = np.nan
        np.savez(nan_token, **arrays)
        # a split cut short mid-file, an empty one, an archive missing x1, one NaN token, then the other shapes
        for corrupt in (data[: len(data) // 2], b"", no_x1.getvalue(), nan_token.getvalue(),
                        *(f.getvalue() for f in other_shapes)):
            split.write_bytes(corrupt)
            capsys.readouterr()
            assert run(["--config", str(cfg_path), "pretrain"], monkeypatch, tmp_path) == 1
            err = json.loads(capsys.readouterr().err)
            assert err["kind"] == "user"
            assert str(split) in err["error"] and "re-run gen-data" in err["error"]

    @pytest.mark.parametrize("command, blocked", [
        ("pretrain", "checkpoints/specialization.npz"),
        ("pretrain", "logs/specialization.csv"),
        ("report", "reports/params.csv"),
    ], ids=["checkpoint", "log", "report"])
    def test_unwritable_output_is_user_error(self, monkeypatch, tmp_path, capsys, command, blocked):
        cfg_path = write_config(tmp_path, TINY)
        assert run(["--config", str(cfg_path), "gen-data"], monkeypatch, tmp_path) == 0
        path = only_run_dir(tmp_path) / blocked
        path.mkdir()
        capsys.readouterr()
        assert run(["--config", str(cfg_path), command], monkeypatch, tmp_path) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "user" and str(path) in err["error"]

    def test_out_is_a_file_is_user_error(self, monkeypatch, tmp_path, capsys):
        out = tmp_path / "afile"
        out.write_text("")
        assert run(["--out", str(out), "gen-data"], monkeypatch, tmp_path) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "user" and str(out) in err["error"]

    @pytest.mark.parametrize("flags, overrides", [
        ([], {"sweep": {"scope": "bogus"}}),
        (["--p-grid", "1.5,0.5"], {}),
        ([], {"sweep": {"batch_size": 0}}),
        ([], {"sweep": {"n_seeds": 0}}),
        ([], {"sweep": {"p_grid": [True, 0.5]}}),
    ], ids=["unknown-scope", "p-above-one", "batch-size-zero", "no-probe-seeds", "p-bool"])
    def test_bad_sweep_setting_is_user_error_before_any_stage(self, monkeypatch, tmp_path, capsys, flags, overrides):
        cfg_path = write_config(tmp_path, cli.merge_config(TINY, overrides))
        assert run(["--config", str(cfg_path), *flags, "gen-data"], monkeypatch, tmp_path) == 1
        assert json.loads(capsys.readouterr().err)["kind"] == "user"
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("args", [
        ["--config", "{tmp}", "gen-data"],
        ["--config", "{tmp}/latin1.json", "gen-data"],
        ["--chi", "abc", "gen-data"],
        ["train"],
        [],
    ], ids=["config-is-directory", "config-not-utf8", "chi-not-int", "unknown-command", "no-command"])
    def test_bad_command_line_is_user_error(self, monkeypatch, tmp_path, capsys, args):
        # exit 1 with one JSON error on stderr, before any run directory is made
        (tmp_path / "latin1.json").write_bytes(b'{"data": "\xff"}')
        assert run([a.format(tmp=tmp_path) for a in args], monkeypatch, tmp_path) == 1
        assert json.loads(capsys.readouterr().err)["kind"] == "user"
        assert not (tmp_path / "runs").exists()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["--help"])
        assert exit_info.value.code == 0 and "gen-data" in capsys.readouterr().out

    @pytest.mark.parametrize("overrides, last", [
        ({"model": {"top_k": "2"}}, "pretrain"),
        ({"model": {"n_layers": 0}}, "select"),
        ({"data": {"n_train": 0}}, "gen-data"),
        ({"data": {"n_test": 0}}, "gen-data"),
        ({"specialization": {"batch_size": 64}}, "pretrain"),
        ({"selection": {"batch_size": 64}}, "select"),
        ({"sweep": {"p_grid": []}}, "sparsify"),
        ({"data": {"seed": "x"}}, "gen-data"),
        ({"data": {"seed": -1}}, "gen-data"),
        ({"data": {"n_train": "8"}}, "gen-data"),
        ({"data": {"n_test": 2.5}}, "gen-data"),
        ({"data": {"n_train": -5}}, "gen-data"),
        ({"specialization": {"seed": -1}}, "pretrain"),
        ({"specialization": {"seed": "x"}}, "pretrain"),
        ({"selection": {"seed": "x"}}, "select"),
        ({"model": {"n_heads": 0}}, "pretrain"),
        ({"model": {"n_heads": -1}}, "pretrain"),
        ({"model": {"n_heads": 2.0}}, "pretrain"),
        ({"model": {"top_k": 2.0}}, "pretrain"),
        ({"model": {"d_model": 0}}, "pretrain"),
        ({"specialization": {"epochs": 1.5}}, "pretrain"),
        ({"specialization": {"batch_size": 16.5}}, "pretrain"),
        ({"data": {"factor": {"seq_len": 2.5}}}, "gen-data"),
        ({"data": {"factor": {"d_in": 16.0}}}, "gen-data"),
        ({"data": {"task": {"n_classes": 2.5}}}, "gen-data"),
        ({"specialization": {"momentum": "x"}}, "pretrain"),
        ({"specialization": {"momentum": -0.5}}, "pretrain"),
        ({"specialization": {"momentum": True}}, "pretrain"),
        ({"specialization": {"momentum": 1.0}}, "pretrain"),
        ({"specialization": {"learning_rate": True}}, "pretrain"),
        ({"specialization": {"weights": {"tau": True}}}, "pretrain"),
        ({"specialization": {"weights": {"tau": float("inf")}}}, "pretrain"),
        ({"specialization": {"weights": {"lambda_aux": True}}}, "pretrain"),
        ({"specialization": {"weights": {"lambda_aux": "x"}}}, "pretrain"),
        ({"selection": {"weights": {"lambda_rep": 1.0}}}, "gen-data"),
        ({"data": {"factor": {"embed_noise_sigma": float("nan")}}}, "gen-data"),
        ({"data": {"factor": {"embed_noise_sigma": float("inf")}}}, "gen-data"),
        ({"data": {"factor": {"embed_noise_sigma": True}}}, "gen-data"),
        ({"model": {"seed": 1.7}}, "pretrain"),
        ({"model": {"seed": True}}, "pretrain"),
        ({"model": {"seed": "3"}}, "pretrain"),
    ], ids=["top-k-string", "no-layers", "empty-train-split", "empty-test-split",
            "pretrain-batch-above-split", "select-batch-above-split", "empty-p-grid",
            "data-seed-string", "data-seed-negative", "n-train-string", "n-test-float", "n-train-negative",
            "pretrain-seed-negative", "pretrain-seed-string", "select-seed-string",
            "heads-zero", "heads-negative", "heads-float", "top-k-float", "d-model-zero",
            "epochs-float", "batch-size-float", "seq-len-float", "d-in-float", "n-classes-float",
            "momentum-string", "momentum-negative", "momentum-bool", "momentum-one", "learning-rate-bool",
            "tau-bool", "tau-inf", "lambda-bool", "lambda-string", "select-unread-lambda",
            "sigma-nan", "sigma-inf", "sigma-bool", "model-seed-float", "model-seed-bool", "model-seed-string"])
    def test_bad_config_is_user_error(self, monkeypatch, tmp_path, capsys, overrides, last):
        # the chain up to `last` must stop with exit 1 and a user error, never exit 2 or train nothing
        cfg_path = write_config(tmp_path, cli.merge_config(TINY, overrides))
        chain = ("gen-data", "pretrain", "select", "sparsify")
        for command in chain[: chain.index(last) + 1]:
            code = run(["--config", str(cfg_path), command], monkeypatch, tmp_path)
            if code:
                break
        assert code == 1, command
        assert json.loads(capsys.readouterr().err)["kind"] == "user"

    @pytest.mark.parametrize("seed", [0, 1])
    def test_default_splits_are_pinned(self, monkeypatch, tmp_path, capsys, seed):
        # sha256 over the x1, x2, y and latents bytes of each split the default RunConfig writes;
        # a re-seeded or re-ordered draw changes them
        pinned = {
            (0, "train"): "c43f41e7b943fa0c4b17ffcbe56cc35a4d215d261c19f5550bd41b86ebc83868",
            (0, "test"): "b21615484823119a5f3be7168294dc5bcfcd90bb02ac1e30ceff4cfe640c79fa",
            (1, "train"): "36d303f6aa06387e7b46e6ae1210132d8472f6ecd9b48843bd620125bbfa97d9",
            (1, "test"): "d749086b6989808f877471df07f96ffb49552370f2b0775e4fd66fe80948ab06",
        }
        cfg_path = write_config(tmp_path, {"data": {"seed": seed}})
        assert run(["--config", str(cfg_path), "gen-data"], monkeypatch, tmp_path) == 0
        for split, n in (("train", 256), ("test", 128)):
            with np.load(only_run_dir(tmp_path) / "data" / f"{split}.npz") as blob:
                arrays = [blob[name] for name in ("x1", "x2", "y", "latents")]
            assert [(a.dtype.str, a.shape) for a in arrays] == [
                ("<f4", (n, 4, 16)), ("<f4", (n, 4, 16)), ("<i8", (n,)), ("<i8", (n, 3))
            ]
            digest = hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()
            assert digest == pinned[seed, split], split

    def test_full_chain(self, monkeypatch, tmp_path, capsys):
        cfg_path = write_config(tmp_path, TINY)
        for command in ("gen-data", "pretrain", "select", "sparsify", "probe", "report"):
            assert run(["--config", str(cfg_path), command], monkeypatch, tmp_path) == 0, command
        d = only_run_dir(tmp_path)
        assert (d / "checkpoints" / "specialization.npz").exists()
        assert (d / "checkpoints" / "selection.npz").exists()
        assert (d / "logs" / "specialization.csv").read_text().startswith("step,")
        sweep = (d / "reports" / "sweep.csv").read_text().splitlines()
        assert sweep[0] == "p,accuracy,active_param_pct"
        assert len(sweep) == 3
        probe = json.loads((d / "reports" / "probe_selection.json").read_text())
        assert 0.0 <= probe["accuracy_mean"] <= 1.0
        table = (d / "reports" / "sweep_table.csv").read_text().splitlines()
        assert table[0] == ",".join(cli.__dict__["an"].SWEEP_COLUMNS)
        out = capsys.readouterr().out
        assert '"run_dir"' in out

    def test_low_p_grid_prints_distinct_cells(self, monkeypatch, tmp_path):
        # one decimal would print 0.07 and 0.05 both as 0.1, and 0.03 as 0.0
        cfg_path = write_config(tmp_path, TINY)
        flags = ["--config", str(cfg_path), "--p-grid", "1.0,0.07,0.05,0.03"]
        for command in ("gen-data", "pretrain", "select", "sparsify", "report"):
            assert run(flags + [command], monkeypatch, tmp_path) == 0, command
        d = only_run_dir(tmp_path)
        for report in ("sweep.csv", "sweep_table.csv"):
            with open(d / "reports" / report) as f:
                assert [row["p"] for row in csv.DictReader(f)] == ["1.0", "0.07", "0.05", "0.03"], report

    def test_verify_passes(self, monkeypatch, tmp_path, capsys):
        cfg_path = write_config(tmp_path, TINY)
        assert run(["--config", str(cfg_path), "verify"], monkeypatch, tmp_path) == 0
        d = only_run_dir(tmp_path)
        report = json.loads((d / "reports" / "verify.json").read_text())
        assert report["n_checks"] >= 8
        assert report["all_passed"]
        assert all(report["checks"].values())
        # the sampled checks record the numbers they compared
        assert {name: sorted(v) for name, v in report["values"].items()} == {
            "mi_decomposition_plugin": ["h_shared", "i_x1x2"],
            "infonce_bound_bijective": ["i_exact", "max_bound"],
            "supcon_bound_clustered": ["i_exact", "max_bound"],
        }

    def test_granularity_sweep_report(self, monkeypatch, tmp_path):
        cfg_path = write_config(tmp_path, TINY)
        assert run(["--config", str(cfg_path), "--granularity-sweep", "report"], monkeypatch, tmp_path) == 0
        d = only_run_dir(tmp_path)
        rows = (d / "reports" / "params.csv").read_text().splitlines()
        assert rows[0] == "chi,router_params,total_params,trainable_pct"
        assert [r.split(",")[0] for r in rows[1:]] == ["2", "4", "8"]

    def test_invalid_model_config_is_user_error(self, monkeypatch, tmp_path, capsys):
        bad = {**TINY, "model": {**TINY["model"], "chi": 7}}
        cfg_path = write_config(tmp_path, bad)
        assert run(["--config", str(cfg_path), "verify"], monkeypatch, tmp_path) in (0, 1)
        # chi=7 only bites when a model is built
        assert run(["--config", str(cfg_path), "gen-data"], monkeypatch, tmp_path) == 0
        assert run(["--config", str(cfg_path), "pretrain"], monkeypatch, tmp_path) == 1
        assert json.loads(capsys.readouterr().err)["kind"] == "user"


class TestDeterminism:
    def test_repeat_run_identical_csv(self, monkeypatch, tmp_path):
        cfg_path = write_config(tmp_path, TINY)
        for command in ("gen-data", "pretrain"):
            run(["--config", str(cfg_path), command], monkeypatch, tmp_path)
        d = only_run_dir(tmp_path)
        log = d / "logs" / "specialization.csv"
        first = hashlib.sha256(log.read_bytes()).hexdigest()
        run(["--config", str(cfg_path), "pretrain"], monkeypatch, tmp_path)
        assert hashlib.sha256(log.read_bytes()).hexdigest() == first


def test_runtime_needs_numpy_only():
    # scipy is a test dependency: importing the CLI must not load it, and it must not be a runtime dependency
    src = Path(cli.__file__).resolve().parents[1]
    probe = "import sys, s3moe.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((src.parent / "pyproject.toml").read_text())["project"]
    assert [re.match(r"[\w.-]+", d).group() for d in project["dependencies"]] == ["numpy"]
