"""Command-line driver: data generation, training stages, sweeps, reports.

A run is fully determined by a JSON RunConfig; outputs live under
runs/<config-hash>/{config.json, data/, checkpoints/, logs/, reports/}.
Exit codes: 0 success, 1 user error (bad config, missing artifacts),
2 internal error. Failures print a machine-readable error JSON.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import analysis as an
from . import diffcore as dc
from . import pipeline as pl
from . import synthdata as sd
from .encoder import EncoderConfig, parameter_group
from .losses import LossWeights
from .moe import MoEConfig


class UserError(ValueError):
    pass


_WEIGHT_DEFAULTS = {f.name: f.default for f in fields(LossWeights)}

DEFAULT_CONFIG = {
    "data": {
        "n_train": 256,
        "n_test": 128,
        "seed": 0,
        "factor": {
            "n_shared_symbols": 4,
            "n_unique_symbols": 2,
            "seq_len": 4,
            "d_in": 16,
            "embed_noise_sigma": 0.05,
            "shared_dist": None,
            "unique_dist_m1": None,
            "unique_dist_m2": None,
        },
        "task": {"mode": "shared-only", "n_classes": 4},
    },
    "model": {
        "d_model": 32,
        "n_heads": 4,
        "n_layers": 3,
        "chi": 4,
        "rho": 4,
        "top_k": None,
        "d_ffn": None,
        "activation": "gelu",
        "seed": 0,
    },
    "specialization": {
        "epochs": 10,
        "batch_size": 64,
        "learning_rate": 0.05,
        "momentum": 0.9,
        "seed": 0,
        "weights": dict(_WEIGHT_DEFAULTS),
    },
    "selection": {
        "epochs": 5,
        "batch_size": 64,
        "learning_rate": 0.05,
        "momentum": 0.9,
        "seed": 0,
        "weights": dict(_WEIGHT_DEFAULTS),
    },
    "sweep": {
        "p_grid": [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1],
        "scope": "global",
        "n_seeds": 3,
        "batch_size": 128,
    },
}


def default_run_config() -> dict:
    return copy.deepcopy(DEFAULT_CONFIG)


def _validate_keys(cfg: dict, schema: dict, path: str = "") -> None:
    for key, value in cfg.items():
        if key not in schema:
            raise UserError(f"unknown config key {path + key!r}")
        if isinstance(schema[key], dict):
            if not isinstance(value, dict):
                raise UserError(f"config key {path + key!r} must be an object")
            _validate_keys(value, schema[key], path + key + ".")


def merge_config(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = merge_config(out[key], value)
        else:
            out[key] = value
    return out


def load_run_config(path: str | None) -> dict:
    cfg = default_run_config()
    if path is not None:
        try:
            with open(path) as f:
                user = json.load(f)
        except FileNotFoundError as e:
            raise UserError(f"config file not found: {path}") from e
        except json.JSONDecodeError as e:
            raise UserError(f"config file is not valid JSON: {e}") from e
        if not isinstance(user, dict):
            raise UserError("config root must be a JSON object")
        _validate_keys(user, DEFAULT_CONFIG)
        cfg = merge_config(cfg, user)
    return cfg


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def run_dir(cfg: dict, out: str | None) -> Path:
    root = Path(out or os.environ.get("S3_RUN_ROOT", "runs"))
    d = root / config_hash(cfg)
    for sub in ("data", "checkpoints", "logs", "reports"):
        (d / sub).mkdir(parents=True, exist_ok=True)
    with open(d / "config.json", "w") as f:
        json.dump(cfg, f, indent=2, sort_keys=True)
    return d


@contextmanager
def _invalid(what: str):
    """Report a TypeError or ValueError raised by a config check or constructor as a UserError."""
    try:
        yield
    except (TypeError, ValueError) as e:
        raise UserError(f"invalid {what}: {e}") from e


def factor_spec(cfg: dict) -> sd.FactorSpec:
    with _invalid("factor spec"):
        return sd.FactorSpec(**{k: tuple(v) if isinstance(v, list) else v for k, v in cfg["data"]["factor"].items()})


def task_spec(cfg: dict) -> sd.TaskSpec:
    with _invalid("task spec"):
        return sd.TaskSpec(**cfg["data"]["task"])


def build_model(cfg: dict) -> pl.S3Model:
    mc = cfg["model"]
    with _invalid("model config"):
        dc.require_int("model.n_layers", mc["n_layers"], 1)
        moe_cfg = MoEConfig(
            d_model=mc["d_model"],
            granularity_chi=mc["chi"],
            expansion_rho=mc["rho"],
            top_k=mc["top_k"] if mc["top_k"] is not None else mc["chi"],
            d_ffn=mc["d_ffn"],
            activation=mc["activation"],
        )
        enc_cfg = EncoderConfig(
            d_model=mc["d_model"],
            n_heads=mc["n_heads"],
            d_in=cfg["data"]["factor"]["d_in"],
            moe=moe_cfg,
            n_layers=mc["n_layers"],
        )
        return pl.S3Model(enc_cfg, enc_cfg, seed=mc["seed"])


def stage_config(cfg: dict, stage: str) -> pl.StageConfig:
    sc = cfg[stage]
    with _invalid(f"{stage} config"):
        return pl.StageConfig(stage=stage, **{**sc, "weights": LossWeights(**sc["weights"])})


def _load_split(d: Path, split: str):
    path = d / "data" / f"{split}.npz"
    if not path.exists():
        raise UserError(f"missing dataset artifact {path}; run gen-data first")
    try:
        return sd.read_dataset(path)
    except sd.DatasetError as e:
        raise UserError(f"{e}; re-run gen-data to rebuild it") from e


def _stage_inputs(cfg: dict, d: Path, stage: str):
    """The stage's config and the train split, which must fill at least one batch if the stage trains."""
    sc = stage_config(cfg, stage)
    x1, x2, y, _ = _load_split(d, "train")
    if sc.epochs >= 1 and len(x1) < sc.batch_size:
        raise UserError(f"{stage}.batch_size {sc.batch_size} exceeds the {len(x1)} training samples; no step would run")
    return sc, x1, x2, y


def _require(path: Path, hint: str) -> Path:
    if not path.exists():
        raise UserError(f"missing artifact {path}; run {hint} first")
    return path


def _save_stage(model: pl.S3Model, log: list[dict], d: Path, stage: str) -> dict:
    """Write the stage's checkpoint and its per-step log, floats to six decimals."""
    ckpt = d / "checkpoints" / f"{stage}.npz"
    model.save(ckpt)
    rows = [{k: f"{v:.6f}" if isinstance(v, float) else v for k, v in row.items()} for row in log]
    an.emit_report(rows, d / "logs" / f"{stage}.csv", list(rows[0].keys()) if rows else ["empty"])
    return {"steps": len(log), "checkpoint": str(ckpt)}


def _sweep_cells(row: dict) -> dict:
    """The p, accuracy and active_param_pct cells of one sweep row, as the CSV reports print them."""
    return {
        "p": f"{row['p']:.1f}",
        "accuracy": an.format_cell(100 * row["accuracy_mean"], 100 * row["accuracy_std"]),
        "active_param_pct": f"{row['active_param_pct']:.2f}",
    }


def cmd_gen_data(cfg: dict, d: Path) -> dict:
    with _invalid("data config"):
        dc.require_int("data.seed", cfg["data"]["seed"], 0)
        for key in ("n_train", "n_test"):
            dc.require_int(f"data.{key}", cfg["data"][key], 1)
    spec = factor_spec(cfg)
    task = task_spec(cfg)
    seed = cfg["data"]["seed"]
    train = sd.generate_dataset(cfg["data"]["n_train"], spec, task, seed=seed, codebook_seed=seed)
    test = sd.generate_dataset(cfg["data"]["n_test"], spec, task, seed=seed + 10_000, codebook_seed=seed)
    sd.write_dataset(train, d / "data" / "train.npz")
    sd.write_dataset(test, d / "data" / "test.npz")
    return {"train": str(d / "data" / "train.npz"), "n_train": len(train), "n_test": len(test)}


def cmd_pretrain(cfg: dict, d: Path) -> dict:
    sc, x1, x2, _ = _stage_inputs(cfg, d, "specialization")
    model = build_model(cfg)
    return _save_stage(model, pl.train_specialization(model, x1, x2, sc), d, "specialization")


def _load_stage_model(cfg: dict, d: Path, stage: str) -> pl.S3Model:
    hint = "pretrain" if stage == "specialization" else "select"
    ckpt = _require(d / "checkpoints" / f"{stage}.npz", hint)
    model = build_model(cfg)
    try:
        model.load(ckpt)
    except pl.CheckpointError as e:
        raise UserError(f"{e}; re-run {hint} to rebuild it") from e
    return model


def cmd_select(cfg: dict, d: Path) -> dict:
    model = _load_stage_model(cfg, d, "specialization")
    sc, x1, x2, y = _stage_inputs(cfg, d, "selection")
    if y is None:
        raise UserError("selection requires a labeled dataset")
    return _save_stage(model, pl.train_selection(model, x1, x2, y, sc), d, "selection")


def cmd_sparsify(cfg: dict, d: Path) -> dict:
    model = _load_stage_model(cfg, d, "selection")
    x1t, x2t, yt, _ = _load_split(d, "train")
    x1e, x2e, ye, _ = _load_split(d, "test")
    sw = cfg["sweep"]
    rows = pl.sparsify_sweep(
        model, (x1t, x2t, yt), (x1e, x2e, ye),
        p_list=tuple(sw["p_grid"]), scope=sw["scope"], batch_size=sw["batch_size"], n_seeds=sw["n_seeds"],
    )
    with open(d / "logs" / "sweep.json", "w") as f:
        json.dump(rows, f, indent=2)
    an.emit_report([_sweep_cells(r) for r in rows], d / "reports" / "sweep.csv", ["p", "accuracy", "active_param_pct"])
    return {"rows": len(rows), "report": str(d / "reports" / "sweep.csv")}


def cmd_probe(cfg: dict, d: Path, stage: str = "selection") -> dict:
    model = _load_stage_model(cfg, d, stage)
    x1t, x2t, yt, _ = _load_split(d, "train")
    x1e, x2e, ye, _ = _load_split(d, "test")
    zt, _ = pl.embed_dataset(model, x1t, x2t, batch_size=cfg["sweep"]["batch_size"])
    ze, _ = pl.embed_dataset(model, x1e, x2e, batch_size=cfg["sweep"]["batch_size"])
    res = pl.linear_probe(zt, yt, ze, ye, n_seeds=cfg["sweep"]["n_seeds"])
    out = {"stage": stage, "accuracy_mean": res.mean, "accuracy_std": res.std, "per_seed": res.per_seed}
    with open(d / "reports" / f"probe_{stage}.json", "w") as f:
        json.dump(out, f, indent=2)
    return out


def cmd_verify(cfg: dict, d: Path) -> dict:
    spec = factor_spec(cfg)
    checks: dict[str, bool] = {}
    j = an.DiscreteJoint(np.array([[0.4, 0.1], [0.1, 0.4]]))
    checks["dpi_identity_equality"] = an.verify_dpi(j, np.eye(2))["equality"]
    g = np.random.default_rng(0)
    ok = True
    for seed in range(200):
        t = np.random.default_rng(seed).random((3, 4))
        ch = g.random((4, 3))
        ch /= ch.sum(axis=1, keepdims=True)
        ok &= an.verify_dpi(an.DiscreteJoint(t / t.sum()), ch)["holds"]
    checks["dpi_random_joints"] = bool(ok)
    checks["mi_decomposition_exact"] = an.verify_mi_decomposition(spec, mode="exact")["holds"]
    checks["mi_decomposition_plugin"] = an.verify_mi_decomposition(spec, mode="plugin", n_samples=20_000)["holds"]
    xor_spec = sd.FactorSpec(n_shared_symbols=2, n_unique_symbols=2)
    checks["cl_limitation_xor"] = an.verify_cl_limitation(xor_spec, sd.TaskSpec(mode="unique-only", n_classes=2))["holds"]
    table = np.random.default_rng(1).standard_normal((8, 16))
    checks["infonce_bound_bijective"] = an.bound_gap_infonce(np.full(8, 1 / 8), table, batch_size=4)["holds"]
    atoms = np.random.default_rng(2).standard_normal((4, 10))
    p = np.zeros((2, 4))
    p[0, :2] = 0.25
    p[1, 2:] = 0.25
    checks["supcon_bound_clustered"] = an.bound_gap_supcon(an.DiscreteJoint(p), atoms, batch_size=8)["holds"]
    chain_ok = True
    for seed in range(20):
        t = np.random.default_rng(300 + seed).random((3, 3, 3))
        jj = an.DiscreteJoint(t / t.sum())
        lhs = an.mutual_information(jj, (0,), (1, 2))
        rhs = an.mutual_information(jj, (0,), (1,)) + an.conditional_mi(jj, (0,), (2,), (1,))
        chain_ok &= abs(lhs - rhs) <= 1e-9
    checks["mi_chain_rule"] = bool(chain_ok)
    out = {"checks": checks, "n_checks": len(checks), "all_passed": all(checks.values())}
    with open(d / "reports" / "verify.json", "w") as f:
        json.dump(out, f, indent=2)
    return out


def cmd_report(cfg: dict, d: Path, granularity_sweep: bool = False) -> dict:
    written = []
    sweep_log = d / "logs" / "sweep.json"
    if sweep_log.exists():
        with open(sweep_log) as f:
            rows = json.load(f)
        report_rows = [
            {"dataset": "synthetic", "chi": cfg["model"]["chi"], "stage": "sparsification", **_sweep_cells(r),
             "trainable_param_pct": ""}
            for r in rows
        ]
        an.emit_report(report_rows, d / "reports" / "sweep_table.csv", an.SWEEP_COLUMNS)
        written.append("sweep_table.csv")
    chis = (2, 4, 8) if granularity_sweep else (cfg["model"]["chi"],)
    param_rows = []
    for chi in chis:
        sub = merge_config(cfg, {"model": {"chi": chi, "top_k": None}})
        model = build_model(sub)
        rep = an.trainable_param_ratio(model.named_params(), parameter_group)
        param_rows.append(
            {
                "chi": chi,
                "router_params": rep["trainable_params"],
                "total_params": rep["total_params"],
                "trainable_pct": f"{rep['trainable_pct']:.4f}",
            }
        )
    an.emit_report(param_rows, d / "reports" / "params.csv", an.PARAM_COLUMNS)
    written.append("params.csv")
    return {"reports": written}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="s3moe", description=__doc__)
    parser.add_argument("--config", help="path to a RunConfig JSON file")
    parser.add_argument("--seed", type=int, help="override every stage seed")
    parser.add_argument("--out", help="output root (default: $S3_RUN_ROOT or ./runs)")
    parser.add_argument("--chi", type=int, help="override expert granularity")
    parser.add_argument("--rho", type=int, help="override expansion ratio")
    parser.add_argument("--topk", type=int, help="override router top-k")
    parser.add_argument("--p-grid", help="comma-separated preservation ratios")
    parser.add_argument("--stage", default="selection", choices=["specialization", "selection"],
                        help="checkpoint stage for probe")
    parser.add_argument("--granularity-sweep", action="store_true",
                        help="report parameter ratios for chi in {2,4,8}")
    parser.add_argument(
        "command",
        choices=["gen-data", "pretrain", "select", "sparsify", "probe", "verify", "report"],
    )
    return parser


def apply_flags(cfg: dict, args) -> dict:
    override: dict = {}
    if args.seed is not None:
        override = {
            "data": {"seed": args.seed},
            "model": {"seed": args.seed},
            "specialization": {"seed": args.seed},
            "selection": {"seed": args.seed},
        }
    model_over = {}
    if args.chi is not None:
        model_over["chi"] = args.chi
    if args.rho is not None:
        model_over["rho"] = args.rho
    if args.topk is not None:
        model_over["top_k"] = args.topk
    if model_over:
        override.setdefault("model", {}).update(model_over)
    if args.p_grid is not None:
        try:
            grid = [float(v) for v in args.p_grid.split(",") if v]
        except ValueError as e:
            raise UserError(f"invalid --p-grid: {e}") from e
        override["sweep"] = {"p_grid": grid}
    return merge_config(cfg, override)


def validate_sweep(cfg: dict) -> None:
    """Reject a bad prune scope, p grid, batch size or seed count before any stage runs."""
    sw = cfg["sweep"]
    if sw["scope"] not in pl.PRUNE_SCOPES:
        raise UserError(f"unknown sweep.scope {sw['scope']!r}; expected one of {', '.join(pl.PRUNE_SCOPES)}")
    if not isinstance(sw["p_grid"], list) or not sw["p_grid"]:
        raise UserError(f"sweep.p_grid must be a non-empty list of preservation ratios, got {sw['p_grid']!r}")
    for p in sw["p_grid"]:
        if isinstance(p, bool) or not isinstance(p, (int, float)) or not 0.0 <= p <= 1.0:
            raise UserError(f"preservation ratio {p!r} in sweep.p_grid is outside [0, 1]")
    with _invalid("sweep config"):
        for key in ("batch_size", "n_seeds"):
            dc.require_int(f"sweep.{key}", sw[key], 1)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_run_config(args.config)
        cfg = apply_flags(cfg, args)
        validate_sweep(cfg)
        d = run_dir(cfg, args.out)
        if args.command == "gen-data":
            result = cmd_gen_data(cfg, d)
        elif args.command == "pretrain":
            result = cmd_pretrain(cfg, d)
        elif args.command == "select":
            result = cmd_select(cfg, d)
        elif args.command == "sparsify":
            result = cmd_sparsify(cfg, d)
        elif args.command == "probe":
            result = cmd_probe(cfg, d, stage=args.stage)
        elif args.command == "verify":
            result = cmd_verify(cfg, d)
            print(json.dumps({"run_dir": str(d), **result}))
            return 0 if result["all_passed"] else 2
        else:
            result = cmd_report(cfg, d, granularity_sweep=args.granularity_sweep)
        print(json.dumps({"run_dir": str(d), **result}))
        return 0
    except (UserError, pl.DivergenceError) as e:
        print(json.dumps({"error": str(e), "kind": "user"}), file=sys.stderr)
        return 1
    except Exception as e:  # pragma: no cover - defensive
        print(json.dumps({"error": str(e), "kind": "internal"}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
