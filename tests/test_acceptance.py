"""End-to-end acceptance suite.

Each criterion prints a single PASS/FAIL line so the suite doubles as a
checklist when run with `pytest -s tests/test_acceptance.py`.
"""

import hashlib
import json
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

from s3moe import analysis as an
from s3moe import cli
from s3moe import diffcore as dc
from s3moe import losses as ls
from s3moe import pipeline as pl
from s3moe import synthdata as sd
from s3moe.diffcore import Tensor
from s3moe.encoder import EncoderConfig, parameter_group
from s3moe.moe import MoEConfig, MoELayer, active_params_per_token

from conftest import check_grad, dense_ffn, expert_views, finite_difference_grad, retained_ids


def _verdict(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num:2d}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _case(tag: str, i: int) -> np.random.Generator:
    return np.random.default_rng(zlib.crc32(f"{tag}:{i}".encode()))


def _dims(g, lo=2, hi=8):
    return int(g.integers(lo, hi + 1))


# ---------------------------------------------------------------- criterion 1


def _op_cases(tag: str, i: int):
    """One (fn, x0) finite-difference case for the named op."""
    g = _case(tag, i)
    n, m = _dims(g, 2, 6), _dims(g, 2, 6)

    def r(shape, scale=1.0):
        return (g.standard_normal(shape) * scale).astype(np.float32)

    w = Tensor(r((n, m)))
    if tag == "matmul":
        b = Tensor(r((m, n)))
        return lambda x: dc.tsum(dc.matmul(x, b)), r((n, m))
    if tag == "add":
        b = Tensor(r((n, m)))
        return lambda x: dc.tsum(dc.mul(dc.add(x, b), w)), r((n, m))
    if tag == "add_bias":
        a = Tensor(r((n, m)))
        return lambda x: dc.tsum(dc.mul(dc.add(a, x), w)), r((m,))
    if tag == "add_col":
        a = Tensor(r((n, m)))
        return lambda x: dc.tsum(dc.mul(dc.add_col(a, x), w)), r((n,))
    if tag == "mul":
        b = Tensor(r((n, m)))
        return lambda x: dc.tsum(dc.mul(dc.mul(x, b), w)), r((n, m))
    if tag == "div":
        num = Tensor(r((m,)))
        return lambda x: dc.tsum(dc.div(num, dc.add(dc.mul(x, x), Tensor(np.ones(m, np.float32))))), r((m,))
    if tag == "scale_rows":
        s = Tensor(r((n,)))
        return lambda x: dc.tsum(dc.mul(dc.scale_rows(x, s), w)), r((n, m))
    if tag == "relu":
        x0 = r((n, m))
        x0 = x0 + np.sign(x0) * np.float32(0.05)  # keep clear of the kink
        return lambda x: dc.tsum(dc.mul(dc.relu(x), w)), x0
    if tag == "gelu":
        return lambda x: dc.tsum(dc.mul(dc.gelu(x), w)), r((n, m))
    if tag == "exp":
        return lambda x: dc.tsum(dc.exp(x)), r((n, m), 0.5)
    if tag == "log":
        return lambda x: dc.tsum(dc.log(dc.add(dc.mul(x, x), Tensor(np.ones(m, np.float32))))), r((m,))
    if tag == "tsum_axis":
        v = Tensor(r((m,)))
        return lambda x: dc.tsum(dc.mul(dc.tsum(x, axis=0), v)), r((n, m))
    if tag == "mean":
        return lambda x: dc.mean(dc.mul(x, x)), r((m,))
    if tag == "softmax":
        v = Tensor(r((n, m)))
        return lambda x: dc.tsum(dc.mul(dc.softmax(x, axis=-1), v)), r((n, m))
    if tag == "log_softmax":
        v = Tensor(r((n, m)))
        return lambda x: dc.tsum(dc.mul(dc.log_softmax(x, axis=-1), v)), r((n, m))
    if tag == "l2_normalize":
        v = Tensor(r((m,)))
        return lambda x: dc.tsum(dc.mul(dc.l2_normalize(x), v)), r((m,)) + 2.0
    if tag == "layer_norm":
        m = max(m, 3)  # width 2 normalizes to +-1, a piecewise-constant map
        gain, bias = Tensor(r((m,))), Tensor(r((m,)))
        v = Tensor(r((n, m)))
        # stagger the rows so the per-row variance stays well conditioned
        x0 = r((n, m), 0.3) + np.linspace(-2.0, 2.0, m, dtype=np.float32)
        return lambda x: dc.tsum(dc.mul(dc.layer_norm(x, gain, bias), v)), x0
    if tag == "gather_rows":
        rows = g.integers(0, n, size=n + 1)
        v = Tensor(r((n + 1, m)))
        return lambda x: dc.tsum(dc.mul(dc.gather_rows(x, rows), v)), r((n, m))
    if tag == "gather_cols":
        cols = g.integers(0, m, size=(n, 2))
        v = Tensor(r((n, 2)))
        return lambda x: dc.tsum(dc.mul(dc.gather_cols(x, cols), v)), r((n, m))
    if tag == "index_add":
        idx = g.integers(0, n, size=n + 1)
        v = Tensor(r((n, m)))
        return lambda x: dc.tsum(dc.mul(dc.index_add(n, idx, x), v)), r((n + 1, m))
    if tag == "entropy":
        p = g.random(m) + 0.5
        return lambda x: dc.entropy(x), (p / p.sum()).astype(np.float32)
    if tag == "normal_cdf":
        v = Tensor(r((m,)))
        return lambda x: dc.tsum(dc.mul(dc.normal_cdf(x), v)), r((m,))
    if tag == "concat":
        v = Tensor(r((2 * n, m)))
        return lambda x: dc.tsum(dc.mul(dc.concat([x, x], axis=0), v)), r((n, m))
    if tag == "transpose":
        v = Tensor(r((m, n)))
        return lambda x: dc.tsum(dc.mul(dc.transpose(x), v)), r((n, m))
    if tag == "reshape":
        v = Tensor(r((n * m,)))
        return lambda x: dc.tsum(dc.mul(dc.reshape(x, (n * m,)), v)), r((n, m))
    if tag == "neg":
        v = Tensor(r((m,)))
        return lambda x: dc.tsum(dc.mul(dc.neg(x), v)), r((m,))
    raise KeyError(tag)


def _load_loss_f64(noisy: np.ndarray, k: int, sigma: float):
    """Independent float64 reference for the noisy top-k load loss."""
    from scipy.stats import norm

    noisy = noisy.astype(np.float64)

    def fn(clean: np.ndarray) -> float:
        clean = clean.astype(np.float64)
        n, e = clean.shape
        loads = np.zeros(e)
        for row in range(n):
            order = np.argsort(-noisy[row], kind="stable")
            top = set(order[:k].tolist())
            vals = noisy[row][order]
            for i in range(e):
                thr = vals[k] if i in top else vals[k - 1]
                loads[i] += norm.cdf((clean[row, i] - thr) / sigma)
        mu = loads.mean()
        return float((np.mean(loads**2) - mu**2) / mu**2)

    return fn


def _loss_cases(tag: str, i: int):
    g = _case(tag, i)
    b = 2 * _dims(g, 2, 4)  # even batch so every class can have two members
    d = _dims(g, 2, 6)
    e = _dims(g, 3, 6)

    def r(shape, scale=1.0):
        return (g.standard_normal(shape) * scale).astype(np.float32)

    labels = np.repeat(np.arange(b // 2), 2)
    if tag == "info_nce":
        dst = Tensor(r((b, d)))
        return lambda x: ls.info_nce(x, dst, tau=0.5), r((b, d))
    if tag == "sup_con":
        dst = Tensor(r((b, d)))
        return lambda x: ls.sup_con(x, dst, labels, tau=0.5, include_self=True), r((b, d))
    if tag == "compactness":
        dst = Tensor(r((b, d)) + 0.5)
        return lambda x: ls.compactness(x, dst, labels), r((b, d))
    if tag == "compactness_dst":
        src = Tensor(r((b, d)))
        return lambda x: ls.compactness(src, x, labels), r((b, d)) + 0.5
    if tag == "cv_squared":
        return lambda x: ls.cv_squared(x), (g.random(e) + 0.5).astype(np.float32)
    if tag == "importance":
        return lambda x: ls.importance_loss(dc.softmax(x, axis=-1)), r((b, e))
    if tag == "load":
        clean0 = r((b, e)) + np.linspace(0.0, 2.0, e, dtype=np.float32)
        noisy = clean0 + r((b, e), 0.3)
        k = int(g.integers(1, e))
        return (lambda x: ls.load_loss_from_logits(x, noisy, k=k, sigma=0.25),
                clean0, _load_loss_f64(noisy, k, 0.25))
    if tag == "local_entropy":
        return lambda x: ls.local_entropy_loss(dc.softmax(x, axis=-1)), r((b, e))
    if tag == "global_entropy":
        # skew the marginal; a uniform marginal is a stationary point of -H
        x0 = r((b, e)) + np.linspace(0.0, 1.5, e, dtype=np.float32)
        return lambda x: ls.global_entropy_loss(dc.softmax(x, axis=-1)), x0
    raise KeyError(tag)


OP_TAGS = [
    "matmul", "add", "add_bias", "add_col", "mul", "div", "scale_rows", "relu",
    "gelu", "exp", "log", "tsum_axis", "mean", "softmax", "log_softmax",
    "l2_normalize", "layer_norm", "gather_rows", "gather_cols", "index_add",
    "entropy", "normal_cdf", "concat", "transpose", "reshape", "neg",
]
LOSS_TAGS = [
    "info_nce", "sup_con", "compactness", "compactness_dst", "cv_squared",
    "importance", "load", "local_entropy", "global_entropy",
]


def _check_grad_fd(fn, x0):
    # float32 forward roundoff can dominate at a single step size, so the
    # comparison may use any reasonable central-difference step
    last = None
    for h in (1e-2, 2e-2, 5e-3):
        try:
            check_grad(fn, x0, h=h)
            return
        except AssertionError as e:
            last = e
    raise last


@pytest.mark.slow
def test_criterion_1_gradient_suite():
    start = time.monotonic()
    for tag in OP_TAGS:
        for i in range(50):
            fn, x0 = _op_cases(tag, i)
            _check_grad_fd(fn, x0)
    for tag in LOSS_TAGS:
        for i in range(50):
            case = _loss_cases(tag, i)
            if len(case) == 3:
                fn, x0, ref_fn = case
                leaf = Tensor(x0, requires_grad=True)
                fn(leaf).backward()
                numeric = finite_difference_grad(ref_fn, x0, h=1e-5)
                err = np.linalg.norm(leaf.grad - numeric) / max(np.linalg.norm(numeric), 1e-4)
                assert err <= 1e-3, f"{tag} case {i}: rel err {err:.2e}"
            else:
                _check_grad_fd(*case)
    elapsed = time.monotonic() - start
    _verdict(1, "finite-difference gradient suite, 50 cases per op and loss",
             elapsed < 60, f"{len(OP_TAGS) + len(LOSS_TAGS)} targets in {elapsed:.1f}s")


# ------------------------------------------------------------- criteria 2-5


def test_criterion_2_infonce_bound():
    g = np.random.default_rng(0)
    bijective = g.standard_normal((8, 12))
    collapsed = np.concatenate([bijective[:4], bijective[:4]])
    skew = np.array([0.4, 0.2, 0.1, 0.1, 0.05, 0.05, 0.05, 0.05])
    results = [
        an.bound_gap_infonce(np.full(8, 1 / 8), bijective, batch_size=16, n_batches=100),
        an.bound_gap_infonce(skew, bijective, batch_size=16, n_batches=100),
        an.bound_gap_infonce(np.full(8, 1 / 8), collapsed, batch_size=16, n_batches=100),
    ]
    detail = ", ".join(f"bound {r['max_bound']:.3f} <= I {r['i_exact']:.3f}+0.1" for r in results)
    _verdict(2, "InfoNCE stays a lower bound on I(X;Z) over 3 joints x 100 batches",
             all(r["holds"] for r in results), detail)


def test_criterion_3_supcon_bound():
    g = np.random.default_rng(1)
    results = []
    for n_y, per_class in ((2, 4), (3, 6), (4, 8)):
        atoms = g.standard_normal((n_y * per_class, 10))
        p = np.zeros((n_y, n_y * per_class))
        for y in range(n_y):
            p[y, y * per_class:(y + 1) * per_class] = 1.0 / (n_y * per_class)
        results.append(an.bound_gap_supcon(an.DiscreteJoint(p), atoms, batch_size=12, n_batches=100))
    detail = ", ".join(f"bound {r['max_bound']:.3f} <= I {r['i_exact']:.3f}+0.15" for r in results)
    _verdict(3, "SupCon stays a lower bound on I(Z;Y) over 3 joints x 100 batches",
             all(r["holds"] for r in results), detail)


def test_criterion_4_data_processing_inequality():
    g = np.random.default_rng(2)
    ok = True
    for _ in range(200):
        n_y, n_x, n_z = g.integers(2, 6, size=3)
        table = g.random((n_y, n_x))
        channel = g.random((n_x, n_z))
        channel /= channel.sum(axis=1, keepdims=True)
        ok &= an.verify_dpi(an.DiscreteJoint(table / table.sum()), channel)["holds"]
    t = g.random((3, 4))
    eq = an.verify_dpi(an.DiscreteJoint(t / t.sum()), np.eye(4))
    _verdict(4, "DPI holds on 200 random joints; equality flagged for Z = X",
             bool(ok) and eq["equality"] and eq["holds"])


def test_criterion_5_cross_modal_mi_equals_shared_entropy():
    uniform = sd.FactorSpec(n_shared_symbols=4, n_unique_symbols=3)
    skewed = sd.FactorSpec(n_shared_symbols=3, n_unique_symbols=4,
                           shared_dist=(0.6, 0.3, 0.1))
    exact = [an.verify_mi_decomposition(s, mode="exact") for s in (uniform, skewed)]
    plug = an.verify_mi_decomposition(uniform, mode="plugin", n_samples=100_000)
    _verdict(5, "I(X1;X2) = H(X_S): exact within 1e-9, plug-in within 0.05 nat at 1e5 samples",
             all(r["holds"] for r in exact) and plug["holds"],
             f"exact gaps {exact[0]['gap']:.1e}/{exact[1]['gap']:.1e}, plug-in gap {plug['gap']:.3f}")


# ---------------------------------------------------------------- criterion 6


@pytest.mark.slow
def test_criterion_6_unique_information_gap():
    xor = an.verify_cl_limitation(
        sd.FactorSpec(n_shared_symbols=2, n_unique_symbols=2),
        sd.TaskSpec(mode="unique-only", n_classes=2),
    )
    exact_ok = abs(xor["gap"] - np.log(2)) <= 1e-9 and xor["i_shared"] <= 1e-9 and xor["holds"]

    # unique-only task where the label is carried almost entirely by u1;
    # heavy embedding noise plus a narrow d_model force the pretraining
    # objective to choose what survives in the representation
    u2 = tuple([0.93] + [0.01] * 7)
    spec = sd.FactorSpec(n_shared_symbols=4, n_unique_symbols=8, seq_len=4, d_in=16,
                         embed_noise_sigma=1.0, unique_dist_m2=u2)
    task = sd.TaskSpec(mode="unique-only", n_classes=8)
    x1t, x2t, yt, _ = sd.generate_dataset(512, spec, task, seed=0)
    x1e, x2e, ye, _ = sd.generate_dataset(256, spec, task, seed=10_000, codebook_seed=0)

    def make_model(seed):
        mc = MoEConfig(d_model=8, granularity_chi=2, expansion_rho=2, top_k=2)
        ec = EncoderConfig(n_heads=2, d_in=16, moe=mc, n_layers=2)
        return pl.S3Model(ec, seed=seed)

    def probe_acc(model):
        zt, _ = pl.embed_dataset(model, x1t, x2t)
        ze, _ = pl.embed_dataset(model, x1e, x2e)
        return pl.linear_probe(zt, yt, ze, ye, n_seeds=1).mean

    arms = {
        "full": ls.LossWeights(),
        "dsc_only": ls.LossWeights(lambda_rep=0.0, lambda_aux=0.0),
    }
    accs = {tag: [] for tag in arms}
    for seed in range(3):
        for tag, weights in arms.items():
            model = make_model(seed)
            cfg = pl.StageConfig(stage="specialization", epochs=40, batch_size=64,
                                 learning_rate=0.1, seed=seed, weights=weights,
                                 routing_noise=0.0, input_jitter=1.0)
            pl.train_specialization(model, x1t, x2t, cfg)
            accs[tag].append(probe_acc(model))
    gap = float(np.mean(accs["full"]) - np.mean(accs["dsc_only"]))
    _verdict(6, "XOR gap = ln 2 exactly; cross-modal-only pretraining trails full training >= 20pt",
             exact_ok and gap >= 0.20,
             f"full {100 * np.mean(accs['full']):.1f}% vs dsc-only {100 * np.mean(accs['dsc_only']):.1f}%")


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_architecture_arithmetic():
    cfg = MoEConfig(d_model=64, granularity_chi=8, expansion_rho=8, top_k=8, d_ffn=512)
    counts_ok = cfg.n_experts == 64 and cfg.d_expert == 64
    parity = active_params_per_token(cfg, k=cfg.granularity_chi)
    parity_ok = parity["active_weight_params"] == cfg.dense_ffn_weight_count == 2 * 64 * 512

    dense_cfg = MoEConfig(d_model=16, granularity_chi=1, expansion_rho=1, top_k=1, d_ffn=32)
    layer = MoELayer(dense_cfg, dc.RngState(3))
    x = Tensor(np.random.default_rng(4).standard_normal((5, 16)).astype(np.float32))
    moe_out, routing = layer.forward(x)
    ex = expert_views(layer)[0]
    ffn_out = dense_ffn(x, ex["W1"], ex["b1"], ex["W2"], ex["b2"])
    max_dev = float(np.max(np.abs(moe_out.data - ffn_out.data)))
    _verdict(7, "N_expert = chi*rho; k=chi matches dense weight count; MoE(1,1,1) == dense FFN",
             counts_ok and parity_ok and max_dev <= 1e-6, f"max deviation {max_dev:.2e}")


# ---------------------------------------------------------------- criterion 8


def _tiny_trained_model(seed=0):
    spec = sd.FactorSpec(n_shared_symbols=4, n_unique_symbols=2, seq_len=4, d_in=16)
    task = sd.TaskSpec(mode="mixed", n_classes=4)
    x1, x2, y, _ = sd.generate_dataset(128, spec, task, seed=seed)
    mc = MoEConfig(d_model=16, granularity_chi=2, expansion_rho=2, top_k=2)
    ec = EncoderConfig(n_heads=2, d_in=16, moe=mc, n_layers=2)
    model = pl.S3Model(ec, seed=seed)
    cfg = pl.StageConfig(stage="specialization", epochs=2, batch_size=32, seed=seed)
    pl.train_specialization(model, x1, x2, cfg)
    return model, x1, x2, y


def test_criterion_8_sparsification_structure():
    start = time.monotonic()
    model, x1, x2, y = _tiny_trained_model()
    plain, _ = pl.embed_dataset(model, x1, x2)
    masked, _ = pl.embed_dataset(model, x1, x2, p=1.0)
    bit_identical = np.array_equal(plain, masked)

    e1, e2 = model.encode_pair(x1[:64], x2[:64])
    records = {1: e1.records, 2: e2.records}
    grid = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1]
    masks = [pl.build_prune_mask(records, p) for p in grid]
    nested = all(
        retained_ids(masks[i + 1], records) <= retained_ids(masks[i], records) for i in range(len(masks) - 1)
    )

    fractions = []
    for p in grid:
        _, retained = pl.embed_dataset(model, x1, x2, p=p)
        fractions.append(pl.active_param_fraction(model, retained))
    pct = [round(100 * f / fractions[0], 2) for f in fractions]
    monotone = pct[0] == 100.00 and all(a >= b for a, b in zip(pct, pct[1:]))
    elapsed = time.monotonic() - start
    _verdict(8, "p=1 masking is bit-identical; masks nest; active fraction starts at 100.00% and never rises",
             bit_identical and nested and monotone and elapsed < 120,
             f"fractions {pct[0]:.2f}%..{pct[-1]:.2f}% in {elapsed:.0f}s")


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_selection_freeze_and_cost():
    model, x1, x2, y = _tiny_trained_model(seed=1)
    params = model.named_params()
    frozen_before = {n: t.data.tobytes() for n, t in params.items() if parameter_group(n) != "routers"}
    cfg = pl.StageConfig(stage="selection", epochs=2, batch_size=32, seed=1)
    pl.train_selection(model, x1, x2, y, cfg)
    frozen_ok = all(params[n].data.tobytes() == blob for n, blob in frozen_before.items())

    ratios = {}
    for chi in (2, 4, 8):
        mc = MoEConfig(d_model=128, granularity_chi=chi, expansion_rho=8, top_k=chi, d_ffn=512)
        ec = EncoderConfig(n_heads=4, d_in=16, moe=mc, n_layers=5)
        big = pl.S3Model(ec, seed=0)
        ratios[chi] = an.trainable_param_ratio(big.named_params(), parameter_group)["trainable_pct"]
    ratio_ok = all(r < 1.2 for r in ratios.values())
    _verdict(9, "non-router params byte-identical across Selection; router share < 1.2% for chi in {2,4,8}",
             frozen_ok and ratio_ok,
             "ratios " + ", ".join(f"chi={c}: {r:.3f}%" for c, r in ratios.items()))


# --------------------------------------------------------- criteria 10 and 11


@pytest.fixture(scope="module")
def mixed_chain():
    start = time.monotonic()
    spec = sd.FactorSpec(n_shared_symbols=4, n_unique_symbols=4, seq_len=4, d_in=16,
                         embed_noise_sigma=0.5)
    task = sd.TaskSpec(mode="mixed", n_classes=4)
    x1t, x2t, yt, _ = sd.generate_dataset(512, spec, task, seed=0)
    x1e, x2e, ye, _ = sd.generate_dataset(256, spec, task, seed=10_000, codebook_seed=0)

    def probe_acc(model):
        zt, _ = pl.embed_dataset(model, x1t, x2t)
        ze, _ = pl.embed_dataset(model, x1e, x2e)
        return pl.linear_probe(zt, yt, ze, ye, n_seeds=3).mean

    acc_spec, acc_sel, logs, sweeps = [], [], [], []
    for seed in range(3):
        mc = MoEConfig(d_model=32, granularity_chi=8, expansion_rho=2, top_k=8)
        ec = EncoderConfig(n_heads=4, d_in=16, moe=mc, n_layers=2)
        model = pl.S3Model(ec, seed=seed)
        pl.train_specialization(
            model, x1t, x2t,
            pl.StageConfig(stage="specialization", epochs=10, batch_size=64,
                           learning_rate=0.1, seed=seed))
        acc_spec.append(probe_acc(model))
        logs.append(pl.train_selection(
            model, x1t, x2t, yt,
            pl.StageConfig(stage="selection", epochs=10, batch_size=64,
                           learning_rate=0.1, seed=seed)))
        acc_sel.append(probe_acc(model))
        sweeps.append(pl.sparsify_sweep(model, (x1t, x2t, yt), (x1e, x2e, ye),
                                        p_list=(1.0, 0.7, 0.4), n_seeds=3))
    return {
        "acc_spec": acc_spec,
        "acc_sel": acc_sel,
        "logs": logs,
        "sweeps": sweeps,
        "elapsed": time.monotonic() - start,
    }


@pytest.mark.slow
def test_criterion_10_stage_progression(mixed_chain):
    spec_mean = float(np.mean(mixed_chain["acc_spec"]))
    sel_mean = float(np.mean(mixed_chain["acc_sel"]))
    by_p = {}
    for sweep in mixed_chain["sweeps"]:
        for row in sweep:
            by_p.setdefault(row["p"], []).append(row["accuracy_mean"])
    sparse_best = max(float(np.mean(v)) for v in by_p.values())
    ok = (sel_mean >= spec_mean
          and sparse_best >= sel_mean - 0.005
          and mixed_chain["elapsed"] < 15 * 60)
    _verdict(10, "mixed task chi=8: Selection >= Specialization, best sparsified within 0.5pt",
             ok, f"spec {100 * spec_mean:.1f}% -> sel {100 * sel_mean:.1f}% -> "
                 f"sparse {100 * sparse_best:.1f}% in {mixed_chain['elapsed']:.0f}s")


@pytest.mark.slow
def test_criterion_11_entropy_monitors(mixed_chain):
    ok = True
    details = []
    for log in mixed_chain["logs"]:
        k = max(1, len(log) // 10)

        def window(rows):
            local = np.mean([(r["m1_local_entropy"] + r["m2_local_entropy"]) / 2 for r in rows])
            gneg = np.mean([(r["m1_global_neg_entropy"] + r["m2_global_neg_entropy"]) / 2 for r in rows])
            return local, gneg

        (l0, g0), (l1, g1) = window(log[:k]), window(log[-k:])
        ok &= l1 < l0 and g1 > g0
        details.append(f"local {l0:.2f}->{l1:.2f}, gneg {g0:.2f}->{g1:.2f}")
    _verdict(11, "Selection sharpens routing: local entropy falls, global negative entropy rises",
             bool(ok), "; ".join(details))


# --------------------------------------------------------------- criterion 12


def test_criterion_12_determinism(tmp_path, monkeypatch):
    overrides = {
        "data": {"n_train": 96, "n_test": 48},
        "model": {"d_model": 16, "n_heads": 2, "n_layers": 2, "chi": 2, "rho": 2},
        "specialization": {"epochs": 2, "batch_size": 32},
        "selection": {"epochs": 2, "batch_size": 32},
        "sweep": {"p_grid": [1.0, 0.5], "n_seeds": 2},
    }
    cfg = cli.merge_config(cli.default_run_config(), overrides)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))

    def run_all(root: Path) -> dict[str, str]:
        for command in ("gen-data", "pretrain", "select", "sparsify"):
            rc = cli.main(["--config", str(cfg_path), "--out", str(root), command])
            assert rc == 0, command
        return {
            str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*.csv"))
        }

    hashes_a = run_all(tmp_path / "a")
    hashes_b = run_all(tmp_path / "b")
    ok = len(hashes_a) >= 3 and hashes_a == hashes_b
    _verdict(12, "identical RunConfig + seed reproduces every CSV byte-for-byte",
             ok, f"{len(hashes_a)} CSV files compared")
