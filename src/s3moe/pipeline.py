"""Three-stage orchestration: pretraining, router fine-tuning, pruning.

Stage 1 trains both encoders end to end on the self-supervised objective
with routing noise. Stage 2 fine-tunes the routers on labeled batches with
every other parameter frozen by `requires_grad`, so backward reaches only
what feeds a router gradient. Stage 3 never trains: a routing-weight cut
calibrated on the train split keeps the top preservation ratio p of the
routed (token, expert-slot) pairs, and a pruned forward runs a pair iff
its weight is at or above the cut, with residual paths intact. Linear
probing on frozen embeddings is the evaluation protocol; encoding for it
runs with every parameter frozen and builds no autodiff graph.
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass, field

import numpy as np

from . import analysis as an
from . import diffcore as dc
from . import losses as ls
from . import moe
from .diffcore import Tensor
from .encoder import EncodedBatch, EncoderConfig, ModalityEncoder, parameter_group
from .losses import LossWeights
from .moe import LayerRouting


class DivergenceError(RuntimeError):
    pass


class CheckpointError(ValueError):
    """A checkpoint cannot be read, or its parameter names or shapes do not match the model."""


STAGES = ("specialization", "selection")
PRUNE_SCOPES = ("global", "per-encoder", "per-layer")


@dataclass(frozen=True)
class StageConfig:
    stage: str
    epochs: int = 1
    batch_size: int = 64
    learning_rate: float = 0.1
    momentum: float = 0.9
    seed: int = 0
    weights: LossWeights = field(default_factory=LossWeights)
    routing_noise: float | None = None  # None: 1/n_experts during pretraining
    input_jitter: float = 0.01  # view augmentation fallback when noise is off

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ValueError(f"unknown stage {self.stage!r}")
        dc.require_int("epochs", self.epochs, 0)
        dc.require_int("batch_size", self.batch_size, 2)
        dc.require_int("seed", self.seed, 0)
        dc.require_real("learning_rate", self.learning_rate, 0, low_open=True)
        # at momentum >= 1 the velocity never decays
        dc.require_real("momentum", self.momentum, 0, 1)
        if self.routing_noise is not None:
            dc.require_real("routing_noise", self.routing_noise, 0)
        dc.require_real("input_jitter", self.input_jitter, 0)


class S3Model:
    """Two modality encoders of one geometry, trained as one system."""

    def __init__(self, config: EncoderConfig, seed: int = 0):
        dc.require_int("seed", seed, 0)
        rng = dc.RngState(seed)
        self.config = config
        self.enc1 = ModalityEncoder(config, rng.stream(1))
        self.enc2 = ModalityEncoder(config, rng.stream(2))

    def named_params(self) -> dict[str, Tensor]:
        out = self.enc1.named_params("m1/")
        out.update(self.enc2.named_params("m2/"))
        return out

    def encode_pair(
        self,
        x1: np.ndarray,
        x2: np.ndarray,
        noise_sigma: float = 0.0,
        rng: dc.RngState | None = None,
        masks: PruneMask | None = None,
        input_jitter: float = 0.0,
    ) -> tuple[EncodedBatch, EncodedBatch]:
        return tuple(
            enc.encode(
                x, noise_sigma=noise_sigma, rng=rng.stream(m) if rng else None,
                cuts=masks.slot_masks(m) if masks else None, input_jitter=input_jitter,
            )
            for m, enc, x in ((1, self.enc1, x1), (2, self.enc2, x2))
        )

    def save(self, path) -> None:
        moe.save_params(self.named_params(), path)

    def load(self, path) -> None:
        """Load a checkpoint; an unreadable file or a mismatched or non-finite parameter raises CheckpointError."""
        try:
            loaded = moe.load_params(path)
        except (OSError, ValueError, TypeError, AttributeError, EOFError, zipfile.BadZipFile) as e:
            raise CheckpointError(f"checkpoint {path} cannot be read: {e}") from e
        params = self.named_params()
        for name, t in params.items():
            if name not in loaded:
                raise CheckpointError(f"checkpoint {path} lacks parameter {name}")
            if loaded[name].shape != t.shape:
                raise CheckpointError(
                    f"checkpoint {path} has shape {loaded[name].shape} for {name}, the model expects {t.shape}"
                )
            if not np.isfinite(loaded[name]).all():
                raise CheckpointError(f"checkpoint {path} has a non-finite value in {name}")
        extra = [name for name in loaded if name not in params]
        if extra:
            raise CheckpointError(f"checkpoint {path} has parameter {extra[0]}, which the model lacks")
        for name, t in params.items():
            t.data = loaded[name]


class MomentumSGD:
    def __init__(self, learning_rate: float, momentum: float = 0.9):
        self.lr = learning_rate
        self.momentum = momentum
        self.velocity: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, Tensor]) -> None:
        for name, t in params.items():
            if t.grad is None:
                continue
            v = self.velocity.get(name)
            v = t.grad if v is None else self.momentum * v + t.grad
            self.velocity[name] = v
            # in place, so no fresh parameter arrays are held beside the next step's graph
            t.data -= self.lr * v


def zero_grads(params: dict[str, Tensor]) -> None:
    for t in params.values():
        t.grad = None


def _batches(n: int, batch_size: int, order: np.ndarray):
    for start in range(0, n - batch_size + 1, batch_size):
        yield order[start : start + batch_size]


def _fit(model: S3Model, config: StageConfig, stage: str, batches, step_loss) -> list[dict]:
    """The step loop both stages share; returns one log row per step.

    `batches(stream)` yields the index arrays of one epoch, drawn from that
    epoch's seeded stream. `step_loss(idx, stream)` returns the scalar loss
    and its breakdown (with a "total") for one batch, where `stream` is the
    step's own random stream. A non-finite value or total raises
    DivergenceError; otherwise every parameter with a gradient takes one
    momentum-SGD step.
    """
    if config.stage != stage:
        raise ValueError(f"config stage must be {stage}")
    params = model.named_params()
    opt = MomentumSGD(config.learning_rate, config.momentum)
    rng = dc.RngState(config.seed)
    log: list[dict] = []
    for epoch in range(config.epochs):
        for idx in batches(rng.stream(epoch)):
            step = len(log)
            # before the forward, so the last step's gradients are not held through it
            zero_grads(params)
            try:
                loss, row = step_loss(idx, rng.stream(10_000 + step))
            except dc.NonFiniteError as e:
                raise DivergenceError(f"non-finite value at step {step}: {e}") from e
            if not np.isfinite(row["total"]):
                raise DivergenceError(f"loss diverged at step {step}: {row}")
            loss.backward()
            opt.step(params)
            log.append({"step": step, "epoch": epoch, **row})
    return log


def train_specialization(model: S3Model, x1: np.ndarray, x2: np.ndarray, config: StageConfig) -> list[dict]:
    """Self-supervised pretraining of both encoders; returns per-step logs.

    Each step encodes each modality once over the stacked rows
    [view a; view b] of its batch, so the two views' noise and jitter are
    rows of one draw from the step's stream. The views are split off `z`
    afterwards, and the auxiliary losses read view a's routing, the leading
    b * seq_len token rows of each layer record, so each sample counts once.
    """
    default = 1.0 / model.config.moe.n_experts  # routing noise, and the load loss's smoothing scale without it
    sigma = config.routing_noise if config.routing_noise is not None else default
    jitter = 0.0 if sigma else config.input_jitter

    def step_loss(idx, r):
        b = len(idx)
        e1, e2 = model.encode_pair(
            np.concatenate([x1[idx]] * 2), np.concatenate([x2[idx]] * 2), noise_sigma=sigma, rng=r, input_jitter=jitter
        )
        views1, views2 = ((dc.slice_rows(e.z, 0, b), dc.slice_rows(e.z, b, 2 * b)) for e in (e1, e2))
        records, n_tokens = e1.records + e2.records, b * x1.shape[1]
        return ls.l_special(views1, views2, records, config.weights, noise_sigma=sigma or default, n_tokens=n_tokens)

    return _fit(
        model, config, "specialization",
        lambda stream: _batches(len(x1), config.batch_size, stream.permutation(len(x1))), step_loss,
    )


def stratified_order(labels: np.ndarray, rng: dc.RngState) -> np.ndarray:
    """Round-robin interleave of per-class shuffled indices."""
    labels = np.asarray(labels)
    per_class = []
    for c in np.unique(labels):
        members = np.nonzero(labels == c)[0]
        per_class.append(members[rng.permutation(len(members))])
    longest = max(len(m) for m in per_class)
    order = []
    for i in range(longest):
        for members in per_class:
            if i < len(members):
                order.append(members[i])
    return np.array(order)


def train_selection(model: S3Model, x1: np.ndarray, x2: np.ndarray, labels: np.ndarray, config: StageConfig) -> list[dict]:
    """Router-only fine-tuning on labeled data.

    Every non-router parameter has `requires_grad=False` for the whole loop
    (`diffcore.frozen`), so backward builds no gradient for it and the
    optimizer has nothing else to update; the flags come back on return.
    This is the one place that decides which samples a step counts: a batch
    drops its stragglers, the samples whose class has no other member in it,
    since `losses.sup_con` rejects a sample with no positive.
    """
    def batches(stream):
        for idx in _batches(len(x1), config.batch_size, stratified_order(labels, stream)):
            _, inverse, counts = np.unique(labels[idx], return_inverse=True, return_counts=True)
            idx = idx[counts[inverse] >= 2]
            if len(idx) >= 2:
                yield idx

    def step_loss(idx, _stream):
        e1, e2 = model.encode_pair(x1[idx], x2[idx])
        loss, row = ls.l_select(e1.z, e2.z, labels[idx], config.weights)
        for m, enc_batch in ((1, e1), (2, e2)):
            mon = an.entropy_monitor(enc_batch.records)
            row[f"m{m}_local_entropy"] = mon["local_entropy"]
            row[f"m{m}_global_neg_entropy"] = mon["global_neg_entropy"]
        return loss, row

    with dc.frozen(t for n, t in model.named_params().items() if parameter_group(n) != "routers"):
        return _fit(model, config, "selection", batches, step_loss)


@dataclass
class PruneMask:
    """Routing-weight cuts calibrated at one preservation ratio.

    A pruned forward runs a (token, slot) pair of a layer iff its own weight
    is >= `cuts[modality][layer_id]` (`LayerRouting.slot_mask`).
    """

    cuts: dict[int, dict[int, float]]

    def slot_masks(self, modality: int) -> dict[int, float]:
        """The per-layer cuts that decide a pruned forward's slot masks."""
        return self.cuts[modality]


def build_prune_mask(records_by_modality: dict[int, list[LayerRouting]], p: float, scope: str = "global") -> PruneMask:
    """Calibrate one cut per modality and layer on routing records (a layer's batches stack in order).

    Per scope group of n routed pairs the cut is the ceil(p n)-th highest
    weight, -inf when ceil(p n) = n and +inf when it is 0, so p = 1 keeps
    and p = 0 drops every pair of any split. Weights tied at a cut are kept.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"preservation ratio {p} outside [0, 1]")
    if scope not in PRUNE_SCOPES:
        raise ValueError(f"unknown prune scope {scope!r}")
    depth = PRUNE_SCOPES.index(scope)  # a scope group is keyed by (), (modality,) or (modality, layer)
    pooled: dict[tuple, list[np.ndarray]] = {}
    for m, recs in records_by_modality.items():
        for rec in recs:
            pooled.setdefault((m, rec.layer_id)[:depth], []).append(rec.weights.data.ravel())
    cut = {}
    for g, ws in pooled.items():
        w = np.concatenate(ws)
        rank = w.size - math.ceil(p * w.size)  # the ascending rank of the ceil(p n)-th highest weight
        cut[g] = -np.inf if rank == 0 else np.inf if rank == w.size else np.partition(w, rank)[rank]
    return PruneMask(
        cuts={m: {r.layer_id: cut[(m, r.layer_id)[:depth]] for r in recs} for m, recs in records_by_modality.items()}
    )


@dataclass
class ProbeResult:
    per_seed: list[float]
    mean: float
    std: float

    @classmethod
    def from_seeds(cls, values: list[float]) -> "ProbeResult":
        arr = np.asarray(values, dtype=np.float64)
        return cls(per_seed=[float(v) for v in arr], mean=float(arr.mean()), std=float(arr.std()))


# L2 strength of the probe, fixed before any criterion was run and never
# tuned per criterion: it gives the fit one minimiser even on linearly
# separable features. A fit is converged once every gradient component is
# at most PROBE_GTOL.
PROBE_L2 = 1e-3
PROBE_GTOL = 1e-6


def probe_objective(w_flat: np.ndarray, x: np.ndarray, onehot: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy plus (PROBE_L2 / 2) ||W||^2 over the non-bias rows, with its gradient and Hessian.

    `x` is the (n, d + 1) design matrix whose last column is the bias input
    of ones; `w_flat` is the raveled (d + 1, C) weight matrix.
    """
    (n, d), c = x.shape, onehot.shape[1]
    w = w_flat.reshape(d, c)
    logits = x @ w
    logits -= logits.max(axis=1, keepdims=True)
    log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    probs = np.exp(log_probs)
    loss = -np.sum(onehot * log_probs) / n + 0.5 * PROBE_L2 * np.sum(w[:-1] ** 2)
    grad = x.T @ (probs - onehot) / n
    grad[:-1] += PROBE_L2 * w[:-1]
    # sum_i (x_i x_i^T) kron (diag p_i - p_i p_i^T) / n, in w_flat's (row, class) order
    curv = probs[:, :, None] * (np.eye(c) - probs[:, None, :])
    hess = (x.T @ (x[:, :, None, None] * curv[:, None]).reshape(n, -1) / n).reshape(d, d, c, c)
    hess = hess.transpose(0, 2, 1, 3).reshape(d * c, d * c)
    hess[np.arange((d - 1) * c), np.arange((d - 1) * c)] += PROBE_L2
    return float(loss), grad.ravel(), hess


def fit_probe(x: np.ndarray, onehot: np.ndarray, seed: int) -> np.ndarray:
    """Minimise `probe_objective` by damped Newton steps from a seeded small random init.

    Returns the (d + 1, C) weights once every gradient component is at most
    PROBE_GTOL; raises RuntimeError otherwise, so no unconverged fit is scored.
    """
    c = onehot.shape[1]
    w = np.random.default_rng(seed).standard_normal(x.shape[1] * c) * 1e-3
    # Softmax ignores a bias shift common to every class and the bias row is
    # not regularised, so the Hessian is singular along that one direction.
    # The gradient is orthogonal to it, so adding its projector makes the
    # Hessian invertible without changing the Newton step.
    shift_proj = np.zeros((w.size, w.size))
    shift_proj[-c:, -c:] = 1.0 / c
    loss, grad, hess = probe_objective(w, x, onehot)
    for _ in range(100):  # damped Newton converges in about ten steps
        if np.max(np.abs(grad)) <= PROBE_GTOL:
            return w.reshape(-1, c)
        step = np.linalg.solve(hess + shift_proj, -grad)
        t = 1.0
        # backtrack until the Armijo sufficient-decrease condition holds
        while (trial := probe_objective(w + t * step, x, onehot))[0] > loss + 1e-4 * t * (grad @ step):
            t /= 2
            if t < 1e-10:
                raise RuntimeError("linear probe line search found no decrease")
        w = w + t * step
        loss, grad, hess = trial
    raise RuntimeError("linear probe did not reach its gradient tolerance")


def linear_probe(
    z_train: np.ndarray,
    y_train: np.ndarray,
    z_test: np.ndarray,
    y_test: np.ndarray,
    n_seeds: int = 1,
) -> ProbeResult:
    """L2-regularised multinomial logistic regression on frozen features.

    One fit per seeded init. The objective is strictly convex up to a shift
    common to every class, which leaves predictions unchanged, so every seed
    gives the same accuracy and one fit is enough; `fit_probe` raises on a
    fit that does not converge. Test labels absent from the training split
    are never predicted.
    """
    classes, yt = np.unique(y_train, return_inverse=True)
    if len(classes) < 2:
        raise ValueError("probe training split has a single class")
    xt = np.hstack([z_train, np.ones((len(z_train), 1))]).astype(np.float64)
    xe = np.hstack([z_test, np.ones((len(z_test), 1))]).astype(np.float64)
    onehot = np.eye(len(classes))[yt]
    accs = [
        float(np.mean(classes[(xe @ fit_probe(xt, onehot, seed)).argmax(axis=1)] == y_test))
        for seed in range(n_seeds)
    ]
    return ProbeResult.from_seeds(accs)


def routing_records(
    model: S3Model, x1: np.ndarray, x2: np.ndarray, batch_size: int = 128
) -> tuple[dict[int, list[LayerRouting]], np.ndarray, float]:
    """One unpruned forward over a split: its routing, features and retained pairs per token.

    The routing is, per modality, every layer record of every batch in row
    order. The features and the retained fraction are exactly what
    `embed_dataset` returns for the split unpruned, or under any mask that
    keeps every one of these pairs.
    """
    starts = range(0, len(x1), batch_size)
    with dc.frozen(model.named_params().values()):
        pairs = [model.encode_pair(x1[s : s + batch_size], x2[s : s + batch_size]) for s in starts]
    records = {m: [rec for pair in pairs for rec in pair[m - 1].records] for m in (1, 2)}
    z = np.vstack([np.hstack([e1.z.data, e2.z.data]) for e1, e2 in pairs])
    kept = sum(rec.selected.size for recs in records.values() for rec in recs)
    return records, z, kept / (len(x1) * (x1.shape[1] + x2.shape[1]))


def embed_dataset(
    model: S3Model,
    x1: np.ndarray,
    x2: np.ndarray,
    batch_size: int = 128,
    p: float | None = None,
    scope: str = "global",
    mask: PruneMask | None = None,
) -> tuple[np.ndarray, float]:
    """Concatenated [z1; z2] features, pruned under `mask`, or under one calibrated at p on this data.

    Each batch is encoded once with every parameter frozen, so no autodiff
    graph is built and a pruned embedding depends on its own sample only.
    Returns the features and the retained pairs per token: kept (token,
    slot) pairs over all layers and both modalities, divided by the total
    token count, so a short last batch weighs by its size.
    """
    if p is not None and mask is None:
        mask = build_prune_mask(routing_records(model, x1, x2, batch_size)[0], p, scope)
    feats = []
    kept = tokens = 0
    with dc.frozen(model.named_params().values()):
        for start in range(0, len(x1), batch_size):
            sl = slice(start, start + batch_size)
            e1, e2 = model.encode_pair(x1[sl], x2[sl], masks=mask)
            feats.append(np.hstack([e1.z.data, e2.z.data]))
            kept += sum(np.count_nonzero(rec.slot_mask(mask.cuts[m][rec.layer_id] if mask else -np.inf))
                        for m, e in ((1, e1), (2, e2)) for rec in e.records)
            tokens += len(x1[sl]) * (x1.shape[1] + x2.shape[1])
    return np.vstack(feats), kept / tokens


def active_param_fraction(model: S3Model, retained_per_token: float) -> float:
    """Per-token active parameters relative to the unpruned forward (=1.0)."""
    cfg = model.config
    non_expert = sum(
        t.data.size for n, t in model.named_params().items() if parameter_group(n) != "experts"
    ) / 2.0
    p_exp = cfg.moe.expert_param_count
    full = non_expert + cfg.n_layers * cfg.moe.top_k * p_exp
    active = non_expert + retained_per_token * p_exp
    return active / full


def sparsify_sweep(
    model: S3Model,
    train_data: tuple[np.ndarray, np.ndarray, np.ndarray],
    test_data: tuple[np.ndarray, np.ndarray, np.ndarray],
    p_list: tuple[float, ...] = (1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1),
    scope: str = "global",
    batch_size: int = 128,
    n_seeds: int = 1,
) -> list[dict]:
    """Probe accuracy and active-parameter fraction per p, under masks calibrated on one pass over the train split.

    A mask that keeps every calibration pair leaves each layer's input, and
    so its routing, as in the calibration pass, so such a point (p = 1, or
    any p when every routing weight is tied) takes that pass's train
    features instead of encoding the train split again.
    """
    x1t, x2t, yt = train_data
    x1e, x2e, ye = test_data
    records, z_full, r_full = routing_records(model, x1t, x2t, batch_size)
    rows = []
    for p in p_list:
        mask = build_prune_mask(records, p, scope)
        if all(rec.slot_mask(mask.cuts[m][rec.layer_id]).all() for m, recs in records.items() for rec in recs):
            zt, rt = z_full, r_full
        else:
            zt, rt = embed_dataset(model, x1t, x2t, batch_size, p, scope, mask)
        ze, re = embed_dataset(model, x1e, x2e, batch_size, p, scope, mask)
        probe = linear_probe(zt, yt, ze, ye, n_seeds=n_seeds)
        frac = active_param_fraction(model, (rt + re) / 2.0)
        rows.append(
            {
                "p": p,
                "accuracy_mean": probe.mean,
                "accuracy_std": probe.std,
                "active_param_pct": 100.0 * frac,
            }
        )
    return rows
