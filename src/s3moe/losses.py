"""Training objectives for the three stages.

Pretraining optimizes contrastive alignment (intra-modal views and
cross-modal pairs) plus router-balancing auxiliary losses. Router
fine-tuning switches to supervised contrastive sufficiency plus a
von Mises-Fisher compactness surrogate, with no auxiliary terms.
All contrastive losses operate on unit-norm embeddings.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor
from .moe import LayerRouting


@dataclass(frozen=True)
class LossWeights:
    tau: float = 0.1
    lambda_rep: float = 1.0
    lambda_dsc: float = 1.0
    lambda_aux: float = 0.01
    lambda_imp: float = 1.0
    lambda_load: float = 1.0
    lambda_local: float = 0.1
    lambda_global: float = 0.1
    lambda_suff: float = 1.0
    lambda_min: float = 0.1

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        for name in ("rep", "dsc", "aux", "imp", "load", "local", "global", "suff", "min"):
            if getattr(self, f"lambda_{name}") < 0:
                raise ValueError(f"lambda_{name} must be nonnegative")


@dataclass
class EmbeddingBatch:
    """Paired unit embeddings; second views are optional stochastic passes."""

    z1: Tensor
    z2: Tensor
    labels: np.ndarray | None = None
    z1_view2: Tensor | None = None
    z2_view2: Tensor | None = None

    def __post_init__(self):
        if self.z1.shape != self.z2.shape or self.z1.ndim != 2:
            raise ValueError("z1 and z2 must be matching (B, d) batches")
        for z in (self.z1, self.z2, self.z1_view2, self.z2_view2):
            if z is not None and not np.allclose(np.linalg.norm(z.data, axis=1), 1.0, atol=1e-3):
                raise ValueError("embeddings must be unit norm")
        if self.labels is not None:
            self.labels = np.asarray(self.labels)
            if self.labels.shape != (self.z1.shape[0],):
                raise ValueError("labels must be one id per sample")


def info_nce(src: Tensor, dst: Tensor, tau: float) -> Tensor:
    """Contrastive alignment of src row i to dst row i against all dst rows."""
    if src.shape[0] < 2:
        raise ValueError("info_nce requires batch size >= 2")
    if tau <= 0:
        raise ValueError("tau must be positive")
    b = src.shape[0]
    logits = dc.mul(dc.linear(src, dst), 1.0 / tau)
    ls = dc.log_softmax(logits, axis=-1)
    diag = dc.gather_cols(ls, np.arange(b)[:, None])
    return dc.neg(dc.mean(diag))


def l_rep(batch: EmbeddingBatch, tau: float = 0.1) -> Tensor:
    """Intra-modal alignment of two stochastic views, averaged over modalities."""
    v1 = batch.z1_view2 if batch.z1_view2 is not None else batch.z1
    v2 = batch.z2_view2 if batch.z2_view2 is not None else batch.z2
    return _mean_over([(batch.z1, v1), (batch.z2, v2)], lambda pair: info_nce(*pair, tau))


def l_dsc(batch: EmbeddingBatch, tau: float = 0.1) -> Tensor:
    """Cross-modal alignment, symmetrized over both directions."""
    return _mean_over([(batch.z1, batch.z2), (batch.z2, batch.z1)], lambda pair: info_nce(*pair, tau))


def _positive_mask(labels: np.ndarray, include_self: bool) -> np.ndarray:
    mask = labels[:, None] == labels[None, :]
    if not include_self:
        np.fill_diagonal(mask, False)
    return mask


def sup_con(src: Tensor, dst: Tensor, labels: np.ndarray, tau: float, include_self: bool = True) -> Tensor:
    """Label-supervised contrast of src against dst.

    Positives for sample i are the dst rows sharing its label; intra-modal
    use passes include_self=False so the trivial self pair is excluded.
    Samples whose positive set is empty are dropped with a warning.
    """
    if src.shape[0] < 2:
        raise ValueError("sup_con requires batch size >= 2")
    labels = np.asarray(labels)
    mask = _positive_mask(labels, include_self)
    counts = mask.sum(axis=1)
    kept = counts > 0
    if not kept.all():
        warnings.warn(f"sup_con: dropped {int((~kept).sum())} sample(s) with empty positive set")
    if not kept.any():
        raise ValueError("sup_con: every sample has an empty positive set")
    weights = np.zeros(mask.shape, np.float32)
    weights[kept] = mask[kept] / counts[kept, None]
    logits = dc.mul(dc.linear(src, dst), 1.0 / tau)
    ls = dc.log_softmax(logits, axis=-1)
    total = dc.tsum(dc.mul(ls, Tensor(weights)))
    return dc.neg(dc.mul(total, 1.0 / float(kept.sum())))


def l_suff(batch: EmbeddingBatch, tau: float = 0.1) -> Tensor:
    """Mean supervised contrast over all four modality direction pairs."""
    if batch.labels is None:
        raise ValueError("l_suff requires labels")
    z1, z2, y = batch.z1, batch.z2, batch.labels
    pairs = [(z1, z1, False), (z2, z2, False), (z1, z2, True), (z2, z1, True)]
    return _mean_over(pairs, lambda p: sup_con(p[0], p[1], y, tau, include_self=p[2]))


def compactness(src: Tensor, dst: Tensor, labels: np.ndarray) -> Tensor:
    """Negative mean inner product with the batch-local normalized class mean.

    The class mean is taken over dst-modality embeddings sharing the label,
    then l2-normalized; a class whose mean collapses to zero is rejected.
    """
    labels = np.asarray(labels)
    classes, class_idx = np.unique(labels, return_inverse=True)
    counts = np.bincount(class_idx).astype(np.float32)
    sums = dc.index_add(len(classes), class_idx, dst)
    means = dc.scale_rows(sums, Tensor(1.0 / counts))
    mu_hat = dc.l2_normalize(means, axis=-1)
    per_sample = dc.gather_rows(mu_hat, class_idx)
    return dc.neg(dc.mean(dc.tsum(dc.mul(src, per_sample), axis=1)))


def l_min(batch: EmbeddingBatch) -> Tensor:
    """Mean compactness over all four modality direction pairs."""
    if batch.labels is None:
        raise ValueError("l_min requires labels")
    z1, z2, y = batch.z1, batch.z2, batch.labels
    return _mean_over([(z1, z1), (z1, z2), (z2, z1), (z2, z2)], lambda pair: compactness(*pair, y))


def cv_squared(x: Tensor) -> Tensor:
    """Squared coefficient of variation over the last axis, with population variance."""
    m = dc.mean(x, axis=-1)
    var = dc.sub(dc.mean(dc.mul(x, x), axis=-1), dc.mul(m, m))
    return dc.div(var, dc.mul(m, m))


# Balancing terms: each takes one (N, E) record or an (R, N, E) stack of R
# records, reduces tokens over axis -2 and averages the records.
def importance_loss(scores: Tensor) -> Tensor:
    """CV-squared of per-expert total soft routing weight over the batch."""
    return dc.mean(cv_squared(dc.tsum(scores, axis=-2)))


def load_loss_from_logits(clean: Tensor, noisy: np.ndarray, k: int, sigma: float) -> Tensor:
    """CV-squared of expected expert loads under fresh routing noise.

    For expert i the threshold is the k-th largest noisy logit among the
    other experts, so an expert far above the field gets load probability
    near one. Differentiable through the clean logits only.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if k >= clean.shape[-1]:
        # every expert is always selected: loads are identical by construction
        return Tensor(np.float32(0.0))
    order = np.sort(noisy, axis=-1)[..., ::-1]
    kth, kth_next = order[..., k - 1 : k], order[..., k : k + 1]
    in_topk = noisy >= kth
    thr = np.where(in_topk, kth_next, kth).astype(np.float32)
    p = dc.normal_cdf(dc.mul(dc.sub(clean, Tensor(thr)), 1.0 / sigma))
    return dc.mean(cv_squared(dc.tsum(p, axis=-2)))


def local_entropy_loss(scores: Tensor) -> Tensor:
    """Mean token-level routing entropy in nats."""
    return dc.mean(dc.entropy(scores, axis=-1))


def global_entropy_loss(scores: Tensor) -> Tensor:
    """Negative entropy of the batch-marginal routing distribution."""
    return dc.mean(dc.neg(dc.entropy(dc.mean(scores, axis=-2), axis=-1)))


def _mean_over(items: list, fn) -> Tensor:
    acc = fn(items[0])
    for item in items[1:]:
        acc = dc.add(acc, fn(item))
    return dc.mul(acc, 1.0 / len(items))


def _weighted_sum(terms: list[tuple[str, float, Tensor]]) -> tuple[Tensor, dict]:
    """Sum of lambda * term over (name, lambda, term) triples, and each term's value by name.

    A term whose lambda is zero is logged but adds no node to the total.
    """
    total = Tensor(np.float32(0.0))
    breakdown = {}
    for name, lam, term in terms:
        breakdown[name] = float(term.data)
        if lam:
            total = dc.add(total, dc.mul(term, lam))
    return total, breakdown


def l_aux(records: list[LayerRouting], weights: LossWeights, noise_sigma: float | None = None) -> tuple[Tensor, dict]:
    """Router-balancing auxiliary total, each term built once over the (R, N, E) stack of R layer records.

    `noise_sigma` is the routing noise the records were drawn with; the load
    loss smooths with it, or with 1/n_experts when it is None.
    """
    if not records:
        raise ValueError("l_aux requires at least one routing record")
    # np.stack also rejects records of different shapes
    noisy = np.stack([r.noisy_logits for r in records])
    scores = dc.reshape(dc.concat([r.scores for r in records]), noisy.shape)
    logits = dc.reshape(dc.concat([r.logits for r in records]), noisy.shape)
    sigma = noise_sigma if noise_sigma is not None else 1.0 / noisy.shape[-1]
    return _weighted_sum([
        ("imp", weights.lambda_imp, importance_loss(scores)),
        ("load", weights.lambda_load, load_loss_from_logits(logits, noisy, records[0].selected.shape[1], sigma)),
        ("local", weights.lambda_local, local_entropy_loss(scores)),
        ("global", weights.lambda_global, global_entropy_loss(scores)),
    ])


def l_special(
    batch: EmbeddingBatch, records: list[LayerRouting], weights: LossWeights, noise_sigma: float | None = None
) -> tuple[Tensor, dict]:
    """Pretraining objective: representation + alignment + auxiliary terms (see `l_aux` for `noise_sigma`)."""
    terms = [
        ("rep", weights.lambda_rep, l_rep(batch, weights.tau)),
        ("dsc", weights.lambda_dsc, l_dsc(batch, weights.tau)),
    ]
    aux_parts = {}
    if records:
        aux_total, aux_parts = l_aux(records, weights, noise_sigma)
        terms.append(("aux", weights.lambda_aux, aux_total))
    total, breakdown = _weighted_sum(terms)
    breakdown.update({f"aux_{k}": v for k, v in aux_parts.items()})
    breakdown["total"] = float(total.data)
    return total, breakdown


def l_select(batch: EmbeddingBatch, weights: LossWeights) -> tuple[Tensor, dict]:
    """Router fine-tuning objective: sufficiency + compactness, no aux terms."""
    if batch.labels is None:
        raise ValueError("l_select requires labels")
    total, breakdown = _weighted_sum([
        ("suff", weights.lambda_suff, l_suff(batch, weights.tau)),
        ("min", weights.lambda_min, l_min(batch)),
    ])
    breakdown["total"] = float(total.data)
    return total, breakdown
