"""Training objectives for the three stages.

Pretraining optimizes contrastive alignment (intra-modal views and
cross-modal pairs) plus router-balancing auxiliary losses. Router
fine-tuning switches to supervised contrastive sufficiency plus a
von Mises-Fisher compactness surrogate, with no auxiliary terms.
All contrastive losses operate on unit-norm embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

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
        for f in fields(self):
            # tau divides the contrastive logits; a lambda may be zero
            dc.require_real(f.name, getattr(self, f.name), 0, low_open=f.name == "tau")


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


def l_rep(views1: tuple[Tensor, Tensor], views2: tuple[Tensor, Tensor], tau: float = 0.1) -> Tensor:
    """Intra-modal alignment of each modality's (view a, view b) pair, averaged over modalities."""
    return _mean_over([views1, views2], lambda pair: info_nce(*pair, tau))


def l_dsc(z1: Tensor, z2: Tensor, tau: float = 0.1) -> Tensor:
    """Cross-modal alignment, symmetrized over both directions."""
    return _mean_over([(z1, z2), (z2, z1)], lambda pair: info_nce(*pair, tau))


def sup_con(src: Tensor, dst: Tensor, labels: np.ndarray, tau: float, include_self: bool = True) -> Tensor:
    """Label-supervised contrast of src against dst.

    Positives for sample i are the dst rows sharing its label; intra-modal
    use passes include_self=False so the trivial self pair is excluded.
    A sample with no positive raises ValueError: the caller decides which
    samples count (`pipeline.train_selection` drops them from its batches).
    """
    if src.shape[0] < 2:
        raise ValueError("sup_con requires batch size >= 2")
    labels = np.asarray(labels)
    mask = labels[:, None] == labels[None, :]
    if not include_self:
        np.fill_diagonal(mask, False)
    counts = mask.sum(axis=1)
    if not counts.all():
        raise ValueError(f"sup_con: {int((counts == 0).sum())} sample(s) have no positive")
    logits = dc.mul(dc.linear(src, dst), 1.0 / tau)
    ls = dc.log_softmax(logits, axis=-1)
    total = dc.tsum(dc.mul(ls, Tensor((mask / counts[:, None]).astype(np.float32))))
    return dc.neg(dc.mul(total, 1.0 / len(labels)))


def l_suff(z1: Tensor, z2: Tensor, labels: np.ndarray, tau: float = 0.1) -> Tensor:
    """Mean supervised contrast over all four modality direction pairs."""
    pairs = [(z1, z1, False), (z2, z2, False), (z1, z2, True), (z2, z1, True)]
    return _mean_over(pairs, lambda p: sup_con(p[0], p[1], labels, tau, include_self=p[2]))


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


def l_min(z1: Tensor, z2: Tensor, labels: np.ndarray) -> Tensor:
    """Mean compactness over all four modality direction pairs."""
    return _mean_over([(z1, z1), (z1, z2), (z2, z1), (z2, z2)], lambda pair: compactness(*pair, labels))


def cv_squared(x: Tensor) -> Tensor:
    """Squared coefficient of variation over the last axis, with population variance."""
    m = dc.mean(x, axis=-1)
    var = dc.sub(dc.mean(dc.mul(x, x), axis=-1), dc.mul(m, m))
    return dc.div(var, dc.mul(m, m))


# Balancing terms: each takes one (N, E) record or a token-major (N, R, E)
# stack of R records, reduces tokens over axis 0 and averages the records.
def importance_loss(scores: Tensor) -> Tensor:
    """CV-squared of per-expert total soft routing weight over the batch."""
    return dc.mean(cv_squared(dc.tsum(scores, axis=0)))


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
    return dc.mean(cv_squared(dc.tsum(p, axis=0)))


def local_entropy_loss(scores: Tensor) -> Tensor:
    """Mean token-level routing entropy in nats."""
    return dc.mean(dc.entropy(scores, axis=-1))


def global_entropy_loss(scores: Tensor) -> Tensor:
    """Negative entropy of the batch-marginal routing distribution."""
    return dc.mean(dc.neg(dc.entropy(dc.mean(scores, axis=0), axis=-1)))


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


def _token_major(xs: list[Tensor], shape: tuple[int, int, int]) -> Tensor:
    """R (N, E) records as one token-major (n, R, E) `shape` tensor of their leading n rows."""
    flat = dc.concat(xs, axis=1)
    if shape[0] < flat.shape[0]:
        flat = dc.slice_rows(flat, 0, shape[0])
    return dc.reshape(flat, shape)


def l_aux(
    records: list[LayerRouting], weights: LossWeights, noise_sigma: float, n_tokens: int | None = None
) -> tuple[Tensor, dict]:
    """Router-balancing auxiliary total, each term built once over the token-major (N, R, E) stack of R layer records.

    Only the leading `n_tokens` token rows of each record count (all of them when None). `noise_sigma` is the
    load loss's smoothing scale: the routing noise the records were drawn with, or a positive stand-in without noise.
    """
    if not records:
        raise ValueError("l_aux requires at least one routing record")
    # np.stack also rejects records of different shapes
    noisy = np.stack([r.noisy_logits for r in records], axis=1)[:n_tokens]
    scores = _token_major([r.scores for r in records], noisy.shape)
    logits = _token_major([r.logits for r in records], noisy.shape)
    return _weighted_sum([
        ("imp", weights.lambda_imp, importance_loss(scores)),
        ("load", weights.lambda_load, load_loss_from_logits(logits, noisy, records[0].selected.shape[1], noise_sigma)),
        ("local", weights.lambda_local, local_entropy_loss(scores)),
        ("global", weights.lambda_global, global_entropy_loss(scores)),
    ])


def l_special(
    views1: tuple[Tensor, Tensor], views2: tuple[Tensor, Tensor], records: list[LayerRouting],
    weights: LossWeights, noise_sigma: float, n_tokens: int | None = None,
) -> tuple[Tensor, dict]:
    """Pretraining objective: representation + alignment + auxiliary terms.

    `views1` and `views2` are each modality's (view a, view b) embeddings;
    the alignment term pairs the two modalities' view a. `l_aux` reads the
    last two arguments. Every sample counts: only Selection drops stragglers
    (`pipeline.train_selection`).
    """
    rep, dsc = l_rep(views1, views2, weights.tau), l_dsc(views1[0], views2[0], weights.tau)
    aux_total, aux_parts = l_aux(records, weights, noise_sigma, n_tokens)
    total, breakdown = _weighted_sum([
        ("rep", weights.lambda_rep, rep), ("dsc", weights.lambda_dsc, dsc), ("aux", weights.lambda_aux, aux_total),
    ])
    breakdown.update({f"aux_{k}": v for k, v in aux_parts.items()})
    breakdown["total"] = float(total.data)
    return total, breakdown


def l_select(z1: Tensor, z2: Tensor, labels: np.ndarray, weights: LossWeights) -> tuple[Tensor, dict]:
    """Router fine-tuning objective: sufficiency + compactness, no aux terms.

    Every sample needs a positive, another sample of its label (see `sup_con`).
    """
    total, breakdown = _weighted_sum([
        ("suff", weights.lambda_suff, l_suff(z1, z2, labels, weights.tau)),
        ("min", weights.lambda_min, l_min(z1, z2, labels)),
    ])
    breakdown["total"] = float(total.data)
    return total, breakdown
