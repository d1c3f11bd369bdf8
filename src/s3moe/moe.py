"""Experts, router and the sparse MoE layer that replaces a dense FFN.

Granularity `chi` shards the FFN hidden width into experts of width
d_expert = d_ffn / chi; expansion `rho` multiplies the expert budget so
n_experts = chi * rho. Selected top-k weights are the raw softmax entries
(no renormalization after top-k).

A layer stores its experts stacked: W1 (E, d_expert, d_model), b1
(E, d_expert), W2 (E, d_model, d_expert), b2 (E, d_model). Dispatch is
grouped and dropless: the live (token, slot) pairs are stable-sorted by
expert once, each FFN linear is a single `grouped_linear` op over the
contiguous expert segments, and `combine_pairs` sums the k slots back per
token with masked slots weighted zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor

ACTIVATIONS = {"gelu": dc.gelu, "relu": dc.relu}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class MoEConfig:
    d_model: int
    granularity_chi: int
    expansion_rho: int
    top_k: int
    d_ffn: int | None = None
    activation: str = "gelu"

    def __post_init__(self):
        d_ffn = self.d_ffn if self.d_ffn is not None else 4 * self.d_model
        object.__setattr__(self, "d_ffn", d_ffn)
        for name in ("d_model", "granularity_chi", "expansion_rho", "top_k", "d_ffn"):
            dc.require_int(name, getattr(self, name), 1)
        if d_ffn % self.granularity_chi != 0:
            raise ConfigError(f"d_ffn={d_ffn} not divisible by chi={self.granularity_chi}")
        if not 1 <= self.top_k <= self.n_experts:
            raise ConfigError(f"top_k={self.top_k} outside [1, {self.n_experts}]")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")

    @property
    def n_experts(self) -> int:
        return self.granularity_chi * self.expansion_rho

    @property
    def d_expert(self) -> int:
        return self.d_ffn // self.granularity_chi

    @property
    def expert_weight_count(self) -> int:
        return 2 * self.d_model * self.d_expert

    @property
    def expert_param_count(self) -> int:
        return self.expert_weight_count + self.d_expert + self.d_model

    @property
    def dense_ffn_weight_count(self) -> int:
        return 2 * self.d_model * self.d_ffn


def active_params_per_token(config: MoEConfig, k: int | None = None) -> dict:
    """Per-token active expert parameter accounting for a given top-k.

    Weight-matrix parity with the dense FFN holds exactly at k = chi; the
    per-expert biases add a small surplus that is reported separately.
    """
    k = config.top_k if k is None else k
    weights = k * config.expert_weight_count
    biases = k * (config.d_expert + config.d_model)
    dense_biases = config.d_ffn + config.d_model
    return {
        "active_weight_params": weights,
        "active_bias_params": biases,
        "active_total": weights + biases,
        "dense_ffn_weight_params": config.dense_ffn_weight_count,
        "bias_surplus_vs_dense": biases - dense_biases,
    }


@dataclass
class LayerRouting:
    """Batched routing state for one MoE layer over N tokens.

    `logits` (pre-noise), `scores` and `weights` stay in the autodiff graph;
    `noisy_logits` (N, E) and `selected` (N, k) are plain arrays. N, k and
    the expert count are read from the shapes of `selected` and `scores`.
    """

    layer_id: int
    logits: Tensor
    noisy_logits: np.ndarray
    scores: Tensor
    selected: np.ndarray
    weights: Tensor

    def rows(self, start: int, stop: int) -> "LayerRouting":
        """The routing of token rows start:stop, still in the autodiff graph."""
        return LayerRouting(
            layer_id=self.layer_id,
            logits=dc.slice_rows(self.logits, start, stop),
            noisy_logits=self.noisy_logits[start:stop],
            scores=dc.slice_rows(self.scores, start, stop),
            selected=self.selected[start:stop],
            weights=dc.slice_rows(self.weights, start, stop),
        )

    def slot_mask(self, cut: float) -> np.ndarray:
        """The (N, k) pairs a forward pruned at `cut` runs: those whose own weight is at or above it."""
        return self.weights.data >= cut


def init_experts(config: MoEConfig, rng: dc.RngState) -> dict[str, Tensor]:
    """Stacked expert FFN parameters; expert i draws W1 then W2 from rng.stream(i + 1)."""
    d_m, d_e, n = config.d_model, config.d_expert, config.n_experts
    streams = [rng.stream(i + 1) for i in range(n)]
    W1 = np.stack([r.normal((d_e, d_m), sigma=1.0 / np.sqrt(d_m)) for r in streams])
    W2 = np.stack([r.normal((d_m, d_e), sigma=1.0 / np.sqrt(d_e)) for r in streams])
    return {
        "W1": Tensor(W1, requires_grad=True),
        "b1": Tensor(np.zeros((n, d_e), np.float32), requires_grad=True),
        "W2": Tensor(W2, requires_grad=True),
        "b2": Tensor(np.zeros((n, d_m), np.float32), requires_grad=True),
    }


def init_router(config: MoEConfig, rng: dc.RngState) -> dict[str, Tensor]:
    return {
        "Wg": Tensor(
            rng.normal((config.n_experts, config.d_model), sigma=1.0 / np.sqrt(config.d_model)),
            requires_grad=True,
        )
    }


class MoELayer:
    """Sparse MoE layer: router plus n_experts small FFNs, stored stacked."""

    def __init__(self, config: MoEConfig, rng: dc.RngState, layer_id: int = 0):
        self.config = config
        self.layer_id = layer_id
        self.router = init_router(config, rng.stream(0))
        self.experts = init_experts(config, rng)

    def named_params(self, prefix: str = "") -> dict[str, Tensor]:
        out = {f"{prefix}router/Wg": self.router["Wg"]}
        out.update({f"{prefix}experts/{k}": v for k, v in self.experts.items()})
        return out

    def route_tokens(
        self, x: Tensor, noise_sigma: float | None = None, rng: dc.RngState | dc.RowBlockRng | None = None
    ) -> LayerRouting:
        """Router softmax over experts for a (N, d_model) token block.

        With noise, top-k selection and reported weights both use the noisy
        logits; the clean logits are kept for the load loss. A RowBlockRng
        draws each row block's noise from its own stream.
        """
        cfg = self.config
        logits = dc.linear(x, self.router["Wg"])
        if noise_sigma:
            if rng is None:
                raise ValueError("routing noise requires an RngState")
            noisy = dc.add(logits, Tensor(rng.normal(logits.shape, sigma=noise_sigma)))
        else:
            noisy = logits
        scores = dc.softmax(noisy, axis=-1)
        selected, _ = dc.topk(scores, cfg.top_k)
        weights = dc.gather_cols(scores, selected)
        return LayerRouting(
            layer_id=self.layer_id,
            logits=logits,
            noisy_logits=noisy.data,
            scores=scores,
            selected=selected,
            weights=weights,
        )

    def combine(self, x: Tensor, routing: LayerRouting, slot_mask: np.ndarray | None = None) -> Tensor:
        """Weighted sum of selected expert outputs; masked slots contribute zero.

        The live (token, slot) pairs are stable-sorted by expert, so each
        expert's rows form one contiguous segment in token order.
        """
        cfg = self.config
        k = routing.selected.shape[1]
        pair_expert = routing.selected.reshape(-1)
        live = np.arange(pair_expert.size) if slot_mask is None else np.flatnonzero(slot_mask)
        pair_ids = live[np.argsort(pair_expert[live], kind="stable")]
        counts = np.bincount(pair_expert[pair_ids], minlength=cfg.n_experts)
        ex = self.experts
        h = dc.grouped_linear(dc.gather_pairs(x, pair_ids, k), ex["W1"], ex["b1"], counts)
        y = dc.grouped_linear(ACTIVATIONS[cfg.activation](h), ex["W2"], ex["b2"], counts)
        return dc.combine_pairs(y, routing.weights, pair_ids)

    def forward(
        self,
        x: Tensor,
        noise_sigma: float | None = None,
        rng: dc.RngState | dc.RowBlockRng | None = None,
        cut: float | None = None,
    ) -> tuple[Tensor, LayerRouting]:
        routing = self.route_tokens(x, noise_sigma=noise_sigma, rng=rng)
        return self.combine(x, routing, None if cut is None else routing.slot_mask(cut)), routing


def save_params(params: dict[str, Tensor], path) -> None:
    """`np.savez` checkpoint of named tensors, written to exactly `path`; float32 round-trips bit-exactly."""
    # through a file handle, since np.savez appends `.npz` to a bare path
    with open(path, "wb") as f:
        np.savez(f, **{name: t.data for name, t in params.items()})


def load_params(path) -> dict[str, np.ndarray]:
    # np.load on a path leaves the file open when the archive is cut short
    with open(path, "rb") as f, np.load(f, allow_pickle=False) as blob:
        return {name: blob[name].astype(np.float32) for name in blob.files}
