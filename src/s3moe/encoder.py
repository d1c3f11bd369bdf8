"""Modality-specific transformer encoders with MoE feed-forward blocks.

Each layer is pre-LN: x += MHA(LN(x)); x += MoE(LN(x)). The residual
stream x is flat and sample-major: (B * T, d) token rows, row i * T + j
holding token j of sample i, reshaped only for the mean pool. Sample
embeddings are the mean-pooled, l2-normalized final-layer token states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor
from .moe import LayerRouting, MoEConfig, MoELayer


@dataclass(frozen=True)
class EncoderConfig:
    d_model: int
    n_heads: int
    d_in: int
    moe: MoEConfig
    n_layers: int = 5

    def __post_init__(self):
        for name in ("d_model", "n_heads", "d_in"):
            dc.require_int(name, getattr(self, name), 1)
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if self.moe.d_model != self.d_model:
            raise ValueError("moe config width must match encoder width")


@dataclass
class EncodedBatch:
    """Batch of pooled embeddings plus per-layer routing state."""

    z: Tensor
    records: list[LayerRouting]


def sinusoidal_positions(seq_len: int, d_model: int) -> np.ndarray:
    pos = np.arange(seq_len)[:, None].astype(np.float64)
    dim = np.arange(d_model)[None, :].astype(np.float64)
    angle = pos / np.power(10000.0, (2 * (dim // 2)) / d_model)
    enc = np.where(dim % 2 == 0, np.sin(angle), np.cos(angle))
    return enc.astype(np.float32)


class ModalityEncoder:
    """Stack of MHA+MoE layers for one modality."""

    def __init__(self, config: EncoderConfig, rng: dc.RngState):
        self.config = config
        d, d_in = config.d_model, config.d_in
        r = rng.stream(1000)
        self.input_proj = {
            "W": Tensor(r.normal((d, d_in), sigma=1.0 / np.sqrt(d_in)), requires_grad=True),
            "b": Tensor(np.zeros(d, np.float32), requires_grad=True),
        }
        self.layers = []
        for li in range(config.n_layers):
            lr = rng.stream(li)
            attn = {
                name: Tensor(lr.normal((d, d), sigma=1.0 / np.sqrt(d)), requires_grad=True)
                for name in ("Wq", "Wk", "Wv", "Wo")
            }
            for name in ("bq", "bv", "bo"):
                attn[name] = Tensor(np.zeros(d, np.float32), requires_grad=True)
            ln = lambda: {
                "g": Tensor(np.ones(d, np.float32), requires_grad=True),
                "b": Tensor(np.zeros(d, np.float32), requires_grad=True),
            }
            self.layers.append(
                {"ln1": ln(), "attn": attn, "ln2": ln(), "moe": MoELayer(config.moe, lr.stream(99), layer_id=li)}
            )

    def named_params(self, prefix: str = "") -> dict[str, Tensor]:
        out = {
            f"{prefix}input_proj/W": self.input_proj["W"],
            f"{prefix}input_proj/b": self.input_proj["b"],
        }
        for li, layer in enumerate(self.layers):
            base = f"{prefix}layer{li}/"
            for k, v in layer["ln1"].items():
                out[f"{base}ln1/{k}"] = v
            for k, v in layer["attn"].items():
                out[f"{base}attn/{k}"] = v
            for k, v in layer["ln2"].items():
                out[f"{base}ln2/{k}"] = v
            out.update(layer["moe"].named_params(f"{base}moe/"))
        return out

    def _mha(self, x: Tensor, attn: dict[str, Tensor], b: int, t: int) -> Tensor:
        """Attention sublayer over (b * t, d) token rows."""
        q = dc.linear(x, attn["Wq"], attn["bq"])
        # no key bias: it adds the same q.b_k to every key's logit, which the softmax cancels
        k = dc.linear(x, attn["Wk"])
        v = dc.linear(x, attn["Wv"], attn["bv"])
        return dc.linear(dc.attention(q, k, v, b, t, self.config.n_heads), attn["Wo"], attn["bo"])

    def encode(
        self,
        tokens: np.ndarray,
        train_noise_sigma: float | None = None,
        rng: dc.RngState | dc.RowBlockRng | None = None,
        cuts: dict[int, float] | None = None,
        input_jitter: float = 0.0,
    ) -> EncodedBatch:
        """Encode (B, T, d_in) raw tokens into unit embeddings (B, d_model).

        With a RowBlockRng, input jitter and routing noise for each block of
        samples come from that block's own stream; `cuts[li]` prunes layer li.
        """
        tokens = np.asarray(tokens, dtype=np.float32)
        if tokens.ndim != 3 or tokens.shape[1] == 0:
            raise dc.DegenerateInputError("encode: expected nonempty (B, T, d_in) tokens")
        b, t, _ = tokens.shape
        cfg = self.config
        if input_jitter:
            if rng is None:
                raise ValueError("input jitter requires an RngState")
            tokens = tokens + rng.normal(tokens.shape, sigma=input_jitter)
        x = dc.linear(Tensor(tokens.reshape(b * t, -1)), self.input_proj["W"], self.input_proj["b"])
        x = dc.add(x, Tensor(np.tile(sinusoidal_positions(t, cfg.d_model), (b, 1))))
        records: list[LayerRouting] = []
        for li, layer in enumerate(self.layers):
            x = dc.add(x, self._mha(dc.layer_norm(x, layer["ln1"]["g"], layer["ln1"]["b"]), layer["attn"], b, t))
            normed = dc.layer_norm(x, layer["ln2"]["g"], layer["ln2"]["b"])
            cut = None if cuts is None else cuts[li]
            moe_out, routing = layer["moe"].forward(
                normed, noise_sigma=train_noise_sigma, rng=rng.stream(7000 + li) if rng else None, cut=cut
            )
            records.append(routing)
            x = dc.add(x, moe_out)
        pooled = dc.mean(dc.reshape(x, (b, t, cfg.d_model)), axis=1)
        z = dc.l2_normalize(pooled, axis=-1)
        return EncodedBatch(z=z, records=records)


def parameter_group(name: str) -> str:
    """Freezing-contract partition of a parameter name."""
    if "/router/" in name:
        return "routers"
    if "/expert" in name:
        return "experts"
    if "input_proj" in name:
        return "input_proj"
    return "attention"
