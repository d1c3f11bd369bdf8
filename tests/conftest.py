import numpy as np
import pytest

from s3moe import diffcore as dc
from s3moe.moe import ACTIVATIONS


def finite_difference_grad(fn, x0: np.ndarray, h: float = 1e-3) -> np.ndarray:
    """Central finite differences of a scalar-valued fn at x0 (float64)."""
    x0 = np.asarray(x0, dtype=np.float64)
    grad = np.zeros_like(x0)
    it = np.nditer(x0, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        xp = x0.copy()
        xm = x0.copy()
        xp[i] += h
        xm[i] -= h
        grad[i] = (fn(xp) - fn(xm)) / (2.0 * h)
        it.iternext()
    return grad


def check_grad(fn, x0: np.ndarray, rtol: float = 1e-3, h: float = 1e-2):
    """Compare analytic gradient of fn (built from diffcore ops) vs FD.

    fn maps a Tensor leaf to a scalar Tensor. Relative error is measured
    against the gradient norm. The default step balances central-difference
    truncation against float32 forward-pass roundoff.
    """
    leaf = dc.Tensor(np.asarray(x0, dtype=np.float32), requires_grad=True)
    loss = fn(leaf)
    loss.backward()
    analytic = leaf.grad.astype(np.float64)

    def scalar(x):
        return float(fn(dc.Tensor(x.astype(np.float32))).data)

    numeric = finite_difference_grad(scalar, x0, h=h)
    scale = max(np.linalg.norm(numeric), 1e-4)
    err = np.linalg.norm(analytic - numeric) / scale
    assert err <= rtol, f"gradient mismatch: rel err {err:.2e}"
    return err


def expert_views(layer) -> list[dict[str, dc.Tensor]]:
    """Per-expert {W1, b1, W2, b2} views of a MoE layer's stacked weights.

    For the single-token oracle `moe_token`; the views share the layer's
    data and are not part of its autodiff graph.
    """
    stacked = layer.experts
    n = stacked["W1"].shape[0]
    return [{name: dc.Tensor(t.data[e]) for name, t in stacked.items()} for e in range(n)]


def dense_ffn(x: dc.Tensor, W1, b1, W2, b2, activation: str = "gelu") -> dc.Tensor:
    """Reference two-layer FFN: W2 @ phi(W1 @ x + b1) + b2, for (d,) or (N, d) input."""
    single = x.ndim == 1
    xm = dc.reshape(x, (1, -1)) if single else x
    h = ACTIVATIONS[activation](dc.add(dc.matmul(xm, dc.transpose(W1)), b1))
    out = dc.add(dc.matmul(h, dc.transpose(W2)), b2)
    return dc.reshape(out, (-1,)) if single else out


def mha_composite(x: dc.Tensor, attn: dict[str, dc.Tensor], n_heads: int) -> dc.Tensor:
    """Reference multi-head attention sublayer on (B, T, d) tokens, built from matmul/transpose/reshape.

    The composite that `dc.linear` and `dc.attention` replace: same
    weights, no key bias, and the same numpy expressions, so the fused
    sublayer must match it bit for bit.
    """
    b, t, d = x.shape
    h = n_heads
    dh = d // h
    flat = dc.reshape(x, (b * t, d))

    def heads(w, bias=None):
        y = dc.matmul(flat, dc.transpose(attn[w]))
        if bias is not None:
            y = dc.add(y, attn[bias])
        return dc.reshape(dc.transpose(dc.reshape(y, (b, t, h, dh)), (0, 2, 1, 3)), (b * h, t, dh))

    q = heads("Wq", "bq")
    k = heads("Wk")
    v = heads("Wv", "bv")
    att = dc.softmax(dc.mul(dc.matmul(q, dc.transpose(k, (0, 2, 1))), 1.0 / np.sqrt(dh)), axis=-1)
    ctx = dc.matmul(att, v)
    ctx = dc.reshape(dc.transpose(dc.reshape(ctx, (b, h, t, dh)), (0, 2, 1, 3)), (b * t, d))
    out = dc.add(dc.matmul(ctx, dc.transpose(attn["Wo"])), attn["bo"])
    return dc.reshape(out, (b, t, d))


def moe_token(x: dc.Tensor, experts, routing, i: int, mask=None, activation: str = "gelu") -> np.ndarray:
    """Reference MoE output for token row i: sum of weight * expert(x) over its retained slots.

    Reads `routing.selected[i]` and `routing.weights.data[i]`; with every
    slot masked the result is the zero vector.
    """
    out = np.zeros(x.shape[-1], np.float32)
    for slot, (e, w) in enumerate(zip(routing.selected[i], routing.weights.data[i])):
        if mask is None or mask[slot]:
            ex = experts[e]
            out += float(w) * dense_ffn(x, ex["W1"], ex["b1"], ex["W2"], ex["b2"], activation).data
    return out


def retained_ids(mask, records) -> set[tuple[int, int, int, int]]:
    """The (modality, layer, token, slot) ids of the calibration pairs a PruneMask keeps.

    `records` are the routing records the mask was calibrated on; a layer's
    batches stack in order, as in `build_prune_mask`.
    """
    kept = {
        (m, layer): np.concatenate([r.slot_mask(cut) for r in recs if r.layer_id == layer])
        for m, recs in records.items()
        for layer, cut in mask.cuts[m].items()
    }
    return {(m, layer, int(token), int(slot)) for (m, layer), keep in kept.items() for token, slot in np.argwhere(keep)}


@pytest.fixture
def rng():
    return dc.RngState(0)
