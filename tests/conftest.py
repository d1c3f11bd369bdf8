import numpy as np
import pytest

from s3moe import diffcore as dc
from s3moe import pipeline as pl
from s3moe import synthdata as sd
from s3moe.encoder import EncoderConfig
from s3moe.moe import MoEConfig

ACTIVATION_OPS = {"gelu": dc.gelu, "relu": dc.relu}


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
    h = ACTIVATION_OPS[activation](dc.add(dc.matmul(xm, dc.transpose(W1)), b1))
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


def gather_pairs(x: dc.Tensor, pair_ids, k: int) -> dc.Tensor:
    """Token rows of routed pairs: out[p] = x[pair_ids[p] // k].

    `pair_ids` are distinct flat (token, slot) ids token * k + slot, so the
    backward scatters into an (n, k, d) slot buffer and sums over slots.
    """
    x = dc._coerce(x)
    pair_ids = np.asarray(pair_ids, dtype=np.int64)
    if x.ndim != 2 or pair_ids.ndim != 1:
        raise dc.ShapeError(f"gather_pairs: {x.shape}, {pair_ids.shape}")
    n, d = x.shape

    def bwd(g):
        slots = np.zeros((n * k, d), dtype=np.float32)
        slots[pair_ids] = g
        dc._accum(x, slots.reshape(n, k, d).sum(axis=1))

    return dc._make(x.data[pair_ids // k], (x,), bwd)


def combine_pairs(y: dc.Tensor, weights: dc.Tensor, pair_ids) -> dc.Tensor:
    """Weighted slot sum: out[i] = sum_j weights[i, j] * y[p] for pair_ids[p] = i * k + j.

    Row p of `y` belongs to the distinct pair pair_ids[p]; slots with no
    row (masked) are weighted zero, so a fully masked input gives zeros.
    """
    y, weights = dc._coerce(y), dc._coerce(weights)
    pair_ids = np.asarray(pair_ids, dtype=np.int64)
    if y.ndim != 2 or weights.ndim != 2 or pair_ids.shape != y.shape[:1]:
        raise dc.ShapeError(f"combine_pairs: {y.shape}, {weights.shape}, {pair_ids.shape}")
    n, k = weights.shape
    d = y.shape[1]
    slots = np.zeros((n * k, d), dtype=np.float32)
    slots[pair_ids] = y.data
    slots = slots.reshape(n, k, d)

    def bwd(g):
        if y.requires_grad:
            dc._accum(y, (g[:, None, :] * weights.data[:, :, None]).reshape(n * k, d)[pair_ids])
        if weights.requires_grad:
            dc._accum(weights, (slots * g[:, None, :]).sum(axis=2))

    return dc._make((slots * weights.data[:, :, None]).sum(axis=1), (y, weights), bwd)


def grouped_linear(x: dc.Tensor, W: dc.Tensor, b: dc.Tensor, counts) -> dc.Tensor:
    """Dropless grouped linear map: out[r] = x[r] @ W[g].T + b[g] for rows r of group g.

    Rows of `x` come in contiguous group blocks, counts[g] rows for group g
    in group order; W is (G, d_out, d_in) and b is (G, d_out). Each nonempty
    block is one numpy product; an empty group gets zero gradient.
    """
    x, W, b = dc._coerce(x), dc._coerce(W), dc._coerce(b)
    counts = np.asarray(counts, dtype=np.int64)
    if (x.ndim != 2 or W.ndim != 3 or b.shape != W.shape[:2] or x.shape[1] != W.shape[2]
            or counts.shape != W.shape[:1] or counts.sum() != x.shape[0]):
        raise dc.ShapeError(f"grouped_linear: {x.shape}, {W.shape}, {b.shape}, counts {counts.tolist()}")
    ends = np.cumsum(counts)
    blocks = [(g, int(e - c), int(e)) for g, (c, e) in enumerate(zip(counts, ends)) if c]
    out = np.empty((x.shape[0], W.shape[1]), dtype=np.float32)
    for g, s, e in blocks:
        out[s:e] = x.data[s:e] @ W.data[g].T + b.data[g]

    def bwd(grad):
        if x.requires_grad:
            gx = np.empty_like(x.data)
            for g, s, e in blocks:
                gx[s:e] = grad[s:e] @ W.data[g]
            dc._accum(x, gx)
        if W.requires_grad:
            gW = np.zeros_like(W.data)
            for g, s, e in blocks:
                gW[g] = grad[s:e].T @ x.data[s:e]
            dc._accum(W, gW)
        if b.requires_grad:
            gb = np.zeros_like(b.data)
            for g, s, e in blocks:
                gb[g] = grad[s:e].sum(axis=0)
            dc._accum(b, gb)

    return dc._make(out, (x, W, b), bwd)


def expert_ffn_composite(x, weights, pair_ids, counts, W1, b1, W2, b2, activation: str = "gelu") -> dc.Tensor:
    """Reference `dc.expert_ffn` as the five ops it fuses: gather, grouped linear, activation, grouped linear, combine.

    Each op computes its values and gradients with the same numpy
    expressions as the fused node, so the two must match bit for bit.
    """
    h = grouped_linear(gather_pairs(x, pair_ids, weights.shape[1]), W1, b1, counts)
    return combine_pairs(grouped_linear(ACTIVATION_OPS[activation](h), W2, b2, counts), weights, pair_ids)


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


def tiny_model(seed=0, n_layers=2, d_model=16):
    """A two-modality model small enough for a step in milliseconds: 4 experts, top-2, d_in 8."""
    mcfg = MoEConfig(d_model=d_model, granularity_chi=2, expansion_rho=2, top_k=2, d_ffn=2 * d_model)
    ecfg = EncoderConfig(n_heads=2, d_in=8, moe=mcfg, n_layers=n_layers)
    return pl.S3Model(ecfg, seed=seed)


def tiny_data(n=32, seed=0, mode="shared-only"):
    """An (x1, x2, y, latents) split of n samples for `tiny_model`: 2 tokens of width 8."""
    spec = sd.FactorSpec(n_shared_symbols=4, n_unique_symbols=2, d_in=8, seq_len=2, embed_noise_sigma=0.05)
    task = sd.TaskSpec(mode=mode, n_classes=2 if mode == "unique-only" else 4)
    return sd.generate_dataset(n, spec, task, seed=seed)


@pytest.fixture
def rng():
    return dc.RngState(0)
