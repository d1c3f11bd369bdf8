"""Dense float32 tensors with reverse-mode differentiation.

Small, auditable engine: every op checks its inputs, produces finite
outputs or raises, and carries an explicit backward closure. Broadcasting
is deliberately restricted (same shape, scalar, per-row bias, per-row
scale/column) so each gradient is a few lines.

`requires_grad` decides where the graph goes: an op result requires grad
only if one of its inputs does, and only then keeps its parents and its
backward closure. Backward computes an input's gradient only if that
input requires grad. `frozen(tensors)` switches the flag off for a block,
so a forward pass with every parameter frozen builds no graph.

`backward()` consumes the graph, freeing each intermediate once its
gradient has reached its parents, keeps the gradients of leaves and of
tensors the caller still holds, and raises on a second backward through it.

Fused ops (`linear`, `attention`, `layer_norm`, and `expert_ffn` for an
MoE layer's whole expert FFN) are one node each, equal bit for bit to the
composites they replace, and keep for backward only what cannot be rebuilt
from their parents' data.
"""

from __future__ import annotations

import numbers
from contextlib import contextmanager

import numpy as np

__all__ = [
    "DiffcoreError",
    "ShapeError",
    "NonFiniteError",
    "DegenerateInputError",
    "ACTIVATIONS",
    "RngState",
    "Tensor",
    "add",
    "add_col",
    "attention",
    "concat",
    "div",
    "entropy",
    "exp",
    "expert_ffn",
    "frozen",
    "gather_cols",
    "gather_rows",
    "gelu",
    "index_add",
    "l2_normalize",
    "layer_norm",
    "linear",
    "log",
    "log_softmax",
    "matmul",
    "mean",
    "mul",
    "neg",
    "normal_cdf",
    "relu",
    "require_int",
    "require_real",
    "reshape",
    "scale_rows",
    "slice_rows",
    "softmax",
    "sub",
    "tsum",
    "topk",
    "transpose",
]


class DiffcoreError(Exception):
    pass


class ShapeError(DiffcoreError):
    pass


class NonFiniteError(DiffcoreError):
    pass


class DegenerateInputError(DiffcoreError):
    pass


def require_int(name: str, value, least: int) -> None:
    """Raise ValueError unless `value` is an integer (not a bool) >= `least`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def require_real(name: str, value, low: float, high: float = np.inf, low_open: bool = False) -> None:
    """TypeError unless `value` is a non-bool number; ValueError unless in [low, high), or (low, high) if low_open."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {value!r}")
    if not (low < value if low_open else low <= value) or not value < high:
        raise ValueError(f"{name} must be in {'(' if low_open else '['}{low}, {high}), got {value!r}")


class RngState:
    """Deterministic PCG64 stream; equal seeds give identical draws."""

    def __init__(self, seed: int, _seq: np.random.SeedSequence | None = None):
        self.seed = int(seed)
        self._seq = _seq if _seq is not None else np.random.SeedSequence(self.seed)
        self._gen = np.random.Generator(np.random.PCG64(self._seq))

    def stream(self, stream_id: int) -> "RngState":
        """Independent child stream; parallel-safe across stream ids.

        Nested calls extend the spawn key, so distinct stream paths never
        collide.
        """
        key = self._seq.spawn_key + (int(stream_id),)
        return RngState(self.seed, _seq=np.random.SeedSequence(self.seed, spawn_key=key))

    def normal(self, shape, sigma=1.0):
        return (self._gen.standard_normal(size=shape) * sigma).astype(np.float32)

    def random(self, shape):
        return self._gen.random(shape)

    def choice(self, n, p=None):
        return int(self._gen.choice(n, p=p))

    def permutation(self, n):
        return self._gen.permutation(n)


def _as_f32(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float32)
    return arr


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None, _checked=False):
        self.data = _as_f32(data)
        # op results were checked in _make
        if not _checked and not np.isfinite(self.data).all():
            raise NonFiniteError("tensor constructed with non-finite values")
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents = tuple(_parents)
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def backward(self):
        if self.data.size != 1:
            raise ShapeError("backward() requires a scalar loss")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        # consume the graph: once a node has pushed its gradient to its
        # parents, drop its links so refcounting frees whatever only it held
        while topo:
            node = topo.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node._parents = ()
                node._backward = _spent

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _spent(grad):
    raise DiffcoreError("backward through a graph that an earlier backward() already consumed")


def _accum(parent: Tensor, grad: np.ndarray):
    if not parent.requires_grad:
        return
    if parent.grad is None:
        # astype copies: `grad` may be another node's buffer or a broadcast view
        parent.grad = grad.astype(np.float32)
    else:
        parent.grad += grad.astype(np.float32, copy=False)


def _make(data: np.ndarray, parents: tuple, backward) -> Tensor:
    data = np.asarray(data, dtype=np.float32)
    if not np.isfinite(data).all():
        raise NonFiniteError("op produced non-finite values")
    if any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=parents, _backward=backward, _checked=True)
    return Tensor(data, _checked=True)


@contextmanager
def frozen(tensors):
    """Set `requires_grad=False` on `tensors` for the block; each tensor's own flag comes back on exit."""
    tensors = list(tensors)
    flags = [t.requires_grad for t in tensors]
    for t in tensors:
        t.requires_grad = False
    try:
        yield
    finally:
        for t, flag in zip(tensors, flags):
            t.requires_grad = flag


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product, or batched product for matching 3-D stacks."""
    a, b = _coerce(a), _coerce(b)
    if a.ndim != b.ndim or a.ndim not in (2, 3) or a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: unsupported shapes {a.shape} x {b.shape}")
    out = np.matmul(a.data, b.data)

    def bwd(g):
        if a.requires_grad:
            _accum(a, np.matmul(g, b.data.swapaxes(-1, -2)))
        if b.requires_grad:
            _accum(b, np.matmul(a.data.swapaxes(-1, -2), g))

    return _make(out, (a, b), bwd)


def linear(x: Tensor, W: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ W.T (+ b) as one node, for 2-D x (N, d_in), W (d_out, d_in) and b (d_out,)."""
    x, W = _coerce(x), _coerce(W)
    if x.ndim != 2 or W.ndim != 2 or x.shape[1] != W.shape[1]:
        raise ShapeError(f"linear: unsupported shapes {x.shape} x {W.shape}.T")
    out = np.matmul(x.data, W.data.T)
    if b is not None:
        b = _coerce(b)
        if b.shape != W.shape[:1]:
            raise ShapeError(f"linear: bias {b.shape} does not match {W.shape[0]} outputs")
        out = out + b.data

    def bwd(g):
        if x.requires_grad:
            _accum(x, np.matmul(g, W.data))
        if W.requires_grad:
            _accum(W, np.matmul(x.data.T, g).T)
        if b is not None and b.requires_grad:
            _accum(b, g.sum(axis=0))

    return _make(out, (x, W) if b is None else (x, W, b), bwd)


def attention(q: Tensor, k: Tensor, v: Tensor, b: int, t: int, n_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention over flat, sample-major token rows.

    q, k and v are (b * t, d) with row i * t + j holding token j of sample
    i; each of the n_heads heads attends over its d / n_heads columns within
    a sample, and the heads are merged back into (b * t, d) rows.
    """
    q, k, v = _coerce(q), _coerce(k), _coerce(v)
    if (q.ndim != 2 or k.shape != q.shape or v.shape != q.shape or q.shape[0] != b * t
            or n_heads < 1 or q.shape[1] % n_heads):
        raise ShapeError(f"attention: q {q.shape}, k {k.shape}, v {v.shape} for {b} x {t} tokens, {n_heads} heads")
    d = q.shape[1]
    dh = d // n_heads
    scale = float(1.0 / np.sqrt(dh))

    def split(y):
        return y.reshape(b, t, n_heads, dh).transpose(0, 2, 1, 3).reshape(b * n_heads, t, dh)

    def merge(y):
        return y.reshape(b, n_heads, t, dh).transpose(0, 2, 1, 3).reshape(b * t, d)

    logits = np.matmul(split(q.data), split(k.data).transpose(0, 2, 1))
    if not np.isfinite(logits).all():
        raise NonFiniteError("attention: non-finite logits")
    logits = logits * np.float32(scale)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    att = e / e.sum(axis=-1, keepdims=True)

    # backward keeps only `att` and re-splits q, k and v from the parents' data
    def bwd(g):
        g = split(g)
        if v.requires_grad:
            _accum(v, merge(np.matmul(att.swapaxes(-1, -2), g)))
        if q.requires_grad or k.requires_grad:
            g_att = np.matmul(g, split(v.data).swapaxes(-1, -2))
            g_logits = att * (g_att - (g_att * att).sum(axis=-1, keepdims=True)) * scale
            if q.requires_grad:
                _accum(q, merge(np.matmul(g_logits, split(k.data))))
            if k.requires_grad:
                # on k.T, then transposed back: the product the matmul/transpose composite takes, bit for bit
                _accum(k, merge(np.matmul(split(q.data).swapaxes(-1, -2), g_logits).swapaxes(-1, -2)))

    return _make(merge(np.matmul(att, split(v.data))), (q, k, v), bwd)


def transpose(x: Tensor, axes=None) -> Tensor:
    x = _coerce(x)
    if axes is None:
        axes = tuple(reversed(range(x.ndim)))
    inv = np.argsort(axes)

    def bwd(g):
        _accum(x, g.transpose(inv))

    return _make(x.data.transpose(axes), (x,), bwd)


def reshape(x: Tensor, shape) -> Tensor:
    x = _coerce(x)
    old = x.shape

    def bwd(g):
        _accum(x, g.reshape(old))

    return _make(x.data.reshape(shape), (x,), bwd)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    """Rows start:stop along axis 0."""
    x = _coerce(x)
    if not 0 <= start <= stop <= x.shape[0]:
        raise ShapeError(f"slice_rows: [{start}, {stop}) outside {x.shape[0]} rows")

    def bwd(g):
        gx = np.zeros_like(x.data)
        gx[start:stop] = g
        _accum(x, gx)

    return _make(x.data[start:stop], (x,), bwd)


def concat(xs, axis=0) -> Tensor:
    xs = [_coerce(x) for x in xs]
    sizes = [x.shape[axis] for x in xs]
    offs = np.cumsum([0] + sizes)

    def bwd(g):
        for x, s, e in zip(xs, offs[:-1], offs[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(s, e)
            _accum(x, g[tuple(sl)])

    return _make(np.concatenate([x.data for x in xs], axis=axis), tuple(xs), bwd)


def add(a: Tensor, b) -> Tensor:
    """Elementwise sum; `b` may also be a bias vector over the last axis."""
    a, b = _coerce(a), _coerce(b)
    if a.shape == b.shape:
        def bwd(g):
            _accum(a, g)
            _accum(b, g)
    elif b.ndim == 1 and a.ndim >= 1 and a.shape[-1] == b.shape[0]:
        def bwd(g):
            _accum(a, g)
            if b.requires_grad:
                _accum(b, g.reshape(-1, g.shape[-1]).sum(axis=0))
    elif b.ndim == 0:
        def bwd(g):
            _accum(a, g)
            _accum(b, np.asarray(g.sum(), dtype=np.float32))
    else:
        raise ShapeError(f"add: incompatible shapes {a.shape}, {b.shape}")
    return _make(a.data + b.data, (a, b), bwd)


def neg(x: Tensor) -> Tensor:
    x = _coerce(x)

    def bwd(g):
        _accum(x, -g)

    return _make(-x.data, (x,), bwd)


def sub(a: Tensor, b) -> Tensor:
    return add(a, neg(_coerce(b)))


def add_col(x: Tensor, col: Tensor) -> Tensor:
    """Add a per-row value: x[i, j] + col[i] for 2-D x, 1-D col."""
    x, col = _coerce(x), _coerce(col)
    if x.ndim != 2 or col.ndim != 1 or x.shape[0] != col.shape[0]:
        raise ShapeError(f"add_col: {x.shape}, {col.shape}")

    def bwd(g):
        _accum(x, g)
        _accum(col, g.sum(axis=1))

    return _make(x.data + col.data[:, None], (x, col), bwd)


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product; `b` may be a python scalar or 0-d tensor."""
    if isinstance(b, (int, float)):
        a = _coerce(a)
        c = float(b)

        def bwd(g):
            _accum(a, g * c)

        return _make(a.data * np.float32(c), (a,), bwd)
    a, b = _coerce(a), _coerce(b)
    if a.shape == b.shape:
        def bwd(g):
            _accum(a, g * b.data)
            _accum(b, g * a.data)
    elif b.ndim == 0:
        def bwd(g):
            _accum(a, g * b.data)
            _accum(b, np.asarray((g * a.data).sum(), dtype=np.float32))
    else:
        raise ShapeError(f"mul: incompatible shapes {a.shape}, {b.shape}")
    return _make(a.data * b.data, (a, b), bwd)


def div(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise or scalar-denominator division."""
    a, b = _coerce(a), _coerce(b)
    if not (a.shape == b.shape or b.ndim == 0):
        raise ShapeError(f"div: incompatible shapes {a.shape}, {b.shape}")

    def bwd(g):
        _accum(a, g / b.data)
        gb = -g * a.data / (b.data * b.data)
        _accum(b, np.asarray(gb.sum(), dtype=np.float32) if b.ndim == 0 else gb)

    return _make(a.data / b.data, (a, b), bwd)


def scale_rows(x: Tensor, w: Tensor) -> Tensor:
    """Row-wise scaling: out[i] = w[i] * x[i]."""
    x, w = _coerce(x), _coerce(w)
    if x.ndim != 2 or w.ndim != 1 or x.shape[0] != w.shape[0]:
        raise ShapeError(f"scale_rows: {x.shape}, {w.shape}")

    def bwd(g):
        _accum(x, g * w.data[:, None])
        _accum(w, (g * x.data).sum(axis=1))

    return _make(x.data * w.data[:, None], (x, w), bwd)


_INV_SQRT_2PI = np.float32(1.0 / np.sqrt(2.0 * np.pi))
# Cody's rational approximation of the normal tail, Phi(-z) = exp(-z^2/2) * R(z)
# with R = P/Q of degree 8/8 (W. J. Cody, Math. Comp. 23, 1969; ANORM in
# TOMS 715, the 0.66291 <= z <= sqrt(32) range), highest degree first; Q is
# monic, so its leading 1 is left out.
_PHI_P = tuple(np.float32(c) for c in (
    1.0765576773720192317e-8, 3.9894151208813466764e-1, 8.8831497943883759412e00,
    9.3506656132177855979e01, 5.9727027639480026226e02, 2.4945375852903726711e03,
    6.8481904505362823326e03, 1.1602651437647350124e04, 9.8427148383839780218e03))
_PHI_Q = tuple(np.float32(c) for c in (
    2.2266688044328115691e01, 2.3538790178262499861e02, 1.5193775994075548050e03,
    6.4855582982667607550e03, 1.8615571640885098091e04, 3.4900952721145977266e04,
    3.8912003286093271411e04, 1.9685429676859990727e04))


def _phi(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Standard normal CDF and pdf of a float32 array, in float32.

    One Horner branch of Cody's mid-range rational serves every z = |x|; in
    float32 it is within 2 ulp of the correctly rounded CDF for x >= 0.67,
    7 ulp on [-3, 0.67), 14 ulp on [-5.66, -3) and 66 ulp below, where
    Phi < 7.6e-9. z is clamped at 15 so the polynomials stay finite; that
    changes no value, since exp(-112.5) is 0 in float32.
    """
    z = np.abs(x)
    np.minimum(z, np.float32(15.0), out=z)
    e = z * z
    e *= np.float32(-0.5)
    np.exp(e, out=e)
    num = z * _PHI_P[0]
    den = z.copy()
    for p, q in zip(_PHI_P[1:-1], _PHI_Q[:-1]):
        num += p
        num *= z
        den += q
        den *= z
    num += _PHI_P[-1]
    den += _PHI_Q[-1]
    num /= den
    num *= e
    e *= _INV_SQRT_2PI
    # Phi(x) = s + (1 - 2s) * Phi(-|x|) with s = [x > 0], exact in both cases;
    # np.where is several times slower on a random sign pattern
    s = (x > 0).astype(np.float32)
    num *= s * np.float32(-2.0) + np.float32(1.0)
    num += s
    return num, e


def _gelu_parts(x: np.ndarray, grad: bool):
    cdf, pdf = _phi(x)
    return x * cdf, (cdf + x * pdf if grad else None)


def _relu_parts(x: np.ndarray, grad: bool):
    mask = x > 0
    return np.where(mask, x, 0.0), mask


# activation name -> parts(x, grad): its value on an array and, when grad, the derivative backward multiplies by
ACTIVATIONS = {"gelu": _gelu_parts, "relu": _relu_parts}


def _activation(x: Tensor, name: str) -> Tensor:
    x = _coerce(x)
    out, deriv = ACTIVATIONS[name](x.data, x.requires_grad)

    def bwd(g):
        _accum(x, g * deriv)

    return _make(out, (x,), bwd)


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    return _activation(x, "gelu")


def relu(x: Tensor) -> Tensor:
    return _activation(x, "relu")


def expert_ffn(x: Tensor, weights: Tensor, pair_ids, counts, W1: Tensor, b1: Tensor, W2: Tensor, b2: Tensor,
               activation: str = "gelu") -> Tensor:
    """Dropless top-k expert FFN as one node: out[i] = sum_j weights[i, j] * FFN_e(x[i]) over routed slots (i, j).

    x is (n, d) and weights (n, k). `pair_ids` are the distinct flat ids
    i * k + j of the routed pairs in expert blocks, counts[e] for expert e
    in order. Expert e maps a row to W2[e] @ act(W1[e] @ row + b1[e]) + b2[e],
    one unpadded numpy product per nonempty block and linear. An unrouted
    (masked) slot weighs zero, and an empty expert gets zero gradient.
    Backward keeps the activation output, its derivative and the slot
    buffer, and re-gathers x's rows.
    """
    x, weights, W1, b1, W2, b2 = (_coerce(t) for t in (x, weights, W1, b1, W2, b2))
    pair_ids = np.asarray(pair_ids, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if (x.ndim != 2 or weights.ndim != 2 or weights.shape[0] != x.shape[0] or pair_ids.ndim != 1
            or W1.ndim != 3 or W2.ndim != 3 or W1.shape[2] != x.shape[1] or W2.shape[::2] != W1.shape[:2]
            or b1.shape != W1.shape[:2] or b2.shape != W2.shape[:2]
            or counts.shape != W1.shape[:1] or counts.sum() != pair_ids.size):
        raise ShapeError(f"expert_ffn: {x.shape}, {weights.shape}, {pair_ids.shape}, {W1.shape}, {b1.shape}, "
                         f"{W2.shape}, {b2.shape}, counts {counts.tolist()}")
    n, k = weights.shape
    ends = np.cumsum(counts)
    blocks = [(e, int(end - c), int(end)) for e, (c, end) in enumerate(zip(counts, ends)) if c]
    hidden_grad = x.requires_grad or W1.requires_grad or b1.requires_grad
    a = np.empty((pair_ids.size, W1.shape[1]), dtype=np.float32)
    for e, s, t in blocks:
        a[s:t] = x.data[pair_ids[s:t] // k] @ W1.data[e].T + b1.data[e]
    a, deriv = ACTIVATIONS[activation](a, hidden_grad)
    slots = np.zeros((n * k, W2.shape[1]), dtype=np.float32)
    for e, s, t in blocks:
        slots[pair_ids[s:t]] = a[s:t] @ W2.data[e].T + b2.data[e]
    slots = slots.reshape(n, k, -1)
    out = (slots * weights.data[:, :, None]).sum(axis=1)
    # drop what no gradient reads, so the closure keeps it no longer
    a = a if W2.requires_grad else None
    slots = slots if weights.requires_grad else None

    def bwd(g):
        if weights.requires_grad:
            _accum(weights, (slots * g[:, None, :]).sum(axis=2))
        params = (W1, b1, W2, b2)
        if not (x.requires_grad or any(t.requires_grad for t in params)):
            return
        gW1, gb1, gW2, gb2 = grads = [np.zeros_like(t.data) if t.requires_grad else None for t in params]
        g_slots = np.zeros((n * k, x.shape[1]), dtype=np.float32) if x.requires_grad else None
        flat_w = weights.data.reshape(-1)
        for e, s, t in blocks:
            ids = pair_ids[s:t]
            gy = g[ids // k] * flat_w[ids, None]
            if gW2 is not None:
                gW2[e] = gy.T @ a[s:t]
            if gb2 is not None:
                gb2[e] = gy.sum(axis=0)
            if not hidden_grad:
                continue
            gh = (gy @ W2.data[e]) * deriv[s:t]
            if g_slots is not None:
                g_slots[ids] = gh @ W1.data[e]
            if gW1 is not None:
                gW1[e] = gh.T @ x.data[ids // k]
            if gb1 is not None:
                gb1[e] = gh.sum(axis=0)
        for t, grad in zip(params, grads):
            if grad is not None:
                _accum(t, grad)
        if g_slots is not None:
            _accum(x, g_slots.reshape(n, k, -1).sum(axis=1))

    return _make(out, (x, weights, W1, b1, W2, b2), bwd)


def exp(x: Tensor) -> Tensor:
    x = _coerce(x)
    with np.errstate(over="ignore"):
        out = np.exp(x.data)

    def bwd(g):
        _accum(x, g * out)

    return _make(out, (x,), bwd)


def log(x: Tensor) -> Tensor:
    x = _coerce(x)
    if np.any(x.data <= 0):
        raise DegenerateInputError("log: non-positive input")

    def bwd(g):
        _accum(x, g / x.data)

    return _make(np.log(x.data), (x,), bwd)


def tsum(x: Tensor, axis=None, keepdims=False) -> Tensor:
    x = _coerce(x)

    def bwd(g):
        ge = g if axis is None or keepdims else np.expand_dims(g, axis)
        _accum(x, np.broadcast_to(ge, x.shape))

    return _make(x.data.sum(axis=axis, keepdims=keepdims), (x,), bwd)


def mean(x: Tensor, axis=None, keepdims=False) -> Tensor:
    x = _coerce(x)
    if axis is None:
        n = x.data.size
    else:
        n = x.shape[axis]
    return mul(tsum(x, axis=axis, keepdims=keepdims), 1.0 / float(n))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Stable softmax along `axis`; rows sum to one."""
    x = _coerce(x)
    if x.shape[axis] == 0:
        raise ShapeError("softmax: empty axis")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        _accum(x, out * (g - dot))

    return _make(out, (x,), bwd)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = _coerce(x)
    if x.shape[axis] == 0:
        raise ShapeError("log_softmax: empty axis")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse

    def bwd(g):
        _accum(x, g - np.exp(out) * g.sum(axis=axis, keepdims=True))

    return _make(out, (x,), bwd)


def l2_normalize(x: Tensor, axis: int = -1) -> Tensor:
    """Project onto the unit sphere along `axis`; zero vectors are rejected."""
    x = _coerce(x)
    norm = np.sqrt((x.data.astype(np.float64) ** 2).sum(axis=axis, keepdims=True))
    if np.any(norm < 1e-12):
        raise DegenerateInputError("l2_normalize: zero-norm input")
    norm = norm.astype(np.float32)
    out = x.data / norm

    def bwd(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        _accum(x, (g - out * dot) / norm)

    return _make(out, (x,), bwd)


def gather_rows(x: Tensor, idx) -> Tensor:
    """Select rows (axis 0) by an integer index array."""
    x = _coerce(x)
    idx = np.asarray(idx, dtype=np.int64)

    def bwd(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        _accum(x, gx)

    return _make(x.data[idx], (x,), bwd)


def gather_cols(x: Tensor, idx) -> Tensor:
    """out[i, j] = x[i, idx[i, j]] for 2-D x and integer idx."""
    x = _coerce(x)
    idx = np.asarray(idx, dtype=np.int64)
    if x.ndim != 2 or idx.ndim != 2 or idx.shape[0] != x.shape[0]:
        raise ShapeError(f"gather_cols: {x.shape}, {idx.shape}")
    rows = np.arange(x.shape[0])[:, None]

    def bwd(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, (rows, idx), g)
        _accum(x, gx)

    return _make(x.data[rows, idx], (x,), bwd)


def index_add(n_rows: int, idx, src: Tensor) -> Tensor:
    """Scatter-add rows of `src` into a zero (n_rows, d) buffer at `idx`."""
    src = _coerce(src)
    idx = np.asarray(idx, dtype=np.int64)
    out = np.zeros((n_rows,) + src.shape[1:], dtype=np.float32)
    np.add.at(out, idx, src.data)

    def bwd(g):
        _accum(src, g[idx])

    return _make(out, (src,), bwd)


def entropy(p: Tensor, axis: int = -1) -> Tensor:
    """Shannon entropy in nats of probability vectors; 0*log(0) := 0."""
    p = _coerce(p)
    safe = np.maximum(p.data, 1e-12)
    logp = np.log(safe)
    out = -(p.data * logp).sum(axis=axis)

    def bwd(g):
        _accum(p, -np.expand_dims(g, axis) * (logp + 1.0))

    return _make(out, (p,), bwd)


def normal_cdf(x: Tensor) -> Tensor:
    """Standard normal CDF (Phi); gradient is the normal pdf."""
    x = _coerce(x)
    out, pdf = _phi(x.data)

    def bwd(g):
        _accum(x, g * pdf)

    return _make(out, (x,), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis with learnable gain/bias."""
    x, gain, bias = _coerce(x), _coerce(gain), _coerce(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError("layer_norm: gain/bias must match last axis")
    mu = x.data.mean(axis=-1, keepdims=True)
    centred = x.data - mu
    # np.var's own square, sum and divide, bit for bit, reusing mu instead of taking the mean again
    inv = 1.0 / np.sqrt((centred * centred).mean(axis=-1, keepdims=True) + eps)
    out = centred * inv * gain.data + bias.data

    def bwd(g):
        flat_g = g.reshape(-1, d)
        y = (x.data - mu) * inv
        if gain.requires_grad:
            _accum(gain, (flat_g * y.reshape(-1, d)).sum(axis=0))
        if bias.requires_grad:
            _accum(bias, flat_g.sum(axis=0))
        if x.requires_grad:
            dy = g * gain.data
            m1 = dy.mean(axis=-1, keepdims=True)
            m2 = (dy * y).mean(axis=-1, keepdims=True)
            _accum(x, inv * (dy - m1 - y * m2))

    return _make(out, (x, gain, bias), bwd)


def topk(x, k: int):
    """Top-k along the last axis, values descending, ties to lowest index.

    Non-differentiable; accepts a Tensor or array and returns numpy
    (indices, values).
    """
    data = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float32)
    n = data.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"topk: k={k} out of range for axis size {n}")
    order = np.argsort(-data, axis=-1, kind="stable")
    idx = order[..., :k]
    vals = np.take_along_axis(data, idx, axis=-1)
    return idx, vals
