import gc
import warnings
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s3moe import diffcore as dc
from conftest import check_grad, combine_pairs, expert_ffn_composite, gather_pairs, grouped_linear


def rand(shape, seed=0, scale=1.0):
    g = np.random.default_rng(seed)
    return (g.standard_normal(shape) * scale).astype(np.float32)


class TestMatmul:
    def test_identity(self):
        eye = dc.Tensor(np.eye(2, dtype=np.float32))
        out = dc.matmul(eye, eye)
        np.testing.assert_allclose(out.data, np.eye(2))

    def test_hand_case(self):
        a = dc.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = dc.Tensor([[0.0], [1.0]])
        np.testing.assert_allclose(dc.matmul(a, b).data, [[2.0], [4.0]])

    def test_shape_mismatch(self):
        with pytest.raises(dc.ShapeError):
            dc.matmul(dc.Tensor(np.zeros((2, 3))), dc.Tensor(np.zeros((2, 3))))

    def test_grad_lhs(self):
        b = rand((4, 2), seed=1)
        check_grad(lambda a: dc.tsum(dc.matmul(a, dc.Tensor(b))), rand((3, 4), seed=2))

    def test_grad_rhs(self):
        a = rand((3, 4), seed=3)
        check_grad(lambda b: dc.tsum(dc.matmul(dc.Tensor(a), b)), rand((4, 2), seed=4))

    def test_grad_of_sum_wrt_lhs_is_ones_bt(self):
        a = dc.Tensor(rand((3, 4), seed=5), requires_grad=True)
        b = dc.Tensor(rand((4, 2), seed=6))
        dc.tsum(dc.matmul(a, b)).backward()
        expected = np.ones((3, 2), dtype=np.float32) @ b.data.T
        np.testing.assert_allclose(a.grad, expected, rtol=1e-5)

    def test_batched_grad(self):
        b = rand((2, 4, 3), seed=7)
        check_grad(lambda a: dc.tsum(dc.matmul(a, dc.Tensor(b))), rand((2, 5, 4), seed=8))


class TestLinear:
    X, W, B = rand((5, 4), seed=200), rand((3, 4), seed=201), rand((3,), seed=202)
    OUT_W = rand((5, 3), seed=203)

    def loss(self, x, W, b=None):
        return dc.tsum(dc.mul(dc.linear(x, W, b), dc.Tensor(self.OUT_W)))

    def test_values(self):
        np.testing.assert_allclose(dc.linear(self.X, self.W).data, self.X @ self.W.T, rtol=1e-6)
        np.testing.assert_allclose(dc.linear(self.X, self.W, self.B).data, self.X @ self.W.T + self.B, rtol=1e-6)

    @pytest.mark.parametrize("bias", [False, True])
    def test_grad_input(self, bias):
        b = self.B if bias else None
        check_grad(lambda x: self.loss(x, dc.Tensor(self.W), b), self.X)

    @pytest.mark.parametrize("bias", [False, True])
    def test_grad_weight(self, bias):
        b = self.B if bias else None
        check_grad(lambda W: self.loss(dc.Tensor(self.X), W, b), self.W)

    def test_grad_bias(self):
        check_grad(lambda b: self.loss(dc.Tensor(self.X), dc.Tensor(self.W), b), self.B)

    @pytest.mark.parametrize("x,W,b", [
        ((5, 4), (3, 5), None),
        ((2, 5, 4), (3, 4), None),
        ((5, 4), (3, 4), (4,)),
    ])
    def test_shape_mismatch(self, x, W, b):
        with pytest.raises(dc.ShapeError):
            dc.linear(np.zeros(x), np.zeros(W), None if b is None else np.zeros(b))


class TestAttention:
    B, T, D = 2, 3, 4
    OUT_W = rand((6, 4), seed=213)

    def qkv(self):
        return [rand((self.B * self.T, self.D), seed=s) for s in (210, 211, 212)]

    def test_single_head_values(self):
        q, k, v = self.qkv()
        out = dc.attention(q, k, v, self.B, self.T, 1).data
        for i in range(self.B):
            rows = slice(i * self.T, (i + 1) * self.T)
            logits = q[rows] @ k[rows].T / np.sqrt(self.D)
            att = np.exp(logits - logits.max(axis=1, keepdims=True))
            att /= att.sum(axis=1, keepdims=True)
            np.testing.assert_allclose(out[rows], att @ v[rows], rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    @pytest.mark.parametrize("target", [0, 1, 2])
    def test_grad(self, n_heads, target):
        arrays = self.qkv()

        def loss(leaf):
            ins = [leaf if i == target else dc.Tensor(a) for i, a in enumerate(arrays)]
            out = dc.attention(*ins, self.B, self.T, n_heads)
            return dc.tsum(dc.mul(out, dc.Tensor(self.OUT_W)))

        check_grad(loss, arrays[target])

    @pytest.mark.parametrize("rows,b,t,n_heads", [(6, 2, 2, 2), (6, 2, 3, 3), (6, 2, 3, 0)])
    def test_shape_mismatch(self, rows, b, t, n_heads):
        x = np.zeros((rows, self.D), np.float32)
        with pytest.raises(dc.ShapeError):
            dc.attention(x, x, x, b, t, n_heads)

    def test_overflowing_logits_raise_at_attention(self):
        big = np.full((self.B * self.T, self.D), 1e20, np.float32)
        with np.errstate(over="ignore"), pytest.raises(dc.NonFiniteError, match="attention"):
            dc.attention(big, big, big, self.B, self.T, 2)


class TestSoftmax:
    def test_uniform(self):
        out = dc.softmax(dc.Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-7)

    def test_overflow_stability(self):
        out = dc.softmax(dc.Tensor([1000.0, 0.0]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-6)

    def test_sums_to_one(self):
        out = dc.softmax(dc.Tensor(rand((5, 7), seed=9)), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)
        assert np.all(out.data >= 0)

    def test_grad(self):
        w = rand((3,), seed=10)
        check_grad(lambda x: dc.tsum(dc.mul(dc.softmax(x), dc.Tensor(w))), np.array([1.0, 2.0, 3.0]))


class TestTopk:
    def test_single(self):
        idx, val = dc.topk(np.array([5.0, 1.0, 9.0]), 1)
        assert idx.tolist() == [2] and val.tolist() == [9.0]

    def test_tie_lowest_index(self):
        idx, _ = dc.topk(np.array([7.0, 7.0, 1.0]), 1)
        assert idx.tolist() == [0]

    def test_pair(self):
        idx, _ = dc.topk(np.array([0.1, 0.4, 0.3, 0.2]), 2)
        assert idx.tolist() == [1, 2]

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            dc.topk(np.array([1.0, 2.0]), 3)


class TestL2Normalize:
    def test_hand(self):
        np.testing.assert_allclose(dc.l2_normalize(dc.Tensor([3.0, 4.0])).data, [0.6, 0.8], atol=1e-6)

    def test_idempotent_on_unit(self):
        v = dc.l2_normalize(dc.Tensor(rand((8,), seed=11))).data
        np.testing.assert_allclose(dc.l2_normalize(dc.Tensor(v)).data, v, atol=1e-6)

    def test_unit_norm(self):
        out = dc.l2_normalize(dc.Tensor(rand((8,), seed=12)))
        assert abs(np.linalg.norm(out.data) - 1.0) <= 1e-6

    def test_zero_vector(self):
        with pytest.raises(dc.DegenerateInputError):
            dc.l2_normalize(dc.Tensor(np.zeros(4)))

    def test_grad(self):
        w = rand((6,), seed=13)
        check_grad(lambda x: dc.tsum(dc.mul(dc.l2_normalize(x), dc.Tensor(w))), rand((6,), seed=14) + 2.0)


class TestNormalCdf:
    """The float32 Phi behind `normal_cdf` and `gelu`, against the correctly rounded float64 one."""

    @staticmethod
    def grid():
        return (np.arange(-1_200_000, 1_200_001) * 1e-5).astype(np.float32)  # [-12, 12] in steps of 1e-5

    @staticmethod
    def ulps(got, want):
        # both are positive float32, so the bit patterns order like the values
        return np.abs(got.view(np.int32).astype(np.int64) - want.view(np.int32).astype(np.int64))

    def test_ulp_bands(self):
        from scipy.special import ndtr

        x = self.grid()
        err = self.ulps(dc.normal_cdf(dc.Tensor(x)).data, ndtr(x.astype(np.float64)).astype(np.float32))
        for lo, hi, bound in ((0.67, np.inf, 2), (-3.0, 0.67, 7), (-5.66, -3.0, 14), (-np.inf, -5.66, 66)):
            band = (x >= lo) & (x < hi)
            assert err[band].max() <= bound, (lo, hi)

    def test_exact_points_and_monotone(self):
        assert dc.normal_cdf(dc.Tensor([0.0, 6.0])).data.tolist() == [0.5, 1.0]
        assert (np.diff(dc.normal_cdf(dc.Tensor(self.grid())).data) >= 0).all()

    @pytest.mark.parametrize("op", [dc.gelu, dc.normal_cdf], ids=["gelu", "normal_cdf"])
    @pytest.mark.parametrize("v", [15.0, -15.0, 1e5, -1e5, 3e38, -3e38])
    def test_finite_at_extremes(self, op, v):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = dc.Tensor([v], requires_grad=True)
            out = op(x)
            dc.tsum(out).backward()
        assert np.isfinite(out.data).all() and np.isfinite(x.grad).all()


@pytest.mark.parametrize(
    "name,builder,shape",
    [
        ("add", lambda x: dc.tsum(dc.mul(dc.add(x, x), dc.Tensor(rand((3, 4), 20)))), (3, 4)),
        ("add_bias", lambda x: dc.tsum(dc.mul(dc.add(dc.Tensor(rand((3, 4), 21)), x), dc.Tensor(rand((3, 4), 22)))), (4,)),
        ("mul", lambda x: dc.tsum(dc.mul(dc.mul(x, dc.Tensor(rand((5,), 23))), dc.Tensor(rand((5,), 24)))), (5,)),
        ("relu", lambda x: dc.tsum(dc.mul(dc.relu(x), dc.Tensor(rand((4, 4), 25)))), (4, 4)),
        ("gelu", lambda x: dc.tsum(dc.mul(dc.gelu(x), dc.Tensor(rand((4, 4), 26)))), (4, 4)),
        ("exp", lambda x: dc.tsum(dc.exp(x)), (3, 3)),
        ("log", lambda x: dc.tsum(dc.log(dc.add(dc.mul(x, x), dc.Tensor(np.full((4,), 1.0, np.float32))))), (4,)),
        ("mean", lambda x: dc.mean(dc.mul(x, x)), (6,)),
        ("sum_axis", lambda x: dc.tsum(dc.mul(dc.tsum(x, axis=0), dc.Tensor(rand((4,), 27)))), (3, 4)),
        ("log_softmax", lambda x: dc.tsum(dc.mul(dc.log_softmax(x, axis=-1), dc.Tensor(rand((2, 5), 28)))), (2, 5)),
        ("normal_cdf", lambda x: dc.tsum(dc.mul(dc.normal_cdf(x), dc.Tensor(rand((5,), 29)))), (5,)),
        ("scale_rows", lambda x: dc.tsum(dc.scale_rows(x, dc.Tensor(rand((3,), 30)))), (3, 4)),
        ("div", lambda x: dc.tsum(dc.div(dc.Tensor(rand((4,), 31)), dc.add(dc.mul(x, x), dc.Tensor(np.ones(4, np.float32))))), (4,)),
        ("add_col", lambda x: dc.tsum(dc.mul(dc.add_col(dc.Tensor(rand((3, 5), 32)), x), dc.Tensor(rand((3, 5), 33)))), (3,)),
        ("transpose", lambda x: dc.tsum(dc.mul(dc.transpose(x), dc.Tensor(rand((4, 3), 34)))), (3, 4)),
        ("concat", lambda x: dc.tsum(dc.mul(dc.concat([x, x], axis=0), dc.Tensor(rand((6, 2), 35)))), (3, 2)),
        ("gather_rows", lambda x: dc.tsum(dc.mul(dc.gather_rows(x, np.array([0, 2, 2, 1])), dc.Tensor(rand((4, 3), 36)))), (3, 3)),
        ("gather_cols", lambda x: dc.tsum(dc.mul(dc.gather_cols(x, np.array([[0, 2], [1, 1]])), dc.Tensor(rand((2, 2), 37)))), (2, 4)),
        ("index_add", lambda x: dc.tsum(dc.mul(dc.index_add(3, np.array([0, 2, 2]), x), dc.Tensor(rand((3, 2), 38)))), (3, 2)),
    ],
)
def test_op_gradients(name, builder, shape):
    x0 = rand(shape, seed=zlib.crc32(name.encode()) % 1000)
    if name == "relu":
        # central differences are invalid within h of the kink
        x0 = x0 + np.sign(x0) * np.float32(0.05)
    check_grad(builder, x0)


class TestGroupedOps:
    """The reference composite's grouped dispatch ops: 3 groups over 6 rows, the middle group empty."""

    counts = np.array([2, 0, 4])
    pair_ids = np.array([5, 0, 2, 7, 3, 6])  # distinct flat (token, slot) ids, n=4 tokens, k=2

    def test_grouped_linear_matches_per_group_products(self):
        x, W, b = rand((6, 3), 60), rand((3, 5, 3), 61), rand((3, 5), 62)
        out = grouped_linear(dc.Tensor(x), dc.Tensor(W), dc.Tensor(b), self.counts)
        np.testing.assert_allclose(out.data[:2], x[:2] @ W[0].T + b[0], rtol=1e-6)
        np.testing.assert_allclose(out.data[2:], x[2:] @ W[2].T + b[2], rtol=1e-6)

    def test_grouped_linear_grad_input(self):
        W, b, v = dc.Tensor(rand((3, 5, 3), 63)), dc.Tensor(rand((3, 5), 64)), dc.Tensor(rand((6, 5), 65))
        check_grad(lambda x: dc.tsum(dc.mul(grouped_linear(x, W, b, self.counts), v)), rand((6, 3), 66))

    def test_grouped_linear_grad_weights(self):
        x, b, v = dc.Tensor(rand((6, 3), 67)), dc.Tensor(rand((3, 5), 68)), dc.Tensor(rand((6, 5), 69))
        check_grad(lambda W: dc.tsum(dc.mul(grouped_linear(x, W, b, self.counts), v)), rand((3, 5, 3), 70))

    def test_grouped_linear_grad_biases(self):
        x, W, v = dc.Tensor(rand((6, 3), 71)), dc.Tensor(rand((3, 5, 3), 72)), dc.Tensor(rand((6, 5), 73))
        check_grad(lambda b: dc.tsum(dc.mul(grouped_linear(x, W, b, self.counts), v)), rand((3, 5), 74))

    def test_empty_group_gets_zero_grad(self):
        W = dc.Tensor(rand((3, 5, 3), 75), requires_grad=True)
        b = dc.Tensor(rand((3, 5), 76), requires_grad=True)
        dc.tsum(grouped_linear(dc.Tensor(rand((6, 3), 77)), W, b, self.counts)).backward()
        assert not W.grad[1].any() and not b.grad[1].any()
        assert W.grad[0].any() and W.grad[2].any()

    def test_grouped_linear_rejects_bad_counts(self):
        with pytest.raises(dc.ShapeError):
            grouped_linear(dc.Tensor(rand((6, 3), 78)), dc.Tensor(rand((3, 5, 3), 79)),
                           dc.Tensor(rand((3, 5), 80)), np.array([2, 0, 3]))

    def test_gather_pairs_grad(self):
        v = dc.Tensor(rand((6, 3), 81))
        check_grad(lambda x: dc.tsum(dc.mul(gather_pairs(x, self.pair_ids, 2), v)), rand((4, 3), 82))

    def test_combine_pairs_values(self):
        y, w = rand((6, 3), 83), rand((4, 2), 84)
        out = combine_pairs(dc.Tensor(y), dc.Tensor(w), self.pair_ids).data
        # tokens 0 and 2 keep one slot each (pairs 0 and 5); tokens 1 and 3 keep both
        expected = np.stack([
            w[0, 0] * y[1],
            w[1, 0] * y[2] + w[1, 1] * y[4],
            w[2, 1] * y[0],
            w[3, 0] * y[5] + w[3, 1] * y[3],
        ])
        np.testing.assert_allclose(out, expected, rtol=1e-6)

    def test_combine_pairs_grad_rows(self):
        w, v = dc.Tensor(rand((4, 2), 85)), dc.Tensor(rand((4, 3), 86))
        check_grad(lambda y: dc.tsum(dc.mul(combine_pairs(y, w, self.pair_ids), v)), rand((6, 3), 87))

    def test_combine_pairs_grad_weights(self):
        y, v = dc.Tensor(rand((6, 3), 88)), dc.Tensor(rand((4, 3), 89))
        check_grad(lambda w: dc.tsum(dc.mul(combine_pairs(y, w, self.pair_ids), v)), rand((4, 2), 90))


def routed(selected, mask=None):
    """`MoELayer.combine`'s dispatch: the live (token, slot) ids stable-sorted by expert, and the count per expert."""
    pair_expert = selected.reshape(-1)
    live = np.arange(pair_expert.size) if mask is None else np.flatnonzero(mask)
    pair_ids = live[np.argsort(pair_expert[live], kind="stable")]
    return pair_ids, pair_expert[pair_ids]


class TestExpertFFN:
    """The fused expert FFN against the composite of the five ops it replaces, bit for bit."""

    @staticmethod
    def case(n, d, d_e, n_experts, k, seed, mask_frac=0.0, skip_expert=None):
        g = np.random.default_rng(seed)
        choices = [e for e in range(n_experts) if e != skip_expert]
        selected = np.stack([g.permutation(choices)[:k] for _ in range(n)])
        mask = g.random((n, k)) >= mask_frac if mask_frac else None
        pair_ids, pair_expert = routed(selected, mask)
        counts = np.bincount(pair_expert, minlength=n_experts)
        arrays = [rand(shape, seed + i) for i, shape in enumerate(
            [(n, d), (n, k), (n_experts, d_e, d), (n_experts, d_e), (n_experts, d, d_e), (n_experts, d)])]
        arrays[1] = np.abs(arrays[1])  # routing weights are softmax entries
        return arrays, pair_ids, counts

    @staticmethod
    def run(op, arrays, pair_ids, counts, activation="gelu"):
        leaves = [dc.Tensor(a, requires_grad=True) for a in arrays]
        x, w, W1, b1, W2, b2 = leaves
        out = op(x, w, pair_ids, counts, W1, b1, W2, b2, activation)
        dc.tsum(dc.mul(out, dc.Tensor(rand(out.shape, 400)))).backward()
        return out.data, [t.grad for t in leaves]

    @pytest.mark.parametrize("geometry,activation", [
        (dict(n=128, d=32, d_e=32, n_experts=16, k=4, seed=300), "gelu"),       # default geometry
        (dict(n=24, d=8, d_e=6, n_experts=4, k=2, seed=310, skip_expert=2), "gelu"),  # an empty expert
        (dict(n=48, d=8, d_e=6, n_experts=4, k=2, seed=320, mask_frac=0.4), "gelu"),  # a pruned slot mask
        (dict(n=32, d=8, d_e=16, n_experts=1, k=1, seed=330), "gelu"),          # one expert, k = 1: a dense FFN
        (dict(n=48, d=8, d_e=6, n_experts=4, k=2, seed=340, mask_frac=0.3), "relu"),
    ], ids=["default-geometry", "empty-expert", "pruned-slots", "dense", "relu"])
    def test_matches_composite(self, geometry, activation):
        arrays, pair_ids, counts = self.case(**geometry)
        fused = self.run(dc.expert_ffn, arrays, pair_ids, counts, activation)
        oracle = self.run(expert_ffn_composite, arrays, pair_ids, counts, activation)
        np.testing.assert_array_equal(fused[0], oracle[0])
        for name, got, want in zip(("x", "weights", "W1", "b1", "W2", "b2"), fused[1], oracle[1]):
            assert got is not None, name
            np.testing.assert_array_equal(got, want, err_msg=name)
        if not counts.all():
            empty = counts == 0
            assert not any(grad[empty].any() for grad in fused[1][2:])

    def test_fully_masked_layer_is_zero(self):
        arrays, pair_ids, counts = self.case(n=8, d=4, d_e=3, n_experts=3, k=2, seed=350, mask_frac=1.0)
        assert pair_ids.size == 0
        fused = self.run(dc.expert_ffn, arrays, pair_ids, counts)
        oracle = self.run(expert_ffn_composite, arrays, pair_ids, counts)
        assert not fused[0].any()
        assert not any(grad.any() for grad in fused[1][2:])
        for got, want in zip(fused[1], oracle[1]):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("target", range(6), ids=["x", "weights", "W1", "b1", "W2", "b2"])
    def test_grad(self, target):
        arrays, pair_ids, counts = self.case(n=5, d=3, d_e=4, n_experts=3, k=2, seed=360, mask_frac=0.3, skip_expert=1)
        probe = dc.Tensor(rand((5, 3), 370))

        def loss(leaf):
            ins = [leaf if i == target else dc.Tensor(a) for i, a in enumerate(arrays)]
            return dc.tsum(dc.mul(dc.expert_ffn(ins[0], ins[1], pair_ids, counts, *ins[2:]), probe))

        check_grad(loss, arrays[target])

    def test_overflowing_weights_raise_at_expert_ffn(self):
        arrays, pair_ids, counts = self.case(n=6, d=4, d_e=3, n_experts=3, k=2, seed=380)
        arrays[2] = arrays[2] * np.float32(1e20)
        arrays[4] = arrays[4] * np.float32(1e20)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(dc.NonFiniteError):
            dc.expert_ffn(*arrays[:2], pair_ids, counts, *arrays[2:])

    def test_rejects_bad_counts(self):
        x, w = dc.Tensor(rand((4, 3), 390)), dc.Tensor(rand((4, 2), 391))
        W1, b1, W2, b2 = (dc.Tensor(rand(shape, 392 + i)) for i, shape in enumerate([(3, 5, 3), (3, 5), (3, 3, 5), (3, 3)]))
        with pytest.raises(dc.ShapeError):
            dc.expert_ffn(x, w, np.array([5, 0, 2, 7, 3, 6]), np.array([2, 0, 3]), W1, b1, W2, b2)


class TestSliceRows:
    def test_values(self):
        x = rand((5, 3), seed=60)
        np.testing.assert_array_equal(dc.slice_rows(dc.Tensor(x), 1, 4).data, x[1:4])

    def test_grad(self):
        w = rand((2, 3), seed=61)
        check_grad(lambda x: dc.tsum(dc.mul(dc.slice_rows(x, 2, 4), dc.Tensor(w))), rand((5, 3), seed=62))

    def test_two_slices_cover_the_rows(self):
        x = dc.Tensor(rand((4, 2), seed=63), requires_grad=True)
        w = rand((4, 2), seed=64)
        top, bottom = dc.slice_rows(x, 0, 2), dc.slice_rows(x, 2, 4)
        dc.add(dc.tsum(dc.mul(top, dc.Tensor(w[:2]))), dc.tsum(dc.mul(bottom, dc.Tensor(w[2:])))).backward()
        np.testing.assert_array_equal(x.grad, w)

    @pytest.mark.parametrize("start,stop", [(-1, 2), (3, 2), (0, 6)])
    def test_out_of_range_rejected(self, start, stop):
        with pytest.raises(dc.ShapeError):
            dc.slice_rows(dc.Tensor(rand((5, 3), seed=65)), start, stop)


class TestAccum:
    def test_first_gradients_never_alias(self):
        a = dc.Tensor(rand((2, 3), seed=66), requires_grad=True)
        b = dc.Tensor(rand((2, 3), seed=67), requires_grad=True)
        out = dc.add(a, b)
        dc.tsum(dc.mul(out, dc.Tensor(rand((2, 3), seed=68)))).backward()
        assert not np.shares_memory(a.grad, b.grad)
        assert not np.shares_memory(a.grad, out.grad) and not np.shares_memory(b.grad, out.grad)
        expected = out.grad.copy()
        a.grad += 1.0
        np.testing.assert_array_equal(b.grad, expected)
        np.testing.assert_array_equal(out.grad, expected)

    def test_reused_tensor_accumulates_both_contributions(self):
        a = dc.Tensor(rand((2, 3), seed=69), requires_grad=True)
        w = rand((2, 3), seed=70)
        out = dc.add(a, a)
        dc.tsum(dc.mul(out, dc.Tensor(w))).backward()
        np.testing.assert_array_equal(a.grad, 2.0 * w)
        np.testing.assert_array_equal(out.grad, w)

    def test_broadcast_gradient_is_writable(self):
        a = dc.Tensor(rand((2, 3), seed=71), requires_grad=True)
        dc.tsum(a).backward()
        a.grad += 1.0
        np.testing.assert_array_equal(a.grad, np.full((2, 3), 2.0, np.float32))


class TestGraphLifetime:
    def test_backward_frees_unreferenced_intermediates(self):
        a = dc.Tensor(rand((2, 3), seed=72), requires_grad=True)
        h = dc.mul(dc.exp(a), a)
        dead = weakref.ref(h)
        loss = dc.tsum(h)
        del h
        gc.disable()  # the intermediate must go by refcount alone
        try:
            assert dead() is not None
            loss.backward()
            assert dead() is None
        finally:
            gc.enable()
        np.testing.assert_allclose(a.grad, np.exp(a.data) * (1.0 + a.data), rtol=1e-5, atol=1e-6)

    def test_second_backward_raises(self):
        a = dc.Tensor(rand((2, 3), seed=73), requires_grad=True)
        loss = dc.tsum(dc.mul(a, a))
        loss.backward()
        with pytest.raises(dc.DiffcoreError, match="already consumed"):
            loss.backward()

    def test_new_graph_on_consumed_intermediate_raises(self):
        a = dc.Tensor(rand((2, 3), seed=74), requires_grad=True)
        h = dc.mul(a, a)
        dc.tsum(h).backward()
        with pytest.raises(dc.DiffcoreError, match="already consumed"):
            dc.tsum(dc.exp(h)).backward()


def test_entropy_values_and_grad():
    assert abs(dc.entropy(dc.Tensor([0.25] * 4)).item() - np.log(4)) < 1e-6
    assert abs(dc.entropy(dc.Tensor([1.0, 0.0, 0.0])).item()) < 1e-6
    p = np.array([0.2, 0.5, 0.3], dtype=np.float32)
    check_grad(lambda x: dc.entropy(x), p)


def test_layer_norm_grad():
    g = rand((4,), seed=40)
    b = rand((4,), seed=41)
    check_grad(
        lambda x: dc.tsum(dc.mul(dc.layer_norm(x, dc.Tensor(g), dc.Tensor(b)), dc.Tensor(rand((2, 4), 42)))),
        rand((2, 4), seed=43),
        rtol=2e-3,
    )
    check_grad(
        lambda gg: dc.tsum(dc.mul(dc.layer_norm(dc.Tensor(rand((2, 4), 44)), gg, dc.Tensor(b)), dc.Tensor(rand((2, 4), 45)))),
        g,
    )


@pytest.mark.parametrize("shape", [(3, 4), (2, 5, 7), (64, 32)])
def test_layer_norm_matches_np_var_reference(shape):
    # np.var for the variance and the normalized rows y held for backward, bit for bit
    x = rand(shape, 46, scale=3.0) + np.float32(5.0)
    gain, bias, w = rand(shape[-1:], 47), rand(shape[-1:], 48), rand(shape, 49)
    leaves = [dc.Tensor(a, requires_grad=True) for a in (x, gain, bias)]
    out = dc.layer_norm(*leaves)
    dc.tsum(dc.mul(out, dc.Tensor(w))).backward()
    mu = x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
    y = (x - mu) * inv
    np.testing.assert_array_equal(out.data, y * gain + bias)
    dy = w * gain
    gx = inv * (dy - dy.mean(axis=-1, keepdims=True) - y * (dy * y).mean(axis=-1, keepdims=True))
    np.testing.assert_array_equal(leaves[0].grad, gx)
    np.testing.assert_array_equal(leaves[1].grad, (w * y).reshape(-1, shape[-1]).sum(axis=0))


def test_entropy_monotone_gaussian_sampling_determinism():
    a = dc.RngState(123).normal((4, 4))
    b = dc.RngState(123).normal((4, 4))
    np.testing.assert_array_equal(a, b)


def test_rng_streams_differ():
    root = dc.RngState(7)
    s0 = root.stream(0).normal((8,))
    s1 = root.stream(1).normal((8,))
    assert not np.allclose(s0, s1)
    np.testing.assert_array_equal(s0, dc.RngState(7).stream(0).normal((8,)))


def test_nonfinite_rejected():
    with pytest.raises(dc.NonFiniteError):
        dc.Tensor([np.inf, 1.0])
    with pytest.raises(dc.NonFiniteError):
        dc.exp(dc.Tensor([1000.0]))


class TestRequiresGrad:
    """`requires_grad` decides which inputs get gradients and whether a result keeps a graph."""

    def test_frozen_leaves_build_no_graph(self):
        a, b = dc.Tensor(rand((3, 4), 100)), dc.Tensor(rand((4, 2), 101))
        out = dc.tsum(dc.exp(dc.matmul(a, b)))
        assert not out.requires_grad and out._parents == () and out._backward is None

    def test_op_results_are_built_through_init(self, monkeypatch):
        # node counters wrap Tensor.__init__, frozen or not
        calls = []
        init = dc.Tensor.__init__

        def counting_init(t, *args, **kwargs):
            calls.append(kwargs.get("requires_grad", False))
            init(t, *args, **kwargs)

        monkeypatch.setattr(dc.Tensor, "__init__", counting_init)
        x = dc.Tensor(rand((2, 3), 102), requires_grad=True)
        dc.exp(dc.mul(x, 2.0))
        with dc.frozen([x]):
            dc.exp(dc.mul(x, 2.0))
        assert calls == [True, True, True, False, False]

    # name -> (input arrays, op over the input Tensors)
    OPS = {
        "matmul": ([rand((3, 4), 110), rand((4, 2), 111)], dc.matmul),
        "matmul_batched": ([rand((2, 3, 4), 112), rand((2, 4, 5), 113)], dc.matmul),
        "linear": ([rand((3, 4), 127), rand((5, 4), 128), rand((5,), 129)], dc.linear),
        "attention": (
            [rand((6, 4), 131), rand((6, 4), 132), rand((6, 4), 133)],
            lambda q, k, v: dc.attention(q, k, v, 2, 3, 2),
        ),
        "expert_ffn": (
            [rand((4, 3), 114), rand((4, 2), 123), rand((3, 5, 3), 115), rand((3, 5), 116), rand((3, 3, 5), 122),
             rand((3, 3), 134)],
            lambda x, w, W1, b1, W2, b2: dc.expert_ffn(
                x, w, np.array([5, 0, 2, 7, 3, 6]), np.array([2, 0, 4]), W1, b1, W2, b2),
        ),
        "layer_norm": ([rand((2, 3, 4), 117), rand((4,), 118), rand((4,), 119)], dc.layer_norm),
        "add_bias": ([rand((2, 3, 4), 120), rand((4,), 121)], dc.add),
        "slice_rows": ([rand((4, 3), 124), rand((2, 3), 125)], lambda x, y: dc.add(dc.slice_rows(x, 1, 3), y)),
    }

    @pytest.mark.parametrize("name,target", [(n, i) for n, (arrays, _) in OPS.items() for i in range(len(arrays))])
    def test_grad_does_not_depend_on_frozen_inputs(self, name, target):
        arrays, op = self.OPS[name]

        def grads(frozen):
            leaves = [dc.Tensor(a, requires_grad=i == target or not frozen) for i, a in enumerate(arrays)]
            out = op(*leaves)
            dc.tsum(dc.mul(out, dc.Tensor(rand(out.shape, 130)))).backward()
            return leaves

        full, only = grads(frozen=False), grads(frozen=True)
        np.testing.assert_array_equal(only[target].grad, full[target].grad)
        assert all(t.grad is None for i, t in enumerate(only) if i != target)

    def test_frozen_slice_builds_no_graph(self):
        x = dc.Tensor(rand((4, 3), 126), requires_grad=True)
        with dc.frozen([x]):
            out = dc.slice_rows(x, 1, 3)
        assert not out.requires_grad and out._parents == () and out._backward is None

    def test_frozen_restores_flags_after_exception(self):
        trainable = dc.Tensor(rand((2,), 140), requires_grad=True)
        fixed = dc.Tensor(rand((2,), 141))
        with pytest.raises(RuntimeError):
            with dc.frozen([trainable, fixed]):
                assert not trainable.requires_grad and not fixed.requires_grad
                raise RuntimeError("escapes the block")
        assert trainable.requires_grad and not fixed.requires_grad

    def test_nonfinite_raised_at_op_without_grad(self):
        with pytest.raises(dc.NonFiniteError, match="op produced"):
            dc.exp(dc.Tensor(100.0))
        x = dc.Tensor(50.0, requires_grad=True)
        with dc.frozen([x]), pytest.raises(dc.NonFiniteError, match="op produced"):
            dc.exp(dc.mul(x, 2.0))


def test_tensor_invariant_grad_shape():
    t = dc.Tensor(rand((3, 2), seed=50), requires_grad=True)
    dc.tsum(dc.mul(t, t)).backward()
    assert t.grad.shape == t.data.shape


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=8))
def test_softmax_probability_vector_property(vals):
    out = dc.softmax(dc.Tensor(np.array(vals, dtype=np.float32)))
    assert np.all(out.data >= 0)
    assert abs(out.data.sum() - 1.0) <= 1e-6


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_rng_determinism_property(seed):
    np.testing.assert_array_equal(dc.RngState(seed).normal((5,)), dc.RngState(seed).normal((5,)))
