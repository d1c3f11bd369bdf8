from dataclasses import replace

import numpy as np
import pytest

from s3moe import diffcore as dc
from s3moe import moe
from s3moe.diffcore import Tensor
from conftest import check_grad, dense_ffn, expert_views, moe_token


def cfg(**kw):
    base = dict(d_model=4, granularity_chi=2, expansion_rho=2, top_k=2, d_ffn=8)
    base.update(kw)
    return moe.MoEConfig(**base)


class TestConfig:
    def test_derived_counts(self):
        c = cfg()
        assert c.n_experts == 4
        assert c.d_expert == 4
        assert c.d_expert * c.granularity_chi == c.d_ffn

    def test_divisibility_error(self):
        with pytest.raises(moe.ConfigError):
            cfg(granularity_chi=3)

    def test_topk_bounds(self):
        with pytest.raises(moe.ConfigError):
            cfg(top_k=5)

    def test_default_dffn(self):
        c = moe.MoEConfig(d_model=8, granularity_chi=4, expansion_rho=2, top_k=2)
        assert c.d_ffn == 32

    def test_large_scale_expert_count(self):
        # chi=8 with expansion 8 yields 64 experts
        c = moe.MoEConfig(d_model=16, granularity_chi=8, expansion_rho=8, top_k=8, d_ffn=64)
        assert c.n_experts == 64

    def test_expansion_parameter_accounting(self):
        c = cfg()
        # chi * rho experts of width d_ffn / chi hold rho times the dense FFN's weights
        ex = moe.MoELayer(c, dc.RngState(0)).experts
        assert ex["W1"].data.size + ex["W2"].data.size == c.expansion_rho * 2 * c.d_model * c.d_ffn


class TestActiveParams:
    def test_parity_at_k_equals_chi(self):
        c = moe.MoEConfig(d_model=8, granularity_chi=4, expansion_rho=2, top_k=4, d_ffn=32)
        acc = moe.active_params_per_token(c, k=4)
        assert acc["active_weight_params"] == 512 == c.dense_ffn_weight_count

    def test_linearity_in_k(self):
        c = moe.MoEConfig(d_model=8, granularity_chi=4, expansion_rho=2, top_k=4, d_ffn=32)
        a1 = moe.active_params_per_token(c, k=1)
        a4 = moe.active_params_per_token(c, k=4)
        assert a1["active_weight_params"] * 4 == a4["active_weight_params"]


class TestFFN:
    def test_zero_params_zero_output(self):
        z = lambda s: Tensor(np.zeros(s, np.float32))
        out = dense_ffn(Tensor(np.ones(4, np.float32)), z((8, 4)), z(8), z((4, 8)), z(4))
        np.testing.assert_array_equal(out.data, np.zeros(4))

    def test_identity_relu_1d(self):
        one = lambda s: Tensor(np.ones(s, np.float32))
        z = lambda s: Tensor(np.zeros(s, np.float32))
        out = dense_ffn(Tensor([2.0]), one((1, 1)), z(1), one((1, 1)), z(1), activation="relu")
        np.testing.assert_allclose(out.data, [2.0])

    def test_gradient(self):
        g = np.random.default_rng(0)
        W1 = Tensor(g.standard_normal((16, 4)).astype(np.float32) * 0.5)
        b1 = Tensor(g.standard_normal(16).astype(np.float32) * 0.1)
        W2 = Tensor(g.standard_normal((4, 16)).astype(np.float32) * 0.5)
        b2 = Tensor(g.standard_normal(4).astype(np.float32) * 0.1)
        w = Tensor(g.standard_normal(4).astype(np.float32))
        check_grad(
            lambda x: dc.tsum(dc.mul(dense_ffn(x, W1, b1, W2, b2), w)),
            g.standard_normal(4).astype(np.float32),
        )

    def test_gradient_wrt_weights(self):
        g = np.random.default_rng(1)
        x = Tensor(g.standard_normal((3, 4)).astype(np.float32))
        b1 = Tensor(np.zeros(8, np.float32))
        W2 = Tensor(g.standard_normal((4, 8)).astype(np.float32) * 0.5)
        b2 = Tensor(np.zeros(4, np.float32))
        check_grad(
            lambda W1: dc.tsum(dense_ffn(x, W1, b1, W2, b2)),
            g.standard_normal((8, 4)).astype(np.float32) * 0.5,
        )


def router_layer(Wg: np.ndarray, k: int) -> moe.MoELayer:
    """A MoE layer whose router weights are `Wg` (n_experts, d_model)."""
    n_experts, d_model = Wg.shape
    layer = moe.MoELayer(cfg(d_model=d_model, granularity_chi=1, expansion_rho=n_experts, top_k=k, d_ffn=4), dc.RngState(0))
    layer.router["Wg"] = Tensor(Wg)
    return layer


class TestRoute:
    def test_zero_router_uniform_and_tie_rule(self):
        layer = router_layer(np.zeros((4, 3), np.float32), k=2)
        routing = layer.route_tokens(Tensor([[1.0, 2.0, 3.0]]))
        np.testing.assert_allclose(routing.scores.data, 0.25, atol=1e-7)
        assert routing.selected.tolist() == [[0, 1]]

    def test_ordered_logits(self):
        # router rows produce logits [2,1,0,-1] for x=[1]
        layer = router_layer(np.array([[2.0], [1.0], [0.0], [-1.0]], np.float32), k=2)
        routing = layer.route_tokens(Tensor([[1.0]]))
        assert routing.selected.tolist() == [[0, 1]]
        assert abs(routing.scores.data.sum() - 1.0) <= 1e-6

    def test_eval_deterministic(self):
        g = np.random.default_rng(2)
        layer = router_layer(g.standard_normal((5, 3)).astype(np.float32), k=2)
        x = Tensor(g.standard_normal((1, 3)).astype(np.float32))
        r1 = layer.route_tokens(x)
        r2 = layer.route_tokens(x)
        np.testing.assert_array_equal(r1.scores.data, r2.scores.data)
        np.testing.assert_array_equal(r1.selected, r2.selected)

    def test_weights_are_raw_softmax_entries(self):
        g = np.random.default_rng(3)
        layer = router_layer(g.standard_normal((6, 4)).astype(np.float32), k=3)
        routing = layer.route_tokens(Tensor(g.standard_normal((1, 4)).astype(np.float32)))
        np.testing.assert_array_equal(routing.weights.data[0], routing.scores.data[0][routing.selected[0]])
        assert routing.weights.data.sum() < 1.0  # unrenormalized


class TestMoEForward:
    def test_single_expert_weight_one(self):
        c = cfg(granularity_chi=1, expansion_rho=1, top_k=1, d_ffn=8)
        layer = moe.MoELayer(c, dc.RngState(0))
        x = Tensor(np.random.default_rng(4).standard_normal(4).astype(np.float32))
        routing = layer.route_tokens(dc.reshape(x, (1, -1)))
        assert routing.weights.data[0, 0] == pytest.approx(1.0)
        experts = expert_views(layer)
        out = moe_token(x, experts, routing, 0)
        ex = experts[0]
        dense = dense_ffn(x, ex["W1"], ex["b1"], ex["W2"], ex["b2"])
        np.testing.assert_allclose(out, dense.data, atol=1e-6)

    def test_dense_equivalence_oracle(self):
        # chi=1, rho=1, k=1: MoE must match a dense FFN with copied params
        c = moe.MoEConfig(d_model=6, granularity_chi=1, expansion_rho=1, top_k=1, d_ffn=24)
        layer = moe.MoELayer(c, dc.RngState(2))
        g = np.random.default_rng(6)
        x = Tensor(g.standard_normal((7, 6)).astype(np.float32))
        out, _ = layer.forward(x)
        ex = expert_views(layer)[0]
        dense = dense_ffn(x, ex["W1"], ex["b1"], ex["W2"], ex["b2"])
        np.testing.assert_allclose(out.data, dense.data, atol=1e-6)

    def test_batched_matches_per_token(self):
        c = cfg()
        layer = moe.MoELayer(c, dc.RngState(3))
        g = np.random.default_rng(7)
        xs = g.standard_normal((5, 4)).astype(np.float32)
        out, routing = layer.forward(Tensor(xs))
        experts = expert_views(layer)
        for i in range(5):
            np.testing.assert_allclose(out.data[i], moe_token(Tensor(xs[i]), experts, routing, i), atol=1e-5)

    def test_routed_weights_exactly_k_nonzero(self):
        c = cfg()
        layer = moe.MoELayer(c, dc.RngState(4))
        g = np.random.default_rng(8)
        _, routing = layer.forward(Tensor(g.standard_normal((3, 4)).astype(np.float32)))
        assert routing.selected.shape == (3, 2)
        for i in range(3):
            np.testing.assert_array_equal(
                routing.weights.data[i], routing.scores.data[i][routing.selected[i]]
            )

    def test_gradient_through_layer(self):
        c = cfg()
        layer = moe.MoELayer(c, dc.RngState(5))
        g = np.random.default_rng(9)
        w = Tensor(g.standard_normal((3, 4)).astype(np.float32))
        check_grad(
            lambda x: dc.tsum(dc.mul(layer.forward(x)[0], w)),
            g.standard_normal((3, 4)).astype(np.float32),
            rtol=2e-3,
        )

    def test_router_gradient_flows(self):
        c = cfg()
        layer = moe.MoELayer(c, dc.RngState(6))
        g = np.random.default_rng(10)
        x = Tensor(g.standard_normal((3, 4)).astype(np.float32))
        out, _ = layer.forward(x)
        dc.tsum(out).backward()
        assert layer.router["Wg"].grad is not None
        assert np.any(layer.router["Wg"].grad != 0)


def forced_routing(layer, x, selected):
    """Routing of `x` with the expert choice overridden by `selected` (N, k)."""
    routing = layer.route_tokens(x)
    selected = np.asarray(selected)
    return replace(routing, selected=selected, weights=dc.gather_cols(routing.scores, selected))


def oracle_combine(layer, x, routing, slot_mask=None):
    experts = expert_views(layer)
    return np.stack([
        moe_token(Tensor(x.data[i]), experts, routing, i, mask=None if slot_mask is None else slot_mask[i])
        for i in range(x.shape[0])
    ])


class TestGroupedDispatch:
    def setup_method(self):
        self.layer = moe.MoELayer(cfg(), dc.RngState(11))
        self.x = Tensor(np.random.default_rng(12).standard_normal((6, 4)).astype(np.float32))

    def test_stacked_init_uses_per_expert_streams(self):
        c = cfg()
        root = dc.RngState(11)
        for i in range(c.n_experts):
            r = root.stream(i + 1)
            np.testing.assert_array_equal(self.layer.experts["W1"].data[i], r.normal((4, 4), sigma=0.5))
            np.testing.assert_array_equal(self.layer.experts["W2"].data[i], r.normal((4, 4), sigma=0.5))
        names = self.layer.named_params("m/")
        assert {n: t.shape for n, t in names.items()} == {
            "m/router/Wg": (4, 4), "m/experts/W1": (4, 4, 4), "m/experts/b1": (4, 4),
            "m/experts/W2": (4, 4, 4), "m/experts/b2": (4, 4),
        }

    def test_expert_with_zero_pairs(self):
        routing = forced_routing(self.layer, self.x, [[0, 1], [1, 0]] * 3)
        out = self.layer.combine(self.x, routing)
        np.testing.assert_allclose(out.data, oracle_combine(self.layer, self.x, routing), atol=1e-6)
        dc.tsum(out).backward()
        for name in ("W1", "b1", "W2", "b2"):
            grad = self.layer.experts[name].grad
            assert not grad[2:].any() and grad[:2].any()

    def test_all_pairs_on_one_expert(self):
        layer = moe.MoELayer(cfg(top_k=1), dc.RngState(13))
        routing = forced_routing(layer, self.x, np.full((6, 1), 3))
        out = layer.combine(self.x, routing)
        np.testing.assert_allclose(out.data, oracle_combine(layer, self.x, routing), atol=1e-6)

    def test_masked_slots(self):
        routing = self.layer.route_tokens(self.x)
        mask = np.array([[1, 0], [0, 1], [1, 1], [0, 0], [1, 0], [0, 1]], dtype=bool)
        out = self.layer.combine(self.x, routing, slot_mask=mask)
        np.testing.assert_allclose(out.data, oracle_combine(self.layer, self.x, routing, mask), atol=1e-6)
        np.testing.assert_array_equal(out.data[3], np.zeros(4))

    def test_fully_masked_layer_is_exactly_zero(self):
        routing = self.layer.route_tokens(self.x)
        out = self.layer.combine(self.x, routing, slot_mask=np.zeros((6, 2), dtype=bool))
        np.testing.assert_array_equal(out.data, np.zeros((6, 4)))
        dc.tsum(out).backward()
        assert not self.layer.experts["W1"].grad.any()

    @pytest.mark.parametrize("name", ["W1", "b1", "W2", "b2"])
    def test_gradient_wrt_stacked_params(self, name):
        w = Tensor(np.random.default_rng(14).standard_normal((6, 4)).astype(np.float32))
        x0 = self.layer.experts[name].data.copy()
        if name.startswith("b"):
            x0 = x0 + np.random.default_rng(15).standard_normal(x0.shape).astype(np.float32) * 0.1

        def fn(leaf):
            self.layer.experts[name] = leaf
            return dc.tsum(dc.mul(self.layer.forward(self.x)[0], w))

        check_grad(fn, x0, rtol=2e-3)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    c = cfg()
    layer = moe.MoELayer(c, dc.RngState(7))
    params = layer.named_params("m1/layer0/moe/")
    path = tmp_path / "ckpt.npz"
    moe.save_params(params, path)
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.npz"]
    loaded = moe.load_params(path)
    assert set(loaded) == set(params)
    for name, t in params.items():
        np.testing.assert_array_equal(loaded[name], t.data)
        assert loaded[name].dtype == np.float32
