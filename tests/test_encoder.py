import sys

import numpy as np
import pytest

from s3moe import cli
from s3moe import diffcore as dc
from s3moe import encoder as enc
from s3moe.diffcore import Tensor
from s3moe.moe import MoEConfig, MoELayer
from conftest import check_grad, mha_composite


def small_config(**kw):
    moe_cfg = MoEConfig(d_model=8, granularity_chi=2, expansion_rho=2, top_k=2, d_ffn=8)
    base = dict(n_heads=2, d_in=3, moe=moe_cfg, n_layers=2)
    base.update(kw)
    return enc.EncoderConfig(**base)


def make_encoder(seed=0, **kw):
    return enc.ModalityEncoder(small_config(**kw), dc.RngState(seed))


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            small_config(n_heads=3)

    @pytest.mark.parametrize("n_layers", [0, -1, 2.0, True])
    def test_bad_depth_rejected(self, n_layers):
        with pytest.raises(ValueError, match="n_layers"):
            small_config(n_layers=n_layers)

    def test_default_depth(self):
        moe_cfg = MoEConfig(d_model=8, granularity_chi=2, expansion_rho=2, top_k=2)
        cfg = enc.EncoderConfig(n_heads=2, d_in=3, moe=moe_cfg)
        assert cfg.n_layers == 5


class TestPositions:
    def test_first_position_alternates(self):
        pos = enc.sinusoidal_positions(4, 6)
        np.testing.assert_allclose(pos[0], [0, 1, 0, 1, 0, 1], atol=1e-7)

    def test_shape_and_range(self):
        pos = enc.sinusoidal_positions(7, 8)
        assert pos.shape == (7, 8)
        assert np.abs(pos).max() <= 1.0 + 1e-6


class TestEncode:
    def test_unit_norm_output(self):
        e = make_encoder()
        x = np.random.default_rng(0).standard_normal((5, 3, 3)).astype(np.float32)
        out = e.encode(x)
        assert out.z.shape == (5, 8)
        np.testing.assert_allclose(np.linalg.norm(out.z.data, axis=1), 1.0, atol=1e-5)

    def test_deterministic_without_noise(self):
        e = make_encoder()
        x = np.random.default_rng(1).standard_normal((3, 2, 3)).astype(np.float32)
        np.testing.assert_array_equal(e.encode(x).z.data, e.encode(x).z.data)

    def test_routing_noise_perturbs(self):
        e = make_encoder()
        x = np.random.default_rng(2).standard_normal((3, 2, 3)).astype(np.float32)
        a = e.encode(x, noise_sigma=0.5, rng=dc.RngState(10))
        b = e.encode(x, noise_sigma=0.5, rng=dc.RngState(11))
        assert not np.array_equal(a.z.data, b.z.data)

    def test_row_blocks_draw_noise_from_their_own_streams(self):
        # the two row blocks of a stacked batch are disjoint rows of one draw
        e = make_encoder()
        x = np.random.default_rng(4).standard_normal((3, 2, 3)).astype(np.float32)
        stacked = np.concatenate([x, x])
        out = e.encode(stacked, noise_sigma=0.5, rng=dc.RngState(12), input_jitter=0.2)
        for li, rec in enumerate(out.records):
            noise = dc.RngState(12).stream(7000 + li).normal(rec.logits.shape, sigma=0.5)
            np.testing.assert_array_equal(rec.noisy_logits, rec.logits.data + noise)
            n = rec.logits.shape[0] // 2
            assert not np.any(noise[:n] == noise[n:])

    def test_row_blocks_draw_jitter_from_their_own_streams(self):
        e = make_encoder()
        x = np.random.default_rng(5).standard_normal((2, 2, 3)).astype(np.float32)
        stacked = np.concatenate([x, x])
        out = e.encode(stacked, noise_sigma=0.5, rng=dc.RngState(13), input_jitter=0.2)
        drawn = dc.RngState(13).normal(stacked.shape, sigma=0.2)
        assert not np.any(drawn[:2] == drawn[2:])
        by_hand = e.encode(stacked + drawn, noise_sigma=0.5, rng=dc.RngState(13))
        np.testing.assert_array_equal(out.z.data, by_hand.z.data)

    def test_batch_invariance(self):
        e = make_encoder()
        x = np.random.default_rng(3).standard_normal((4, 3, 3)).astype(np.float32)
        full = e.encode(x).z.data
        for i in range(4):
            single = e.encode(x[i : i + 1]).z.data[0]
            np.testing.assert_allclose(full[i], single, atol=1e-5)

    def test_empty_sequence_rejected(self):
        e = make_encoder()
        with pytest.raises(dc.DegenerateInputError):
            e.encode(np.zeros((2, 0, 3), np.float32))

    def test_full_mask_matches_unmasked(self):
        e = make_encoder()
        x = np.random.default_rng(4).standard_normal((3, 2, 3)).astype(np.float32)
        cuts = {li: -np.inf for li in range(2)}
        np.testing.assert_array_equal(e.encode(x, cuts=cuts).z.data, e.encode(x).z.data)

    def test_empty_mask_changes_output(self):
        e = make_encoder()
        x = np.random.default_rng(5).standard_normal((3, 2, 3)).astype(np.float32)
        cuts = {li: np.inf for li in range(2)}
        assert not np.array_equal(e.encode(x, cuts=cuts).z.data, e.encode(x).z.data)

    def test_routing_records_per_layer(self):
        e = make_encoder()
        x = np.random.default_rng(6).standard_normal((2, 3, 3)).astype(np.float32)
        out = e.encode(x)
        assert len(out.records) == 2
        assert all(r.selected.shape == (6, 2) and r.scores.shape == (6, 4) for r in out.records)
        # sample 1's routing comes from its own token rows only
        alone = e.encode(x[1:])
        rows = slice(3, 6)
        for rec, solo in zip(out.records, alone.records):
            np.testing.assert_array_equal(rec.selected[rows], solo.selected)
            np.testing.assert_allclose(rec.weights.data[rows], solo.weights.data, atol=1e-5)


class TestParams:
    def test_group_partition_covers_everything(self):
        e = make_encoder()
        names = e.named_params("m1/")
        groups = {enc.parameter_group(n) for n in names}
        assert groups == {"routers", "experts", "input_proj", "attention"}

    def test_router_param_count(self):
        e = make_encoder()
        names = e.named_params()
        n_router = sum(t.data.size for n, t in names.items() if enc.parameter_group(n) == "routers")
        cfg = e.config
        # one (n_experts, d_model) gate matrix Wg per layer, no bias
        assert n_router == cfg.n_layers * cfg.moe.n_experts * cfg.moe.d_model

    def test_gradients_reach_all_groups(self):
        e = make_encoder()
        x = np.random.default_rng(7).standard_normal((2, 2, 3)).astype(np.float32)
        dc.tsum(e.encode(x).z).backward()
        for group in ("routers", "experts", "input_proj", "attention"):
            touched = [
                t for n, t in e.named_params().items()
                if enc.parameter_group(n) == group and t.grad is not None and np.any(t.grad != 0)
            ]
            assert touched, f"no gradient reached group {group}"

    def test_gradient_check_layernorm_gain(self):
        e = make_encoder()
        x = np.random.default_rng(8).standard_normal((2, 2, 3)).astype(np.float32)
        w = np.random.default_rng(9).standard_normal((2, 8)).astype(np.float32)

        def loss(leaf):
            e.layers[0]["ln1"]["g"] = leaf
            return dc.tsum(dc.mul(e.encode(x).z, Tensor(w)))

        check_grad(loss, np.ones(8, np.float32), rtol=5e-3)

    def test_gradient_check_input_proj_bias(self):
        e = make_encoder()
        x = np.random.default_rng(10).standard_normal((2, 2, 3)).astype(np.float32)
        w = np.random.default_rng(11).standard_normal((2, 8)).astype(np.float32)

        def loss(leaf):
            e.input_proj["b"] = leaf
            return dc.tsum(dc.mul(e.encode(x).z, Tensor(w)))

        check_grad(loss, np.zeros(8, np.float32), rtol=5e-3)


class TestFusedAttention:
    @pytest.mark.parametrize("b,t,n_heads", [(2, 3, 2), (1, 4, 1), (3, 2, 4), (2, 1, 2), (4, 4, 8)])
    def test_matches_composite_oracle_bit_for_bit(self, b, t, n_heads):
        e = make_encoder(n_heads=n_heads)
        attn = e.layers[0]["attn"]
        g = np.random.default_rng(b * 100 + t * 10 + n_heads)
        x = g.standard_normal((b, t, 8)).astype(np.float32)
        w = g.standard_normal((b, t, 8)).astype(np.float32)

        def run(build, shape):
            for p in attn.values():
                p.grad = None
            leaf = Tensor(x.reshape(shape), requires_grad=True)
            out = build(leaf)
            dc.tsum(dc.mul(out, Tensor(w.reshape(shape)))).backward()
            grads = {name: p.grad for name, p in attn.items()}
            return out.data.reshape(b * t, 8), leaf.grad.reshape(b * t, 8), grads

        fused = run(lambda leaf: e._mha(leaf, attn, b, t), (b * t, 8))
        oracle = run(lambda leaf: mha_composite(leaf, attn, n_heads), (b, t, 8))
        np.testing.assert_array_equal(fused[0], oracle[0])
        np.testing.assert_array_equal(fused[1], oracle[1])
        assert fused[2].keys() == oracle[2].keys() == {"Wq", "Wk", "Wv", "Wo", "bq", "bv", "bo"}
        for name in fused[2]:
            np.testing.assert_array_equal(fused[2][name], oracle[2][name], err_msg=f"attn/{name}")


class TestGraphSize:
    """Pins the op nodes an encode builds, so a change cannot quietly re-grow the graph."""

    @pytest.fixture
    def made(self, monkeypatch):
        ops = []
        make = dc._make

        def counting_make(*args):
            ops.append(sys._getframe(1).f_code.co_name)
            return make(*args)

        monkeypatch.setattr(dc, "_make", counting_make)
        return ops

    def test_attention_sublayer_is_five_nodes(self, made):
        e = make_encoder()
        x = Tensor(np.random.default_rng(12).standard_normal((6, 8)).astype(np.float32), requires_grad=True)
        e._mha(x, e.layers[0]["attn"], 2, 3)
        assert sorted(made) == ["attention"] + ["linear"] * 4

    def test_default_geometry_encode(self, made):
        model = cli.build_model(cli.default_run_config())
        d_in = model.enc1.config.d_in
        model.enc1.encode(np.random.default_rng(13).standard_normal((8, 4, d_in)).astype(np.float32))
        assert len(made) == 45

    def test_moe_forward_is_routing_plus_one_expert_ffn(self, made):
        layer = MoELayer(MoEConfig(d_model=8, granularity_chi=2, expansion_rho=2, top_k=2), dc.RngState(14))
        x = Tensor(np.random.default_rng(15).standard_normal((6, 8)).astype(np.float32), requires_grad=True)
        layer.route_tokens(x)
        routing_ops = list(made)
        made.clear()
        layer.forward(x)
        assert made == routing_ops + ["expert_ffn"]

