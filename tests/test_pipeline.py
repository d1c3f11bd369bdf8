import sys
import tracemalloc

import numpy as np
import pytest

from s3moe import analysis as an
from s3moe import cli
from s3moe import diffcore as dc
from s3moe import losses as ls
from s3moe import pipeline as pl
from s3moe import synthdata as sd
from s3moe.encoder import EncoderConfig, parameter_group
from s3moe.losses import LossWeights
from s3moe.moe import MoEConfig, MoELayer
from conftest import finite_difference_grad, retained_ids, tiny_data, tiny_model
from test_acceptance import _tiny_trained_model


def snapshot(model):
    return {n: t.data.copy() for n, t in model.named_params().items()}


def stacked_views(model, x1, x2, sigma, r, jitter=0.0):
    """One Specialization forward from public ops: each modality encoded once over [view a; view b].

    Returns each modality's (view a, view b) embeddings, the routing records
    of both views and view a's token count, which leads each record.
    """
    b = len(x1)
    e1, e2 = model.encode_pair(
        np.concatenate([x1, x1]), np.concatenate([x2, x2]), noise_sigma=sigma, rng=r, input_jitter=jitter
    )
    views1, views2 = ((dc.slice_rows(e.z, 0, b), dc.slice_rows(e.z, b, 2 * b)) for e in (e1, e2))
    return views1, views2, e1.records + e2.records, b * x1.shape[1]


class TestStageConfig:
    def test_unknown_stage(self):
        with pytest.raises(ValueError):
            pl.StageConfig(stage="pruning")

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            pl.StageConfig(stage="selection", batch_size=1)

    @pytest.mark.parametrize("field, value, error", [
        ("routing_noise", float("nan"), ValueError),
        ("routing_noise", float("inf"), ValueError),
        ("routing_noise", -0.5, ValueError),
        ("routing_noise", True, TypeError),
        ("routing_noise", "0.1", TypeError),
        ("input_jitter", -1.0, ValueError),
        ("input_jitter", float("nan"), ValueError),
        ("input_jitter", None, TypeError),
    ], ids=["noise-nan", "noise-inf", "noise-negative", "noise-bool", "noise-str",
            "jitter-negative", "jitter-nan", "jitter-none"])
    def test_bad_noise_rejected(self, field, value, error):
        with pytest.raises(error, match=field):
            pl.StageConfig(stage="specialization", **{field: value})


class TestSpecialization:
    def test_zero_epochs_is_identity(self):
        model = tiny_model()
        before = snapshot(model)
        x1, x2, _, _ = tiny_data()
        pl.train_specialization(model, x1, x2, pl.StageConfig(stage="specialization", epochs=0, batch_size=16))
        for name, arr in snapshot(model).items():
            np.testing.assert_array_equal(arr, before[name])

    def test_single_step_matches_manual_gradient(self):
        x1, x2, _, _ = tiny_data(n=16)
        weights = LossWeights(lambda_aux=0.0)
        cfg = pl.StageConfig(
            stage="specialization", epochs=1, batch_size=16, learning_rate=0.05,
            momentum=0.0, seed=3, weights=weights,
        )
        model = tiny_model(seed=7)
        pl.train_specialization(model, x1, x2, cfg)

        ref = tiny_model(seed=7)
        params = ref.named_params()
        sigma = 1.0 / ref.enc1.config.moe.n_experts
        rng = dc.RngState(cfg.seed)
        order = rng.stream(0).permutation(16)
        idx = order[:16]
        views1, views2, records, n_tokens = stacked_views(ref, x1[idx], x2[idx], sigma, rng.stream(10_000))
        loss, _ = ls.l_special(views1, views2, records, weights, noise_sigma=sigma, n_tokens=n_tokens)
        loss.backward()
        trained = model.named_params()
        for name, t in params.items():
            expected = t.data if t.grad is None else (t.data - 0.05 * t.grad).astype(np.float32)
            np.testing.assert_array_equal(trained[name].data, expected, err_msg=name)

    @pytest.mark.parametrize("n_layers", [1, 3])
    def test_step_slices_views_once(self, monkeypatch, n_layers):
        # 4 view embeddings plus one leading-rows slice each of the stacked scores and logits
        made = []
        make = dc._make

        def counting_make(*args):
            made.append(sys._getframe(1).f_code.co_name)
            return make(*args)

        x1, x2, _, _ = tiny_data(n=16)
        model = tiny_model(seed=7, n_layers=n_layers)
        monkeypatch.setattr(dc, "_make", counting_make)
        log = pl.train_specialization(model, x1, x2, pl.StageConfig(stage="specialization", batch_size=16))
        assert len(log) == 1
        assert made.count("slice_rows") == 6

    def test_load_loss_uses_stage_routing_noise(self):
        x1, x2, _, _ = tiny_data(n=16)
        cfg = pl.StageConfig(stage="specialization", epochs=1, batch_size=16, seed=3, routing_noise=1.0)
        log = pl.train_specialization(tiny_model(seed=7), x1, x2, cfg)
        rng = dc.RngState(cfg.seed)
        idx = rng.stream(0).permutation(16)
        # view a's rows lead the stacked draw, so they are what view a alone draws from the step stream
        e1, e2 = tiny_model(seed=7).encode_pair(x1[idx], x2[idx], noise_sigma=1.0, rng=rng.stream(10_000))
        records = e1.records + e2.records
        with_noise = ls.l_aux(records, LossWeights(), 1.0)[1]["load"]
        smoothed = ls.l_aux(records, LossWeights(), 1.0 / 4)[1]["load"]  # 1 / n_experts
        assert log[0]["aux_load"] == pytest.approx(with_noise, rel=1e-4)
        assert abs(with_noise - smoothed) > 1e-3 * abs(with_noise)

    @staticmethod
    def first_step(monkeypatch, model, x1, x2, cfg):
        """The two view pairs, routing records and view a's token count that the first step hands the losses."""
        seen = []
        original = ls.l_special

        def l_special(views1, views2, records, *args, **kwargs):
            seen.append((views1, views2, records, kwargs["n_tokens"]))
            return original(views1, views2, records, *args, **kwargs)

        monkeypatch.setattr(pl.ls, "l_special", l_special)
        pl.train_specialization(model, x1, x2, cfg)
        return seen[0]

    def test_views_draw_different_noise_in_every_layer(self, monkeypatch):
        x1, x2, _, _ = tiny_data(n=16)
        cfg = pl.StageConfig(stage="specialization", batch_size=16, seed=3)
        _, _, records, n_tokens = self.first_step(monkeypatch, tiny_model(seed=7, n_layers=3), x1, x2, cfg)
        assert len(records) == 6
        for rec in records:
            noise = rec.noisy_logits - rec.logits.data
            assert noise.shape[0] == 2 * n_tokens
            assert np.all(noise[:n_tokens] != noise[n_tokens:]), rec.layer_id

    def test_noiseless_step_embeds_each_view_as_a_separate_encode(self, monkeypatch):
        x1, x2, _, _ = tiny_data(n=16)
        cfg = pl.StageConfig(stage="specialization", batch_size=16, seed=3, routing_noise=0.0, input_jitter=0.0)
        views1, views2, _, _ = self.first_step(monkeypatch, tiny_model(seed=7), x1, x2, cfg)
        idx = dc.RngState(cfg.seed).stream(0).permutation(16)
        e1, e2 = tiny_model(seed=7).encode_pair(x1[idx], x2[idx])
        for m, views, alone in ((1, views1, e1), (2, views2, e2)):
            for name, z in zip("ab", views):
                np.testing.assert_allclose(z.data, alone.z.data, rtol=0, atol=1e-6, err_msg=f"m{m} view {name}")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts(self):
        model = tiny_model()
        x1, x2, _, _ = tiny_data()
        cfg = pl.StageConfig(stage="specialization", epochs=5, batch_size=16, learning_rate=1e30)
        with pytest.raises(pl.DivergenceError):
            pl.train_specialization(model, x1, x2, cfg)

    def test_log_contains_every_term(self):
        model = tiny_model()
        x1, x2, _, _ = tiny_data()
        log = pl.train_specialization(
            model, x1, x2, pl.StageConfig(stage="specialization", epochs=1, batch_size=16, learning_rate=0.01)
        )
        assert len(log) == 2
        for key in ("rep", "dsc", "aux", "aux_imp", "aux_load", "aux_local", "aux_global", "total"):
            assert key in log[0]

    def test_wrong_stage_rejected(self):
        model = tiny_model()
        x1, x2, y, _ = tiny_data()
        with pytest.raises(ValueError):
            pl.train_specialization(model, x1, x2, pl.StageConfig(stage="selection"))

    def test_peak_memory_does_not_grow_with_steps(self):
        # a step's graph must be gone before the next forward, so three steps peak like one
        x1, x2, _, _ = tiny_data(n=48)
        cfg = pl.StageConfig(stage="specialization", epochs=1, batch_size=16, seed=3)

        def peak(steps):
            model = tiny_model(seed=7)
            tracemalloc.start()
            try:
                pl.train_specialization(model, x1[: 16 * steps], x2[: 16 * steps], cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, three = peak(1), peak(3)
        assert three <= 1.25 * one, (one, three)

    def test_default_step_peak_memory(self):
        # one default-geometry step (64 samples, batch 64): the fused expert FFN, attention and layer norm
        # keep only what their backward cannot rebuild from their parents
        cfg = cli.default_run_config()
        cfg["specialization"]["epochs"] = 1
        model = cli.build_model(cfg)
        x1, x2, _, _ = sd.generate_dataset(64, cli.factor_spec(cfg), cli.task_spec(cfg), seed=0)
        stage = cli.stage_config(cfg, "specialization")
        tracemalloc.start()
        try:
            pl.train_specialization(model, x1, x2, stage)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6, peak

    def test_gradients_cleared_before_the_forward(self, monkeypatch):
        # the last step's gradients must not stay alive through the next step's forward
        model = tiny_model()
        x1, x2, _, _ = tiny_data(n=48)
        params = model.named_params()
        held = []
        original = ls.l_special

        def l_special(*args, **kwargs):
            held.append(sorted(name for name, t in params.items() if t.grad is not None))
            return original(*args, **kwargs)

        monkeypatch.setattr(pl.ls, "l_special", l_special)
        pl.train_specialization(model, x1, x2, pl.StageConfig(stage="specialization", epochs=1, batch_size=16))
        assert held == [[]] * 3, [len(names) for names in held]


class TestSelection:
    def run_selection(self, weights=None, epochs=1):
        model = tiny_model(seed=1)
        x1, x2, y, _ = tiny_data(n=32, seed=1)
        before = snapshot(model)
        cfg = pl.StageConfig(
            stage="selection", epochs=epochs, batch_size=16, learning_rate=0.1,
            weights=weights or LossWeights(),
        )
        log = pl.train_selection(model, x1, x2, y, cfg)
        return model, before, log

    def test_zero_weights_leave_routers_unchanged(self):
        model, before, _ = self.run_selection(LossWeights(lambda_suff=0.0, lambda_min=0.0))
        for name, arr in snapshot(model).items():
            np.testing.assert_array_equal(arr, before[name])

    def test_freeze_invariant(self):
        model, before, _ = self.run_selection()
        changed = []
        for name, arr in snapshot(model).items():
            if parameter_group(name) == "routers":
                if not np.array_equal(arr, before[name]):
                    changed.append(name)
            else:
                np.testing.assert_array_equal(arr, before[name], err_msg=name)
        assert changed, "no router parameter moved"

    def test_freezes_by_requires_grad(self):
        model, _, _ = self.run_selection()
        for name, t in model.named_params().items():
            assert t.requires_grad, name
            if parameter_group(name) == "routers":
                assert t.grad is not None and t.grad.any(), name
            else:
                assert t.grad is None, name

    def test_entropy_monitors_logged(self):
        _, _, log = self.run_selection()
        for key in ("m1_local_entropy", "m1_global_neg_entropy", "m2_local_entropy", "m2_global_neg_entropy"):
            assert key in log[0]

    def test_stragglers_dropped_before_the_loss(self, monkeypatch):
        # class 2 has one member, so the stratified first batch holds it alone
        x1, x2, _, _ = tiny_data(n=32, seed=1)
        y = np.array([0] * 15 + [1] * 16 + [2])
        seen = []
        original = ls.l_select

        def l_select(z1, z2, labels, weights):
            seen.append(labels)
            return original(z1, z2, labels, weights)

        monkeypatch.setattr(pl.ls, "l_select", l_select)
        log = pl.train_selection(tiny_model(seed=1), x1, x2, y, pl.StageConfig(stage="selection", batch_size=16))
        assert len(log) == len(seen) == 2
        assert 2 not in seen[0] and len(seen[0]) == 15
        for labels in seen:
            assert all(np.count_nonzero(labels == c) >= 2 for c in labels), labels

    def test_requires_labels(self):
        model = tiny_model()
        x1, x2, _, _ = tiny_data()
        with pytest.raises(ValueError):
            pl.train_selection(model, x1, x2, None, pl.StageConfig(stage="selection", batch_size=16))

    def test_trainable_ratio_default_widths(self):
        # chi=8, rho=8, 5 layers at transformer-like widths
        mcfg = MoEConfig(d_model=128, granularity_chi=8, expansion_rho=8, top_k=8, d_ffn=512)
        ecfg = EncoderConfig(n_heads=8, d_in=32, moe=mcfg, n_layers=5)
        model = pl.S3Model(ecfg, seed=0)
        rep = an.trainable_param_ratio(model.named_params(), parameter_group)
        assert rep["trainable_pct"] < 1.2


class TestStratifiedOrder:
    def test_permutation_of_all_indices(self):
        y = np.array([0, 0, 0, 1, 1, 2])
        order = pl.stratified_order(y, dc.RngState(0))
        assert sorted(order.tolist()) == list(range(6))

    def test_classes_interleaved(self):
        y = np.repeat([0, 1, 2], 6)
        order = pl.stratified_order(y, dc.RngState(1))
        first = y[order[:3]]
        assert sorted(first.tolist()) == [0, 1, 2]


def collect_records(model, x1, x2):
    e1, e2 = model.encode_pair(x1, x2)
    return {1: e1.records, 2: e2.records}, (e1, e2)


def test_frozen_encode_builds_no_graph():
    model = tiny_model(seed=2)
    x1, x2, _, _ = tiny_data(n=8, seed=2)
    params = model.named_params()
    graph_z = model.encode_pair(x1, x2)[0].z
    with dc.frozen(params.values()):
        z = model.encode_pair(x1, x2)[0].z
    assert not z.requires_grad and z._parents == () and z._backward is None
    np.testing.assert_array_equal(z.data, graph_z.data)
    assert all(t.requires_grad for t in params.values())


class TestPruneMask:
    def test_p_one_retains_all_and_is_identity(self):
        model = tiny_model(seed=2)
        x1, x2, _, _ = tiny_data(n=8, seed=2)
        records, (e1, e2) = collect_records(model, x1, x2)
        mask = pl.build_prune_mask(records, p=1.0)
        n_pairs = sum(r.selected.size for recs in records.values() for r in recs)
        assert len(retained_ids(mask, records)) == n_pairs
        m1, m2 = model.encode_pair(x1, x2, masks=mask)
        np.testing.assert_array_equal(m1.z.data, e1.z.data)
        np.testing.assert_array_equal(m2.z.data, e2.z.data)

    def test_p_zero_is_residual_only_and_finite(self):
        model = tiny_model(seed=3)
        x1, x2, _, _ = tiny_data(n=8, seed=3)
        records, (e1, e2) = collect_records(model, x1, x2)
        mask = pl.build_prune_mask(records, p=0.0)
        assert retained_ids(mask, records) == set()
        m1, _ = model.encode_pair(x1, x2, masks=mask)
        assert np.all(np.isfinite(m1.z.data))

    def test_ceiling_arithmetic(self):
        model = tiny_model(seed=4, n_layers=1)
        x1, x2, _, _ = tiny_data(n=8, seed=4)
        records, _ = collect_records(model, x1, x2)
        n_pairs = sum(r.selected.size for recs in records.values() for r in recs)
        mask = pl.build_prune_mask(records, p=0.25)
        assert len(retained_ids(mask, records)) == int(np.ceil(0.25 * n_pairs))

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            pl.build_prune_mask({}, p=1.5)

    def test_nesting(self):
        model = tiny_model(seed=5)
        x1, x2, _, _ = tiny_data(n=8, seed=5)
        records, _ = collect_records(model, x1, x2)
        prev = None
        for p in (1.0, 0.7, 0.4, 0.1):
            mask = pl.build_prune_mask(records, p=p)
            if prev is not None:
                assert retained_ids(mask, records) <= prev
            prev = retained_ids(mask, records)

    def test_per_encoder_scope_keeps_ceil_per_group(self):
        model = tiny_model(seed=6)
        x1, x2, _, _ = tiny_data(n=8, seed=6)
        records, _ = collect_records(model, x1, x2)
        # per-encoder groups pairs by modality, per-layer by (modality, layer)
        for scope, n_key in (("per-encoder", 1), ("per-layer", 2)):
            mask = pl.build_prune_mask(records, p=0.5, scope=scope)
            sizes: dict = {}
            for m, recs in records.items():
                for r in recs:
                    group = (m, r.layer_id)[:n_key]
                    sizes[group] = sizes.get(group, 0) + r.selected.size
            kept = retained_ids(mask, records)
            for group, n in sizes.items():
                assert sum(1 for pid in kept if pid[:n_key] == group) == int(np.ceil(0.5 * n)), (scope, group)

    def test_tied_weights_keep_every_pair(self):
        # chi = rho = top_k = 1 routes every token to the one expert with weight exactly 1.0
        mcfg = MoEConfig(d_model=16, granularity_chi=1, expansion_rho=1, top_k=1, d_ffn=32)
        model = pl.S3Model(EncoderConfig(n_heads=2, d_in=8, moe=mcfg, n_layers=2), seed=7)
        x1, x2, _, _ = tiny_data(n=8, seed=7)
        records, _ = collect_records(model, x1, x2)
        n_pairs = sum(r.selected.size for recs in records.values() for r in recs)
        plain, full = pl.embed_dataset(model, x1, x2)
        for scope in pl.PRUNE_SCOPES:
            for p in (0.9, 0.5, 0.1):
                mask = pl.build_prune_mask(records, p=p, scope=scope)
                assert len(retained_ids(mask, records)) == n_pairs, (scope, p)
                z, retained = pl.embed_dataset(model, x1, x2, mask=mask)
                np.testing.assert_array_equal(z, plain)
                assert retained == full

    def test_unseen_split_keeps_all_at_one_and_none_at_zero(self):
        model = tiny_model(seed=7)
        x1, x2, _, _ = tiny_data(n=24, seed=7)
        records = pl.routing_records(model, x1[:16], x2[:16], batch_size=8)
        plain, full = pl.embed_dataset(model, x1[16:], x2[16:])
        z, retained = pl.embed_dataset(model, x1[16:], x2[16:], mask=pl.build_prune_mask(records, p=1.0))
        np.testing.assert_array_equal(z, plain)
        assert retained == full == 2 * 2  # top_k slots in each of n_layers layers
        _, retained = pl.embed_dataset(model, x1[16:], x2[16:], mask=pl.build_prune_mask(records, p=0.0))
        assert retained == 0.0


class TestLinearProbe:
    def test_random_labels_chance_level(self):
        g = np.random.default_rng(0)
        z = g.standard_normal((1500, 8))
        y = g.integers(0, 2, 1500)
        res = pl.linear_probe(z[:1000], y[:1000], z[1000:], y[1000:], n_seeds=1)
        assert abs(res.mean - 0.5) <= 0.05

    def test_separable_embeddings_perfect(self):
        y = np.tile([0, 1, 2], 30)
        z = np.eye(3)[y]
        res = pl.linear_probe(z[:60], y[:60], z[60:], y[60:])
        assert res.mean == 1.0

    def test_single_class_error(self):
        z = np.random.default_rng(1).standard_normal((10, 4))
        with pytest.raises(ValueError):
            pl.linear_probe(z, np.zeros(10, int), z, np.zeros(10, int))

    def test_deterministic(self):
        g = np.random.default_rng(2)
        z = g.standard_normal((100, 6))
        y = (z[:, 0] > 0).astype(int)
        a = pl.linear_probe(z[:80], y[:80], z[80:], y[80:])
        b = pl.linear_probe(z[:80], y[:80], z[80:], y[80:])
        assert a.per_seed == b.per_seed

    @staticmethod
    def design(z, y):
        x = np.hstack([z, np.ones((len(z), 1))])
        return x, np.eye(int(y.max()) + 1)[y]

    @pytest.mark.parametrize("separable", [False, True])
    def test_seeded_fits_converge_to_one_optimum(self, separable):
        # on separable data the unregularised loss has no minimiser; the L2
        # term gives one, and every seeded init must reach it
        g = np.random.default_rng(3)
        z = g.standard_normal((120, 5))
        y = (z[:, 0] > 0).astype(int) + (z[:, 1] > 0 if separable else g.integers(0, 2, 120))
        x, onehot = self.design(z, y)
        fits = [pl.fit_probe(x, onehot, seed) for seed in range(3)]
        # softmax ignores a shift common to every class and the bias row is
        # not regularised, so compare class-centred weights, allowing twice
        # the distance to the optimum that |grad| <= PROBE_GTOL permits under
        # the PROBE_L2 curvature of the regularised rows
        centred = [w - w.mean(axis=1, keepdims=True) for w in fits]
        bound = 2 * np.sqrt(fits[0].size) * pl.PROBE_GTOL / pl.PROBE_L2
        for w, c in zip(fits, centred):
            _, grad, _ = pl.probe_objective(w.ravel(), x, onehot)
            assert np.max(np.abs(grad)) <= pl.PROBE_GTOL
            assert np.linalg.norm(c - centred[0]) <= bound

    def fd_problem(self):
        g = np.random.default_rng(4)
        z = g.standard_normal((30, 4))
        y = g.integers(0, 3, 30)
        x, onehot = self.design(z, y)
        w = g.standard_normal((5, 3))
        w[-1] = [4.0, -3.0, 2.0]  # a large bias row: regularising it would show
        return w.ravel(), x, onehot

    def test_objective_gradient_matches_finite_differences(self):
        w, x, onehot = self.fd_problem()
        _, analytic, _ = pl.probe_objective(w, x, onehot)
        numeric = finite_difference_grad(lambda v: pl.probe_objective(v, x, onehot)[0], w, h=1e-5)
        np.testing.assert_allclose(analytic, numeric, rtol=0, atol=1e-8)

    def test_hessian_matches_finite_differences_of_gradient(self):
        w, x, onehot = self.fd_problem()
        numeric = np.stack([
            finite_difference_grad(lambda v, i=i: pl.probe_objective(v, x, onehot)[1][i], w, h=1e-5)
            for i in range(w.size)
        ])
        np.testing.assert_allclose(pl.probe_objective(w, x, onehot)[2], numeric, rtol=0, atol=1e-8)

    def test_result_consistency(self):
        res = pl.ProbeResult.from_seeds([0.8, 0.9, 1.0])
        assert res.mean == pytest.approx(0.9)
        assert res.std == pytest.approx(np.std([0.8, 0.9, 1.0]))


class TestSweepAccounting:
    def test_fraction_normalized_and_monotone(self):
        model = tiny_model(seed=8)
        x1, x2, y, _ = tiny_data(n=48, seed=8)
        data = (x1[:32], x2[:32], y[:32])
        test = (x1[32:], x2[32:], y[32:])
        rows = pl.sparsify_sweep(model, data, test, p_list=(1.0, 0.6, 0.2), n_seeds=1)
        fracs = [r["active_param_pct"] for r in rows]
        assert fracs[0] == pytest.approx(100.0)
        assert fracs[0] > fracs[1] > fracs[2]

    def test_retained_per_token_weighs_short_last_batch(self):
        model = tiny_model(seed=8)
        x1, x2, _, _ = tiny_data(n=40, seed=8)
        mask = pl.build_prune_mask(pl.routing_records(model, x1, x2, batch_size=32), p=0.3)
        _, head = pl.embed_dataset(model, x1[:32], x2[:32], batch_size=32, mask=mask)
        _, tail = pl.embed_dataset(model, x1[32:], x2[32:], batch_size=32, mask=mask)
        _, both = pl.embed_dataset(model, x1, x2, batch_size=32, mask=mask)
        assert head != tail
        assert both == pytest.approx((32 * head + 8 * tail) / 40, rel=1e-12)

    @pytest.mark.parametrize("p", [0.7, 0.5, 0.2])
    def test_pruned_forward_applies_the_pairs_it_scores(self, monkeypatch, p):
        model, x1, x2, _ = _tiny_trained_model()
        applied = []
        combine = MoELayer.combine

        def recording_combine(layer, x, routing, slot_mask=None):
            if slot_mask is not None:
                applied.append((routing.weights.data, slot_mask))
            return combine(layer, x, routing, slot_mask)

        monkeypatch.setattr(MoELayer, "combine", recording_combine)
        pl.embed_dataset(model, x1, x2, batch_size=32, p=p)
        layers = 2 * model.enc1.config.n_layers
        assert len(applied) == layers * -(-len(x1) // 32)
        # the global scope group of one pruned forward is every layer of both modalities
        for start in range(0, len(applied), layers):
            forward = applied[start : start + layers]
            kept = np.concatenate([w[keep] for w, keep in forward])
            dropped = np.concatenate([w[~keep] for w, keep in forward])
            assert kept.size and dropped.size and kept.min() >= dropped.max()

    def test_pruned_embedding_does_not_depend_on_batch_size(self):
        model = tiny_model(seed=8)
        x1, x2, _, _ = tiny_data(n=40, seed=8)
        mask = pl.build_prune_mask(pl.routing_records(model, x1, x2, batch_size=40), p=0.3)
        small, kept_small = pl.embed_dataset(model, x1, x2, batch_size=8, mask=mask)
        large, kept_large = pl.embed_dataset(model, x1, x2, batch_size=40, mask=mask)
        assert np.max(np.abs(small - large)) <= 1e-6
        assert kept_small == kept_large


class TestCheckpointAndDeterminism:
    def test_save_load_bit_exact(self, tmp_path):
        model = tiny_model(seed=9)
        x1, x2, _, _ = tiny_data(n=16, seed=9)
        pl.train_specialization(
            model, x1, x2, pl.StageConfig(stage="specialization", epochs=1, batch_size=16, learning_rate=0.01)
        )
        path = tmp_path / "ckpt.npz"
        model.save(path)
        other = tiny_model(seed=10)
        other.load(path)
        for name, t in model.named_params().items():
            np.testing.assert_array_equal(other.named_params()[name].data, t.data)

    def test_load_architecture_mismatch(self, tmp_path):
        model = tiny_model(seed=11)
        path = tmp_path / "ckpt.npz"
        model.save(path)
        other = tiny_model(seed=11, n_layers=1)
        with pytest.raises(ValueError):
            other.load(path)

    def test_load_names_first_mismatched_parameter(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        tiny_model(seed=11, n_layers=1).save(path)
        with pytest.raises(pl.CheckpointError, match="lacks parameter m1/layer1/ln1/g"):
            tiny_model(seed=11, n_layers=2).load(path)
        tiny_model(seed=11, n_layers=2).save(deeper := tmp_path / "deeper.npz")
        with pytest.raises(pl.CheckpointError, match="has parameter m1/layer1/ln1/g"):
            tiny_model(seed=11, n_layers=1).load(deeper)
        with pytest.raises(pl.CheckpointError, match=r"\(16, 8\) for m1/input_proj/W, the model expects \(8, 8\)"):
            tiny_model(seed=11, n_layers=1, d_model=8).load(path)
        model = tiny_model(seed=11)
        params = model.named_params()
        params["m2/layer0/ln2/g"].data[3] = np.nan
        params["m2/layer1/attn/Wq"].data[0, 0] = -np.inf
        model.save(poisoned := tmp_path / "poisoned.npz")
        with pytest.raises(pl.CheckpointError, match="non-finite value in m2/layer0/ln2/g"):
            tiny_model(seed=11).load(poisoned)

    def test_fixed_seed_reproduces_probe_accuracy(self):
        results = []
        for _ in range(2):
            model = tiny_model(seed=12)
            x1, x2, y, _ = tiny_data(n=48, seed=12)
            cfg = pl.StageConfig(stage="specialization", epochs=2, batch_size=16, learning_rate=0.05, seed=5)
            pl.train_specialization(model, x1[:32], x2[:32], cfg)
            sel = pl.StageConfig(stage="selection", epochs=1, batch_size=16, learning_rate=0.05, seed=6)
            pl.train_selection(model, x1[:32], x2[:32], y[:32], sel)
            zt, _ = pl.embed_dataset(model, x1[:32], x2[:32])
            ze, _ = pl.embed_dataset(model, x1[32:], x2[32:])
            results.append(pl.linear_probe(zt, y[:32], ze, y[32:]).per_seed)
        assert results[0] == results[1]
