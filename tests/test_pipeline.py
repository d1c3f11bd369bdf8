import tracemalloc

import numpy as np
import pytest

from s3moe import analysis as an
from s3moe import diffcore as dc
from s3moe import losses as ls
from s3moe import pipeline as pl
from s3moe import synthdata as sd
from s3moe.encoder import EncoderConfig, parameter_group
from s3moe.losses import EmbeddingBatch, LossWeights
from s3moe.moe import MoEConfig, MoELayer
from conftest import finite_difference_grad, retained_ids
from test_acceptance import _tiny_trained_model


def tiny_model(seed=0, n_layers=2, d_model=16):
    mcfg = MoEConfig(d_model=d_model, granularity_chi=2, expansion_rho=2, top_k=2, d_ffn=2 * d_model)
    ecfg = EncoderConfig(d_model=d_model, n_heads=2, d_in=8, moe=mcfg, n_layers=n_layers)
    return pl.S3Model(ecfg, ecfg, seed=seed)


def tiny_data(n=32, seed=0, mode="shared-only"):
    spec = sd.FactorSpec(n_shared_symbols=4, n_unique_symbols=2, d_in=8, seq_len=2, embed_noise_sigma=0.05)
    task = sd.TaskSpec(mode=mode, n_classes=2 if mode == "unique-only" else 4)
    return sd.as_arrays(sd.generate_dataset(n, spec, task, seed=seed))


def snapshot(model):
    return {n: t.data.copy() for n, t in model.named_params().items()}


def stacked_views(model, x1, x2, sigma, r, jitter=0.0):
    """One Specialization forward from public ops: each modality encoded once over [view a; view b].

    Returns the EmbeddingBatch of the four view embeddings and view a's
    routing records.
    """
    b = len(x1)
    e1, e2 = model.encode_pair(
        np.concatenate([x1, x1]), np.concatenate([x2, x2]), noise_sigma=sigma,
        rng=dc.RowBlockRng([r.stream(0), r.stream(1)]), input_jitter=jitter,
    )
    z1a, z1b, z2a, z2b = (dc.slice_rows(e.z, s, s + b) for e in (e1, e2) for s in (0, b))
    records = [rec.rows(0, rec.selected.shape[0] // 2) for rec in e1.records + e2.records]
    return EmbeddingBatch(z1=z1a, z2=z2a, z1_view2=z1b, z2_view2=z2b), records


def two_pass_views(model, x1, x2, sigma, r, jitter=0.0):
    """The same step as two forwards, one per view, each with its own stream."""
    ea1, ea2 = model.encode_pair(x1, x2, noise_sigma=sigma, rng=r.stream(0), input_jitter=jitter)
    eb1, eb2 = model.encode_pair(x1, x2, noise_sigma=sigma, rng=r.stream(1), input_jitter=jitter)
    return EmbeddingBatch(z1=ea1.z, z2=ea2.z, z1_view2=eb1.z, z2_view2=eb2.z), ea1.records + ea2.records


class TestStageConfig:
    def test_unknown_stage(self):
        with pytest.raises(ValueError):
            pl.StageConfig(stage="pruning")

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            pl.StageConfig(stage="selection", batch_size=1)


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
        batch, records = stacked_views(ref, x1[idx], x2[idx], sigma, rng.stream(10_000))
        loss, _ = ls.l_special(batch, records, weights)
        loss.backward()
        trained = model.named_params()
        for name, t in params.items():
            expected = t.data if t.grad is None else (t.data - 0.05 * t.grad).astype(np.float32)
            np.testing.assert_array_equal(trained[name].data, expected, err_msg=name)

    @pytest.mark.parametrize("sigma,jitter", [(0.25, 0.0), (None, 0.5)])
    def test_one_forward_matches_two_passes(self, sigma, jitter):
        x1, x2, _, _ = tiny_data(n=12, seed=2)
        r = dc.RngState(4).stream(10_000)
        runs = []
        for views in (stacked_views, two_pass_views):
            model = tiny_model(seed=5)
            batch, records = views(model, x1, x2, sigma, r, jitter)
            loss, parts = ls.l_special(batch, records, LossWeights(lambda_aux=0.5), noise_sigma=sigma)
            loss.backward()
            grads = {name: t.grad for name, t in model.named_params().items()}
            runs.append((batch, records, parts, grads))
        (one, one_recs, one_parts, one_grads), (two, two_recs, two_parts, two_grads) = runs
        for name in ("z1", "z2", "z1_view2", "z2_view2"):
            np.testing.assert_allclose(getattr(one, name).data, getattr(two, name).data, rtol=0, atol=1e-6)
        for a, b in zip(one_recs, two_recs):
            np.testing.assert_array_equal(a.selected, b.selected)
        for key, value in two_parts.items():
            assert one_parts[key] == pytest.approx(value, rel=1e-5, abs=1e-6), key
        assert one_grads.keys() == two_grads.keys()
        for name, g in two_grads.items():
            assert g is not None, name
            np.testing.assert_allclose(one_grads[name], g, rtol=1e-4, atol=1e-5 * np.abs(g).max(), err_msg=name)

    def test_load_loss_uses_stage_routing_noise(self):
        x1, x2, _, _ = tiny_data(n=16)
        cfg = pl.StageConfig(stage="specialization", epochs=1, batch_size=16, seed=3, routing_noise=1.0)
        log = pl.train_specialization(tiny_model(seed=7), x1, x2, cfg)
        rng = dc.RngState(cfg.seed)
        idx = rng.stream(0).permutation(16)
        # view a's routing, from its own stream
        e1, e2 = tiny_model(seed=7).encode_pair(x1[idx], x2[idx], noise_sigma=1.0, rng=rng.stream(10_000).stream(0))
        records = e1.records + e2.records
        with_noise = ls.l_aux(records, LossWeights(), 1.0)[1]["load"]
        smoothed = ls.l_aux(records, LossWeights())[1]["load"]
        assert log[0]["aux_load"] == pytest.approx(with_noise, rel=1e-4)
        assert abs(with_noise - smoothed) > 1e-3 * abs(with_noise)

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

    def test_requires_labels(self):
        model = tiny_model()
        x1, x2, _, _ = tiny_data()
        with pytest.raises(ValueError):
            pl.train_selection(model, x1, x2, None, pl.StageConfig(stage="selection", batch_size=16))

    def test_trainable_ratio_default_widths(self):
        # chi=8, rho=8, 5 layers at transformer-like widths
        mcfg = MoEConfig(d_model=128, granularity_chi=8, expansion_rho=8, top_k=8, d_ffn=512)
        ecfg = EncoderConfig(d_model=128, n_heads=8, d_in=32, moe=mcfg, n_layers=5)
        model = pl.S3Model(ecfg, ecfg, seed=0)
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
        assert len(retained_ids(mask)) == n_pairs
        m1, m2 = model.encode_pair(x1, x2, masks=mask)
        np.testing.assert_array_equal(m1.z.data, e1.z.data)
        np.testing.assert_array_equal(m2.z.data, e2.z.data)

    def test_p_zero_is_residual_only_and_finite(self):
        model = tiny_model(seed=3)
        x1, x2, _, _ = tiny_data(n=8, seed=3)
        records, (e1, e2) = collect_records(model, x1, x2)
        mask = pl.build_prune_mask(records, p=0.0)
        assert retained_ids(mask) == set()
        m1, _ = model.encode_pair(x1, x2, masks=mask)
        assert np.all(np.isfinite(m1.z.data))

    def test_ceiling_arithmetic(self):
        model = tiny_model(seed=4, n_layers=1)
        x1, x2, _, _ = tiny_data(n=8, seed=4)
        records, _ = collect_records(model, x1, x2)
        n_pairs = sum(r.selected.size for recs in records.values() for r in recs)
        mask = pl.build_prune_mask(records, p=0.25)
        assert len(retained_ids(mask)) == int(np.ceil(0.25 * n_pairs))

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
                assert retained_ids(mask) <= prev
            prev = retained_ids(mask)

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
            kept = retained_ids(mask)
            for group, n in sizes.items():
                assert sum(1 for pid in kept if pid[:n_key] == group) == int(np.ceil(0.5 * n)), (scope, group)

    def test_tied_weights_keep_every_pair(self):
        # chi = rho = top_k = 1 routes every token to the one expert with weight exactly 1.0
        mcfg = MoEConfig(d_model=16, granularity_chi=1, expansion_rho=1, top_k=1, d_ffn=32)
        model = pl.S3Model(*[EncoderConfig(d_model=16, n_heads=2, d_in=8, moe=mcfg, n_layers=2)] * 2, seed=7)
        x1, x2, _, _ = tiny_data(n=8, seed=7)
        records, _ = collect_records(model, x1, x2)
        plain, full = pl.embed_dataset(model, x1, x2)
        for scope in pl.PRUNE_SCOPES:
            for p in (0.9, 0.5, 0.1):
                mask = pl.build_prune_mask(records, p=p, scope=scope)
                assert all(keep.all() for layers in mask.masks.values() for keep in layers.values()), (scope, p)
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
        with pytest.raises(pl.CheckpointError, match="has parameter m1/layer0/ln1/g"):
            tiny_model(seed=11, n_layers=0).load(path)
        with pytest.raises(pl.CheckpointError, match=r"\(16, 8\) for m1/input_proj/W, the model expects \(8, 8\)"):
            tiny_model(seed=11, n_layers=1, d_model=8).load(path)

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
