import numpy as np
import pytest
from scipy.special import logsumexp

from s3moe import diffcore as dc
from s3moe import losses as L
from s3moe import moe
from s3moe.diffcore import Tensor
from conftest import check_grad


def unit_rows(seed, b, d):
    g = np.random.default_rng(seed)
    x = g.standard_normal((b, d)).astype(np.float32)
    return (x / np.linalg.norm(x, axis=1, keepdims=True)).astype(np.float32)


def pair_of(seed, b, d):
    """Unit (B, d) embeddings of the two modalities."""
    return Tensor(unit_rows(seed, b, d)), Tensor(unit_rows(seed + 1, b, d))


class TestWeights:
    def test_defaults_valid(self):
        w = L.LossWeights()
        assert w.tau == 0.1 and w.lambda_min == 0.1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            L.LossWeights(lambda_rep=-1)
        with pytest.raises(ValueError):
            L.LossWeights(tau=0)

    @pytest.mark.parametrize("name", ["tau", "lambda_aux", "lambda_min"])
    @pytest.mark.parametrize("value, error", [
        (True, TypeError), ("0.1", TypeError), (None, TypeError),
        (float("inf"), ValueError), (float("nan"), ValueError),
    ], ids=["bool", "string", "none", "inf", "nan"])
    def test_non_number_or_non_finite_rejected(self, name, value, error):
        with pytest.raises(error, match=name):
            L.LossWeights(**{name: value})


class TestInfoNCE:
    def test_identical_rows_log_b(self):
        z = Tensor(np.tile(unit_rows(0, 1, 8), (5, 1)))
        assert float(L.info_nce(z, z, 0.5).data) == pytest.approx(np.log(5), abs=1e-5)

    def test_orthogonal_pair_closed_form(self):
        z = Tensor(np.eye(2, dtype=np.float32))
        expected = -np.log(np.e / (np.e + 1))
        assert float(L.info_nce(z, z, 1.0).data) == pytest.approx(expected, abs=1e-5)

    def test_batch_too_small(self):
        z = Tensor(unit_rows(1, 1, 4))
        with pytest.raises(ValueError):
            L.info_nce(z, z, 0.1)

    def test_bad_tau(self):
        z = Tensor(unit_rows(2, 3, 4))
        with pytest.raises(ValueError):
            L.info_nce(z, z, 0.0)

    def test_gradient(self):
        dst = Tensor(unit_rows(3, 4, 6))
        check_grad(
            lambda x: L.info_nce(dc.l2_normalize(x, axis=-1), dst, 0.5),
            np.random.default_rng(4).standard_normal((4, 6)).astype(np.float32),
        )


class TestRepAndDsc:
    def test_identical_rows_log_b(self):
        z = Tensor(np.tile(unit_rows(5, 1, 8), (6, 1)))
        assert float(L.l_rep((z, z), (z, z)).data) == pytest.approx(np.log(6), abs=1e-4)

    def test_rep_uses_second_views(self):
        # each modality's view a is aligned with its own view b
        views1, views2 = pair_of(6, 6, 8), pair_of(8, 6, 8)
        direct = 0.5 * (float(L.info_nce(*views1, 0.1).data) + float(L.info_nce(*views2, 0.1).data))
        assert float(L.l_rep(views1, views2, 0.1).data) == pytest.approx(direct, abs=1e-6)
        assert direct != pytest.approx(np.log(6), abs=1e-3)

    def test_dsc_swap_symmetry(self):
        z1, z2 = pair_of(9, 5, 8)
        assert float(L.l_dsc(z1, z2).data) == pytest.approx(float(L.l_dsc(z2, z1).data), abs=1e-6)

    def test_dsc_compositional_oracle(self):
        z1, z2 = pair_of(10, 5, 8)
        direct = 0.5 * (float(L.info_nce(z1, z2, 0.1).data) + float(L.info_nce(z2, z1, 0.1).data))
        assert float(L.l_dsc(z1, z2, 0.1).data) == pytest.approx(direct, abs=1e-6)

    def test_identical_cross_modal_log_b(self):
        z = Tensor(np.tile(unit_rows(11, 1, 8), (4, 1)))
        assert float(L.l_dsc(z, z).data) == pytest.approx(np.log(4), abs=1e-4)


def supcon_loop_oracle(src, dst, labels, tau, include_self):
    losses = []
    for i in range(len(src)):
        pos = [s for s in range(len(dst)) if labels[s] == labels[i] and (include_self or s != i)]
        logits = (src[i] @ dst.T / tau).astype(np.float64)
        lz = logsumexp(logits)
        losses.append(-np.mean([logits[s] - lz for s in pos]))
    return float(np.mean(losses))


class TestSupCon:
    def test_one_class_identical_log_b(self):
        z = Tensor(np.tile(unit_rows(12, 1, 8), (5, 1)))
        y = np.zeros(5, int)
        assert float(L.sup_con(z, z, y, 0.5).data) == pytest.approx(np.log(5), abs=1e-5)

    def test_distinct_labels_reduce_to_info_nce(self):
        src, dst = Tensor(unit_rows(13, 6, 8)), Tensor(unit_rows(14, 6, 8))
        y = np.arange(6)
        a = float(L.sup_con(src, dst, y, 0.2, include_self=True).data)
        b = float(L.info_nce(src, dst, 0.2).data)
        assert abs(a - b) <= 1e-6

    @pytest.mark.parametrize("include_self", [True, False])
    def test_brute_force_oracle(self, include_self):
        src, dst = unit_rows(15, 4, 8), unit_rows(16, 4, 8)
        y = np.array([0, 0, 1, 1])
        got = float(L.sup_con(Tensor(src), Tensor(dst), y, 0.3, include_self=include_self).data)
        assert got == pytest.approx(supcon_loop_oracle(src, dst, y, 0.3, include_self), abs=1e-4)

    @pytest.mark.parametrize("labels, n_without", [([0, 0, 1], 1), ([0, 1, 2], 3)], ids=["singleton", "all-distinct"])
    def test_sample_without_positive_raises(self, labels, n_without):
        src = Tensor(unit_rows(17, 3, 8))
        with pytest.raises(ValueError, match=f"{n_without} sample\\(s\\) have no positive"):
            L.sup_con(src, src, np.array(labels), 0.3, include_self=False)

    def test_gradient(self):
        y = np.array([0, 1, 0, 1])
        dst = Tensor(unit_rows(19, 4, 6))
        check_grad(
            lambda x: L.sup_con(dc.l2_normalize(x, axis=-1), dst, y, 0.5),
            np.random.default_rng(20).standard_normal((4, 6)).astype(np.float32),
        )


class TestSuff:
    def test_identical_single_class_log_b(self):
        z = Tensor(np.tile(unit_rows(21, 1, 8), (4, 1)))
        assert float(L.l_suff(z, z, np.zeros(4, int)).data) == pytest.approx(np.log(4), abs=1e-4)

    def test_quarter_sum_oracle(self):
        y = np.array([0, 0, 1, 1, 2, 2])
        z1, z2 = pair_of(22, 6, 8)
        terms = [
            L.sup_con(z1, z1, y, 0.1, include_self=False),
            L.sup_con(z2, z2, y, 0.1, include_self=False),
            L.sup_con(z1, z2, y, 0.1, include_self=True),
            L.sup_con(z2, z1, y, 0.1, include_self=True),
        ]
        expected = 0.25 * sum(float(t.data) for t in terms)
        assert float(L.l_suff(z1, z2, y, 0.1).data) == pytest.approx(expected, abs=1e-5)


class TestCompactness:
    def test_identical_members_is_minus_one(self):
        z = Tensor(np.tile(unit_rows(24, 1, 8), (4, 1)))
        y = np.zeros(4, int)
        assert float(L.compactness(z, z, y).data) == pytest.approx(-1.0, abs=1e-5)

    def test_orthogonal_mean_is_zero(self):
        src = Tensor(np.tile(np.eye(3, dtype=np.float32)[2], (2, 1)))
        dst = Tensor(np.eye(3, dtype=np.float32)[:2])
        assert float(L.compactness(src, dst, np.zeros(2, int)).data) == pytest.approx(0.0, abs=1e-6)

    def test_loop_oracle(self):
        src, dst = unit_rows(25, 6, 8), unit_rows(26, 6, 8)
        y = np.array([0, 1, 0, 1, 0, 1])
        vals = []
        for i in range(6):
            mu = dst[y == y[i]].mean(axis=0)
            mu = mu / np.linalg.norm(mu)
            vals.append(src[i] @ mu)
        expected = -float(np.mean(vals))
        got = float(L.compactness(Tensor(src), Tensor(dst), y).data)
        assert got == pytest.approx(expected, abs=1e-5)

    def test_bounded(self):
        got = float(L.compactness(Tensor(unit_rows(27, 8, 5)), Tensor(unit_rows(28, 8, 5)), np.arange(8) % 2).data)
        assert -1.0 <= got <= 1.0

    def test_zero_mean_class_rejected(self):
        e = np.eye(2, dtype=np.float32)
        dst = Tensor(np.stack([e[0], -e[0]]))
        with pytest.raises(dc.DegenerateInputError):
            L.compactness(Tensor(unit_rows(29, 2, 2)), dst, np.zeros(2, int))

    def test_gradient_wrt_both_sides(self):
        y = np.array([0, 1, 0, 1])
        dst = Tensor(unit_rows(30, 4, 6))
        src0 = np.random.default_rng(31).standard_normal((4, 6)).astype(np.float32)
        check_grad(lambda x: L.compactness(dc.l2_normalize(x, axis=-1), dst, y), src0)
        src = Tensor(unit_rows(32, 4, 6))
        check_grad(lambda x: L.compactness(src, dc.l2_normalize(x, axis=-1), y), src0)


class TestMin:
    def test_all_identical_minus_one(self):
        z = Tensor(np.tile(unit_rows(33, 1, 8), (4, 1)))
        assert float(L.l_min(z, z, np.zeros(4, int)).data) == pytest.approx(-1.0, abs=1e-5)

    def test_quarter_sum_oracle(self):
        y = np.array([0, 0, 1, 1])
        z1, z2 = pair_of(34, 4, 8)
        pairs = [(z1, z1), (z1, z2), (z2, z1), (z2, z2)]
        expected = 0.25 * sum(float(L.compactness(s, d, y).data) for s, d in pairs)
        assert float(L.l_min(z1, z2, y).data) == pytest.approx(expected, abs=1e-5)


class TestImportance:
    def test_uniform_zero(self):
        scores = Tensor(np.full((6, 4), 0.25, np.float32))
        assert float(L.importance_loss(scores).data) == pytest.approx(0.0, abs=1e-7)

    def test_concentrated_two_experts_one(self):
        scores = Tensor(np.tile(np.array([[1.0, 0.0]], np.float32), (5, 1)))
        assert float(L.importance_loss(scores).data) == pytest.approx(1.0, abs=1e-6)

    def test_loop_oracle(self):
        g = np.random.default_rng(40)
        raw = g.random((7, 5)).astype(np.float32)
        scores = raw / raw.sum(axis=1, keepdims=True)
        imp = scores.sum(axis=0).astype(np.float64)
        expected = float(imp.var() / imp.mean() ** 2)
        assert float(L.importance_loss(Tensor(scores)).data) == pytest.approx(expected, rel=1e-4)

    def test_token_order_invariant(self):
        g = np.random.default_rng(41)
        raw = g.random((8, 4)).astype(np.float32)
        scores = raw / raw.sum(axis=1, keepdims=True)
        a = float(L.importance_loss(Tensor(scores)).data)
        b = float(L.importance_loss(Tensor(scores[::-1].copy())).data)
        assert a == pytest.approx(b, abs=1e-6)

    def test_gradient(self):
        check_grad(
            lambda x: L.importance_loss(dc.softmax(x, axis=-1)),
            np.random.default_rng(42).standard_normal((5, 4)).astype(np.float32),
        )


class TestLoadLoss:
    def test_equal_scores_balanced(self):
        g = np.random.default_rng(43)
        sigma = 0.5
        clean = Tensor(np.zeros((2000, 2), np.float32))
        noisy = g.normal(0, sigma, (2000, 2)).astype(np.float32)
        loss = float(L.load_loss_from_logits(clean, noisy, k=1, sigma=sigma).data)
        assert loss < 0.01
        draws = g.normal(0, sigma, (100_000, 2)).astype(np.float32)
        freqs = np.bincount(draws.argmax(axis=1), minlength=2) / len(draws)
        assert abs(freqs[0] - 0.5) < 0.02

    def test_dominant_expert_limit(self):
        sigma = 0.1
        clean_row = np.array([5.0, 0.0, 0.0, 0.0], np.float32)  # gap = 50 sigma
        g = np.random.default_rng(44)
        clean = Tensor(np.tile(clean_row, (500, 1)))
        noisy = clean.data + g.normal(0, sigma, (500, 4)).astype(np.float32)
        loss = float(L.load_loss_from_logits(clean, noisy, k=1, sigma=sigma).data)
        assert loss == pytest.approx(3.0, abs=0.05)

    def test_equal_loads_by_construction_zero(self):
        clean = Tensor(np.ones((5, 3), np.float32))
        loss = float(L.load_loss_from_logits(clean, clean.data.copy(), k=1, sigma=0.2).data)
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_sigma_must_be_positive(self):
        clean = Tensor(np.ones((3, 2), np.float32))
        with pytest.raises(ValueError):
            L.load_loss_from_logits(clean, clean.data, k=1, sigma=0.0)

    def test_k_equals_n_experts_zero(self):
        clean = Tensor(np.ones((3, 2), np.float32))
        assert float(L.load_loss_from_logits(clean, clean.data, k=2, sigma=0.1).data) == 0.0

    def test_gradient_through_clean_logits(self):
        g = np.random.default_rng(45)
        x0 = g.standard_normal((4, 3)).astype(np.float32)
        noisy = x0 + g.normal(0, 0.3, x0.shape).astype(np.float32)
        check_grad(lambda x: L.load_loss_from_logits(x, noisy, k=1, sigma=0.3), x0, rtol=2e-3)


class TestEntropyLosses:
    def test_local_uniform(self):
        scores = Tensor(np.full((3, 8), 1 / 8, np.float32))
        assert float(L.local_entropy_loss(scores).data) == pytest.approx(np.log(8), abs=1e-5)

    def test_local_one_hot(self):
        scores = Tensor(np.eye(4, dtype=np.float32))
        assert float(L.local_entropy_loss(scores).data) == pytest.approx(0.0, abs=1e-6)

    def test_local_loop_oracle(self):
        g = np.random.default_rng(46)
        raw = g.random((6, 5)).astype(np.float32)
        scores = raw / raw.sum(axis=1, keepdims=True)
        expected = float(np.mean([-(r * np.log(r)).sum() for r in scores.astype(np.float64)]))
        assert float(L.local_entropy_loss(Tensor(scores)).data) == pytest.approx(expected, rel=1e-4)

    def test_global_uniform(self):
        scores = Tensor(np.full((3, 8), 1 / 8, np.float32))
        assert float(L.global_entropy_loss(scores).data) == pytest.approx(-np.log(8), abs=1e-5)

    def test_global_marginal_one_hot(self):
        scores = Tensor(np.tile(np.array([[0.0, 1.0, 0.0]], np.float32), (4, 1)))
        assert float(L.global_entropy_loss(scores).data) == pytest.approx(0.0, abs=1e-6)

    def test_global_loop_oracle(self):
        g = np.random.default_rng(47)
        raw = g.random((6, 5)).astype(np.float32)
        scores = raw / raw.sum(axis=1, keepdims=True)
        marg = scores.mean(axis=0).astype(np.float64)
        expected = float((marg * np.log(marg)).sum())
        assert float(L.global_entropy_loss(Tensor(scores)).data) == pytest.approx(expected, rel=1e-4)

    @pytest.mark.parametrize("fn", [L.local_entropy_loss, L.global_entropy_loss])
    def test_gradients(self, fn):
        check_grad(
            lambda x: fn(dc.softmax(x, axis=-1)),
            np.random.default_rng(48).standard_normal((4, 5)).astype(np.float32),
        )


def make_routing(seed, n=6, d=4):
    cfg = moe.MoEConfig(d_model=d, granularity_chi=2, expansion_rho=2, top_k=2, d_ffn=8)
    layer = moe.MoELayer(cfg, dc.RngState(seed))
    x = Tensor(np.random.default_rng(seed).standard_normal((n, d)).astype(np.float32))
    return layer.route_tokens(x, noise_sigma=1.0 / cfg.n_experts, rng=dc.RngState(seed + 1))


class TestCombinedObjectives:
    def test_special_all_zero_weights(self):
        w = L.LossWeights(lambda_rep=0, lambda_dsc=0, lambda_aux=0)
        total, parts = L.l_special(pair_of(49, 4, 8), pair_of(59, 4, 8), [make_routing(50)], w, 0.25)
        assert float(total.data) == 0.0
        assert "rep" in parts and "aux_load" in parts

    def test_special_rep_only(self):
        views1, views2 = pair_of(51, 4, 8), pair_of(61, 4, 8)
        w = L.LossWeights(lambda_rep=1, lambda_dsc=0, lambda_aux=0)
        total, _ = L.l_special(views1, views2, [make_routing(56)], w, 0.25)
        assert float(total.data) == pytest.approx(float(L.l_rep(views1, views2, w.tau).data), abs=1e-6)

    def test_special_without_routing_records_raises(self):
        with pytest.raises(ValueError, match="at least one routing record"):
            L.l_special(pair_of(57, 4, 8), pair_of(67, 4, 8), [], L.LossWeights(), 0.25)

    def test_special_weighted_sum_oracle(self):
        views1, views2 = pair_of(52, 5, 8), pair_of(62, 5, 8)
        recs = [make_routing(53)]
        w = L.LossWeights(lambda_rep=0.7, lambda_dsc=1.3, lambda_aux=0.05)
        total, parts = L.l_special(views1, views2, recs, w, 0.25)
        expected = 0.7 * parts["rep"] + 1.3 * parts["dsc"] + 0.05 * parts["aux"]
        assert float(total.data) == pytest.approx(expected, rel=1e-4)
        # alignment pairs the two modalities' view a
        assert parts["dsc"] == pytest.approx(float(L.l_dsc(views1[0], views2[0], w.tau).data), abs=1e-6)

    def test_aux_weighted_sum_oracle(self):
        recs = [make_routing(54), make_routing(55)]
        w = L.LossWeights()
        total, parts = L.l_aux(recs, w, 0.25)
        expected = (
            w.lambda_imp * parts["imp"] + w.lambda_load * parts["load"]
            + w.lambda_local * parts["local"] + w.lambda_global * parts["global"]
        )
        assert float(total.data) == pytest.approx(expected, rel=1e-4)

    def test_select_weighted_sum_oracle(self):
        y = np.array([0, 0, 1, 1])
        w = L.LossWeights(lambda_suff=1.0, lambda_min=0.25)
        total, parts = L.l_select(*pair_of(57, 4, 8), y, w)
        assert float(total.data) == pytest.approx(parts["suff"] + 0.25 * parts["min"], rel=1e-4)

    def test_select_suff_only(self):
        y = np.array([0, 0, 1, 1])
        z1, z2 = pair_of(58, 4, 8)
        w = L.LossWeights(lambda_suff=1.0, lambda_min=0.0)
        total, _ = L.l_select(z1, z2, y, w)
        assert float(total.data) == pytest.approx(float(L.l_suff(z1, z2, y, w.tau).data), abs=1e-6)


class TestStackedAux:
    """`l_aux` builds each balancing term once over the stacked layer records."""

    SEEDS = range(60, 66)

    def per_record_terms(self, rec, sigma):
        k = rec.selected.shape[1]
        return {
            "imp": L.importance_loss(rec.scores),
            "load": L.load_loss_from_logits(rec.logits, rec.noisy_logits, k, sigma),
            "local": L.local_entropy_loss(rec.scores),
            "global": L.global_entropy_loss(rec.scores),
        }

    @pytest.mark.parametrize("sigma", [None, 0.7])
    def test_terms_and_grads_match_per_record_mean(self, sigma):
        w = L.LossWeights()
        lam = {"imp": w.lambda_imp, "load": w.lambda_load, "local": w.lambda_local, "global": w.lambda_global}
        stacked = [make_routing(s) for s in self.SEEDS]
        # None stands for the stage default, 1 / n_experts
        smooth = sigma if sigma is not None else 1.0 / stacked[0].scores.shape[1]
        total, parts = L.l_aux(stacked, w, smooth)
        total.backward()
        # the oracle: each term once per (N, E) record, then the mean over records
        records = [make_routing(s) for s in self.SEEDS]
        terms = [self.per_record_terms(rec, smooth) for rec in records]
        oracle = Tensor(np.float32(0.0))
        for name, lam_t in lam.items():
            mean = float(np.mean([float(t[name].data) for t in terms]))
            assert parts[name] == pytest.approx(mean, rel=1e-6), name
            for t in terms:
                oracle = dc.add(oracle, dc.mul(t[name], lam_t / len(records)))
        oracle.backward()
        for got, want in zip(stacked, records):
            g = want.logits.grad
            np.testing.assert_allclose(got.logits.grad, g, rtol=1e-6, atol=1e-6 * np.abs(g).max())

    def test_graph_size_does_not_grow_with_records(self, monkeypatch):
        init = Tensor.__init__
        count = [0]

        def counting_init(self, *args, **kwargs):
            count[0] += 1
            init(self, *args, **kwargs)

        sizes = []
        for n_records in (1, 6):
            records = [make_routing(s) for s in self.SEEDS[:n_records]]
            with monkeypatch.context() as m:
                m.setattr(Tensor, "__init__", counting_init)
                count[0] = 0
                L.l_aux(records, L.LossWeights(), 0.25)
            sizes.append(count[0])
        assert sizes[0] == sizes[1]

    def test_leading_rows_match_sliced_records(self):
        # n_tokens = 4 of each record's 6 rows: the terms and gradients of records cut to those rows
        stacked = [make_routing(s) for s in self.SEEDS[:3]]
        total, parts = L.l_aux(stacked, L.LossWeights(), 0.7, n_tokens=4)
        total.backward()
        records = [make_routing(s) for s in self.SEEDS[:3]]
        cut = [
            moe.LayerRouting(
                layer_id=r.layer_id, logits=dc.slice_rows(r.logits, 0, 4), noisy_logits=r.noisy_logits[:4],
                scores=dc.slice_rows(r.scores, 0, 4), selected=r.selected[:4], weights=r.weights,
            )
            for r in records
        ]
        want_total, want = L.l_aux(cut, L.LossWeights(), 0.7)
        want_total.backward()
        for name, value in want.items():
            assert parts[name] == pytest.approx(value, rel=1e-6), name
        for got, ref in zip(stacked, records):
            g = ref.logits.grad
            assert not got.logits.grad[4:].any()
            np.testing.assert_allclose(got.logits.grad, g, rtol=1e-6, atol=1e-6 * np.abs(g).max())

    def test_records_of_different_sizes_rejected(self):
        with pytest.raises(ValueError):
            L.l_aux([make_routing(60), make_routing(61, n=5)], L.LossWeights(), 0.25)
