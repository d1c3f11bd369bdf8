import csv

import numpy as np
import pytest

from s3moe import analysis as an
from s3moe import diffcore as dc
from s3moe import encoder as enc
from s3moe import moe
from s3moe import synthdata as sd
from s3moe.diffcore import Tensor


def random_joint(seed, shape):
    g = np.random.default_rng(seed)
    t = g.random(shape)
    return an.DiscreteJoint(t / t.sum())


def sample_from_joint(joint, n, seed=0):
    g = np.random.default_rng(seed)
    flat = joint.table.reshape(-1)
    cells = g.choice(len(flat), size=n, p=flat)
    return np.unravel_index(cells, joint.table.shape)


class TestDiscreteJoint:
    def test_negative_rejected(self):
        with pytest.raises(an.DistributionError):
            an.DiscreteJoint(np.array([[0.5, -0.1], [0.3, 0.3]]))

    def test_bad_sum_rejected(self):
        with pytest.raises(an.DistributionError):
            an.DiscreteJoint(np.full((2, 2), 0.3))

    def test_from_counts(self):
        j = an.DiscreteJoint.from_counts(np.array([[2, 2], [4, 0]]))
        assert j.table.sum() == pytest.approx(1.0)
        assert j.table[1, 0] == pytest.approx(0.5)

    def test_marginal_order(self):
        j = random_joint(0, (2, 3, 4))
        m = j.marginal((2, 0))
        assert m.shape == (4, 2)
        np.testing.assert_allclose(m, j.table.sum(axis=1).T)


class TestEntropyMI:
    def test_uniform_entropy(self):
        assert an.entropy(np.full(4, 0.25)) == pytest.approx(np.log(4))

    def test_invalid_distribution(self):
        with pytest.raises(an.DistributionError):
            an.entropy([0.5, 0.6])

    def test_independent_pair_zero_mi(self):
        p = np.outer([0.3, 0.7], [0.25, 0.25, 0.5])
        assert an.mutual_information(an.DiscreteJoint(p), (0,), (1,)) == pytest.approx(0.0, abs=1e-12)

    def test_hand_joint_brute_force(self):
        t = np.array([[0.4, 0.1], [0.1, 0.4]])
        expected = 0.0
        pa, pb = t.sum(axis=1), t.sum(axis=0)
        for i in range(2):
            for j in range(2):
                expected += t[i, j] * np.log(t[i, j] / (pa[i] * pb[j]))
        got = an.mutual_information(an.DiscreteJoint(t), (0,), (1,))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_disjoint_vars_required(self):
        j = random_joint(1, (2, 2))
        with pytest.raises(ValueError):
            an.mutual_information(j, (0,), (0,))

    def test_nonnegativity_random(self):
        for seed in range(10):
            j = random_joint(seed, (3, 4, 2))
            assert an.mutual_information(j, (0,), (1, 2)) >= 0
            assert an.conditional_mi(j, (0,), (1,), (2,)) >= 0

    def test_chain_rule(self):
        for seed in range(20):
            j = random_joint(100 + seed, (3, 3, 3))
            lhs = an.mutual_information(j, (0,), (1, 2))
            rhs = an.mutual_information(j, (0,), (1,)) + an.conditional_mi(j, (0,), (2,), (1,))
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_plugin_convergence(self):
        j = random_joint(2, (4, 4))
        exact = an.mutual_information(j, (0,), (1,))
        a, b = sample_from_joint(j, 100_000, seed=3)
        plug = an.mutual_information(an.DiscreteJoint.from_samples(a, b), (0,), (1,))
        assert abs(plug - exact) <= 0.05


class TestDpi:
    def test_identity_channel_equality(self):
        j = random_joint(4, (3, 4))
        rep = an.verify_dpi(j, np.eye(4))
        assert rep["holds"] and rep["equality"]

    def test_constant_channel(self):
        j = random_joint(5, (3, 4))
        channel = np.zeros((4, 2))
        channel[:, 0] = 1.0
        rep = an.verify_dpi(j, channel)
        assert rep["i_zy"] == pytest.approx(0.0, abs=1e-12)
        assert rep["holds"]

    def test_random_joints_inequality(self):
        g = np.random.default_rng(6)
        for seed in range(200):
            j = random_joint(1000 + seed, (3, 4))
            ch = g.random((4, 3))
            ch /= ch.sum(axis=1, keepdims=True)
            assert an.verify_dpi(j, ch)["holds"]

    def test_bad_channel_rejected(self):
        j = random_joint(7, (2, 3))
        with pytest.raises(an.DistributionError):
            an.verify_dpi(j, np.full((3, 2), 0.3))


class TestMiDecomposition:
    def test_uniform_shared(self):
        spec = sd.FactorSpec(n_shared_symbols=4, n_unique_symbols=2)
        rep = an.verify_mi_decomposition(spec, mode="exact")
        assert rep["holds"]
        assert rep["i_x1x2"] == pytest.approx(np.log(4), abs=1e-9)

    def test_skewed_shared(self):
        dist = (0.7, 0.1, 0.1, 0.1)
        spec = sd.FactorSpec(n_shared_symbols=4, n_unique_symbols=2, shared_dist=dist)
        rep = an.verify_mi_decomposition(spec, mode="exact")
        expected = -sum(p * np.log(p) for p in dist)
        assert rep["holds"]
        assert rep["h_shared"] == pytest.approx(expected, abs=1e-12)

    def test_degenerate_shared(self):
        spec = sd.FactorSpec(n_shared_symbols=1, n_unique_symbols=3)
        rep = an.verify_mi_decomposition(spec, mode="exact")
        assert rep["i_x1x2"] == pytest.approx(0.0, abs=1e-12)

    def test_plugin_mode(self):
        spec = sd.FactorSpec(n_shared_symbols=4, n_unique_symbols=2)
        rep = an.verify_mi_decomposition(spec, mode="plugin", n_samples=100_000)
        assert rep["holds"]

    def test_unknown_mode(self):
        spec = sd.FactorSpec(n_shared_symbols=2, n_unique_symbols=2)
        with pytest.raises(ValueError):
            an.verify_mi_decomposition(spec, mode="bogus")


class TestClLimitation:
    def test_xor_gap_is_ln2(self):
        spec = sd.FactorSpec(n_shared_symbols=2, n_unique_symbols=2)
        task = sd.TaskSpec(mode="unique-only", n_classes=2)
        rep = an.verify_cl_limitation(spec, task)
        assert rep["i_shared"] == pytest.approx(0.0, abs=1e-12)
        assert rep["gap"] == pytest.approx(np.log(2), abs=1e-9)
        assert rep["holds"]

    def test_mixed_gap_positive_but_partial(self):
        # uniform factors one-time-pad each other's contribution to the
        # modular-sum label, so skew both to keep every MI term positive
        skew = (0.7, 0.1, 0.1, 0.1)
        spec = sd.FactorSpec(
            n_shared_symbols=4, n_unique_symbols=4, shared_dist=skew,
            unique_dist_m1=skew, unique_dist_m2=skew,
        )
        task = sd.TaskSpec(mode="mixed", n_classes=4)
        rep = an.verify_cl_limitation(spec, task)
        assert rep["holds"]
        assert 0 < rep["gap"] < rep["i_full"]

    def test_shared_only_precondition(self):
        spec = sd.FactorSpec(n_shared_symbols=2, n_unique_symbols=2)
        with pytest.raises(ValueError):
            an.verify_cl_limitation(spec, sd.TaskSpec(mode="shared-only", n_classes=2))


class TestInfoNceBound:
    def test_bijective_uniform(self):
        g = np.random.default_rng(8)
        table = g.standard_normal((8, 16))
        rep = an.bound_gap_infonce(np.full(8, 1 / 8), table, batch_size=4, n_batches=100)
        assert rep["i_exact"] == pytest.approx(np.log(8), abs=1e-9)
        assert rep["holds"]
        assert rep["max_bound"] <= np.log(4) + 1e-6

    @pytest.mark.parametrize("seed", [9, 10])
    def test_randomized_with_collisions(self, seed):
        g = np.random.default_rng(seed)
        # 8 symbols mapped onto only 3 distinct embeddings
        atoms = g.standard_normal((3, 12))
        table = atoms[g.integers(0, 3, 8)]
        p = g.random(8)
        rep = an.bound_gap_infonce(p / p.sum(), table, batch_size=6, n_batches=100, seed=seed)
        assert rep["i_exact"] <= np.log(3) + 1e-9
        assert rep["holds"]


class TestSupConBound:
    def test_identical_embeddings_zero_mi(self):
        table = np.tile(np.random.default_rng(11).standard_normal(8), (2, 1))
        joint = an.DiscreteJoint(np.array([[0.25, 0.25], [0.25, 0.25]]))
        rep = an.bound_gap_supcon(joint, table, batch_size=6, n_batches=50)
        assert rep["i_exact"] == pytest.approx(0.0, abs=1e-9)
        assert rep["holds"]

    @pytest.mark.parametrize("seed", [12, 13])
    def test_class_clustered(self, seed):
        g = np.random.default_rng(seed)
        table = g.standard_normal((4, 10))
        # each class owns two atoms with random within-class proportions
        p = np.zeros((2, 4))
        p[0, :2] = g.random(2)
        p[1, 2:] = g.random(2)
        joint = an.DiscreteJoint(p / p.sum())
        rep = an.bound_gap_supcon(joint, table, batch_size=8, n_batches=100, seed=seed)
        assert rep["i_exact"] > 0
        assert rep["holds"]


class TestEntropyMonitor:
    def make_routing(self, scores):
        n = scores.shape[0]
        return moe.LayerRouting(
            layer_id=0,
            logits=Tensor(np.log(np.maximum(scores, 1e-9))),
            noisy_logits=np.log(np.maximum(scores, 1e-9)),
            scores=Tensor(scores.astype(np.float32)),
            selected=np.zeros((n, 1), np.int64),
            weights=Tensor(scores[:, :1].astype(np.float32)),
        )

    def test_uniform_router(self):
        rec = self.make_routing(np.full((5, 8), 1 / 8))
        out = an.entropy_monitor([rec])
        assert out["local_entropy"] == pytest.approx(np.log(8), abs=1e-5)
        assert out["global_neg_entropy"] == pytest.approx(-np.log(8), abs=1e-5)

    def test_one_hot_router(self):
        scores = np.zeros((4, 4))
        scores[np.arange(4), [0, 0, 1, 1]] = 1.0
        out = an.entropy_monitor([self.make_routing(scores)])
        assert out["local_entropy"] == pytest.approx(0.0, abs=1e-6)
        assert out["global_neg_entropy"] == pytest.approx(-np.log(2), abs=1e-5)

    def test_matches_direct_recomputation(self):
        g = np.random.default_rng(14)
        raw = g.random((6, 5))
        scores = raw / raw.sum(axis=1, keepdims=True)
        out = an.entropy_monitor([self.make_routing(scores)])
        local = np.mean([-(r * np.log(r)).sum() for r in scores])
        marg = scores.mean(axis=0)
        assert out["local_entropy"] == pytest.approx(local, rel=1e-4)
        assert out["global_neg_entropy"] == pytest.approx((marg * np.log(marg)).sum(), rel=1e-4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            an.entropy_monitor([])


class TestReports:
    def test_format_cell(self):
        assert an.format_cell(77.9523, 0.5912) == "77.95(0.59)"

    def test_empty_report_header_only(self, tmp_path):
        path = tmp_path / "sweep.csv"
        an.emit_report([], path, an.SWEEP_COLUMNS)
        lines = path.read_text().strip().splitlines()
        assert lines == [",".join(an.SWEEP_COLUMNS)]

    def test_row_roundtrip(self, tmp_path):
        path = tmp_path / "sweep.csv"
        row = {
            "dataset": "synthetic", "chi": 4, "stage": "selection", "p": 0.5,
            "accuracy": an.format_cell(77.95, 0.59), "active_param_pct": "61.20",
            "trainable_param_pct": "0.41",
        }
        an.emit_report([row], path, an.SWEEP_COLUMNS)
        with open(path) as f:
            back = list(csv.DictReader(f))
        assert back[0]["accuracy"] == "77.95(0.59)"
        assert back[0]["chi"] == "4"

    def test_trainable_param_ratio(self):
        moe_cfg = moe.MoEConfig(d_model=8, granularity_chi=2, expansion_rho=2, top_k=2, d_ffn=8)
        cfg = enc.EncoderConfig(d_model=8, n_heads=2, d_in=3, moe=moe_cfg, n_layers=2)
        e = enc.ModalityEncoder(cfg, dc.RngState(0))
        params = e.named_params()
        rep = an.trainable_param_ratio(params, enc.parameter_group)
        manual = sum(t.data.size for n, t in params.items() if "/router/" in n)
        total = sum(t.data.size for t in params.values())
        assert rep["trainable_params"] == manual
        assert rep["trainable_pct"] == pytest.approx(100 * manual / total)
