import gc
import io
import warnings
import zipfile

import numpy as np
import pytest

from s3moe import diffcore as dc
from s3moe import moe
from s3moe import synthdata as sd


def plugin_mi(a, b) -> float:
    """Plug-in mutual information (nats) between two discrete sequences."""
    a, b = np.asarray(a), np.asarray(b)
    n = len(a)
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    joint = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(joint, (ai, bi), 1.0)
    joint /= n
    pa, pb = joint.sum(axis=1), joint.sum(axis=0)
    mask = joint > 0
    return float((joint[mask] * np.log(joint[mask] / np.outer(pa, pb)[mask])).sum())


def plugin_entropy(a) -> float:
    _, counts = np.unique(np.asarray(a), return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log(p)).sum())


def draw_latents(spec, n, seed=0):
    return sd.sample_latents(spec, dc.RngState(seed), n)


def reference_split(n, spec, task, seed, codebook_seed=None):
    """A split from its per-sample definition, one sample at a time.

    Sample i's stream `RngState(seed).stream(i)` draws one `choice` per
    latent, then the m1 noise block, then the m2 noise block.
    """
    books = sd.Codebooks.create(spec, seed if codebook_seed is None else codebook_seed)
    dists = (spec.dist_shared, spec.dist_unique(1), spec.dist_unique(2))
    sigma = spec.embed_noise_sigma
    x1, x2, latents = [], [], []
    for i in range(n):
        rng = dc.RngState(seed).stream(i)
        s, u1, u2 = [rng.choice(len(p), p=p) for p in dists]
        for tokens, unique_code in ((x1, books.unique_m1[u1]), (x2, books.unique_m2[u2])):
            noise = rng.normal((spec.seq_len, spec.d_in), sigma=sigma) if sigma else 0.0
            tokens.append((np.tile(books.shared[s] + unique_code, (spec.seq_len, 1)) + noise).astype(np.float32))
        latents.append((s, u1, u2))
    y = np.array([
        {"shared-only": s, "unique-only": u1 + u2, "mixed": s + u1}[task.mode] % task.n_classes
        for s, u1, u2 in latents
    ])
    return np.stack(x1), np.stack(x2), y, np.array(latents)


class TestFactorSpec:
    def test_bad_distribution_rejected(self):
        with pytest.raises(ValueError):
            sd.FactorSpec(n_shared_symbols=2, n_unique_symbols=2, shared_dist=(0.7, 0.7))

    def test_distributions_are_validated_once_and_read_only(self):
        spec = sd.FactorSpec(n_shared_symbols=2, n_unique_symbols=2, unique_dist_m1=(0.75, 0.25))
        assert spec.dist_shared is spec.dist_shared
        assert spec.dist_unique(1) is spec.dist_unique(1)
        np.testing.assert_array_equal(spec.dist_unique(1), [0.75, 0.25])
        with pytest.raises(ValueError):
            spec.dist_unique(2)[0] = 1.0

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            sd.FactorSpec(n_shared_symbols=2, n_unique_symbols=2, embed_noise_sigma=-0.1)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), True, "0.05", None])
    def test_non_finite_or_non_number_sigma_rejected(self, sigma):
        with pytest.raises((TypeError, ValueError), match="embed_noise_sigma"):
            sd.FactorSpec(n_shared_symbols=2, n_unique_symbols=2, embed_noise_sigma=sigma)

    def test_default_uniform(self):
        spec = sd.FactorSpec(n_shared_symbols=4, n_unique_symbols=2)
        np.testing.assert_allclose(spec.dist_shared, 0.25)


class TestLatents:
    @pytest.mark.parametrize("spec", [
        sd.FactorSpec(n_shared_symbols=4, n_unique_symbols=2),
        sd.FactorSpec(n_shared_symbols=1, n_unique_symbols=1),
        sd.FactorSpec(n_shared_symbols=2, n_unique_symbols=2, unique_dist_m1=(0.75, 0.25)),
        sd.FactorSpec(
            n_shared_symbols=5, n_unique_symbols=3, shared_dist=(0.6, 0.2, 0.1, 0.07, 0.03),
            unique_dist_m1=(0.0, 0.999, 0.001), unique_dist_m2=(0.1, 0.0, 0.9),
        ),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_draws_equal_successive_choice_calls(self, spec, seed):
        dists = (spec.dist_shared, spec.dist_unique(1), spec.dist_unique(2))
        ref_rng = dc.RngState(seed)
        ref = np.array([[ref_rng.choice(len(p), p=p) for p in dists] for _ in range(2_000)])
        np.testing.assert_array_equal(sd.sample_latents(spec, dc.RngState(seed), 2_000), ref)

    def test_uniform_marginal_frequencies(self):
        spec = sd.FactorSpec(n_shared_symbols=4, n_unique_symbols=2)
        lat = draw_latents(spec, 100_000)
        freqs = np.bincount(lat[:, 0], minlength=4) / len(lat)
        np.testing.assert_allclose(freqs, 0.25, atol=0.02)

    def test_pairwise_independence(self):
        spec = sd.FactorSpec(n_shared_symbols=4, n_unique_symbols=3)
        lat = draw_latents(spec, 100_000, seed=1)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert plugin_mi(lat[:, i], lat[:, j]) <= 0.01

    def test_degenerate_spec_constant(self):
        spec = sd.FactorSpec(n_shared_symbols=1, n_unique_symbols=1)
        lat = draw_latents(spec, 50, seed=2)
        assert np.all(lat == 0)

    def test_skewed_distribution_respected(self):
        spec = sd.FactorSpec(n_shared_symbols=2, n_unique_symbols=2, unique_dist_m1=(0.75, 0.25))
        lat = draw_latents(spec, 50_000, seed=3)
        freq = np.mean(lat[:, 1] == 0)
        assert freq == pytest.approx(0.75, abs=0.02)


class TestRender:
    def test_zero_sigma_deterministic(self):
        spec = sd.FactorSpec(n_shared_symbols=2, n_unique_symbols=2, embed_noise_sigma=0.0)
        books = sd.Codebooks.create(spec, seed=0)
        noise = [np.random.default_rng(seed).standard_normal((1, 2, spec.seq_len, spec.d_in)) for seed in (1, 2)]
        a1, a2 = sd.render([(1, 0, 1)], spec, books, noise[0])
        b1, b2 = sd.render([(1, 0, 1)], spec, books, noise[1])
        np.testing.assert_array_equal(a1, b1)
        np.testing.assert_array_equal(a2, b2)
        np.testing.assert_array_equal(a1, sd.render([(1, 0, 1)], spec, books)[0])

    def test_unique_factor_changes_own_modality(self):
        spec = sd.FactorSpec(n_shared_symbols=2, n_unique_symbols=2, embed_noise_sigma=0.0)
        books = sd.Codebooks.create(spec, seed=0)
        x1, x2 = sd.render(np.array([(1, 0, 0), (1, 1, 0)]), spec, books)
        assert not np.array_equal(x1[0], x1[1])
        np.testing.assert_array_equal(x2[0], x2[1])

    def test_out_of_range_latents(self):
        spec = sd.FactorSpec(n_shared_symbols=2, n_unique_symbols=2, embed_noise_sigma=0.0)
        books = sd.Codebooks.create(spec)
        for latents in ([(2, 0, 0)], [(0, 0, 0), (0, 0, 2)], [(0, -1, 0)], (0, 0, 0), [(0, 0)]):
            with pytest.raises(ValueError, match="factor ranges"):
                sd.render(latents, spec, books)

    @pytest.mark.parametrize("sigma", [1e39, 1e308])
    def test_noise_overflowing_float32_raises(self, sigma):
        # 1e39 overflows the float32 cast, 1e308 already the float64 product
        spec = sd.FactorSpec(n_shared_symbols=2, n_unique_symbols=2, embed_noise_sigma=sigma)
        with pytest.raises(sd.DatasetError, match="embed_noise_sigma"):
            sd.generate_dataset(4, spec, sd.TaskSpec(mode="shared-only", n_classes=2), seed=0)

    def test_shared_symbol_linearly_decodable(self):
        spec = sd.FactorSpec(n_shared_symbols=4, n_unique_symbols=2, d_in=32, seq_len=2, embed_noise_sigma=0.05)
        x1, _, _, latents = sd.generate_dataset(1000, spec, sd.TaskSpec(mode="shared-only", n_classes=4), seed=4)
        x = x1.reshape(-1, spec.d_in)
        y = np.repeat(latents[:, 0], spec.seq_len)
        onehot = np.eye(4)[y]
        xb = np.hstack([x, np.ones((len(x), 1))])
        w, *_ = np.linalg.lstsq(xb, onehot, rcond=None)
        acc = np.mean((xb @ w).argmax(axis=1) == y)
        assert acc >= 0.99


class TestLabel:
    def test_unique_only_is_xor(self):
        task = sd.TaskSpec(mode="unique-only", n_classes=2)
        for u1 in (0, 1):
            for u2 in (0, 1):
                assert sd.label((0, u1, u2), task) == (u1 ^ u2)

    def test_shared_only_independent_of_uniques(self):
        spec = sd.FactorSpec(n_shared_symbols=4, n_unique_symbols=4)
        task = sd.TaskSpec(mode="shared-only", n_classes=4)
        lat = draw_latents(spec, 100_000, seed=5)
        ys = sd.label(lat, task)
        uniques = lat[:, 1] * 4 + lat[:, 2]
        assert plugin_mi(uniques, ys) <= 0.01

    def test_unique_only_independent_of_shared(self):
        spec = sd.FactorSpec(n_shared_symbols=4, n_unique_symbols=4)
        task = sd.TaskSpec(mode="unique-only", n_classes=4)
        lat = draw_latents(spec, 100_000, seed=6)
        ys = sd.label(lat, task)
        assert plugin_mi(lat[:, 0], ys) <= 0.01

    @pytest.mark.parametrize("mode", sd.LABEL_MODES)
    def test_array_labels_equal_triple_labels(self, mode):
        task = sd.TaskSpec(mode=mode, n_classes=3)
        lat = draw_latents(sd.FactorSpec(n_shared_symbols=4, n_unique_symbols=3), 200, seed=8)
        np.testing.assert_array_equal(sd.label(lat, task), [sd.label(tuple(row), task) for row in lat])

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            sd.TaskSpec(mode="both", n_classes=2)


class TestCrossModalMI:
    def test_mi_between_modalities_equals_shared_entropy(self):
        spec = sd.FactorSpec(n_shared_symbols=4, n_unique_symbols=2)
        lat = draw_latents(spec, 100_000, seed=7)
        x1 = lat[:, 0] * 2 + lat[:, 1]
        x2 = lat[:, 0] * 2 + lat[:, 2]
        assert abs(plugin_mi(x1, x2) - plugin_entropy(lat[:, 0])) <= 0.05


TASK = sd.TaskSpec(mode="mixed", n_classes=3)


class TestSerialization:
    def spec(self):
        return sd.FactorSpec(n_shared_symbols=3, n_unique_symbols=2, d_in=5, seq_len=2)

    def roundtrip(self, tmp_path, task, seed):
        split = sd.generate_dataset(20, self.spec(), task, seed=seed)
        path = tmp_path / "data.npz"
        sd.write_dataset(split, path)
        back = sd.read_dataset(path)
        for a, b in zip(split, back):
            np.testing.assert_array_equal(a, b)
            assert a.dtype == b.dtype
        return back

    def test_roundtrip_bit_exact(self, tmp_path):
        x1, x2, y, lat = self.roundtrip(tmp_path, sd.TaskSpec(mode="mixed", n_classes=3), seed=8)
        assert x1.dtype == x2.dtype == np.float32 and x1.shape == x2.shape == (20, 2, 5)
        assert y.dtype == lat.dtype == np.int64 and y.shape == (20,) and lat.shape == (20, 3)

    def test_same_seed_byte_identical(self, tmp_path):
        task = sd.TaskSpec(mode="shared-only", n_classes=3)
        p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
        sd.write_dataset(sd.generate_dataset(10, self.spec(), task, seed=10), p1)
        sd.write_dataset(sd.generate_dataset(10, self.spec(), task, seed=10), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unreadable_file_raises(self, tmp_path):
        path = tmp_path / "data.npz"
        sd.write_dataset(sd.generate_dataset(4, self.spec(), TASK, seed=9), path)
        data = path.read_bytes()
        ragged = io.BytesIO()
        np.savez(ragged, x1=np.zeros((4, 2, 5), np.float32), x2=np.zeros((4, 2, 5), np.float32), y=np.zeros(3))
        no_x1 = io.BytesIO()
        np.savez(no_x1, x2=np.zeros((4, 2, 5), np.float32))
        for corrupt in (data[: len(data) // 2], b"", b"not an archive", ragged.getvalue(), no_x1.getvalue()):
            path.write_bytes(corrupt)
            with pytest.raises(sd.DatasetError, match=str(path)):
                sd.read_dataset(path)

    def test_non_finite_or_non_float_tokens_raise(self, tmp_path):
        x1, x2, y, lat = sd.generate_dataset(4, self.spec(), sd.TaskSpec(mode="mixed", n_classes=3), seed=9)
        nan_x1, inf_x2 = x1.copy(), x2.copy()
        nan_x1[2, 1, 3] = np.nan
        inf_x2[0, 0, 0] = -np.inf
        path = tmp_path / "data.npz"
        for a1, a2 in ((nan_x1, x2), (x1, inf_x2), (x1.astype(str), x2)):
            np.savez(path, x1=a1, x2=a2, y=y, latents=lat)
            with pytest.raises(sd.DatasetError, match="finite float tokens"):
                sd.read_dataset(path)

    @pytest.mark.parametrize("missing", [["y"], ["latents"], ["y", "latents"]], ids=["y", "latents", "both"])
    def test_archive_lacking_labels_or_latents_raises(self, tmp_path, missing):
        arrays = dict(zip(("x1", "x2", "y", "latents"), sd.generate_dataset(4, self.spec(), TASK, seed=9)))
        path = tmp_path / "data.npz"
        np.savez(path, **{name: a for name, a in arrays.items() if name not in missing})
        with pytest.raises(sd.DatasetError, match=f"{path} lacks {', '.join(missing)}$"):
            sd.read_dataset(path)

    @pytest.mark.parametrize("name, malformed", [
        ("y", lambda y: y.astype(np.float64)),
        ("y", lambda y: y[:, None]),
        ("latents", lambda lat: lat[:, :2]),
        ("latents", lambda lat: lat.astype(np.float32)),
    ], ids=["float-y", "column-y", "two-column-latents", "float-latents"])
    def test_malformed_labels_or_latents_raise(self, tmp_path, name, malformed):
        arrays = dict(zip(("x1", "x2", "y", "latents"), sd.generate_dataset(4, self.spec(), TASK, seed=9)))
        arrays[name] = malformed(arrays[name])
        path = tmp_path / "data.npz"
        np.savez(path, **arrays)
        with pytest.raises(sd.DatasetError, match=f"needs {name} as an integer"):
            sd.read_dataset(path)

    def test_truncated_archive_closes_its_file(self, tmp_path):
        # both .npz readers, the dataset's and the checkpoint's, on an archive cut short mid-file
        path = tmp_path / "data.npz"
        sd.write_dataset(sd.generate_dataset(4, self.spec(), TASK, seed=9), path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(sd.DatasetError):
                sd.read_dataset(path)
            with pytest.raises(zipfile.BadZipFile):
                moe.load_params(path)
            gc.collect()
        assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_empty_dataset_raises_before_writing(self, tmp_path):
        path = tmp_path / "data.npz"
        with pytest.raises(sd.DatasetError, match="empty"):
            sd.write_dataset(sd.generate_dataset(0, self.spec(), TASK), path)
        assert not path.exists()

    def test_generated_split_shapes(self):
        task = sd.TaskSpec(mode="mixed", n_classes=2)
        x1, x2, y, lat = sd.generate_dataset(6, self.spec(), task, seed=12)
        assert x1.shape == (6, 2, 5) and x2.shape == (6, 2, 5)
        assert y.shape == (6,) and lat.shape == (6, 3)


SKEWED = dict(
    n_shared_symbols=5, n_unique_symbols=3, shared_dist=(0.6, 0.2, 0.1, 0.07, 0.03),
    unique_dist_m1=(0.0, 0.999, 0.001), unique_dist_m2=(0.1, 0.0, 0.9),
)


class TestGenerator:
    @pytest.mark.parametrize("n, spec", [
        (40, sd.FactorSpec(seq_len=3, d_in=4, **SKEWED)),
        (30, sd.FactorSpec(n_shared_symbols=4, n_unique_symbols=2, embed_noise_sigma=0.0)),
        (30, sd.FactorSpec(n_shared_symbols=4, n_unique_symbols=2, seq_len=1, d_in=8, embed_noise_sigma=1.0)),
        (1, sd.FactorSpec(n_shared_symbols=4, n_unique_symbols=2)),
    ], ids=["skewed", "sigma-0", "seq-len-1", "one-sample"])
    @pytest.mark.parametrize("mode", sd.LABEL_MODES)
    def test_equals_per_sample_definition(self, n, spec, mode):
        task = sd.TaskSpec(mode=mode, n_classes=3)
        got = sd.generate_dataset(n, spec, task, seed=7, codebook_seed=2)
        ref = reference_split(n, spec, task, seed=7, codebook_seed=2)
        for a, b in zip(got, ref):
            assert (a.dtype, a.shape) == (b.dtype, b.shape) and a.tobytes() == b.tobytes()
