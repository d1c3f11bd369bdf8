"""Synthetic paired-modality data from a discrete latent factor model.

Each sample is generated from three independent categorical latents: a
shared symbol s seen by both modalities and one unique symbol per
modality. Tokens are codebook embeddings of (s, u_m) plus Gaussian
noise; labels are modular sums of a configurable subset of the latents.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc


class DatasetError(ValueError):
    """A data split cannot be made or read, or its arrays are not a well-formed split."""


def _validate_dist(dist, n: int, name: str) -> np.ndarray:
    if dist is None:
        return np.full(n, 1.0 / n)
    dist = np.asarray(dist, dtype=np.float64)
    if dist.shape != (n,) or np.any(dist < 0) or not np.isclose(dist.sum(), 1.0, atol=1e-6):
        raise ValueError(f"{name}: probabilities must be length {n} and sum to 1")
    return dist / dist.sum()


@dataclass(frozen=True)
class FactorSpec:
    n_shared_symbols: int
    n_unique_symbols: int
    seq_len: int = 4
    d_in: int = 16
    embed_noise_sigma: float = 0.05
    shared_dist: tuple | None = None
    unique_dist_m1: tuple | None = None
    unique_dist_m2: tuple | None = None

    def __post_init__(self):
        for name in ("n_shared_symbols", "n_unique_symbols", "seq_len", "d_in"):
            dc.require_int(name, getattr(self, name), 1)
        dc.require_real("embed_noise_sigma", self.embed_noise_sigma, 0)
        # validated once here; the frozen spec keeps the read-only arrays outside its fields
        dists = (
            _validate_dist(self.shared_dist, self.n_shared_symbols, "shared_dist"),
            _validate_dist(self.unique_dist_m1, self.n_unique_symbols, "unique_dist_m1"),
            _validate_dist(self.unique_dist_m2, self.n_unique_symbols, "unique_dist_m2"),
        )
        for d in dists:
            d.flags.writeable = False
        object.__setattr__(self, "_dists", dists)

    @property
    def dist_shared(self) -> np.ndarray:
        return self._dists[0]

    def dist_unique(self, modality: int) -> np.ndarray:
        return self._dists[1] if modality == 1 else self._dists[2]


LABEL_MODES = ("shared-only", "unique-only", "mixed")


@dataclass(frozen=True)
class TaskSpec:
    mode: str
    n_classes: int

    def __post_init__(self):
        if self.mode not in LABEL_MODES:
            raise ValueError(f"unknown task mode {self.mode!r}")
        dc.require_int("n_classes", self.n_classes, 2)


def _latents_from_uniforms(spec: FactorSpec, u: np.ndarray) -> np.ndarray:
    """(n, 3) latents from (n, 3) uniforms, each inverting its latent's normalised CDF as `Generator.choice` does."""
    cols = []
    for j, p in enumerate((spec.dist_shared, spec.dist_unique(1), spec.dist_unique(2))):
        cdf = p.cumsum()
        cdf /= cdf[-1]
        cols.append(cdf.searchsorted(u[:, j], side="right"))
    return np.stack(cols, axis=1)


def sample_latents(spec: FactorSpec, rng: dc.RngState, n: int) -> np.ndarray:
    """n independent (shared, unique_m1, unique_m2) draws as an (n, 3) int array.

    Each latent takes one uniform, so the draws equal successive
    `rng.choice` calls on the same stream.
    """
    return _latents_from_uniforms(spec, rng.random((n, 3)))


@dataclass
class Codebooks:
    """Frozen unit-Gaussian embedding tables, one per factor per modality."""

    shared: np.ndarray
    unique_m1: np.ndarray
    unique_m2: np.ndarray

    @classmethod
    def create(cls, spec: FactorSpec, seed: int = 0) -> "Codebooks":
        rng = dc.RngState(seed)
        return cls(
            shared=rng.stream(0).normal((spec.n_shared_symbols, spec.d_in)),
            unique_m1=rng.stream(1).normal((spec.n_unique_symbols, spec.d_in)),
            unique_m2=rng.stream(2).normal((spec.n_unique_symbols, spec.d_in)),
        )


def render(latents, spec: FactorSpec, codebooks: Codebooks, noise: np.ndarray | None = None):
    """(x1, x2) tokens of (n, 3) latents: every position carries code(s) + code(u_m) + sigma * noise.

    `noise` holds standard-normal draws of shape (n, 2, seq_len, d_in), the
    m1 block then the m2 block of each sample; it is read only when sigma > 0.
    Raises DatasetError when sigma is so large that a token overflows float32.
    """
    lat = np.asarray(latents)
    sizes = (spec.n_shared_symbols, spec.n_unique_symbols, spec.n_unique_symbols)
    if lat.shape[1:] != (3,) or np.any((lat < 0) | (lat >= sizes)):
        raise ValueError(f"latents must be (n, 3) within the factor ranges {sizes}")
    s, u1, u2 = lat.T
    sigma = spec.embed_noise_sigma

    def tokens(m, unique_code):
        base = codebooks.shared[s] + unique_code
        scaled = (noise[:, m] * sigma).astype(np.float32) if sigma else 0.0
        return np.repeat(base[:, None, :], spec.seq_len, axis=1) + scaled

    try:
        with np.errstate(over="raise"):
            return tokens(0, codebooks.unique_m1[u1]), tokens(1, codebooks.unique_m2[u2])
    except FloatingPointError as e:
        raise DatasetError(f"embed_noise_sigma {sigma} makes the float32 tokens overflow") from e


def label(latents, task: TaskSpec):
    """The labels of (n, 3) latents, or the label of one (s, u1, u2) triple."""
    s, u1, u2 = np.asarray(latents).T
    if task.mode == "shared-only":
        return s % task.n_classes
    if task.mode == "unique-only":
        return (u1 + u2) % task.n_classes
    return (s + u1) % task.n_classes


def generate_dataset(n: int, spec: FactorSpec, task: TaskSpec, seed: int = 0, codebook_seed: int | None = None):
    """The (x1, x2, y, latents) split of n samples.

    Sample i draws from its own stream, child i of `SeedSequence(seed)` (the
    stream `dc.RngState(seed).stream(i)`), so generation order is
    immaterial: its 3 latent uniforms, then its m1 and m2 noise blocks when
    sigma > 0. Everything after the draws runs over the whole split at once.
    """
    books = Codebooks.create(spec, seed if codebook_seed is None else codebook_seed)
    u = np.empty((n, 3))
    noise = np.empty((n, 2, spec.seq_len, spec.d_in)) if spec.embed_noise_sigma else None
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(n)):
        gen = np.random.Generator(np.random.PCG64(child))
        gen.random(out=u[i])
        if noise is not None:
            gen.standard_normal(out=noise[i])
    latents = _latents_from_uniforms(spec, u)
    x1, x2 = render(latents, spec, books, noise)
    return x1, x2, label(latents, task), latents


SPLIT_ARRAYS = ("x1", "x2", "y", "latents")


def write_dataset(split, path) -> None:
    """`np.savez` archive of an (x1, x2, y, latents) split, written to exactly `path`.

    Raises DatasetError for an empty split, before anything is written.
    """
    if len(split[0]) < 1:
        raise DatasetError("cannot write an empty split")
    # through a file handle, since np.savez appends `.npz` to a bare path
    with open(path, "wb") as f:
        np.savez(f, **dict(zip(SPLIT_ARRAYS, split)))


def read_dataset(path):
    """The (x1, x2, y, latents) arrays of a `write_dataset` archive, bit-exact.

    Raises DatasetError for a file that cannot be read or lacks one of the
    four arrays, or whose x1 and x2 are not finite float token arrays of one
    shape (N, T, d) with N >= 1, or whose y is not an integer (N,) array or
    latents an integer (N, 3) array.
    """
    try:
        # np.load on a path leaves the file open when the archive is cut short
        with open(path, "rb") as f, np.load(f, allow_pickle=False) as blob:
            arrays = {name: blob[name] for name in blob.files}
    except (OSError, ValueError, TypeError, AttributeError, EOFError, zipfile.BadZipFile) as e:
        raise DatasetError(f"dataset {path} cannot be read: {e}") from e
    missing = [name for name in SPLIT_ARRAYS if name not in arrays]
    if missing:
        raise DatasetError(f"dataset {path} lacks {', '.join(missing)}")
    x1, x2, y, latents = (arrays[name] for name in SPLIT_ARRAYS)
    if x1.ndim != 3 or x2.shape != x1.shape or len(x1) < 1:
        raise DatasetError(f"dataset {path} needs x1 and x2 of one shape (N, T, d) with N >= 1, has {x1.shape}, {x2.shape}")
    if x1.dtype.kind != "f" or x2.dtype.kind != "f" or not (np.isfinite(x1).all() and np.isfinite(x2).all()):
        raise DatasetError(f"dataset {path} needs finite float tokens in x1 and x2")
    for name, a, shape in (("y", y, (len(x1),)), ("latents", latents, (len(x1), 3))):
        if a.dtype.kind not in "iu" or a.shape != shape:
            raise DatasetError(f"dataset {path} needs {name} as an integer {shape} array, has {a.dtype} {a.shape}")
    return x1, x2, y, latents
