"""Synthetic paired-modality data from a discrete latent factor model.

Each sample is generated from three independent categorical latents: a
shared symbol s seen by both modalities and one unique symbol per
modality. Tokens are codebook embeddings of (s, u_m) plus Gaussian
noise; labels are modular sums of a configurable subset of the latents.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass, field

import numpy as np

from . import diffcore as dc


class DatasetError(ValueError):
    """A data split cannot be read, or its arrays are not a well-formed split."""


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
        if self.n_shared_symbols < 1 or self.n_unique_symbols < 1:
            raise ValueError("symbol cardinalities must be positive")
        if self.seq_len < 1 or self.d_in < 1:
            raise ValueError("seq_len and d_in must be positive")
        if self.embed_noise_sigma < 0:
            raise ValueError("embed_noise_sigma must be nonnegative")
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
        if self.n_classes < 2:
            raise ValueError("n_classes must be at least 2")


@dataclass
class MultimodalSample:
    tokens_m1: np.ndarray
    tokens_m2: np.ndarray
    label: int | None = None
    latents: tuple[int, int, int] | None = None


def sample_latents(spec: FactorSpec, rng: dc.RngState, n: int | None = None):
    """Three independent categorical draws: (shared, unique_m1, unique_m2).

    With `n`, returns an (n, 3) int array of n successive draws. Each latent
    takes one uniform and inverts the normalised cumulative distribution as
    `Generator.choice` does, so the draws equal successive `rng.choice`
    calls on the same stream.
    """
    u = rng.random((1 if n is None else n, 3))
    cols = []
    for j, p in enumerate((spec.dist_shared, spec.dist_unique(1), spec.dist_unique(2))):
        cdf = p.cumsum()
        cdf /= cdf[-1]
        cols.append(cdf.searchsorted(u[:, j], side="right"))
    lat = np.stack(cols, axis=1)
    return tuple(int(v) for v in lat[0]) if n is None else lat


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


def render(latents: tuple[int, int, int], spec: FactorSpec, codebooks: Codebooks, rng: dc.RngState) -> MultimodalSample:
    """Realize a sample: every position carries code(s) + code(u_m) + noise."""
    s, u1, u2 = latents
    if not (0 <= s < spec.n_shared_symbols and 0 <= u1 < spec.n_unique_symbols and 0 <= u2 < spec.n_unique_symbols):
        raise ValueError(f"latents {latents} outside factor ranges")

    def tokens(unique_code):
        base = codebooks.shared[s] + unique_code
        noise = rng.normal((spec.seq_len, spec.d_in), sigma=spec.embed_noise_sigma) if spec.embed_noise_sigma else 0.0
        return (np.tile(base, (spec.seq_len, 1)) + noise).astype(np.float32)

    return MultimodalSample(tokens_m1=tokens(codebooks.unique_m1[u1]), tokens_m2=tokens(codebooks.unique_m2[u2]), latents=latents)


def label(latents: tuple[int, int, int], task: TaskSpec) -> int:
    s, u1, u2 = latents
    if task.mode == "shared-only":
        return s % task.n_classes
    if task.mode == "unique-only":
        return (u1 + u2) % task.n_classes
    return (s + u1) % task.n_classes


def generate_dataset(
    n: int, spec: FactorSpec, task: TaskSpec | None, seed: int = 0, codebook_seed: int | None = None
) -> list[MultimodalSample]:
    """n samples with per-sample RNG streams so generation order is immaterial."""
    books = Codebooks.create(spec, seed if codebook_seed is None else codebook_seed)
    root = dc.RngState(seed)
    out = []
    for i in range(n):
        r = root.stream(i)
        latents = sample_latents(spec, r)
        sample = render(latents, spec, books, r)
        if task is not None:
            sample.label = label(latents, task)
        out.append(sample)
    return out


def write_dataset(samples: list[MultimodalSample], path) -> None:
    """`np.savez` archive of `as_arrays(samples)` (x1, x2, and y and latents when present), written to exactly `path`."""
    x1, x2, y, latents = as_arrays(samples)
    arrays = {"x1": x1, "x2": x2, "y": y, "latents": latents}
    # through a file handle, since np.savez appends `.npz` to a bare path
    with open(path, "wb") as f:
        np.savez(f, **{name: a for name, a in arrays.items() if a is not None})


def read_dataset(path):
    """The (X1, X2, y, latents) arrays of a `write_dataset` archive, bit-exact; y and latents are None when absent.

    Raises DatasetError for a file that cannot be read, or whose x1 and x2
    are not token arrays of one shape (N, T, d) with N >= 1, or whose y or
    latents do not have length N.
    """
    try:
        with np.load(path, allow_pickle=False) as blob:
            arrays = {name: blob[name] for name in blob.files}
    except (OSError, ValueError, TypeError, AttributeError, EOFError, zipfile.BadZipFile) as e:
        raise DatasetError(f"dataset {path} cannot be read: {e}") from e
    x1, x2, y, latents = (arrays.get(name) for name in ("x1", "x2", "y", "latents"))
    if x1 is None or x2 is None or x1.ndim != 3 or x2.shape != x1.shape or len(x1) < 1:
        shapes = {name: arrays[name].shape for name in ("x1", "x2") if name in arrays}
        raise DatasetError(f"dataset {path} needs x1 and x2 of one shape (N, T, d) with N >= 1, has {shapes}")
    for name, a in (("y", y), ("latents", latents)):
        if a is not None and a.shape[:1] != (len(x1),):
            raise DatasetError(f"dataset {path} has {name} of shape {a.shape}, expected length {len(x1)}")
    return x1, x2, y, latents


def as_arrays(samples: list[MultimodalSample]):
    """Stack a dataset into (X1, X2, y, latents) training arrays; raises DatasetError when it is empty."""
    if not samples:
        raise DatasetError("cannot stack an empty dataset into arrays")
    x1 = np.stack([s.tokens_m1 for s in samples])
    x2 = np.stack([s.tokens_m2 for s in samples])
    y = np.array([s.label for s in samples]) if samples[0].label is not None else None
    latents = np.array([s.latents for s in samples]) if samples[0].latents is not None else None
    return x1, x2, y, latents
