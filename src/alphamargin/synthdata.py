"""Synthetic identity datasets on the unit sphere, with optional long-tail
(few-shot) identities, plus binary/CSV dataset I/O."""

import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataFormatError

_MAGIC = b"SYND"
_VERSION = 1


@dataclass(frozen=True)
class SynthSpec:
    k: int
    d: int
    samples_per_id: int
    noise_kappa: float
    seed: int = 0
    few_fraction: float = 0.0  # fraction of identities with few_count samples
    few_count: int = 2

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.d < 2:
            raise ValueError("d must be >= 2")
        if self.samples_per_id < 1 or self.few_count < 1:
            raise ValueError("sample counts must be >= 1")
        if not self.noise_kappa > 0:
            raise ValueError("noise_kappa must be > 0")
        if not 0.0 <= self.few_fraction <= 1.0:
            raise ValueError("few_fraction must be in [0, 1]")


@dataclass
class Dataset:
    points: np.ndarray  # (N, d); unit rows from generate, as given from load_csv
    labels: np.ndarray  # (N,), int
    id_counts: np.ndarray  # (k,)

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def d(self):
        return self.points.shape[1]

    @property
    def k(self):
        return self.id_counts.shape[0]


def _unit_rows(x):
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def _identity_means(spec):
    # first draw of the spec.seed stream, shared by generate/generate_heldout
    rng = np.random.default_rng(spec.seed)
    return _unit_rows(rng.standard_normal((spec.k, spec.d)))


def _per_id_counts(spec, rng):
    counts = np.full(spec.k, spec.samples_per_id, dtype=np.int64)
    n_few = int(np.ceil(spec.few_fraction * spec.k))
    if n_few:
        few_ids = rng.permutation(spec.k)[:n_few]
        counts[few_ids] = spec.few_count
    return counts


def _sample(means, counts, kappa, rng):
    labels = np.repeat(np.arange(len(counts)), counts)
    noise = rng.standard_normal((labels.shape[0], means.shape[1])) / np.sqrt(kappa)
    points = _unit_rows(means[labels] + noise)
    return points, labels


def generate(spec: SynthSpec) -> Dataset:
    """Identity means uniform on the sphere; samples are mean + Gaussian noise,
    re-normalized. Deterministic under spec.seed."""
    rng = np.random.default_rng(spec.seed)
    means = _unit_rows(rng.standard_normal((spec.k, spec.d)))
    counts = _per_id_counts(spec, rng)
    points, labels = _sample(means, counts, spec.noise_kappa, rng)
    return Dataset(points=points, labels=labels, id_counts=counts)


def generate_heldout(spec: SynthSpec, per_id: int) -> Dataset:
    """Fresh samples from the same identity means, from an independent noise
    stream; used for held-out verification trials."""
    means = _identity_means(spec)
    rng = np.random.default_rng([spec.seed, 0x5EED])
    counts = np.full(spec.k, per_id, dtype=np.int64)
    points, labels = _sample(means, counts, spec.noise_kappa, rng)
    return Dataset(points=points, labels=labels, id_counts=counts)


def save(dataset: Dataset, path):
    """Binary format: magic, version u32, N u64, d u32, k u32, then points as
    little-endian float64 row-major, then labels as little-endian int32."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IQII", _VERSION, dataset.n, dataset.d, dataset.k))
        fh.write(np.ascontiguousarray(dataset.points, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(dataset.labels, dtype="<i4").tobytes())


def load(path) -> Dataset:
    with open(path, "rb") as fh:
        raw = fh.read()
    header = struct.calcsize("<IQII")
    if len(raw) < 4 + header:
        raise DataFormatError(f"{path}: file too short for a dataset header")
    if raw[:4] != _MAGIC:
        raise DataFormatError(f"{path}: bad magic {raw[:4]!r}")
    version, n, d, k = struct.unpack_from("<IQII", raw, 4)
    if version != _VERSION:
        raise DataFormatError(f"{path}: unsupported version {version}")
    off = 4 + header
    need = off + n * d * 8 + n * 4
    if len(raw) < need:
        raise DataFormatError(f"{path}: truncated ({len(raw)} bytes, expected {need})")
    if len(raw) > need:
        raise DataFormatError(f"{path}: {len(raw) - need} trailing bytes after the dataset")
    points = np.frombuffer(raw, dtype="<f8", count=n * d, offset=off).reshape(n, d).copy()
    labels = np.frombuffer(raw, dtype="<i4", count=n, offset=off + n * d * 8).astype(np.int64)
    if n and (labels.min() < 0 or labels.max() >= k):
        raise DataFormatError(f"{path}: label out of range for k={k}")
    id_counts = np.bincount(labels, minlength=k)
    return Dataset(points=points, labels=labels, id_counts=id_counts)


def load_csv(path, k: Optional[int] = None) -> Dataset:
    """Plain-text import: one row per sample, 'label, x_1, ..., x_d'."""
    raw = np.loadtxt(path, delimiter=",", ndmin=2)
    if raw.shape[1] < 3:
        raise DataFormatError(f"{path}: expected 'label, d floats' rows with d >= 2")
    labels = raw[:, 0].astype(np.int64)
    if np.any(raw[:, 0] != labels):
        raise DataFormatError(f"{path}: labels must be integers")
    points = np.ascontiguousarray(raw[:, 1:])
    if k is None:
        k = int(labels.max()) + 1
    if labels.min() < 0 or labels.max() >= k:
        raise DataFormatError(f"{path}: label out of range for k={k}")
    return Dataset(points=points, labels=labels, id_counts=np.bincount(labels, minlength=k))
