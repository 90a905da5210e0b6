"""Synthetic identity datasets on the unit sphere, with optional long-tail
(few-shot) identities, plus binary/CSV dataset I/O on a framing checkpoints share."""

import math
import os
import stat
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataFormatError

_MAGIC = b"SYND"
_VERSION = 1
_HEADER = "<IQII"  # version, N, d, k


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


def _normalize(x, eps=1e-12):
    """Unit rows of x and the (clamped) row norms they were divided by."""
    norm = np.maximum(np.linalg.norm(x, axis=-1, keepdims=True), eps)
    return x / norm, norm


def _unit_rows(x):
    return _normalize(x)[0]


def _identity_means(spec, rng):
    # first draw of the spec.seed stream, shared by generate/generate_heldout
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
    means = _identity_means(spec, rng)
    counts = _per_id_counts(spec, rng)
    points, labels = _sample(means, counts, spec.noise_kappa, rng)
    return Dataset(points=points, labels=labels, id_counts=counts)


def generate_heldout(spec: SynthSpec, per_id: int) -> Dataset:
    """Fresh samples from the same identity means, from an independent noise
    stream; used for held-out verification trials."""
    means = _identity_means(spec, np.random.default_rng(spec.seed))
    rng = np.random.default_rng([spec.seed, 0x5EED])
    counts = np.full(spec.k, per_id, dtype=np.int64)
    points, labels = _sample(means, counts, spec.noise_kappa, rng)
    return Dataset(points=points, labels=labels, id_counts=counts)


def write_framed(path, magic, header_fmt, header, arrays):
    """Magic, the header packed with header_fmt (version first), then each array's bytes."""
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack(header_fmt, *header))
        for array, dtype in arrays:
            fh.write(np.ascontiguousarray(array, dtype=dtype).tobytes())


def _read_into(fh, array):
    """Fill array's bytes from fh as far as fh goes; the number of bytes read."""
    view = array.reshape(-1).view(np.uint8)
    got = 0
    while got < len(view) and (n := fh.readinto(view[got:])):
        got += n
    return got


def _count_rest(fh):
    """Read fh to its end a block at a time; the number of bytes it held."""
    n = 0
    while block := fh.read(1 << 16):
        n += len(block)
    return n


def read_framed(path, magic, version, header_fmt, layout, what):
    """Read a write_framed file: (header fields after the version, arrays). layout(*fields)
    gives each array's (shape, dtype); another magic, version or size is a DataFormatError.
    The arrays are read in place, so loading holds about one file size; a stream such as a
    pipe has no size up front, so its own is counted as it is read."""
    off = len(magic) + struct.calcsize(header_fmt)
    with open(path, "rb") as fh:
        head = fh.read(off)
        if len(head) < off:
            raise DataFormatError(f"{path}: file too short for a {what} header")
        if head[: len(magic)] != magic:
            raise DataFormatError(f"{path}: bad magic {head[:len(magic)]!r}")
        file_version, *fields = struct.unpack_from(header_fmt, head, len(magic))
        if file_version != version:
            raise DataFormatError(f"{path}: unsupported version {file_version}")
        # sizes in Python ints, which cannot wrap whatever the header says
        specs = [(shape, np.dtype(dtype), math.prod(shape)) for shape, dtype in layout(*fields)]
        need = off + sum(count * dtype.itemsize for _, dtype, count in specs)
        st = os.fstat(fh.fileno())
        size = st.st_size if stat.S_ISREG(st.st_mode) else None
        arrays = []
        if size in (None, need):
            try:
                arrays = [np.empty(shape, dtype) for shape, dtype, _ in specs]
            except (MemoryError, ValueError):
                if size is not None:  # a file of the size its header asks, too large for memory
                    raise
                # a stream whose header asks for more than memory: it is counted as truncated
            size = off + sum(_read_into(fh, array) for array in arrays) + _count_rest(fh)
    if size < need:
        raise DataFormatError(f"{path}: truncated ({size} bytes, expected {need})")
    if size > need:
        raise DataFormatError(f"{path}: {size - need} trailing bytes after the {what}")
    return fields, arrays


def save(dataset: Dataset, path):
    """Binary format: magic, version u32, N u64, d u32, k u32, then points as
    little-endian float64 row-major, then labels as little-endian int32."""
    header = (_VERSION, dataset.n, dataset.d, dataset.k)
    write_framed(path, _MAGIC, _HEADER, header, [(dataset.points, "<f8"), (dataset.labels, "<i4")])


def all_finite(array):
    """Whether array holds no nan or inf: min and max carry either, and unlike
    np.isfinite they build no mask the size of a loaded file."""
    return array.size == 0 or bool(np.isfinite(array.min()) and np.isfinite(array.max()))


def _checked(path, points, labels, k):
    """Points and int64 labels read from path as a Dataset: n > 0, labels in [0, k), all finite."""
    if not len(labels):
        raise DataFormatError(f"{path}: no samples")
    if labels.min() < 0 or labels.max() >= k:
        raise DataFormatError(f"{path}: label out of range for k={k}")
    if not all_finite(points):
        raise DataFormatError(f"{path}: point coordinates must be finite")
    return Dataset(points=points, labels=labels, id_counts=np.bincount(labels, minlength=k))


def load(path) -> Dataset:
    (n, d, k), (points, labels) = read_framed(
        path, _MAGIC, _VERSION, _HEADER, lambda n, d, k: [((n, d), "<f8"), ((n,), "<i4")], "dataset"
    )
    return _checked(path, points, labels.astype(np.int64), k)


def load_csv(path, k: Optional[int] = None) -> Dataset:
    """Plain-text import: one row per sample, 'label, x_1, ..., x_d'."""
    raw = np.loadtxt(path, delimiter=",", ndmin=2)
    if raw.shape[1] < 3:
        raise DataFormatError(f"{path}: expected 'label, d floats' rows with d >= 2")
    with np.errstate(invalid="ignore"):  # a nan or huge label casts to garbage, refused below
        labels = raw[:, 0].astype(np.int64)
    if np.any(raw[:, 0] != labels):
        raise DataFormatError(f"{path}: labels must be integers")
    if k is None:
        k = int(labels.max()) + 1
    return _checked(path, np.ascontiguousarray(raw[:, 1:]), labels, k)
