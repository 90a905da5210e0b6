"""Desk-scale embedding trainer: a small MLP embedder with L2-normalized
output, a normalized prototype head, SGD with momentum/weight decay, margin
annealing, and mid-training prototype re-initialization.

Backprop is written out by hand (numpy); gradients flow through the scale
factor, the margin transform, the dot products and the unit-normalization
Jacobians of both embeddings and prototype rows. Prototype rows are projected
back to the unit sphere after every step.
"""

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import evalkit, synthdata
from .core import AlphaParams
from .errors import DataFormatError
from .losses import MarginConfig, _refuse_overflow, batch_loss_and_cosine_grad
from .synthdata import _normalize, _unit_rows

log = logging.getLogger(__name__)

_CKPT_MAGIC = b"AMCK"
_CKPT_VERSION = 1
_CKPT_HEADER = "<IIIII"  # version, d_in, hidden, d_emb, k

# growth constant of the exponential margin ramp
_ANNEAL_RATE = 4.0


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int
    lr_schedule: list  # [(start_epoch, lr), ...], 1-based, strictly increasing starts
    loss: MarginConfig
    alpha: AlphaParams
    momentum: float = 0.9
    weight_decay: float = 5e-4
    reinit_epoch: Optional[int] = None
    seed: int = 0
    hidden_dim: int = 32
    embed_dim: Optional[int] = None  # default: input dimension

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.lr_schedule or any(lr <= 0 for _, lr in self.lr_schedule):
            raise ValueError("lr_schedule must be nonempty with positive rates")
        starts = [start for start, _ in self.lr_schedule]
        if starts[0] < 1 or any(a >= b for a, b in zip(starts, starts[1:])):
            raise ValueError(f"lr_schedule start epochs must be >= 1 and increasing, got {starts}")
        if self.reinit_epoch is not None and not 0 < self.reinit_epoch < self.epochs:
            raise ValueError("reinit_epoch must lie strictly inside the epoch range")
        if self.hidden_dim < 1 or (self.embed_dim is not None and self.embed_dim < 1):
            raise ValueError("hidden_dim and embed_dim must be >= 1")
        # train and stats use no margin above the last epoch's
        _refuse_overflow(self.loss.with_margin(annealed_margin(self.loss, self.epochs)), self.alpha)


@dataclass
class Model:
    """2-layer tanh MLP embedder plus the prototype head (unit rows)."""

    w1: np.ndarray  # (hidden, d_in)
    b1: np.ndarray
    w2: np.ndarray  # (d_emb, hidden)
    b2: np.ndarray
    prototypes: np.ndarray  # (k, d_emb), unit rows

    PARAM_NAMES = ("w1", "b1", "w2", "b2", "prototypes")

    def params(self):
        return {name: getattr(self, name) for name in self.PARAM_NAMES}


def init_model(d_in, hidden, d_emb, k, rng) -> Model:
    w1 = rng.standard_normal((hidden, d_in)) / np.sqrt(d_in)
    w2 = rng.standard_normal((d_emb, hidden)) / np.sqrt(hidden)
    W = _unit_rows(rng.standard_normal((k, d_emb)))
    return Model(w1=w1, b1=np.zeros(hidden), w2=w2, b2=np.zeros(d_emb), prototypes=W)


def _forward(model: Model, X):
    """The MLP forward pass: hidden activations, unit embeddings and the norms
    of the embeddings before normalization."""
    H = X @ model.w1.T
    H += model.b1
    np.tanh(H, out=H)
    Z = H @ model.w2.T
    Z += model.b2
    E, z_norm = _normalize(Z)
    return H, E, z_norm


def embed(model: Model, X):
    """Unit-normalized embeddings for input rows X."""
    return _forward(model, X)[1]


def forward_cosines(embeddings, prototypes):
    """Cosine similarity matrix between unit embeddings and unit prototype rows."""
    if embeddings.shape[1] != prototypes.shape[1]:
        raise ValueError(
            f"dimension mismatch: embeddings are {embeddings.shape[1]}-d, "
            f"prototypes are {prototypes.shape[1]}-d"
        )
    return embeddings @ prototypes.T


def loss_and_grads(model: Model, X, ys, loss_cfg, params):
    """Mean loss over the batch plus gradients for every parameter: (mean_loss, grads dict)."""
    X = np.asarray(X, dtype=np.float64)
    B = X.shape[0]

    H, E, z_norm = _forward(model, X)
    Wn, w_norm = _normalize(model.prototypes)
    C = forward_cosines(E, Wn)
    # E and Wn rows have norm <= 1 or hold a nan, so C is finite iff they are: (B + k)*d values
    if not (np.all(np.isfinite(E)) and np.all(np.isfinite(Wn))):
        raise FloatingPointError("non-finite cosines in the forward pass; aborting the step")

    values, dC = batch_loss_and_cosine_grad(C, ys, loss_cfg, params)
    if not np.all(np.isfinite(dC)):
        raise FloatingPointError("non-finite loss gradient; aborting the step")

    dC /= B  # mean loss over the batch
    # head: through the normalization Jacobian of each prototype row
    dWn = dC.T @ E
    dW = (dWn - np.sum(dWn * Wn, axis=1, keepdims=True) * Wn) / w_norm
    # embedder: through the normalization Jacobian of each embedding
    dE = dC @ Wn
    dZ = (dE - np.sum(dE * E, axis=1, keepdims=True) * E) / z_norm
    dw2 = dZ.T @ H
    db2 = dZ.sum(axis=0)
    dH = dZ @ model.w2
    dpre = dH * (1.0 - H**2)
    dw1 = dpre.T @ X
    db1 = dpre.sum(axis=0)

    grads = {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2, "prototypes": dW}
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for {name}; aborting the step")
    return float(values.mean()), grads


def sgd_step(model: Model, grads, velocity, lr, momentum, weight_decay):
    """One momentum step; velocity maps a parameter name to its momentum buffer."""
    for name in Model.PARAM_NAMES:
        p = getattr(model, name)
        g = grads[name] + weight_decay * p
        v = velocity.get(name)
        v = g if v is None else momentum * v + g
        velocity[name] = v
        setattr(model, name, p - lr * v)
    # keep the head on the unit sphere
    model.prototypes = _unit_rows(model.prototypes)


def annealed_margin(cfg: MarginConfig, epoch):
    """Effective margin at a (1-based) epoch under the exponential ramp."""
    sched = cfg.anneal
    if sched is None:
        return cfg.margin
    if epoch < sched.start_epoch:
        return 0.0
    if epoch >= sched.end_epoch:
        return cfg.margin
    t = (epoch - sched.start_epoch) / (sched.end_epoch - sched.start_epoch)
    return cfg.margin * (np.exp(_ANNEAL_RATE * t) - 1.0) / (np.exp(_ANNEAL_RATE) - 1.0)


def reinitialize_prototypes(points, labels, k, model: Model, rng):
    """L2-normalized per-identity embedding sums as the new prototype rows.

    Identities with a vanishing accumulated sum get a fresh uniform draw on
    the sphere (logged as a warning).
    """
    E = embed(model, points)
    sums = np.zeros((k, E.shape[1]))
    np.add.at(sums, labels, E)
    norms = np.linalg.norm(sums, axis=1)
    dead = norms < 1e-12
    if np.any(dead):
        log.warning("re-drawing %d prototype rows with zero accumulated norm", dead.sum())
        sums[dead] = rng.standard_normal((int(dead.sum()), E.shape[1]))
    return _unit_rows(sums)


def _lr_at(schedule, epoch):
    lr = schedule[0][1]
    for start, value in schedule:
        if epoch >= start:
            lr = value
    return lr


@dataclass
class TrainResult:
    model: Model
    metrics: list  # one dict per epoch
    events: list  # e.g. prototype re-initialization notices


def train(dataset, cfg: TrainConfig) -> TrainResult:
    """Epoch loop honoring the lr schedule, margin annealing and the optional
    prototype re-initialization; deterministic under cfg.seed."""
    rng = np.random.default_rng(cfg.seed)
    d_emb = cfg.embed_dim if cfg.embed_dim is not None else dataset.d
    model = init_model(dataset.d, cfg.hidden_dim, d_emb, dataset.k, rng)
    velocity = {}
    metrics, events = [], []

    # a diverging run raises FloatingPointError instead of going on with inf/nan weights
    with np.errstate(over="raise", invalid="raise"):
        for epoch in range(1, cfg.epochs + 1):
            lr = _lr_at(cfg.lr_schedule, epoch)
            loss_cfg = cfg.loss.with_margin(annealed_margin(cfg.loss, epoch))
            order = rng.permutation(dataset.n)
            epoch_loss = 0.0
            for batch, lo in enumerate(range(0, dataset.n, cfg.batch_size), 1):
                idx = order[lo : lo + cfg.batch_size]
                try:
                    mean_loss, grads = loss_and_grads(
                        model, dataset.points[idx], dataset.labels[idx], loss_cfg, cfg.alpha
                    )
                    sgd_step(model, grads, velocity, lr, cfg.momentum, cfg.weight_decay)
                except FloatingPointError as exc:
                    raise FloatingPointError(
                        f"training diverged at epoch {epoch}, batch {batch} (lr {lr!r}): {exc}"
                    ) from exc
                epoch_loss += mean_loss * len(idx)
            epoch_loss /= dataset.n

            if cfg.reinit_epoch is not None and epoch == cfg.reinit_epoch:
                model.prototypes = reinitialize_prototypes(
                    dataset.points, dataset.labels, dataset.k, model, rng
                )
                velocity.pop("prototypes", None)
                events.append(
                    f"epoch {epoch}: prototypes re-initialized, head optimizer state reset"
                )

            report = evalkit.sparsity_report(
                embed(model, dataset.points), dataset.labels, model.prototypes, loss_cfg, cfg.alpha
            )
            metrics.append(
                {
                    "epoch": epoch,
                    "loss": epoch_loss,
                    "misalignment_ids": report.misaligned_identity_fraction,
                    "misalignment_images": report.misaligned_image_fraction,
                    "posterior_sparsity": report.posterior_sparsity,
                    "onehot_fraction": report.onehot_fraction,
                }
            )

    return TrainResult(model=model, metrics=metrics, events=events)


METRIC_COLUMNS = (
    "epoch",
    "loss",
    "misalignment_ids",
    "misalignment_images",
    "posterior_sparsity",
    "onehot_fraction",
)


def write_metrics_csv(metrics, path):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(METRIC_COLUMNS) + "\n")
        for row in metrics:
            fh.write(",".join(repr(row[c]) for c in METRIC_COLUMNS) + "\n")


def save_checkpoint(model: Model, path):
    """Flat binary: magic, version u32, dims (d_in, hidden, d_emb, k) as u32,
    then w1, b1, w2, b2, prototypes as little-endian float64."""
    hidden, d_in = model.w1.shape
    header = (_CKPT_VERSION, d_in, hidden, model.w2.shape[0], model.prototypes.shape[0])
    arrays = [(array, "<f8") for array in model.params().values()]
    synthdata.write_framed(path, _CKPT_MAGIC, _CKPT_HEADER, header, arrays)


def _checkpoint_layout(d_in, hidden, d_emb, k):  # the Model.PARAM_NAMES arrays, in order
    return [(s, "<f8") for s in [(hidden, d_in), (hidden,), (d_emb, hidden), (d_emb,), (k, d_emb)]]


def load_checkpoint(path) -> Model:
    _, arrays = synthdata.read_framed(
        path, _CKPT_MAGIC, _CKPT_VERSION, _CKPT_HEADER, _checkpoint_layout, "checkpoint"
    )
    if not all(map(synthdata.all_finite, arrays)):
        raise DataFormatError(f"{path}: checkpoint weights must be finite")
    return Model(**dict(zip(Model.PARAM_NAMES, arrays)))
