"""Loss values and analytic gradients for Q-Margin, A3M and the
CosFace/ArcFace cross-entropy baselines.

All losses are stateless functions of cosine similarities against normalized
prototypes. Margin annealing is resolved by the caller (the trainer); the
margin stored in MarginConfig is the effective one.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import backend
from .core import AlphaParams, PosteriorDistribution, divergence

MODES = ("q_margin", "a3m", "cosface", "arcface")

# arccos guard for boundary cosines
_ACOS_EPS = 1e-7

# smallest normal double; q_margin's target weight exp(-s*m) must not fall below it
_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class AnnealSchedule:
    """Exponential ramp of the margin from 0 to its target value."""

    start_epoch: int
    end_epoch: int

    def __post_init__(self):
        if not self.start_epoch < self.end_epoch:
            raise ValueError("anneal start_epoch must be < end_epoch")


@dataclass(frozen=True)
class MarginConfig:
    scale: float
    margin: float
    mode: str
    anneal: Optional[AnnealSchedule] = None

    def __post_init__(self):
        if not self.scale > 0.0:
            raise ValueError(f"scale must be > 0, got {self.scale}")
        if not 0.0 <= self.margin < 1.0:
            raise ValueError(f"margin must be in [0, 1), got {self.margin}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "q_margin" and not np.exp(-self.scale * self.margin) >= _TINY:
            raise ValueError(
                f"q_margin needs scale*margin <= {-np.log(_TINY):.4f}, so that the target "
                f"weight exp(-scale*margin) is a normal double; got {self.scale * self.margin!r}"
            )

    def with_margin(self, m):
        return replace(self, margin=m)


@dataclass
class LossOutput:
    value: float
    grad_logits: np.ndarray
    posterior: PosteriorDistribution


def one_hot(y, k):
    if not 0 <= y < k:
        raise IndexError(f"class index {y} out of range for k={k}")
    e = np.zeros(k)
    e[y] = 1.0
    return e


def fy_loss(theta, y, q, params):
    """Fenchel-Young alpha-divergence loss and its gradient p - y."""
    theta = np.asarray(theta, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    k = theta.shape[0]
    yv = one_hot(y, k)
    p, _ = backend.posterior(theta, q, params.alpha, params.bisect_tol, params.max_iters)
    value = float(p @ theta - divergence(p, q, params) + divergence(yv, q, params) - theta[y])
    return LossOutput(
        value=value,
        grad_logits=p - yv,
        posterior=PosteriorDistribution.from_dense(p),
    )


def fy_loss_batch(Theta, ys, Q, params):
    """Row-wise fy_loss. Returns (values (B,), grads (B,k), posteriors (B,k))."""
    Theta = np.ascontiguousarray(Theta, dtype=np.float64)
    Q = np.ascontiguousarray(Q, dtype=np.float64)
    ys = np.asarray(ys)
    B, k = Theta.shape
    P, _ = backend.posterior_batch(Theta, Q, params.alpha, params.bisect_tol, params.max_iters)
    a = params.alpha
    rows = np.arange(B)

    def df_batch(U):
        return np.sum(Q * (((U**a - 1.0) - a * (U - 1.0)) / (a * (a - 1.0))), axis=1)

    Y = np.zeros_like(Theta)
    Y[rows, ys] = 1.0
    values = (
        np.sum(P * Theta, axis=1)
        - df_batch(P / Q)
        + df_batch(Y / Q)
        - Theta[rows, ys]
    )
    return values, P - Y, P


def build_q_margin_measure(y, k, cfg):
    """Reference measure with the target prior down-weighted to exp(-s*m)."""
    q = np.ones(k)
    q[y] = np.exp(-cfg.scale * cfg.margin)
    return q


def q_margin_measure_batch(ys, k, cfg):
    B = len(ys)
    Q = np.ones((B, k))
    Q[np.arange(B), ys] = np.exp(-cfg.scale * cfg.margin)
    return Q


def apply_cosface_margin(c, y, m):
    """Additive margin in cosine space: c'_y = c_y - m."""
    c = np.array(c, dtype=np.float64)
    c[y] = c[y] - m
    return c


def apply_arcface_margin(c, y, m):
    """Additive angular margin: c'_y = cos(arccos(c_y) + m)."""
    c = np.array(c, dtype=np.float64)
    cy = np.clip(c[y], -1.0 + _ACOS_EPS, 1.0 - _ACOS_EPS)
    c[y] = np.cos(np.arccos(cy) + m)
    return c


def arcface_margin_derivative(cy, m):
    """d cos(arccos(c) + m) / dc = sin(psi + m) / sin(psi), psi = arccos(c)."""
    cy = np.clip(cy, -1.0 + _ACOS_EPS, 1.0 - _ACOS_EPS)
    psi = np.arccos(cy)
    return np.sin(psi + m) / np.sin(psi)


def q_margin_loss(c, y, cfg, params):
    """Margin in the reference measure: fy_loss(s*c, y, q_margin measure)."""
    if cfg.mode != "q_margin":
        raise ValueError(f"expected mode 'q_margin', got {cfg.mode!r}")
    c = np.asarray(c, dtype=np.float64)
    theta = cfg.scale * c
    q = build_q_margin_measure(y, c.shape[0], cfg)
    return fy_loss(theta, y, q, params)


def a3m_loss(c, y, cfg, params):
    """Geometric angular margin on the logits with a uniform reference measure."""
    if cfg.mode != "a3m":
        raise ValueError(f"expected mode 'a3m', got {cfg.mode!r}")
    c = np.asarray(c, dtype=np.float64)
    theta = cfg.scale * apply_arcface_margin(c, y, cfg.margin)
    return fy_loss(theta, y, np.ones(c.shape[0]), params)


def _softargmax(Theta):
    Z = Theta - Theta.max(axis=-1, keepdims=True)
    E = np.exp(Z)
    return E / E.sum(axis=-1, keepdims=True)


def baseline_ce_loss(c, y, cfg):
    """CosFace/ArcFace cross-entropy over softargmax of margin-modified cosines."""
    if cfg.mode not in ("cosface", "arcface"):
        raise ValueError(f"expected a baseline mode, got {cfg.mode!r}")
    c = np.asarray(c, dtype=np.float64)
    if cfg.mode == "cosface":
        cm = apply_cosface_margin(c, y, cfg.margin)
    else:
        cm = apply_arcface_margin(c, y, cfg.margin)
    theta = cfg.scale * cm
    p = _softargmax(theta)
    z = theta - theta.max()
    value = float(np.log(np.exp(z).sum()) - z[y])
    yv = one_hot(y, c.shape[0])
    return LossOutput(
        value=value,
        grad_logits=p - yv,
        posterior=PosteriorDistribution.from_dense(p),
    )


def margin_cosines_batch(C, ys, cfg):
    """Apply the mode's margin transform to the target column of C (B, k)."""
    C = np.array(C, dtype=np.float64)
    rows = np.arange(C.shape[0])
    if cfg.mode == "cosface":
        C[rows, ys] -= cfg.margin
    elif cfg.mode in ("a3m", "arcface"):
        cy = np.clip(C[rows, ys], -1.0 + _ACOS_EPS, 1.0 - _ACOS_EPS)
        C[rows, ys] = np.cos(np.arccos(cy) + cfg.margin)
    # q_margin keeps the cosines untouched; the margin lives in q
    return C


def batch_posteriors(C, ys, cfg, params):
    """Posterior matrix (B, k) for the configured loss at cosine matrix C."""
    ys = np.asarray(ys)
    Theta = cfg.scale * margin_cosines_batch(C, ys, cfg)
    if cfg.mode in ("cosface", "arcface"):
        return _softargmax(Theta)
    if cfg.mode == "q_margin":
        Q = q_margin_measure_batch(ys, C.shape[1], cfg)
    else:
        Q = np.ones_like(Theta)
    P, _ = backend.posterior_batch(
        np.ascontiguousarray(Theta), Q, params.alpha, params.bisect_tol, params.max_iters
    )
    return P


def batch_loss_and_cosine_grad(C, ys, cfg, params):
    """Per-sample loss values and gradients w.r.t. the raw cosines C (B, k).

    Chains the scale factor and, for angular-margin modes, the
    sin(psi + m)/sin(psi) factor on the target column.
    Returns (values (B,), dC (B,k), posteriors (B,k)).
    """
    C = np.asarray(C, dtype=np.float64)
    ys = np.asarray(ys)
    B, k = C.shape
    rows = np.arange(B)
    Theta = cfg.scale * margin_cosines_batch(C, ys, cfg)

    if cfg.mode in ("cosface", "arcface"):
        P = _softargmax(Theta)
        Z = Theta - Theta.max(axis=1, keepdims=True)
        values = np.log(np.exp(Z).sum(axis=1)) - Z[rows, ys]
        G = P.copy()
        G[rows, ys] -= 1.0
    else:
        if cfg.mode == "q_margin":
            Q = q_margin_measure_batch(ys, k, cfg)
        else:
            Q = np.ones_like(Theta)
        values, G, P = fy_loss_batch(Theta, ys, Q, params)

    dC = cfg.scale * G
    if cfg.mode in ("a3m", "arcface"):
        dC[rows, ys] *= arcface_margin_derivative(C[rows, ys], cfg.margin)
    return values, dC, P
