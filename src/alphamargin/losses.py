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
from .core import PosteriorDistribution, _check_logits, _solve_row

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


def margin_logits(C, ys, cfg):
    """Logits Theta (B, k) and reference measure Q of the mode at cosines C (B, k).

    Theta is s * C with the target cosine of each row moved by the mode's
    margin: c_y - m for cosface, cos(arccos(c_y) + m) for a3m and arcface,
    unmoved for q_margin. Q is the q_margin measure (target weight
    exp(-s*m), others 1), ones for a3m and None for the cross-entropy modes.
    """
    C = np.asarray(C, dtype=np.float64)
    target = (np.arange(C.shape[0]), np.asarray(ys))
    Theta = cfg.scale * C
    if cfg.mode == "cosface":
        Theta[target] = cfg.scale * (C[target] - cfg.margin)
    elif cfg.mode in ("a3m", "arcface"):
        cy = np.clip(C[target], -1.0 + _ACOS_EPS, 1.0 - _ACOS_EPS)
        Theta[target] = cfg.scale * np.cos(np.arccos(cy) + cfg.margin)
    if cfg.mode in ("cosface", "arcface"):
        return Theta, None
    Q = np.ones_like(Theta)
    if cfg.mode == "q_margin":
        Q[target] = np.exp(-cfg.scale * cfg.margin)
    return Theta, Q


def _minus_targets(P, ys):
    """P - Y for the one-hot rows Y of ys: either loss's gradient in its logits."""
    G = P.copy()
    G[np.arange(len(ys)), ys] -= 1.0
    return G


def _ce_rows(Theta, ys):
    """Cross-entropy values (B,) and softargmax posteriors (B, k) of logit rows."""
    Z = Theta - Theta.max(axis=1, keepdims=True)
    E = np.exp(Z)
    S = E.sum(axis=1)
    return np.log(S) - Z[np.arange(len(ys)), ys], E / S[:, None]


def _fy_values(Theta, ys, Q, P, taus, alpha):
    """Fenchel-Young loss values of (B, k) rows from their solve, in closed form.

    With p = q * z**(1/(a-1)) at tau, sum_j q_j f(p_j/q_j) = (<p, theta> -
    (tau + 1) * sum(p) + sum(q)) / a and D_f(y:q) = (sum(q) - q_y)/a +
    q_y f(1/q_y), so the sum(q) terms cancel and no (B, k) power is needed.
    """
    rows = np.arange(len(ys))
    am1 = alpha - 1.0
    q_y = Q[rows, ys]
    # q f(1/q) = (expm1(-(a-1) ln q)/(a-1) - (1 - q)) / a, exact as a -> 1
    target = (np.expm1(-am1 * np.log(q_y)) / am1 - (1.0 - q_y)) / alpha
    p_theta = np.sum(P * Theta, axis=1)
    return (am1 * p_theta + (taus + 1.0) * P.sum(axis=1) - q_y) / alpha + target - Theta[rows, ys]


def fy_loss(theta, y, q, params):
    """Fenchel-Young alpha-divergence loss and its gradient p - y.

    The one-row case of fy_loss_batch.
    """
    theta, q, p, tau = _solve_row(theta, q, params, y)
    P = p[None]
    value = _fy_values(theta[None], [y], q[None], P, np.array([tau]), params.alpha)[0]
    return LossOutput(
        value=float(value),
        grad_logits=_minus_targets(P, [y])[0],
        posterior=PosteriorDistribution.from_dense(p),
    )


def fy_loss_batch(Theta, ys, Q, params):
    """Row-wise fy_loss. Returns (values (B,), grads (B,k), posteriors (B,k))."""
    Theta = np.ascontiguousarray(Theta, dtype=np.float64)
    Q = np.ascontiguousarray(Q, dtype=np.float64)
    ys = np.asarray(ys)
    P, taus = backend.posterior_batch(
        Theta, Q, params.alpha, params.bisect_tol, params.max_iters
    )
    return _fy_values(Theta, ys, Q, P, taus, params.alpha), _minus_targets(P, ys), P


def arcface_margin_derivative(cy, m):
    """d cos(arccos(c) + m) / dc = sin(psi + m) / sin(psi), psi = arccos(c)."""
    cy = np.clip(cy, -1.0 + _ACOS_EPS, 1.0 - _ACOS_EPS)
    psi = np.arccos(cy)
    return np.sin(psi + m) / np.sin(psi)


def _margin_row(c, y, cfg, modes):
    """margin_logits of one checked cosine row c with target y, for the given modes."""
    if cfg.mode not in modes:
        raise ValueError(f"expected mode {' or '.join(map(repr, modes))}, got {cfg.mode!r}")
    Theta, Q = margin_logits(_check_logits(c, y)[None], [y], cfg)
    return Theta[0], None if Q is None else Q[0]


def q_margin_loss(c, y, cfg, params):
    """Margin in the reference measure: fy_loss(s*c, y, q_margin measure)."""
    theta, q = _margin_row(c, y, cfg, ("q_margin",))
    return fy_loss(theta, y, q, params)


def a3m_loss(c, y, cfg, params):
    """Geometric angular margin on the logits with a uniform reference measure."""
    theta, q = _margin_row(c, y, cfg, ("a3m",))
    return fy_loss(theta, y, q, params)


def baseline_ce_loss(c, y, cfg):
    """CosFace/ArcFace cross-entropy over softargmax of margin-modified cosines."""
    theta, _ = _margin_row(c, y, cfg, ("cosface", "arcface"))
    values, P = _ce_rows(theta[None], [y])
    return LossOutput(
        value=float(values[0]),
        grad_logits=_minus_targets(P, [y])[0],
        posterior=PosteriorDistribution.from_dense(P[0]),
    )


def batch_posteriors(C, ys, cfg, params):
    """Posterior matrix (B, k) for the configured loss at cosine matrix C."""
    ys = np.asarray(ys)
    Theta, Q = margin_logits(C, ys, cfg)
    if Q is None:
        return _ce_rows(Theta, ys)[1]
    P, _ = backend.posterior_batch(Theta, Q, params.alpha, params.bisect_tol, params.max_iters)
    return P


def batch_loss_and_cosine_grad(C, ys, cfg, params):
    """Per-sample loss values and gradients w.r.t. the raw cosines C (B, k).

    Chains the scale factor and, for angular-margin modes, the
    sin(psi + m)/sin(psi) factor on the target column.
    Returns (values (B,), dC (B,k), posteriors (B,k)).
    """
    C = np.asarray(C, dtype=np.float64)
    ys = np.asarray(ys)
    Theta, Q = margin_logits(C, ys, cfg)
    if Q is None:
        values, P = _ce_rows(Theta, ys)
        G = _minus_targets(P, ys)
    else:
        values, G, P = fy_loss_batch(Theta, ys, Q, params)

    dC = cfg.scale * G
    if cfg.mode in ("a3m", "arcface"):
        rows = np.arange(len(ys))
        dC[rows, ys] *= arcface_margin_derivative(C[rows, ys], cfg.margin)
    return values, dC, P
