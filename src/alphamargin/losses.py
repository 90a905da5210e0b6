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
from .core import PosteriorDistribution, _checked_measure, _checked_rows, _logit_row, _solve_row

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
        if not (np.isfinite(self.scale) and self.scale > 0.0):
            raise ValueError(f"scale must be finite and > 0, got {self.scale}")
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


def _refuse_overflow(cfg, params):
    """Refuse a q_margin config at which f'(1/q_y) = expm1((alpha-1)*s*m)/(alpha-1)
    is not a double. The solver's bracket and the loss constant compute it as
    here, from margin_logits' target weight, so the bound holds bit for bit."""
    if cfg.mode != "q_margin":
        return
    with np.errstate(over="ignore"):
        f = backend.f_prime_inv(np.log(np.exp(-cfg.scale * cfg.margin)), params.alpha)
    if not np.isfinite(f):
        raise ValueError(
            f"q_margin at alpha={params.alpha!r} needs (alpha-1)*scale*margin <= "
            f"ln(max double) = {np.log(np.finfo(np.float64).max):.4f}, so that the loss "
            f"constant is finite; got {(params.alpha - 1.0) * cfg.scale * cfg.margin!r}"
        )


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
    C, ys, _ = _checked_rows(C, ys)
    target = (np.arange(C.shape[0]), ys)
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
    This is the primal value at the solved posterior, consistent with the
    gradient p - y; core.alpha_softmax reads the tau-stationary dual instead,
    which here would miss the divergence sums by up to 4.6e-12 relative.
    """
    rows = np.arange(len(ys))
    am1 = alpha - 1.0
    q_y = Q[rows, ys]
    target = (backend.f_prime_inv(np.log(q_y), alpha) - (1.0 - q_y)) / alpha  # q_y f(1/q_y)
    p_theta = np.sum(P * Theta, axis=1)
    return (am1 * p_theta + (taus + 1.0) * P.sum(axis=1) - q_y) / alpha + target - Theta[rows, ys]


def _fy_rows(Theta, ys, Q, params):
    """Fenchel-Young values (B,) and posteriors (B, k) of rows that are already checked."""
    P, taus = backend.posterior_batch(Theta, Q, params.alpha, params.bisect_tol, params.max_iters)
    return _fy_values(Theta, ys, Q, P, taus, params.alpha), P


def _row_output(values, P, y):
    """The LossOutput of a one-row batch: its values (1,) and posteriors (1, k) at label y."""
    return LossOutput(
        value=float(values[0]),
        grad_logits=_minus_targets(P, [y])[0],
        posterior=PosteriorDistribution.from_dense(P[0]),
    )


def fy_loss(theta, y, q, params):
    """Fenchel-Young alpha-divergence loss and its gradient p - y.

    The one-row case of fy_loss_batch.
    """
    theta, q, p, tau = _solve_row(theta, q, params, [y])
    P = p[None]
    values = _fy_values(theta[None], [y], q[None], P, np.array([tau]), params.alpha)
    return _row_output(values, P, y)


def fy_loss_batch(Theta, ys, Q, params):
    """Row-wise fy_loss. Returns (values (B,), grads (B,k), posteriors (B,k))."""
    Theta, ys, _ = _checked_rows(Theta, ys)
    values, P = _fy_rows(Theta, ys, _checked_measure(Q, Theta.shape), params)
    return values, _minus_targets(P, ys), P


def arcface_margin_derivative(cy, m):
    """d cos(arccos(c) + m) / dc = sin(psi + m) / sin(psi), psi = arccos(c)."""
    cy = np.clip(cy, -1.0 + _ACOS_EPS, 1.0 - _ACOS_EPS)
    psi = np.arccos(cy)
    return np.sin(psi + m) / np.sin(psi)


def _margin_row(c, y, cfg, modes):
    """margin_logits of one checked cosine row c with target y, for the given modes."""
    if cfg.mode not in modes:
        raise ValueError(f"expected mode {' or '.join(map(repr, modes))}, got {cfg.mode!r}")
    Theta, Q = margin_logits(_logit_row(c), [y], cfg)
    return Theta[0], None if Q is None else Q[0]


def q_margin_loss(c, y, cfg, params):
    """Margin in the reference measure: fy_loss(s*c, y, q_margin measure)."""
    _refuse_overflow(cfg, params)
    theta, q = _margin_row(c, y, cfg, ("q_margin",))
    return fy_loss(theta, y, q, params)


def a3m_loss(c, y, cfg, params):
    """Geometric angular margin on the logits with a uniform reference measure."""
    theta, q = _margin_row(c, y, cfg, ("a3m",))
    return fy_loss(theta, y, q, params)


def baseline_ce_loss(c, y, cfg):
    """CosFace/ArcFace cross-entropy over softargmax of margin-modified cosines."""
    theta, _ = _margin_row(c, y, cfg, ("cosface", "arcface"))
    return _row_output(*_ce_rows(theta[None], [y]), y)


def batch_posteriors(C, ys, cfg, params):
    """Posterior matrix (B, k) for the configured loss at cosine matrix C."""
    _refuse_overflow(cfg, params)
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
    _refuse_overflow(cfg, params)
    Theta, Q = margin_logits(C, ys, cfg)  # the one check of this batch
    values, P = _ce_rows(Theta, ys) if Q is None else _fy_rows(Theta, ys, Q, params)
    dC = cfg.scale * _minus_targets(P, ys)
    if cfg.mode in ("a3m", "arcface"):
        rows = np.arange(len(ys))
        cy = np.asarray(C, dtype=np.float64)[rows, ys]
        dC[rows, ys] *= arcface_margin_derivative(cy, cfg.margin)
    return values, dC, P
