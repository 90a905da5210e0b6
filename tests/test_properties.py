"""Every config that MarginConfig, AlphaParams and TrainConfig accept gives, at
any cosine batch, a valid posterior or a typed error: a SolverError, or the
ValueError of a refused config. pyproject.toml turns RuntimeWarning into an
error, so an overflow or an invalid operation fails the test."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from alphamargin.core import AlphaParams, SolverError
from alphamargin.losses import (
    MODES,
    AnnealSchedule,
    MarginConfig,
    a3m_loss,
    baseline_ce_loss,
    batch_loss_and_cosine_grad,
    batch_posteriors,
    margin_logits,
    q_margin_loss,
)
from alphamargin.trainer import TrainConfig

from conftest import cosine_grad_dense_reference

SCALAR_TWIN = {
    "q_margin": lambda c, y, cfg, a: q_margin_loss(c, y, cfg, a),
    "a3m": lambda c, y, cfg, a: a3m_loss(c, y, cfg, a),
    "cosface": lambda c, y, cfg, a: baseline_ce_loss(c, y, cfg),
    "arcface": lambda c, y, cfg, a: baseline_ce_loss(c, y, cfg),
}

# TrainConfig checks the margin of the last epoch; at the full margin of an
# unfinished ramp the loss entries may refuse the config themselves
_OVERFLOW = "needs (alpha-1)*scale*margin <= ln(max double)"


def _output(call):
    """call(), or None where it raises a SolverError or the overflow refusal."""
    try:
        return call()
    except SolverError:
        return None
    except ValueError as exc:
        if _OVERFLOW not in str(exc):
            raise
        return None


@st.composite
def configs(draw):
    """(MarginConfig, AlphaParams, TrainConfig) with alpha in (1, 5], or the
    ValueError one of them raises."""
    start = draw(st.integers(0, 30))
    anneal = draw(st.none() | st.builds(AnnealSchedule, st.just(start), st.integers(start + 1, 40)))
    try:
        cfg = MarginConfig(
            scale=draw(st.floats(0.0, np.finfo(np.float64).max, exclude_min=True)),
            margin=draw(st.floats(0.0, 1.0, exclude_max=True)),
            mode=draw(st.sampled_from(MODES)),
            anneal=anneal,
        )
        params = AlphaParams(
            draw(st.floats(1.0, 5.0, exclude_min=True)),
            bisect_tol=draw(st.floats(0.0, np.finfo(np.float64).max, exclude_min=True)),
            max_iters=draw(st.integers(1, 300)),
        )
        TrainConfig(
            epochs=draw(st.integers(0, 40)),
            batch_size=128,
            lr_schedule=[(1, 0.1)],
            loss=cfg,
            alpha=params,
        )
    except ValueError as exc:
        return exc
    return cfg, params


@st.composite
def batches(draw):
    """Cosines C (B, k) in [-1, 1] and labels ys (B,)."""
    B, k = draw(st.integers(1, 6)), draw(st.integers(2, 40))
    C = draw(arrays(np.float64, (B, k), elements=st.floats(-1.0, 1.0)))
    ys = draw(arrays(np.int64, B, elements=st.integers(0, k - 1)))
    return C, ys


def _check_posteriors(P, C, ys, cfg):
    """Finite rows of P >= 0 that sum to 1 within 1e-8. In the alpha modes the
    non-target weights are 1, so p_j grows with theta_j there, and a non-target
    class holds mass whenever one with a lower logit does."""
    assert P.shape == C.shape and np.all(np.isfinite(P)) and np.all(P >= 0.0)
    assert np.all(np.abs(P.sum(axis=1) - 1.0) <= 1e-8), P.sum(axis=1)
    if cfg.mode in ("q_margin", "a3m"):
        Theta, _ = margin_logits(C, ys, cfg)
        other = np.arange(C.shape[1]) != ys[:, None]
        lowest = np.where(other & (P > 0.0), Theta, np.inf).min(axis=1)
        assert np.all((P > 0.0) | ~other | (Theta < lowest[:, None]))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(config=configs(), batch=batches())
@example(  # TrainConfig accepts it for 1 epoch (margin 0.0018); the full margin overflows
    config=(
        MarginConfig(400.0, 0.9, "q_margin", AnnealSchedule(0, 40)),
        AlphaParams(3.0),
    ),
    batch=(np.array([[0.5, -0.2, 0.1]]), np.array([1])),
)
def test_a_validated_config_gives_a_posterior_or_a_typed_error(config, batch):
    if isinstance(config, ValueError):
        return  # the config is refused up front
    cfg, params = config
    C, ys = batch
    P = _output(lambda: batch_posteriors(C, ys, cfg, params))
    if P is not None:
        _check_posteriors(P, C, ys, cfg)
    out = _output(lambda: batch_loss_and_cosine_grad(C, ys, cfg, params))
    if out is not None:
        # the same solve as batch_posteriors: its gradient is s * (P - Y) of that P
        assert P is not None and np.array_equal(out[1], cosine_grad_dense_reference(C, ys, cfg, P))
        assert np.all(np.isfinite(out[0])) and np.all(np.isfinite(out[1]))
    for i in range(len(ys)):
        one = _output(lambda: SCALAR_TWIN[cfg.mode](C[i], int(ys[i]), cfg, params))
        if one is not None:
            _check_posteriors(one.posterior.to_dense()[None], C[i : i + 1], ys[i : i + 1], cfg)
