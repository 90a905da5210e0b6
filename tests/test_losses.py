import warnings

import numpy as np
import pytest

from alphamargin.core import AlphaParams
from alphamargin.losses import (
    AnnealSchedule,
    MarginConfig,
    a3m_loss,
    apply_arcface_margin,
    apply_cosface_margin,
    baseline_ce_loss,
    batch_loss_and_cosine_grad,
    batch_posteriors,
    build_q_margin_measure,
    fy_loss,
    q_margin_loss,
)

from conftest import (
    central_diff,
    cosface_recovery_draws,
    cross_entropy_oracle,
    fy_loss_reference,
)

A2 = AlphaParams(2.0)


def brute_force_softmax_f(theta, q, alpha, grid=2_000_001):
    """Dense grid maximization of <p, theta> - D_f(p:q) over the 2-simplex."""
    t = np.linspace(0.0, 1.0, grid)
    P = np.stack([t, 1.0 - t], axis=1)
    U = P / q
    f = ((U**alpha - 1.0) - alpha * (U - 1.0)) / (alpha * (alpha - 1.0))
    obj = P @ theta - (q * f).sum(axis=1)
    return obj.max()


class TestMarginConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MarginConfig(scale=-1.0, margin=0.1, mode="q_margin")
        with pytest.raises(ValueError):
            MarginConfig(scale=1.0, margin=1.0, mode="q_margin")
        with pytest.raises(ValueError):
            MarginConfig(scale=1.0, margin=0.1, mode="bogus")
        with pytest.raises(ValueError):
            AnnealSchedule(start_epoch=5, end_epoch=5)

    def test_q_margin_rejects_a_target_weight_below_the_normal_range(self):
        # exp(-s*m) must be a normal double: s*m <= -ln(tiny) ~ 708.3964
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="scale\\*margin"):
                MarginConfig(scale=1600.0, margin=0.5, mode="q_margin")
            with pytest.raises(ValueError):
                MarginConfig(scale=1416.8, margin=0.5, mode="q_margin")
            cfg = MarginConfig(scale=1416.0, margin=0.5, mode="q_margin")
            assert build_q_margin_measure(0, 2, cfg)[0] >= np.finfo(np.float64).tiny
            # the measure of the geometric-margin modes does not depend on s*m
            MarginConfig(scale=1600.0, margin=0.5, mode="a3m")


class TestFyLoss:
    def test_worked_example_target_first(self):
        out = fy_loss([0.5, 0.0], 0, [1.0, 1.0], A2)
        assert out.value == pytest.approx(0.0625)
        np.testing.assert_allclose(out.grad_logits, [-0.25, 0.25], atol=1e-9)

    def test_worked_example_target_second(self):
        out = fy_loss([0.5, 0.0], 1, [1.0, 1.0], A2)
        assert out.value == pytest.approx(0.5625)
        np.testing.assert_allclose(out.grad_logits, [0.75, -0.75], atol=1e-9)

    def test_vanishes_at_large_gap(self):
        out = fy_loss([5.0, 0.0, 0.0], 0, np.ones(3), A2)
        assert out.value == pytest.approx(0.0, abs=1e-10)
        np.testing.assert_allclose(out.grad_logits, 0.0, atol=1e-10)
        assert out.posterior.nnz == 1

    def test_index_error(self):
        with pytest.raises(IndexError):
            fy_loss([0.5, 0.0], 2, [1.0, 1.0], A2)

    def test_nonnegative_random(self, rng):
        for _ in range(200):
            k = int(rng.integers(2, 30))
            theta = rng.uniform(-8, 8, k)
            q = rng.uniform(0.05, 1.0, k)
            y = int(rng.integers(k))
            a = AlphaParams(float(rng.choice([1.1, 1.5, 2.0])))
            assert fy_loss(theta, y, q, a).value >= -1e-10

    def test_gradient_sums_to_zero(self, rng):
        for _ in range(50):
            k = int(rng.integers(2, 20))
            out = fy_loss(rng.uniform(-5, 5, k), int(rng.integers(k)), rng.uniform(0.1, 1, k), A2)
            assert abs(out.grad_logits.sum()) <= 1e-8


class TestQMarginMeasure:
    def test_face_style_hyperparameters(self):
        q = build_q_margin_measure(1, 3, MarginConfig(scale=32, margin=0.2, mode="q_margin"))
        np.testing.assert_allclose(q, [1.0, np.exp(-6.4), 1.0])

    def test_margin_off(self):
        q = build_q_margin_measure(0, 4, MarginConfig(scale=32, margin=0.0, mode="q_margin"))
        np.testing.assert_array_equal(q, np.ones(4))

    def test_speaker_style_hyperparameters(self):
        q = build_q_margin_measure(0, 2, MarginConfig(scale=10, margin=0.1, mode="q_margin"))
        np.testing.assert_allclose(q, [np.exp(-1.0), 1.0])


class TestQMarginLoss:
    def test_zero_margin_reduces_to_uniform_fy(self):
        cfg = MarginConfig(scale=4.0, margin=0.0, mode="q_margin")
        c = np.array([0.3, -0.1, 0.4])
        out = q_margin_loss(c, 1, cfg, A2)
        ref = fy_loss(4.0 * c, 1, np.ones(3), A2)
        assert out.value == pytest.approx(ref.value)

    def test_cosface_limit_at_moderate_config(self, rng):
        a = AlphaParams(1.0 + 1e-3)
        for _ in range(50):
            k = int(rng.integers(2, 12))
            c = rng.uniform(-1, 1, k)
            y = int(rng.integers(k))
            s, m = 8.0, 0.2
            cfg = MarginConfig(scale=s, margin=m, mode="q_margin")
            theta = s * c
            theta[y] -= s * m
            ce = cross_entropy_oracle(theta, y)
            out = q_margin_loss(c, y, cfg, a)
            assert abs(out.value - ce) / (1.0 + ce) <= 1e-2

    def test_matches_high_precision_reference_on_3b_draws(self):
        # the 3b draws whose gap to CosFace at alpha = 1+1e-3 exceeds 1e-2;
        # the gap is the loss's own, so the solver must still match exactly
        pytest.importorskip("mpmath")
        wide_gap = {73, 231, 361, 459, 479, 494, 611, 753, 761, 775, 779, 981, 987, 990}
        a = AlphaParams(1.0 + 1e-3)
        for i, (k, c, y, s, m) in enumerate(cosface_recovery_draws()):
            if i not in wide_gap:
                continue
            cfg = MarginConfig(scale=s, margin=m, mode="q_margin")
            ref = fy_loss_reference(s * c, y, build_q_margin_measure(y, k, cfg), a.alpha)
            assert q_margin_loss(c, y, cfg, a).value == pytest.approx(ref, rel=0, abs=1e-8), i

    def test_against_brute_force_grid(self):
        c = np.array([0.9, 0.1])
        cfg = MarginConfig(scale=2.0, margin=0.5, mode="q_margin")
        out = q_margin_loss(c, 0, cfg, A2)
        theta = cfg.scale * c
        q = build_q_margin_measure(0, 2, cfg)
        yv = np.array([1.0, 0.0])
        u = yv / q
        dfy = float(
            (q * (((u**2 - 1.0) - 2.0 * (u - 1.0)) / 2.0)).sum()
        )
        expected = brute_force_softmax_f(theta, q, 2.0) + dfy - theta[0]
        assert out.value == pytest.approx(expected, abs=1e-4)

    def test_monotone_in_margin(self, rng):
        for _ in range(20):
            k = int(rng.integers(2, 10))
            c = rng.uniform(-1, 1, k)
            y = int(rng.integers(k))
            values = [
                q_margin_loss(c, y, MarginConfig(scale=10.0, margin=m, mode="q_margin"), A2).value
                for m in np.linspace(0.0, 0.6, 7)
            ]
            assert np.all(np.diff(values) >= -1e-10)

    def test_wrong_mode_rejected(self):
        with pytest.raises(ValueError):
            q_margin_loss([0.5, 0.0], 0, MarginConfig(scale=1, margin=0.1, mode="a3m"), A2)


class TestGeometricMargins:
    def test_arcface_values(self):
        c = apply_arcface_margin([0.5, 0.2], 0, 0.5)
        assert c[0] == pytest.approx(np.cos(np.arccos(0.5) + 0.5), abs=1e-6)
        assert c[0] == pytest.approx(0.0236, abs=1e-3)
        assert c[1] == 0.2

    def test_arcface_zero_margin_identity(self):
        c = np.array([0.7, -0.3])
        np.testing.assert_allclose(apply_arcface_margin(c, 0, 0.0), c, atol=1e-6)

    def test_arcface_boundary_cosine(self):
        c = apply_arcface_margin([1.0, 0.0], 0, 0.5)
        assert c[0] == pytest.approx(np.cos(0.5), abs=1e-3)

    def test_cosface_values(self):
        c = apply_cosface_margin([0.9, 0.1], 0, 0.5)
        np.testing.assert_allclose(c, [0.4, 0.1])
        np.testing.assert_allclose(apply_cosface_margin([0.9, 0.1], 0, 0.0), [0.9, 0.1])


class TestBaselineCE:
    def test_two_class_closed_form(self):
        cfg = MarginConfig(scale=2.0, margin=0.5, mode="cosface")
        out = baseline_ce_loss([0.9, 0.1], 0, cfg)
        assert out.value == pytest.approx(np.log(1.0 + np.exp(-0.6)))
        assert out.value == pytest.approx(0.4375, abs=1e-3)

    def test_uniform_cosines_log_k(self):
        k = 7
        cfg = MarginConfig(scale=3.0, margin=0.0, mode="cosface")
        out = baseline_ce_loss(np.full(k, 0.4), 2, cfg)
        assert out.value == pytest.approx(np.log(k))

    def test_arcface_argmax_preserved(self):
        cfg = MarginConfig(scale=8.0, margin=0.0, mode="arcface")
        c = np.array([0.2, 1.0, -0.5])
        values = [baseline_ce_loss(c, y, cfg).value for y in range(3)]
        assert np.argmin(values) == 1

    def test_gradient_sums_to_zero(self):
        cfg = MarginConfig(scale=16.0, margin=0.3, mode="arcface")
        out = baseline_ce_loss([0.5, 0.2, -0.4], 1, cfg)
        assert abs(out.grad_logits.sum()) <= 1e-12


class TestA3MLoss:
    def test_zero_margin_is_plain_fy(self):
        c = np.array([0.6, -0.2, 0.1])
        cfg = MarginConfig(scale=12.0, margin=0.0, mode="a3m")
        out = a3m_loss(c, 0, cfg, A2)
        ref = fy_loss(12.0 * c, 0, np.ones(3), A2)
        assert out.value == pytest.approx(ref.value, abs=1e-9)

    def test_margin_can_zero_the_target_posterior(self):
        # the geometric margin pushes the target logit below the clip
        c = np.array([0.2, 0.9, 0.9])
        cfg = MarginConfig(scale=64.0, margin=0.5, mode="a3m")
        out = a3m_loss(c, 0, cfg, AlphaParams(1.25))
        assert out.posterior.prob(0) == 0.0

    def test_gradient_sums_to_zero(self, rng):
        cfg = MarginConfig(scale=10.0, margin=0.3, mode="a3m")
        for _ in range(20):
            c = rng.uniform(-0.9, 0.9, 5)
            out = a3m_loss(c, int(rng.integers(5)), cfg, AlphaParams(1.5))
            assert abs(out.grad_logits.sum()) <= 1e-8


class TestGradLogitsFiniteDifference:
    """Analytic grad_logits vs central differences, away from clip kinks."""

    def test_all_modes(self, rng):
        # perturb the logits that enter the divergence/CE directly
        a = AlphaParams(1.5, bisect_tol=1e-14)

        def near_kink(theta, q, params):
            from alphamargin.core import root_find_tau

            tau = root_find_tau(theta, q, params)
            return np.min(np.abs(theta - tau + 1.0 / (params.alpha - 1.0))) < 1e-2

        for mode in ("q_margin", "a3m", "cosface", "arcface"):
            cfg = MarginConfig(scale=6.0, margin=0.2, mode=mode)
            checked = 0
            while checked < 10:
                k = int(rng.integers(3, 8))
                c = rng.uniform(-0.9, 0.9, k)
                y = int(rng.integers(k))
                if mode == "q_margin":
                    from alphamargin.losses import build_q_margin_measure

                    q = build_q_margin_measure(y, k, cfg)
                    theta = cfg.scale * c
                    if near_kink(theta, q, a):
                        continue
                    out = fy_loss(theta, y, q, a)
                    fn = lambda t: fy_loss(t, y, q, a).value
                elif mode == "a3m":
                    q = np.ones(k)
                    theta = cfg.scale * apply_arcface_margin(c, y, cfg.margin)
                    if near_kink(theta, q, a):
                        continue
                    out = fy_loss(theta, y, q, a)
                    fn = lambda t: fy_loss(t, y, q, a).value
                else:
                    apply = apply_cosface_margin if mode == "cosface" else apply_arcface_margin
                    theta = cfg.scale * apply(c, y, cfg.margin)
                    out = baseline_ce_loss(c, y, cfg)
                    fn = lambda t: cross_entropy_oracle(t, y)
                for i in range(k):
                    num = central_diff(fn, theta, i)
                    assert num == pytest.approx(out.grad_logits[i], rel=1e-4, abs=1e-6)
                checked += 1


class TestBatchHelpers:
    def test_batch_matches_scalar_losses(self, rng):
        a = AlphaParams(1.25)
        for mode in ("q_margin", "a3m", "cosface", "arcface"):
            cfg = MarginConfig(scale=16.0, margin=0.2, mode=mode)
            C = rng.uniform(-0.9, 0.9, (8, 6))
            ys = rng.integers(6, size=8)
            values, dC, P = batch_loss_and_cosine_grad(C, ys, cfg, a)
            for i in range(8):
                if mode == "q_margin":
                    ref = q_margin_loss(C[i], int(ys[i]), cfg, a)
                elif mode == "a3m":
                    ref = a3m_loss(C[i], int(ys[i]), cfg, a)
                else:
                    ref = baseline_ce_loss(C[i], int(ys[i]), cfg)
                assert values[i] == pytest.approx(ref.value, abs=1e-9)
                np.testing.assert_allclose(P[i], ref.posterior.to_dense(), atol=1e-9)

    def test_batch_posteriors_row_sums(self, rng):
        a = AlphaParams(1.5)
        for mode in ("q_margin", "a3m", "cosface"):
            cfg = MarginConfig(scale=12.0, margin=0.2, mode=mode)
            C = rng.uniform(-0.9, 0.9, (16, 10))
            ys = rng.integers(10, size=16)
            P = batch_posteriors(C, ys, cfg, a)
            np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-8)
