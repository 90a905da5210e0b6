import warnings

import numpy as np
import pytest

from alphamargin import backend, core, losses, trainer
from alphamargin.core import AlphaParams, alpha_softargmax, alpha_softmax, divergence, root_find_tau
from alphamargin.losses import (
    MODES,
    AnnealSchedule,
    MarginConfig,
    a3m_loss,
    baseline_ce_loss,
    batch_loss_and_cosine_grad,
    batch_posteriors,
    fy_loss,
    fy_loss_batch,
    margin_logits,
    q_margin_loss,
)
from alphamargin.synthdata import SynthSpec, generate

from conftest import (
    ce_rows_dense_reference,
    central_diff,
    cosface_recovery_draws,
    cosine_grad_dense_reference,
    cross_entropy_oracle,
    fy_loss_reference,
    loss_and_cosine_grad_dense_reference,
    traced_peak,
)

A2 = AlphaParams(2.0)


_BAD_WEIGHT = "reference measure weights must be finite and > 0"
_OBJECT_LABELS = "class indices must be integers, got labels of dtype object"

# the entries that take a reference measure, and those that take no label
_MEASURED = {"fy_loss", "fy_loss_batch", "alpha_softargmax", "root_find_tau", "alpha_softmax"}
_UNLABELLED = {"alpha_softargmax", "root_find_tau", "alpha_softmax"}


def _cfg(mode, scale):
    return MarginConfig(scale=scale, margin=0.2, mode=mode)


def _batch_twins(C, ys, Q, params, scale):
    """The batch entries at cosine rows C with labels ys: fy_loss_batch at
    logits scale * C and measure Q, and batch_posteriors and
    batch_loss_and_cosine_grad in every mode."""
    calls = {"fy_loss_batch": lambda: fy_loss_batch(scale * np.asarray(C), ys, Q, params)}
    for mode in MODES:
        cfg = _cfg(mode, scale)
        calls[f"batch_posteriors/{mode}"] = lambda cfg=cfg: batch_posteriors(C, ys, cfg, params)
        calls[f"batch_loss_and_cosine_grad/{mode}"] = (
            lambda cfg=cfg: batch_loss_and_cosine_grad(C, ys, cfg, params)
        )
    return calls


def _outcomes(calls):
    """{name: (exception type, message)} of calls that must each raise."""
    outcomes = {}
    for name, call in calls.items():
        with pytest.raises(Exception) as info:
            call()
        outcomes[name] = (type(info.value), str(info.value))
    return outcomes


def one_row(c, y, cfg):
    """margin_logits of one cosine row: (theta, q), with the dense measure q
    built from its target weight, q None for the CE modes."""
    Theta, q_y = margin_logits([c], [y], cfg)
    if q_y is None:
        return Theta[0], None
    q = np.ones(Theta.shape[1])
    q[y] = q_y[0]
    return Theta[0], q


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

    @pytest.mark.parametrize("scale", [np.inf, np.nan])
    def test_scale_must_be_finite(self, scale):
        with pytest.raises(ValueError, match="scale must be finite"):
            MarginConfig(scale=scale, margin=0.1, mode="cosface")

    @pytest.mark.parametrize("mode", MODES)
    def test_the_largest_scale_keeps_the_losses_in_doubles(self, mode):
        # a scale near max double overflowed the loss value or the gradient
        # (a3m's target gradient is about 2236*s at the arccos guard band)
        with pytest.raises(ValueError, match="<= 1e300, got 1.0000000000000002e\\+300"):
            MarginConfig(scale=np.nextafter(1e300, np.inf), margin=0.5, mode=mode)
        if mode == "q_margin":
            return  # its target weight exp(-s*m) needs s*m <= 708.4
        cfg = MarginConfig(scale=1e300, margin=0.5, mode=mode)
        C = np.array([[1.0, 1.0, -1.0], [-1.0, 1.0, 0.3]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, dC = batch_loss_and_cosine_grad(C, [0, 0], cfg, AlphaParams(5.0))
        assert np.all(np.isfinite(values)) and np.all(np.isfinite(dC))
        assert np.abs(dC).max() > 1e303 or mode == "cosface"

    def test_q_margin_rejects_a_target_weight_below_the_normal_range(self):
        # exp(-s*m) must be a normal double: s*m <= -ln(tiny) ~ 708.3964
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="scale\\*margin"):
                MarginConfig(scale=1600.0, margin=0.5, mode="q_margin")
            with pytest.raises(ValueError):
                MarginConfig(scale=1416.8, margin=0.5, mode="q_margin")
            cfg = MarginConfig(scale=1416.0, margin=0.5, mode="q_margin")
            assert one_row([0.5, 0.1], 0, cfg)[1][0] >= np.finfo(np.float64).tiny
            # the measure of the geometric-margin modes does not depend on s*m
            MarginConfig(scale=1600.0, margin=0.5, mode="a3m")

    @pytest.mark.filterwarnings("error")
    def test_q_margin_near_the_normal_range_gives_a_valid_posterior(self):
        # s*m = 693 puts q_y at 1e-301 and the lower bracket end near -7e75,
        # which the old bisection's absolute width never closed
        cfg = MarginConfig(scale=1386.0, margin=0.5, mode="q_margin")
        a = AlphaParams(1.25)
        c = np.array([0.3, 0.9, -0.2, 0.5])
        for y in range(4):
            out = q_margin_loss(c, y, cfg, a)
            p = out.posterior.to_dense()
            assert abs(p.sum() - 1.0) <= 1e-12 and np.isfinite(out.value)
        C = np.tile(c, (4, 1))
        values, _ = batch_loss_and_cosine_grad(C, np.arange(4), cfg, a)
        P = batch_posteriors(C, np.arange(4), cfg, a)
        assert np.abs(P.sum(axis=1) - 1.0).max() <= 1e-12 and np.all(np.isfinite(values))


_OVERFLOW = (
    "q_margin at alpha=3.0 needs (alpha-1)*scale*margin <= ln(max double) = 709.7827, so "
    "that the loss constant is finite; got 720.0"
)


class TestOverflowingLossConstant:
    """At (alpha-1)*s*m > ln(max double), f'(1/q_y) = expm1((alpha-1)*s*m)/(alpha-1)
    overflows in the solver's bracket and in the loss constant."""

    @pytest.mark.filterwarnings("error")
    def test_entries_and_their_scalar_twin_refuse_it(self):
        # it used to raise "bracket [-inf, ...] is not finite" or an overflow warning
        cfg, a = MarginConfig(scale=400.0, margin=0.9, mode="q_margin"), AlphaParams(3.0)
        C, ys = np.array([[0.9, 0.1, -0.2], [0.1, 0.9, 0.0]]), [0, 2]
        calls = {"q_margin_loss": lambda: q_margin_loss(C[0], 0, cfg, a)}
        for B in (1, 2):
            for entry in (batch_loss_and_cosine_grad, batch_posteriors):
                calls[entry.__name__, B] = lambda e=entry, B=B: e(C[:B], ys[:B], cfg, a)
        assert _outcomes(calls) == {name: (ValueError, _OVERFLOW) for name in calls}

    @pytest.mark.filterwarnings("error")
    def test_the_bound_is_the_first_scale_whose_loss_constant_overflows(self):
        # bisect over doubles for the last scale the check lets through
        a, C = AlphaParams(3.0), np.array([[0.9, 0.1, -0.2]])

        def cfg(s):
            return MarginConfig(scale=s, margin=0.9, mode="q_margin")

        lo, hi = 300.0, 500.0
        while np.nextafter(lo, hi) != hi:
            mid = 0.5 * (lo + hi)
            try:
                batch_posteriors(C, [0], cfg(mid), a)
                lo = mid
            except ValueError:
                hi = mid
        assert 2.0 * hi * 0.9 == pytest.approx(np.log(np.finfo(np.float64).max), rel=1e-15)
        # f'(1/q_y) overflows at hi and not one double below; the bracket's
        # lower end is the largest off-target logit at both, so it stays finite
        for s, constant_finite in ((hi, False), (lo, True)):
            Theta, q_y = margin_logits(C, [0], cfg(s))
            with np.errstate(over="ignore"):
                constant = backend.f_prime_inv(np.log(q_y), a.alpha)
                bracket = backend._bracket(Theta, q_y, a.alpha, np.array([0]))
            assert np.isfinite(constant[0]) == constant_finite and np.all(np.isfinite(bracket)), s
        # one double below, the loss and the posterior are finite
        values, _ = batch_loss_and_cosine_grad(C, [0], cfg(lo), a)
        P = batch_posteriors(C, [0], cfg(lo), a)
        assert np.isfinite(values[0]) and abs(P.sum() - 1.0) <= 1e-8
        assert q_margin_loss(C[0], 0, cfg(lo), a).value == values[0]


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

    @pytest.mark.parametrize(
        "c, y, q, error, message",
        [
            ([0.5], 0, None, ValueError, "logits must be a 1-D vector with k >= 2"),
            ([0.5, 0.1], 2, None, IndexError, "class index 2 out of range for k=2"),
            ([0.5, 0.1], -1, None, IndexError, "class index -1 out of range for k=2"),
            ([0.5, np.nan], 0, None, ValueError, "logits must be finite"),
            ([0.5, 0.1], True, None, IndexError, "class indices must be integers, got True"),
            ([0.5, 0.1], 1.0, None, IndexError, "class indices must be integers, got 1.0"),
            ([0.5, 0.1], None, None, IndexError, _OBJECT_LABELS),
            ([0.5, np.inf], 0, None, ValueError, "logits must be finite"),
            ([0.5, 0.1], 0, [1.0, 0.0], ValueError, _BAD_WEIGHT),
            ([0.5, 0.1], 0, [np.nan, 1.0], ValueError, _BAD_WEIGHT),
            (
                [0.5, 0.1], 0, [1.0, 1.0, 1.0], ValueError,
                "dimension mismatch: weights of shape (1, 3) for logits (1, 2)",
            ),
        ],
        ids=[
            "k=1", "y=k", "y=-1", "nan", "y=True", "y=1.0", "y=None", "inf", "q=0", "q=nan",
            "q-length",
        ],
    )
    def test_scalar_losses_reject_a_bad_row_alike(self, c, y, q, error, message):
        # one check of the (c, y, q) row, before any indexing, for every scalar
        # entry and its B = 1 batch twin; only the container's shape is told
        # apart. A bad label (any y but 0 here) or measure (q given) reaches
        # only the entries that take one.
        measured, q = q is not None, np.ones(len(c)) if q is None else q
        calls = _batch_twins([c], [y], [q], A2, scale=4.0)
        calls["fy_loss"] = lambda: fy_loss(c, y, q, A2)
        for mode, loss in (("q_margin", q_margin_loss), ("a3m", a3m_loss)):
            calls[f"{mode}_loss"] = lambda loss=loss, cfg=_cfg(mode, 4.0): loss(c, y, cfg, A2)
        for mode in ("cosface", "arcface"):
            cfg = _cfg(mode, 4.0)
            calls[f"baseline_ce_loss/{mode}"] = lambda cfg=cfg: baseline_ce_loss(c, y, cfg)
        for call in (alpha_softargmax, root_find_tau, alpha_softmax):
            calls[call.__name__] = lambda call=call: call(c, q, A2)
        if y != 0:
            calls = {name: call for name, call in calls.items() if name not in _UNLABELLED}
        if measured:
            calls = {name: call for name, call in calls.items() if name in _MEASURED}
        batch_text = message.replace("a 1-D vector", "(B, k) rows")
        assert _outcomes(calls) == {
            name: (error, batch_text if "batch" in name else message) for name in calls
        }

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

    @pytest.mark.parametrize("alpha", [1.01, 1.1, 1.25, 1.5, 2.0, 3.0])
    def test_closed_form_value_matches_the_divergences(self, alpha):
        # the batch value is read off the solve; check it against
        # <p, theta> - D_f(p:q) + D_f(y:q) - theta_y summed entry by entry
        r = np.random.default_rng(int(alpha * 100))
        B, k = 200, 40
        Theta = r.uniform(-1, 1, (B, k)) * r.choice([0.5, 4.0, 32.0], size=(B, 1))
        Q = r.uniform(0.05, 2.0, (B, k))
        ys = r.integers(k, size=B)
        Q[np.arange(0, B, 2), ys[::2]] = np.exp(-32.0 * 0.3)
        a = AlphaParams(alpha)
        values, G, P = fy_loss_batch(Theta, ys, Q, a)
        for i in range(B):
            y = np.zeros(k)
            y[ys[i]] = 1.0
            ref = (P[i] @ Theta[i] - divergence(P[i], Q[i], a) + divergence(y, Q[i], a)
                   - Theta[i, ys[i]])
            assert values[i] == pytest.approx(ref, rel=1e-12, abs=1e-12)
            assert np.array_equal(G[i], P[i] - y)
            # the single-vector loss is the one-row batch
            assert fy_loss(Theta[i], int(ys[i]), Q[i], a).value == values[i]


class TestQMarginMeasure:
    def test_face_style_hyperparameters(self):
        _, q = one_row(np.zeros(3), 1, MarginConfig(scale=32, margin=0.2, mode="q_margin"))
        np.testing.assert_allclose(q, [1.0, np.exp(-6.4), 1.0])

    def test_margin_off(self):
        _, q = one_row(np.zeros(4), 0, MarginConfig(scale=32, margin=0.0, mode="q_margin"))
        np.testing.assert_array_equal(q, np.ones(4))

    def test_speaker_style_hyperparameters(self):
        _, q = one_row(np.zeros(2), 0, MarginConfig(scale=10, margin=0.1, mode="q_margin"))
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
            theta, q = one_row(c, y, cfg)
            ref = fy_loss_reference(theta, y, q, a.alpha)
            assert q_margin_loss(c, y, cfg, a).value == pytest.approx(ref, rel=0, abs=1e-8), i

    def test_against_brute_force_grid(self):
        c = np.array([0.9, 0.1])
        cfg = MarginConfig(scale=2.0, margin=0.5, mode="q_margin")
        out = q_margin_loss(c, 0, cfg, A2)
        theta, q = one_row(c, 0, cfg)
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
    """The margin-moved cosines: the logits of margin_logits at scale 1."""

    @staticmethod
    def moved(c, y, m, mode):
        return one_row(c, y, MarginConfig(scale=1.0, margin=m, mode=mode))[0]

    def test_arcface_values(self):
        c = self.moved([0.5, 0.2], 0, 0.5, "arcface")
        assert c[0] == pytest.approx(np.cos(np.arccos(0.5) + 0.5), abs=1e-6)
        assert c[0] == pytest.approx(0.0236, abs=1e-3)
        assert c[1] == 0.2

    def test_arcface_zero_margin_identity(self):
        c = np.array([0.7, -0.3])
        np.testing.assert_allclose(self.moved(c, 0, 0.0, "arcface"), c, atol=1e-6)

    def test_arcface_boundary_cosine(self):
        c = self.moved([1.0, 0.0], 0, 0.5, "arcface")
        assert c[0] == pytest.approx(np.cos(0.5), abs=1e-3)

    def test_cosface_values(self):
        c = self.moved([0.9, 0.1], 0, 0.5, "cosface")
        np.testing.assert_allclose(c, [0.4, 0.1])
        np.testing.assert_allclose(self.moved([0.9, 0.1], 0, 0.0, "cosface"), [0.9, 0.1])


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
                theta, q = one_row(c, y, cfg)
                if mode in ("q_margin", "a3m"):
                    if near_kink(theta, q, a):
                        continue
                    out = fy_loss(theta, y, q, a)
                    fn = lambda t: fy_loss(t, y, q, a).value
                else:
                    out = baseline_ce_loss(c, y, cfg)
                    fn = lambda t: cross_entropy_oracle(t, y)
                for i in range(k):
                    num = central_diff(fn, theta, i)
                    assert num == pytest.approx(out.grad_logits[i], rel=1e-4, abs=1e-6)
                checked += 1


_PER_ROW = "expected one class index per row (2 rows)"


class TestBatchHelpers:
    def test_batch_matches_scalar_losses(self, rng):
        # the scalar losses are one-row views of the batch path, bit for bit
        a = AlphaParams(1.25)
        for mode in ("q_margin", "a3m", "cosface", "arcface"):
            cfg = MarginConfig(scale=16.0, margin=0.2, mode=mode)
            for k in (2, 6):
                C = rng.uniform(-0.9, 0.9, (8, k))
                ys = rng.integers(k, size=8)
                # target cosines on the arccos guard band
                C[0, ys[0]], C[1, ys[1]] = 1.0, -1.0
                values, dC = batch_loss_and_cosine_grad(C, ys, cfg, a)
                P = batch_posteriors(C, ys, cfg, a)
                G = P.copy()
                G[np.arange(8), ys] -= 1.0
                for i in range(8):
                    if mode == "q_margin":
                        ref = q_margin_loss(C[i], int(ys[i]), cfg, a)
                    elif mode == "a3m":
                        ref = a3m_loss(C[i], int(ys[i]), cfg, a)
                    else:
                        ref = baseline_ce_loss(C[i], int(ys[i]), cfg)
                    assert values[i] == ref.value, (mode, k, i)
                    assert np.array_equal(P[i], ref.posterior.to_dense()), (mode, k, i)
                    assert np.array_equal(ref.grad_logits, G[i]), (mode, k, i)

    @pytest.mark.parametrize(
        "ys, error, message",
        [
            ([0, -1], IndexError, "class index -1 out of range for k=3"),
            ([3, 0], IndexError, "class index 3 out of range for k=3"),
            ([0, 10**30], IndexError, f"class index {10**30} out of range for k=3"),
            ([0], ValueError, f"{_PER_ROW}, got labels of shape (1,)"),
            ([[0, 1]], ValueError, f"{_PER_ROW}, got labels of shape (1, 2)"),
            ([True, True], IndexError, "class indices must be integers, got True"),
            ([1.0, 1.0], IndexError, "class indices must be integers, got 1.0"),
            (np.array([0, 1], dtype=object), IndexError, _OBJECT_LABELS),
            # no int compares with None: it used to raise Python's TypeError
            (np.array([0, None], dtype=object), IndexError, _OBJECT_LABELS),
        ],
        ids=["y=-1", "y=k", "y=1e30", "short", "2-d", "bool", "float", "object", "None"],
    )
    def test_batch_entry_points_check_labels(self, ys, error, message):
        # a negative label used to pick the last class, a label >= k to raise
        # numpy's own IndexError and bool labels to act as a mask; the scalar
        # losses' check applies
        C = np.array([[0.5, 0.1, -0.2], [0.3, 0.2, 0.1]])
        calls = _batch_twins(C, ys, np.ones_like(C), AlphaParams(1.5), scale=8.0)
        assert _outcomes(calls) == {name: (error, message) for name in calls}

    @pytest.mark.parametrize("weight", [-0.01, 0.0, np.inf, np.nan])
    def test_fy_loss_batch_checks_weights_as_fy_loss(self, weight):
        # a negative weight used to give negative probabilities summing to 1
        theta, q = [1.0, 0.9, 0.0], [1.0, weight, 1.0]
        a = AlphaParams(1.5)
        outcomes = []
        for call in (lambda: fy_loss(theta, 0, q, a), lambda: fy_loss_batch([theta], [0], [q], a)):
            with pytest.raises(Exception) as info:
                call()
            outcomes.append((type(info.value), str(info.value)))
        assert outcomes[0] == outcomes[1] == (
            ValueError, "reference measure weights must be finite and > 0"
        )

    @pytest.mark.parametrize("shape", [(2, 2), (1, 3), (3,), None])
    def test_fy_loss_batch_weights_of_another_shape(self, shape):
        # no measure at all is a measure of shape (), as fy_loss refuses q=None
        Q = None if shape is None else np.ones(shape)
        with pytest.raises(ValueError, match="dimension mismatch"):
            fy_loss_batch(np.zeros((2, 3)), [0, 1], Q, AlphaParams(1.5))

    def test_batch_posteriors_row_sums(self, rng):
        a = AlphaParams(1.5)
        for mode in ("q_margin", "a3m", "cosface"):
            cfg = MarginConfig(scale=12.0, margin=0.2, mode=mode)
            C = rng.uniform(-0.9, 0.9, (16, 10))
            ys = rng.integers(10, size=16)
            P = batch_posteriors(C, ys, cfg, a)
            np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-8)

    def test_a_batch_of_no_rows(self):
        # no rows give empty values, gradients and posteriors: the solver yields no group
        C, ys = np.zeros((0, 3)), np.zeros(0, dtype=np.int64)
        for name, call in _batch_twins(C, ys, np.ones((0, 3)), AlphaParams(1.5), 8.0).items():
            values, *arrays = call() if name.startswith(("fy", "batch_loss")) else (None, call())
            assert values is None or values.shape == (0,), name
            assert [x.shape for x in arrays] == [(0, 3)] * len(arrays), name

    @pytest.mark.parametrize("B, k", [(37, 9), (300, 200)])
    def test_batch_entries_do_not_depend_on_the_layout(self, rng, B, k):
        # the cross-entropy rows used to be summed in the layout of C
        C = rng.uniform(-0.95, 0.95, (B, k))
        ys = rng.integers(k, size=B)
        wide = np.zeros((B, 2 * k))
        wide[:, ::2] = C
        bits = {}
        for layout, view in {"C": C, "F": np.asfortranarray(C), "strided": wide[:, ::2]}.items():
            for name, call in _batch_twins(view, ys, np.ones((B, k)), A2, scale=32.0).items():
                out = call()
                arrays = out if isinstance(out, tuple) else (out,)
                bits[name, layout] = b"".join(x.tobytes() for x in arrays)
        for (name, layout), b in bits.items():
            assert b == bits[name, "C"], (name, layout)

    @pytest.mark.parametrize("mode", MODES)
    def test_a_batch_is_checked_once(self, monkeypatch, rng, mode):
        # batch_loss_and_cosine_grad used to check the q_margin and a3m logits again
        checked = losses._checked_rows
        checks = []

        def counted(*args):
            checks.append(1)
            return checked(*args)

        monkeypatch.setattr(losses, "_checked_rows", counted)
        C = rng.uniform(-0.9, 0.9, (16, 10))
        ys = rng.integers(10, size=16)
        cfg, a = _cfg(mode, 16.0), AlphaParams(1.5)
        for entry in (batch_loss_and_cosine_grad, batch_posteriors):
            checks.clear()
            entry(C, ys, cfg, a)
            assert len(checks) == 1, entry.__name__

    @pytest.mark.parametrize("mode", MODES)
    def test_a_single_row_is_checked_once(self, monkeypatch, rng, mode):
        # q_margin_loss and a3m_loss used to check their row again in fy_loss
        checks, solves = [], []
        for module in (losses, core):
            checked = module._checked_rows
            monkeypatch.setattr(
                module, "_checked_rows", lambda *args, f=checked: checks.append(1) or f(*args)
            )
        posterior = backend.posterior
        monkeypatch.setattr(
            backend, "posterior", lambda *args, **kw: solves.append((args, kw)) or posterior(*args)
        )
        c, cfg, a = rng.uniform(-0.9, 0.9, 10), _cfg(mode, 16.0), AlphaParams(1.5)
        if mode == "q_margin":
            out = q_margin_loss(c, 3, cfg, a)
        elif mode == "a3m":
            out = a3m_loss(c, 3, cfg, a)
        else:
            out = baseline_ce_loss(c, 3, cfg)
        assert len(checks) == 1
        if mode in ("q_margin", "a3m"):
            # one positional call of backend.posterior on the 1-D row
            (args, kw), = solves
            assert not kw and len(args) == 5 and args[0].shape == args[1].shape == (10,)
            assert np.array_equal(args[1] != 1.0, np.arange(10) == 3) or mode == "a3m"
            assert out.posterior.to_dense().tobytes() == posterior(*args)[0].tobytes()
        else:
            assert not solves

    @pytest.mark.parametrize(
        "mode, entry, bound",
        [
            ("q_margin", batch_loss_and_cosine_grad, 2.25),
            ("q_margin", batch_posteriors, 2.25),
            ("a3m", batch_loss_and_cosine_grad, 2.25),
            ("a3m", batch_posteriors, 2.25),
            ("cosface", batch_loss_and_cosine_grad, 1.25),
            ("cosface", batch_posteriors, 1.25),
            ("arcface", batch_loss_and_cosine_grad, 1.25),
            ("arcface", batch_posteriors, 1.25),
        ],
        ids=[
            "q_margin-loss", "q_margin-posteriors", "a3m-loss", "a3m-posteriors",
            "cosface-loss", "cosface-posteriors", "arcface-loss", "arcface-posteriors",
        ],
    )
    def test_peak_in_batch_arrays(self, mode, entry, bound):
        # One (B, k) float64 array is 10.24 MB here, and the caller's cosines
        # are not counted. The q_margin and a3m entries hold the logits and P,
        # which the loss turns into dC in place: 2.01. The cosface and arcface
        # entries write Theta - max, its exp, P and then dC over the logits:
        # 1.0, where the out-of-place softmax held four arrays (4.0).
        peak = _step_peak(entry, mode)
        assert peak <= bound, peak

    @pytest.mark.parametrize("entry", [batch_loss_and_cosine_grad, batch_posteriors])
    @pytest.mark.parametrize("mode", ["q_margin", "a3m"])
    def test_peak_when_every_target_is_the_argmax(self, mode, entry):
        # _bracket copies the rows whose argmax is the target; P is allocated
        # after that copy is freed, so a trained batch peaks at the logits and
        # P too (2.01), where the copy on top of P made 3.0
        peak = _step_peak(entry, mode, pull=50.0)
        assert peak <= 2.25, peak


def _step_peak(entry, mode, pull=2.0):
    """The traced peak of entry at B=128 rows of k=10^4 cosines, alpha=1.25, in (B, k) arrays,
    with embeddings pulled towards their prototypes by pull (50: every target is the argmax)."""
    B, k, d = 128, 10_000, 16
    rng = np.random.default_rng(5)
    W = rng.normal(size=(k, d))
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    ys = rng.integers(k, size=B)
    # embeddings near their prototypes, as in training
    E = rng.normal(size=(B, d)) + pull * W[ys]
    E /= np.linalg.norm(E, axis=1, keepdims=True)
    C = E @ W.T
    _, peak = traced_peak(entry, C, ys, _cfg(mode, 32.0), AlphaParams(1.25))
    return peak / (B * k * 8)


class TestCeRowsMatchDense:
    """The cosface and arcface values, posteriors and gradients, computed over the logits
    in place, against the out-of-place softmax on the same logits: bitwise, and the
    caller's cosines untouched."""

    @pytest.mark.parametrize("scale", [32.0, 2000.0], ids=["s32", "underflow"])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("k", [2, 200])
    @pytest.mark.parametrize("B", [1, 7, 300])
    @pytest.mark.parametrize("mode", ["cosface", "arcface"])
    def test_bitwise_and_input_safe(self, mode, B, k, order, scale):
        rng = np.random.default_rng([B, k, int(scale)])
        C = np.asarray(rng.uniform(-0.9, 0.9, (B, k)), order=order)
        ys = rng.integers(k, size=B)
        cfg, params = _cfg(mode, scale), AlphaParams(1.5)
        before = C.copy()

        Theta, _ = margin_logits(np.array(C, order="C"), ys, cfg)  # on a copy of C
        ref_values, ref_P = ce_rows_dense_reference(Theta, ys)
        ref_dC = cosine_grad_dense_reference(C, ys, cfg, ref_P)
        if scale > 32.0 and k > 2:
            assert np.any(ref_P == 0.0)  # exp underflows to exact zeros

        values, dC = batch_loss_and_cosine_grad(C, ys, cfg, params)
        P = batch_posteriors(C, ys, cfg, params)
        assert values.tobytes() == ref_values.tobytes()
        assert P.tobytes() == ref_P.tobytes()
        assert dC.tobytes() == ref_dC.tobytes()
        out = baseline_ce_loss(C[0], ys[0], cfg)
        ref_grad = ref_P[0].copy()
        ref_grad[ys[0]] -= 1.0
        assert out.value == ref_values[0]
        assert out.posterior.to_dense().tobytes() == ref_P[0].tobytes()
        assert out.grad_logits.tobytes() == ref_grad.tobytes()
        assert C.tobytes() == before.tobytes()


class TestStepMatchesDense:
    """The q_margin and a3m loss and gradient, with dC written over P and <p, theta> as
    row dots, against the formulas through P * Theta and a copy P - Y on the same solve:
    gradients bitwise, values to 1e-12."""

    @staticmethod
    def _cosines(rng, B, k):
        C = rng.uniform(-0.9, 0.9, (B, k))
        ys = rng.integers(k, size=B)
        # target cosines on the arccos guard band; -1 clips the target at s=32
        for i, c in enumerate((-1.0, 1.0, 1.0 - 1e-9, -1.0 + 1e-9)[:B]):
            C[i, ys[i]] = c
        return C, ys

    @pytest.mark.parametrize("B", [1, 7, 300])
    @pytest.mark.parametrize("alpha", [1.25, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("mode", ["q_margin", "a3m"])
    def test_batch_loss_and_cosine_grad(self, monkeypatch, mode, alpha, B):
        rng = np.random.default_rng([B, int(4 * alpha)])
        C, ys = self._cosines(rng, B, 40)
        params, groups = AlphaParams(alpha), []
        sweep = backend._sweep
        monkeypatch.setattr(backend, "_sweep", lambda g, *a: groups.append(1) or sweep(g, *a))
        # every column is a candidate at the second scale: 300 rows make two sweep groups
        for scale in (32.0, 0.45 / (alpha - 1.0)):
            cfg = MarginConfig(scale=scale, margin=0.35, mode=mode)
            groups.clear()
            values, dC = batch_loss_and_cosine_grad(C, ys, cfg, params)
            assert len(groups) == (2 if B == 300 and scale < 32.0 else 1)
            ref_values, ref_dC = loss_and_cosine_grad_dense_reference(C, ys, cfg, params)
            assert dC.tobytes() == ref_dC.tobytes(), scale
            np.testing.assert_allclose(values, ref_values, rtol=1e-12, atol=0.0)
            if scale == 32.0:
                assert batch_posteriors(C[:1], ys[:1], cfg, params)[0, ys[0]] == 0.0

    @pytest.mark.parametrize("B", [1, 7, 300])
    @pytest.mark.parametrize("alpha", [1.25, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("mode", ["q_margin", "a3m"])
    def test_loss_and_grads(self, monkeypatch, mode, alpha, B):
        ds = generate(SynthSpec(k=40, d=6, samples_per_id=8, noise_kappa=15.0, seed=B))
        model = trainer.init_model(ds.d, 8, ds.d, ds.k, np.random.default_rng(int(4 * alpha)))
        cfg, params = MarginConfig(scale=32.0, margin=0.35, mode=mode), AlphaParams(alpha)
        idx = np.random.default_rng(B).permutation(ds.n)[:B]
        X, ys = ds.points[idx], ds.labels[idx]
        loss, grads = trainer.loss_and_grads(model, X, ys, cfg, params)
        dense = loss_and_cosine_grad_dense_reference
        monkeypatch.setattr(trainer, "batch_loss_and_cosine_grad", dense)
        ref_loss, ref_grads = trainer.loss_and_grads(model, X, ys, cfg, params)
        assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0.0)
        for name, g in grads.items():
            assert g.tobytes() == ref_grads[name].tobytes(), name
