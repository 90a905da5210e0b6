import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphamargin import backend
from alphamargin.core import (
    AlphaParams,
    PosteriorDistribution,
    SolverError,
    alpha_softargmax,
    alpha_softmax,
    divergence,
    f_conj_prime,
    f_prime,
    f_value,
    root_find_tau,
)

from conftest import (
    alpha_softmax_reference,
    central_diff,
    softargmax_oracle,
    sparsemax_oracle,
)

A2 = AlphaParams(2.0)


class TestAlphaParams:
    def test_rejects_alpha_at_or_below_one(self):
        with pytest.raises(ValueError):
            AlphaParams(1.0)
        with pytest.raises(ValueError):
            AlphaParams(0.5)

    def test_rejects_bad_tolerances(self):
        with pytest.raises(ValueError):
            AlphaParams(2.0, bisect_tol=0.0)
        with pytest.raises(ValueError):
            AlphaParams(2.0, max_iters=0)


class TestGenerator:
    def test_f_at_one_is_zero(self):
        assert f_value(1.0, A2) == 0.0
        assert f_value(1.0, AlphaParams(1.3)) == 0.0

    def test_f_direct_values(self):
        assert f_value(0.0, A2) == pytest.approx(0.5)
        assert f_value(2.0, A2) == pytest.approx(0.5)

    def test_f_domain_error(self):
        with pytest.raises(ValueError):
            f_value(-0.1, A2)

    def test_f_prime_values(self):
        assert f_prime(1.0, A2) == 0.0
        assert f_prime(1.0, AlphaParams(1.7)) == 0.0
        assert f_prime(4.0, A2) == pytest.approx(3.0)
        assert f_prime(4.0, AlphaParams(1.5)) == pytest.approx(2.0)

    def test_f_prime_domain(self):
        with pytest.raises(ValueError):
            f_prime(0.0, AlphaParams(1.5))
        with pytest.raises(ValueError):
            f_prime(-1.0, A2)
        assert f_prime(0.0, A2) == pytest.approx(-1.0)

    def test_f_prime_increasing(self):
        for a in (1.1, 1.5, 2.0, 3.0):
            u = np.linspace(0.05, 5.0, 50)
            vals = f_prime(u, AlphaParams(a))
            assert np.all(np.diff(vals) > 0)

    def test_f_conj_prime_values(self):
        assert f_conj_prime(0.0, A2) == pytest.approx(1.0)
        assert f_conj_prime(0.0, AlphaParams(1.2)) == pytest.approx(1.0)
        assert f_conj_prime(-2.0, A2) == 0.0
        assert f_conj_prime(0.5, A2) == pytest.approx(1.5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a", [1.25, 1.5, 2.0, 3.0, 10.0])
    def test_f_conj_prime_at_the_ends_of_the_line(self, a):
        # the power 1/(a-1) is positive for every a > 1: inf and -inf map to
        # inf and 0, and a value past the double range to inf, all silently
        mpmath = pytest.importorskip("mpmath")
        p = AlphaParams(a)
        assert f_conj_prime(np.inf, p) == np.inf
        assert f_conj_prime(-np.inf, p) == 0.0
        assert np.isnan(f_conj_prime(np.nan, p))
        with mpmath.workdps(60):
            A = mpmath.mpf(a)
            ref = (1 + (A - 1) * mpmath.mpf(1e300)) ** (1 / (A - 1))
            if ref > np.finfo(np.float64).max:
                assert f_conj_prime(1e300, p) == np.inf
            else:
                assert f_conj_prime(1e300, p) == pytest.approx(float(ref), rel=1e-14)
        got = f_conj_prime(np.array([np.inf, 1e300, -np.inf, np.nan]), p)
        assert got[0] == np.inf and got[2] == 0.0 and np.isnan(got[3])

    def test_conjugate_inverts_derivative(self):
        for a in (1.25, 1.5, 2.0):
            p = AlphaParams(a)
            for u in (0.3, 1.0, 2.5):
                assert f_conj_prime(f_prime(u, p), p) == pytest.approx(u, rel=1e-12)


class TestGeneratorAccuracy:
    def test_against_high_precision_reference(self):
        # f' is expm1((a-1) log u)/(a-1) where |(a-1) log u| < 1 and the
        # direct power beyond, so it keeps its digits from u = 1e-300 to 1e100;
        # f = (u f'(u) - (u - 1))/a, whose cancellation near u = 1 costs about
        # eps/|u - 1| relative: hence the f bound of each band of u
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(14)
        n = 100

        def near_one(lo, hi):  # 1 -+ d, d log-uniform in [10**lo, 10**hi)
            return 1.0 + rng.choice([-1.0, 1.0], n) * 10 ** rng.uniform(lo, hi, n)

        bands = {  # name: (u, bound on f's relative error)
            "1e-9 <= |u-1| < 1e-6": (near_one(-9, -6), 1e-6),
            "1e-6 <= |u-1| <= 1e-2": (near_one(-6, -2), 1e-8),
            "u in [1e-3, 1e3]": (10 ** rng.uniform(-3, 3, n), 1e-13),
            # far from 1, where expm1 would amplify the rounding of log u by (a-1)|log u|;
            # u**a stays finite for every a below
            "u in [1e3, 1e100]": (10 ** rng.uniform(3, 100, n), 1e-15),
            "u in [1e-300, 1e-3]": (10 ** rng.uniform(-300, -3, n), 1e-15),
        }
        with mpmath.workdps(60):
            for a in (1.0001, 1.01, 1.25, 1.5, 2.0, 3.0):
                params = AlphaParams(a)
                A = mpmath.mpf(a)
                for name, (u, bound) in bands.items():
                    worst_fp = worst_f = 0.0
                    for x, fp, f in zip(u, f_prime(u, params), f_value(u, params)):
                        U = mpmath.mpf(float(x))
                        ref_fp = (U ** (A - 1) - 1) / (A - 1)
                        ref_f = ((U**A - 1) - A * (U - 1)) / (A * (A - 1))
                        worst_fp = max(worst_fp, float(abs(mpmath.mpf(float(fp)) / ref_fp - 1)))
                        worst_f = max(worst_f, float(abs(mpmath.mpf(float(f)) / ref_f - 1)))
                    assert worst_fp <= 1e-14, (a, name, worst_fp)
                    assert worst_f <= bound, (a, name, worst_f)


class TestDivergence:
    def test_vertex_against_uniform_measure(self):
        assert divergence([1.0, 0.0], [1.0, 1.0], A2) == pytest.approx(0.5)

    def test_identical_distributions(self):
        assert divergence([0.5, 0.5], [0.5, 0.5], A2) == pytest.approx(0.0)

    def test_interior_point(self):
        assert divergence([0.75, 0.25], [1.0, 1.0], A2) == pytest.approx(0.3125)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            divergence([0.5, 0.5], [1.0, 1.0, 1.0], A2)

    def test_measure_must_be_a_vector(self):
        with pytest.raises(ValueError, match="reference measure must be a 1-D vector"):
            divergence([0.5, 0.5], [[1.0, 1.0]], A2)

    def test_posterior_distribution_is_read_densely(self):
        p = PosteriorDistribution(indices=[2, 0], probs=[0.75, 0.25], k=3)
        q = [1.0, 0.5, 2.0]
        assert divergence(p, q, A2) == divergence([0.25, 0.0, 0.75], q, A2)

    def test_nonnegative_random(self, rng):
        for _ in range(50):
            k = rng.integers(2, 20)
            p = rng.dirichlet(np.ones(k))
            q = rng.uniform(0.1, 2.0, k)
            a = AlphaParams(rng.uniform(1.05, 3.0))
            assert divergence(p, q, a) >= -1e-12


class TestRootFindTau:
    def test_hand_solved_instance(self):
        assert root_find_tau([1.0, 0.0], [0.5, 1.0], A2) == pytest.approx(2 / 3, abs=1e-9)

    def test_constant_logits(self):
        # symmetry forces p uniform, so tau = c - f'(1/k); at alpha=2 this is
        # c + 1 - 1/k
        for k in (2, 5, 17):
            c = 0.7
            theta = np.full(k, c)
            q = np.ones(k)
            assert root_find_tau(theta, q, A2) == pytest.approx(c + 1.0 - 1.0 / k, abs=1e-9)

    def test_matches_sparsemax_oracle_tau(self):
        # oracle projection p = [theta - tau']_+ with tau' = tau - 1 at alpha=2
        tau = root_find_tau([0.5, 0.0], [1.0, 1.0], A2)
        assert tau == pytest.approx(0.75, abs=1e-9)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            root_find_tau([1.0], [1.0], A2)
        with pytest.raises(ValueError):
            root_find_tau([1.0, np.inf], [1.0, 1.0], A2)
        with pytest.raises(ValueError):
            root_find_tau([1.0, 0.0], [1.0, -1.0], A2)

    def test_residual_monotone_and_bracketed(self, rng):
        for _ in range(25):
            k = int(rng.integers(2, 40))
            theta = rng.uniform(-10, 10, k)
            q = rng.uniform(0.05, 1.0, k)
            a = AlphaParams(float(rng.choice([1.1, 1.5, 2.0])))
            tau = root_find_tau(theta, q, a)
            taus = np.linspace(tau - 2.0, tau + 2.0, 100)
            res = [np.sum(q * f_conj_prime(theta - t, a)) - 1.0 for t in taus]
            assert np.all(np.diff(res) <= 1e-12)
            assert abs(np.sum(q * f_conj_prime(theta - tau, a)) - 1.0) < 1e-8


class TestAlphaSoftargmax:
    def test_uniform_by_symmetry(self):
        p = alpha_softargmax([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], AlphaParams(1.5))
        np.testing.assert_allclose(p.to_dense(), [1 / 3, 1 / 3, 1 / 3], atol=1e-9)

    def test_sparsemax_instance(self):
        p = alpha_softargmax([0.5, 0.0], [1.0, 1.0], A2)
        np.testing.assert_allclose(p.to_dense(), [0.75, 0.25], atol=1e-9)

    def test_saturated_support(self):
        p = alpha_softargmax([2.0, 0.0, 0.0], [1.0, 1.0, 1.0], A2)
        assert p.nnz == 1
        np.testing.assert_allclose(p.to_dense(), [1.0, 0.0, 0.0], atol=1e-12)

    def test_posterior_without_mass_is_a_solver_error(self):
        # q_t = 1e300 collapses the bracket at a tau where every class is
        # clipped: a solver failure, not PosteriorDistribution's ValueError
        with pytest.raises(SolverError, match="sums to 0.0"):
            alpha_softargmax([1.0, 0.5, 0.2], [1e300, 1.0, 1.0], AlphaParams(1.5))

    def test_a_top_weight_of_1e_300_gives_a_valid_posterior(self):
        # the old bisection's absolute width never closed from tau ~ -2e150
        p = alpha_softargmax([1.0, 0.5, 0.2], [1e-300, 1.0, 1.0], AlphaParams(1.5)).to_dense()
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.all(p > 0.0)

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=300, deadline=None)
    @given(
        alpha=st.one_of(
            st.floats(1.0 + 1e-4, 10.0),
            st.sampled_from([1.0 + 1e-4, 1.25, 1.5, 2.0, 3.0, 10.0]),
        ),
        k=st.integers(2, 300),
        log_scale=st.floats(-3.0, 4.0),
        q_decades=st.floats(0.0, 600.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_valid_posterior_or_solver_error(self, alpha, k, log_scale, q_decades, seed):
        # logits of scale 1e-3..1e4 and weights spread over up to 600 decades
        r = np.random.default_rng(seed)
        theta = r.uniform(-1.0, 1.0, (3, k)) * 10.0**log_scale
        q = 10.0 ** r.uniform(-q_decades / 2, q_decades / 2, (3, k))
        for i in range(3):
            try:
                p, tau = backend.posterior(theta[i], q[i], alpha, 1e-10, 200)
            except SolverError:
                continue
            assert np.all(np.isfinite(p)) and np.all(p >= 0.0)
            assert abs(p.sum() - 1.0) <= 1e-8
            assert np.all(p[1.0 + (alpha - 1.0) * (theta[i] - tau) <= 0.0] == 0.0)
        try:
            P, _ = backend.posterior_batch(theta, q, alpha, 1e-10, 200)
        except SolverError:
            return
        assert np.all(np.isfinite(P)) and np.all(P >= 0.0)
        assert np.abs(P.sum(axis=1) - 1.0).max() <= 1e-8

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.sampled_from([1.1, 1.25, 1.5, 1.75, 2.0]),
        k=st.integers(2, 512),
        seed=st.integers(0, 2**31),
    )
    def test_simplex_property(self, alpha, k, seed):
        r = np.random.default_rng(seed)
        theta = r.uniform(-10, 10, k)
        q = r.uniform(1e-3, 1.0, k)
        p = alpha_softargmax(theta, q, AlphaParams(alpha)).to_dense()
        assert abs(p.sum() - 1.0) <= 1e-8
        assert np.all(p >= 0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.sampled_from([1.1, 1.5, 2.0]),
        k=st.integers(2, 64),
        shift=st.floats(-50, 50),
        seed=st.integers(0, 2**31),
    )
    def test_shift_invariance(self, alpha, k, shift, seed):
        r = np.random.default_rng(seed)
        theta = r.uniform(-10, 10, k)
        q = r.uniform(0.1, 1.0, k)
        a = AlphaParams(alpha)
        p0 = alpha_softargmax(theta, q, a).to_dense()
        p1 = alpha_softargmax(theta + shift, q, a).to_dense()
        np.testing.assert_allclose(p0, p1, atol=1e-8)

    def test_sparsemax_equivalence(self, rng):
        for _ in range(200):
            k = int(rng.integers(2, 64))
            theta = rng.uniform(-10, 10, k)
            p = alpha_softargmax(theta, np.ones(k), A2).to_dense()
            np.testing.assert_allclose(p, sparsemax_oracle(theta), atol=1e-8)

    def test_softmax_recovery(self, rng):
        a = AlphaParams(1.0 + 1e-3)
        for _ in range(30):
            k = int(rng.integers(2, 128))
            theta = rng.uniform(-5, 5, k)
            q = rng.uniform(0.2, 1.0, k)
            p = alpha_softargmax(theta, q, a).to_dense()
            assert np.abs(p - softargmax_oracle(theta, q)).max() <= 5e-3

    def test_gradient_identity(self, rng):
        # alpha_softargmax is the gradient of alpha_softmax, checked by
        # central differences away from the clipping kink
        checked = 0
        while checked < 20:
            k = int(rng.integers(2, 12))
            theta = rng.uniform(-3, 3, k)
            q = rng.uniform(0.3, 1.0, k)
            # tight solver tolerance so the finite differences are not limited
            # by value noise from the bisection
            a = AlphaParams(float(rng.choice([1.25, 1.5, 2.0])), bisect_tol=1e-14)
            tau = root_find_tau(theta, q, a)
            kink = -1.0 / (a.alpha - 1.0)
            if np.min(np.abs(theta - tau - kink)) < 1e-3:
                continue
            p = alpha_softargmax(theta, q, a).to_dense()
            for i in range(k):
                num = central_diff(lambda t: alpha_softmax(t, q, a), theta, i)
                assert num == pytest.approx(p[i], rel=1e-4, abs=1e-6)
            checked += 1


class TestAlphaSoftmax:
    def test_worked_instance(self):
        assert alpha_softmax([0.5, 0.0], [1.0, 1.0], A2) == pytest.approx(0.0625)

    def test_zero_logits_two_classes(self):
        assert alpha_softmax([0.0, 0.0], [1.0, 1.0], A2) == pytest.approx(-0.25)

    def test_shift_rule_constant_logits(self):
        for a in (1.25, 2.0):
            params = AlphaParams(a)
            c = 1.7
            expected = c - divergence([0.5, 0.5], [1.0, 1.0], params)
            assert alpha_softmax([c, c], [1.0, 1.0], params) == pytest.approx(expected)


class TestAlphaSoftmaxAccuracy:
    def test_against_high_precision_reference(self):
        # k 2..60, theta scale 0.1..1000, q uniform or spread over 11 e-folds;
        # the value read off the solve against <p, theta> - D_f(p:q) of its p
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(2026)
        worst = {"solve": 0.0, "divergence": 0.0}
        for _ in range(300):
            k = int(rng.integers(2, 61))
            params = AlphaParams(float(rng.choice([1.01, 1.25, 1.5, 2.0, 3.0])))
            theta = 10.0 ** rng.uniform(-1.0, 3.0) * rng.uniform(-1.0, 1.0, k)
            q = np.ones(k) if rng.random() < 0.5 else np.exp(rng.uniform(-11.0, 0.0, k))
            ref = alpha_softmax_reference(theta, q, params.alpha)
            p = alpha_softargmax(theta, q, params).to_dense()
            values = {
                "solve": alpha_softmax(theta, q, params),
                "divergence": p @ theta - divergence(p, q, params),
            }
            for name, value in values.items():
                worst[name] = max(worst[name], abs(value - ref) / abs(ref))
        assert worst["solve"] <= worst["divergence"], worst
        assert worst["solve"] <= 1e-12, worst


class TestPosteriorDistribution:
    def test_round_trip(self):
        p = PosteriorDistribution.from_dense(np.array([0.25, 0.0, 0.75]))
        assert p.nnz == 2
        assert p.prob(1) == 0.0
        assert p.prob(2) == 0.75
        np.testing.assert_array_equal(p.to_dense(), [0.25, 0.0, 0.75])

    def test_rejects_bad_support(self):
        with pytest.raises(ValueError):
            PosteriorDistribution(indices=[0, 0], probs=[0.5, 0.5], k=3)
        with pytest.raises(ValueError):
            PosteriorDistribution(indices=[0, 5], probs=[0.5, 0.5], k=3)
        with pytest.raises(ValueError):
            PosteriorDistribution(indices=[0, 1], probs=[0.5, 0.4], k=3)
        with pytest.raises(ValueError):
            PosteriorDistribution(indices=[0, 1], probs=[1.1, -0.1], k=3)

    @pytest.mark.parametrize(
        "indices, probs", [([0, 1], [1.0]), ([[0, 1]], [[0.5, 0.5]])], ids=["length", "2-D"]
    )
    def test_rejects_mismatched_shapes(self, indices, probs):
        with pytest.raises(ValueError, match="1-D arrays of equal length"):
            PosteriorDistribution(indices=indices, probs=probs, k=3)

    def test_sum_tolerance_is_the_solver_s(self, monkeypatch):
        # one tolerance for the solver's rows and this class
        with pytest.raises(ValueError, match="probabilities sum to"):
            PosteriorDistribution(indices=[0, 1], probs=[0.5, 0.5005], k=2)
        monkeypatch.setattr(backend, "SUM_TOL", 1e-3)
        assert PosteriorDistribution(indices=[0, 1], probs=[0.5, 0.5005], k=2).nnz == 2
