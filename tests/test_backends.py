import numpy as np
import pytest

from alphamargin import _fallback, backend
from alphamargin.errors import SolverError

from conftest import posterior_batch_loop_reference


@pytest.mark.skipif(not backend.HAVE_COMPILED, reason="compiled extension not built")
class TestBackendParity:
    def test_solve_tau_agrees(self, rng):
        compiled = backend.get_backend("compiled")
        python = backend.get_backend("python")
        for _ in range(100):
            k = int(rng.integers(2, 80))
            theta = rng.uniform(-10, 10, k)
            q = rng.uniform(0.05, 1.0, k)
            alpha = float(rng.choice([1.1, 1.25, 1.5, 2.0]))
            t_c = compiled.solve_tau(theta, q, alpha, 1e-10, 200)
            t_p = python.solve_tau(theta, q, alpha, 1e-10, 200)
            assert t_c == pytest.approx(t_p, abs=1e-9)

    def test_posterior_batch_agrees(self, rng):
        compiled = backend.get_backend("compiled")
        python = backend.get_backend("python")
        theta = rng.uniform(-8, 8, (32, 40))
        q = rng.uniform(0.1, 1.0, (32, 40))
        for alpha in (1.25, 2.0):
            P_c, tau_c = compiled.posterior_batch(theta, q, alpha, 1e-10, 200)
            P_p, tau_p = python.posterior_batch(theta, q, alpha, 1e-10, 200)
            np.testing.assert_allclose(P_c, P_p, atol=1e-9)
            np.testing.assert_allclose(tau_c, tau_p, atol=1e-9)
            # identical zero pattern: exact zeros, no epsilon pruning
            np.testing.assert_array_equal(P_c == 0.0, P_p == 0.0)

    def test_both_raise_on_exhausted_iterations(self):
        theta = np.array([1.0, 0.9, 0.8])
        q = np.array([1.0, 1.0, 1.0])
        for name in ("compiled", "python"):
            with pytest.raises(SolverError):
                backend.get_backend(name).solve_tau(theta, q, 1.5, 1e-14, 3)


def test_active_backend_exposed():
    assert backend.BACKEND in ("compiled", "python")


ALPHAS = (1.1, 1.25, 1.5, 2.0, 3.0)
MEASURES = ("uniform", "q_margin", "random")


def _inputs(rng, B, k, measure):
    # per-row logit scales from dense (0.5) to very sparse (32) posteriors
    theta = rng.uniform(-1.0, 1.0, (B, k)) * rng.choice([0.5, 4.0, 32.0], size=(B, 1))
    if measure == "uniform":
        q = np.ones((B, k))
    elif measure == "q_margin":
        q = np.ones((B, k))
        q[np.arange(B), rng.integers(k, size=B)] = np.exp(-32.0 * 0.2)
    else:
        q = rng.uniform(0.05, 2.0, (B, k))
    return theta, q


def _bracket(theta, q, alpha):
    t = int(np.argmax(theta))
    f_prime = _fallback._f_prime
    return theta[t] - f_prime(1.0 / q[t], alpha), theta[t] - f_prime(1.0 / q.sum(), alpha)


def _raised(fn, *args):
    with pytest.raises(SolverError) as info:
        fn(*args)
    return str(info.value)


class TestBatchMatchesRowLoop:
    """The numpy batch solve is bitwise equal to one scalar solve per row."""

    @pytest.mark.parametrize("measure", MEASURES)
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_bitwise_equal_across_block_edges(self, alpha, measure):
        rng = np.random.default_rng([ALPHAS.index(alpha), MEASURES.index(measure)])
        for B in (1, 2, 127, 128, 129, 300):
            for k in (2, 3, 200):
                theta, q = _inputs(rng, B, k, measure)
                P, taus = _fallback.posterior_batch(theta, q, alpha, 1e-10, 200)
                P_ref, taus_ref = posterior_batch_loop_reference(theta, q, alpha, 1e-10, 200)
                assert np.array_equal(P, P_ref), (B, k)
                assert np.array_equal(taus, taus_ref), (B, k)

    @pytest.mark.parametrize("alpha", [1.25, 1.5])
    def test_residual_sums_match_to_the_last_bit(self, alpha, monkeypatch):
        # With no width exit and a residual exit of 1e-14, a row stops at the
        # first mid whose residual is within a few ulps of zero, so the taus
        # depend on the exact bits of every residual sum on the way.
        monkeypatch.setattr(_fallback, "RESIDUAL_TOL", 1e-14)
        theta, q = _inputs(np.random.default_rng(17), 300, 200, "random")
        P, taus = _fallback.posterior_batch(theta, q, alpha, 1e-300, 200)
        P_ref, taus_ref = posterior_batch_loop_reference(theta, q, alpha, 1e-300, 200)
        assert np.array_equal(P, P_ref)
        assert np.array_equal(taus, taus_ref)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_bracket_end_and_collapsed_bracket_rows(self, alpha):
        rng = np.random.default_rng(7)
        theta, q = _inputs(rng, 129, 200, "random")
        # one dominant logit clips every other class at lo: exit at lo
        at_lo = [0, 64, 128]
        theta[at_lo] = -40.0
        theta[at_lo, 5] = 40.0
        # equal logits over a uniform measure of total mass 1: hi = theta_t
        # and p = q there, so exit at hi
        at_hi = [1, 65]
        theta[at_hi] = 0.3
        q[at_hi] = 1.0 / 200
        # the other weights vanish next to q_t, so sum(q) == q_t and lo == hi
        same = [2, 127]
        q[same] = 1e-20
        q[same, 7] = 1.0
        theta[same, 7] = 100.0

        P, taus = _fallback.posterior_batch(theta, q, alpha, 1e-10, 200)
        P_ref, taus_ref = posterior_batch_loop_reference(theta, q, alpha, 1e-10, 200)
        assert np.array_equal(P, P_ref)
        assert np.array_equal(taus, taus_ref)
        for i in at_lo:
            lo, hi = _bracket(theta[i], q[i], alpha)
            assert taus[i] == lo != hi
        for i in at_hi:
            lo, hi = _bracket(theta[i], q[i], alpha)
            assert taus[i] == hi != lo
        for i in same:
            lo, hi = _bracket(theta[i], q[i], alpha)
            assert taus[i] == lo == hi

    @pytest.mark.parametrize("B", [1, 129, 300])
    def test_exhausted_iterations_raise_like_the_loop(self, B):
        theta, q = _inputs(np.random.default_rng(B), B, 200, "random")
        args = (theta, q, 1.5, 1e-14, 3)
        expected = _raised(posterior_batch_loop_reference, *args)
        assert "did not converge" in expected
        assert _raised(_fallback.posterior_batch, *args) == expected

    def test_single_failing_row_in_a_block(self):
        theta, q = _inputs(np.random.default_rng(11), 300, 200, "q_margin")
        _fallback.posterior_batch(theta, q, 1.5, 1e-10, 200)
        # a weight of 1e-300 on the top class of row 200 opens a bracket too
        # wide for 200 halvings to close
        theta[200, 0] = theta[200].max() + 1.0
        q[200, 0] = 1e-300
        expected = _raised(posterior_batch_loop_reference, theta, q, 1.5, 1e-10, 200)
        assert "did not converge" in expected
        assert _raised(_fallback.posterior_batch, theta, q, 1.5, 1e-10, 200) == expected

    @pytest.mark.parametrize("nan_row, reason", [(140, "same sign"), (160, "did not converge")])
    def test_first_failing_row_decides_the_error(self, nan_row, reason):
        theta, q = _inputs(np.random.default_rng(13), 300, 200, "random")
        theta[150, 0] = theta[150].max() + 1.0
        q[150, 0] = 1e-300
        # a NaN logit row fails the bracket-sign check
        theta[nan_row] = np.nan
        expected = _raised(posterior_batch_loop_reference, theta, q, 1.5, 1e-10, 200)
        assert reason in expected
        assert _raised(_fallback.posterior_batch, theta, q, 1.5, 1e-10, 200) == expected


def test_batch_row_without_mass_is_a_solver_error():
    # q_t = 1e300 collapses the bracket at a tau where every class is clipped
    theta = np.array([[1.0, 0.5, 0.2], [1.0, 0.5, 0.2]])
    q = np.array([[1.0, 1.0, 1.0], [1e300, 1.0, 1.0]])
    with pytest.raises(SolverError, match="row 1 sums to 0.0"):
        backend.posterior_batch(theta, q, 1.5, 1e-10, 200)
