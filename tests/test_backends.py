import numpy as np
import pytest

from alphamargin import backend
from alphamargin.errors import SolverError

from conftest import posterior_bisection_reference


def test_active_backend_exposed():
    assert backend.BACKEND == "python"


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


def _bisection_loop(theta, q, alpha, tol, max_iters=200):
    B, k = theta.shape
    P = np.empty((B, k))
    taus = np.empty(B)
    for i in range(B):
        P[i], taus[i] = posterior_bisection_reference(theta[i], q[i], alpha, tol, max_iters)
    return P, taus


def _raised(fn, *args):
    with pytest.raises(SolverError) as info:
        fn(*args)
    return str(info.value)


def _first_row_error(theta, q, *args):
    """The error a loop of one-row calls meets first, named by its batch row."""
    for i in range(len(theta)):
        try:
            backend.posterior(theta[i], q[i], *args)
        except SolverError as exc:
            return f"row {i}: " + str(exc).removeprefix("row 0: ")
    raise AssertionError("no row fails")


class TestBatchMatchesRowLoop:
    """The Newton batch solve against a loop of its own one-row calls, which
    it matches bit for bit, and against the scalar bisection it replaced."""

    @pytest.mark.parametrize("measure", MEASURES)
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_bitwise_equal_across_block_edges(self, alpha, measure, monkeypatch):
        # 128-row blocks, so that the batch sizes straddle block edges
        monkeypatch.setattr(backend, "BLOCK_ROWS", 128)
        rng = np.random.default_rng([ALPHAS.index(alpha), MEASURES.index(measure)])
        # At alpha > 2, p is steep in tau next to a clip, and the bisection's
        # 1e-10 bracket width leaves its rows up to 6e-8 from summing to 1;
        # there the oracle runs at 1e-14.
        ref_tol = 1e-14 if alpha > 2.0 else 1e-10
        for B in (1, 2, 127, 128, 129, 300):
            for k in (2, 3, 200):
                theta, q = _inputs(rng, B, k, measure)
                P, taus = backend.posterior_batch(theta, q, alpha, 1e-10, 200)
                for i in range(B):
                    p, tau = backend.posterior(theta[i], q[i], alpha, 1e-10, 200)
                    assert np.array_equal(p, P[i]) and tau == taus[i], (B, k, i)
                P_ref, _ = _bisection_loop(theta, q, alpha, ref_tol)
                assert np.abs(P - P_ref).max() <= 1e-9, (B, k)
                assert np.array_equal(P == 0.0, P_ref == 0.0), (B, k)
                assert np.abs(P.sum(axis=1) - 1.0).max() <= 1e-11, (B, k)

    @pytest.mark.parametrize("alpha", [1.25, 1.5])
    def test_residual_sums_match_to_the_last_bit(self, alpha, monkeypatch):
        # With no width exit and a residual exit of 1e-14, a row stops at the
        # first iterate whose residual is within a few ulps of zero, so the
        # taus depend on the exact bits of every residual sum on the way.
        monkeypatch.setattr(backend, "RESIDUAL_TOL", 1e-14)
        theta, q = _inputs(np.random.default_rng(17), 300, 200, "random")
        P, taus = backend.posterior_batch(theta, q, alpha, 1e-300, 200)
        for i in range(300):
            p, tau = backend.posterior(theta[i], q[i], alpha, 1e-300, 200)
            assert np.array_equal(p, P[i]) and tau == taus[i], i

    @pytest.mark.parametrize("block_rows", [1, 7, 128])
    def test_rows_do_not_depend_on_the_block_size(self, block_rows, monkeypatch):
        theta, q = _inputs(np.random.default_rng(5), 300, 200, "random")
        P, taus = backend.posterior_batch(theta, q, 1.25, 1e-10, 200)
        monkeypatch.setattr(backend, "BLOCK_ROWS", block_rows)
        P_b, taus_b = backend.posterior_batch(theta, q, 1.25, 1e-10, 200)
        assert np.array_equal(P, P_b)
        assert np.array_equal(taus, taus_b)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_bracket_end_and_collapsed_bracket_rows(self, alpha):
        rng = np.random.default_rng(7)
        theta, q = _inputs(rng, 129, 200, "random")
        # one dominant logit clips every other class at lo, where p = e_t
        at_lo = [0, 64, 128]
        theta[at_lo] = -40.0
        theta[at_lo, 5] = 40.0
        # equal logits over a uniform measure of total mass 1: hi = theta_t
        # and p = q there
        at_hi = [1, 65]
        theta[at_hi] = 0.3
        q[at_hi] = 1.0 / 200
        # the other weights vanish next to q_t, so sum(q) == q_t and lo == hi
        same = [2, 127]
        q[same] = 1e-20
        q[same, 7] = 1.0
        theta[same, 7] = 100.0

        P, taus = backend.posterior_batch(theta, q, alpha, 1e-10, 200)
        lo, hi = backend._bracket(theta, q, alpha)
        assert np.array_equal(taus[at_lo], lo[at_lo]) and np.all(lo[at_lo] != hi[at_lo])
        assert np.abs(P[at_lo] - np.eye(200)[[5, 5, 5]]).max() <= 1e-12
        assert np.count_nonzero(P[at_lo]) == 3
        # the width exit may stop up to tol short of hi
        assert np.abs(taus[at_hi] - hi[at_hi]).max() <= 1e-10
        assert np.all(lo[at_hi] != hi[at_hi])
        assert np.abs(P[at_hi] - q[at_hi]).max() <= 1e-12
        assert np.array_equal(taus[same], lo[same]) and np.array_equal(lo[same], hi[same])
        assert np.array_equal(P[same, 7], [1.0, 1.0])

    @pytest.mark.parametrize("B", [1, 129, 300])
    def test_exhausted_iterations_raise_like_the_loop(self, B):
        theta, q = _inputs(np.random.default_rng(B), B, 200, "random")
        args = (theta, q, 1.5, 1e-14, 2)
        expected = _first_row_error(*args)
        assert "did not converge in 2 iterations" in expected
        assert _raised(backend.posterior_batch, *args) == expected

    def test_single_failing_row_in_a_block(self):
        theta, q = _inputs(np.random.default_rng(11), 300, 200, "q_margin")
        # q_t = 1e300 on the top class of row 200 clips every class
        q[200, theta[200].argmax()] = 1e300
        expected = _first_row_error(theta, q, 1.5, 1e-10, 200)
        assert expected.startswith("row 200: posterior sums to 0.0")
        assert _raised(backend.posterior_batch, theta, q, 1.5, 1e-10, 200) == expected

    @pytest.mark.parametrize(
        "rows",
        [
            {140: "nan", 150: "slow", 160: "massless"},
            {140: "slow", 150: "massless", 160: "nan"},
            {140: "massless", 150: "nan", 160: "slow"},
            {20: "massless", 290: "nan"},
            {290: "slow", 299: "nan"},
        ],
        ids=["nan-first", "slow-first", "massless-first", "two-blocks", "second-block"],
    )
    def test_first_failing_row_decides_the_error(self, rows):
        # every other row has one dominant logit and exits on its first sweep
        theta = np.full((300, 200), -40.0)
        theta[:, 5] = 40.0
        q = np.ones((300, 200))
        dense, _ = _inputs(np.random.default_rng(13), 1, 200, "random")
        for i, kind in rows.items():
            if kind == "nan":  # a bracket that is not finite
                theta[i, 9] = np.nan
            elif kind == "slow":  # needs more than 3 sweeps
                theta[i] = dense[0] * 0.5
            else:  # q_t = 1e300 clips every class: the posterior sums to 0
                q[i, 5] = 1e300
        expected = _first_row_error(theta, q, 1.5, 1e-10, 3)
        verbatim = {
            "nan": "bracket [nan, nan] is not finite (logits or reference measure out of the "
            "solver's range)",
            "slow": "solver did not converge in 3 iterations (bracket width 1.601e-01, tol "
            "1.000e-10, posterior sum 1.0296194666835214)",
            "massless": "posterior sums to 0.0, not 1: no double tau normalizes it (logits or "
            "reference measure out of the solver's range)",
        }
        assert expected == f"row {min(rows)}: {verbatim[rows[min(rows)]]}"
        assert _raised(backend.posterior_batch, theta, q, 1.5, 1e-10, 3) == expected

    def test_an_infinite_bracket_names_its_own_ends(self):
        # q_t = 5e-324 at alpha = 3 puts lo at -inf; the sweeps of row 0 also
        # move the bracket of the dead row 1, and the message keeps its ends
        theta = np.zeros((2, 5))
        theta[1, 0] = 1.0
        q = np.ones((2, 5))
        q[1, 0] = 5e-324
        assert _raised(backend.posterior_batch, theta, q, 3.0, 1e-10, 200) == (
            "row 1: bracket [-inf, 1.46875] is not finite (logits or reference measure out "
            "of the solver's range)"
        )

    def test_a_block_with_no_finite_bracket_takes_no_sweep(self, monkeypatch):
        # with no row live from the start there is nothing to sweep; the
        # block used to run all max_iters sweeps on empty arrays
        calls = []
        real = backend._weights
        monkeypatch.setattr(backend, "_weights", lambda *args: calls.append(1) or real(*args))
        theta = np.zeros((1, 200))
        q = np.ones((1, 200))
        q[0, 0] = 5e-324
        message = _raised(backend.posterior_batch, theta, q, 3.0, 1e-10, 200)
        assert (message, len(calls)) == (
            "row 0: bracket [-inf, 0.4999873740562107] is not finite (logits or reference "
            "measure out of the solver's range)",
            0,
        )


class TestExits:
    @pytest.mark.parametrize("alpha", [1.25, 1.5, 2.0])
    def test_roots_beyond_the_residual_resolution_stop_at_a_bracket_end(self, alpha):
        # At logits near 1e4 one ulp of tau moves the residual by more than
        # RESIDUAL_TOL, and tol = 1e-300 turns the width exit off: rows stop
        # when the next iterate equals a bracket end, within 1e-9 of the
        # posterior of the unshifted logits. (At alpha > 2 a class next to its
        # clip moves p by far more than 1e-9 per ulp of tau there.)
        theta, q = _inputs(np.random.default_rng(23), 300, 200, "random")
        P, _ = backend.posterior_batch(theta + 1e4, q, alpha, 1e-300, 200)
        P_ref, _ = _bisection_loop(theta, q, alpha, 1e-14)
        off = np.abs(P.sum(axis=1) - 1.0)
        assert (off > 2 * backend.RESIDUAL_TOL).sum() >= 10
        assert off.max() <= 1e-8
        assert np.abs(P - P_ref).max() <= 1e-9

    @pytest.mark.parametrize("tol", [1e-4, 1e-8])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_width_exit_stops_within_tol_of_the_root(self, alpha, tol, monkeypatch):
        # no residual exit: rows stop on the bracket width or at a bracket end
        monkeypatch.setattr(backend, "RESIDUAL_TOL", 0.0)
        monkeypatch.setattr(backend, "SUM_TOL", np.inf)
        theta, q = _inputs(np.random.default_rng(29), 129, 200, "q_margin")
        _, taus = backend.posterior_batch(theta, q, alpha, tol, 200)
        _, taus_ref = _bisection_loop(theta, q, alpha, 1e-14)
        assert np.abs(taus - taus_ref).max() <= tol

    @pytest.mark.parametrize("z_root", [1e-10, 1e-11, 1e-12, 1e-13])
    def test_width_exit_waits_for_a_valid_sum(self, z_root):
        # At alpha = 3 class 1 sits at z = z_root at the root, so its clip is
        # inside the last 1e-10 of the bracket, and p_1 = sqrt(z) moves the
        # sum by ~1e-6 across it: a bracket end there is no answer yet.
        theta = np.full(50, -50.0)
        theta[0] = 0.0
        theta[1] = -((1.0 - np.sqrt(z_root)) ** 2 - z_root) / 2.0
        p, _ = backend.posterior(theta, np.ones(50), 3.0, 1e-10, 200)
        assert abs(p.sum() - 1.0) <= 1e-8

    def test_a_top_weight_of_1e_300_converges(self):
        # The bisection needed ~500 halvings to close this bracket, so it
        # gave up at 200; Newton leaves the far lower end in a few steps.
        theta, q = _inputs(np.random.default_rng(11), 300, 200, "q_margin")
        theta[200, 0] = theta[200].max() + 1.0
        q[200, 0] = 1e-300
        P, _ = backend.posterior_batch(theta, q, 1.5, 1e-10, 200)
        assert abs(P[200].sum() - 1.0) <= 1e-12
        with pytest.raises(SolverError, match="did not converge"):
            posterior_bisection_reference(theta[200], q[200], 1.5, 1e-10, 200)


def test_batch_row_without_mass_is_a_solver_error():
    # q_t = 1e300 collapses the bracket at a tau where every class is clipped
    theta = np.array([[1.0, 0.5, 0.2], [1.0, 0.5, 0.2]])
    q = np.array([[1.0, 1.0, 1.0], [1e300, 1.0, 1.0]])
    with pytest.raises(SolverError, match="row 1: posterior sums to 0.0"):
        backend.posterior_batch(theta, q, 1.5, 1e-10, 200)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_posterior_is_one_posterior_batch_call_on_one_row(alpha, monkeypatch):
    # posterior used to solve through a private twin of posterior_batch
    batch = backend.posterior_batch
    calls = []

    def spy(theta, q, *args):
        P, taus = batch(theta, q, *args)
        calls.append((np.shape(theta), np.shape(q), P, taus))
        return P, taus

    monkeypatch.setattr(backend, "posterior_batch", spy)
    rng = np.random.default_rng(ALPHAS.index(alpha))
    for measure in MEASURES:
        theta, q = _inputs(rng, 1, 7, measure)
        calls.clear()
        p, tau = backend.posterior(theta[0], q[0], alpha, 1e-10, 200)
        assert len(calls) == 1, measure
        theta_shape, q_shape, P, taus = calls[0]
        assert theta_shape == q_shape == (1, 7), measure
        assert p.tobytes() == P[0].tobytes() and tau == taus[0], measure
