import numpy as np
import pytest

from alphamargin import backend, core
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
        # every weight 5e-324 at alpha = 3 puts both ends at -inf; the sweeps
        # of row 0 also move the bracket of the dead row 1, and the message
        # keeps its ends
        theta = np.zeros((2, 5))
        theta[1, 0] = 1.0
        q = np.ones((2, 5))
        q[1] = 5e-324
        assert _raised(backend.posterior_batch, theta, q, 3.0, 1e-10, 200) == (
            "row 1: bracket [-inf, -inf] is not finite (logits or reference measure out "
            "of the solver's range)"
        )
        # one such weight no longer does: each other class bounds tau from below
        q[1] = [5e-324, 1.0, 1.0, 1.0, 1.0]
        P, _ = backend.posterior_batch(theta, q, 3.0, 1e-10, 200)
        assert P.min() >= 0.0 and np.abs(P.sum(axis=1) - 1.0).max() <= 1e-11

    def test_a_block_with_no_finite_bracket_takes_no_sweep(self, monkeypatch):
        # with no row live from the start there is nothing to sweep; the
        # block used to run all max_iters sweeps on empty arrays
        calls = []
        real = backend._weights
        monkeypatch.setattr(backend, "_weights", lambda *args: calls.append(1) or real(*args))
        theta = np.zeros((1, 200))
        q = np.full((1, 200), 5e-324)
        message = _raised(backend.posterior_batch, theta, q, 3.0, 1e-10, 200)
        assert (message, len(calls)) == (
            "row 0: bracket [-inf, -inf] is not finite (logits or reference "
            "measure out of the solver's range)",
            0,
        )
        # a single 5e-324 weight leaves a finite bracket, and the row solves
        q = np.ones((1, 200))
        q[0, 0] = 5e-324
        P, _ = backend.posterior_batch(theta, q, 3.0, 1e-10, 200)
        assert np.count_nonzero(P) == 199 and abs(P.sum() - 1.0) <= 1e-11


def _support_or_error(theta, q, alpha, tol, max_iters, ys=None):
    """posterior_support on 7-row blocks, scattered into a zeroed P, as _solve_or_error."""
    P, taus = np.zeros(theta.shape), []
    blocks = [
        (theta[s : s + 7], q[s : s + 7], None if ys is None else ys[s : s + 7])
        for s in range(0, len(theta), 7)
    ]
    try:
        for rows, cols, vals, t in backend.posterior_support(blocks, alpha, tol, max_iters):
            P[rows, cols] = vals
            taus.append(t)
    except SolverError as exc:
        return str(exc)
    return P, np.concatenate(taus)


class TestSupportMatchesBatch:
    """posterior_support over 7-row blocks, whose cap of 7 * k candidates splits
    the rows into groups, scattered into P: bitwise posterior_batch at its own
    block size, and the loop of one-row calls."""

    @pytest.mark.parametrize("measure", MEASURES)
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_bitwise_equal_to_the_batch_and_the_row_loop(self, alpha, measure, monkeypatch):
        rng = np.random.default_rng([ALPHAS.index(alpha), MEASURES.index(measure), 3])
        for k in (2, 3, 200):
            theta, q = _inputs(rng, 300, k, measure)
            groups, real = [], backend._sweep
            with monkeypatch.context() as m:
                m.setattr(backend, "BLOCK_ROWS", 7)
                m.setattr(backend, "_sweep", lambda g, *a: groups.append(len(g)) or real(g, *a))
                got = _support_or_error(theta, q, alpha, 1e-10, 200)
                if measure != "random":  # the target weights of a measure 1 elsewhere
                    ys = q.argmin(axis=1) if measure == "q_margin" else rng.integers(k, size=300)
                    q_y = q[np.arange(300), ys]
                    got_y = _support_or_error(theta, q_y, alpha, 1e-10, 200, ys)
            assert _same_solve(got, _solve_or_error(theta, q, alpha, 1e-10, 200)), k
            if measure != "random":
                assert _same_solve(got_y, _solve_or_error(theta, q_y, alpha, 1e-10, 200, ys)), k
            P, taus = got
            for i in range(300):
                p, tau = backend.posterior(theta[i], q[i], alpha, 1e-10, 200)
                assert np.array_equal(p, P[i]) and tau == taus[i], (k, i)
            calls = 1 if measure == "random" else 2
            assert sum(groups) == 43 * calls, k  # each call's groups hold its 43 blocks
            if k == 200:  # several groups; from alpha = 1.25 on, some of several blocks
                assert len(groups) > calls and (alpha < 1.25 or max(groups) > 1), groups

    @pytest.mark.parametrize(
        "rows", [{40: "nan", 200: "massless"}, {150: "massless", 151: "nan"}, {290: "nan"}]
    )
    @pytest.mark.parametrize("max_iters", [200, 3])
    def test_failing_rows_raise_like_the_row_loop(self, rows, max_iters, monkeypatch):
        theta, q = _inputs(np.random.default_rng(21), 300, 200, "q_margin")
        for i, kind in rows.items():
            if kind == "nan":  # a bracket that is not finite
                theta[i, 9] = np.nan
            else:  # q_t = 1e300 clips every class: the posterior sums to 0
                q[i, theta[i].argmax()] = 1e300
        want = _first_row_error(theta, q, 1.5, 1e-10, max_iters)
        assert ("did not converge in 3" in want) == (max_iters == 3)
        assert _solve_or_error(theta, q, 1.5, 1e-10, max_iters) == want
        monkeypatch.setattr(backend, "BLOCK_ROWS", 7)
        assert _support_or_error(theta, q, 1.5, 1e-10, max_iters) == want


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


def _target_weight_rows(rng, B, k, weights, alpha):
    """Logits, labels and target weights of q_margin-style or uniform rows. Every
    third row has its target as argmax. At k = 2 some rows have a target weight
    that (k - 1) + q_y cannot hold, so lo == hi. At k > 2 every fourth row has
    one dominant class, a non-target, so that the solve can end at tau = lo,
    and up to nine columns a few ulps either side of the clip at lo; the
    returned list names those (row, columns)."""
    theta = rng.uniform(-1.0, 1.0, (B, k)) * rng.choice([0.5, 4.0, 32.0], size=(B, 1))
    ys = rng.integers(k, size=B)
    rows = np.arange(B)
    if weights == "uniform":
        q_y = np.ones(B)
    else:
        # the training weight exp(-32 * 0.2), and weights down to e^-60
        q_y = np.where(rng.random(B) < 0.5, np.exp(-6.4), np.exp(-rng.uniform(0.0, 60.0, B)))
    mine = rows[::3]
    theta[mine, ys[mine]] = theta[mine].max(axis=1) + rng.uniform(0.0, 2.0, len(mine))
    if k == 2:
        point = rows[1::3]
        q_y[point] = 1e-20
        theta[point, ys[point]] = theta[point, 1 - ys[point]] - rng.uniform(0.1, 2.0, len(point))
        return theta, ys, q_y, []
    planted = []
    for i in rows[1::4]:
        t = (ys[i] + 1) % k
        theta[i] = np.where(np.arange(k) == t, theta[i, t], theta[i, t] - 50.0)
        lo = backend._bracket(theta[i : i + 1], q_y[i : i + 1], alpha, ys[i : i + 1])[0][0]
        edge = lo - 1.0 / (alpha - 1.0)  # where 1 + (alpha - 1) * (theta_j - lo) = 0
        cols = [j for j in range(k) if j not in (t, ys[i])][:9]
        theta[i, cols] = edge + (np.arange(len(cols)) - len(cols) // 2) * np.spacing(abs(edge))
        planted.append((i, cols))
    return theta, ys, q_y, planted


def _solve_or_error(*args):
    try:
        return backend.posterior_batch(*args)
    except SolverError as exc:
        return str(exc)


def _same_solve(a, b):
    """Two results of _solve_or_error are the same error or bitwise the same (P, taus)."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestTargetWeightsMatchTheDenseMeasure:
    """posterior_batch at (B,) target weights with labels ys is bitwise its
    solve at the dense (B, k) measure that is q_y on the targets, 1 elsewhere."""

    @pytest.mark.parametrize("weights", ["q_margin", "uniform"])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_bitwise_equal_to_the_dense_solve(self, alpha, weights, monkeypatch):
        monkeypatch.setattr(backend, "BLOCK_ROWS", 128)
        rng = np.random.default_rng([ALPHAS.index(alpha), len(weights)])
        straddled = ended_at_lo = 0
        for B in (1, 127, 128, 129, 300):
            for k in (2, 3, 200):
                theta, ys, q_y, planted = _target_weight_rows(rng, B, k, weights, alpha)
                Q = np.ones((B, k))
                Q[np.arange(B), ys] = q_y
                got = _solve_or_error(theta, q_y, alpha, 1e-10, 200, ys)
                assert _same_solve(got, _solve_or_error(theta, Q, alpha, 1e-10, 200)), (B, k)
                if isinstance(got, str):
                    # a row the solver gives up on (ROADMAP item 13) hides the
                    # rows after it: compare each row alone
                    for i in range(B):
                        one = _solve_or_error(theta[[i]], q_y[[i]], alpha, 1e-10, 200, ys[[i]])
                        ref = _solve_or_error(theta[[i]], Q[[i]], alpha, 1e-10, 200)
                        assert _same_solve(one, ref), (B, k, i)
                    continue
                lo, hi = backend._bracket(theta, q_y, alpha, ys)
                lo_dense, hi_dense = backend._bracket(theta, Q, alpha)
                # (k - 1) + q_y may differ in its last bit from the pairwise
                # row sum of Q from k = 3 on, and so hi; P and taus may not
                assert np.array_equal(lo, lo_dense) and (k > 2 or np.array_equal(hi, hi_dense))
                if k == 2 and weights == "q_margin" and B > 1:
                    assert np.any(lo == hi), B
                P, taus = got
                for i, cols in planted:
                    z = 1.0 + (alpha - 1.0) * (theta[i, cols] - lo[i])
                    straddled += np.any(z > 0.0) and np.any(z <= 0.0)
                    if taus[i] == lo[i]:
                        # a column with z > 0 at lo was a candidate: it holds mass there
                        ended_at_lo += 1
                        assert np.array_equal(P[i, cols] > 0.0, z > 0.0), (B, k, i)
        assert straddled > 0
        assert ended_at_lo > 0 or alpha > 2.0


def _first_sweep_columns(monkeypatch, theta, q, alpha, bracket=None):
    """Columns the first sweep of a dense one-row solve works on, optionally from another bracket."""
    sizes = []
    real = backend._weights
    with monkeypatch.context() as m:
        m.setattr(backend, "_weights", lambda z, *args: sizes.append(z.size) or real(z, *args))
        if bracket is not None:
            m.setattr(backend, "_bracket", bracket)
        _solve_or_error(theta, q, alpha, 1e-10, 200)
    return sizes[0] if sizes else 0


def _argmax_bracket(theta, q, alpha, ys=None):
    """[theta_t - f'(1/q_t), theta_t - f'(1/sum(q))], t = argmax theta: the argmax class
    alone. Dense q only; ys is the solver's argument, None there."""
    t = (np.arange(len(theta)), np.argmax(theta, axis=1))
    q_t, q_sum = q[t], q.sum(axis=1)
    return theta[t] - backend.f_prime_inv(np.log(np.stack([q_t, q_sum])), alpha)


class TestTightLowerEnd:
    """lo = max_j (theta_j - f'(1/q_j)): each class alone bounds tau* from
    below, since S(tau) >= p_j(tau)."""

    @pytest.mark.parametrize("measure", MEASURES)
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_the_bracket_holds_the_root_and_narrows_the_candidates(
        self, alpha, measure, monkeypatch
    ):
        rng = np.random.default_rng([ALPHAS.index(alpha), MEASURES.index(measure), 1])
        am1 = alpha - 1.0
        for k in (2, 3, 200):
            B = 40
            theta, q = _inputs(rng, B, k, measure)
            rows = np.arange(B)
            ys = np.argmin(q, axis=1) if measure == "q_margin" else rng.integers(k, size=B)
            # the parity inputs, and rows whose target is their argmax
            theta[rows[::2], ys[::2]] = theta[::2].max(axis=1) + rng.uniform(0.0, 2.0, B // 2)
            tight = np.max(theta - backend.f_prime_inv(np.log(q), alpha), axis=1)
            lo, hi = backend._bracket(theta, q, alpha)
            assert np.array_equal(lo, tight), k
            if measure != "random":  # q is q_y on the targets and 1 elsewhere
                assert np.array_equal(backend._bracket(theta, q[rows, ys], alpha, ys)[0], tight)
            # S(lo) >= 1 >= S(hi), and S is nonincreasing: lo <= tau* <= hi
            for end, sign in ((lo, 1.0), (hi, -1.0)):
                z = np.maximum(1.0 + am1 * (theta - end[:, None]), 0.0)
                assert np.all(sign * ((q * z ** (1.0 / am1)).sum(axis=1) - 1.0) >= -1e-12), k
            got = _solve_or_error(theta, q, alpha, 1e-10, 200)
            assert not isinstance(got, str), (k, got)
            assert np.all((lo <= got[1]) & (got[1] <= hi)), k
            # the target-weight path's end is bitwise the dense one, so its candidates are too
            for i in rows:
                one = (theta[[i]], q[[i]], alpha)
                was = _first_sweep_columns(monkeypatch, *one, bracket=_argmax_bracket)
                assert _first_sweep_columns(monkeypatch, *one) <= was, (k, i)

    def test_a_target_argmax_row_that_used_up_max_iters_solves(self):
        # at alpha = 3 the argmax class's end lay about 2e51 below the root,
        # and the row raised "did not converge in 200 iterations"
        theta = np.array([[2.7007628, -2.87547927, -1.4699676]])
        q = np.array([[1.541e-26, 1.0, 1.0]])
        params = core.AlphaParams(3.0)
        P, taus = backend.posterior_batch(theta, q, 3.0, params.bisect_tol, params.max_iters)
        P_y, taus_y = backend.posterior_batch(
            theta, q[:, 0], 3.0, params.bisect_tol, params.max_iters, np.array([0])
        )
        assert np.array_equal(P, P_y) and np.array_equal(taus, taus_y)
        # the oracle bisects from that loose end, so 200 halvings reach only 1e-8
        p_ref, tau_ref = posterior_bisection_reference(theta[0], q[0], 3.0, 1e-8, params.max_iters)
        assert np.abs(P[0] - p_ref).max() <= 1e-8 and abs(taus[0] - tau_ref) <= 1e-8
        assert np.array_equal(P[0] == 0.0, p_ref == 0.0) and abs(P.sum() - 1.0) <= 1e-11


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
