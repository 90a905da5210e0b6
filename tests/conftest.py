import numpy as np
import pytest

from alphamargin.errors import SolverError, UnattainableFARError
from alphamargin.evalkit import TrialScoreSet


def sparsemax_oracle(z):
    """Sort-based Euclidean projection of z onto the probability simplex."""
    z = np.asarray(z, dtype=np.float64)
    u = np.sort(z)[::-1]
    css = np.cumsum(u)
    ranks = np.arange(1, len(u) + 1)
    rho = np.nonzero(u + (1.0 - css) / ranks > 0)[0][-1]
    tau = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(z - tau, 0.0)


def softargmax_oracle(theta, q):
    """Closed-form exponential softargmax with reference measure q."""
    theta = np.asarray(theta, dtype=np.float64)
    w = q * np.exp(theta - theta.max())
    return w / w.sum()


def cross_entropy_oracle(theta, y):
    z = theta - theta.max()
    return float(np.log(np.exp(z).sum()) - z[y])


# The scalar bisection solver as it was before the safeguarded-Newton solver
# replaced it, kept verbatim: the oracle of the parity tests in
# test_backends.py.

RESIDUAL_TOL = 1e-12


def _f_prime(u, alpha):
    return (u ** (alpha - 1.0) - 1.0) / (alpha - 1.0)


def _clip_pow(z, inv_am1):
    # [z]_+ ** (1/(alpha-1)) with the z <= 0 branch producing an exact zero
    out = np.zeros_like(z)
    pos = z > 0.0
    out[pos] = z[pos] ** inv_am1
    return out


def solve_tau_bisection_reference(theta, q, alpha, tol, max_iters):
    """Bisection for the normalizing shift tau of one logit vector."""
    am1 = alpha - 1.0
    inv_am1 = 1.0 / am1
    t = int(np.argmax(theta))
    lo = theta[t] - _f_prime(1.0 / q[t], alpha)
    hi = theta[t] - _f_prime(1.0 / q.sum(), alpha)
    if lo == hi:
        return lo

    def residual(tau):
        return float((q * _clip_pow(1.0 + am1 * (theta - tau), inv_am1)).sum()) - 1.0

    r_lo = residual(lo)
    r_hi = residual(hi)
    # The residual is nonincreasing in tau, so a valid bracket has
    # r_lo >= 0 >= r_hi (up to roundoff right at the root).
    if r_lo < -1e-9 or r_hi > 1e-9:
        raise SolverError(
            f"bracket residuals have the same sign (r_lo={r_lo:.3e}, r_hi={r_hi:.3e}); "
            "upstream invariant violated"
        )
    if abs(r_lo) <= RESIDUAL_TOL:
        return lo
    if abs(r_hi) <= RESIDUAL_TOL:
        return hi

    for _ in range(max_iters):
        mid = 0.5 * (lo + hi)
        r = residual(mid)
        if abs(r) <= RESIDUAL_TOL:
            return mid
        if r > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol:
            return 0.5 * (lo + hi)
    raise SolverError(
        f"bisection did not converge in {max_iters} iterations "
        f"(bracket width {hi - lo:.3e} > tol {tol:.3e})"
    )


def posterior_bisection_reference(theta, q, alpha, tol, max_iters):
    """Dense alpha-softargmax of one logit vector. Returns (p, tau)."""
    tau = solve_tau_bisection_reference(theta, q, alpha, tol, max_iters)
    am1 = alpha - 1.0
    p = q * _clip_pow(1.0 + am1 * (theta - tau), 1.0 / am1)
    return p, tau


# The evalkit functions as they were before the sort-and-count rewrite: one
# rng.integers call per impostor pair, one dot per trial and an np.mean per
# threshold. Oracles of the parity tests in test_evalkit.py.

def make_trials_loop_reference(labels, n_genuine, n_impostor, seed):
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    by_id = {}
    for i, y in enumerate(labels):
        by_id.setdefault(int(y), []).append(i)
    multi = [v for v in by_id.values() if len(v) >= 2]
    if not multi:
        raise ValueError("no identity has >= 2 samples; cannot build genuine trials")
    trials = []
    for _ in range(n_genuine):
        grp = multi[rng.integers(len(multi))]
        i, j = rng.choice(len(grp), size=2, replace=False)
        trials.append((grp[i], grp[j], True))
    n = len(labels)
    made = 0
    while made < n_impostor:
        i, j = rng.integers(n, size=2)
        if labels[i] != labels[j]:
            trials.append((int(i), int(j), False))
            made += 1
    return trials


def score_trials_loop_reference(embeddings, trials):
    embeddings = np.asarray(embeddings, dtype=np.float64)
    n = embeddings.shape[0]
    genuine, impostor = [], []
    for i, j, same in trials:
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"trial index ({i}, {j}) out of range for {n} embeddings")
        s = float(embeddings[i] @ embeddings[j])
        (genuine if same else impostor).append(s)
    return TrialScoreSet(genuine=np.array(genuine), impostor=np.array(impostor))


def frr_at_far_loop_reference(scores, far_target):
    if len(scores.genuine) == 0 or len(scores.impostor) == 0:
        raise ValueError("both genuine and impostor score lists must be nonempty")
    if not 0.0 < far_target <= 1.0:
        raise ValueError(f"far_target must be in (0, 1], got {far_target}")
    n_imp = len(scores.impostor)
    if far_target < 1.0 / n_imp:
        raise UnattainableFARError(
            f"FAR target {far_target:g} is below the 1/{n_imp} resolution of the impostor set"
        )
    for t in np.unique(scores.impostor):
        far = np.mean(scores.impostor >= t)
        if far <= far_target:
            frr = float(np.mean(scores.genuine < t))
            return frr, float(t)
    raise UnattainableFARError(
        f"no impostor-score threshold reaches FAR <= {far_target:g} "
        "(tied scores at the top of the impostor list)"
    )


def det_points_loop_reference(scores):
    thresholds = np.unique(np.concatenate([scores.genuine, scores.impostor]))
    rows = []
    for t in thresholds[::-1]:
        far = float(np.mean(scores.impostor >= t))
        frr = float(np.mean(scores.genuine < t))
        rows.append((far, frr, float(t)))
    return rows

def cosface_recovery_draws():
    """The 1000 (k, c, y, s, m) draws of acceptance criterion 3b, in order."""
    rng = np.random.default_rng(12345)
    for _ in range(1000):
        k = int(rng.integers(2, 33))
        c = rng.uniform(-1.0, 1.0, k)
        y = int(rng.integers(k))
        s = float(rng.uniform(2.0, 64.0))
        m = float(rng.uniform(0.0, 0.5))
        yield k, c, y, s, m


def fy_loss_reference(theta, y, q, alpha, dps=60):
    """Fenchel-Young alpha-divergence loss in mpmath at `dps` digits.

    <p, theta> - D_f(p:q) + D_f(y:q) - theta_y with
    p_j = q_j * [1 + (a-1)*(theta_j - tau)]_+ ** (1/(a-1)); tau is bisected
    on the solver's bracket until the midpoint no longer moves.
    """
    import mpmath

    with mpmath.workdps(dps):
        a = mpmath.mpf(float(alpha))
        am1 = a - 1
        theta = [mpmath.mpf(float(t)) for t in theta]
        q = [mpmath.mpf(float(w)) for w in q]

        def posterior(tau):
            return [w * max(1 + am1 * (t - tau), 0) ** (1 / am1) for t, w in zip(theta, q)]

        def df(p):
            return mpmath.fsum(
                w * (((u / w) ** a - 1) - a * (u / w - 1)) / (a * am1) for u, w in zip(p, q)
            )

        # residual(lo) >= 0 >= residual(hi): p_t = 1 at lo, p <= q / sum(q) at hi
        t = max(range(len(theta)), key=theta.__getitem__)
        lo = theta[t] - ((1 / q[t]) ** am1 - 1) / am1
        hi = theta[t] - ((1 / mpmath.fsum(q)) ** am1 - 1) / am1
        while True:
            mid = (lo + hi) / 2
            if mid in (lo, hi):
                break
            if mpmath.fsum(posterior(mid)) > 1:
                lo = mid
            else:
                hi = mid
        p = posterior(mid)
        yv = [mpmath.mpf(int(j == y)) for j in range(len(theta))]
        value = mpmath.fsum(u * t for u, t in zip(p, theta)) - df(p) + df(yv) - theta[y]
        return float(value)


def central_diff(fn, x, i, h=1e-5):
    xp = np.array(x, dtype=np.float64)
    xm = np.array(x, dtype=np.float64)
    xp[i] += h
    xm[i] -= h
    return (fn(xp) - fn(xm)) / (2.0 * h)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
