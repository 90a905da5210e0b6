import numpy as np
import pytest

from alphamargin import _fallback


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


def posterior_batch_loop_reference(theta, q, alpha, tol, max_iters):
    """The numpy backend's batch solve as a loop of one scalar solve per row."""
    B, k = theta.shape
    P = np.empty((B, k))
    taus = np.empty(B)
    for i in range(B):
        P[i], taus[i] = _fallback.posterior(theta[i], q[i], alpha, tol, max_iters)
    return P, taus


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
