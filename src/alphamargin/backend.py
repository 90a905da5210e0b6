"""The alpha-softargmax solver: safeguarded Newton on the normalizing shift tau.

posterior_support solves blocks of rows, a group of blocks per sweep loop,
and yields each group's support; posterior_batch scatters it into a dense P,
and posterior is its one-row batch. Each raises SolverError naming the first
row whose written posterior does not sum to 1 within SUM_TOL.

For logits theta, reference measure q and alpha > 1 the posterior is
p_j = q_j * [z_j]_+ ** (1/(alpha-1)) with z_j = 1 + (alpha-1)*(theta_j - tau),
and tau is the root of S(tau) = sum(p) = 1. Newton runs on
phi(tau) = S(tau)**(alpha-1) - 1, which is exactly linear while one class
holds the support, and convex and decreasing for alpha <= 2, so its steps
from the lower bracket end never overshoot. One power per sweep,
w = z ** (1/(alpha-1) - 1), gives both S = sum(q*w*z) and S' = -sum(q*w).

The bracket [lo, hi] = [max_j (theta_j - f'(1/q_j)), theta_t - f'(1/sum(q))],
t = argmax theta, is kept: p_j = 1 at theta_j - f'(1/q_j) and S >= p_j, so
every class bounds tau from below. A step that leaves it is replaced by a
bisection step (alpha > 2 makes phi concave near the root). q is a (B, k)
measure or, with labels ys, the (B,) target weights of a measure 1 elsewhere.

Each row is summed on its own, in column order, with the same operations
whatever the other rows of its group are, so a row of `posterior_batch` or
`posterior_support` is bitwise the one-row solve of the same inputs.
"""

import numpy as np

from .errors import SolverError

# Recorded in the benchmark's environment stamp.
BACKEND = "python"

# Stop as soon as the residual is this close to zero, even if the bracket
# is still wider than the width tolerance.
RESIDUAL_TOL = 1e-12

# A posterior row must sum to 1 within this.
SUM_TOL = 1e-8

# Rows per block: bounds the one (rows, k) temporary of a block's set-up, the
# candidate mask. A sweep group holds at most BLOCK_ROWS * k candidates, or one block.
BLOCK_ROWS = 256


def _weights(z, q, e):
    """(q*w, q*w*z) with w = z**e where z > 0 and 0 where z <= 0."""
    zp = np.maximum(z, 0.0)
    if e == 0.0:  # alpha = 2; 0**0 would be 1
        qw = np.where(z > 0.0, q, 0.0)
    elif e == 3.0:  # alpha = 1.25, two products in place of a power
        qw = q * (zp * zp * zp)
    elif e > 0.0:
        qw = q * zp**e
    else:  # alpha > 2: a negative power of the clipped zeros would be inf
        pos = z > 0.0
        qw = np.where(pos, q * np.where(pos, z, 1.0) ** e, 0.0)
    return qw, qw * zp


def f_prime_inv(log_q, alpha):
    """f'(1/q) of f'(u) = (u**(alpha-1) - 1)/(alpha-1) from log q, as expm1: the solver's f'."""
    return np.expm1(-(alpha - 1.0) * log_q) / (alpha - 1.0)


def _bracket(theta, q, alpha, ys=None):
    """[max_j (theta_j - f'(1/q_j)), theta_t - f'(1/sum(q))] per row, t = argmax theta. With
    labels ys and target weights q, off-target q_j = 1 (f'(1) = 0) and sum(q) = (k - 1) + q_y."""
    rows, t = np.arange(len(theta)), theta.argmax(axis=1)
    top = theta[rows, t]
    if ys is None:
        lo, q_sum = (theta - f_prime_inv(np.log(q), alpha)).max(axis=1), q.sum(axis=1)
    else:  # the target's term, and the largest off-target logit where the target is the argmax
        tgt, q_sum = theta[rows, ys] - f_prime_inv(np.log(q), alpha), (theta.shape[1] - 1) + q
        lo = np.maximum(top, tgt)
        own = np.flatnonzero((t == ys) & (tgt < top))
        off = theta[own]
        off[np.arange(len(own)), ys[own]] = -np.inf
        lo[own] = np.maximum(off.max(axis=1), tgt[own])
    return lo, top - f_prime_inv(np.log(q_sum), alpha)


# a non-finite bracket fails the sum check, and a non-finite step is replaced by bisection
@np.errstate(all="ignore")
def _candidates(theta, q, alpha, ys):
    """A C-contiguous (b, k) block's bracket ends, whether they are finite, and the
    row, column, logit and weight of each candidate: tau never falls below lo, and a
    column at or below the double under fl(lo - c), c >= 1/(alpha-1), has z <= 0
    there in doubles. A row with a non-finite bracket has no candidates."""
    am1 = alpha - 1.0
    lo, hi = _bracket(theta, q, alpha, ys)
    finite = np.isfinite(lo) & np.isfinite(hi)
    floor = np.nextafter(lo - (1.0 / am1) * (1.0 + 2.0**-50), -np.inf)  # am1 * c >= 1 exactly
    at = (theta > np.where(finite, floor, np.inf)[:, None]).reshape(-1).nonzero()[0]
    row, col = np.divmod(at, theta.shape[1])
    q_c = q.reshape(-1)[at] if ys is None else np.where(col == ys[row], q[row], 1.0)
    return lo, hi, finite, row, col, theta.reshape(-1)[at], q_c


@np.errstate(all="ignore")
def _sweep(group, start, k, alpha, tol, max_iters):
    """One sweep loop over a group of _candidates blocks of k columns, rows numbered
    within it, that starts at row start: its support (rows, cols, vals) and taus.
    Candidates clipped later add exact zeros; from the tight lo they are close to
    the final support, so all are kept. A row fails iff its written values do not
    sum to 1 within SUM_TOL: a non-finite bracket leaves it no candidates,
    max_iters sweeps leave it unwritten, and at alpha > 2 a class near its clip
    can hold more mass than any double tau resolves."""
    am1 = alpha - 1.0
    e = 1.0 / am1 - 1.0
    lo0, hi0, finite, crow, cols, th_c, q_c = (
        group[0] if len(group) == 1 else map(np.concatenate, zip(*group))
    )
    b = len(lo0)
    lo, hi, tau, live = lo0, hi0, lo0, finite  # the sweeps overwrite lo, hi of dead rows too
    vals, taus = np.zeros(len(th_c)), np.empty(b)

    for _ in range(max_iters if np.count_nonzero(live) else 0):  # no finite bracket, no sweep
        z = 1.0 + am1 * (th_c - tau[crow])
        qw, qwz = _weights(z, q_c, e)
        S = np.bincount(crow, qwz, b)
        r = S - 1.0
        up = r > 0.0
        lo = np.where(up, tau, lo)
        hi = np.where(up, hi, tau)
        # tau - phi/phi' with phi' = -(alpha-1) * S**(alpha-2) * sum(q*w)
        newton = tau + (S - S ** (2.0 - alpha)) / (am1 * np.bincount(crow, qw, b))
        dev = np.abs(r)
        done = live & (
            (dev <= RESIDUAL_TOL)
            # a narrow bracket ends the solve once its posterior is valid
            | ((hi - lo <= tol) & (dev <= SUM_TOL))
            | (newton == tau)  # the step is below half an ulp of tau
            | (np.nextafter(lo, hi) == hi)  # no double inside the bracket
        )
        if np.count_nonzero(done):
            np.copyto(vals, qwz, where=done[crow])
            taus[done] = tau[done]
            live = live & ~done  # not in place: live starts as finite
            if not np.count_nonzero(live):
                break
        tau = np.where((lo < newton) & (newton <= hi), newton, 0.5 * (lo + hi))

    ok = np.abs(np.bincount(crow, vals, b) - 1.0) <= SUM_TOL
    if ok.all():
        return crow + start if start else crow, cols, vals, taus
    i = np.flatnonzero(~ok)[0]
    out_of_range = "(logits or reference measure out of the solver's range)"
    if not finite[i]:
        why = f"bracket [{float(lo0[i])!r}, {float(hi0[i])!r}] is not finite " + out_of_range
    elif live[i]:
        why = (
            f"solver did not converge in {max_iters} iterations (bracket width "
            f"{hi[i] - lo[i]:.3e}, tol {tol:.3e}, posterior sum {float(S[i])!r})"
        )
    else:  # summed as its dense row is
        p = np.zeros(k)
        p[cols[crow == i]] = vals[crow == i]
        why = f"posterior sums to {float(p.sum())!r}, not 1: no double tau normalizes it "
        why += out_of_range
    raise SolverError(f"row {start + i}: {why}")


def posterior_support(blocks, alpha, tol, max_iters):
    """Row-wise alpha-softargmax of (theta, q, ys) blocks of k columns, each as
    posterior_batch takes them, rows numbered on across blocks. Yields, per group
    of blocks, the support (rows, cols, vals) of its candidates, every other
    entry 0, and the taus of its rows. A group ends before its candidates would
    pass BLOCK_ROWS * k."""
    group, size, first, start = [], 0, 0, 0
    for theta, q, ys in blocks:
        (b, k), block = theta.shape, _candidates(theta, q, alpha, ys)
        if group and size + len(block[4]) > BLOCK_ROWS * k:
            yield _sweep(group, first, k, alpha, tol, max_iters)
            group, size, first = [], 0, start
        if start > first:  # number the block's rows within its group
            np.add(block[3], start - first, out=block[3])
        group.append(block)
        size, start = size + len(block[4]), start + b
    if group:
        yield _sweep(group, first, k, alpha, tol, max_iters)


def posterior_batch(theta, q, alpha, tol, max_iters, ys=None):
    """Row-wise alpha-softargmax of (B, k) logits theta at q (and ys): posterior_support
    on its BLOCK_ROWS-row blocks, scattered into a zeroed P. Returns (P, taus)."""
    theta = np.ascontiguousarray(theta, dtype=np.float64)
    q = np.ascontiguousarray(q, dtype=np.float64)
    ys = ys if ys is None else np.asarray(ys)
    P, taus = None, np.empty(len(theta))
    cut = [slice(s, s + BLOCK_ROWS) for s in range(0, len(theta), BLOCK_ROWS)]
    blocks = ((theta[r], q[r], ys if ys is None else ys[r]) for r in cut)
    start = 0
    for rows, cols, vals, t in posterior_support(blocks, alpha, tol, max_iters):
        P = np.zeros(theta.shape) if P is None else P  # after a solve's temporaries are freed
        P[rows, cols], taus[start:start + len(t)] = vals, t
        start += len(t)
    return np.zeros(theta.shape) if P is None else P, taus


def posterior(theta, q, alpha, tol, max_iters):
    """Dense alpha-softargmax of one logit vector: the one-row batch. Returns (p, tau)."""
    theta, q = np.asarray(theta).reshape(1, -1), np.asarray(q).reshape(1, -1)
    P, taus = posterior_batch(theta, q, alpha, tol, max_iters)
    return P[0], taus[0]
