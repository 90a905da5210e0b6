"""The alpha-softargmax solver: safeguarded Newton on the normalizing shift tau.

posterior_batch solves (B, k) rows and raises SolverError naming the first
failing row; posterior is its one-row batch. A row fails iff its written
posterior does not sum to 1 within SUM_TOL, and every kind of failure ends
that way.

For logits theta, reference measure q and alpha > 1 the posterior is
p_j = q_j * [z_j]_+ ** (1/(alpha-1)) with z_j = 1 + (alpha-1)*(theta_j - tau),
and tau is the root of S(tau) = sum(p) = 1. Newton runs on
phi(tau) = S(tau)**(alpha-1) - 1, which is exactly linear while one class
holds the support, and convex and decreasing for alpha <= 2, so its steps
from the lower bracket end never overshoot. One power per sweep,
w = z ** (1/(alpha-1) - 1), gives both S = sum(q*w*z) and S' = -sum(q*w).

The bracket [lo, hi] = [theta_t - f'(1/q_t), theta_t - f'(1/sum(q))] for
t = argmax theta is kept, and a step that leaves it is replaced by a
bisection step (alpha > 2 makes phi concave near the root).

Each row is summed on its own, in column order, with the same operations
whatever the other rows of the batch are, so a row of `posterior_batch` is
bitwise the one-row solve of the same inputs.
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

# Rows solved together by posterior_batch; bounds its (rows, k) temporaries.
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


def _bracket(theta, q, alpha):
    """[theta_t - f'(1/q_t), theta_t - f'(1/sum(q))] per row, t = argmax theta."""
    t = (np.arange(len(theta)), np.argmax(theta, axis=1))
    lo = theta[t] - f_prime_inv(np.log(q[t]), alpha)
    return lo, theta[t] - f_prime_inv(np.log(q.sum(axis=1)), alpha)


def _solve_block(theta, q, alpha, tol, max_iters, P, taus, start):
    """Solve the rows of a C-contiguous (b, k) block into P (zeroed) and taus.

    A sweep at tau sums only the row's candidate columns, those with z > 0 at
    its lower bracket end: tau never falls below it, so every other column
    stays clipped. A row fails iff its written posterior does not sum to 1
    within SUM_TOL, and every kind of failure ends that way: a non-finite
    bracket leaves the row no candidates, max_iters sweeps leave it unwritten,
    and at alpha > 2 a class near its clip can hold more mass than any double
    tau resolves. Raises SolverError for the first, as row start + i.
    """
    am1 = alpha - 1.0
    e = 1.0 / am1 - 1.0
    b, k = theta.shape
    lo0, hi0 = _bracket(theta, q, alpha)  # the sweeps overwrite lo, hi of dead rows too
    finite = np.isfinite(lo0) & np.isfinite(hi0)
    lo, hi, tau, live = lo0, hi0, lo0, finite
    at = np.flatnonzero((1.0 + am1 * (theta - lo0[:, None]) > 0.0) & finite[:, None])
    crow = at // k
    th_c = theta.reshape(-1)[at]
    q_c = q.reshape(-1)[at]
    P_flat = P.reshape(-1)

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
            fin = done[crow]
            P_flat[at[fin]] = qwz[fin]
            taus[done] = tau[done]
            live = live & ~done  # not in place: live starts as finite
            if not np.count_nonzero(live):
                break
            # drop the finished rows, and the columns clipped at a new lower end
            keep = np.flatnonzero(~fin & ((z > 0.0) | ~up[crow]))
            crow, at, th_c, q_c = crow[keep], at[keep], th_c[keep], q_c[keep]
        tau = np.where((lo < newton) & (newton <= hi), newton, 0.5 * (lo + hi))

    totals = P.sum(axis=1)
    failed = np.flatnonzero(~(np.abs(totals - 1.0) <= SUM_TOL))
    if not failed.size:
        return
    i = failed[0]
    out_of_range = "(logits or reference measure out of the solver's range)"
    if not finite[i]:
        why = f"bracket [{float(lo0[i])!r}, {float(hi0[i])!r}] is not finite " + out_of_range
    elif live[i]:
        why = (
            f"solver did not converge in {max_iters} iterations (bracket width "
            f"{hi[i] - lo[i]:.3e}, tol {tol:.3e}, posterior sum {float(S[i])!r})"
        )
    else:
        why = (
            f"posterior sums to {float(totals[i])!r}, not 1: no double tau normalizes it "
            + out_of_range
        )
    raise SolverError(f"row {start + i}: {why}")


def posterior_batch(theta, q, alpha, tol, max_iters):
    """Row-wise alpha-softargmax. theta and q are (B, k). Returns (P, taus)."""
    theta = np.ascontiguousarray(theta, dtype=np.float64)
    q = np.ascontiguousarray(q, dtype=np.float64)
    B, k = theta.shape
    P = np.zeros((B, k))
    taus = np.empty(B)
    # a non-finite bracket fails the sum check, and a non-finite step is replaced by bisection
    with np.errstate(all="ignore"):
        for start in range(0, B, BLOCK_ROWS):
            rows = slice(start, start + BLOCK_ROWS)
            _solve_block(theta[rows], q[rows], alpha, tol, max_iters, P[rows], taus[rows], start)
    return P, taus


def posterior(theta, q, alpha, tol, max_iters):
    """Dense alpha-softargmax of one logit vector: the one-row batch. Returns (p, tau)."""
    theta, q = np.reshape(theta, (1, -1)), np.reshape(q, (1, -1))
    P, taus = posterior_batch(theta, q, alpha, tol, max_iters)
    return P[0], taus[0]
