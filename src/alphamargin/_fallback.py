"""Pure-numpy backend for the alpha-softargmax solver.

Mirrors the compiled extension in alphamargin._kernels; used when the
extension is not built. Same bracketing, same termination rules, so the
two backends agree to solver tolerance.

`posterior_batch` is bitwise equal to calling `posterior` on each row: it
runs the bisection of `solve_tau` on blocks of rows at once, with the same
floating-point operations per row, the same exits and the same
`SolverError`s, for finite inputs.
"""

import numpy as np

from .errors import SolverError

# Stop as soon as the residual is this close to zero, even if the bracket
# is still wider than the width tolerance.
RESIDUAL_TOL = 1e-12

# Rows solved together by posterior_batch; bounds its (rows, k) temporaries.
BLOCK_ROWS = 128

# posterior_batch drops clipped candidate columns every this many sweeps,
# and whenever rows exit.
_PRUNE_EVERY = 4


def _f_prime(u, alpha):
    return (u ** (alpha - 1.0) - 1.0) / (alpha - 1.0)


def _clip_pow(z, inv_am1):
    # [z]_+ ** (1/(alpha-1)) with the z <= 0 branch producing an exact zero
    out = np.zeros_like(z)
    pos = z > 0.0
    out[pos] = z[pos] ** inv_am1
    return out


def solve_tau(theta, q, alpha, tol, max_iters):
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


def posterior(theta, q, alpha, tol, max_iters):
    """Dense alpha-softargmax of one logit vector. Returns (p, tau)."""
    tau = solve_tau(theta, q, alpha, tol, max_iters)
    am1 = alpha - 1.0
    p = q * _clip_pow(1.0 + am1 * (theta - tau), 1.0 / am1)
    return p, tau


def _f_prime_rows(u, alpha):
    # _f_prime per entry with the scalar pow of solve_tau: numpy's array pow
    # may round differently from the C pow that scalars use.
    am1 = alpha - 1.0
    return (np.array([x ** am1 for x in u.tolist()]) - 1.0) / am1


def _solve_tau_block(theta, q, alpha, tol, max_iters):
    """`solve_tau` on every row of a C-contiguous (b, k) block.

    Returns (taus, errors); errors maps a row to the message `solve_tau`
    raises for it. The residual of a row is evaluated on its candidate
    columns only: those with z(L) = 1 + (alpha-1)*(theta - L) > 0, where L
    is the row's lower bracket end. z is nonincreasing in tau under
    rounding and L only rises, so every other column stays clipped to
    exactly zero. The candidate terms are scattered into a zeroed (rows, k)
    buffer, so each row sum adds the same values in the same places as the
    1-D sum of `solve_tau`.
    """
    am1 = alpha - 1.0
    inv_am1 = 1.0 / am1
    b, k = theta.shape
    taus = np.empty(b)
    errors = {}

    rows = np.arange(b)
    t = np.argmax(theta, axis=1)
    lo = theta[rows, t] - _f_prime_rows(1.0 / q[rows, t], alpha)
    hi = theta[rows, t] - _f_prime_rows(1.0 / q.sum(axis=1), alpha)
    same = lo == hi
    taus[same] = lo[same]
    act = np.flatnonzero(~same)
    lo, hi = lo[act], hi[act]

    # Candidates at L = min(lo, hi): every mid lies in [min, max] of the
    # bracket, and the minimum never falls.
    crow, col = np.nonzero(1.0 + am1 * (theta[act] - np.minimum(lo, hi)[:, None]) > 0.0)
    th_c = theta[act[crow], col]
    q_c = q[act[crow], col]
    at = crow * k + col
    buf = np.zeros((len(act), k))
    flat = buf.reshape(-1)

    def residual(tau):
        z = 1.0 + am1 * (th_c - tau[crow])
        # pow(0, e) is exactly 0, so this is _clip_pow on the candidates
        flat[at] = q_c * np.maximum(z, 0.0) ** inv_am1
        r = buf[: len(tau)].sum(axis=1) - 1.0
        flat[at] = 0.0
        return r, z

    r_lo, _ = residual(lo)
    r_hi, _ = residual(hi)
    bad = (r_lo < -1e-9) | (r_hi > 1e-9)
    for i in np.flatnonzero(bad):
        errors[act[i]] = (
            f"bracket residuals have the same sign (r_lo={r_lo[i]:.3e}, r_hi={r_hi[i]:.3e}); "
            "upstream invariant violated"
        )
    at_lo = ~bad & (np.abs(r_lo) <= RESIDUAL_TOL)
    at_hi = ~bad & ~at_lo & (np.abs(r_hi) <= RESIDUAL_TOL)
    taus[act[at_lo]] = lo[at_lo]
    taus[act[at_hi]] = hi[at_hi]
    stay = ~(bad | at_lo | at_hi)

    z = None
    for sweep in range(max_iters):
        if sweep % _PRUNE_EVERY == 0 or not stay.all():
            keep = stay[crow]
            if z is not None:
                # where L rose to the last mid, the columns clipped there stay clipped
                keep &= (z > 0.0) | (np.minimum(lo, hi) != mid)[crow]
            act, lo, hi = act[stay], lo[stay], hi[stay]
            crow = (np.cumsum(stay) - 1)[crow[keep]]
            col, th_c, q_c = col[keep], th_c[keep], q_c[keep]
            at = crow * k + col
            if not len(act):
                break
        mid = 0.5 * (lo + hi)
        r, z = residual(mid)
        hit = np.abs(r) <= RESIDUAL_TOL
        up = r > 0.0
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
        width = hi - lo <= tol
        stay = ~(hit | width)
        if not stay.all():
            width &= ~hit
            taus[act[hit]] = mid[hit]
            taus[act[width]] = 0.5 * (lo[width] + hi[width])
    else:
        act, lo, hi = act[stay], lo[stay], hi[stay]
        for i, row in enumerate(act):
            errors[row] = (
                f"bisection did not converge in {max_iters} iterations "
                f"(bracket width {hi[i] - lo[i]:.3e} > tol {tol:.3e})"
            )
    return taus, errors


def posterior_batch(theta, q, alpha, tol, max_iters):
    """Row-wise alpha-softargmax. theta and q are (B, k). Returns (P, taus).

    Bitwise equal to `posterior` row by row, and raises the `SolverError`
    that the first failing row would raise there.
    """
    B, k = theta.shape
    am1 = alpha - 1.0
    P = np.empty((B, k))
    taus = np.empty(B)
    for start in range(0, B, BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        th = np.ascontiguousarray(theta[rows], dtype=np.float64)
        qb = np.ascontiguousarray(q[rows], dtype=np.float64)
        taus[rows], errors = _solve_tau_block(th, qb, alpha, tol, max_iters)
        if errors:
            raise SolverError(errors[min(errors)])
        P[rows] = qb * _clip_pow(1.0 + am1 * (th - taus[rows, None]), 1.0 / am1)
    return P, taus
