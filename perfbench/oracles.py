"""Independent reference computations the benchmark checks the program against.

Each check returns a list of failure strings; an empty list means the output
passed. None of these call into the package.
"""

import numpy as np

SUM_TOL = 1e-8  # posterior rows sum to 1 within this
ORACLE_TOL = 1e-8  # max |P - oracle| at alpha = 2
CLIP_TOL = 1e-9  # |1 + (a-1)(theta - tau)| below this is too close to the clip to call


class Unattainable(Exception):
    """The oracle's counterpart of UnattainableFARError."""


def frr_at_far(genuine, impostor, far_target):
    """O(n log n) FRR@FAR: smallest observed impostor score t with
    FAR(t) = #{impostor >= t} / n <= far_target, and FRR(t) = #{genuine < t} / n.

    Raises Unattainable when far_target < 1/n or when no observed impostor
    score reaches the target (a tie at the top of the impostor list).
    """
    imp = np.sort(np.asarray(impostor, dtype=np.float64))
    gen = np.sort(np.asarray(genuine, dtype=np.float64))
    n_imp = imp.shape[0]
    if far_target < 1.0 / n_imp:
        raise Unattainable("below the 1/n resolution of the impostor set")
    thresholds = np.unique(imp)
    fars = (n_imp - np.searchsorted(imp, thresholds, side="left")) / n_imp
    ok = np.flatnonzero(fars <= far_target)
    if ok.size == 0:
        raise Unattainable("tied scores at the top of the impostor list")
    t = thresholds[ok[0]]
    return np.searchsorted(gen, t, side="left") / gen.shape[0], float(t)


def det_rates(genuine, impostor, thresholds):
    """(far, frr) at each threshold, with >= counting as accepted."""
    imp = np.sort(np.asarray(impostor, dtype=np.float64))
    gen = np.sort(np.asarray(genuine, dtype=np.float64))
    t = np.asarray(thresholds, dtype=np.float64)
    far = (imp.shape[0] - np.searchsorted(imp, t, side="left")) / imp.shape[0]
    frr = np.searchsorted(gen, t, side="left") / gen.shape[0]
    return far, frr


def check_det(rows, genuine, impostor):
    """DET rows: one per distinct score, thresholds descending, FAR ascending,
    FRR descending, and each rate equal to the counted one."""
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, 3)
    fails = []
    n_unique = np.unique(np.concatenate([genuine, impostor])).shape[0]
    if rows.shape[0] != n_unique:
        return [f"det: {rows.shape[0]} rows for {n_unique} distinct scores"]
    far, frr, t = rows.T
    if np.any(np.diff(t) >= 0.0):
        fails.append("det: thresholds are not strictly descending")
    if np.any(np.diff(far) < 0.0):
        fails.append("det: FAR is not monotone non-decreasing")
    if np.any(np.diff(frr) > 0.0):
        fails.append("det: FRR is not monotone non-increasing")
    ofar, ofrr = det_rates(genuine, impostor, t)
    if np.abs(ofar - far).max() > 1e-12 or np.abs(ofrr - frr).max() > 1e-12:
        fails.append("det: rates differ from the counted FAR/FRR at the row thresholds")
    return fails


def weighted_sparsemax(theta, q):
    """Exact alpha = 2 softargmax with reference measure q, sort based:
    p_j = q_j [1 + theta_j - tau]_+ with sum(p) = 1. For q = 1 this is sparsemax."""
    theta = np.asarray(theta, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    order = np.argsort(-theta, kind="stable")
    u, w = theta[order], q[order]
    cw = np.cumsum(w)
    cwu = np.cumsum(w * (1.0 + u))
    # support = largest prefix whose candidate tau keeps its last entry positive
    taus = (cwu - 1.0) / cw
    rho = np.flatnonzero(1.0 + u - taus > 0.0)[-1]
    return q * np.maximum(1.0 + theta - taus[rho], 0.0)


def check_posterior(p, theta, q, alpha):
    """A valid alpha-softargmax of (theta, q): non-negative, sums to 1, exact
    zeros exactly where the closed form clips, and at alpha = 2 equal to the
    sort-based oracle."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape != np.shape(theta):
        return [f"posterior: shape {p.shape} for {np.shape(theta)} logits"]
    fails = []
    if not np.all(np.isfinite(p)) or np.any(p < 0.0):
        fails.append("posterior: negative or non-finite entry")
        return fails
    if abs(p.sum() - 1.0) > SUM_TOL:
        fails.append(f"posterior: sums to {p.sum()!r}")
    # recover tau from the largest entry, then evaluate the clip argument
    am1 = alpha - 1.0
    j = int(np.argmax(p / q))
    tau = theta[j] - ((p[j] / q[j]) ** am1 - 1.0) / am1
    z = 1.0 + am1 * (theta - tau)
    zero = p == 0.0
    if np.any(zero & (z > CLIP_TOL)) or np.any(~zero & (z < -CLIP_TOL)):
        fails.append("posterior: zero pattern differs from the clip of the closed form")
    closed = q * np.maximum(z, 0.0) ** (1.0 / am1)
    dev = np.abs(p - closed).max()
    if dev > ORACLE_TOL:
        fails.append(f"posterior: {dev:.3e} from the closed form at the recovered tau")
    if alpha == 2.0:
        dev = np.abs(p - weighted_sparsemax(theta, q)).max()
        if dev > ORACLE_TOL:
            fails.append(f"posterior: {dev:.3e} from the sort-based sparsemax oracle")
    return fails
