"""Verification scoring and diagnostics: trial scoring, FRR@FAR, DET curves
and the sparsity/misalignment statistics of trained models.

The FRR@FAR and DET sweeps are O(n log n): the scores are sorted once and
FAR(t) and FRR(t) counted at every threshold by binary search. Impostor
sampling and trial scoring are whole-array operations.

Tie handling: impostor scores equal to the threshold count as accepted
(>= comparison). Thresholds are observed scores. FAR targets below
1/|impostor|, or below the FAR of tied top impostor scores, raise
UnattainableFARError instead of extrapolating.
"""

from dataclasses import asdict, dataclass

import numpy as np

from . import losses
from .errors import UnattainableFARError


@dataclass
class TrialScoreSet:
    genuine: np.ndarray
    impostor: np.ndarray

    def __post_init__(self):
        self.genuine = np.asarray(self.genuine, dtype=np.float64)
        self.impostor = np.asarray(self.impostor, dtype=np.float64)
        if not (np.all(np.isfinite(self.genuine)) and np.all(np.isfinite(self.impostor))):
            raise ValueError("trial scores must be finite")


@dataclass
class SparsityReport:
    misaligned_identity_fraction: float
    misaligned_image_fraction: float
    posterior_sparsity: float
    onehot_fraction: float

    def to_dict(self):
        return asdict(self)


def make_trials(labels, n_genuine, n_impostor, seed):
    """Sample (i, j, is_genuine) index pairs from a label vector. Impostor
    pairs are drawn in bulk; the PCG64 stream does not depend on the chunking,
    so they are those of one rng.integers(n, size=2) call per pair."""
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
    counts = np.unique(labels, return_counts=True)[1]
    if n_impostor > 0 and len(counts) < 2:
        raise ValueError("fewer than 2 identities; cannot build impostor trials")
    accept = 1.0 - np.sum((counts / n) ** 2)  # P(a random pair has two labels)
    made = 0
    while made < n_impostor:
        need = n_impostor - made  # 10% spare rows: one draw nearly always suffices
        pairs = rng.integers(n, size=(int(need / accept * 1.1) + 16, 2))
        pairs = pairs[labels[pairs[:, 0]] != labels[pairs[:, 1]]][:need]
        trials.extend((i, j, False) for i, j in pairs.tolist())
        made += len(pairs)
    return trials


def score_trials(embeddings, trials) -> TrialScoreSet:
    """Cosine scores for (i, j, is_genuine) trials over unit-norm embeddings."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    n = embeddings.shape[0]
    if len(trials) == 0:
        return TrialScoreSet(genuine=np.array([]), impostor=np.array([]))
    i, j, same = (np.array(col) for col in zip(*trials))
    bad = np.flatnonzero(~((0 <= i) & (i < n) & (0 <= j) & (j < n)))
    if bad.size:
        i, j, _ = trials[bad[0]]
        raise IndexError(f"trial index ({i}, {j}) out of range for {n} embeddings")
    # one ddot per pair, as embeddings[i] @ embeddings[j]
    s = np.matmul(embeddings[i][:, None, :], embeddings[j][:, :, None])[:, 0, 0]
    same = same.astype(bool)
    return TrialScoreSet(genuine=s[same], impostor=s[~same])


def _require_both_kinds(scores):
    if len(scores.genuine) == 0 or len(scores.impostor) == 0:
        raise ValueError("both genuine and impostor score lists must be nonempty")


def _far_frr(scores, thresholds):
    """FAR(t) = #{impostor >= t} / n_imp and FRR(t) = #{genuine < t} / n_gen
    at each threshold, by binary search in the sorted scores. Exact counts
    over n, so bitwise the mean of the boolean masks."""
    genuine = np.sort(scores.genuine)
    impostor = np.sort(scores.impostor)
    n_imp = len(impostor)
    far = (n_imp - np.searchsorted(impostor, thresholds, "left")) / n_imp
    frr = np.searchsorted(genuine, thresholds, "left") / len(genuine)
    return far, frr


def frr_at_far(scores: TrialScoreSet, far_target: float):
    """Smallest threshold whose FAR is <= far_target, and the FRR there.

    FAR(t) = fraction of impostor scores >= t; FRR(t) = fraction of genuine
    scores < t. Thresholds are swept over the observed impostor scores, the
    points where FAR actually changes (resolution 1/|impostor|).
    """
    _require_both_kinds(scores)
    if not 0.0 < far_target <= 1.0:
        raise ValueError(f"far_target must be in (0, 1], got {far_target}")
    n_imp = len(scores.impostor)
    if far_target < 1.0 / n_imp:
        raise UnattainableFARError(
            f"FAR target {far_target:g} is below the 1/{n_imp} resolution of the impostor set"
        )
    thresholds = np.unique(scores.impostor)
    far, frr = _far_frr(scores, thresholds)
    hit = np.flatnonzero(far <= far_target)
    if hit.size == 0:
        # a duplicated maximum impostor score can leave every candidate above target
        raise UnattainableFARError(
            f"no impostor-score threshold reaches FAR <= {far_target:g} "
            "(tied scores at the top of the impostor list)"
        )
    return float(frr[hit[0]]), float(thresholds[hit[0]])


def det_points(scores: TrialScoreSet):
    """DET sweep: (far, frr, threshold) rows sorted by far ascending."""
    _require_both_kinds(scores)
    # descending threshold -> ascending FAR
    thresholds = np.unique(np.concatenate([scores.genuine, scores.impostor]))[::-1]
    far, frr = _far_frr(scores, thresholds)
    return list(zip(far.tolist(), frr.tolist(), thresholds.tolist()))


def write_det_csv(rows, path):
    """CSV with a header and repr-formatted rows, byte for byte what
    csv.writer writes: a float repr never needs quoting; lines end in CRLF."""
    lines = ["far,frr,threshold"] + [f"{far!r},{frr!r},{t!r}" for far, frr, t in rows]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def avg_relative_improvement(det_ours, det_base, far_lo, far_hi, n_grid=50):
    """Trapezoidal average over log-FAR of (frr_base - frr_ours) / frr_base.

    Convention for the 'average improvement over a FAR interval' summary; the
    DET curves are interpolated on a shared log-spaced FAR grid.
    """

    def interp(det, grid):
        fars = np.array([r[0] for r in det])
        frrs = np.array([r[1] for r in det])
        order = np.argsort(fars)
        return np.interp(grid, fars[order], frrs[order])

    grid = np.logspace(np.log10(far_lo), np.log10(far_hi), n_grid)
    ours = interp(det_ours, grid)
    base = interp(det_base, grid)
    ok = base > 0
    rel = np.zeros_like(base)
    rel[ok] = (base[ok] - ours[ok]) / base[ok]
    return float(np.trapezoid(rel, np.log10(grid)) / (np.log10(far_hi) - np.log10(far_lo)))


def sparsity_report(embeddings, labels, prototypes, loss_cfg, params) -> SparsityReport:
    """Misalignment (p_y = 0) and sparsity statistics of the loss posterior.

    Zeros are exact zeros from the solver's clip; no epsilon pruning. For the
    dense baseline losses every statistic except onehot_fraction is zero by
    construction.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    C = embeddings @ prototypes.T
    P = losses.batch_posteriors(C, labels, loss_cfg, params)
    n, k = P.shape
    rows = np.arange(n)
    py_zero = P[rows, labels] == 0.0
    nnz = np.count_nonzero(P, axis=1)
    misaligned_images = float(np.mean(py_zero))
    ids = np.unique(labels)
    all_zero = [bool(np.all(py_zero[labels == y])) for y in ids]
    return SparsityReport(
        misaligned_identity_fraction=float(np.mean(all_zero)),
        misaligned_image_fraction=misaligned_images,
        posterior_sparsity=float(np.mean((k - nnz) / k)),
        onehot_fraction=float(np.mean(nnz == 1)),
    )
