"""Verification scoring and diagnostics: trial scoring, FRR@FAR, DET curves
and the sparsity/misalignment statistics of trained models.

Trials are one structured array of TRIAL_DTYPE, fields i, j (int64
embedding indices) and genuine (bool), from sampling to scoring; iterating
it yields (i, j, genuine) rows and .tolist() gives them as Python tuples.
Genuine and impostor pairs are drawn in bulk, SCORE_BLOCK genuine pairs at
a time, and equal those of the per-pair rng.integers + rng.choice loop
bit for bit. Trials are scored SCORE_BLOCK pairs at a time, so sampling and
scoring hold O(n_trials + SCORE_BLOCK * d) memory.

The FRR@FAR and DET sweeps are O(n log n): each score set is sorted once,
however many sweeps read it, and FAR(t) and FRR(t) are counted at every
threshold by binary search. The DET sweep is an (m, 3) float array, written
to CSV SCORE_BLOCK rows at a time, column by column.

The sparsity report builds cosines and logits backend.BLOCK_ROWS rows at a
time and keeps two numbers per row (p_y = 0, nonzeros), for the margin losses
read off the solver's support a sweep group (<= BLOCK_ROWS * k candidates) at
a time: O(n + BLOCK_ROWS * k) memory, never an (n, k) matrix.

Tie handling: impostor scores equal to the threshold count as accepted
(>= comparison). Thresholds are observed scores. FAR targets below
1/|impostor|, or below the FAR of tied top impostor scores, raise
UnattainableFARError instead of extrapolating.
"""

from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from . import backend, core, losses
from .errors import UnattainableFARError


@dataclass(frozen=True)
class TrialScoreSet:
    """Genuine and impostor scores. Frozen: the sweeps share sorts computed
    once per score set."""

    genuine: np.ndarray
    impostor: np.ndarray

    def __post_init__(self):
        for name in ("genuine", "impostor"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if not (np.all(np.isfinite(self.genuine)) and np.all(np.isfinite(self.impostor))):
            raise ValueError("trial scores must be finite")

    @cached_property
    def _sorted(self):
        """(genuine, impostor), each sorted ascending."""
        return np.sort(self.genuine), np.sort(self.impostor)

    @cached_property
    def _impostor_sweep(self):
        """The distinct impostor scores ascending, and FAR and FRR at each.

        The scores are np.unique(impostor) bit for bit, the ±0.0
        representative included: np.unique keeps the first of each run of
        equal values of the same sort.
        """
        imp = self._sorted[1]
        thresholds = imp[np.r_[True, imp[1:] != imp[:-1]]]
        return (thresholds, *_far_frr(self, thresholds))


@dataclass
class SparsityReport:
    misaligned_identity_fraction: float
    misaligned_image_fraction: float
    posterior_sparsity: float
    onehot_fraction: float

    def to_dict(self):
        return asdict(self)


# One trial per element: embedding indices i, j and whether they share an identity.
TRIAL_DTYPE = np.dtype([("i", np.int64), ("j", np.int64), ("genuine", np.bool_)])

# Indices that do not fit int64 keep their Python ints; no embedding set is that large.
_WIDE_TRIAL_DTYPE = np.dtype([("i", object), ("j", object), ("genuine", np.bool_)])

# Pairs scored per stacked matmul, and DET rows formatted per write: bounds
# score_trials' two (block, d) gathers and write_det_csv's strings.
SCORE_BLOCK = 1 << 12


def as_trials(rows):
    """(i, j, is_genuine) rows as a trial array; a trial array is returned as is."""
    if isinstance(rows, np.ndarray) and rows.dtype.names == TRIAL_DTYPE.names:
        return rows
    rows = [tuple(row) for row in rows]
    if not all(isinstance(x, (int, np.integer)) for row in rows for x in row[:2]):
        raise IndexError("trial indices must be integers")
    try:
        return np.array(rows, dtype=TRIAL_DTYPE)
    except OverflowError:
        return np.array(rows, dtype=_WIDE_TRIAL_DTYPE)


def _lemire(words, at, r):
    """numpy's 32-bit Lemire draw in [0, r) (r >= 2) from words[at] on: the
    index of the word it accepts and the value. A word is rejected while the
    low half of word * r is below 2**32 % r; a draw that runs past the block
    stops there, and the caller drops it."""
    r = np.broadcast_to(np.asarray(r, np.uint64), at.shape)
    threshold = (1 << 32) % r
    m = words.take(at, mode="clip") * r
    bad = np.flatnonzero((m & 0xFFFFFFFF) < threshold)
    while bad.size:
        at[bad] += 1
        bad = bad[at[bad] < len(words)]
        m[bad] = words[at[bad]] * r[bad]
        bad = bad[(m[bad] & 0xFFFFFFFF) < threshold[bad]]
    return at, (m >> 32).astype(np.int64)


def _genuine_pairs(rng, members, first, size, n_pairs):
    """The (n_pairs, 2) pairs members[first[grp] + (i, j)] of n_pairs rounds of
    grp = rng.integers(len(size)) and i, j = rng.choice(size[grp], 2,
    replace=False), with rng advanced past them.

    A round is numpy's 32-bit Lemire draws (a range of 1 takes no word) on
    successive next_uint32 words: the group, Floyd's draws in [0, g - 1) and
    [0, g), and a shuffle draw in [0, 2) that swaps the pair on 0. The words
    are read from rng, up to SCORE_BLOCK rounds at a time, as
    integers(2**32, dtype=uint32) gives them; each word is mapped as if a
    round started there, and pointer doubling finds the round starts. rng is
    never read past the last round: a pass reads no more words than its
    rounds take at the least, and the words of a round that ran past them
    are carried to the next pass. tests/test_evalkit.py pins these numpy
    facts.
    """
    least = int(len(size) > 1) + 2 + int(size.min() > 2)  # words a round takes, bar rejections
    out = np.empty((n_pairs, 2), np.int64)
    words = np.empty(0, np.uint64)
    done = 0
    while done < n_pairs:
        take = min(n_pairs - done, SCORE_BLOCK)
        # the carried round takes more words than were carried, each later one least or more
        fresh = max(len(words) + 1, least) + least * (take - 1) - len(words)
        words = np.concatenate([words, rng.integers(1 << 32, size=fresh, dtype=np.uint32)])
        at = np.arange(len(words))
        grp = np.zeros(len(words), np.int64)
        if len(size) > 1:
            at, grp = _lemire(words, at, len(size))
            at += 1
        g = size[grp]
        i = np.zeros(len(words), np.int64)
        big = np.flatnonzero(g > 2)
        at[big], i[big] = _lemire(words, at[big], g[big] - 1)
        at[big] += 1
        at, j = _lemire(words, at, g)
        same = j == i  # Floyd: a repeat draw takes the top index instead
        j[same] = g[same] - 1
        swap = words.take(at + 1, mode="clip") < 1 << 31
        # round k starts at word nxt^k(0); a round past the block leads to W + 1, which stays put
        W = len(words)
        nxt = np.r_[np.minimum(at + 2, W + 1), W + 1, W + 1]
        starts = np.zeros(take + 1, np.int64)
        known = 1
        while known <= take:  # pointer doubling: nxt holds nxt^known
            starts[known:2 * known] = nxt[starts[:min(known, take + 1 - known)]]
            nxt, known = nxt[nxt], 2 * known
        s = starts[:-1][starts[1:] <= W]
        lo, hi = np.where(swap[s], j[s], i[s]), np.where(swap[s], i[s], j[s])
        out[done:done + len(s)] = members[first[grp[s]][:, None] + np.column_stack([lo, hi])]
        words = words[int(starts[len(s)]):]
        done += len(s)
    return out


def make_trials(labels, n_genuine, n_impostor, seed):
    """Sample trials from a label vector: n_genuine pairs of two images of one
    identity, then n_impostor pairs of two identities, as a TRIAL_DTYPE array.

    Both kinds are drawn in bulk, bit for bit the pairs of the per-pair loop
    over rng = default_rng(seed), a Generator seed included: per genuine
    pair, grp = rng.integers(len(multi)) over the identities with two or more
    images in order of first appearance, then rng.choice(len(grp), 2,
    replace=False) over its images in index order; per impostor pair,
    rng.integers(n, size=2), kept if the two labels differ. Neither draw
    reads rng past the loop's last word: each impostor round draws only the
    candidates still needed, and each candidate gives at most one pair. So a
    Generator seed ends where the loop leaves it.
    """
    labels = np.asarray(labels)
    n = len(labels)
    rng = np.random.default_rng(seed)
    members = np.argsort(labels, kind="stable")  # each identity's images, ascending
    ordered = labels[members]
    first = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]][:n])
    counts = np.diff(np.r_[first, n])
    by_appearance = np.argsort(members[first])
    multi = by_appearance[counts[by_appearance] >= 2]
    if not multi.size:
        raise ValueError("no identity has >= 2 samples; cannot build genuine trials")
    if n_impostor > 0 and len(counts) < 2:
        raise ValueError("fewer than 2 identities; cannot build impostor trials")
    sizes = counts[multi].astype(np.uint64)
    chunks = [_genuine_pairs(rng, members, first[multi], sizes, n_genuine)]
    made = 0
    while made < n_impostor:
        draw = rng.integers(n, size=(n_impostor - made, 2))
        kept = np.flatnonzero(labels[draw[:, 0]] != labels[draw[:, 1]])
        chunks.append(draw.take(kept, axis=0))  # take gathers rows ~10x faster than draw[kept]
        made += len(kept)
    ij = np.concatenate(chunks)
    trials = np.zeros(len(ij), TRIAL_DTYPE)
    trials["i"], trials["j"] = ij.T
    trials["genuine"][:n_genuine] = True
    return trials


def score_trials(embeddings, trials) -> TrialScoreSet:
    """Cosine scores of trials (a trial array or (i, j, is_genuine) rows) over
    unit-norm embeddings, SCORE_BLOCK pairs at a time. Each score is the one
    ddot of embeddings[i] @ embeddings[j]."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    n = embeddings.shape[0]
    trials = as_trials(trials)
    i, j = trials["i"], trials["j"]
    bad = np.flatnonzero(~((0 <= i) & (i < n) & (0 <= j) & (j < n)))
    if bad.size:
        i, j, _ = trials[bad[0]].tolist()
        raise IndexError(f"trial index ({i}, {j}) out of range for {n} embeddings")
    s = np.empty(len(trials))
    for start in range(0, len(trials), SCORE_BLOCK):
        blk = slice(start, start + SCORE_BLOCK)
        s[blk] = np.matmul(embeddings[i[blk]][:, None, :], embeddings[j[blk]][:, :, None])[:, 0, 0]
    same = trials["genuine"]
    return TrialScoreSet(genuine=s[same], impostor=s[~same])


def _require_both_kinds(scores):
    if len(scores.genuine) == 0 or len(scores.impostor) == 0:
        raise ValueError("both genuine and impostor score lists must be nonempty")


def _far_frr(scores, thresholds):
    """FAR(t) = #{impostor >= t} / n_imp and FRR(t) = #{genuine < t} / n_gen
    at each threshold, by binary search in the sorted scores. Exact counts
    over n, so bitwise the mean of the boolean masks."""
    genuine, impostor = scores._sorted
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
    thresholds, far, frr = scores._impostor_sweep
    hit = np.flatnonzero(far <= far_target)
    if hit.size == 0:
        # a duplicated maximum impostor score can leave every candidate above target
        raise UnattainableFARError(
            f"no impostor-score threshold reaches FAR <= {far_target:g} "
            "(tied scores at the top of the impostor list)"
        )
    return float(frr[hit[0]]), float(thresholds[hit[0]])


def det_points(scores: TrialScoreSet):
    """DET sweep: an (m, 3) array of (far, frr, threshold) rows, far ascending."""
    _require_both_kinds(scores)
    # descending threshold -> ascending FAR
    thresholds = np.unique(np.concatenate([scores.genuine, scores.impostor]))[::-1]
    far, frr = _far_frr(scores, thresholds)
    return np.column_stack([far, frr, thresholds])


def _float_reprs(col):
    """repr of each float of a nonempty col, formatting each run of equal values once."""
    bits = col.view(np.uint64)  # equal bits: -0.0 and 0.0 stay apart
    starts = np.flatnonzero(np.r_[True, bits[1:] != bits[:-1]])
    text = np.array([repr(x) for x in col[starts].tolist()], dtype=object)
    return np.repeat(text, np.diff(np.r_[starts, len(col)])).tolist()


def write_det_csv(rows, path):
    """CSV with a header and repr-formatted (far, frr, threshold) rows, byte
    for byte what csv.writer writes: a float repr never needs quoting; lines
    end in CRLF. Formatted by column, SCORE_BLOCK rows at a time; frr takes
    few distinct values."""
    far, frr, t = np.asarray(rows, dtype=np.float64).reshape(-1, 3).T
    with open(path, "w", newline="") as fh:
        fh.write("far,frr,threshold\r\n")
        for start in range(0, len(far), SCORE_BLOCK):
            blk = slice(start, start + SCORE_BLOCK)
            cols = (list(map(repr, far[blk].tolist())), _float_reprs(frr[blk]),
                    list(map(repr, t[blk].tolist())))
            fh.write("\r\n".join(map(",".join, zip(*cols))) + "\r\n")


def avg_relative_improvement(det_ours, det_base, far_lo, far_hi, n_grid=50):
    """Trapezoidal average over log-FAR of (frr_base - frr_ours) / frr_base.

    Convention for the 'average improvement over a FAR interval' summary; the
    DET curves are interpolated on a shared log-spaced FAR grid.
    """

    def interp(det, grid):
        fars, frrs = np.asarray(det, dtype=np.float64).reshape(-1, 3)[:, :2].T
        order = np.argsort(fars)
        return np.interp(grid, fars[order], frrs[order])

    if not 0.0 < far_lo < far_hi <= 1.0:
        raise ValueError(f"FAR interval must have 0 < far_lo < far_hi <= 1, got {far_lo}, {far_hi}")
    grid = np.logspace(np.log10(far_lo), np.log10(far_hi), n_grid)
    ours = interp(det_ours, grid)
    base = interp(det_base, grid)
    ok = base > 0
    rel = np.zeros_like(base)
    rel[ok] = (base[ok] - ours[ok]) / base[ok]
    return float(np.trapezoid(rel, np.log10(grid)) / (np.log10(far_hi) - np.log10(far_lo)))


def sparsity_report(embeddings, labels, prototypes, loss_cfg, params) -> SparsityReport:
    """Misalignment (p_y = 0) and sparsity statistics of the loss posterior.

    Zeros are exact zeros from the solver's clip; no epsilon pruning. The
    baseline losses' softmax posteriors have no zeros in exact arithmetic, but
    exp underflows to 0.0 at a large scale, so their statistics need not be
    zero (cosface at s=1000 leaves half of the entries at 0.0). Cosines are
    built backend.BLOCK_ROWS rows at a time. The margin losses read p_y = 0 and
    the nonzeros of each row off the support of one posterior_support call; the
    baselines count their dense softmax posteriors block by block.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    prototypes = np.asarray(prototypes)
    n, k = len(embeddings), len(prototypes)
    labels = core._checked_labels(labels, n, k)
    py_zero, nnz = np.ones(n, dtype=bool), np.zeros(n, dtype=np.intp)
    cut = [slice(s, s + backend.BLOCK_ROWS) for s in range(0, n, backend.BLOCK_ROWS)]
    if loss_cfg.mode in ("cosface", "arcface"):
        for r in cut:
            P = losses.batch_posteriors(embeddings[r] @ prototypes.T, labels[r], loss_cfg, params)
            py_zero[r] = P[np.arange(len(P)), labels[r]] == 0.0
            nnz[r] = np.count_nonzero(P, axis=1)
    else:
        losses._refuse_overflow(loss_cfg, params)
        blocks = (
            (*losses.margin_logits(embeddings[r] @ prototypes.T, labels[r], loss_cfg), labels[r])
            for r in cut
        )
        solve = (params.alpha, params.bisect_tol, params.max_iters)
        for rows, cols, vals, _ in backend.posterior_support(blocks, *solve):
            on = vals != 0.0
            np.add.at(nnz, rows[on], 1)
            py_zero[rows[on & (cols == labels[rows])]] = False
    misaligned_images = float(np.mean(py_zero))
    # an identity is misaligned when none of its images is aligned (p_y > 0)
    present = np.bincount(labels, minlength=k) > 0
    aligned = np.bincount(labels[~py_zero], minlength=k)
    return SparsityReport(
        misaligned_identity_fraction=float(np.mean(aligned[present] == 0)),
        misaligned_image_fraction=misaligned_images,
        posterior_sparsity=float(np.mean((k - nnz) / k)),
        onehot_fraction=float(np.mean(nnz == 1)),
    )
