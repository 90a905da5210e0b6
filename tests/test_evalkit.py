import csv

import numpy as np
import pytest
from conftest import (
    det_points_loop_reference,
    frr_at_far_loop_reference,
    make_trials_loop_reference,
    score_trials_loop_reference,
)

from alphamargin.core import AlphaParams
from alphamargin.errors import UnattainableFARError
from alphamargin.evalkit import (
    TrialScoreSet,
    avg_relative_improvement,
    det_points,
    frr_at_far,
    make_trials,
    score_trials,
    sparsity_report,
    write_det_csv,
)
from alphamargin.losses import MarginConfig


def scores(genuine, impostor):
    return TrialScoreSet(genuine=np.array(genuine), impostor=np.array(impostor))


class TestFrrAtFar:
    def test_worked_example(self):
        # smallest impostor-score threshold with FAR <= 0.25 is 0.4 (the tied
        # impostor there is accepted); the genuine trial at 0.3 is rejected
        s = scores([0.9, 0.8, 0.3], [0.4, 0.2, 0.1, 0.05])
        frr, t = frr_at_far(s, 0.25)
        assert t == pytest.approx(0.4)
        assert frr == pytest.approx(1 / 3)

    def test_tied_top_impostors_unattainable(self):
        # both impostors sit at the maximum score, so FAR never gets below 1
        # at any impostor-score threshold even though 1/n would allow 0.5
        s = scores([0.9], [0.6, 0.6])
        with pytest.raises(UnattainableFARError):
            frr_at_far(s, 0.5)

    def test_perfect_separation(self):
        s = scores([0.9, 0.8, 0.7], [0.3, 0.2, 0.1])
        frr, t = frr_at_far(s, 1 / 3)
        assert frr == 0.0
        assert t <= 0.7

    def test_far_one_accepts_everything(self):
        s = scores([0.5, 0.4], [0.6, 0.3])
        frr, t = frr_at_far(s, 1.0)
        assert frr == 0.0
        assert t == pytest.approx(0.3)

    def test_overlapping_distributions_tradeoff(self):
        rng = np.random.default_rng(0)
        s = scores(rng.normal(0.6, 0.2, 500), rng.normal(0.4, 0.2, 500))
        loose, _ = frr_at_far(s, 0.5)
        tight, _ = frr_at_far(s, 0.01)
        assert tight > loose

    def test_unattainable_target(self):
        s = scores([0.9], [0.4, 0.2, 0.1])
        with pytest.raises(UnattainableFARError):
            frr_at_far(s, 0.1)

    def test_invalid_target(self):
        s = scores([0.9], [0.1])
        with pytest.raises(ValueError):
            frr_at_far(s, 0.0)
        with pytest.raises(ValueError):
            frr_at_far(s, 1.5)

    def test_empty_lists_rejected(self):
        with pytest.raises(ValueError):
            frr_at_far(scores([], [0.1]), 0.5)

    def test_tie_counts_as_accepted(self):
        # threshold equal to an impostor score accepts that impostor
        s = scores([0.5, 0.5], [0.5, 0.1])
        frr, t = frr_at_far(s, 0.5)
        assert t == pytest.approx(0.5)
        assert frr == 0.0


class TestDetPoints:
    def test_far_monotone_frr_antitone(self):
        rng = np.random.default_rng(1)
        s = scores(rng.normal(0.7, 0.15, 200), rng.normal(0.3, 0.15, 300))
        rows = det_points(s)
        fars = [r[0] for r in rows]
        frrs = [r[1] for r in rows]
        assert fars == sorted(fars)
        assert frrs == sorted(frrs, reverse=True)

    def test_identical_distributions_far_plus_frr(self):
        # same scores on both sides: FAR(t) + FRR(t) = 1 at every threshold
        vals = [0.1, 0.3, 0.5, 0.7]
        rows = det_points(scores(vals, vals))
        for far, frr, _ in rows:
            assert far + frr == pytest.approx(1.0)

    def test_single_point(self):
        rows = det_points(scores([0.8], [0.2]))
        assert (1.0, 0.0, 0.2) in rows
        assert (0.0, 0.0, 0.8) in rows

    def test_consistent_with_frr_at_far(self):
        rng = np.random.default_rng(2)
        s = scores(rng.uniform(0.4, 1.0, 100), rng.uniform(0.0, 0.6, 150))
        rows = det_points(s)
        frr, t = frr_at_far(s, 0.1)
        match = [r for r in rows if r[2] == t]
        assert len(match) == 1
        assert match[0][1] == pytest.approx(frr)
        assert match[0][0] <= 0.1

    def test_csv_round_trip(self, tmp_path):
        rows = det_points(scores([0.9, 0.6], [0.5, 0.2]))
        path = tmp_path / "det.csv"
        write_det_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "far,frr,threshold"
        back = [tuple(float(x) for x in ln.split(",")) for ln in lines[1:]]
        assert back == rows


class TestScoreTrials:
    def test_cosine_values(self):
        E = np.array([[1.0, 0.0], [-1.0, 0.0], [0.6, 0.8], [0.0, 1.0]])
        trials = [(0, 0, True), (0, 1, False), (2, 3, False)]
        s = score_trials(E, trials)
        np.testing.assert_allclose(s.genuine, [1.0])
        np.testing.assert_allclose(s.impostor, [-1.0, 0.8])

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            score_trials(np.eye(2), [(0, 5, True)])


class TestMakeTrials:
    def test_counts_and_label_consistency(self):
        labels = np.array([0, 0, 0, 1, 1, 2, 2, 2])
        trials = make_trials(labels, n_genuine=40, n_impostor=60, seed=0)
        gen = [(i, j) for i, j, same in trials if same]
        imp = [(i, j) for i, j, same in trials if not same]
        assert len(gen) == 40 and len(imp) == 60
        for i, j in gen:
            assert labels[i] == labels[j] and i != j
        for i, j in imp:
            assert labels[i] != labels[j]

    def test_deterministic(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        assert make_trials(labels, 10, 10, seed=5) == make_trials(labels, 10, 10, seed=5)

    def test_requires_multi_sample_identity(self):
        with pytest.raises(ValueError):
            make_trials(np.array([0, 1, 2]), 1, 1, seed=0)


class TestAvgRelativeImprovement:
    def test_zero_for_identical_curves(self):
        det = [(0.001, 0.5, 0.9), (0.01, 0.3, 0.7), (0.1, 0.1, 0.5), (1.0, 0.0, 0.1)]
        assert avg_relative_improvement(det, det, 0.01, 0.1) == pytest.approx(0.0, abs=1e-12)

    def test_constant_relative_gap(self):
        base = [(0.001, 0.4, 0.9), (1.0, 0.4, 0.1)]
        ours = [(0.001, 0.2, 0.9), (1.0, 0.2, 0.1)]
        assert avg_relative_improvement(ours, base, 0.01, 0.1) == pytest.approx(0.5)

    def test_sign_flips_when_worse(self):
        base = [(0.001, 0.2, 0.9), (1.0, 0.2, 0.1)]
        worse = [(0.001, 0.3, 0.9), (1.0, 0.3, 0.1)]
        assert avg_relative_improvement(worse, base, 0.01, 0.1) < 0


class TestSparsityReport:
    def test_orthogonal_prototypes_half_misaligned(self):
        # embedding sits on prototype 0; with label 1 and sparse alpha=2 the
        # target coordinate clips to exactly zero
        E = np.array([[1.0, 0.0], [0.0, 1.0]])
        W = np.eye(2)
        labels = np.array([1, 1])
        cfg = MarginConfig(scale=4.0, margin=0.0, mode="a3m")
        rep = sparsity_report(E, labels, W, cfg, AlphaParams(2.0))
        assert rep.misaligned_image_fraction == pytest.approx(0.5)
        assert rep.misaligned_identity_fraction == 0.0

    def test_embeddings_equal_prototypes_onehot(self):
        W = np.eye(3)
        labels = np.array([0, 1, 2])
        cfg = MarginConfig(scale=8.0, margin=0.0, mode="a3m")
        rep = sparsity_report(W, labels, W, cfg, AlphaParams(2.0))
        assert rep.onehot_fraction == 1.0
        assert rep.misaligned_image_fraction == 0.0
        assert rep.posterior_sparsity == pytest.approx(2 / 3)

    def test_dense_baseline_has_no_zeros(self):
        rng = np.random.default_rng(3)
        E = rng.standard_normal((10, 4))
        E /= np.linalg.norm(E, axis=1, keepdims=True)
        W = rng.standard_normal((5, 4))
        W /= np.linalg.norm(W, axis=1, keepdims=True)
        labels = rng.integers(0, 5, 10)
        cfg = MarginConfig(scale=16.0, margin=0.2, mode="cosface")
        rep = sparsity_report(E, labels, W, cfg, AlphaParams(2.0))
        assert rep.posterior_sparsity == 0.0
        assert rep.misaligned_image_fraction == 0.0
        assert rep.onehot_fraction == 0.0

    def test_fully_misaligned_identity_counted(self):
        E = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        W = np.eye(2)
        labels = np.array([1, 1, 0])
        cfg = MarginConfig(scale=4.0, margin=0.0, mode="a3m")
        rep = sparsity_report(E, labels, W, cfg, AlphaParams(2.0))
        # identity 1 never puts mass on its own prototype; identity 0 does not
        # either (its one image sits on prototype 1)
        assert rep.misaligned_identity_fraction == 1.0
        assert rep.misaligned_image_fraction == 1.0


def _outcome(fn, *args):
    """The result of fn(*args), or the type and message of what it raised."""
    try:
        return "ok", fn(*args)
    except (ValueError, IndexError) as exc:
        return type(exc), str(exc)


def _reprs(rows):
    # repr tells -0.0 from 0.0, which == does not
    return [tuple(repr(x) for x in row) for row in rows]


# many -0.0/0.0 ties: at this size numpy's sort is not stable, so np.unique
# of a pre-sorted copy can keep the other zero, and repr(t) would change
_ZEROS = np.random.default_rng(1).choice([-0.0, 0.0, 0.5, -0.5, 0.25], size=2400)

# (genuine, impostor) score sets for the sweep parity tests
_SWEEP_CASES = {
    "signed_zero_ties_large": (_ZEROS[:800], _ZEROS[800:]),
    "ties_on_a_grid": (
        np.round(np.random.default_rng(4).normal(0.6, 0.2, 300), 1),
        np.round(np.random.default_rng(5).normal(0.4, 0.2, 900), 1),
    ),
    "continuous": (
        np.random.default_rng(6).normal(0.6, 0.2, 200),
        np.random.default_rng(7).normal(0.3, 0.2, 3000),
    ),
    "duplicated_top_impostors": ([0.9, 0.7, 0.2], [0.8, 0.8, 0.8, 0.5, 0.1]),
    "signed_zero_tie": ([0.0, -0.0, 0.3, -0.0], [-0.0, 0.0, -0.2, 0.0]),
    "single_each_tied": ([0.5], [0.5]),
    "single_each_apart": ([0.2], [0.7]),
    "single_genuine": ([0.4], [0.1, 0.4, 0.4, 0.9]),
    "single_impostor": ([0.1, 0.4, 0.9], [0.4]),
    "no_genuine": ([], [0.1, 0.2]),
    "no_impostor": ([0.1, 0.2], []),
}


@pytest.mark.filterwarnings("error")
class TestMatchesLoopReference:
    """The sort-and-count sweeps, the bulk impostor draw and the stacked
    scorer against the loops they replaced (tests/conftest.py)."""

    @pytest.mark.parametrize("case", sorted(_SWEEP_CASES))
    def test_det_points(self, case):
        s = scores(*_SWEEP_CASES[case])
        if len(s.genuine) == 0 or len(s.impostor) == 0:
            # the loop wrote NaN rows here, with a RuntimeWarning
            with pytest.raises(ValueError, match="must be nonempty"):
                det_points(s)
            return
        got = det_points(s)
        want = det_points_loop_reference(s)
        assert got == want
        assert _reprs(got) == _reprs(want)
        assert all(type(x) is float for row in got for x in row)

    @pytest.mark.parametrize("case", sorted(_SWEEP_CASES))
    def test_frr_at_far(self, case):
        s = scores(*_SWEEP_CASES[case])
        n_imp = max(len(s.impostor), 1)
        targets = [1.0, 1 / n_imp, 0.999 / n_imp, 0.9, 0.5, 0.25, 0.01, 1e-3, 1e-4,
                   0.0, -0.1, 1.5, float("nan")]
        for target in targets:
            got = _outcome(frr_at_far, s, target)
            want = _outcome(frr_at_far_loop_reference, s, target)
            assert got == want, target
            if got[0] == "ok":
                assert _reprs([got[1]]) == _reprs([want[1]])

    @pytest.mark.parametrize("fars", [["1e-2"], ["0.5", "1e-3"], ["1e-2", "1e-3", "1e-4"]])
    def test_eval_outputs_byte_identical(self, tmp_path, fars):
        # det.csv and report.txt as the CLI writes them, against the same
        # files built from the loop references and csv.writer
        s = scores(*_SWEEP_CASES["ties_on_a_grid"])
        write_det_csv(det_points(s), tmp_path / "new.csv")
        with open(tmp_path / "old.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["far", "frr", "threshold"])
            for row in det_points_loop_reference(s):
                w.writerow([repr(x) for x in row])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

        def report(fn):
            lines = []
            for far in map(float, fars):
                try:
                    frr, t = fn(s, far)
                    lines.append(f"far={far:g}: frr={frr:.6f} threshold={t:.6f}")
                except UnattainableFARError as exc:
                    lines.append(f"far={far:g}: unattainable ({exc})")
            return lines

        assert report(frr_at_far) == report(frr_at_far_loop_reference)

    @pytest.mark.parametrize(
        "labels",
        [
            np.random.default_rng(8).integers(0, 50, 300),
            np.repeat(np.arange(40), np.random.default_rng(9).integers(1, 6, 40)),
            np.array([0, 0, 1, 1]),
            np.array([0] * 99 + [1]),  # most random pairs share a label
        ],
        ids=["uniform", "long_tail", "two_by_two", "split_99_to_1"],
    )
    @pytest.mark.parametrize("n_genuine,n_impostor", [(0, 1), (1, 0), (3, 3), (40, 500)])
    def test_make_trials(self, labels, n_genuine, n_impostor):
        for seed in range(3):
            got = make_trials(labels, n_genuine, n_impostor, seed)
            assert got == make_trials_loop_reference(labels, n_genuine, n_impostor, seed)
            assert all(type(i) is int and type(j) is int for i, j, _ in got)

    def test_split_99_to_1_redraws(self, monkeypatch):
        # with 2% of random pairs usable, some seeds need more than one bulk
        # draw; the pairs must still be the loop's
        labels = np.array([0] * 99 + [1])
        want = [make_trials_loop_reference(labels, 2, 5, seed) for seed in range(10)]
        made = []
        real = np.random.default_rng

        class CountingRng:
            def __init__(self, seed):
                self.rng = real(seed)
                self.bulk_draws = 0
                made.append(self)

            def integers(self, *args, size=None, **kwargs):
                self.bulk_draws += isinstance(size, tuple) and len(size) == 2
                return self.rng.integers(*args, size=size, **kwargs)

            def choice(self, *args, **kwargs):
                return self.rng.choice(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", CountingRng)
        got = [make_trials(labels, 2, 5, seed) for seed in range(10)]
        assert got == want
        assert max(r.bulk_draws for r in made) > 1

    @pytest.mark.parametrize("n", [2, 7, 100, 2**31 - 1, 2**31 + 3, 2**32 + 5, 2**62 + 1])
    def test_integer_stream_does_not_depend_on_chunking(self, n):
        # what the bulk impostor draw relies on, including ranges where
        # Lemire's rejection redraws often (n just above a power of 2)
        a = np.random.default_rng(n)
        b = np.random.default_rng(n)
        bulk = np.concatenate([a.integers(n, size=(3, 2)), a.integers(n, size=(500, 2))])
        pairs = np.array([b.integers(n, size=2) for _ in range(503)])
        assert np.array_equal(bulk, pairs)

    def test_single_identity_raises(self):
        with pytest.raises(ValueError, match="fewer than 2 identities"):
            make_trials(np.array([0, 0, 0]), 2, 1, 0)
        assert len(make_trials(np.array([0, 0, 0]), 2, 0, 0)) == 2

    @pytest.mark.parametrize("d", [2, 3, 16, 64, 128])
    def test_score_trials(self, d):
        rng = np.random.default_rng(d)
        E = rng.standard_normal((60, d))
        E /= np.linalg.norm(E, axis=1, keepdims=True)
        idx = rng.integers(0, 60, (3000, 2)).tolist()
        flags = rng.integers(0, 2, 3000).tolist()
        for trials in (
            [(i, j, bool(f)) for (i, j), f in zip(idx, flags)],
            [(i, j, f) for (i, j), f in zip(idx, flags)],  # 0/1 flags
            [],
        ):
            got = score_trials(E, trials)
            want = score_trials_loop_reference(E, trials)
            assert np.array_equal(got.genuine, want.genuine)
            assert np.array_equal(got.impostor, want.impostor)

    @pytest.mark.parametrize(
        "trials",
        [
            [(0, 1, True), (0, 5, False), (7, 0, True)],
            [(0, 1, True), (-1, 1, False)],
            [(0, 1, True), (1, 10**30, False), (-2, 0, True)],
        ],
    )
    def test_score_trials_index_error(self, trials):
        E = np.eye(3)
        got = _outcome(score_trials, E, trials)
        assert got[0] is IndexError
        assert got == _outcome(score_trials_loop_reference, E, trials)
