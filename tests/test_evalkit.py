import csv

import numpy as np
import pytest
from conftest import (
    det_points_loop_reference,
    frr_at_far_loop_reference,
    make_trials_loop_reference,
    score_trials_loop_reference,
    sparsity_report_dense_reference,
    traced_peak,
)

from alphamargin import backend, evalkit
from alphamargin.core import AlphaParams
from alphamargin.errors import UnattainableFARError
from alphamargin.evalkit import (
    SCORE_BLOCK,
    TRIAL_DTYPE,
    TrialScoreSet,
    as_trials,
    avg_relative_improvement,
    det_points,
    frr_at_far,
    make_trials,
    score_trials,
    sparsity_report,
    write_det_csv,
)
from alphamargin.losses import MODES, MarginConfig, batch_posteriors


def scores(genuine, impostor):
    return TrialScoreSet(genuine=np.array(genuine), impostor=np.array(impostor))


class TestFrrAtFar:
    @pytest.mark.parametrize("genuine, impostor", [([0.9, np.nan], [0.1]), ([0.9], [np.inf])])
    def test_non_finite_scores_rejected(self, genuine, impostor):
        with pytest.raises(ValueError, match="trial scores must be finite"):
            scores(genuine, impostor)

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
        rows = det_points(scores([0.8], [0.2])).tolist()
        assert rows == [[0.0, 0.0, 0.8], [1.0, 0.0, 0.2]]

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
        back = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
        assert back == rows.tolist()

    def test_csv_of_no_rows_is_the_header(self, tmp_path):
        path = tmp_path / "det.csv"
        write_det_csv([], path)
        assert path.read_bytes() == b"far,frr,threshold\r\n"


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

    def test_non_integer_index(self):
        with pytest.raises(IndexError, match="must be integers"):
            score_trials(np.eye(2), [(0, 1.0, True)])

    def test_rows_and_trial_arrays_alike(self):
        rows = [(0, 1, True), (1, 0, False)]
        trials = as_trials(rows)
        assert trials.dtype == TRIAL_DTYPE and trials.tolist() == rows
        assert as_trials(trials) is trials
        assert [tuple(t) for t in trials] == rows
        i, j, same = (np.array(col) for col in zip(*trials))
        assert i.tolist() == [0, 1] and same.dtype == bool


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
        first = make_trials(labels, 10, 10, seed=5)
        assert first.dtype == TRIAL_DTYPE
        assert first.tolist() == make_trials(labels, 10, 10, seed=5).tolist()

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


    @pytest.mark.parametrize("mode", ["q_margin", "a3m", "cosface"])
    def test_identity_fraction_matches_the_per_identity_loop(self, mode):
        # ids 0..11 of k=15, some never drawn; many identities lose every image
        rng = np.random.default_rng(12)
        E = rng.standard_normal((200, 6))
        E /= np.linalg.norm(E, axis=1, keepdims=True)
        W = rng.standard_normal((15, 6))
        W /= np.linalg.norm(W, axis=1, keepdims=True)
        labels = rng.integers(0, 12, 200)
        cfg = MarginConfig(scale=16.0, margin=0.4, mode=mode)
        params = AlphaParams(2.0)
        rep = sparsity_report(E, labels, W, cfg, params)
        P = batch_posteriors(E @ W.T, labels, cfg, params)
        py_zero = P[np.arange(200), labels] == 0.0
        want = float(np.mean([bool(np.all(py_zero[labels == y])) for y in np.unique(labels)]))
        assert repr(rep.misaligned_identity_fraction) == repr(want)
        if mode != "cosface":
            assert 0.0 < want < 1.0


def _report_case(n, k=40, d=16, seed=0):
    """Unit embeddings scattered around the prototypes of their labels: a mix
    of aligned, misaligned and one-hot rows under the margin losses."""
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((k, d))
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    labels = rng.integers(0, k, n)
    E = W[labels] + 0.35 * rng.standard_normal((n, d))
    E /= np.linalg.norm(E, axis=1, keepdims=True)
    return E, labels, W


class TestSparsityReportStreaming:
    """The row-block report against the dense one it replaced (tests/conftest.py)."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "n", [1, backend.BLOCK_ROWS - 1, backend.BLOCK_ROWS, 2 * backend.BLOCK_ROWS + 1]
    )
    def test_matches_the_dense_report(self, mode, n):
        E, labels, W = _report_case(n)
        cfg = MarginConfig(scale=32.0, margin=0.3, mode=mode)
        params = AlphaParams(1.5)
        got = sparsity_report(E, labels, W, cfg, params).to_dict()
        want = sparsity_report_dense_reference(E, labels, W, cfg, params).to_dict()
        assert {key: repr(v) for key, v in got.items()} == {key: repr(v) for key, v in want.items()}
        if mode in ("q_margin", "a3m") and n > 1:
            # the case reads zeros both ways: p_y = 0 on some rows, one-hot rows
            assert 0.0 < got["misaligned_image_fraction"] < 1.0
            assert 0.0 < got["onehot_fraction"] < 1.0

    def test_softmax_underflow_at_large_scale(self):
        # exp underflows at s=1000: the cross-entropy report reads zeros too
        E, labels, W = _report_case(200, k=50, d=8)
        cfg = MarginConfig(scale=1000.0, margin=0.3, mode="cosface")
        params = AlphaParams(1.5)
        got = sparsity_report(E, labels, W, cfg, params).to_dict()
        want = sparsity_report_dense_reference(E, labels, W, cfg, params).to_dict()
        assert repr(got) == repr(want)
        assert got["misaligned_image_fraction"] > 0.0 and got["posterior_sparsity"] > 0.4

    @pytest.mark.parametrize("mode", MODES)
    def test_small_blocks(self, monkeypatch, mode):
        # 7-row blocks over 295 rows: 42 full blocks and a 1-row tail
        E, labels, W = _report_case(295, seed=1)
        cfg = MarginConfig(scale=32.0, margin=0.3, mode=mode)
        params = AlphaParams(1.25)
        want = sparsity_report_dense_reference(E, labels, W, cfg, params)
        calls = []
        real = batch_posteriors

        def counting(C, *args):
            calls.append(len(C))
            return real(C, *args)

        monkeypatch.setattr(backend, "BLOCK_ROWS", 7)
        monkeypatch.setattr(evalkit.losses, "batch_posteriors", counting)
        got = sparsity_report(E, labels, W, cfg, params)
        assert calls == [7] * 42 + [1]
        assert repr(got.to_dict()) == repr(want.to_dict())

    def test_bad_labels_are_rejected_as_before(self):
        E, labels, W = _report_case(300)
        cfg = MarginConfig(scale=32.0, margin=0.3, mode="q_margin")
        params = AlphaParams(1.5)
        for bad in (labels[:-1], np.r_[labels, 0], np.r_[labels[:-1], 40]):
            got = _outcome(sparsity_report, E, bad, W, cfg, params)
            assert got[0] in (ValueError, IndexError)
            assert got == _outcome(sparsity_report_dense_reference, E, bad, W, cfg, params)

    @pytest.mark.parametrize("mode", ["q_margin", "cosface"])
    def test_memory_is_a_few_blocks(self, mode):
        # one (4000, 1000) float64 array is 32 MB, and the dense report held
        # four; the blocks and the solver's temporaries hold about 12 MB here
        n, k = 4000, 1000
        E, labels, W = _report_case(n, k=k)
        cfg = MarginConfig(scale=32.0, margin=0.2, mode=mode)
        _, peak = traced_peak(sparsity_report, E, labels, W, cfg, AlphaParams(1.25))
        assert peak < n * k * 8 / 2, peak


class TestEvalWorkingSet:
    """score_trials and write_det_csv hold O(SCORE_BLOCK) rows of work beyond
    their O(n) inputs and outputs."""

    def test_score_trials_peak_does_not_grow_with_the_trials(self):
        d = 64
        rng = np.random.default_rng(2)
        E = rng.standard_normal((500, d))
        E /= np.linalg.norm(E, axis=1, keepdims=True)
        labels = rng.integers(0, 50, 500)
        small, large = 4 * SCORE_BLOCK, 16 * SCORE_BLOCK
        peaks = []
        for n in (small, large):
            trials = make_trials(labels, n // 10, n - n // 10, seed=3)
            peaks.append(traced_peak(score_trials, E, trials)[1])
        # a whole-set gather would add 2 * d * 8 = 1024 bytes per trial; the
        # per-trial part left is the scores, masks and index views
        assert (peaks[1] - peaks[0]) / (large - small) < 64, peaks
        assert peaks[0] < 2 * SCORE_BLOCK * d * 8 + 64 * small, peaks

    def test_write_det_csv_peak_does_not_grow_with_the_rows(self, tmp_path):
        rng = np.random.default_rng(4)
        peaks = []
        for m in (2 * SCORE_BLOCK, 8 * SCORE_BLOCK):
            rows = np.column_stack([np.sort(rng.random(m)), rng.random(m), rng.random(m)])
            peaks.append(traced_peak(write_det_csv, rows, tmp_path / "det.csv")[1])
        # every repr of the large set at once would be tens of MB
        assert peaks[1] < 1.5 * peaks[0] and peaks[1] < 4 << 20, peaks


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

# identities of 1 to 5 images
_LONG_TAIL = np.repeat(np.arange(40), np.random.default_rng(9).integers(1, 6, 40))

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
        assert got.dtype == np.float64 and got.shape == (len(got), 3)
        got = [tuple(row) for row in got.tolist()]
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

    @pytest.mark.parametrize(
        "rows",
        [
            det_points(scores(*_SWEEP_CASES["signed_zero_ties_large"])),
            det_points_loop_reference(scores(*_SWEEP_CASES["continuous"])),
            # runs of equal frr values split by signed zeros and a nan
            [(0.0, -0.0, 1.0), (0.5, -0.0, 0.5), (0.5, 0.0, -0.0), (1.0, 0.0, -0.5),
             (1.0, float("nan"), 0.25), (1.0, 0.5, 0.125), (1.0, 0.5, 0.1)],
            # chunks of SCORE_BLOCK rows: equal-frr runs and a signed zero across the seam
            np.column_stack([
                np.linspace(0.0, 1.0, SCORE_BLOCK + 3),
                np.r_[np.repeat(0.25, SCORE_BLOCK - 2), -0.0, 0.0, 0.0, 0.0, 0.5],
                np.linspace(1.0, -1.0, SCORE_BLOCK + 3),
            ]),
            [],
        ],
        ids=["det_array", "det_rows", "signed_zero_runs", "across_chunks", "empty"],
    )
    def test_write_det_csv(self, tmp_path, rows):
        # formatted by column and frr run by run; the bytes are csv.writer's
        write_det_csv(rows, tmp_path / "new.csv")
        with open(tmp_path / "old.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["far", "frr", "threshold"])
            for row in rows:
                w.writerow([repr(float(x)) for x in row])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

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
            _LONG_TAIL,
            np.array([0, 0, 1, 1]),
            np.array([0] * 99 + [1]),  # most random pairs share a label
        ],
        ids=["uniform", "long_tail", "two_by_two", "split_99_to_1"],
    )
    @pytest.mark.parametrize("n_genuine,n_impostor", [(0, 1), (1, 0), (3, 3), (40, 500)])
    def test_make_trials(self, labels, n_genuine, n_impostor):
        for seed in range(3):
            got = make_trials(labels, n_genuine, n_impostor, seed)
            assert got.dtype == TRIAL_DTYPE
            got = got.tolist()
            assert got == make_trials_loop_reference(labels, n_genuine, n_impostor, seed)
            assert all(type(i) is int and type(j) is int and type(g) is bool for i, j, g in got)

    @pytest.mark.parametrize("n_genuine", [50, SCORE_BLOCK, 3 * SCORE_BLOCK - 7])
    @pytest.mark.parametrize("kind", ["generator", "seed_sequence"])
    def test_make_trials_from_a_generator_or_seed_sequence(self, kind, n_genuine):
        # default_rng(seed) returns a Generator seed itself, so the genuine
        # draw must read no word past its last round, or the impostors move
        labels = np.repeat(np.arange(30), 4)
        make = {"generator": np.random.default_rng, "seed_sequence": np.random.SeedSequence}[kind]
        got = make_trials(labels, n_genuine, 200, make(7)).tolist()
        assert got == make_trials_loop_reference(labels, n_genuine, 200, make(7))

    @pytest.mark.parametrize(
        "labels, n_genuine, n_impostor",
        [(np.repeat(np.arange(30), 4), 50, n) for n in (0, 1, 200, 5000)]
        + [(np.array([0] * 99 + [1]), 50, 5)]  # several impostor rounds
        # identities of 1, 2 and more images: rounds of 3 and of 4 words
        + [(_LONG_TAIL, n, 200) for n in (50, SCORE_BLOCK + 3)]
        # every identity of 2 images: every round takes the least, 3 words
        + [(np.repeat(np.arange(30), 2), n, 200) for n in (50, SCORE_BLOCK + 3)],
        ids=["even-0", "even-1", "even-200", "even-5000", "split-99-to-1-5",
             "long-tail-50", "long-tail-blocks", "all-pairs-50", "all-pairs-blocks"],
    )
    def test_generator_ends_where_the_loop_leaves_it(self, labels, n_genuine, n_impostor):
        for seed in range(10):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            make_trials(labels, n_genuine, n_impostor, rng)
            make_trials_loop_reference(labels, n_genuine, n_impostor, ref)
            assert rng.bit_generator.state == ref.bit_generator.state

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
        got = [make_trials(labels, 2, 5, seed).tolist() for seed in range(10)]
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

    # The bulk genuine draw reads the raw 32-bit stream; these pin the numpy
    # facts it relies on.
    @pytest.mark.parametrize("count", [1, 2, 7, 1000])
    def test_full_range_uint32_is_the_next_uint32_stream(self, count):
        a = np.random.default_rng(count)
        b = np.random.default_rng(count)
        words = a.integers(1 << 32, size=count, dtype=np.uint32)
        raw = b.bit_generator.ctypes
        assert words.tolist() == [raw.next_uint32(raw.state) for _ in range(count)]
        # after an odd count half a 64-bit output is buffered; both must resume from it
        for n in (2, 1000, 2**31 + 3):
            assert np.array_equal(a.integers(n, size=2), b.integers(n, size=2))

    def test_range_of_one_takes_no_word(self):
        a = np.random.default_rng(4)
        b = np.random.default_rng(4)
        assert a.integers(1) == 0
        assert np.array_equal(a.integers(1 << 32, size=5, dtype=np.uint32),
                              b.integers(1 << 32, size=5, dtype=np.uint32))

    @pytest.mark.parametrize("g", [*range(2, 65), 1000, 4097, 10000])
    def test_genuine_pair_is_choice_of_two(self, g):
        # one identity: rng.integers(1) takes no word, so each pair is one choice call
        rng = np.random.default_rng(g)
        want = [rng.choice(g, 2, replace=False).tolist() for _ in range(40)]
        got = make_trials(np.zeros(g, np.int64), 40, 0, seed=g)
        assert got[["i", "j"]].tolist() == [tuple(pair) for pair in want]

    def test_lemire_rejections_are_reproduced(self):
        # 10^6 identities: numpy rejects a group draw's word when its low
        # product half is below 2**32 % 10**6, about once in 4,400 draws
        labels = np.repeat(np.arange(10**6), 2)
        n_pairs, seed = 10**4, 0
        loop = np.random.default_rng(seed)
        for _ in range(n_pairs):
            loop.integers(10**6)
            loop.choice(2, 2, replace=False)
        unrejected = np.random.default_rng(seed)
        unrejected.integers(1 << 32, size=3 * n_pairs, dtype=np.uint32)  # 3 words a pair
        assert loop.bit_generator.state != unrejected.bit_generator.state
        got = make_trials(labels, n_pairs, 50, seed).tolist()
        assert got == make_trials_loop_reference(labels, n_pairs, 50, seed)

    def test_single_identity_raises(self):
        with pytest.raises(ValueError, match="fewer than 2 identities"):
            make_trials(np.array([0, 0, 0]), 2, 1, 0)
        labels = np.array([0, 0, 0])
        assert make_trials(labels, 2, 0, 0).tolist() == make_trials_loop_reference(labels, 2, 0, 0)

    @pytest.mark.parametrize("d", [2, 3, 16, 64, 128])
    def test_score_trials(self, d):
        rng = np.random.default_rng(d)
        E = rng.standard_normal((60, d))
        E /= np.linalg.norm(E, axis=1, keepdims=True)
        idx = rng.integers(0, 60, (3000, 2)).tolist()
        flags = rng.integers(0, 2, 3000).tolist()
        rows = [(i, j, bool(f)) for (i, j), f in zip(idx, flags)]
        for trials in (
            rows,
            as_trials(rows),
            [(i, j, f) for (i, j), f in zip(idx, flags)],  # 0/1 flags
            [],
        ):
            got = score_trials(E, trials)
            want = score_trials_loop_reference(E, trials)
            assert np.array_equal(got.genuine, want.genuine)
            assert np.array_equal(got.impostor, want.impostor)
            assert got.genuine.dtype == got.impostor.dtype == np.float64

    def test_score_trials_across_blocks(self):
        # SCORE_BLOCK + 5 trials: the last five are scored in a second block
        rng = np.random.default_rng(10)
        E = rng.standard_normal((300, 16))
        E /= np.linalg.norm(E, axis=1, keepdims=True)
        trials = make_trials(rng.integers(0, 30, 300), 1000, SCORE_BLOCK - 995, seed=11)
        assert len(trials) == SCORE_BLOCK + 5
        got = score_trials(E, trials)
        want = score_trials_loop_reference(E, trials.tolist())
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
        assert _outcome(score_trials, E, as_trials(trials)) == got
