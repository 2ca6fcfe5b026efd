import itertools

import numpy as np
import pytest

from sparsetuple.measures import (
    ConfusionCounts,
    DegenerateClassError,
    MeasureKind,
    UndefinedTupleLossError,
    as_label_array,
    auc_from_scores,
    confusion_counts,
    prbep_from_scores,
    tuple_loss,
)

from conftest import ALL_KINDS, pairwise_auc


class TestMeasureKind:
    def test_parse_accepts_case_variants(self):
        assert MeasureKind.parse("F1") is MeasureKind.F1
        assert MeasureKind.parse(" prbep ") is MeasureKind.PRBEP
        assert MeasureKind.parse("auc") is MeasureKind.AUC

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_parse_returns_a_member_unchanged(self, kind):
        assert MeasureKind.parse(kind) is kind

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown measure"):
            MeasureKind.parse("mcc")


class TestAsLabelArray:
    @pytest.mark.parametrize(
        "labels, expected",
        [
            ([1, -1, 1], [1, -1, 1]),
            (np.array([-1, -1], dtype=np.int8), [-1, -1]),
            ([1.0, -1.0], [1, -1]),
            (np.array([True, True]), [1, 1]),
            (np.array([1, -1], dtype=object), [1, -1]),
        ],
        ids=["int-list", "int8", "float", "bool", "object-ints"],
    )
    def test_accepts(self, labels, expected):
        arr = as_label_array(labels)
        assert arr.dtype == np.int64
        np.testing.assert_array_equal(arr, expected)

    @pytest.mark.parametrize(
        "labels",
        [
            [1, 0, -1],
            [1, 2],
            [1.0, float("nan")],
            np.array([True, False]),
            ["1", "-1"],
            np.array([b"1"]),
            np.array(["a", "b"], dtype=object),
            [[1, -1], [-1, 1]],
            [],
        ],
        ids=["zero", "two", "nan", "false", "str", "bytes", "object-str", "2-d", "empty"],
    )
    def test_rejects(self, labels):
        with pytest.raises(ValueError, match="labels"):
            as_label_array(labels)


class TestConfusionCounts:
    def test_perfect_prediction(self):
        y = [1, 1, -1, -1]
        assert confusion_counts(y, y) == ConfusionCounts(tp=2, fp=0, tn=2, fn=0)

    def test_total_inversion(self):
        assert confusion_counts([1, -1], [-1, 1]) == ConfusionCounts(0, 1, 0, 1)

    def test_hand_count(self):
        counts = confusion_counts([1, 1, 1, -1], [1, -1, 1, 1])
        assert counts == ConfusionCounts(tp=2, fp=1, tn=0, fn=1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            confusion_counts([1, -1], [1, -1, 1])

    def test_bad_label_values(self):
        with pytest.raises(ValueError, match="only \\+1 and -1"):
            confusion_counts([1, 0], [1, -1])


class TestTupleLoss:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_zero_at_truth(self, kind):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 11))
            y = rng.choice([-1, 1], size=n)
            if len(np.unique(y)) < 2:
                y[0], y[1] = 1, -1
            assert tuple_loss(kind, y, y) == 0.0

    def test_f1_hand_value(self):
        assert tuple_loss(MeasureKind.F1, [1, 1, -1], [1, -1, -1]) == pytest.approx(1 / 3)

    def test_f1_empty_positive_convention(self):
        # no true positives, no predicted positives: loss 0 by the limit rule
        assert tuple_loss(MeasureKind.F1, [-1, -1], [-1, -1]) == 0.0
        assert tuple_loss(MeasureKind.F1, [-1, -1], [1, -1]) == 1.0

    def test_auc_total_inversion(self):
        assert tuple_loss(MeasureKind.AUC, [1, -1], [-1, 1]) == 1.0

    def test_auc_tied_pairs_half(self):
        # all predicted positive: every (pos, neg) pair tied -> loss 1/2
        assert tuple_loss(MeasureKind.AUC, [1, -1, 1, -1], [1, 1, 1, 1]) == 0.5

    def test_prbep_hand_value(self):
        assert tuple_loss(MeasureKind.PRBEP, [1, 1, -1, -1], [1, -1, 1, -1]) == 0.5

    def test_prbep_undefined_off_slice(self):
        with pytest.raises(UndefinedTupleLossError):
            tuple_loss(MeasureKind.PRBEP, [1, 1, -1, -1], [1, 1, 1, -1])

    @pytest.mark.parametrize("kind", (MeasureKind.PRBEP, MeasureKind.AUC))
    @pytest.mark.parametrize("label", (1, -1))
    def test_degenerate_class_rejected(self, kind, label):
        y = [label] * 4
        with pytest.raises(DegenerateClassError):
            tuple_loss(kind, y, y)

    def test_range_and_count_dependence_exhaustive(self):
        # for n <= 6, group all tuple pairs by (fn, fp): losses must agree
        # within each group and stay inside [0, 1]
        for n in (2, 4, 6):
            tuples = list(itertools.product((-1, 1), repeat=n))
            for y in tuples:
                y_arr = np.array(y)
                n_pos = int(np.sum(y_arr == 1))
                n_neg = n - n_pos
                for kind in ALL_KINDS:
                    if kind is not MeasureKind.F1 and (n_pos == 0 or n_neg == 0):
                        continue
                    by_counts = {}
                    for cand in tuples:
                        cand_arr = np.array(cand)
                        fn = int(np.sum((y_arr == 1) & (cand_arr == -1)))
                        fp = int(np.sum((y_arr == -1) & (cand_arr == 1)))
                        if kind is MeasureKind.PRBEP and fn != fp:
                            continue
                        loss = tuple_loss(kind, y_arr, cand_arr)
                        assert 0.0 <= loss <= 1.0
                        assert by_counts.setdefault((fn, fp), loss) == loss


class TestAucFromScores:
    def test_perfectly_ordered(self):
        assert auc_from_scores([1, 1, -1, -1], [4.0, 3.0, 2.0, 1.0]) == 1.0

    def test_reversed_ordering(self):
        assert auc_from_scores([1, 1, -1, -1], [1.0, 2.0, 3.0, 4.0]) == 0.0

    def test_hand_pair_count(self):
        assert auc_from_scores([1, -1, 1, -1], [0.9, 0.8, 0.3, 0.1]) == pytest.approx(3 / 4)

    def test_matches_pair_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 15))
            y = rng.choice([-1, 1], size=n)
            if len(np.unique(y)) < 2:
                y[0], y[1] = 1, -1
            # discrete scores so ties actually occur
            scores = rng.integers(0, 4, size=n).astype(float)
            assert auc_from_scores(y, scores) == pytest.approx(pairwise_auc(y, scores))

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(13)
        y = rng.choice([-1, 1], size=40)
        y[0], y[1] = 1, -1
        scores = rng.normal(size=40)
        base = auc_from_scores(y, scores)
        assert auc_from_scores(y, np.exp(scores)) == pytest.approx(base, abs=1e-12)
        assert auc_from_scores(y, 3.0 * scores + 11.0) == pytest.approx(base, abs=1e-12)

    def test_degenerate_class(self):
        with pytest.raises(DegenerateClassError):
            auc_from_scores([1, 1], [0.5, 0.2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(ValueError, match="scores must be finite"):
            auc_from_scores([1, -1], [0.5, bad])


class TestPrbepFromScores:
    def test_perfectly_separated(self):
        assert prbep_from_scores([1, 1, -1, -1], [4.0, 3.0, 2.0, 1.0]) == 1.0

    def test_hand_top_two(self):
        assert prbep_from_scores([1, 1, -1, -1], [0.9, 0.2, 0.5, 0.1]) == 0.5

    def test_all_equal_scores_stable_order(self):
        # stable tie rule keeps input order; with alternating labels the
        # top-n_pos window holds n_pos/n of the positives
        assert prbep_from_scores([1, -1, 1, -1], [0.5] * 4) == 0.5
        # front-loaded positives fill the whole window
        assert prbep_from_scores([1, 1, -1, -1], [0.5] * 4) == 1.0

    def test_cutoff_tie_broken_by_index(self):
        # scores tie at the cutoff; the earlier index (a negative) wins the slot
        assert prbep_from_scores([1, -1, 1], [0.9, 0.5, 0.5], ) == 0.5

    def test_degenerate_class(self):
        for truth in ([-1, -1], [1, 1]):
            with pytest.raises(DegenerateClassError, match="prbep needs both classes"):
                prbep_from_scores(truth, [0.5, 0.2])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            prbep_from_scores([1, -1], [0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(ValueError, match="scores must be finite"):
            prbep_from_scores([1, -1], [bad, 0.5])
