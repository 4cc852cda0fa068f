import math
import random

import numpy as np
import pytest
import scipy.stats

from reportex.corpus import LabelSchema, Task
from reportex.metrics import (
    INVALID_LABEL,
    ConfusionMatrix,
    MetricsError,
    cohens_d,
    compute_metrics,
    confusion,
    paired_t,
    spearman,
    student_t,
    t_two_sided_p,
    welch_t,
)
from reportex.postprocess import InvalidReason, ParsedLabel

ABC = LabelSchema(Task.RADIOLOGY, ("A", "B", "C"), "C", "score", "kw")


def _preds(labels):
    return [ParsedLabel.valid(l) if l is not None else ParsedLabel.invalid(InvalidReason.NO_JSON)
            for l in labels]


def reference_metrics(gold, preds):
    """Independent per-item counting oracle (no confusion matrix)."""
    n = len(gold)
    classes = sorted(set(gold))
    acc = sum(g == p for g, p in zip(gold, preds)) / n
    per = {}
    for c in classes:
        tp = sum(1 for g, p in zip(gold, preds) if g == c and p == c)
        fp = sum(1 for g, p in zip(gold, preds) if g != c and p == c)
        fn = sum(1 for g, p in zip(gold, preds) if g == c and p != c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per[c] = (precision, recall, f1, tp + fn)
    supported = [c for c in classes if per[c][3] > 0]
    macro_p = sum(per[c][0] for c in supported) / len(supported)
    macro_r = sum(per[c][1] for c in supported) / len(supported)
    macro_f1 = sum(per[c][2] for c in supported) / len(supported)
    return acc, macro_p, macro_r, macro_f1


class TestConfusion:
    def test_perfect_diagonal(self):
        gold = ["A", "B", "C", "A", "B"]
        cm = confusion(_preds(gold), gold, ABC)
        assert sum(map(sum, cm.counts)) == 5
        assert sum(cm.counts[i][i] for i in range(len(cm.classes))) == 5

    def test_invalid_column(self):
        cm = confusion(_preds(["A", None, "B"]), ["A", "B", "B"], ABC)
        inv = cm.index(INVALID_LABEL)
        assert cm.counts[cm.index("B")][inv] == 1

    def test_hand_tally(self):
        cm = confusion(_preds(["A", "A", "B"]), ["A", "B", "B"], ABC)
        a, b = cm.index("A"), cm.index("B")
        assert cm.counts[a][a] == 1
        assert cm.counts[b][a] == 1
        assert cm.counts[b][b] == 1

    def test_length_mismatch(self):
        with pytest.raises(MetricsError):
            confusion(_preds(["A"]), ["A", "B"], ABC)

    def test_gold_outside_schema(self):
        with pytest.raises(MetricsError):
            confusion(_preds(["A"]), ["Z"], ABC)


class TestComputeMetrics:
    def test_perfect(self):
        gold = ["A", "B", "C", "A"]
        report = compute_metrics(confusion(_preds(gold), gold, ABC))
        assert report.accuracy == 1.0
        assert report.macro_f1 == 1.0
        assert report.micro_f1 == 1.0

    def test_hand_example(self):
        report = compute_metrics(confusion(_preds(["A", "A", "B"]), ["A", "B", "B"], ABC))
        assert report.accuracy == pytest.approx(2 / 3)
        assert report.macro_f1 == pytest.approx(2 / 3)  # mean(2/3, 2/3)
        assert report.micro_f1 == pytest.approx(report.accuracy)

    def test_all_invalid(self):
        report = compute_metrics(confusion(_preds([None, None]), ["A", "B"], ABC))
        assert report.accuracy == 0.0
        assert report.macro_recall == 0.0

    def test_micro_equals_accuracy_on_random_fixtures(self):
        rng = random.Random(5)
        labels = ["A", "B", "C"]
        for _ in range(50):
            n = rng.randint(1, 40)
            gold = [rng.choice(labels) for _ in range(n)]
            preds = [rng.choice(labels + [None]) for _ in range(n)]
            report = compute_metrics(confusion(_preds(preds), gold, ABC))
            assert report.micro_precision == report.micro_recall == report.micro_f1 == report.accuracy

    def test_matches_reference_on_random_fixtures(self):
        rng = random.Random(17)
        labels = ["A", "B", "C"]
        for _ in range(1000):
            n = rng.randint(1, 60)
            gold = [rng.choice(labels) for _ in range(n)]
            preds = [rng.choice(labels + [None]) for _ in range(n)]
            report = compute_metrics(confusion(_preds(preds), gold, ABC))
            acc, macro_p, macro_r, macro_f1 = reference_metrics(gold, preds)
            assert abs(report.accuracy - acc) <= 1e-12
            assert abs(report.macro_precision - macro_p) <= 1e-12
            assert abs(report.macro_recall - macro_r) <= 1e-12
            assert abs(report.macro_f1 - macro_f1) <= 1e-12

    def test_empty_matrix_rejected(self):
        with pytest.raises(MetricsError):
            compute_metrics(confusion([], [], ABC))

    def test_counts_only_in_the_invalid_row_rejected(self):
        # confusion() never fills the INVALID row; a hand-built matrix can
        classes = ("A", "B", INVALID_LABEL)
        cm = ConfusionMatrix(classes, ((0, 0, 0), (0, 0, 0), (1, 0, 2)))
        with pytest.raises(MetricsError, match="no gold class has support > 0"):
            compute_metrics(cm)


class TestTDistribution:
    def test_cdf_against_scipy(self):
        rng = random.Random(3)
        for _ in range(300):
            t = rng.uniform(-30, 30)
            df = rng.uniform(1, 200)
            ours = t_two_sided_p(t, df)
            ref = 2 * scipy.stats.t.sf(abs(t), df)
            assert abs(ours - ref) <= 1e-9, (t, df)

    # t*t overflowing to inf, or underflowing to 0, takes _betainc to its x <= 0
    # and x >= 1 guards; scipy gives the same p.
    @pytest.mark.parametrize("t", [math.inf, -math.inf, 1e200, -1e200])
    def test_infinite_statistic_has_p_zero(self, t):
        assert t_two_sided_p(t, 5.0) == 0.0

    def test_tiny_statistic_has_p_one(self):
        assert t_two_sided_p(1e-200, 5.0) == 1.0


class TestTTests:
    def test_student_hand_value(self):
        result = student_t([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
        assert result.statistic == pytest.approx(-1.0, abs=1e-12)
        assert result.df == 8

    def test_student_matches_scipy(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = rng.normal(0, 1, rng.integers(2, 30))
            b = rng.normal(0.3, 2, rng.integers(2, 30))
            ours = student_t(a, b)
            ref = scipy.stats.ttest_ind(a, b, equal_var=True)
            assert abs(ours.statistic - ref.statistic) <= 1e-9
            assert abs(ours.p_value - ref.pvalue) <= 1e-9

    def test_welch_matches_scipy(self):
        ours = welch_t([1, 2, 3], [10, 20, 30, 40])
        ref = scipy.stats.ttest_ind([1, 2, 3], [10, 20, 30, 40], equal_var=False)
        assert abs(ours.statistic - ref.statistic) <= 1e-9
        assert abs(ours.p_value - ref.pvalue) <= 1e-9
        rng = np.random.default_rng(12)
        for _ in range(100):
            a = rng.normal(0, 1, rng.integers(2, 30))
            b = rng.normal(0.5, 3, rng.integers(2, 30))
            ours = welch_t(a, b)
            ref = scipy.stats.ttest_ind(a, b, equal_var=False)
            assert abs(ours.statistic - ref.statistic) <= 1e-9
            assert abs(ours.p_value - ref.pvalue) <= 1e-9

    def test_welch_df_satterthwaite(self):
        a, b = [1.0, 2.0, 3.0], [10.0, 20.0, 30.0, 40.0]
        va, vb = np.var(a, ddof=1) / 3, np.var(b, ddof=1) / 4
        expected_df = (va + vb) ** 2 / (va**2 / 2 + vb**2 / 3)
        assert welch_t(a, b).df == pytest.approx(expected_df, abs=1e-12)

    def test_student_equals_welch_on_balanced_equal_variance(self):
        a = [1.0, 2.0, 3.0, 4.0]
        b = [11.0, 12.0, 13.0, 14.0]  # same spread, same n
        assert abs(student_t(a, b).statistic - welch_t(a, b).statistic) <= 1e-12

    def test_paired_identical_samples(self):
        result = paired_t([1, 2, 3], [1, 2, 3])
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_paired_matches_scipy(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = rng.integers(2, 30)
            a = rng.normal(0, 1, n)
            b = rng.normal(0.2, 1, n)
            ours = paired_t(a, b)
            ref = scipy.stats.ttest_rel(a, b)
            assert abs(ours.statistic - ref.statistic) <= 1e-9
            assert abs(ours.p_value - ref.pvalue) <= 1e-9

    def test_paired_constant_nonzero_diff_rejected(self):
        with pytest.raises(MetricsError):
            paired_t([2, 3, 4], [1, 2, 3])

    def test_zero_variance_rejected(self):
        with pytest.raises(MetricsError):
            student_t([1, 1, 1], [1, 1])
        with pytest.raises(MetricsError):
            welch_t([2, 2], [2, 2, 2])


class TestSampleChecks:
    @pytest.mark.parametrize("test, message", [
        (paired_t, "paired_t: samples must have equal length"),
        (spearman, "spearman: samples must have equal length"),
    ])
    def test_unequal_lengths_rejected(self, test, message):
        with pytest.raises(MetricsError, match=f"^{message}$"):
            test([1, 2, 3], [1, 2, 3, 4])

    @pytest.mark.parametrize("value", ["x", None, [1.0]])
    def test_non_number_rejected(self, value):
        with pytest.raises(MetricsError, match="need a 1-d sample"):
            paired_t([1.0, value, 3.0], [1.0, 2.0, 3.0])


class TestSpearman:
    def test_monotone(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]).statistic == 1.0
        assert spearman([1, 2, 3, 4], [9, 7, 5, 1]).statistic == -1.0

    def test_tied_hand_fixture_matches_scipy(self):
        x, y = [1, 2, 2, 4], [3, 1, 4, 2]
        ours = spearman(x, y)
        ref_rho, ref_p = scipy.stats.spearmanr(x, y)
        assert ours.statistic == pytest.approx(ref_rho, abs=1e-12)
        assert ours.p_value == pytest.approx(ref_p, abs=1e-9)

    def test_random_matches_scipy(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            n = int(rng.integers(3, 40))
            x = rng.integers(0, 10, n).astype(float)
            y = rng.integers(0, 10, n).astype(float)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            ours = spearman(x, y)
            ref_rho, ref_p = scipy.stats.spearmanr(x, y)
            assert abs(ours.statistic - ref_rho) <= 1e-12
            if abs(ours.statistic) < 1.0:
                assert abs(ours.p_value - ref_p) <= 1e-9

    def test_constant_rejected(self):
        with pytest.raises(MetricsError):
            spearman([1, 1, 1], [1, 2, 3])


class TestCohensD:
    def test_identical_zero(self):
        with pytest.raises(MetricsError):
            cohens_d([1, 1], [1, 1])
        assert cohens_d([1, 2, 3], [1, 2, 3]) == 0.0

    def test_one_pooled_sd_is_one(self):
        # means differ by exactly the pooled SD (1.0)
        assert cohens_d([2.0, 3.0, 4.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0, abs=1e-15)

    def test_antisymmetric(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            a = rng.normal(0, 1, 10)
            b = rng.normal(1, 2, 12)
            assert cohens_d(a, b) == pytest.approx(-cohens_d(b, a), abs=1e-12)
