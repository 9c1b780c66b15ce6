"""Calibration, thresholded detection, AUROC, and report rendering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wood.detect import (
    auroc_rank,
    calibrate,
    evaluate,
    histogram_csv_lines,
    report_text,
)
from wood.errors import InputError
from wood.geometry import EvalPath, ScoreConfig, scores
from wood.oracles import one_hot, pairwise_auroc
from wood.transport import CostKind

from conftest import random_simplex


class TestCalibrate:
    def test_interpolated_quantile(self):
        scores = np.arange(1.0, 101.0)
        epsilon = calibrate(scores, 0.95)
        assert epsilon == pytest.approx(95.05)
        assert np.mean(scores <= epsilon) >= 0.95

    def test_all_equal_scores(self):
        epsilon = calibrate([3.0, 3.0, 3.0], 0.95)
        assert epsilon == 3.0
        assert not 3.0 > epsilon

    def test_single_score(self):
        assert calibrate([0.7], 0.95) == 0.7

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            calibrate([], 0.95)

    def test_bad_target_rejected(self):
        with pytest.raises(InputError):
            calibrate([1.0, 2.0], 1.5)

    def test_achieved_tnr_band(self, rng):
        # Achieved TNR lands in [target, target + 1/n] for continuous scores.
        for _ in range(50):
            n = int(rng.integers(20, 400))
            scores = rng.normal(size=n)
            target = float(rng.uniform(0.5, 0.99))
            epsilon = calibrate(scores, target)
            achieved = float(np.mean(scores <= epsilon))
            assert target <= achieved <= target + 1.0 / n + 1e-12

    def test_small_sample_guarantee(self):
        # Interpolation alone would undershoot the target here; the
        # threshold must be bumped to the next order statistic.
        epsilon = calibrate([0.0, 1.0], 0.95)
        assert np.mean(np.array([0.0, 1.0]) <= epsilon) >= 0.95


@settings(max_examples=100, deadline=None)
@given(
    scores=st.lists(
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=60,
    ),
    target=st.floats(0.01, 0.99),
)
def test_calibration_never_undershoots_target(scores, target):
    epsilon = calibrate(scores, target)
    achieved = float(np.mean(np.asarray(scores) <= epsilon))
    assert achieved >= target


class TestEvaluate:
    def test_perfect_separation(self):
        report = evaluate([0.1, 0.2], [0.1, 0.2], [0.8, 0.9], 0.95)
        assert report.auroc == 1.0
        assert report.fnr_at_tnr == 0.0

    def test_identical_multisets(self):
        report = evaluate([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0], 0.95)
        assert report.auroc == 0.5

    def test_hand_counted_auroc(self):
        report = evaluate([1, 2, 3, 4], [1, 2, 3, 4], [2.5, 5], 0.95)
        assert report.auroc == 0.75

    def test_rank_auroc_equals_pairwise_oracle_exactly(self, rng):
        for _ in range(30):
            n_ind = int(rng.integers(1, 80))
            n_ood = int(rng.integers(1, 80))
            # Quantize some runs to force ties across the two populations.
            if rng.random() < 0.5:
                ind = np.round(rng.normal(size=n_ind), 1)
                ood = np.round(rng.normal(size=n_ood), 1)
            else:
                ind = rng.normal(size=n_ind)
                ood = rng.normal(size=n_ood)
            assert auroc_rank(ind, ood) == pairwise_auroc(ind, ood)

    @settings(max_examples=150, deadline=None)
    @given(
        ind=st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 0.5, 3.0]) | st.floats(-4, 4),
                     min_size=1, max_size=60),
        ood=st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 0.5, 3.0]) | st.floats(-4, 4),
                     min_size=1, max_size=60),
        data=st.data(),
    )
    def test_sorted_keys_equal_the_unsorted_formula(self, ind, ood, data):
        # Ties within and across the populations, in any order: the AUROC has
        # the bits of the rank formula over the OOD scores as given.
        ood = data.draw(st.permutations(ood))
        keys = np.sort(np.array(ind))
        twice_u = (np.searchsorted(keys, ood, "left") + np.searchsorted(keys, ood, "right")).sum()
        want = float(twice_u) / 2.0 / (len(ind) * len(ood))
        assert auroc_rank(data.draw(st.permutations(ind)), ood).hex() == want.hex()

    def test_monotone_transform_invariance(self, rng):
        ind = rng.normal(size=60)
        ood = rng.normal(loc=0.5, size=40)
        base = evaluate(ind, ind, ood, 0.9)
        transformed = evaluate(np.exp(ind), np.exp(ind), np.exp(ood), 0.9)
        assert base.auroc == transformed.auroc
        # Per-sample decisions at the recalibrated threshold are unchanged.
        np.testing.assert_array_equal(
            ind > base.epsilon, np.exp(ind) > transformed.epsilon
        )
        np.testing.assert_array_equal(
            ood > base.epsilon, np.exp(ood) > transformed.epsilon
        )

    def test_histograms_shared_range(self, rng):
        ind = rng.normal(size=100)
        ood = rng.normal(loc=2.0, size=50)
        report = evaluate(ind, ind, ood, 0.95)
        assert report.hist_ind.sum() == 100
        assert report.hist_ood.sum() == 50
        assert len(report.hist_ind) == 50
        assert len(report.bin_edges) == 51

    def test_degenerate_range_guarded(self):
        report = evaluate([1.0, 1.0], [1.0, 1.0], [1.0], 0.95)
        assert report.hist_ind.sum() == 2

    def test_constant_scores_bin_one_unit_up(self):
        # Every score equal: the bins span [score, score + 1], so all counts
        # fall in the first bin.
        report = evaluate([0.25] * 3, [0.25] * 4, [0.25] * 2, 0.95)
        assert (report.bin_edges[0], report.bin_edges[-1]) == (0.25, 1.25)
        assert (report.hist_ind[0], report.hist_ood[0]) == (4, 2)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            evaluate([], [], [1.0], 0.95)

    def test_threshold_comes_from_the_calibration_list(self):
        report = evaluate([0.0, 10.0], [1.0, 2.0, 12.0], [5.0, 11.0], 0.5)
        assert report.epsilon == calibrate([0.0, 10.0], 0.5)
        assert (report.n_ind, report.tn_count, report.fn_count) == (3, 2, 1)


class TestMaxSoftmaxScore:
    # The binary closed-form score is the max-softmax baseline 1 - max(f).
    CFG = ScoreConfig(CostKind.BINARY, EvalPath.CLOSED_FORM)

    def test_one_hot_zero(self):
        assert scores([one_hot(2, 5)], self.CFG)[0][0] == 0.0

    def test_uniform(self):
        assert scores([np.full(10, 0.1)], self.CFG)[0][0] == pytest.approx(0.9)

    def test_example_value(self):
        assert scores([[0.5, 0.3, 0.2]], self.CFG)[0][0] == pytest.approx(0.5)

    def test_identity_with_binary_closed_score(self, rng):
        # Both are literally 1 - max(f): bitwise equal on every input.
        for _ in range(100):
            f = random_simplex(rng, int(rng.integers(2, 12)))
            values, classes = scores(f[None, :], self.CFG)
            assert values[0] == 1.0 - np.max(f)
            assert classes[0] == np.argmax(f)


class TestRendering:
    def test_report_text_fields(self):
        report = evaluate([0.1, 0.2, 0.3], [0.1, 0.2, 0.3], [0.8, 0.9], 0.9)
        text = report_text(report)
        for key in ("tnr:", "fnr_at_tnr:", "auroc:", "n_ind: 3", "n_ood: 2"):
            assert key in text

    def test_histogram_csv_lines(self):
        report = evaluate([0.1, 0.2, 0.3], [0.1, 0.2, 0.3], [0.8, 0.9], 0.9)
        lines = histogram_csv_lines(report, "ind")
        assert lines[0] == "bin_center,count"
        assert len(lines) == 51
        assert sum(int(line.split(",")[1]) for line in lines[1:]) == 3

    def test_rendered_text_is_plain_floats(self):
        report = evaluate([0.1, 0.2, 0.3], [0.1, 0.2, 0.3], [0.8, 0.9], 0.9)
        text = report_text(report) + "\n".join(histogram_csv_lines(report, "ood"))
        assert "np.float64" not in text
        center = float(histogram_csv_lines(report, "ind")[1].split(",")[0])
        assert report.bin_edges[0] < center < report.bin_edges[-1]
