"""The benchmark's statistics helpers and drift normalization."""

import statistics

import pytest

from calib import REFERENCE_MS, Calibrator, scale
from stats import median, quartiles, rank_value, spread, tail_percentile


def test_p99_needs_ten_samples_beyond_it():
    samples = list(range(1, 1001))  # rank 990 leaves exactly 10 beyond
    assert tail_percentile(samples) == (99, 990, 1000)


def test_tail_steps_down_to_highest_percentile_meeting_the_rule():
    samples = list(range(1, 251))  # 250 samples: p99 and p96 leave < 10
    pct, value, count = tail_percentile(samples)
    assert (pct, value, count) == (96, 240, 250)
    assert count - value >= 10
    # one percentile higher would leave fewer than ten beyond it
    assert count - rank_value(sorted(samples), pct + 1) < 10


def test_tail_is_none_when_even_the_median_lacks_samples():
    assert tail_percentile(list(range(19))) is None
    assert tail_percentile(list(range(20)))[0] == 50


def test_tail_ignores_input_order():
    samples = [5.0, 1.0, 3.0] * 400
    assert tail_percentile(samples) == tail_percentile(sorted(samples))


def test_nearest_rank():
    assert rank_value([1, 2, 3, 4], 50) == 2
    assert rank_value([1, 2, 3, 4], 100) == 4
    assert rank_value([7], 1) == 7


def test_quartiles_match_statistics_module():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 7.0]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert median(values) == statistics.median(values)
    q1, q2, q3 = quartiles(values)
    assert spread(values) == pytest.approx((q3 - q1) / q2)


def test_scale_maps_slice_to_reference_speed():
    # a host running at half speed doubles the calibration time
    assert scale(2 * REFERENCE_MS, 2 * REFERENCE_MS) == pytest.approx(0.5)
    assert scale(REFERENCE_MS, REFERENCE_MS) == pytest.approx(1.0)
    # the two adjacent calibrations are averaged
    assert scale(REFERENCE_MS / 2, 3 * REFERENCE_MS / 2) == pytest.approx(1.0)


def test_calibrator_records_each_timing():
    calibrator = Calibrator()
    first = calibrator.measure()
    second = calibrator.measure()
    assert calibrator.samples_ms == [first, second]
    assert first > 0 and second > 0
