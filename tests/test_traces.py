import tracemalloc

import numpy as np
import pytest

from noiseimaging.config import RunConfig
from noiseimaging.traces import (
    TraceError,
    _running_sums,
    _segment_moments,
    _series_points,
    check_acquisition,
    derive_seed,
    measure_series,
)
from trace_reference import REL_BOUND, relative_difference

DEFAULT = RunConfig()
SEED = 0


def trace_points(n_true, cfg, row=0, seed=SEED):
    """The points of one trace: the last row of a block of row + 1 traces."""
    return _series_points(n_true, cfg, row + 1, seed)[row]


def ar1_segment_mean_std(cfg, n_true=1.0):
    """Closed-form standard deviation of a segment mean for the generator.

    Raw point variance is 2 n^2 / samples (chi-square); the exponentially
    weighted running average scales the marginal variance by
    (1-phi)/(1+phi) and correlates lags as phi^d.
    """
    phi, seg = cfg.point_correlation, cfg.segment_length
    var_pt = 2.0 * n_true**2 / cfg.samples_per_point * (1 - phi) / (1 + phi)
    acc = seg + 2 * sum((seg - d) * phi**d for d in range(1, seg))
    return np.sqrt(var_pt * acc) / seg


def assert_rejected(cfg, message):
    """Both the check and the library boundary that runs it before drawing
    reject cfg with exactly this message."""
    for check in (check_acquisition,
                  lambda cfg: measure_series(1.0, cfg.replace(n_series=1), SEED)):
        with pytest.raises(TraceError) as info:
            check(cfg)
        assert str(info.value) == message


class TestConfigValidation:
    def test_divisibility(self):
        assert_rejected(RunConfig(points_per_trace=101, segment_length=10),
                        "points_per_trace (101) must be divisible by segment_length (10)")

    def test_single_segment_rejected(self):
        assert_rejected(RunConfig(points_per_trace=10, segment_length=10),
                        "points_per_trace (10) must span at least two segments of"
                        " segment_length (10): the segment scatter needs two segment means")

    def test_bad_correlation(self):
        for phi in (-0.1, 1.0):
            assert_rejected(RunConfig(point_correlation=phi),
                            "point_correlation must lie in [0, 1)")

    def test_bad_samples(self):
        assert_rejected(RunConfig(samples_per_point=0), "samples_per_point must be >= 1")


class TestSimulateTrace:
    def test_rejects_nonpositive_power(self):
        for n in (0.0, -1.0):
            with pytest.raises(TraceError):
                trace_points(n, DEFAULT)

    def test_deterministic_under_seed(self):
        a = trace_points(1.3, DEFAULT, row=7)
        b = trace_points(1.3, DEFAULT, row=7)
        assert np.array_equal(a, b)

    def test_rows_of_a_block_differ(self):
        block = _series_points(1.3, DEFAULT, 2, SEED)
        assert not np.array_equal(block[0], block[1])

    def test_a_block_is_its_leading_rows_drawn_alone(self):
        # the rows are drawn in turn from one stream, so a shorter block of
        # the same seed is a prefix of a longer one
        longer = _series_points(1.3, DEFAULT, 5, SEED)
        assert np.array_equal(_series_points(1.3, DEFAULT, 2, SEED), longer[:2])

    def test_exact_scale_equivariance(self):
        a = trace_points(1.0, DEFAULT, row=3)
        b = trace_points(2.5, DEFAULT, row=3)
        assert np.allclose(b, 2.5 * a, rtol=1e-14)

    def test_large_sample_limit_pins_points(self):
        cfg = RunConfig(samples_per_point=200000, point_correlation=0.0)
        points = trace_points(1.0, cfg)
        # per-point sd is sqrt(2/200000) ~ 0.0032; 460 points stay within 6 sd
        assert np.max(np.abs(points - 1.0)) < 6 * np.sqrt(2 / 200000)

    def test_mean_concentration_uncorrelated(self):
        bound = 3 * np.sqrt(2.0 / (460 * 300))
        hits = 0
        for seed in range(300):
            points = trace_points(1.0, RunConfig(point_correlation=0.0), seed=seed)
            hits += abs(points.mean() - 1.0) <= bound
        assert hits / 300 >= 0.99


class TestRunningSums:
    """The prefix scan against the direct sums sum_k phi^k x[n + taps - 1 - k],
    at the reference's relative bound."""

    def test_every_tap_count_matches_the_direct_sums(self):
        rng = np.random.default_rng(44)
        worst = 0.0
        for taps in range(1, 135):
            phi = float(rng.uniform(0.05, 0.995))
            x = rng.chisquare(30, size=(2, 40 + taps - 1)) / 30
            want = np.array([np.convolve(row, phi ** np.arange(taps), mode="valid")
                             for row in x])
            worst = max(worst, relative_difference(_running_sums(x, phi, taps), want))
        assert worst <= REL_BOUND, "worst relative difference %.3g" % worst
        print("worst relative difference %.3g (%.1f eps)" % (worst, worst / np.finfo(float).eps))

    def test_rows_do_not_mix(self):
        x = np.zeros((3, 50))
        x[1, 7] = 1.0
        sums = _running_sums(x, 0.5, 9)
        assert sums.shape == (3, 42)
        assert not sums[0].any() and not sums[2].any()
        # output n sums raw n .. n + 8, so an impulse at raw 7 enters outputs
        # 0 .. 7 as tap k = n + 1, with weight 0.5^(n + 1)
        assert np.array_equal(sums[1, :8], 0.5 ** np.arange(1, 9))
        assert not sums[1, 8:].any()

    @pytest.mark.parametrize("taps", [1, 16, 50])
    def test_impulses_at_row_ends_stay_in_their_rows(self, taps):
        # the scan runs on the flat rows, so row r's last raw column is next
        # to row r + 1's first; each impulse must reach only its own row's
        # kept outputs (powers of two, so the direct sums are exact)
        x = np.zeros((3, 50))
        x[0, -1], x[1, 0], x[1, -1], x[2, 0] = 1.0, 2.0, 4.0, 8.0
        want = np.array([np.convolve(row, 0.5 ** np.arange(taps), mode="valid")
                         for row in x])
        sums = _running_sums(x.copy(), 0.5, taps)
        assert sums.shape == (3, 50 - taps + 1)
        assert np.array_equal(sums, want)
        assert sums[0, -1] == 1.0 and sums[2, 0] == 8.0 * 0.5 ** (taps - 1)


class TestWorkingMemory:
    @pytest.mark.parametrize("n_series", [10, 200])
    def test_a_series_peaks_at_three_blocks(self, n_series):
        # the drawn block and the scan's two scratch blocks, at the shipped
        # 500 raw points a trace; the reductions' arrays are a tenth of one
        assert check_acquisition(DEFAULT) == 500
        block = n_series * 500 * 8
        cfg = DEFAULT.replace(n_series=n_series)
        measure_series(1.0, cfg, SEED)
        tracemalloc.start()
        try:
            measure_series(1.0, cfg, SEED)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * block + 16 * 2**10, "traced peak %.2f blocks" % (peak / block)


class TestSegmentStats:
    # each population is drawn as one block, whose rows are the traces drawn
    # in turn from one stream
    def test_constant_trace_zero_delta(self):
        cfg = RunConfig()
        ns, deltas = _segment_moments(np.ones((1, cfg.points_per_trace)), cfg)
        assert ns[0] == 1.0
        assert deltas[0] == 0.0

    def test_mean_is_trace_mean(self):
        block = _series_points(1.7, DEFAULT, 3, SEED)
        ns, _ = _segment_moments(block, DEFAULT)
        assert ns[2] == pytest.approx(block[2].mean())

    def test_iid_prediction(self):
        cfg = RunConfig(point_correlation=0.0)
        _, (_, deltas) = measure_series(1.0, cfg.replace(n_series=1000), SEED)
        predicted = ar1_segment_mean_std(cfg)
        assert predicted == pytest.approx(np.sqrt(2 / 300 / 10), abs=1e-12)
        assert np.mean(deltas) == pytest.approx(predicted, rel=0.05)

    def test_ar1_prediction_within_15_percent(self):
        _, (_, deltas) = measure_series(1.0, DEFAULT.replace(n_series=1000), SEED)
        assert np.mean(deltas) == pytest.approx(ar1_segment_mean_std(DEFAULT), rel=0.15)

    def test_segment_means_nearly_independent(self):
        # lag >= 1 autocorrelation of segment means stays below 0.1
        acc = []
        for points in _series_points(1.0, DEFAULT, 400, SEED):
            seg = points.reshape(46, 10).mean(axis=1)
            seg = seg - seg.mean()
            denom = float(seg @ seg)
            for lag in (1, 2, 3):
                acc.append(float(seg[:-lag] @ seg[lag:]) / denom)
        by_lag = np.array(acc).reshape(400, 3).mean(axis=0)
        assert np.all(np.abs(by_lag) < 0.1)

    def test_unbiased_estimator_of_true_power(self):
        cfg = RunConfig(samples_per_point=20)
        _, (means, _) = measure_series(2.0, cfg.replace(n_series=10**4), SEED)
        grand = np.mean(means)
        se = np.std(means) / np.sqrt(len(means))
        assert abs(grand - 2.0) < 3 * se


class TestMeasureSeries:
    def test_singleton(self):
        _, (ns, deltas) = measure_series(1.0, DEFAULT.replace(n_series=1), SEED)
        assert ns.shape == deltas.shape == (1,)
        assert ns[0] == trace_points(1.0, DEFAULT).mean()

    def test_scaling_matched_seeds(self):
        _, a = measure_series(1.0, DEFAULT.replace(n_series=5), SEED)
        _, b = measure_series(3.0, DEFAULT.replace(n_series=5), SEED)
        for na, da, nb, db in zip(*a, *b):
            assert nb == pytest.approx(3.0 * na, rel=1e-14)
            assert db == pytest.approx(3.0 * da, rel=1e-12)

    def test_delta_over_n_seed_invariant_across_levels(self):
        for level in (0.6, 1.0, 1.6, 2.5):
            _, (ns, deltas) = measure_series(level, DEFAULT.replace(n_series=3), SEED)
            _, (ref_ns, ref_deltas) = measure_series(1.0, DEFAULT.replace(n_series=3), SEED)
            for n, d, ref_n, ref_d in zip(ns, deltas, ref_ns, ref_deltas):
                assert d / n == pytest.approx(ref_d / ref_n, abs=1e-12)

    def test_series_spread_consistent_with_delta(self):
        # chi-square test of the 10 series means against their per-trace
        # uncertainties (delta_n / sqrt(segments))
        _, (ns, deltas) = measure_series(1.0, DEFAULT.replace(n_series=10), SEED)
        sems = deltas / np.sqrt(46)
        stat = float(np.sum((ns - ns.mean()) ** 2 / sems**2))
        from scipy.stats import chi2

        p = chi2.sf(stat, df=9)
        assert p > 0.01

    def test_rejects_zero_series(self):
        with pytest.raises(TraceError):
            measure_series(1.0, DEFAULT.replace(n_series=0), SEED)


class TestSeeding:
    def test_derive_seed_stable_and_distinct(self):
        a = derive_seed(12345, "sweep", "quantum", 3)
        assert a == derive_seed(12345, "sweep", "quantum", 3)
        assert a != derive_seed(12345, "sweep", "quantum", 4)
        assert a != derive_seed(12345, "sweep", "classical", 3)

