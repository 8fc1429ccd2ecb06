import numpy as np
import pytest

from noiseimaging.traces import (
    AcquisitionConfig,
    TraceError,
    _segment_moments,
    _series_points,
    derive_seed,
    measure_series,
    seeded_config,
)

DEFAULT = AcquisitionConfig()


def trace_points(n_true, cfg, trace_index=0):
    """The points of one trace: row 0 of a one-row block."""
    return _series_points(n_true, cfg, 1, trace_index)[0]


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


class TestConfigValidation:
    def test_divisibility(self):
        with pytest.raises(TraceError):
            AcquisitionConfig(points_per_trace=101, segment_length=10)

    def test_single_segment_rejected(self):
        with pytest.raises(TraceError, match="two segments"):
            AcquisitionConfig(points_per_trace=10, segment_length=10)

    def test_bad_correlation(self):
        for phi in (-0.1, 1.0):
            with pytest.raises(TraceError):
                AcquisitionConfig(point_correlation=phi)

    def test_bad_samples(self):
        with pytest.raises(TraceError):
            AcquisitionConfig(samples_per_point=0)


class TestSimulateTrace:
    def test_rejects_nonpositive_power(self):
        for n in (0.0, -1.0):
            with pytest.raises(TraceError):
                trace_points(n, DEFAULT)

    def test_deterministic_under_seed(self):
        a = trace_points(1.3, DEFAULT, trace_index=7)
        b = trace_points(1.3, DEFAULT, trace_index=7)
        assert np.array_equal(a, b)

    def test_trace_index_changes_stream(self):
        a = trace_points(1.3, DEFAULT, trace_index=0)
        b = trace_points(1.3, DEFAULT, trace_index=1)
        assert not np.array_equal(a, b)

    def test_exact_scale_equivariance(self):
        a = trace_points(1.0, DEFAULT, trace_index=3)
        b = trace_points(2.5, DEFAULT, trace_index=3)
        assert np.allclose(b, 2.5 * a, rtol=1e-14)

    def test_large_sample_limit_pins_points(self):
        cfg = AcquisitionConfig(samples_per_point=200000, point_correlation=0.0)
        points = trace_points(1.0, cfg, trace_index=0)
        # per-point sd is sqrt(2/200000) ~ 0.0032; 460 points stay within 6 sd
        assert np.max(np.abs(points - 1.0)) < 6 * np.sqrt(2 / 200000)

    def test_mean_concentration_uncorrelated(self):
        bound = 3 * np.sqrt(2.0 / (460 * 300))
        hits = 0
        for seed in range(300):
            points = trace_points(1.0, AcquisitionConfig(point_correlation=0.0,
                                                         rng_seed=seed))
            hits += abs(points.mean() - 1.0) <= bound
        assert hits / 300 >= 0.99


class TestSegmentStats:
    # each population is drawn as one block: a row does not depend on the
    # block it is drawn in, so these are the traces 0 .. N-1 one by one
    def test_constant_trace_zero_delta(self):
        cfg = AcquisitionConfig()
        ns, deltas = _segment_moments(np.ones((1, cfg.points_per_trace)), cfg)
        assert ns[0] == 1.0
        assert deltas[0] == 0.0

    def test_mean_is_trace_mean(self):
        ns, _ = _segment_moments(_series_points(1.7, DEFAULT, 1, 2), DEFAULT)
        assert ns[0] == pytest.approx(trace_points(1.7, DEFAULT, trace_index=2).mean())

    def test_iid_prediction(self):
        cfg = AcquisitionConfig(point_correlation=0.0)
        _, deltas = measure_series(1.0, cfg, 1000)
        predicted = ar1_segment_mean_std(cfg)
        assert predicted == pytest.approx(np.sqrt(2 / 300 / 10), abs=1e-12)
        assert np.mean(deltas) == pytest.approx(predicted, rel=0.05)

    def test_ar1_prediction_within_15_percent(self):
        _, deltas = measure_series(1.0, DEFAULT, 1000)
        assert np.mean(deltas) == pytest.approx(ar1_segment_mean_std(DEFAULT), rel=0.15)

    def test_segment_means_nearly_independent(self):
        # lag >= 1 autocorrelation of segment means stays below 0.1
        acc = []
        for points in _series_points(1.0, DEFAULT, 400, 0):
            seg = points.reshape(46, 10).mean(axis=1)
            seg = seg - seg.mean()
            denom = float(seg @ seg)
            for lag in (1, 2, 3):
                acc.append(float(seg[:-lag] @ seg[lag:]) / denom)
        by_lag = np.array(acc).reshape(400, 3).mean(axis=0)
        assert np.all(np.abs(by_lag) < 0.1)

    def test_unbiased_estimator_of_true_power(self):
        cfg = AcquisitionConfig(samples_per_point=20)
        means, _ = measure_series(2.0, cfg, 10**4)
        grand = np.mean(means)
        se = np.std(means) / np.sqrt(len(means))
        assert abs(grand - 2.0) < 3 * se


class TestMeasureSeries:
    def test_singleton(self):
        ns, deltas = measure_series(1.0, DEFAULT, 1)
        assert ns.shape == deltas.shape == (1,)
        assert ns[0] == trace_points(1.0, DEFAULT, trace_index=0).mean()

    def test_scaling_matched_seeds(self):
        a = measure_series(1.0, DEFAULT, 5)
        b = measure_series(3.0, DEFAULT, 5)
        for na, da, nb, db in zip(*a, *b):
            assert nb == pytest.approx(3.0 * na, rel=1e-14)
            assert db == pytest.approx(3.0 * da, rel=1e-12)

    def test_delta_over_n_seed_invariant_across_levels(self):
        for level in (0.6, 1.0, 1.6, 2.5):
            ns, deltas = measure_series(level, DEFAULT, 3)
            ref_ns, ref_deltas = measure_series(1.0, DEFAULT, 3)
            for n, d, ref_n, ref_d in zip(ns, deltas, ref_ns, ref_deltas):
                assert d / n == pytest.approx(ref_d / ref_n, abs=1e-12)

    def test_series_spread_consistent_with_delta(self):
        # chi-square test of the 10 series means against their per-trace
        # uncertainties (delta_n / sqrt(segments))
        ns, deltas = measure_series(1.0, DEFAULT, 10)
        sems = deltas / np.sqrt(46)
        stat = float(np.sum((ns - ns.mean()) ** 2 / sems**2))
        from scipy.stats import chi2

        p = chi2.sf(stat, df=9)
        assert p > 0.01

    def test_rejects_zero_series(self):
        with pytest.raises(TraceError):
            measure_series(1.0, DEFAULT, 0)


class TestSeeding:
    def test_derive_seed_stable_and_distinct(self):
        a = derive_seed(12345, "sweep", "quantum", 3)
        assert a == derive_seed(12345, "sweep", "quantum", 3)
        assert a != derive_seed(12345, "sweep", "quantum", 4)
        assert a != derive_seed(12345, "sweep", "classical", 3)

    def test_seeded_config_copies(self):
        cfg = seeded_config(DEFAULT, 99, "x")
        assert cfg.rng_seed == derive_seed(99, "x")
        assert DEFAULT.rng_seed == 0

