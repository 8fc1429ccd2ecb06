"""The block trace synthesis and reduction against the trace-by-trace
reference.

The runtime smooths with a prefix scan and the reference with a direct
convolution, so their points and trace means agree within REL_BOUND, not
bit for bit; at one tap (phi = 0) both are the drawn values and must agree
bit for bit, which pins the stream layout.  The block reduction must give
the trace-by-trace reduction's bits on the same points, and every rejected
input must raise the same exception type.

The in-place flat scan and the direct reductions must give the bits of the
row-wise scan and of numpy's mean and std(ddof=1) exactly.  The kernel may
overwrite its input, so each side gets its own copy.
"""

from pathlib import Path

import numpy as np
import pytest

from noiseimaging.config import RunConfig, load_config
from noiseimaging.traces import (
    TraceError,
    _burn_in,
    _running_sums,
    _segment_moments,
    _series_points,
    check_acquisition,
    derive_seed,
    measure_series,
)
from trace_reference import (
    REL_BOUND,
    reference_measure_series,
    reference_running_sums,
    reference_segment_moments,
    reference_segment_stats,
    reference_series_summary,
    reference_series_traces,
    relative_difference,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

EPS = np.finfo(float).eps


def _outcome(fn, *args, **kwargs):
    """('ok', result) or ('raise', exception type)."""
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:  # the exception type is what gets compared
        return "raise", type(exc)


def assert_close_to_reference(got, want, exact):
    """Require got == want bit for bit when exact, else within REL_BOUND, and
    return the worst relative difference."""
    worst = relative_difference(got, want)
    if exact:
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert worst <= REL_BOUND, "worst relative difference %.3g (%.1f eps)" % (worst, worst / EPS)
    return worst


def _report(worst):
    print("worst relative difference %.3g (%.1f eps)" % (worst, worst / EPS))


def assert_same_series(n_true, cfg, n_series, seed):
    """Check measure_series and the block's points against the reference and
    return the worst relative difference seen (0 when the inputs raise)."""
    got = _outcome(measure_series, n_true, cfg.replace(n_series=n_series), seed)
    want = _outcome(reference_measure_series, n_true, cfg, n_series, seed)
    assert got[0] == want[0]
    if want[0] == "raise":
        assert got[1] is want[1]
        return 0.0
    _, (ns, deltas) = got[1]
    assert ns.shape == deltas.shape == (n_series,)
    assert len(want[1]) == n_series
    # the block reduction is the trace-by-trace one, bit for bit, on the same
    # points; a segment scatter is far smaller than the points, so it is
    # compared through them rather than at the points' relative bound
    block = _series_points(n_true, cfg, n_series, seed)
    reduced = [reference_segment_stats(row, cfg) for row in block]
    assert np.column_stack([ns, deltas]).tobytes() == np.array(reduced).tobytes()
    exact = cfg.point_correlation == 0.0
    return max(
        assert_close_to_reference(
            block, np.array(reference_series_traces(n_true, cfg, n_series, seed)), exact),
        assert_close_to_reference(ns, np.array(want[1])[:, 0], exact),
    )


def _random_config(rng):
    """A random acquisition and the seed of its series."""
    segment_length = int(rng.integers(1, 17))
    n_segments = int(rng.integers(2, 31))
    phi = 0.0 if rng.random() < 0.15 else float(rng.uniform(0.0, 0.97))
    cfg = RunConfig(
        points_per_trace=segment_length * n_segments,
        segment_length=segment_length,
        samples_per_point=int(rng.integers(1, 1001)),
        point_correlation=phi,
    )
    return cfg, derive_seed(int(rng.integers(0, 2**31)), "trace-reference")


def test_random_acquisitions_match_the_reference():
    rng = np.random.default_rng(41)
    seen = {"phi0": 0, "seg1": 0, "series1": 0}
    worst = 0.0
    for _ in range(420):
        cfg, seed = _random_config(rng)
        n_series = 1 if rng.random() < 0.15 else int(rng.integers(1, 13))
        level = float(10.0 ** rng.uniform(-3.0, 1.0))
        worst = max(worst, assert_same_series(level, cfg, n_series, seed))
        seen["phi0"] += cfg.point_correlation == 0.0
        seen["seg1"] += cfg.segment_length == 1
        seen["series1"] += n_series == 1
    assert min(seen.values()) >= 10, seen
    _report(worst)


@pytest.mark.parametrize("name", ["desk_sweep.cfg", "alphabet_recognition.cfg"])
def test_shipped_profiles_match_the_reference(name):
    run = load_config(CONFIGS / name)
    worst = 0.0
    for k, level in enumerate((0.45, 0.6026, 1.0, 1.7, 4.4)):
        for technique in ("classical", "quantum"):
            seed = derive_seed(run.seed, "sweep", technique, k)
            worst = max(worst, assert_same_series(level, run, run.n_series, seed))
    _report(worst)


@pytest.mark.parametrize("n_true", [0.0, -1.0, float("nan")], ids=["zero", "negative", "nan"])
def test_nonpositive_levels_raise_like_the_reference(n_true):
    with pytest.raises(TraceError, match="must be positive"):
        measure_series(n_true, RunConfig(n_series=3), 5)
    for fn in (reference_measure_series, reference_series_traces, _series_points):
        with pytest.raises(TraceError, match="must be positive"):
            fn(n_true, RunConfig(), 3, 5)


def test_empty_series_raises_like_the_reference():
    assert_same_series(1.0, RunConfig(), 0, 0)


def test_simulated_trace_points_match_the_reference():
    # the last row of a block is the trace drawn last from its stream
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        cfg, seed = _random_config(rng)
        level = float(10.0 ** rng.uniform(-3.0, 1.0))
        row = int(rng.integers(0, 50))
        got = _series_points(level, cfg, row + 1, seed)[row]
        want = reference_series_traces(level, cfg, row + 1, seed)[row]
        worst = max(worst, assert_close_to_reference(got, want, cfg.point_correlation == 0.0))
    _report(worst)


def test_block_rows_match_the_reference_trace_by_trace():
    # row i of a block is the i-th trace drawn from its stream, so a series
    # can stand for its traces one by one
    rng = np.random.default_rng(43)
    worst = 0.0
    for _ in range(150):
        cfg, seed = _random_config(rng)
        level = float(10.0 ** rng.uniform(-3.0, 1.0))
        n_series = int(rng.integers(1, 13))
        block = _series_points(level, cfg, n_series, seed)
        assert block.shape == (n_series, cfg.points_per_trace)
        for row, want in zip(block, reference_series_traces(level, cfg, n_series, seed)):
            worst = max(worst, assert_close_to_reference(row, want,
                                                         cfg.point_correlation == 0.0))
    _report(worst)


def _phi_with_taps(taps):
    """A phi in (0, 1) whose running average keeps exactly `taps` taps."""
    # _burn_in(phi) = ceil(log(1e-12) / log(phi)): aim at the middle of the step
    phi = float(np.exp(np.log(1e-12) / (taps - 1.5)))
    assert _burn_in(phi) + 1 == taps
    return phi


@pytest.mark.parametrize("taps", [2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65,
                                  127, 128, 129])
@pytest.mark.parametrize("n_series", [1, 3])
def test_scan_tap_counts_match_the_reference(taps, n_series):
    # L = 2^k - 1 sets every low bit, 2^k only the top one, 2^k + 1 the two ends
    cfg = RunConfig(points_per_trace=60, segment_length=6, samples_per_point=40,
                    point_correlation=_phi_with_taps(taps))
    assert_same_series(1.3, cfg, n_series, derive_seed(3, taps))


@pytest.mark.parametrize("n_series", [1, 2])
def test_one_tap_is_the_drawn_stream_bit_for_bit(n_series):
    cfg = RunConfig(points_per_trace=40, segment_length=4, samples_per_point=25,
                    point_correlation=0.0)
    assert _burn_in(cfg.point_correlation) + 1 == 1
    assert_same_series(2.7, cfg, n_series, derive_seed(4, n_series))


@pytest.mark.parametrize("n_series", [1, 2])
def test_long_memory_matches_the_reference(n_series):
    # phi = 0.999 keeps 27,619 taps (15 doublings), where the scan's order of
    # summation differs most from the convolution's
    cfg = RunConfig(points_per_trace=460, segment_length=10, samples_per_point=300,
                    point_correlation=0.999)
    assert _burn_in(cfg.point_correlation) + 1 == 27619
    worst = assert_same_series(0.8, cfg, n_series, derive_seed(5, n_series))
    _report(worst)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_flat_scan_and_moments_are_the_row_wise_bits():
    rng = np.random.default_rng(45)
    seen = {"taps1": 0, "full_width": 0, "rows1": 0, "moments": 0}
    for _ in range(1200):
        rows, width = int(rng.integers(1, 13)), int(rng.integers(1, 601))
        taps = int(rng.integers(1, width + 1))
        phi = float(rng.uniform(0.0, 0.999))
        x = rng.chisquare(int(rng.integers(1, 301)), size=(rows, width))
        want = reference_running_sums(x.copy(), phi, taps)
        got = _running_sums(x.copy(), phi, taps)
        assert_same_bits(got, want)
        seen["taps1"] += taps == 1
        seen["full_width"] += taps == width
        seen["rows1"] += rows == 1
        # any length of at least two segments, split into segments
        points = got.shape[1]
        lengths = [d for d in range(1, points // 2 + 1) if points % d == 0]
        if lengths:
            cfg = RunConfig(points_per_trace=points, segment_length=int(rng.choice(lengths)))
            for mine, numpys in zip(_segment_moments(got, cfg),
                                    reference_segment_moments(want.copy(), cfg)):
                assert_same_bits(mine, numpys)
            seen["moments"] += 1
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("name", ["desk_sweep.cfg", "alphabet_recognition.cfg"])
def test_shipped_profiles_are_the_row_wise_bits(name):
    # measure_series against its draw, smoothed, reduced and summarized by
    # the reference
    run = load_config(CONFIGS / name)
    taps = check_acquisition(run) - run.points_per_trace + 1
    phi = run.point_correlation
    for k, level in enumerate((0.45, 0.6026, 1.0, 1.7, 4.4)):
        seed = derive_seed(run.seed, "sweep", "quantum", k)
        raw = np.random.default_rng(seed).chisquare(
            run.samples_per_point, size=(run.n_series, check_acquisition(run)))
        raw /= run.samples_per_point
        vals = reference_running_sums(raw, phi, taps) * ((1.0 - phi) * level)
        summary, arrays = measure_series(level, run, seed)
        want = reference_segment_moments(vals, run)
        for mine, numpys in zip(arrays, want):
            assert_same_bits(mine, numpys)
        assert_same_bits(np.array(summary), np.array(reference_series_summary(*want, run)))
