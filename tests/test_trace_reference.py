"""The block trace synthesis and reduction against the trace-by-trace
reference: every measurement and every trace point must agree bit for bit,
and every rejected input must raise the same exception type."""

from pathlib import Path

import numpy as np
import pytest

from noiseimaging.config import load_config
from noiseimaging.traces import (
    AcquisitionConfig,
    TraceError,
    derive_seed,
    measure_series,
    seeded_config,
    simulate_trace,
)
from trace_reference import reference_measure_series, reference_simulate_trace

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _outcome(fn, *args, **kwargs):
    """('ok', result) or ('raise', exception type)."""
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:  # the exception type is what gets compared
        return "raise", type(exc)


def _bits(series):
    return (np.array([[m.n, m.delta_n] for m in series]).tobytes(),
            [(m.technique, m.valid) for m in series])


def assert_same_series(n_true, cfg, n_series, technique="quantum", first_index=0):
    got = _outcome(measure_series, n_true, cfg, n_series, technique=technique,
                   first_index=first_index)
    want = _outcome(reference_measure_series, n_true, cfg, n_series,
                    technique=technique, first_index=first_index)
    assert got[0] == want[0]
    if want[0] == "raise":
        assert got[1] is want[1]
        return
    assert len(got[1]) == len(want[1]) == n_series
    assert _bits(got[1]) == _bits(want[1])


def _random_config(rng):
    segment_length = int(rng.integers(1, 17))
    n_segments = int(rng.integers(2, 31))
    phi = 0.0 if rng.random() < 0.15 else float(rng.uniform(0.0, 0.97))
    return AcquisitionConfig(
        points_per_trace=segment_length * n_segments,
        segment_length=segment_length,
        samples_per_point=int(rng.integers(1, 1001)),
        point_correlation=phi,
        rng_seed=derive_seed(int(rng.integers(0, 2**31)), "trace-reference"),
    )


def test_random_acquisitions_match_the_reference():
    rng = np.random.default_rng(41)
    seen = {"phi0": 0, "seg1": 0, "series1": 0, "offset": 0}
    for _ in range(420):
        cfg = _random_config(rng)
        n_series = 1 if rng.random() < 0.15 else int(rng.integers(1, 13))
        first_index = int(rng.integers(0, 6))
        level = float(10.0 ** rng.uniform(-3.0, 1.0))
        technique = "quantum" if rng.random() < 0.5 else "classical"
        assert_same_series(level, cfg, n_series, technique, first_index)
        seen["phi0"] += cfg.point_correlation == 0.0
        seen["seg1"] += cfg.segment_length == 1
        seen["series1"] += n_series == 1
        seen["offset"] += first_index > 0
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("name", ["desk_sweep.cfg", "alphabet_recognition.cfg"])
def test_shipped_profiles_match_the_reference(name):
    run = load_config(CONFIGS / name)
    for k, level in enumerate((0.45, 0.6026, 1.0, 1.7, 4.4)):
        for technique in ("classical", "quantum"):
            cfg = seeded_config(run.acquisition(), run.seed, "sweep", technique, k)
            assert_same_series(level, cfg, run.n_series, technique)


@pytest.mark.parametrize("n_true", [0.0, -1.0, float("nan")], ids=["zero", "negative", "nan"])
def test_nonpositive_levels_raise_like_the_reference(n_true):
    cfg = AcquisitionConfig(rng_seed=5)
    for fn in (measure_series, reference_measure_series, simulate_trace,
               reference_simulate_trace):
        with pytest.raises(TraceError, match="must be positive"):
            fn(n_true, cfg, 3)


def test_empty_series_raises_like_the_reference():
    assert_same_series(1.0, AcquisitionConfig(), 0)


def test_simulated_trace_points_match_the_reference():
    rng = np.random.default_rng(42)
    for _ in range(100):
        cfg = _random_config(rng)
        level = float(10.0 ** rng.uniform(-3.0, 1.0))
        index = int(rng.integers(0, 50))
        got = simulate_trace(level, cfg, trace_index=index)
        want = reference_simulate_trace(level, cfg, trace_index=index)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.true_n == want.true_n and got.config == want.config
        assert not got.values.flags.writeable
