"""Trace-by-trace reference for the trace layer's block synthesis and reduction.

`reference_series_traces` draws the traces of a series one after another
from one seeded stream and smooths each with a direct convolution;
`reference_segment_stats` and `reference_measure_series` reduce them one
trace at a time.  The runtime draws a series as one 2-D block and smooths it
with a prefix scan, which rounds differently: the tests require the same
points within a stated rounding bound, and the same bits at one tap
(phi = 0), where both reduce to the drawn values.
"""

import numpy as np
from numpy.random import default_rng

from noiseimaging.traces import TraceError

# the runtime's prefix scan and the reference's convolution sum the same
# terms in different orders; the worst relative difference seen is about
# 42 eps at phi = 0.999 (27,619 taps) and under 7 eps at phi <= 0.99
REL_BOUND = 64 * np.finfo(float).eps


def relative_difference(got, want):
    """The largest |got - want| / |want| over two arrays of one shape."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    return float(np.max(np.abs(got - want) / np.abs(want), initial=0.0))


def reference_series_traces(n_true, cfg, n_series, seed):
    """The points of n_series traces of chi-square noise power, read-only.

    The traces are drawn in turn from the one stream `seed`, so trace i is
    deterministic for a fixed (seed, i) pair.
    """
    n_true = float(n_true)
    if not n_true > 0:
        raise TraceError("true noise power must be positive, got %r" % (n_true,))
    rng = default_rng(seed)
    # average of samples_per_point squared standard Gaussians per raw point,
    # drawn directly as chi-square(samples) / samples
    df = cfg.samples_per_point
    phi = cfg.point_correlation
    burn_in = _burn_in(phi)
    # exponentially weighted running average: an AR(1) with lag correlation
    # phi^d that keeps power samples positive by construction, its kernel
    # cut where the weights fall below the burn-in bound
    kernel = (1.0 - phi) * phi ** np.arange(burn_in + 1)
    traces = []
    for _ in range(int(n_series)):
        raw = rng.chisquare(df, size=cfg.points_per_trace + burn_in) / df
        points = n_true * np.convolve(raw, kernel, mode="valid")
        if np.any(points <= 0):
            raise TraceError(
                "trace contains non-positive noise power; increase samples_per_point"
            )
        points.setflags(write=False)
        traces.append(points)
    return traces


def _burn_in(phi):
    """Raw points to discard so the running average starts stationary."""
    if phi <= 0.0:
        return 0
    return int(np.ceil(np.log(1e-12) / np.log(phi)))


def reference_segment_stats(points, cfg):
    """Reduce one trace's points to (mean, segment scatter).

    The scatter is the sample standard deviation of the segment means.
    """
    if len(points) % cfg.segment_length != 0:
        raise TraceError("trace length is not divisible by the segment length")
    n_segments = cfg.points_per_trace // cfg.segment_length
    seg_means = points.reshape(n_segments, cfg.segment_length).mean(axis=1)
    return float(points.mean()), float(seg_means.std(ddof=1))


def reference_measure_series(n_true, cfg, n_series, seed):
    """(n, delta_n) of independent seeded traces, one pair per trace."""
    if n_series < 1:
        raise TraceError("n_series must be >= 1")
    return [reference_segment_stats(points, cfg)
            for points in reference_series_traces(n_true, cfg, n_series, seed)]
