"""Trace-by-trace reference for the trace layer's block synthesis and reduction.

`reference_series_traces` draws the traces of a series one after another
from one seeded stream and smooths each with a direct convolution;
`reference_segment_stats` and `reference_measure_series` reduce them one
trace at a time.  The runtime draws a series as one 2-D block and smooths it
with a prefix scan, which rounds differently: the tests require the same
points within a stated rounding bound, and the same bits at one tap
(phi = 0), where both reduce to the drawn values.

`reference_running_sums` and `reference_segment_moments` are the scan and
the reduction written plainly, row by row with fresh arrays and numpy's
`mean` and `std(ddof=1)`, and `reference_series_summary` is a series'
mean, standard error and mean delta_n from those arrays.  The runtime runs
the same scan in place on the block's flat rows and makes the reductions'
own calls, and must give their bits exactly.
"""

import math

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


def reference_running_sums(x, phi, taps):
    """sum_{k < taps} phi^k x[:, n + taps - 1 - k] for each row, right-aligned,
    by the binary prefix scan on each row's own columns: s holds the sums over
    h taps and doubles as s[:, h:] + phi^h s[:, :-h]; acc holds the sums over
    the set bits of taps taken so far, a taps in all, and takes in the older
    block h as acc[:, h:] + phi^a s.  Every step makes fresh arrays."""
    acc, phi_a = None, 1.0
    s, h, phi_h = x, 1, phi
    while True:
        if taps & h:
            acc = s if acc is None else acc[:, h:] + phi_a * s[:, :acc.shape[1] - h]
            phi_a *= phi_h
        if 2 * h > taps:
            return acc
        s = s[:, h:] + phi_h * s[:, :-h]
        phi_h *= phi_h
        h *= 2


def reference_segment_moments(values, cfg):
    """Per-row mean and sample standard deviation of the segment means, by
    numpy's mean and std(ddof=1)."""
    n = values.shape[0]
    ns = values.mean(axis=1)
    seg = values.reshape(n, -1, cfg.segment_length).mean(axis=2)
    return ns, seg.std(axis=1, ddof=1)


def reference_series_summary(ns, deltas, cfg):
    """(n_mean, sem, delta_mean) of a series from its per-trace arrays: each
    mean a numpy sum over the count, and the standard error the mean
    delta_n over sqrt(segments per trace * traces)."""
    n_segments = cfg.points_per_trace // cfg.segment_length
    n_mean, delta_mean = (float(v.sum() / len(v)) for v in (ns, deltas))
    return n_mean, delta_mean / math.sqrt(n_segments * len(ns)), delta_mean
