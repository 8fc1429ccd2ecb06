"""Trace-by-trace reference for the trace layer's block synthesis and reduction.

`reference_simulate_trace`, `reference_segment_stats` and
`reference_measure_series` draw, smooth and reduce one trace at a time, the
way the runtime did before it handled a whole series as one 2-D block.  The
tests require the same bits from both.
"""

import numpy as np
from numpy.random import default_rng

from noiseimaging.traces import TraceError


def reference_simulate_trace(n_true, cfg, trace_index=0):
    """The points of one trace of chi-square noise power, read-only.

    Deterministic for a fixed (cfg.rng_seed, trace_index) pair.
    """
    n_true = float(n_true)
    if not n_true > 0:
        raise TraceError("true noise power must be positive, got %r" % (n_true,))
    rng = default_rng([cfg.rng_seed, int(trace_index)])
    # average of samples_per_point squared standard Gaussians per raw point,
    # drawn directly as chi-square(samples) / samples
    df = cfg.samples_per_point
    phi = cfg.point_correlation
    burn_in = _burn_in(phi)
    raw = rng.chisquare(df, size=cfg.points_per_trace + burn_in) / df
    # exponentially weighted running average: an AR(1) with lag correlation
    # phi^d that keeps power samples positive by construction, its kernel
    # cut where the weights fall below the burn-in bound
    kernel = (1.0 - phi) * phi ** np.arange(burn_in + 1)
    points = n_true * np.convolve(raw, kernel, mode="valid")
    if np.any(points <= 0):
        raise TraceError(
            "trace contains non-positive noise power; increase samples_per_point"
        )
    points.setflags(write=False)
    return points


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
    seg_means = points.reshape(cfg.n_segments, cfg.segment_length).mean(axis=1)
    return float(points.mean()), float(seg_means.std(ddof=1))


def reference_measure_series(n_true, cfg, n_series, first_index=0):
    """(n, delta_n) of independent seeded traces, one pair per trace."""
    if n_series < 1:
        raise TraceError("n_series must be >= 1")
    return [
        reference_segment_stats(reference_simulate_trace(n_true, cfg, first_index + i), cfg)
        for i in range(int(n_series))
    ]
