"""Trace-by-trace reference for the trace layer's block synthesis and reduction.

`reference_simulate_trace`, `reference_segment_stats` and
`reference_measure_series` draw, smooth and reduce one trace at a time, the
way the runtime did before it handled a whole series as one 2-D block.  The
tests require the same bits from both.
"""

import numpy as np
from numpy.random import default_rng

from noiseimaging.noise import NoiseMeasurement
from noiseimaging.traces import Trace, TraceError


def reference_simulate_trace(n_true, cfg, trace_index=0):
    """Generate one trace of chi-square noise power at the given level.

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
    points = np.convolve(raw, kernel, mode="valid")
    return Trace(values=n_true * points, config=cfg, true_n=n_true)


def _burn_in(phi):
    """Raw points to discard so the running average starts stationary."""
    if phi <= 0.0:
        return 0
    return int(np.ceil(np.log(1e-12) / np.log(phi)))


def reference_segment_stats(trace, technique="quantum"):
    """Reduce a trace to (mean, segment-scatter) as a NoiseMeasurement.

    The uncertainty is the sample standard deviation of the segment means.
    """
    cfg = trace.config
    if len(trace.values) % cfg.segment_length != 0:
        raise TraceError("trace length is not divisible by the segment length")
    seg_means = trace.values.reshape(cfg.n_segments, cfg.segment_length).mean(axis=1)
    n = float(trace.values.mean())
    delta_n = float(seg_means.std(ddof=1))
    return NoiseMeasurement(n=n, delta_n=delta_n, technique=technique)


def reference_measure_series(n_true, cfg, n_series, technique="quantum", first_index=0):
    """Independent seeded traces reduced by segment statistics."""
    if n_series < 1:
        raise TraceError("n_series must be >= 1")
    out = []
    for i in range(int(n_series)):
        trace = reference_simulate_trace(n_true, cfg, trace_index=first_index + i)
        out.append(reference_segment_stats(trace, technique=technique))
    return out
