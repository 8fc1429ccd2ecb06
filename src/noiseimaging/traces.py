"""Monte Carlo spectrum-analyzer traces and their segment statistics.

A zero-span trace is a row of displayed points, each the average of many
squared-Gaussian (chi-square) power samples; successive points mix through
an exponentially weighted running average (an AR(1) kernel), the way a
video-bandwidth filter correlates neighbouring points.  A trace reduces to
one noise measurement: the mean of all points, with the standard deviation
of the segment means as its uncertainty.

The generator is exactly scale-equivariant: for a fixed seed the whole trace
is proportional to the true noise power, so delta_n/n does not depend on it.
"""

import hashlib
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from numpy.random import default_rng

from .noise import NoiseMeasurement


class TraceError(ValueError):
    """Raised for invalid acquisition settings."""


@dataclass(frozen=True)
class AcquisitionConfig:
    """Zero-span acquisition geometry and statistics.

    points_per_trace displayed points, reduced in segments of segment_length;
    each point averages samples_per_point underlying power samples;
    point_correlation is the AR(1) coefficient between successive displayed
    points (lag-d autocorrelation point_correlation**d).
    """

    points_per_trace: int = 460
    segment_length: int = 10
    samples_per_point: int = 300
    point_correlation: float = 0.5
    rng_seed: int = 0

    def __post_init__(self):
        if self.points_per_trace < 1 or self.segment_length < 1:
            raise TraceError("points_per_trace and segment_length must be >= 1")
        if self.points_per_trace % self.segment_length != 0:
            raise TraceError(
                "points_per_trace (%d) must be divisible by segment_length (%d)"
                % (self.points_per_trace, self.segment_length)
            )
        if self.points_per_trace == self.segment_length:
            raise TraceError(
                "points_per_trace (%d) must span at least two segments of segment_length"
                " (%d): the segment scatter needs two segment means"
                % (self.points_per_trace, self.segment_length)
            )
        if self.samples_per_point < 1:
            raise TraceError("samples_per_point must be >= 1")
        if not 0.0 <= self.point_correlation < 1.0:
            raise TraceError("point_correlation must lie in [0, 1)")

    @property
    def n_segments(self):
        return self.points_per_trace // self.segment_length


@dataclass(frozen=True)
class Trace:
    """One simulated zero-span trace in SNL units."""

    values: np.ndarray
    config: AcquisitionConfig
    true_n: float

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.config.points_per_trace,):
            raise TraceError("trace length does not match points_per_trace")
        if np.any(vals <= 0):
            raise TraceError(
                "trace contains non-positive noise power; increase samples_per_point"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def derive_seed(master, *tags):
    """Deterministic 63-bit sub-seed from a master seed and string/int tags."""
    text = "|".join([str(int(master))] + [str(t) for t in tags])
    digest = hashlib.sha256(text.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def simulate_trace(n_true, cfg, trace_index=0):
    """Generate one trace of chi-square noise power at the given level.

    Deterministic for a fixed (cfg.rng_seed, trace_index) pair.
    """
    values = _series_points(n_true, cfg, 1, trace_index)[0]
    return Trace(values=values, config=cfg, true_n=float(n_true))


def _series_points(n_true, cfg, n_series, first_index):
    """Points of the traces first_index .. first_index + n_series - 1, one per row.

    Row i draws from its own stream (cfg.rng_seed, first_index + i), so a row
    does not depend on which series or block it is drawn in.
    """
    n_true = float(n_true)
    if not n_true > 0:
        raise TraceError("true noise power must be positive, got %r" % (n_true,))
    # average of samples_per_point squared standard Gaussians per raw point,
    # drawn directly as chi-square(samples) / samples
    df = cfg.samples_per_point
    burn_in, kernel = _smoothing_kernel(cfg.point_correlation)
    raw = np.empty((n_series, cfg.points_per_trace + burn_in))
    for i in range(n_series):
        rng = default_rng([cfg.rng_seed, int(first_index) + i])
        raw[i] = rng.chisquare(df, size=raw.shape[1])
    raw /= df
    # one convolution per row: laid end to end, the rows would also be
    # convolved across their seams, about burn_in wasted windows per row
    vals = np.empty((n_series, cfg.points_per_trace))
    for i in range(n_series):
        vals[i] = np.correlate(raw[i], kernel, mode="valid")
    vals *= n_true
    if np.any(vals <= 0):
        raise TraceError(
            "trace contains non-positive noise power; increase samples_per_point"
        )
    return vals


@lru_cache(maxsize=8)
def _smoothing_kernel(phi):
    """(burn_in, kernel) of the running average, shared read-only per phi.

    An exponentially weighted running average: an AR(1) with lag correlation
    phi^d that keeps power samples positive by construction, its kernel cut
    where the weights fall below the burn-in bound.  The kernel is stored
    reversed, newest weight last, so `np.correlate` with it is the
    convolution, without `np.convolve`'s per-call reversal.
    """
    burn_in = _burn_in(phi)
    kernel = ((1.0 - phi) * phi ** np.arange(burn_in + 1))[::-1].copy()
    kernel.setflags(write=False)
    return burn_in, kernel


def _burn_in(phi):
    """Raw points to discard so the running average starts stationary."""
    if phi <= 0.0:
        return 0
    return int(np.ceil(np.log(1e-12) / np.log(phi)))


def _segment_moments(values, cfg):
    """Per-row mean and sample standard deviation of the segment means."""
    n = values.shape[0]
    ns = values.mean(axis=1)
    seg = values.reshape(n, cfg.n_segments, cfg.segment_length).mean(axis=2)
    return ns, seg.std(axis=1, ddof=1)


def segment_stats(trace, technique="quantum"):
    """Reduce a trace to (mean, segment-scatter) as a NoiseMeasurement.

    The uncertainty is the sample standard deviation of the segment means.
    """
    cfg = trace.config
    if len(trace.values) % cfg.segment_length != 0:
        raise TraceError("trace length is not divisible by the segment length")
    ns, deltas = _segment_moments(trace.values[None], cfg)
    return NoiseMeasurement(n=float(ns[0]), delta_n=float(deltas[0]), technique=technique)


def measure_series(n_true, cfg, n_series, technique="quantum", first_index=0):
    """Independent seeded traces reduced by segment statistics.

    The n_series traces are drawn and reduced as one block, with the same
    values as simulate_trace and segment_stats give trace by trace.
    """
    if n_series < 1:
        raise TraceError("n_series must be >= 1")
    values = _series_points(n_true, cfg, int(n_series), first_index)
    ns, deltas = _segment_moments(values, cfg)
    return [NoiseMeasurement(n=n, delta_n=d, technique=technique)
            for n, d in zip(ns.tolist(), deltas.tolist())]


def trace_to_csv(trace, path):
    """Export a trace as CSV rows of (point index, value)."""
    lines = ["index,value"]
    lines += ["%d,%s" % (i, format(v, ".12g")) for i, v in enumerate(trace.values)]
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def seeded_config(cfg, master, *tags):
    """Copy an acquisition config with a sub-seed derived from tags."""
    return replace(cfg, rng_seed=derive_seed(master, *tags))
