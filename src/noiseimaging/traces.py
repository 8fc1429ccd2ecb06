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


def segment_stats(trace, technique="quantum"):
    """Reduce a trace to (mean, segment-scatter) as a NoiseMeasurement.

    The uncertainty is the sample standard deviation of the segment means.
    """
    cfg = trace.config
    if len(trace.values) % cfg.segment_length != 0:
        raise TraceError("trace length is not divisible by the segment length")
    seg_means = trace.values.reshape(cfg.n_segments, cfg.segment_length).mean(axis=1)
    n = float(trace.values.mean())
    delta_n = float(seg_means.std(ddof=1)) if cfg.n_segments > 1 else 0.0
    return NoiseMeasurement(n=n, delta_n=delta_n, technique=technique)


def measure_series(n_true, cfg, n_series, technique="quantum", first_index=0):
    """Independent seeded traces reduced by segment statistics."""
    if n_series < 1:
        raise TraceError("n_series must be >= 1")
    out = []
    for i in range(int(n_series)):
        trace = simulate_trace(n_true, cfg, trace_index=first_index + i)
        out.append(segment_stats(trace, technique=technique))
    return out


def trace_to_csv(trace, path):
    """Export a trace as CSV rows of (point index, value)."""
    lines = ["index,value"]
    lines += ["%d,%s" % (i, format(v, ".12g")) for i, v in enumerate(trace.values)]
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def seeded_config(cfg, master, *tags):
    """Copy an acquisition config with a sub-seed derived from tags."""
    return replace(cfg, rng_seed=derive_seed(master, *tags))
