"""Monte Carlo spectrum-analyzer traces and their segment statistics.

A zero-span trace is a row of displayed points, each the average of many
squared-Gaussian (chi-square) power samples; successive points mix through
an exponentially weighted running average (an AR(1) kernel), the way a
video-bandwidth filter correlates neighbouring points.  A trace reduces to
its mean and the standard deviation of its segment means (delta_n), and a
series of traces to one noise measurement: mean, standard error, delta_n.

The acquisition geometry, which `check_acquisition` describes and
validates, and the series length are read from the run config.  Each series
takes its own seed, which callers derive from the master seed and a tag per
series with `derive_seed`.

A series of traces draws its rows in turn from one seeded stream and smooths
them as one block, in place on its flat rows in three blocks of memory, by a
prefix scan of the running average in elementwise IEEE arithmetic only, so
its bits do not depend on the BLAS kernel or on numpy's CPU dispatch.

The generator is exactly scale-equivariant: for a fixed seed the whole trace
is proportional to the true noise power, so delta_n/n does not depend on it.
"""

import hashlib
import math

import numpy as np
from numpy.random import default_rng


class TraceError(ValueError):
    """Raised for invalid acquisition settings."""


def check_acquisition(cfg):
    """Raise a TraceError unless cfg's zero-span acquisition geometry and
    statistics are valid; return the raw points drawn per trace, the
    displayed points and the burn-in.

    points_per_trace displayed points are reduced in segments of
    segment_length; each point averages samples_per_point underlying power
    samples; point_correlation is the AR(1) coefficient between successive
    displayed points (lag-d autocorrelation point_correlation**d).
    """
    points, seg = cfg.points_per_trace, cfg.segment_length
    if points < 1 or seg < 1:
        raise TraceError("points_per_trace and segment_length must be >= 1")
    if points % seg != 0:
        raise TraceError(
            "points_per_trace (%d) must be divisible by segment_length (%d)" % (points, seg)
        )
    if points == seg:
        raise TraceError(
            "points_per_trace (%d) must span at least two segments of segment_length"
            " (%d): the segment scatter needs two segment means" % (points, seg)
        )
    if cfg.samples_per_point < 1:
        raise TraceError("samples_per_point must be >= 1")
    if not 0.0 <= cfg.point_correlation < 1.0:
        raise TraceError("point_correlation must lie in [0, 1)")
    return points + _burn_in(cfg.point_correlation)


def derive_seed(master, *tags):
    """Deterministic 63-bit sub-seed from a master seed and string/int tags."""
    text = "|".join([str(int(master))] + [str(t) for t in tags])
    digest = hashlib.sha256(text.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _series_points(n_true, cfg, n_series, seed):
    """Points of n_series traces, one per row.

    The rows are drawn in turn from the one stream `seed`, as a single
    (n_series, raw points) block, and smoothed by `_running_sums`.
    """
    raw_points = check_acquisition(cfg)
    n_true = float(n_true)
    if not n_true > 0:
        raise TraceError("true noise power must be positive, got %r" % (n_true,))
    # average of samples_per_point squared standard Gaussians per raw point,
    # drawn directly as chi-square(samples) / samples
    df = cfg.samples_per_point
    raw = default_rng(seed).chisquare(df, size=(n_series, raw_points))
    raw /= df
    # exponentially weighted running average: an AR(1) with lag correlation
    # phi^d that keeps power samples positive by construction, its kernel
    # (1 - phi) phi^k cut where the weights fall below the burn-in bound: a
    # tap for the point itself and one for each burn-in point
    phi = float(cfg.point_correlation)
    vals = _running_sums(raw, phi, raw_points - cfg.points_per_trace + 1)
    vals *= (1.0 - phi) * n_true
    if np.any(vals <= 0):
        raise TraceError(
            "trace contains non-positive noise power; increase samples_per_point"
        )
    return vals


def _running_sums(x, phi, taps):
    """sum_{k < taps} phi^k x[:, n + taps - 1 - k] for each row, right-aligned.

    A binary prefix scan of the linear recurrence (Blelloch, "Prefix sums and
    their applications", 1990): s holds the sums over h taps, h a power of
    two, and doubles as s[h:] + phi^h s; acc holds the sums over the set bits
    of taps taken so far from the low bit up, a taps in all, and takes in the
    older block h as acc[h:] + phi^a s.  Log-depth in taps, with the powers of
    phi squared as Python floats.  At one tap the result is x itself.  It runs
    on x's flat rows, may overwrite x, and writes each step in place into the
    one of three blocks (x, two scratch) that neither s nor acc holds.  Windows
    crossing rows start in a row's last taps - 1 columns, not returned.
    """
    blocks = [x.reshape(-1), np.empty(x.size), np.empty(x.size)]

    def shifted_sum(newer, span, weight):
        n, free = x.size - span - h + 1, min({0, 1, 2} - {s, acc})
        out = np.multiply(blocks[s][:n], weight, out=blocks[free][:n])
        np.add(blocks[newer][h:h + n], out, out=out)
        return free
    acc, phi_a = None, 1.0
    s, h, phi_h = 0, 1, phi
    while True:
        if taps & h:
            acc = s if acc is None else shifted_sum(acc, taps & (h - 1), phi_a)
            phi_a *= phi_h
        if 2 * h > taps:
            return blocks[acc].reshape(x.shape)[:, :x.shape[1] - taps + 1]
        s = shifted_sum(s, h, phi_h)
        phi_h *= phi_h
        h *= 2


def _burn_in(phi):
    """Raw points to discard so the running average starts stationary."""
    if phi <= 0.0:
        return 0
    return math.ceil(math.log(1e-12) / math.log(phi))


def _segment_moments(values, cfg):
    """Per-row mean and std(ddof=1) of the segment means, by numpy's own ufunc calls."""
    ns = np.add.reduce(values, axis=1)
    ns /= values.shape[1]
    seg = np.add.reduce(values.reshape(len(values), -1, cfg.segment_length), axis=2)
    seg /= cfg.segment_length
    mean = np.add.reduce(seg, axis=1, keepdims=True)
    mean /= seg.shape[1]
    seg -= mean
    deltas = np.add.reduce(np.square(seg, out=seg), axis=1)
    deltas /= seg.shape[1] - 1
    return ns, np.sqrt(deltas, out=deltas)


def _summary(ns, deltas, cfg):
    """(n_mean, sem, delta_mean) of a series from its per-trace arrays.

    Segment means are near-independent, so one trace mean carries a standard
    deviation of about delta_n/sqrt(segments); averaging the series divides
    by sqrt(series count) again.
    """
    n_segments = cfg.points_per_trace // cfg.segment_length
    n_mean, delta_mean = (float(v.sum() / len(v)) for v in (ns, deltas))
    return n_mean, delta_mean / math.sqrt(n_segments * len(ns)), delta_mean


def measure_series(n_true, cfg, seed):
    """((n_mean, sem, delta_mean), (ns, deltas)) of cfg.n_series traces drawn
    from the stream `seed` under cfg's acquisition fields: the series' mean
    noise, its standard error and mean delta_n as Python floats, and each
    trace's mean and segment scatter as float arrays, drawn and reduced as
    one block.
    """
    if cfg.n_series < 1:
        raise TraceError("n_series must be >= 1")
    values = _series_points(n_true, cfg, int(cfg.n_series), seed)
    ns, deltas = _segment_moments(values, cfg)
    return _summary(ns, deltas, cfg), (ns, deltas)
