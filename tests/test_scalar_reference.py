"""The scalar work moved off numpy keeps its bits.

The SNL crossing and the sweep's degree-to-radian conversion run in Python
floats.  Each is compared with the numpy version it replaced
(`tests/estimate_reference.py`, `np.deg2rad`) on random cases, bit for bit:
a float is compared by its IEEE bytes, so -0.0 and a NaN's sign count too.
The NaN-sign leg assumes CPython's specializing interpreter: under a
`sys.settrace` line tracer (coverage.py, pdb) some NaNs of the non-finite
cases come out with the other sign, which no artifact shows (JSON writes
`null`).
"""

import math
import struct

import numpy as np

from noiseimaging.estimate import snl_crossing
from estimate_reference import numpy_snl_crossing

CASES = 2000


def _bits(value):
    return None if value is None else struct.pack("<d", value)


def _crossings(coeffs):
    fit = {"cubic_coeffs": [float(c) for c in coeffs]}
    with np.errstate(all="ignore"):
        want = numpy_snl_crossing(fit)
    return _bits(snl_crossing(fit)), _bits(want)


def _grid(k):
    return np.linspace(0.0, 1.0, 2001)[k]


def _assert_crossings_match(cubics):
    """The runtime's crossings of each cubic, after checking them against numpy's."""
    results = [_crossings(c) for c in cubics]
    assert [c for c, (got, want) in zip(cubics, results) if got != want] == []
    return [got for got, _ in results]


class TestSnlCrossing:
    def test_random_cubics(self):
        rng = np.random.default_rng(20_001)
        cubics = [rng.normal(0.0, rng.choice([0.1, 1.0, 10.0]), 4) + [1.0, 0.0, 0.0, 0.0]
                  for _ in range(CASES)]
        crossed = sum(got is not None for got in _assert_crossings_match(cubics))
        assert CASES // 4 < crossed < CASES

    def test_cubics_with_no_crossing(self):
        # above the SNL on [0, 1]: 1 + a + b O^2 + c O^3 with a, b, c > 0
        rng = np.random.default_rng(20_002)
        cubics = [[1.0 + rng.uniform(1e-6, 1.0), 0.0, *rng.uniform(0.0, 1.0, 2)]
                  for _ in range(CASES)]
        assert all(_crossings(c) == (None, None) for c in cubics)

    def test_crossings_on_a_grid_point(self):
        # lines through 1 at a grid overlap g, kept where the curve
        # evaluates to exactly 0 there; and the lines through 1 at O = 0
        rng = np.random.default_rng(20_003)
        cubics = []
        while len(cubics) < CASES:
            g, s = _grid(int(rng.integers(1, 2000))), rng.uniform(-2.0, 2.0)
            c = [1.0 - s * g, s, 0.0, 0.0]
            if c[0] + g * (c[1] + g * (c[2] + g * c[3])) - 1.0 == 0.0:
                cubics.append(c)
        cubics += [[1.0, s, 0.0, 0.0] for s in rng.uniform(-2.0, 2.0, 100)]
        assert None not in _assert_crossings_match(cubics)

    def test_curves_touching_the_snl(self):
        # 1 + a (O - g)^2, its minimum 1 at a grid overlap or between two:
        # rounding decides where, and whether, the sign changes
        rng = np.random.default_rng(20_004)
        cubics = []
        for _ in range(CASES):
            g = _grid(int(rng.integers(0, 2001))) + rng.choice([0.0, 2.5e-4])
            a = rng.choice([-1.0, 1.0]) * rng.uniform(1e-3, 10.0)
            cubics.append([1.0 + a * g * g, -2.0 * a * g, a, 0.0])
        _assert_crossings_match(cubics)

    def test_non_finite_coefficients(self):
        rng = np.random.default_rng(20_005)
        special = [math.inf, -math.inf, math.nan]
        cubics = []
        for _ in range(CASES):
            c = rng.normal(0.0, 1.0, 4) + [1.0, 0.0, 0.0, 0.0]
            for i in rng.choice(4, int(rng.integers(1, 5)), replace=False):
                c[i] = special[int(rng.integers(0, 3))]
            cubics.append(c)
        _assert_crossings_match(cubics)


def _random_doubles(rng, n):
    """Doubles from random bit patterns (NaNs left out), the signed zeros,
    subnormals, and values near the largest double."""
    values = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
    values = values[~np.isnan(values)]
    tiny = np.float64(5e-324) * rng.integers(1, 2**52, n // 4)
    huge = np.nextafter(np.finfo(float).max, 0.0) / rng.uniform(1.0, 10.0, n // 4)
    signs = rng.choice([-1.0, 1.0], n // 2)
    return np.concatenate([values, [0.0, -0.0, 5e-324, -5e-324, np.finfo(float).max,
                                    math.inf, -math.inf], tiny * signs[:n // 4],
                           huge * signs[n // 4:]])


def test_radians_matches_deg2rad_bit_for_bit():
    values = _random_doubles(np.random.default_rng(20_008), 4 * CASES)
    assert len(values) > 2 * CASES
    # the array loop the sweep's angles took, and the scalar one of the
    # bow-tie's half-angle
    array = np.deg2rad(values)
    scalar = [np.deg2rad(v) for v in values]
    got = np.array([math.radians(v) for v in values.tolist()])
    assert got.tobytes() == array.tobytes()
    assert got.tobytes() == np.array(scalar).tobytes()
