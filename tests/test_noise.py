import numpy as np
import pytest

from noiseimaging.noise import (
    NoiseModelError,
    TwinBeamParams,
    calibrate_r,
    classical_noise,
    detected_noise_floor,
    lo_power_check,
    quantum_noise,
)
from noiseimaging.scene import load_font

from oracles import mc_classical_noise, mc_quantum_noise
from scene_reference import cell_moments

R_REF = 0.2532843602293450


def random_cells(rng, max_cells=6, binary=False):
    """(weights, transmissions) of a random cell set."""
    k = int(rng.integers(1, max_cells + 1))
    w = rng.dirichlet(np.ones(k))
    if binary:
        t = rng.integers(0, 2, size=k).astype(float)
    else:
        t = rng.uniform(0, 1, size=k)
    return w, t


def random_moments(rng, max_cells=6, binary=False):
    """(overlap, root overlap) of a random cell set."""
    return cell_moments(*random_cells(rng, max_cells, binary))


class TestParams:
    def test_rejects_bad_values(self):
        with pytest.raises(NoiseModelError):
            TwinBeamParams(r=-0.1)
        with pytest.raises(NoiseModelError):
            TwinBeamParams(r=0.1, t_probe=1.2)
        with pytest.raises(NoiseModelError):
            TwinBeamParams(r=0.1, lock_noise=-0.01)


class TestNullSource:
    def test_quantum_r_zero_is_snl_plus_lock(self):
        rng = np.random.default_rng(0)
        for lock in (0.0, 0.02):
            params = TwinBeamParams(r=0.0, lock_noise=lock)
            for _ in range(10):
                o, q = random_moments(rng)
                assert quantum_noise(o, q, params) == pytest.approx(1.0 + lock, abs=1e-9)

    def test_classical_r_zero_is_snl(self):
        rng = np.random.default_rng(1)
        params = TwinBeamParams(r=0.0)
        for _ in range(10):
            o, _ = random_moments(rng)
            assert classical_noise(o, params) == pytest.approx(1.0, abs=1e-9)

    def test_snl_anchor_matches_between_techniques(self):
        params = TwinBeamParams(r=0.0)
        o, q = cell_moments([1.0], [0.37])
        assert quantum_noise(o, q, params) == pytest.approx(classical_noise(o, params), abs=1e-12)


class TestBinaryCells:
    def test_quantum_closed_form(self):
        rng = np.random.default_rng(2)
        params = TwinBeamParams(r=R_REF)
        e, c2 = np.exp(-2 * R_REF), np.cosh(R_REF) ** 2
        for _ in range(20):
            o, q = random_moments(rng, binary=True)
            assert quantum_noise(o, q, params) == pytest.approx(
                o * e + (1 - o) * c2, abs=1e-10
            )

    def test_unit_overlap_reads_minus_2p2_db(self):
        params = TwinBeamParams(r=R_REF)
        n = quantum_noise(1.0, 1.0, params)
        assert 10 * np.log10(n) == pytest.approx(-2.2, abs=1e-9)

    def test_zero_overlap_quantum(self):
        params = TwinBeamParams(r=R_REF)
        n = quantum_noise(0.0, 0.0, params)
        assert n == pytest.approx(np.cosh(R_REF) ** 2, abs=1e-10)

    def test_classical_closed_form(self):
        params = TwinBeamParams(r=R_REF)
        assert classical_noise(1.0, params) == pytest.approx(
            np.cosh(2 * R_REF), abs=1e-10
        )
        assert classical_noise(0.0, params) == pytest.approx(
            1.0, abs=1e-12
        )


class TestProperties:
    def test_classical_affine_in_overlap(self):
        # classical noise depends on the cells only through the overlap
        rng = np.random.default_rng(3)
        params = TwinBeamParams(r=0.7, t_conj=0.9)
        slope = 0.9 * (np.cosh(2 * 0.7) - 1)
        for _ in range(50):
            o, _ = random_moments(rng)
            assert classical_noise(o, params) == pytest.approx(
                1.0 + slope * o, abs=1e-9
            )

    def test_quantum_fractional_cells_sit_below_binary_chord(self):
        # partial transmission keeps sqrt(T) of the cross-correlation, which
        # beats the binary mix at equal overlap, so fractional cell sets
        # come out at or below the chord between the T=0 and T=1 noises
        rng = np.random.default_rng(4)
        params = TwinBeamParams(r=R_REF)
        e, c2 = np.exp(-2 * R_REF), np.cosh(R_REF) ** 2
        strict = 0
        for _ in range(200):
            o, q = random_moments(rng)
            chord = o * e + (1 - o) * c2
            n = quantum_noise(o, q, params)
            assert n <= chord + 1e-9
            if n < chord - 1e-6:
                strict += 1
        assert strict > 100

    def test_quantum_nonincreasing_in_each_transmission(self):
        # valid where t_probe/t_conj >= tanh(r)^2; draws stay in that regime
        rng = np.random.default_rng(5)
        for _ in range(50):
            r = rng.uniform(0.05, 1.0)
            params = TwinBeamParams(r=r, t_probe=rng.uniform(0.7, 1.0),
                                    t_conj=rng.uniform(0.7, 1.0))
            w = rng.dirichlet(np.ones(3))
            t = rng.uniform(0, 1, size=3)
            base = quantum_noise(*cell_moments(w, t), params)
            k = rng.integers(0, 3)
            t2 = t.copy()
            t2[k] = min(1.0, t2[k] + rng.uniform(0.01, 0.3))
            bumped = quantum_noise(*cell_moments(w, t2), params)
            assert bumped <= base + 1e-10

    def test_classical_nondecreasing_in_each_transmission(self):
        rng = np.random.default_rng(6)
        params = TwinBeamParams(r=0.8, t_conj=0.93)
        w = rng.dirichlet(np.ones(4))
        t = rng.uniform(0, 0.7, size=4)
        base = classical_noise(cell_moments(w, t)[0], params)
        t[2] += 0.2
        assert classical_noise(cell_moments(w, t)[0], params) >= base

    def test_balanced_loss_degrades_squeezing_toward_snl(self):
        previous = 0.0
        for t in np.linspace(1.0, 0.05, 12):
            n = quantum_noise(1.0, 1.0, TwinBeamParams(r=R_REF, t_probe=t, t_conj=t))
            assert n > previous
            assert n < 1.0
            previous = n


class TestAgainstSamplingOracle:
    def test_quantum_noise_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(12):
            params = TwinBeamParams(
                r=rng.uniform(0, 1.2), t_probe=rng.uniform(0.3, 1.0),
                t_conj=rng.uniform(0.3, 1.0), lock_noise=rng.uniform(0, 0.05),
            )
            w, t = random_cells(rng, max_cells=3)
            mc, se = mc_quantum_noise(
                w, t, params.r, params.t_probe,
                params.t_conj, params.lock_noise, 2 * 10**5, rng,
            )
            assert abs(quantum_noise(*cell_moments(w, t), params) - mc) < 5 * se

    def test_classical_noise_matches_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(12):
            params = TwinBeamParams(r=rng.uniform(0, 1.2), t_conj=rng.uniform(0.3, 1.0))
            w, t = random_cells(rng, max_cells=3)
            mc, se = mc_classical_noise(
                w, t, params.r, params.t_conj, 2 * 10**5, rng,
            )
            assert abs(classical_noise(cell_moments(w, t)[0], params) - mc) < 5 * se


class TestLoPowerCheck:
    def test_zero_floor_always_valid(self):
        params = TwinBeamParams(r=0.1, electronic_floor=0.0)
        assert lo_power_check(1, params, power_per_pixel=1e-9)

    def test_empty_lo_invalid(self):
        params = TwinBeamParams(r=0.1, electronic_floor=0.0)
        assert not lo_power_check(0, params, 1.0)

    def test_floor_between_i_and_next_excludes_exactly_i(self):
        font = load_font()
        counts = sorted(np.count_nonzero(g) for g in font.values())
        floor = 0.5 * (counts[0] + counts[1])
        params = TwinBeamParams(r=0.1, electronic_floor=floor)
        excluded = [l for l, g in font.items() if not lo_power_check(np.count_nonzero(g), params, 1.0)]
        assert excluded == ["I"]


class TestCalibration:
    def test_zero_db_gives_zero_r(self):
        assert calibrate_r(0.0) == 0.0

    def test_lossless_reference(self):
        assert calibrate_r(2.2) == pytest.approx(R_REF, abs=1e-10)

    def test_lossy_balanced(self):
        # solve 0.91 exp(-2r) + 0.09 = 10^(-0.22)
        t = 0.95 * 0.96
        expected = -0.5 * np.log((10**-0.22 - (1 - t)) / t)
        r = calibrate_r(2.2, t_probe=t, t_conj=t)
        assert r == pytest.approx(expected, abs=1e-10)
        n = quantum_noise(1.0, 1.0, TwinBeamParams(r=r, t_probe=t, t_conj=t))
        assert 10 * np.log10(n) == pytest.approx(-2.2, abs=1e-9)

    def test_round_trip_with_lock_noise(self):
        r = calibrate_r(2.2, t_probe=0.44, t_conj=0.44, lock_noise=0.02)
        n = quantum_noise(
            1.0, 1.0,
            TwinBeamParams(r=r, t_probe=0.44, t_conj=0.44, lock_noise=0.02),
        )
        assert 10 * np.log10(n) == pytest.approx(-2.2, abs=1e-9)

    def test_unachievable_target_names_bound(self):
        with pytest.raises(NoiseModelError, match="-3.01"):
            calibrate_r(10.0, t_probe=0.5, t_conj=0.5)

    def test_floor_formula_balanced(self):
        params = TwinBeamParams(r=1.0, t_probe=0.5, t_conj=0.5)
        assert detected_noise_floor(params) == pytest.approx(0.5, abs=1e-12)

    def test_rejects_negative_target(self):
        with pytest.raises(NoiseModelError):
            calibrate_r(-2.2)
