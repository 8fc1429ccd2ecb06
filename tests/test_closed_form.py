"""The closed-form noise model against the covariance-matrix reference.

`noiseimaging.noise` evaluates the noise in closed form from two moments of
the cells, the overlap and the root overlap; here every cell is rebuilt as
a covariance matrix (squeezed pair, then loss on each arm) and read out
through the general quadrature algebra of `gaussian_reference`, with the
SNLs taken from vacuum states, and the per-cell closed forms are summed
cell by cell.
"""

import numpy as np
import pytest

from noiseimaging.config import RunConfig
from noiseimaging.noise import (
    NoiseModelError,
    calibrate_r,
    classical_noise,
    detected_noise_floor,
    quantum_noise,
)

from gaussian_reference import (
    QuadratureSpec,
    apply_loss,
    joint_quad_variance,
    locked_joint_minimum,
    quad_variance,
    two_mode_squeezed_cov,
    vacuum_cov,
)
from scene_reference import cell_moments

PROBE, CONJUGATE = 0, 1
N_DRAWS = 1000
TOL = 1e-12


def reference_noises(weights, transmissions, r, cfg):
    """(quantum, classical) noise from per-cell covariance matrices."""
    snl_joint = joint_quad_variance(vacuum_cov(2), 0.0, np.pi)
    snl_single = quad_variance(vacuum_cov(1), QuadratureSpec(0, 0.0))
    quantum, classical = 0.0, 0.0
    for w, t in zip(weights, transmissions):
        pair = two_mode_squeezed_cov(r)
        conj_only = apply_loss(pair, CONJUGATE, cfg.t_conj * t)
        both = apply_loss(conj_only, PROBE, cfg.t_probe)
        quantum += w * locked_joint_minimum(both)[0] / snl_joint
        classical += w * quad_variance(conj_only, QuadratureSpec(CONJUGATE, 0.0)) / snl_single
    return quantum + cfg.lock_noise, classical


def draw_transmission(rng):
    """Arm transmission: lossless, blocked, or lossy."""
    kind = rng.integers(0, 4)
    if kind == 0:
        return 1.0
    if kind == 1:
        return 0.0
    return float(rng.uniform(0.0, 1.0))


def cell_sum_noises(weights, transmissions, r, cfg):
    """(quantum, classical) noise as the weighted sum of each cell's closed form."""
    t_c = cfg.t_conj * np.asarray(transmissions, dtype=float)
    s2 = np.sinh(r) ** 2
    quantum = (1.0 + (cfg.t_probe + t_c) * s2
               - np.sqrt(cfg.t_probe * t_c) * np.sinh(2.0 * r))
    classical = 1.0 + 2.0 * t_c * s2
    return (float(np.sum(weights * quantum)) + cfg.lock_noise,
            float(np.sum(weights * classical)))


def draw_cells(rng, max_cells=4):
    """(weights, transmissions) of a random cell set."""
    k = int(rng.integers(1, max_cells + 1))
    w = rng.dirichlet(np.ones(k))
    # binary and fractional cells mixed in one set
    t = np.where(rng.random(k) < 0.3, rng.integers(0, 2, size=k), rng.uniform(0, 1, size=k))
    return w, t.astype(float)


def draw_source(rng):
    """(r, config) of a random source and detection chain."""
    t_probe = draw_transmission(rng)
    # unbalanced arms in most draws, balanced in the rest
    t_conj = t_probe if rng.random() < 0.2 else draw_transmission(rng)
    r = float(rng.uniform(0.0, 2.0))
    return r, RunConfig(t_probe=t_probe, t_conj=t_conj,
                        lock_noise=float(rng.choice([0.0, rng.uniform(0.0, 0.05)])))


def test_cell_noise_matches_covariance_reference():
    rng = np.random.default_rng(20261017)
    worst_q, worst_c = 0.0, 0.0
    for _ in range(N_DRAWS):
        r, cfg = draw_source(rng)
        w, t = draw_cells(rng)
        ref_q, ref_c = reference_noises(w, t, r, cfg)
        o, q = cell_moments(w, t)
        worst_q = max(worst_q, abs(quantum_noise(o, q, r, cfg) - ref_q))
        worst_c = max(worst_c, abs(classical_noise(o, r, cfg) - ref_c))
    assert worst_q <= TOL
    assert worst_c <= TOL


# the moment forms regroup the per-cell sums: on noises up to about 30 SNL
# (r <= 2) they differ by a few ulps of the largest terms (2.8e-14 at most
# over these draws)
CELL_SUM_TOL = 1e-12


def test_moment_forms_match_per_cell_sums():
    rng = np.random.default_rng(20261018)
    worst_q, worst_c = 0.0, 0.0
    for _ in range(N_DRAWS):
        r, cfg = draw_source(rng)
        w, t = draw_cells(rng, max_cells=int(rng.choice([1, 4, 64, 4096])))
        sum_q, sum_c = cell_sum_noises(w, t, r, cfg)
        o, q = cell_moments(w, t)
        worst_q = max(worst_q, abs(quantum_noise(o, q, r, cfg) - sum_q))
        worst_c = max(worst_c, abs(classical_noise(o, r, cfg) - sum_c))
    assert worst_q <= CELL_SUM_TOL
    assert worst_c <= CELL_SUM_TOL


def test_calibrated_r_reaches_target():
    rng = np.random.default_rng(1207)
    worst, solved, at_floor = 0.0, 0, 0
    for i in range(N_DRAWS):
        t_probe = draw_transmission(rng)
        kind = i % 4
        t_conj = t_probe if kind == 0 else draw_transmission(rng)
        lock = 0.0 if kind == 1 else float(rng.uniform(0.0, 0.05))
        cfg = RunConfig(t_probe=t_probe, t_conj=t_conj, lock_noise=lock)
        floor = detected_noise_floor(cfg)
        if floor > 1.0:
            # lock noise outweighs what the arms keep of the squeezing
            with pytest.raises(NoiseModelError):
                calibrate_r(0.0, cfg)
            continue
        if kind == 2 and t_probe != t_conj:
            target = floor
            at_floor += 1
        elif kind == 3:
            target = 1.0
        else:
            # keep r moderate: near a balanced floor r grows without bound
            target = floor + rng.uniform(0.05, 1.0) * (1.0 - floor)
        db = -10.0 * np.log10(target)
        r = calibrate_r(db, cfg)
        worst = max(worst, abs(quantum_noise(1.0, 1.0, r, cfg) - 10.0 ** (-db / 10.0)))
        solved += 1
    assert solved > N_DRAWS // 2 and at_floor > 50
    assert worst <= TOL


@pytest.mark.parametrize("t_probe, t_conj", [
    (1.0, 1.0), (0.44, 0.44), (0.9, 0.5), (1.0, 0.0), (0.0, 0.0),
])
def test_zero_db_without_lock_noise_needs_no_squeezing(t_probe, t_conj):
    assert calibrate_r(0.0, RunConfig(t_probe=t_probe, t_conj=t_conj)) == 0.0


def test_unreachable_targets_raise():
    rng = np.random.default_rng(621)
    for _ in range(200):
        t_probe, t_conj = draw_transmission(rng), draw_transmission(rng)
        lock = float(rng.uniform(0.001, 0.05))
        cfg = RunConfig(t_probe=t_probe, t_conj=t_conj, lock_noise=lock)
        floor = detected_noise_floor(cfg)
        target = floor * rng.uniform(0.1, 0.999)
        if target >= 1.0:
            target = rng.uniform(0.1, 0.999)
        with pytest.raises(NoiseModelError, match="unreachable"):
            calibrate_r(-10.0 * np.log10(target), cfg)


@pytest.mark.parametrize("t", [0.3, 0.44, 0.9])
def test_balanced_floor_is_not_reached_at_finite_r(t):
    db = -10.0 * np.log10(1.0 - t)
    with pytest.raises(NoiseModelError, match="unreachable"):
        calibrate_r(db, RunConfig(t_probe=t, t_conj=t))


# Error budget of the round trip quantum_noise(1, 1, calibrate_r(db)) against
# the target t = 10^(-db/10), in units of eps = 2^-52.  With K = 1 + lock - a
# and f(x) = ((a - b) x + (a + b)/x)/2, calibrate_r solves K + f(x) = t for x
# and quantum_noise evaluates K + f(exp(2r)).  Both terms are >= 0, so a
# relative error d in x moves the noise by at most f d <= t d: x's error
# enters the noise at most once, however deep the squeezing.
# - r = log(x)/2 is within one ulp of its exact value, an absolute error of
#   at most r eps, which exp(2r) turns into a relative error of 2r eps:
#   r's rounding carried through e^{2r}, the only term that grows with r.
# - exp adds one ulp (eps), the root formula's four roundings (the
#   subtraction, sqrt, the sum and the quotient) about 2 eps, and the
#   noise's own sum of three non-negative terms about 2 eps.
# That is about (2r + 5) eps; the bound allows (2r + 8) eps.
DEEP_DB = [k / 10 for k in range(1, 1001)]


def _deep_squeezing_arms():
    """(t_probe, t_conj, lock_noise) of the shipped configs, an unbalanced
    pair and seeded random arms."""
    arms = [(1.0, 1.0, 0.0), (0.44, 0.44, 0.02), (0.9, 0.5, 0.0)]
    rng = np.random.default_rng(2441)
    for _ in range(40):
        t_probe = draw_transmission(rng)
        t_conj = t_probe if rng.random() < 0.3 else draw_transmission(rng)
        arms.append((t_probe, t_conj, float(rng.choice([0.0, rng.uniform(0.0, 0.05)]))))
    return arms


def test_deep_squeezing_round_trip_is_accurate():
    eps = np.finfo(float).eps
    worst, solved, deepest = 0.0, 0, 0.0
    for t_probe, t_conj, lock in _deep_squeezing_arms():
        cfg = RunConfig(t_probe=t_probe, t_conj=t_conj, lock_noise=lock)
        for db in DEEP_DB:
            try:
                r = calibrate_r(db, cfg)
            except NoiseModelError:
                continue
            target = 10.0 ** (-db / 10.0)
            error = abs(quantum_noise(1.0, 1.0, r, cfg) - target) / target
            worst = max(worst, error / ((2.0 * r + 8.0) * eps))
            solved += 1
            deepest = max(deepest, db)
    # the lossless arms reach 100 dB (r = 11.5), inside R_MAX
    assert deepest == 100.0 and solved > 2000
    assert worst <= 1.0
