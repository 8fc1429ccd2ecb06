"""Detected noise power of the two imaging techniques, in shot-noise units.

Per coherence cell, a squeezed pair is prepared, the probe arm sees the
detection transmission and the conjugate arm the detection transmission
times the cell's mask transmission T_i; the cell noises are combined with
the LO weight fractions w_i.  Quantum = locked joint-difference variance
relative to the two-beam SNL; classical = single conjugate-arm variance
relative to the one-beam SNL.

Every cell holds a squeezed pair behind loss with an isotropic conjugate
block, so both variances have closed forms (Weedbrook et al., Rev. Mod.
Phys. 84, 621 (2012)); the SNLs are 1/2 per vacuum quadrature, one vacuum
for the single beam and two for the difference signal.  The quantum cell
noise is affine in sqrt(T_i) and T_i, the classical one in T_i, and the
weights sum to 1, so the scene enters only through the overlap
O = sum(w_i T_i) and the root overlap Q = sum(w_i sqrt(T_i)):

    N_q = 1 + (t_p + t_c O) sinh^2 r - sqrt(t_p t_c) sinh 2r Q + lock_noise
    N_c = 1 + 2 t_c O sinh^2 r

The quantum form is the lock's minimum over the conjugate LO phase, reached
at the same phase in every cell.
"""

import numpy as np

TECH_CLASSICAL = "classical"
TECH_QUANTUM = "quantum"
# the order of artifact rows and records
TECHNIQUES = (TECH_CLASSICAL, TECH_QUANTUM)


class NoiseModelError(ValueError):
    """Raised for invalid source or detection parameters."""


# past r = 12 the sinh terms cancel to worse than 1e-6: the noise is not resolved
R_MAX = 12.0


def quantum_noise(overlap, root_overlap, r, cfg):
    """Locked twin-beam difference noise at overlap O and root overlap Q, SNL
    units, for squeezing r and the arm transmissions and lock noise of cfg."""
    n = (1.0 + (cfg.t_probe + cfg.t_conj * overlap) * np.sinh(r) ** 2
         - np.sqrt(cfg.t_probe * cfg.t_conj) * np.sinh(2.0 * r) * root_overlap)
    return float(n) + cfg.lock_noise


def classical_noise(overlap, r, cfg):
    """Single conjugate-beam excess noise at overlap O, SNL units."""
    return float(1.0 + 2.0 * cfg.t_conj * overlap * np.sinh(r) ** 2)


def technique_noise(technique, overlap, root_overlap, r, cfg):
    if technique == TECH_QUANTUM:
        return quantum_noise(overlap, root_overlap, r, cfg)
    if technique == TECH_CLASSICAL:
        return classical_noise(overlap, r, cfg)
    raise NoiseModelError("unknown technique %r" % (technique,))


def lo_power_check(pixel_count, cfg):
    """Whether an LO of pixel_count lit pixels is bright enough to clear the
    electronic noise floor.

    An empty LO is always invalid; otherwise the LO power (pixel count times
    power per pixel) must reach the configured floor.
    """
    if pixel_count == 0:
        return False
    return pixel_count * float(cfg.power_per_pixel) >= cfg.electronic_floor


def detected_noise_floor(cfg):
    """Least detected quantum noise reachable at unit overlap over all r.

    For balanced arms this is 1 - t + lock_noise; unbalanced arms bottom out
    at tanh(2r) = 2*sqrt(t_p*t_c)/(t_p+t_c) and rise again at larger r.
    """
    a = 0.5 * (cfg.t_probe + cfg.t_conj)
    b = np.sqrt(cfg.t_probe * cfg.t_conj)
    return 1.0 - a + np.sqrt(max(a * a - b * b, 0.0)) + cfg.lock_noise


def _unreachable(db, floor):
    # only called for target < floor, so the floor is positive
    return NoiseModelError(
        "detected squeezing of -%.4g dB is unreachable: losses bound the "
        "noise at %.6g SNL (%.4g dB)" % (db, floor, 10.0 * np.log10(floor))
    )


def _unresolved(db, floor):
    # the floor may be 0 here (lossless arms), so it is not given in dB
    return NoiseModelError(
        "detected squeezing of -%.4g dB is unreachable: it needs r > %g, past "
        "which the noise is not resolved (the loss bound is %.6g SNL)" % (db, R_MAX, floor)
    )


def calibrate_r(db_below_snl, cfg):
    """Solve for r so the detected quantum noise at unit overlap, with the arm
    transmissions and lock noise of cfg, is -db dB.

    The detected baseline includes the lock noise, matching how squeezing is
    measured with the lock engaged.  With x = exp(2r), A = (t_p + t_c)/2 and
    B = sqrt(t_p t_c), that noise is 1 + lock_noise - A + ((A-B) x + (A+B)/x)/2,
    so r comes from the smaller root of a quadratic in x, written in the form
    that does not cancel.  Raises if the target is deeper than the
    loss-limited bound.
    """
    db = float(db_below_snl)
    if not (np.isfinite(db) and db >= 0):
        raise NoiseModelError("squeezing depth in dB must be finite and >= 0, got %r" % db)
    target = 10.0 ** (-db / 10.0)
    floor = detected_noise_floor(cfg)
    if target < floor - 1e-12:
        raise _unreachable(db, floor)
    if 1.0 + cfg.lock_noise - target <= 1e-14:
        return 0.0
    a, b = 0.5 * (cfg.t_probe + cfg.t_conj), np.sqrt(cfg.t_probe * cfg.t_conj)
    c = target - cfg.lock_noise - 1.0 + a
    # c <= 0: balanced arms at their floor, reached only as r -> infinity
    if c <= 0.0:
        raise _unresolved(db, floor)
    x = (a + b) / (c + np.sqrt(max(c * c - (a - b) * (a + b), 0.0)))
    r = 0.5 * float(np.log(x))
    if r > R_MAX:
        raise _unresolved(db, floor)
    return r
