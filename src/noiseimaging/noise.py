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
O = sum(w_i T_i) and the root overlap Q = sum(w_i sqrt(T_i)).  With
x = exp(2r), a = (t_p + t_c O)/2 and b = sqrt(t_p t_c) Q:

    N_q = (1 + lock_noise - a) + ((a - b) x + (a + b)/x)/2
    N_c = 1 + t_c O (x - 1)^2/(2x)

The quantum form is the lock's minimum over the conjugate LO phase, reached
at the same phase in every cell.  Past its constant, summed first, each
term is >= 0 (b <= a as Q <= sqrt(O)), so deep squeezing does not cancel.
"""

import math

TECH_CLASSICAL = "classical"
TECH_QUANTUM = "quantum"
# the order of artifact rows and records
TECHNIQUES = (TECH_CLASSICAL, TECH_QUANTUM)


class NoiseModelError(ValueError):
    """Raised for invalid source or detection parameters."""


# the model's accepted range of r is [0, R_MAX], 104 dB on lossless arms
R_MAX = 12.0


def _terms(overlap, root_overlap, cfg):
    """(1 + lock_noise - a, a, b) of the quantum form at O and Q."""
    a = 0.5 * (cfg.t_probe + cfg.t_conj * overlap)
    return 1.0 + cfg.lock_noise - a, a, math.sqrt(cfg.t_probe * cfg.t_conj) * root_overlap


def quantum_noise(overlap, root_overlap, r, cfg):
    """Locked twin-beam difference noise at overlap O and root overlap Q, SNL
    units, for squeezing r and the arm transmissions and lock noise of cfg."""
    constant, a, b = _terms(overlap, root_overlap, cfg)
    x = math.exp(2.0 * r)
    # b <= a in exact arithmetic: the max drops a rounding excess of b
    return constant + (max(a - b, 0.0) * x + (a + b) / x) / 2.0


def classical_noise(overlap, r, cfg):
    """Single conjugate-beam excess noise at overlap O, SNL units."""
    x = math.exp(2.0 * r)
    return 1.0 + cfg.t_conj * overlap * (x - 1.0) ** 2 / (2.0 * x)


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
    at x = sqrt((a + b)/(a - b)) and rise again at larger r.
    """
    constant, a, b = _terms(1.0, 1.0, cfg)
    return constant + math.sqrt(max(a * a - b * b, 0.0))


def calibrate_r(db_below_snl, cfg):
    """Solve for r so the detected quantum noise at unit overlap, with the arm
    transmissions and lock noise of cfg, is -db dB.

    The detected baseline includes the lock noise, matching how squeezing is
    measured with the lock engaged.  In the module's form at O = Q = 1 the
    target minus the constant is ((a - b) x + (a + b)/x)/2, so r comes from
    the smaller root of a quadratic in x, written in the form that does not
    cancel.  Raises if the target is deeper than the loss-limited bound.
    """
    db = float(db_below_snl)
    if not (math.isfinite(db) and db >= 0):
        raise NoiseModelError("squeezing depth in dB must be finite and >= 0, got %r" % db)
    target = 10.0 ** (-db / 10.0)
    floor = detected_noise_floor(cfg)
    if target < floor - 1e-12:
        # the floor is positive here
        raise NoiseModelError(
            "detected squeezing of -%.4g dB is unreachable: losses bound the noise at "
            "%.6g SNL (%.4g dB)" % (db, floor, 10.0 * math.log10(floor)))
    if 1.0 + cfg.lock_noise - target <= 1e-14:
        return 0.0
    constant, a, b = _terms(1.0, 1.0, cfg)
    c = target - constant
    # c <= 0: balanced arms at their floor, reached only as r -> infinity
    x = (a + b) / (c + math.sqrt(max(c * c - (a - b) * (a + b), 0.0))) if c > 0.0 else math.inf
    r = 0.5 * math.log(x)
    if r > R_MAX:
        # the floor may be 0 here (lossless arms), so it is not given in dB
        raise NoiseModelError(
            "detected squeezing of -%.4g dB is unreachable: it needs r > %g, past the "
            "model's accepted range (the loss bound is %.6g SNL)" % (db, R_MAX, floor))
    return r
