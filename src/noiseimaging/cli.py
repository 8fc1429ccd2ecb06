"""Batch front end: overlap sweeps, letter recognition and calibration.

Every command reads one config file (defaults apply when none is given),
derives all randomness from the single seed, and writes CSV/JSON artifacts
that are byte-identical across reruns with the same config and seed.
Failures exit nonzero with one machine-readable JSON line on stderr.
"""

import argparse
import gc
import json
import math
import os
import sys
from contextlib import suppress
from dataclasses import replace
from pathlib import Path

# numpy's bundled OpenBLAS starts a worker thread on load, which spins
# waiting for work and so costs each short CLI process CPU time on a second
# core. No call here gives it any: the largest is the <=16x4 least-squares
# fit, far below OpenBLAS's threading threshold. Set before numpy loads; an
# explicit thread setting, or a numpy loaded before this module, is left alone.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in _BLAS_THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from . import estimate, scene
from .config import ConfigError, RunConfig, config_text, load_config
from .estimate import (
    EstimationError,
    angle_enhancement,
    delta_o_table,
    enhancement,
    fit_noise_curve,
)
from .noise import (
    NoiseModelError,
    TECH_CLASSICAL,
    TECH_QUANTUM,
    TECHNIQUES,
    calibrate_r,
    detected_noise_floor,
    quantum_noise,
    technique_noise,
)
from .scene import SceneError
from .traces import TraceError, derive_seed, measure_series

SWEEP_SCHEMA = "noiseimaging.sweep.v1"
ALPHABET_SCHEMA = "noiseimaging.alphabet.v1"

# the config field every output failure is reported under
_OUT_FIELD = "output.out_dir"


def _fmt(x):
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _json_text(payload):
    """JSON text of an object; non-finite floats become null, listed by dotted
    path under a top-level "non_finite" key that appears only when one was
    replaced."""
    replaced = []
    payload = _finite(payload, "", replaced)
    if replaced:
        payload["non_finite"] = replaced
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _finite(value, path, replaced):
    """Copy of a JSON value with non-finite floats as None; appends their paths."""
    if isinstance(value, float) and not math.isfinite(value):
        replaced.append(path)
        return None
    prefix = path + "." if path else ""
    if isinstance(value, dict):
        return {key: _finite(v, prefix + str(key), replaced)
                for key, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_finite(v, prefix + str(i), replaced) for i, v in enumerate(value)]
    return value


def _csv_text(schema, rows):
    """CSV text of dict rows under a schema comment; the first row's keys are
    the header."""
    lines = ["# schema: %s" % schema, ",".join(rows[0])]
    lines += [",".join(_fmt(v) for v in row.values()) for row in rows]
    return "\n".join(lines) + "\n"


def _write_artifacts(out, summary, files):
    """Write a command's (name, text) artifacts under out in order, then print
    its summary text on stdout.

    On any failure every file reached is removed, the failing one too (it may
    hold part of its text), so a failed run leaves no set that looks finished.
    A summary that cannot be printed, say to a closed pipe, fails the run too.
    """
    reached = []
    try:
        for name, text in files:
            path = out / name
            reached.append(path)
            try:
                path.write_text(text, encoding="ascii")
            except OSError as exc:
                raise ConfigError(_OUT_FIELD, "cannot write an artifact: %s" % exc) from None
        _print_summary(summary)
    except BaseException:
        for path in reached:
            with suppress(OSError):
                path.unlink(missing_ok=True)
        raise


def _print_summary(text):
    try:
        print(text)
        # a buffered stdout fails here, not in the flush at interpreter exit
        sys.stdout.flush()
    except OSError as exc:
        # the text left in the buffer then goes nowhere at exit, without a
        # second error (Python's SIGPIPE note)
        with suppress(OSError), open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        raise ConfigError("stdout", "cannot print the summary: %s" % exc) from None


def _load_cfg(args):
    cfg = load_config(args.config) if args.config else RunConfig()
    overrides = {"seed": args.seed, "out_dir": args.out}
    return replace(cfg, **{k: v for k, v in overrides.items() if v is not None}).validate()


def _out_dir(cfg):
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a path with a NUL byte
        raise ConfigError(_OUT_FIELD, "cannot create the output directory: %s" % exc) from None
    return out


# ---------------------------------------------------------------------------
# sweep

def _measure_curve(cfg, readings, technique):
    """Rows and fit points of one technique from (angle, overlap, n_true) readings."""
    rows, points = [], []
    for k, (angle, overlap, n_true) in enumerate(readings):
        seed = derive_seed(cfg.seed, "sweep", technique, k)
        ns, deltas = measure_series(n_true[technique], cfg, cfg.n_series, seed)
        n_mean, sem, delta_mean = estimate.summarize_series(ns, deltas, cfg)
        points.append({"overlap": overlap, "n": n_mean, "sigma_n": sem,
                       "delta_n": delta_mean})
        for s, (n, delta) in enumerate(zip(ns.tolist(), deltas.tolist())):
            rows.append({"angle_deg": angle, "overlap": overlap, "technique": technique,
                         "series": s, "noise_snl": n, "noise_db": 10.0 * np.log10(n),
                         "delta_noise_snl": delta})
    return rows, points


def _angle_readings(cfg, r):
    """(angle, overlap, {technique: n_true}) per configured angle, in config order.

    No angle's LO bitmap outlives the next angle's, so a sweep keeps only
    these three numbers per angle.
    """
    weight = cfg.weights
    alpha = cfg.bowtie_half_angle()
    radius = cfg.bowtie_radius()
    mask = scene.bowtie(0.0, alpha, radius, cfg.grid_size, cfg.grid_size)
    readings = []
    for angle in cfg.angles_deg:
        lo = scene.bowtie(np.deg2rad(angle), alpha, radius, cfg.grid_size, cfg.grid_size)
        o, q = scene.overlaps(lo, mask, cfg.cell_size, weight)
        readings.append((angle, o, {t: technique_noise(t, o, q, r, cfg) for t in TECHNIQUES}))
    return readings


def cmd_sweep(cfg):
    # each angle is one point of the fitted noise curves: fail before any work
    if len(cfg.angles_deg) < estimate.CURVE_MIN_POINTS:
        raise ConfigError("acquisition.angles_deg", "a sweep needs at least %d angles, got %d"
                          % (estimate.CURVE_MIN_POINTS, len(cfg.angles_deg)))
    r = cfg.resolve_r()
    readings = _angle_readings(cfg, r)
    # fit_noise_curve needs one overlap per point: fail before any trace is drawn
    by_overlap = sorted(readings, key=lambda reading: reading[1])
    for (angle, overlap, _), (other, next_overlap, _) in zip(by_overlap, by_overlap[1:]):
        if overlap == next_overlap:
            raise ConfigError("acquisition.angles_deg",
                              "angles %r and %r give the same overlap %.12g; a sweep "
                              "needs one overlap per angle" % (angle, other, overlap))
    # the fit's linear stage and the enhancement need high overlaps: the same
    # rules, applied to the overlaps alone, fail before any trace is drawn
    try:
        estimate.linear_stage([o for _, o, _ in readings])
        estimate.high_overlap([{"overlap": o} for _, o, _ in readings])
    except EstimationError as exc:
        raise ConfigError("acquisition.angles_deg", str(exc)) from None

    all_rows, curves = [], {}
    for technique in TECHNIQUES:
        rows, points = _measure_curve(cfg, readings, technique)
        all_rows.extend(rows)
        curves[technique] = fit_noise_curve(points)
    tables = {technique: delta_o_table(curve) for technique, curve in curves.items()}
    enh = enhancement(tables[TECH_CLASSICAL], tables[TECH_QUANTUM])

    angles = np.array([a for a, _, _ in readings])
    overlaps = np.array([o for _, o, _ in readings])
    order = np.argsort(angles)
    try:
        factor, sigma = angle_enhancement(angles[order], overlaps[order],
                                          tables[TECH_CLASSICAL], tables[TECH_QUANTUM])
        angle_payload = {"factor": factor, "sigma": sigma}
    except EstimationError as exc:
        angle_payload = {"error": str(exc)}

    fits = {technique: _curve_payload(curve) for technique, curve in curves.items()}
    summary = {
        "config": cfg.as_dict(r),
        "enhancement": enh,
        "angle_enhancement": angle_payload,
        "snl_crossing_overlap": curves[TECH_QUANTUM].snl_crossing(),
        "techniques": {technique: {"points": curve.points, "delta_o": tables[technique]}
                       for technique, curve in curves.items()},
    }
    text = ("sweep: %d angles x %d series x %d techniques -> %s\n"
            "enhancement (O >= %.2g): %.3f +/- %.3f"
            % (len(cfg.angles_deg), cfg.n_series, len(TECHNIQUES), Path(cfg.out_dir),
               estimate.ENHANCEMENT_MIN_OVERLAP, enh["factor"], enh["sigma"]))
    return text, [("sweep.csv", _csv_text(SWEEP_SCHEMA, all_rows)),
                  ("fits.json", _json_text(fits)),
                  ("summary.json", _json_text(summary))]


def _curve_payload(curve):
    return {
        "cubic_coeffs": [float(c) for c in curve.coeffs],
        "coeff_sigmas": [float(np.sqrt(max(v, 0.0))) for v in np.diag(curve.coeff_cov)],
        "linear_stage": {"intercept": curve.linear_coeffs[0],
                         "slope": curve.linear_coeffs[1]},
        "synthetic_point": {"overlap": curve.synthetic_point[0],
                            "n": curve.synthetic_point[1],
                            "sigma": curve.synthetic_point[2]},
        "residual_rms": curve.residual_rms,
        "n_points": len(curve.points),
    }


# ---------------------------------------------------------------------------
# alphabet

def cmd_alphabet(cfg, mask):
    mask_letter = scene.font_letter(mask)
    r = cfg.resolve_r()
    glyphs = scene.load_font(cfg.font_dir or None)
    records, rankings = estimate.alphabet_gun(glyphs, glyphs[mask_letter], r, cfg)
    payload = {
        "config": cfg.as_dict(r),
        "mask_letter": mask_letter,
        "excluded": [{"letter": rec["letter"], "reason": rec["reason"]}
                     for rec in records
                     if not rec["valid"] and rec["technique"] == TECH_CLASSICAL],
        "rankings": rankings,
    }
    q = rankings[TECH_QUANTUM]
    text = ("alphabet: mask %r, quantum best %r (runner-up %r, %.1f sigma), %d excluded"
            % (mask_letter, q["best"], q["runner_up"], q["sigma_separation"],
               len(payload["excluded"])))
    return text, [("alphabet.csv", _csv_text(ALPHABET_SCHEMA, records)),
                  ("ranking.json", _json_text(payload))]


# ---------------------------------------------------------------------------
# calibrate

def cmd_calibrate(cfg, db):
    r = calibrate_r(db, cfg)
    calibrated = replace(cfg, r=r, squeezing_db_detected=float(db))
    n_true = quantum_noise(1.0, 1.0, r, cfg)
    ns, _ = measure_series(n_true, cfg, cfg.n_series, derive_seed(cfg.seed, "calibrate"))
    n_mean = float(np.mean(ns))
    floor = detected_noise_floor(cfg)
    payload = {
        "target_db": float(db),
        "r": r,
        "detected_noise_snl": n_true,
        "detected_db": 10.0 * np.log10(n_true),
        "measured_db_over_series": 10.0 * np.log10(n_mean),
        "n_series": cfg.n_series,
        "loss_bound_db": 10.0 * np.log10(floor) if floor > 0 else None,
        "config": calibrated.as_dict(r),
    }
    text = ("calibrate: r = %.6f for -%.4g dB detected (measured %.3f dB over %d series)"
            % (r, db, payload["measured_db_over_series"], cfg.n_series))
    return text, [("calibrated.cfg", config_text(calibrated)),
                  ("calibration.json", _json_text(payload))]


# ---------------------------------------------------------------------------

def _error_line(command, message, field):
    payload = {"error": {"command": command, "message": message}}
    if field:
        payload["error"]["field"] = field
    return json.dumps(payload, sort_keys=True)


class _Parser(argparse.ArgumentParser):
    """Usage errors keep the CLI contract: one JSON line on stderr, exit 2."""

    def error(self, message):
        # argparse calls this from its handler of the ArgumentError that names
        # the option at fault, where there is one; a command's own parser has
        # the prog "noiseimaging COMMAND"
        field = getattr(sys.exc_info()[1], "argument_name", None)
        command = self.prog.partition(" ")[2] or None
        self.exit(2, _error_line(command, message, field) + "\n")


def build_parser():
    parser = _Parser(
        prog="noiseimaging",
        description="Twin-beam noise imaging simulator: sweeps, letter tests, calibration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("sweep", "overlap sweep over the configured bow-tie angles"),
        ("alphabet", "letter-recognition test against a letter-shaped mask"),
        ("calibrate", "solve the squeezing parameter for a detected dB target"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a run config file")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--out", help="override the output directory")
        if name == "alphabet":
            p.add_argument("--mask", required=True, metavar="LETTER",
                           help="letter shape of the inserted mask")
        if name == "calibrate":
            p.add_argument("--db", type=float, required=True,
                           help="detected squeezing depth in dB below the SNL")
    return parser


def main(argv=None):
    # what import allocated (numpy, the package) lives as long as the process;
    # frozen, it is not traversed by the collections a command triggers, so a
    # command's cost does not depend on the collector counts import left
    gc.freeze()
    try:
        return _run(build_parser().parse_args(argv))
    finally:
        gc.unfreeze()


def _run(args):
    try:
        cfg = _load_cfg(args)
        if args.command == "sweep":
            summary, files = cmd_sweep(cfg)
        elif args.command == "alphabet":
            summary, files = cmd_alphabet(cfg, args.mask)
        else:
            summary, files = cmd_calibrate(cfg, args.db)
        # every artifact is text by now: a failure before this line leaves no file
        _write_artifacts(_out_dir(cfg), summary, files)
        return 0
    except (ConfigError, SceneError, NoiseModelError, TraceError,
            EstimationError, MemoryError) as exc:
        print(_error_line(args.command, str(exc), getattr(exc, "field", None)),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
