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
import sys
from contextlib import suppress
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import estimate, scene
from .config import ConfigError, RunConfig, config_text, load_config, with_overrides
from .estimate import (
    CurvePoint,
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
from .traces import TraceError, measure_series, seeded_config

SWEEP_SCHEMA = "noiseimaging.sweep.v1"
ALPHABET_SCHEMA = "noiseimaging.alphabet.v1"

# the config field every output failure is reported under
_OUT_FIELD = "output.out_dir"


def _fmt(x):
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _write_json(path, payload):
    """Write a JSON object; non-finite floats become null, listed by dotted path
    under a top-level "non_finite" key that appears only when one was replaced."""
    replaced = []
    payload = _finite(payload, "", replaced)
    if replaced:
        payload["non_finite"] = replaced
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


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


def _write_csv(path, schema, header, rows):
    lines = ["# schema: %s" % schema, ",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def _write_text(path, text):
    try:
        Path(path).write_text(text, encoding="ascii")
    except OSError as exc:
        raise ConfigError(_OUT_FIELD, "cannot write an artifact: %s" % exc) from None


def _write_artifacts(*writes):
    """Write a command's artifacts in order, each given as (writer, path, *args).

    On a failure every file reached is removed, the failing one too (it may
    hold part of its text), so a failed run leaves no set that looks finished.
    """
    reached = []
    try:
        for writer, path, *args in writes:
            reached.append(path)
            writer(path, *args)
    except ConfigError:
        for path in reached:
            with suppress(OSError):
                path.unlink(missing_ok=True)
        raise


def _load_cfg(args):
    cfg = load_config(args.config) if args.config else RunConfig()
    cfg = with_overrides(cfg, seed=args.seed, out_dir=args.out)
    cfg.validate()
    return cfg


def _out_dir(cfg):
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(_OUT_FIELD, "cannot create the output directory: %s" % exc) from None
    return out


# ---------------------------------------------------------------------------
# sweep

def _measure_curve(cfg, readings, technique):
    """Rows and fit points of one technique from (angle, overlap, n_true) readings."""
    acq = cfg.acquisition()
    rows, points = [], []
    for k, (angle, overlap, n_true) in enumerate(readings):
        seeded = seeded_config(acq, cfg.seed, "sweep", technique, k)
        ns, deltas = measure_series(n_true[technique], seeded, cfg.n_series)
        n_mean, sem, delta_mean = estimate.summarize_series(ns, deltas, acq.n_segments)
        points.append(CurvePoint(
            overlap=overlap, n=n_mean, sigma_n=sem, delta_n=delta_mean,
        ))
        for s, (n, delta) in enumerate(zip(ns.tolist(), deltas.tolist())):
            rows.append((angle, overlap, technique, s, n, 10.0 * np.log10(n), delta))
    return rows, points


def _angle_readings(cfg, params):
    """(angle, overlap, {technique: n_true}) per configured angle, in config order.

    No angle's LO bitmap outlives the next angle's, so a sweep keeps only
    these three numbers per angle.
    """
    weight = cfg.load_weight_map()
    alpha = cfg.bowtie_half_angle()
    radius = cfg.bowtie_radius()
    mask = scene.bowtie(0.0, alpha, radius, cfg.grid_size, cfg.grid_size)
    readings = []
    for angle in cfg.angles_deg:
        lo = scene.bowtie(np.deg2rad(angle), alpha, radius, cfg.grid_size, cfg.grid_size)
        o, q = scene.overlaps(lo, mask, cfg.cell_size, weight)
        readings.append((angle, o, {t: technique_noise(t, o, q, params) for t in TECHNIQUES}))
    return readings


def cmd_sweep(cfg):
    params = cfg.twin_beam_params()
    readings = _angle_readings(cfg, params)

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
        "config": cfg.as_dict(),
        "enhancement": {"factor": enh.factor, "sigma": enh.sigma,
                        "n_points": enh.n_points, "n_insensitive": enh.n_insensitive},
        "angle_enhancement": angle_payload,
        "snl_crossing_overlap": curves[TECH_QUANTUM].snl_crossing(),
        "techniques": {},
    }
    for technique, curve in curves.items():
        summary["techniques"][technique] = {
            "points": [
                {"overlap": p.overlap, "n": p.n, "sigma_n": p.sigma_n,
                 "delta_n": p.delta_n} for p in curve.points
            ],
            "delta_o": [
                {"overlap": u.overlap, "delta_o_est": u.delta_o,
                 "slope": u.slope, "insensitive": u.insensitive}
                for u in tables[technique]
            ],
        }
    out = _out_dir(cfg)
    _write_artifacts(
        (_write_csv, out / "sweep.csv", SWEEP_SCHEMA,
         ("angle_deg", "overlap", "technique", "series", "noise_snl", "noise_db",
          "delta_noise_snl"),
         all_rows),
        (_write_json, out / "fits.json", fits),
        (_write_json, out / "summary.json", summary),
    )
    print("sweep: %d angles x %d series x %d techniques -> %s"
          % (len(cfg.angles_deg), cfg.n_series, len(TECHNIQUES), out))
    print("enhancement (O >= %.2g): %.3f +/- %.3f"
          % (estimate.ENHANCEMENT_MIN_OVERLAP, enh.factor, enh.sigma))
    return 0


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

def cmd_alphabet(cfg, mask_letter):
    params = cfg.twin_beam_params()
    font_dir = cfg.font_dir or None
    mask = scene.glyph(mask_letter, font_dir)
    records, rankings = estimate.alphabet_gun(
        mask, params, cfg.acquisition(), cfg.cell_size, font_dir=font_dir,
        n_series=cfg.n_series, power_per_pixel=cfg.power_per_pixel,
        master_seed=cfg.seed,
    )
    rows = []
    for rec in records:
        rows.append((
            rec.letter, rec.technique, int(rec.valid), rec.overlap,
            rec.n_baseline, 10.0 * np.log10(rec.n_baseline), rec.sigma_baseline,
            rec.n_masked, 10.0 * np.log10(rec.n_masked), rec.sigma_masked,
            rec.d, rec.sigma_d, int(rec.sub_snl), rec.reason,
        ))
    payload = {
        "config": cfg.as_dict(),
        "mask_letter": mask_letter,
        "excluded": [{"letter": rec.letter, "reason": rec.reason}
                     for rec in records if not rec.valid and rec.technique == TECH_CLASSICAL],
        "rankings": {},
    }
    for technique, ranking in rankings.items():
        payload["rankings"][technique] = {
            "ranking": list(ranking.ranking),
            "best": ranking.ranking[0],
            "runner_up": ranking.ranking[1],
            "sigma_separation": ranking.sigma_separation,
            "sub_snl_letters": list(ranking.sub_snl_letters),
        }
    out = _out_dir(cfg)
    _write_artifacts(
        (_write_csv, out / "alphabet.csv", ALPHABET_SCHEMA,
         ("letter", "technique", "valid", "overlap",
          "n_baseline", "n_baseline_db", "sigma_baseline",
          "n_masked", "n_masked_db", "sigma_masked",
          "deviation", "sigma_deviation", "sub_snl", "reason"),
         rows),
        (_write_json, out / "ranking.json", payload),
    )
    q = rankings[TECH_QUANTUM]
    print("alphabet: mask %r, quantum best %r (runner-up %r, %.1f sigma), %d excluded"
          % (mask_letter, q.ranking[0], q.ranking[1], q.sigma_separation,
             len(payload["excluded"])))
    return 0


# ---------------------------------------------------------------------------
# calibrate

def cmd_calibrate(cfg, db):
    r = calibrate_r(db, cfg.t_probe, cfg.t_conj, cfg.lock_noise)
    calibrated = replace(cfg, r=r, squeezing_db_detected=float(db))
    params = calibrated.twin_beam_params()
    n_true = quantum_noise(1.0, 1.0, params)
    acq = seeded_config(cfg.acquisition(), cfg.seed, "calibrate")
    ns, _ = measure_series(n_true, acq, cfg.n_series)
    n_mean = float(np.mean(ns))
    # before any file: the one artifact that records out_dir must encode it
    cfg_text = config_text(calibrated)
    floor = detected_noise_floor(params)
    payload = {
        "target_db": float(db),
        "r": r,
        "detected_noise_snl": n_true,
        "detected_db": 10.0 * np.log10(n_true),
        "measured_db_over_series": 10.0 * np.log10(n_mean),
        "n_series": cfg.n_series,
        "loss_bound_db": 10.0 * np.log10(floor) if floor > 0 else None,
        "config": calibrated.as_dict(),
    }
    out = _out_dir(cfg)
    _write_artifacts(
        (_write_text, out / "calibrated.cfg", cfg_text),
        (_write_json, out / "calibration.json", payload),
    )
    print("calibrate: r = %.6f for -%.4g dB detected (measured %.3f dB over %d series)"
          % (r, db, payload["measured_db_over_series"], cfg.n_series))
    return 0


# ---------------------------------------------------------------------------

def _error_line(command, exc):
    field = getattr(exc, "field", None)
    payload = {"error": {"command": command, "message": str(exc)}}
    if field:
        payload["error"]["field"] = field
    return json.dumps(payload, sort_keys=True)


def build_parser():
    parser = argparse.ArgumentParser(
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
            return cmd_sweep(cfg)
        if args.command == "alphabet":
            return cmd_alphabet(cfg, args.mask.upper())
        return cmd_calibrate(cfg, args.db)
    except (ConfigError, SceneError, NoiseModelError, TraceError,
            EstimationError, MemoryError) as exc:
        print(_error_line(args.command, exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
