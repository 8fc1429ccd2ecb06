"""Batch front end: overlap sweeps, letter recognition and calibration.

Every command reads one config file (defaults apply when none is given),
derives all randomness from the single seed, and writes CSV/JSON artifacts
that are byte-identical across reruns with the same config and seed.
Failures exit nonzero with one machine-readable JSON line on stderr.
"""

import gc
import json
import math
import os
import re
import sys
from contextlib import suppress
from pathlib import Path

# numpy's bundled OpenBLAS starts a worker thread on load, which spins
# waiting for work and so costs each short CLI process CPU time on a second
# core. No command makes a BLAS call, so it never gets any. Set before the
# package loads numpy; an explicit thread setting, or a numpy loaded before
# this module, is left alone.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in _BLAS_THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

# config before estimate: a module compiled after numpy loads raises the peak RSS
from .config import ConfigError, RunConfig, config_text, load_config
from . import estimate, scene
from .estimate import (
    EstimationError,
    delta_o_table,
    enhancement,
    fit_noise_curve,
    snl_crossing,
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

# what import allocated (numpy, the package) lives as long as the process;
# frozen, it is not traversed by the collections a command triggers, nor
# handed back to the collector before the interpreter's exit frees it
gc.freeze()

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
                path.write_bytes(text.encode("ascii"))
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
    cfg = RunConfig() if args["config"] is None else load_config(args["config"])
    overrides = {"seed": args["seed"], "out_dir": args["out"]}
    return cfg.replace(**{k: v for k, v in overrides.items() if v is not None}).validate()


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
    """Rows and fit points of one technique from (angle, overlap, n_true)
    readings: the rows in reading order, the points in increasing overlap."""
    rows, points = [], []
    for k, (angle, overlap, n_true) in enumerate(readings):
        seed = derive_seed(cfg.seed, "sweep", technique, k)
        (n_mean, sem, delta_mean), (ns, deltas) = measure_series(n_true[technique], cfg, seed)
        points.append({"overlap": overlap, "n": n_mean, "sigma_n": sem,
                       "delta_n": delta_mean})
        for s, (n, delta) in enumerate(zip(ns.tolist(), deltas.tolist())):
            rows.append({"angle_deg": angle, "overlap": overlap, "technique": technique,
                         "series": s, "noise_snl": n, "noise_db": 10.0 * math.log10(n),
                         "delta_noise_snl": delta})
    return rows, sorted(points, key=lambda p: p["overlap"])


def _angle_readings(cfg, r):
    """(angle, overlap, {technique: n_true}) per configured angle, in config order."""
    moments = scene.bowtie_overlaps([math.radians(a) for a in cfg.angles_deg],
                                    cfg.bowtie_half_angle(), cfg.bowtie_radius(),
                                    cfg.grid_size, cfg.grid_size, cfg.cell_size, cfg.weights)
    return [(angle, o, {t: technique_noise(t, o, q, r, cfg) for t in TECHNIQUES})
            for (o, q), angle in zip(moments, cfg.angles_deg)]


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

    all_rows, points, fits, tables = [], {}, {}, {}
    for technique in TECHNIQUES:
        rows, points[technique] = _measure_curve(cfg, readings, technique)
        all_rows.extend(rows)
        fits[technique], cov = fit_noise_curve(points[technique])
        tables[technique] = delta_o_table(points[technique], fits[technique], cov)
    enh = enhancement(tables[TECH_CLASSICAL], tables[TECH_QUANTUM])

    summary = {
        "config": cfg.as_dict(r),
        "enhancement": enh,
        "snl_crossing_overlap": snl_crossing(fits[TECH_QUANTUM]),
        "techniques": {technique: {"points": points[technique], "delta_o": tables[technique]}
                       for technique in TECHNIQUES},
    }
    text = ("sweep: %d angles x %d series x %d techniques -> %s\n"
            "enhancement (O >= %.2g): %.3f +/- %.3f"
            % (len(cfg.angles_deg), cfg.n_series, len(TECHNIQUES), Path(cfg.out_dir),
               estimate.ENHANCEMENT_MIN_OVERLAP, enh["factor"], enh["sigma"]))
    return text, [("sweep.csv", _csv_text(SWEEP_SCHEMA, all_rows)),
                  ("fits.json", _json_text(fits)),
                  ("summary.json", _json_text(summary))]


# ---------------------------------------------------------------------------
# alphabet

def cmd_alphabet(cfg, mask):
    mask_letter = scene.font_letter(mask)
    r = cfg.resolve_r()
    glyphs = cfg.glyphs
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
    calibrated = cfg.replace(r=r, squeezing_db_detected=float(db))
    n_true = quantum_noise(1.0, 1.0, r, cfg)
    (n_mean, _, _), _ = measure_series(n_true, cfg, derive_seed(cfg.seed, "calibrate"))
    floor = detected_noise_floor(cfg)
    payload = {
        "target_db": float(db),
        "r": r,
        "detected_noise_snl": n_true,
        "detected_db": 10.0 * math.log10(n_true),
        "measured_db_over_series": 10.0 * math.log10(n_mean),
        "n_series": cfg.n_series,
        "loss_bound_db": 10.0 * math.log10(floor) if floor > 0 else None,
        "config": calibrated.as_dict(r),
    }
    text = ("calibrate: r = %.6f for -%.4g dB detected (measured %.3f dB over %d series)"
            % (r, db, payload["measured_db_over_series"], cfg.n_series))
    return text, [("calibrated.cfg", config_text(calibrated)),
                  ("calibration.json", _json_text(payload))]


# ---------------------------------------------------------------------------

# each command's help line and options: (flag, metavar, type, required, help)
_COMMON = (("--config", "CONFIG", str, False, "path to a run config file"),
           ("--seed", "SEED", int, False, "override the master seed"),
           ("--out", "OUT", str, False, "override the output directory"))
_COMMANDS = {
    "sweep": ("overlap sweep over the configured bow-tie angles", _COMMON),
    "alphabet": ("letter-recognition test against a letter-shaped mask", _COMMON + (
        ("--mask", "LETTER", str, True, "letter shape of the inserted mask"),)),
    "calibrate": ("solve the squeezing parameter for a detected dB target", _COMMON + (
        ("--db", "DB", float, True, "detected squeezing depth in dB below the SNL"),)),
}
_HELP = ("-h", "--help")
# argparse reads a token like these as a value, never as an option
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _error(command, message, field=None):
    """Print a failure's one JSON line on stderr and return its exit code, 2."""
    payload = {"error": {"command": command, "message": message}}
    if field:
        payload["error"]["field"] = field
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return 2


def _option(token, flags, command):
    """argparse's reading of a token: None for a value, else (its flag, or None
    if unknown; the value the token itself gives, or None)."""
    if not token.startswith("-") or token == "-":
        return None
    name, eq, value = token.partition("=")
    if token[1] == "h":  # "-hVALUE" or "-h=VALUE"
        return "-h", value if eq and name == "-h" else (token[2:] or None)
    found = [flag for flag in flags if token[1] == "-" and flag.startswith(name)]
    if len(found) > 1:
        sys.exit(_error(command, "ambiguous option: %s could match %s" % (token, ", ".join(found))))
    if found:
        return found[0], value if eq else None
    return None if _NEGATIVE.match(token) or " " in token else (None, None)


def _help(command, flag, value):
    """Print the help of the CLI, or of one command, and exit 0; a value given
    to -h/--help is a usage error."""
    if flag == "-h" and value:  # "-hh" is -h twice
        value = value.lstrip("h") or None
    if value is not None:
        sys.exit(_error(command, "argument -h/--help: ignored explicit argument %r" % value,
                        "-h/--help"))
    names = [command] if command else list(_COMMANDS)
    print("usage: noiseimaging %s [-h] [options]\n\nTwin-beam noise imaging simulator: "
          "sweeps, letter tests, calibration." % (command or "{%s}" % ",".join(names)))
    for name in names:
        print("\n%s: %s" % (name, _COMMANDS[name][0]))
        for flag, metavar, _, required, text in _COMMANDS[name][1]:
            print("  %-16s %s%s" % (flag + " " + metavar, text, " (required)" * required))
    print("\n  -h, --help       show this help and exit")
    sys.exit(0)


def _parse_args(argv):
    """(command, {option: value}) of argv, read as argparse read it: a usage
    error exits 2 with one JSON line on stderr, and -h/--help exits 0."""
    unknown, rest = [], list(argv)
    while rest and rest[0] != "--" and (kind := _option(rest[0], _HELP, None)):
        if kind[0]:
            _help(None, *kind)
        unknown.append(rest.pop(0))
    if rest in ([], ["--"]):
        sys.exit(_error(None, "the following arguments are required: command"))
    command, rest = rest[0], rest[1:]
    if command not in _COMMANDS:
        sys.exit(_error(None, "argument command: invalid choice: %r (choose from %s)"
                        % (command, ", ".join(map(repr, _COMMANDS))), "command"))
    table = _COMMANDS[command][1]
    types = {flag: type_ for flag, _, type_, _, _ in table}
    # from "--" on all is unknown, and neither "--" nor the end is a value
    cut = rest.index("--") if "--" in rest else len(rest)
    kinds = [_option(token, _HELP + tuple(types), command) for token in rest[:cut]] + [()]
    values, i = dict.fromkeys(types), 0
    while i < cut:
        token, kind = rest[i], kinds[i]
        i += 1
        if not kind or not kind[0]:  # a word or an unknown option
            unknown.append(token)
            continue
        flag, value = kind
        if flag in _HELP:
            _help(command, flag, value)
        if value is None:
            if kinds[i] is not None:
                sys.exit(_error(command, "argument %s: expected one argument" % flag, flag))
            value, i = rest[i], i + 1
        try:
            values[flag] = types[flag](value)
        except ValueError:
            sys.exit(_error(command, "argument %s: invalid %s value: %r"
                            % (flag, types[flag].__name__, value), flag))
    missing = [flag for flag, _, _, required, _ in table if required and values[flag] is None]
    if missing:
        sys.exit(_error(command, "the following arguments are required: " + ", ".join(missing)))
    if unknown + rest[cut:]:
        sys.exit(_error(None, "unrecognized arguments: " + " ".join(unknown + rest[cut:])))
    return command, {flag[2:]: value for flag, value in values.items()}


def main(argv=None):
    command, args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        cfg = _load_cfg(args)
        if command == "sweep":
            summary, files = cmd_sweep(cfg)
        elif command == "alphabet":
            summary, files = cmd_alphabet(cfg, args["mask"])
        else:
            summary, files = cmd_calibrate(cfg, args["db"])
        # every artifact is text by now: a failure before this line leaves no file
        _write_artifacts(_out_dir(cfg), summary, files)
        return 0
    except (ConfigError, SceneError, NoiseModelError, TraceError,
            EstimationError, MemoryError) as exc:
        return _error(command, str(exc), getattr(exc, "field", None))
    except KeyboardInterrupt:
        # Ctrl-C: the one JSON line, and the shell's status for SIGINT
        _error(command, "interrupted")
        return 130


if __name__ == "__main__":
    sys.exit(main())
