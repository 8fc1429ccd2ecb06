"""Workload generators and output checks for the noiseimaging benchmark.

One operation is one CLI command in a fresh process.  The operations of a
workload are a pure function of the workload seed; the program only sees the
generated `--seed`, `--mask` and `--db` values and the shipped configs.
"""

import csv
import io
import json
import math
import random
import string
from dataclasses import dataclass

DESK_CFG = "configs/desk_sweep.cfg"
ALPHABET_CFG = "configs/alphabet_recognition.cfg"

ARTIFACTS = {
    "sweep": ("sweep.csv", "fits.json", "summary.json"),
    "alphabet": ("alphabet.csv", "ranking.json"),
    "calibrate": ("calibration.json", "calibrated.cfg"),
}

# why each workload exists is recorded with it in BENCHMARK.json
WORKLOADS = ("sweep-desk", "alphabet-font", "calibrate-solve")

SNL_CROSSING_TOL = 0.02
DETECTED_DB_TOL = 1e-9
# deepest detected squeezing drawn on a profile whose arms are lossless
LOSSLESS_MAX_DB = 10.0


@dataclass(frozen=True)
class Op:
    """One CLI invocation: the argv after the program name, and what it checks."""

    command: str
    argv: tuple
    mask: str = ""
    db: float = 0.0


def read_cfg(path):
    """Flat `key = value` view of a shipped config (sections ignored)."""
    values = {}
    with open(path, encoding="ascii") as fh:
        for line in fh:
            text = line.split("#", 1)[0].strip()
            if "=" in text and not text.startswith("["):
                key, raw = (part.strip() for part in text.split("=", 1))
                values[key] = raw
    return values


def loss_bound_db(cfg):
    """Deepest detected squeezing a profile's losses allow, in dB (inf if none)."""
    tp, tc = float(cfg["t_probe"]), float(cfg["t_conj"])
    a, b = 0.5 * (tp + tc), math.sqrt(tp * tc)
    floor = 1.0 - a + math.sqrt(max(a * a - b * b, 0.0)) + float(cfg["lock_noise"])
    return math.inf if floor <= 0.0 else -10.0 * math.log10(floor)


def op_stream(workload, seed, root):
    """Endless, seed-determined sequence of operations for one workload."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % (workload,))
    rng = random.Random("%s|%d" % (workload, int(seed)))
    bounds = {}
    if workload == "calibrate-solve":
        for path in (DESK_CFG, ALPHABET_CFG):
            bounds[path] = min(loss_bound_db(read_cfg("%s/%s" % (root, path))),
                               LOSSLESS_MAX_DB)
    while True:
        op_seed = str(rng.randrange(1, 2**31))
        if workload == "sweep-desk":
            yield Op("sweep", ("sweep", "--config", DESK_CFG, "--seed", op_seed))
        elif workload == "alphabet-font":
            letter = rng.choice(string.ascii_uppercase)
            yield Op("alphabet", ("alphabet", "--config", ALPHABET_CFG,
                                  "--mask", letter, "--seed", op_seed), mask=letter)
        else:
            path = rng.choice((DESK_CFG, ALPHABET_CFG))
            db = round(rng.uniform(0.1, 0.95 * bounds[path]), 6)
            yield Op("calibrate", ("calibrate", "--config", path, "--db", repr(db),
                                   "--seed", op_seed), db=db)


# ---------------------------------------------------------------------------
# output checks

class NanCounter:
    """`parse_constant` hook that counts NaN/Infinity literals in JSON."""

    def __init__(self):
        self.count = 0

    def __call__(self, token):
        self.count += 1
        return float(token)


def parse_artifacts(command, files):
    """Parse every artifact of a command.

    Returns (parsed JSON payloads by name, NaN literal count, problems).
    """
    problems, payloads, nans = [], {}, NanCounter()
    for name in ARTIFACTS[command]:
        if name not in files:
            problems.append("missing artifact %s" % name)
            continue
        try:
            text = files[name].decode("ascii")
        except UnicodeDecodeError:
            problems.append("%s is not ASCII" % name)
            continue
        if name.endswith(".json"):
            try:
                payloads[name] = json.loads(text, parse_constant=nans)
            except ValueError as exc:
                problems.append("%s does not parse: %s" % (name, exc))
        elif name.endswith(".csv"):
            problems += _csv_problems(name, text)
        elif not _cfg_parses(text):
            problems.append("%s does not parse as key = value sections" % name)
    return payloads, nans.count, problems


def _csv_problems(name, text):
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# schema: "):
        return ["%s lacks its schema line" % name]
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    if len(rows) < 2:
        return ["%s has no data rows" % name]
    width = len(rows[0])
    if any(len(row) != width for row in rows[1:]):
        return ["%s has ragged rows" % name]
    return []


def _cfg_parses(text):
    section = None
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if body.startswith("[") and body.endswith("]"):
            section = body
        elif "=" not in body or section is None:
            return False
    return section is not None


def snl_crossing_closed_form(r):
    """Overlap where the lossless quantum noise crosses the SNL."""
    c2 = math.cosh(r) ** 2
    return (c2 - 1.0) / (c2 - math.exp(-2.0 * r))


def check_op(op, returncode, stdout, stderr, files):
    """All checks of one operation: (problems, NaN literal count)."""
    problems = []
    if returncode != 0:
        problems.append("exit code %d" % returncode)
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    first = stdout.splitlines()[0] if stdout.strip() else ""
    if not first.startswith(op.command + ": "):
        problems.append("no %r summary line on stdout" % op.command)
    payloads, nans, parse_problems = parse_artifacts(op.command, files)
    problems += parse_problems
    if parse_problems:
        return problems, nans
    try:
        problems += _semantic_problems(op, payloads)
    except (KeyError, TypeError, ValueError) as exc:
        problems.append("unexpected artifact layout: %r" % (exc,))
    return problems, nans


def _semantic_problems(op, payloads):
    if op.command == "sweep":
        summary = payloads["summary.json"]
        out = []
        factor = summary["enhancement"]["factor"]
        if not factor > 1.0:
            out.append("enhancement factor %r is not > 1" % (factor,))
        crossing = summary["snl_crossing_overlap"]
        expected = snl_crossing_closed_form(summary["config"]["r_resolved"])
        if crossing is None or abs(crossing - expected) > SNL_CROSSING_TOL:
            out.append("SNL crossing %r is not within %g of %.6f"
                       % (crossing, SNL_CROSSING_TOL, expected))
        return out
    if op.command == "alphabet":
        ranking = payloads["ranking.json"]
        excluded = {e["letter"] for e in ranking["excluded"]}
        best = ranking["rankings"]["quantum"]["best"]
        if op.mask not in excluded and best != op.mask:
            return ["quantum best %r is not the mask letter %r" % (best, op.mask)]
        return []
    detected = payloads["calibration.json"]["detected_db"]
    if not abs(detected + op.db) <= DETECTED_DB_TOL:
        return ["detected_db %r is not -%r" % (detected, op.db)]
    return []


def working_set(workload, root):
    """Computed bytes of the largest float64 arrays one op builds."""
    if workload == "calibrate-solve":
        return {"array_bytes": 8, "note": "one-cell decompositions"}
    path = DESK_CFG if workload == "sweep-desk" else ALPHABET_CFG
    grid = int(read_cfg("%s/%s" % (root, path))["grid_size"])
    return {"array_bytes": grid * grid * 8, "note": "%d^2 float64 grid arrays" % grid}
