"""Property-based CLI contract: any config numbers, weight map and flags.

Hypothesis draws config values (finite, non-finite, huge and negative),
weight maps (overflowing, subnormal, signed-zero, malformed), and the
`--seed`, `--mask`, `--db` and `--out` flags, and runs one command
in-process.  Every run must exit 0 or 2 without an uncaught exception (a
warning counts as one: outside pytest it would print a second stderr line).
A failing run writes exactly one JSON line on stderr and no artifact; a
passing run writes nothing on stderr, and its JSON artifacts parse with
NaN and Infinity rejected.

A second test draws the config *text*: a small run's lines with unknown
keys, bad or empty section headers, a key given twice or before any
section, empty values, `1_000`-style numerals and control characters (NUL
included, most often in a path value), under the same contract.

Sizes stay small: grids up to 48 pixels a side, at most 3 series of at
most 120 displayed points, and point correlations up to 0.9, so no draw
allocates more than a few MiB.  Sizes past numpy's addressable limit are
drawn too; they fail in validation before any allocation.
"""

import contextlib
import io
import json
import os
import string
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings, strategies as st

from noiseimaging.cli import main
from noiseimaging.config import RunConfig

from config_files import write_config

UNADDRESSABLE = 10**20

_SPECIAL = [0.0, -0.0, -1.0, 1e-310, 5e-324, 13.0, 400.0, 1e308, -1e308,
            float("nan"), float("inf"), float("-inf")]


_FLOAT_FIELDS = ("squeezing_db_detected", "r", "t_probe", "t_conj", "lock_noise",
                 "electronic_floor", "power_per_pixel", "bowtie_half_angle_deg",
                 "bowtie_radius_frac")
_INT_FIELDS = ("grid_size", "cell_size", "segment_length", "points_per_trace",
               "samples_per_point", "n_series")

# angles whose overlaps stay distinct on these grids, two of them above 0.8
_ANGLES = (0.0, 1.5, 3.0, 4.5, 6.0, 9.0, 12.0, 20.0, 30.0, 45.0)

# a usable small run: every field in range, grids up to 48 pixels a side, at
# most 3 series of at most 120 displayed points, correlations up to 0.9
_USABLE = st.fixed_dictionaries({
    "squeezing_db_detected": st.floats(0.0, 2.5),
    "r": st.one_of(st.just(float("nan")), st.floats(0.0, 2.0)),
    "t_probe": st.floats(0.6, 1.0),
    "t_conj": st.floats(0.6, 1.0),
    "lock_noise": st.floats(0.0, 0.02),
    "electronic_floor": st.one_of(st.just(0.0), st.floats(0.0, 1500.0)),
    "power_per_pixel": st.floats(0.1, 10.0),
    "grid_size": st.integers(24, 48),
    "cell_size": st.integers(1, 8),
    "bowtie_half_angle_deg": st.floats(15.0, 40.0),
    "bowtie_radius_frac": st.floats(0.6, 1.0),
    "segment_length": st.integers(1, 12),
    "n_segments": st.integers(2, 10),
    "samples_per_point": st.integers(1, 400),
    "point_correlation": st.floats(0.0, 0.9),
    "n_series": st.integers(1, 3),
    "angles_deg": st.lists(st.sampled_from(_ANGLES), min_size=5, unique=True).map(tuple),
})

_SPECIAL = [0.0, -0.0, -1.0, 1e-310, 5e-324, 13.0, 400.0, 1e308, -1e308,
            float("nan"), float("inf"), float("-inf")]
# any float, the specials most often
_HOSTILE_FLOAT = st.one_of(st.sampled_from(_SPECIAL),
                           st.floats(allow_nan=True, allow_infinity=True))
# past numpy's addressable limit a size fails validation before any
# allocation; a size that would merely exhaust memory is never drawn
_HOSTILE_INT = st.sampled_from([0, -1, -(10**20), 10**20])
# a correlation just below 1 needs a burn-in of billions of points per trace
# and is never drawn; these fail validation
_HOSTILE_CORRELATION = st.sampled_from([-0.5, -0.0, 1.0, 1.5, 1e308, float("nan"),
                                        float("inf"), float("-inf")])
_HOSTILE_ANGLES = st.lists(st.one_of(st.floats(0.0, 45.0), st.sampled_from(_SPECIAL)),
                           max_size=6).map(tuple)


@st.composite
def _config_values(draw):
    values = draw(_USABLE)
    values["points_per_trace"] = values["segment_length"] * values.pop("n_segments")
    hostile = {"point_correlation": _HOSTILE_CORRELATION, "angles_deg": _HOSTILE_ANGLES}
    hostile.update({name: _HOSTILE_FLOAT for name in _FLOAT_FIELDS})
    hostile.update({name: _HOSTILE_INT for name in _INT_FIELDS})
    count = draw(st.sampled_from([0, 0, 1, 1, 1, 2]))
    for name in draw(st.lists(st.sampled_from(sorted(hostile)), min_size=count,
                              max_size=count, unique=True)):
        values[name] = draw(hostile[name])
    return values


_ENTRY = st.one_of(st.floats(0.0, 10.0), st.sampled_from(_SPECIAL))


@st.composite
def _weight_maps(draw, grid_size):
    """Text of a weight map file, or None for no map."""
    kind = draw(st.sampled_from(["none", "none", "uniform", "mixed", "wrong-shape", "text"]))
    if kind == "none":
        return None
    if kind == "text":
        return draw(st.sampled_from(["", "a b\nc d\n", "1 2\n3\n"]))
    side = grid_size if 2 <= grid_size <= 48 else 8
    if kind == "wrong-shape":
        side += 1
    if kind == "uniform":
        rows = [[draw(_ENTRY)] * side] * side
    else:
        base = draw(_ENTRY)
        rows = [[base] * side for _ in range(side)]
        for _ in range(draw(st.integers(1, 6))):
            row, col = draw(st.integers(0, side - 1)), draw(st.integers(0, side - 1))
            rows[row][col] = draw(_ENTRY)
    return "".join(" ".join(repr(v) for v in row) + "\n" for row in rows)


@st.composite
def _runs(draw):
    values = draw(_config_values())
    command = draw(st.sampled_from(["sweep", "alphabet", "calibrate"]))
    # "--flag=value": a value such as "-inf" must not read as a flag
    argv = [command, "--seed=%d" % draw(st.integers(-2**64, 2**64))]
    if command == "alphabet":
        argv.append("--mask=" + draw(st.one_of(st.sampled_from(string.ascii_uppercase),
                                               st.text(string.ascii_letters + "@1 ",
                                                       max_size=2))))
    if command == "calibrate":
        argv.append("--db=" + repr(draw(st.one_of(st.floats(0.0, 2.5), _HOSTILE_FLOAT))))
    out = draw(st.sampled_from(["fresh"] * 4 + ["under-a-file", "non-ascii", "is-a-file"]))
    return values, draw(_weight_maps(values["grid_size"])), argv, out


def _reject_constant(token):
    raise ValueError("non-JSON constant %s" % token)


def _out_dir(root, kind):
    if kind == "under-a-file":
        (root / "blocker").write_text("")
        return root / "blocker" / "out"
    if kind == "is-a-file":
        (root / "file").write_text("")
        return root / "file"
    return root / ("résultats" if kind == "non-ascii" else "out")


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(_runs())
def test_cli_keeps_its_contract(run):
    values, weight_map, argv, out_kind = run
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        if weight_map is not None:
            (root / "w.txt").write_text(weight_map)
            values = dict(values, weight_map=str(root / "w.txt"))
        write_config(RunConfig(**values), root / "run.cfg")
        out = _out_dir(root, out_kind)
        before = set(root.rglob("*"))
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv + ["--config", str(root / "run.cfg"), "--out", str(out)])
        assert code in (0, 2)
        if code == 2:
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1, lines
            assert json.loads(lines[0])["error"]["command"] == argv[0]
            assert not [p for p in root.rglob("*") if p not in before and p.is_file()]
            return
        assert stderr.getvalue() == ""
        written = sorted(out.iterdir())
        assert written
        for path in written:
            if path.suffix == ".json":
                json.loads(path.read_text(), parse_constant=_reject_constant)


# a small usable run as config lines; no edit below makes a size larger: a
# numeral gains only underscores, a line a control character breaks loses
# its tail, and a repeated key is an error
_BASE_LINES = (
    "[source]",
    "squeezing_db_detected = 2.0",
    "t_probe = 0.95",
    "t_conj = 0.95",
    "[scene]",
    "grid_size = 32",
    "cell_size = 4",
    "bowtie_half_angle_deg = 22.5",
    "font_dir =",
    "weight_map =",
    "[acquisition]",
    "points_per_trace = 40",
    "segment_length = 10",
    "samples_per_point = 100",
    "n_series = 2",
    "angles_deg = 0.0, 3.0, 6.0, 12.0, 20.0, 30.0",
    "seed = 5",
    "[output]",
    "out_dir = out",
)
_PATH_KEYS = ("font_dir", "weight_map", "out_dir")
# NUL most often: no path can hold it
_CONTROL = st.one_of(st.just("\0"),
                     st.sampled_from([chr(c) for c in range(1, 32)] + ["\x7f"]))
_PATH_TAIL = st.text(st.one_of(_CONTROL, st.sampled_from("a_1")), min_size=1, max_size=3)
_UNKNOWN_KEYS = ("grid", "Grid_size", "n-series", "x", "seed2", "source", "")
_BAD_HEADERS = ("[]", "[ ]", "[sources]", "[Scene]", "[scene", "scene]", "[[output]]",
                "[output] x")
# control characters most often, and on a path value, which reaches the file system
_EDITS = ["path"] * 3 + ["control"] * 2 + ["underscore", "empty-value", "twice",
                                           "before-section", "unknown-key", "bad-header"]


@st.composite
def _config_lines(draw):
    """A small run's config lines after one or two edits: an unknown key, a
    bad or empty [section] header, a key given twice or before any section,
    an empty value, a `1_000`-style numeral, or control characters."""
    lines = list(_BASE_LINES)
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(_EDITS))
        paths = [i for i, line in enumerate(lines) if line.startswith(_PATH_KEYS)]
        if kind == "path" and paths:
            k = draw(st.sampled_from(paths))
            lines[k] += draw(_PATH_TAIL)
            continue
        k = draw(st.integers(0, len(lines) - 1))
        key, sep, value = lines[k].partition("=")
        if kind == "control":
            at = draw(st.integers(0, len(lines[k])))
            lines[k] = lines[k][:at] + draw(_CONTROL) + lines[k][at:]
        elif kind == "underscore":
            at = draw(st.integers(0, len(value)))
            lines[k] = key + sep + value[:at] + "_" + value[at:]
        elif kind == "empty-value":
            lines[k] = key + "="
        elif kind == "twice":
            lines.insert(draw(st.integers(0, len(lines))), lines[k])
        elif kind == "before-section":
            lines.insert(0, lines[k])
        elif kind == "unknown-key":
            lines.insert(k, "%s = 1" % draw(st.sampled_from(_UNKNOWN_KEYS)))
        elif kind == "bad-header":
            lines[k] = draw(st.sampled_from(_BAD_HEADERS))
    return lines


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(_config_lines(), st.sampled_from([["sweep"], ["alphabet", "--mask", "Z"],
                                         ["calibrate", "--db", "2.2"]]))
def test_cli_keeps_its_contract_on_any_config_text(lines, argv):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "run.cfg").write_bytes(("\n".join(lines) + "\n").encode("ascii"))
        before = set(root.rglob("*"))
        stdout, stderr = io.StringIO(), io.StringIO()
        # out_dir is relative: to the temporary directory
        cwd = os.getcwd()
        os.chdir(root)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main(argv + ["--config", "run.cfg"])
        finally:
            os.chdir(cwd)
        assert code in (0, 2)
        if code == 2:
            errors = stderr.getvalue().splitlines()
            assert len(errors) == 1, errors
            assert json.loads(errors[0])["error"]["command"] == argv[0]
            assert not [p for p in root.rglob("*") if p not in before and p.is_file()]
        else:
            assert stderr.getvalue() == ""
