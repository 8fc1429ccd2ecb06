"""The CLI's table-driven argument reader against the argparse parser it
replaced (`cli_reference.py`), on drawn argv: where both accept, the values
are equal; where both reject, so is the JSON line on stderr; -h/--help
prints help on stdout and exits 0 on both.

One class of argv reads differently, by design: an option whose value is
given as `=--` (`--seed=--`).  argparse drops that `--` as if it ended the
options and gives the option the value `[]`, which `--seed` and `--db`
then crashed on; the reader takes `--` as the value's text.
"""

import contextlib
import io

import pytest
from hypothesis import example, given, settings, strategies as st

from noiseimaging import cli

from cli_reference import build_parser

# each command's options, with values of their types
INTS = st.integers(-2**70, 2**70).map(str)
FLOATS = st.floats().map(repr)
TEXT = st.text(max_size=4)
COMMON = {"--config": TEXT, "--seed": INTS, "--out": TEXT}
COMMANDS = {"sweep": COMMON, "alphabet": {**COMMON, "--mask": TEXT},
            "calibrate": {**COMMON, "--db": FLOATS}}
# every long option, help and a few unknown ones; each may be abbreviated
FLAGS = ["--config", "--seed", "--out", "--mask", "--db", "--help", "-h",
         "--bogus", "-x", "---x"]
NUMBERS = st.one_of(
    INTS, INTS.map(lambda n: "+" + n.lstrip("-")), FLOATS,
    st.sampled_from(["nan", "-nan", "inf", "-inf", "+inf", "1_000", "-1_000", "1__0",
                     " 7 ", "1e5", "-1e5", "-.5", "-5.", "0x10", "-1\n", "\u0663"]),
)
WORDS = st.one_of(
    st.sampled_from(["", "abc", "a b", "-a b", "-", "--", "Z", "q", "sweep", "-h", "-hh",
                     "-hx", "-hhx", "-h=h"]),
    st.text(alphabet="-=hsdbcox 1.", max_size=5),
    TEXT,
)


@st.composite
def _option(draw):
    """An option, whole or abbreviated, with its value after "=", as the next
    token, or missing."""
    flag = draw(st.sampled_from(FLAGS))
    if flag.startswith("--"):
        flag = flag[:draw(st.integers(2, len(flag)))]
    value = draw(st.one_of(NUMBERS, WORDS))
    form = draw(st.sampled_from(["=", "next", "next", "missing"]))
    return {"=": [flag + "=" + value], "next": [flag, value], "missing": [flag]}[form]


@st.composite
def _own_option(draw, command):
    """One of a command's options with a value of its type, given whole."""
    flag = draw(st.sampled_from(sorted(COMMANDS[command])))
    value = draw(COMMANDS[command][flag])
    return draw(st.sampled_from([[flag, value], [flag + "=" + value]]))


WORD = st.one_of(NUMBERS, WORDS).map(lambda word: [word])


@st.composite
def _argv(draw):
    """Tokens before the command, rarely; a known, unknown or missing
    command; after it, options and words, mostly the command's own options
    with its required one."""
    before = draw(st.lists(st.one_of(_option(), WORD), max_size=2)) if draw(
        st.sampled_from([False] * 5 + [True])) else []
    command = draw(st.sampled_from(list(COMMANDS) * 5 + ["survey", "", "Sweep", None]))
    own = [_own_option(command)] * 3 if command in COMMANDS else []
    after = draw(st.lists(st.one_of(*own, _option(), WORD), max_size=4))
    required = {"alphabet": "--mask", "calibrate": "--db"}.get(command)
    if required and draw(st.sampled_from([True] * 3 + [False])):
        after.insert(draw(st.integers(0, len(after))),
                     [required, draw(COMMANDS[command][required])])
    return sum(before, []) + ([command] if command is not None else []) + sum(after, [])


def _reference(argv):
    args = vars(build_parser().parse_args(argv))
    return args.pop("command"), args


def _outcome(parse, argv):
    """("ok", values), ("help",) or ("error", the JSON line)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return "ok", repr(parse(argv))
        except SystemExit as exc:
            if exc.code == 0:
                assert out.getvalue().startswith("usage: noiseimaging") and not err.getvalue()
                return ("help",)
            assert exc.code == 2 and not out.getvalue()
            return "error", err.getvalue()


def _dash_dash_value(argv):
    """Whether a token after a command word gives one of that command's value
    options "--" after its "="."""
    for i, command in enumerate(argv):
        flags = COMMANDS.get(command, ())
        for token in argv[i + 1:] if flags else ():
            if token == "--":
                break
            name, _, value = token.partition("=")
            if value == "--" and len([f for f in flags if f.startswith(name)]) == 1:
                return True
    return False


@settings(max_examples=1200, derandomize=True, database=None, deadline=None)
@given(_argv())
@example(["--"])
@example(["--bogus", "--"])
@example(["--", "sweep"])
@example(["-hh"])
@example(["calibrate", "--db=1", "-hhx"])
@example(["sweep", "--help=h"])
@example(["--bogus", "sweep", "-x", "1", "--", "y"])
@example(["alphabet", "--bogus"])
@example(["sweep", "--out", "-a b", "--seed", "-5"])
@example(["calibrate", "--db", "-.5", "--seed", "1.5"])
def test_reader_reads_argv_as_argparse_did(argv):
    if _dash_dash_value(argv):
        return
    assert _outcome(cli._parse_args, argv) == _outcome(_reference, argv)


@pytest.mark.parametrize("argv, reference, reader", [
    (["sweep", "--seed=--"], {"seed": []},
     ("error", '{"error": {"command": "sweep", "field": "--seed", "message": '
               '"argument --seed: invalid int value: \'--\'"}}\n')),
    (["calibrate", "--d=--"], {"db": []},
     ("error", '{"error": {"command": "calibrate", "field": "--db", "message": '
               '"argument --db: invalid float value: \'--\'"}}\n')),
    (["sweep", "--out=--"], {"out": []},
     ("ok", repr(("sweep", {"config": None, "seed": None, "out": "--"})))),
], ids=["seed", "db", "out"])
def test_dash_dash_after_equals_is_the_value_text(argv, reference, reader):
    assert _dash_dash_value(argv)
    assert reference.items() <= _reference(argv)[1].items()
    assert _outcome(cli._parse_args, argv) == reader
