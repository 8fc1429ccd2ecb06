"""The argparse parser the CLI used to build, kept as the reference its
table-driven reader is compared against (`test_cli_reference.py`).

Its usage errors keep the CLI contract: one JSON line on stderr, exit 2.
"""

import argparse
import json
import sys


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
