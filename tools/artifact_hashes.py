"""Print the sha256 of every artifact the three commands write, as a markdown table.

Runs `sweep`, `alphabet --mask Z` and `calibrate --db 2.2` on both shipped
configs at seeds 12345, 7 and 99, each in a fresh process on the package in
this checkout's `src/`, inside a temporary directory that is removed after.
Every file a run writes is hashed, and so are its stdout and stderr when
they are not empty; a run that fails (the sweep needs five angles, which the
alphabet config does not have) shows its exit code and its stderr.  Output
paths are relative to the temporary directory, so the bytes do not depend
on where it lives.  Takes no flags:

    python3 tools/artifact_hashes.py

Run it on two checkouts and compare the tables to see which bytes a change
moved.  `tests/artifact_hashes.md` pins every row, each the same on every
CPU path the contract tests run, and `tests/test_artifact_bytes.py` reruns
`table_rows` against it.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ("desk_sweep.cfg", "alphabet_recognition.cfg")
SEEDS = (12345, 7, 99)
COMMANDS = (("sweep",), ("alphabet", "--mask", "Z"), ("calibrate", "--db", "2.2"))


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _run(workdir, config, seed, command):
    """(exit code, [(name, sha256)]) of one command run in a fresh process."""
    out = "%s-%s-%d" % (Path(config).stem, command[0], seed)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "noiseimaging.cli", *command,
         "--config", str(ROOT / "configs" / config), "--seed", str(seed), "--out", out],
        cwd=workdir, env=env, capture_output=True, check=False,
    )
    hashes = [(path.name, _sha256(path.read_bytes()))
              for path in sorted((Path(workdir) / out).glob("*"))]
    hashes += [(name, _sha256(data))
               for name, data in (("stdout", proc.stdout), ("stderr", proc.stderr)) if data]
    return proc.returncode, hashes


HEADER = ("| config | seed | command | exit | file | sha256 |", "|---|---|---|---|---|---|")


def table_rows():
    """The table's rows, one markdown line each, in run order."""
    rows = []
    with tempfile.TemporaryDirectory() as workdir:
        for config in CONFIGS:
            for seed in SEEDS:
                for command in COMMANDS:
                    code, hashes = _run(workdir, config, seed, command)
                    rows += ["| %s | %d | %s | %d | `%s` | `%s` |"
                             % (config, seed, " ".join(command), code, name, digest)
                             for name, digest in hashes]
    return rows


def main():
    print("\n".join(HEADER + tuple(table_rows())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
