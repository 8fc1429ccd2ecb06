"""The shipped configs at seeds 12345, 7 and 99, run in-process.

A change that moves artifact bytes must keep each command's physics at more
than the default seed: the sweep's enhancement above 1 and its SNL crossing
at the closed form, the alphabet's quantum ranking led by the mask letter
alone below the SNL, and calibration on its dB target.
"""

import json
import math
from pathlib import Path

import pytest

from noiseimaging.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
DESK = str(CONFIGS / "desk_sweep.cfg")
ALPHABET = str(CONFIGS / "alphabet_recognition.cfg")

SNL_CROSSING_TOL = 0.02
DETECTED_DB_TOL = 1e-9


def _snl_crossing_closed_form(r):
    """Overlap where the lossless quantum noise crosses the SNL."""
    c2 = math.cosh(r) ** 2
    return (c2 - 1.0) / (c2 - math.exp(-2.0 * r))


def _run(tmp_path, name, args, seed):
    out = tmp_path / name
    assert main(args + ["--seed", str(seed), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("seed", [12345, 7, 99])
def test_shipped_configs_keep_their_physics(seed, tmp_path, capsys):
    out = _run(tmp_path, "sweep", ["sweep", "--config", DESK], seed)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["enhancement"]["factor"] > 1.0
    expected = _snl_crossing_closed_form(summary["config"]["r_resolved"])
    assert abs(summary["snl_crossing_overlap"] - expected) <= SNL_CROSSING_TOL

    out = _run(tmp_path, "alphabet", ["alphabet", "--config", ALPHABET, "--mask", "Z"], seed)
    quantum = json.loads((out / "ranking.json").read_text())["rankings"]["quantum"]
    assert quantum["best"] == "Z"
    assert quantum["sub_snl_letters"] == ["Z"]

    for k, config in enumerate((DESK, ALPHABET)):
        out = _run(tmp_path, "calibrate%d" % k, ["calibrate", "--db", "2.2", "--config", config],
                   seed)
        calibration = json.loads((out / "calibration.json").read_text())
        assert abs(calibration["detected_db"] + 2.2) <= DETECTED_DB_TOL
    capsys.readouterr()
