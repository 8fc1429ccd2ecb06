"""The shipped configs at seeds 12345, 7 and 99, run in-process.

A change that moves artifact bytes must keep each command's physics at more
than the default seed: the sweep's enhancement above 1 and its SNL crossing
at the closed form, the alphabet's quantum ranking led by the mask letter
alone below the SNL, and calibration on its dB target.
"""

from pathlib import Path

import pytest

from referee import lossless_snl_crossing, read_json, run

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
DESK = str(CONFIGS / "desk_sweep.cfg")
ALPHABET = str(CONFIGS / "alphabet_recognition.cfg")

SNL_CROSSING_TOL = 0.02
DETECTED_DB_TOL = 1e-9


@pytest.mark.parametrize("seed", [12345, 7, 99])
def test_shipped_configs_keep_their_physics(seed, tmp_path, capsys):
    seed_args = ["--seed", str(seed)]
    summary = read_json(run(tmp_path, "sweep", ["sweep", "--config", DESK] + seed_args),
                        "summary.json")
    assert summary["enhancement"]["factor"] > 1.0
    expected = lossless_snl_crossing(summary["config"]["r_resolved"])
    assert abs(summary["snl_crossing_overlap"] - expected) <= SNL_CROSSING_TOL

    out = run(tmp_path, "alphabet", ["alphabet", "--config", ALPHABET, "--mask", "Z"] + seed_args)
    quantum = read_json(out, "ranking.json")["rankings"]["quantum"]
    assert quantum["best"] == "Z"
    assert quantum["sub_snl_letters"] == ["Z"]

    for k, config in enumerate((DESK, ALPHABET)):
        out = run(tmp_path, "calibrate%d" % k,
                  ["calibrate", "--db", "2.2", "--config", config] + seed_args)
        assert abs(read_json(out, "calibration.json")["detected_db"] + 2.2) <= DETECTED_DB_TOL
    capsys.readouterr()
