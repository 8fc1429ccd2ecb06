"""CLI artifact contract: bytes independent of BLAS threads, valid JSON, clean failures."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import noiseimaging
from noiseimaging.cli import main
from noiseimaging.config import RunConfig, save_config
from noiseimaging.scene import full_bitmap, save_pbm

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(noiseimaging.__file__).resolve().parents[1]


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run_in_subprocess(args, out, threads):
    env = _child_env()
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(threads)
    proc = subprocess.run(
        [sys.executable, "-m", "noiseimaging.cli", *args, "--out", str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("args", [
    ("sweep", "--config", "configs/desk_sweep.cfg"),
    ("alphabet", "--config", "configs/alphabet_recognition.cfg", "--mask", "Z"),
], ids=["sweep-desk", "alphabet-Z"])
def test_artifacts_do_not_depend_on_blas_threads(args, tmp_path):
    one = _run_in_subprocess(args, tmp_path / "threads1", 1)
    two = _run_in_subprocess(args, tmp_path / "threads2", 2)
    assert sorted(one) == sorted(two)
    differ = [name for name in one if one[name] != two[name]]
    assert not differ, "artifacts differ between 1 and 2 BLAS threads: %s" % differ


def _reject_constant(token):
    raise ValueError("non-JSON constant %s" % token)


def test_json_artifacts_have_no_nan_or_infinity(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    # r unset: derived from the detected squeezing depth
    save_config(RunConfig(grid_size=128, cell_size=1, n_series=2,
                          samples_per_point=100, seed=3), cfgfile)
    runs = {
        "summary.json": ["sweep"],
        "ranking.json": ["alphabet", "--mask", "Z"],
        "calibration.json": ["calibrate", "--db", "2.2"],
    }
    for name, args in runs.items():
        out = tmp_path / name.split(".")[0]
        assert main(args + ["--config", str(cfgfile), "--out", str(out)]) == 0
        payload = json.loads((out / name).read_text(), parse_constant=_reject_constant)
        assert payload["config"]["r_resolved"] > 0


def test_alphabet_with_one_letter_above_floor_fails_cleanly(tmp_path, capsys):
    font = tmp_path / "font"
    font.mkdir()
    for path in (Path(noiseimaging.__file__).parent / "font").glob("*.pbm"):
        (font / path.name).write_bytes(path.read_bytes())
    save_pbm(full_bitmap(64, 64), font / "Z.pbm")
    cfgfile = tmp_path / "run.cfg"
    save_config(RunConfig(font_dir=str(font), electronic_floor=3000.0, cell_size=8,
                          n_series=2, samples_per_point=100), cfgfile)
    code = main(["alphabet", "--mask", "Z", "--config", str(cfgfile),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"]["command"] == "alphabet"
    assert "two letters" in payload["error"]["message"]


def test_runtime_imports_numpy_only():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, noiseimaging.cli; print(sorted(m for m in sys.modules"
         " if m.split('.')[0] == 'scipy'))"],
        env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
