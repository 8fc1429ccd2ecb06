"""CLI artifact contract: bytes independent of BLAS threads, valid JSON, clean failures."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import noiseimaging
from noiseimaging.cli import _write_json, main
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


def test_non_finite_floats_are_written_as_null(tmp_path):
    payload = {"a": 1.5, "b": [1.0, float("nan"), {"c": float("-inf")}],
               "d": {"e": float("inf"), "f": (2.0, float("nan"))}, "g": None, "h": "x"}
    _write_json(tmp_path / "p.json", payload)
    text = (tmp_path / "p.json").read_text()
    got = json.loads(text, parse_constant=_reject_constant)
    assert got == {"a": 1.5, "b": [1.0, None, {"c": None}], "d": {"e": None, "f": [2.0, None]},
                   "g": None, "h": "x", "non_finite": ["b.1", "b.2.c", "d.e", "d.f.1"]}
    # a finite payload keeps the bytes of a plain dump, with no flag key
    finite = {"z": [0.1, 2], "a": {"k": -0.0, "j": 1e308}}
    _write_json(tmp_path / "q.json", finite)
    assert (tmp_path / "q.json").read_text() == json.dumps(finite, indent=2,
                                                           sort_keys=True) + "\n"


# a warning would print a second stderr line outside pytest
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("db", ["nan", "inf", "200"])
def test_calibrate_unusable_depth_fails_cleanly(db, tmp_path, capsys):
    code = main(["calibrate", "--db", db, "--config", str(ROOT / "configs" / "desk_sweep.cfg"),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    message = _one_error_line(capsys, "calibrate")["message"]
    assert "inf dB" not in message and "r must be finite" not in message
    assert not (tmp_path / "out").exists()


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


def _one_error_line(capsys, command):
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"]["command"] == command
    return payload["error"]


@pytest.mark.parametrize("args", [["sweep"], ["alphabet", "--mask", "Z"]],
                         ids=["sweep", "alphabet"])
def test_single_segment_acquisition_fails_cleanly(args, tmp_path, capsys):
    # one segment mean per trace leaves no segment scatter to measure
    cfgfile = tmp_path / "run.cfg"
    save_config(RunConfig(grid_size=64, cell_size=8, points_per_trace=10,
                          segment_length=10, n_series=2, samples_per_point=100), cfgfile)
    code = main(args + ["--config", str(cfgfile), "--out", str(tmp_path / "out")])
    assert code == 2
    error = _one_error_line(capsys, args[0])
    assert error["field"] == "acquisition"
    assert "two segments" in error["message"]


# a warning would print a second stderr line outside pytest
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("contents", ["a b\nc d\n", "nan 1\n1 1\n", "1 inf\n1 1\n", ""],
                         ids=["letters", "nan", "inf", "empty"])
def test_unusable_weight_map_fails_cleanly(contents, tmp_path, capsys):
    wmap = tmp_path / "w.txt"
    wmap.write_text(contents)
    cfgfile = tmp_path / "run.cfg"
    save_config(RunConfig(grid_size=2, cell_size=1, weight_map=str(wmap), n_series=2,
                          samples_per_point=100), cfgfile)
    code = main(["sweep", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "weight map" in _one_error_line(capsys, "sweep")["message"].replace("_", " ")


# a warning would print a second stderr line outside pytest
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("angle", [float("inf"), float("-inf"), float("nan")],
                         ids=["inf", "-inf", "nan"])
def test_non_finite_sweep_angle_fails_cleanly(angle, tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    save_config(RunConfig(grid_size=32, cell_size=4, n_series=2, samples_per_point=100,
                          angles_deg=(0.0, angle, 9.0)), cfgfile)
    code = main(["sweep", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
    assert code == 2
    assert _one_error_line(capsys, "sweep")["field"] == "acquisition.angles_deg"
    assert not (tmp_path / "out").exists()


# NaN compares false and inf passes a lower bound; each must name its own field
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name,value,field", [
    ("power_per_pixel", float("nan"), "source.power_per_pixel"),
    ("power_per_pixel", float("inf"), "source.power_per_pixel"),
    ("electronic_floor", float("nan"), "source.electronic_floor"),
    ("electronic_floor", float("inf"), "source.electronic_floor"),
    ("lock_noise", float("nan"), "source.lock_noise"),
    ("lock_noise", float("inf"), "source.lock_noise"),
    ("r", float("inf"), "source.r"),
], ids=["power-nan", "power-inf", "floor-nan", "floor-inf", "lock-nan", "lock-inf", "r-inf"])
@pytest.mark.parametrize("args", [["sweep"], ["alphabet", "--mask", "Z"]],
                         ids=["sweep", "alphabet"])
def test_non_finite_source_value_names_its_field(name, value, field, args, tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    save_config(RunConfig(grid_size=32, cell_size=4, n_series=2, samples_per_point=100,
                          **{name: value}), cfgfile)
    code = main(args + ["--config", str(cfgfile), "--out", str(tmp_path / "out")])
    assert code == 2
    assert _one_error_line(capsys, args[0])["field"] == field
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", ["comment", "value"])
def test_non_ascii_config_fails_cleanly(where, tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    save_config(RunConfig(grid_size=32, cell_size=4, n_series=2, samples_per_point=100),
                cfgfile)
    text = cfgfile.read_bytes()
    if where == "comment":
        text = "# r\u00e9glage\n".encode("utf-8") + text
    else:
        text = text.replace(b"out_dir = out", "out_dir = \u00e9".encode("latin-1"))
    cfgfile.write_bytes(text)
    code = main(["sweep", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
    assert code == 2
    assert _one_error_line(capsys, "sweep")["field"] == "config"


def test_runtime_imports_numpy_only():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, noiseimaging.cli; print(sorted(m for m in sys.modules"
         " if m.split('.')[0] == 'scipy'))"],
        env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
