"""CLI artifact contract: bytes independent of BLAS threads, valid JSON, clean failures."""

import contextlib
import gc
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import noiseimaging
from noiseimaging.cli import _write_json, main
from noiseimaging.config import RunConfig, save_config
from noiseimaging.scene import Bitmap
from scene_reference import save_pbm

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


def _font_copy(tmp_path):
    font = tmp_path / "font"
    font.mkdir()
    for path in (Path(noiseimaging.__file__).parent / "font").glob("*.pbm"):
        (font / path.name).write_bytes(path.read_bytes())
    return font


def test_alphabet_with_one_letter_above_floor_fails_cleanly(tmp_path, capsys):
    font = _font_copy(tmp_path)
    save_pbm(Bitmap(np.ones((64, 64), dtype=bool)), font / "Z.pbm")
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


@pytest.mark.parametrize("letter", ["Z", "B"], ids=["mask", "lo"])
@pytest.mark.parametrize("kind", ["directory", "symlink-loop"])
def test_unreadable_glyph_fails_cleanly(kind, letter, tmp_path, capsys):
    # the mask is Z: a broken Z fails the mask glyph, a broken B the LO font
    font = _font_copy(tmp_path)
    broken = font / ("%s.pbm" % letter)
    broken.unlink()
    if kind == "directory":
        broken.mkdir()
    else:
        broken.symlink_to(broken)
    cfgfile = tmp_path / "run.cfg"
    save_config(RunConfig(font_dir=str(font), cell_size=8, n_series=2,
                          samples_per_point=100), cfgfile)
    code = main(["alphabet", "--mask", "Z", "--config", str(cfgfile),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    message = _one_error_line(capsys, "alphabet")["message"]
    assert repr(letter) in message and str(broken) in message
    assert not (tmp_path / "out").exists()


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
@pytest.mark.parametrize("contents", ["a b\nc d\n", "nan 1\n1 1\n", "1 inf\n1 1\n",
                                      "1 -1\n1 1\n", ""],
                         ids=["letters", "nan", "inf", "negative", "empty"])
def test_unusable_weight_map_fails_cleanly(contents, tmp_path, capsys):
    wmap = tmp_path / "w.txt"
    wmap.write_text(contents)
    cfgfile = tmp_path / "run.cfg"
    save_config(RunConfig(grid_size=2, cell_size=1, weight_map=str(wmap), n_series=2,
                          samples_per_point=100), cfgfile)
    code = main(["sweep", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
    assert code == 2
    error = _one_error_line(capsys, "sweep")
    assert error["field"] == "scene.weight_map"
    assert "weight map" in error["message"].replace("_", " ")


def _sweep_artifacts(tmp_path, name, cell_size, weight_map=""):
    """The sweep artifacts of a 64x64 grid, with config.weight_map dropped
    from the summary (it names the file)."""
    cfgfile = tmp_path / ("%s.cfg" % name)
    save_config(RunConfig(grid_size=64, cell_size=cell_size, weight_map=weight_map,
                          n_series=2, samples_per_point=100), cfgfile)
    out = tmp_path / name
    assert main(["sweep", "--config", str(cfgfile), "--out", str(out)]) == 0
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    summary = json.loads(files.pop("summary.json"))
    del summary["config"]["weight_map"]
    return files, summary


# weights are relative: a uniform map is no map at any scale, overflowing
# and subnormal ones included
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cell_size", [1, 8])
def test_uniform_weight_map_at_any_scale_gives_the_artifacts_of_no_map(cell_size, tmp_path,
                                                                        capsys):
    want = _sweep_artifacts(tmp_path, "plain", cell_size)
    for k, scale in enumerate(("1e308", "1e300", "1e-300", "1e-310", "5e-324")):
        wmap = tmp_path / ("w%d.txt" % k)
        wmap.write_text(("%s\n" % " ".join([scale] * 64)) * 64)
        assert _sweep_artifacts(tmp_path, "w%d" % k, cell_size, str(wmap)) == want, scale
    capsys.readouterr()


# a PiB-sized request is beyond the user address space, so it fails at once
@pytest.mark.parametrize("args,overrides", [
    (["sweep"], {"grid_size": 10**15}),
    (["calibrate", "--db", "2.2"], {"points_per_trace": 10**15, "segment_length": 10**14}),
], ids=["sweep-grid", "calibrate-trace"])
def test_failed_allocation_fails_cleanly(args, overrides, tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    save_config(RunConfig(cell_size=1, n_series=2, samples_per_point=100, **overrides),
                cfgfile)
    code = main(args + ["--config", str(cfgfile), "--out", str(tmp_path / "out")])
    assert code == 2
    error = _one_error_line(capsys, args[0])
    assert "field" not in error
    assert error["message"]
    assert not (tmp_path / "out").exists()


def _desk_copy(tmp_path, **values):
    """configs/desk_sweep.cfg with the given keys' values replaced."""
    lines = (ROOT / "configs" / "desk_sweep.cfg").read_text().splitlines()
    for i, line in enumerate(lines):
        key = line.split("=", 1)[0].strip()
        if key in values:
            lines[i] = "%s = %s" % (key, values[key])
    cfgfile = tmp_path / "desk.cfg"
    cfgfile.write_text("\n".join(lines) + "\n")
    return cfgfile


# past intp-max bytes numpy raises ValueError at once, not MemoryError
@pytest.mark.parametrize("values,field", [
    ({"grid_size": 10**20}, "scene.grid_size"),
    ({"points_per_trace": 10**20}, "acquisition.points_per_trace"),
    ({"n_series": 10**20}, "acquisition.n_series"),
    ({"n_series": 10**17}, "acquisition.n_series"),
], ids=["grid", "trace", "series", "block"])
def test_unaddressable_size_fails_cleanly(values, field, tmp_path, capsys):
    cfgfile = _desk_copy(tmp_path, **{"grid_size": 64, **values})
    code = main(["sweep", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
    assert code == 2
    assert _one_error_line(capsys, "sweep")["field"] == field
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [["calibrate", "--db", "2.2"], ["calibrate", "--db", "x"]],
                         ids=["run", "usage-error"])
def test_main_leaves_the_collector_unfrozen(args, tmp_path, capsys):
    # main freezes what import allocated for the command, and only for it
    with pytest.raises(SystemExit) if "x" in args else contextlib.nullcontext():
        main(args + ["--config", str(_small_config(tmp_path)), "--out", str(tmp_path / "out")])
    capsys.readouterr()
    assert gc.get_freeze_count() == 0


def test_failed_angle_calibration_is_noted_in_the_summary(tmp_path, capsys):
    # an angle table that starts below zero has no calibration; the overlap
    # enhancement does not need one
    angles = (ROOT / "configs" / "desk_sweep.cfg").read_text().split("angles_deg = ")[1]
    angles = angles.splitlines()[0].replace("45.0", "-44.0")
    cfgfile = _desk_copy(tmp_path, grid_size=128, angles_deg=angles)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfgfile), "--out", str(out)]) == 0
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["angle_enhancement"] == {
        "error": "calibration angles must be >= 0 and strictly increasing"}
    assert summary["enhancement"]["factor"] > 1.0


def test_desk_sweep_keeps_no_decomposition_across_angles(tmp_path, capsys):
    # 15 angles' cell decompositions would hold about 9.6 MiB at once
    args = ["sweep", "--config", str(ROOT / "configs" / "desk_sweep.cfg")]
    # the first run caches the polar grid, so the traced run counts only the sweep
    assert main(args + ["--out", str(tmp_path / "first")]) == 0
    tracemalloc.start()
    try:
        assert main(args + ["--out", str(tmp_path / "traced")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak <= 4 * 2**20, "traced peak %.1f MiB" % (peak / 2**20)


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
    # past calibrate_r's bound of 12 the noise is not resolved, past 355 it overflows
    ("r", 13.0, "source.r"),
    ("r", 400.0, "source.r"),
], ids=["power-nan", "power-inf", "floor-nan", "floor-inf", "lock-nan", "lock-inf", "r-inf",
        "r-unresolved", "r-overflow"])
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


_NEW_NUMPY_MODULES = """
import json, sys
import noiseimaging.cli

def loaded():
    return {m for m in sys.modules if m.split(".")[0] == "numpy"}

before = loaded()
for argv in json.loads(sys.argv[1]):
    assert noiseimaging.cli.main(argv) == 0, argv
print(json.dumps(sorted(loaded() - before)))
"""


def test_commands_load_no_numpy_module_after_import(tmp_path):
    # a fresh interpreter: scipy on the test side imports numpy submodules here
    desk = str(_desk_copy(tmp_path, grid_size=128))
    runs = [
        ["sweep", "--config", desk, "--out", str(tmp_path / "sweep")],
        ["alphabet", "--mask", "Z", "--config", str(ROOT / "configs" / "alphabet_recognition.cfg"),
         "--out", str(tmp_path / "alphabet")],
        ["calibrate", "--db", "2.2", "--config", desk, "--out", str(tmp_path / "calibrate")],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _NEW_NUMPY_MODULES, json.dumps(runs)],
        env=_child_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


_COMMANDS = {
    "sweep": (["sweep"], "sweep.csv"),
    "alphabet": (["alphabet", "--mask", "Z"], "alphabet.csv"),
    "calibrate": (["calibrate", "--db", "2.2"], "calibrated.cfg"),
}


def _small_config(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    save_config(RunConfig(grid_size=64, cell_size=2, n_series=2, samples_per_point=100),
                cfgfile)
    return cfgfile


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_unusable_output_directory_fails_cleanly(command, tmp_path, capsys):
    # a directory cannot be made under a regular file
    blocker = tmp_path / "file"
    blocker.write_text("")
    args, _ = _COMMANDS[command]
    code = main(args + ["--config", str(_small_config(tmp_path)),
                        "--out", str(blocker / "out")])
    assert code == 2
    assert _one_error_line(capsys, command)["field"] == "output.out_dir"


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_unwritable_artifact_fails_cleanly(command, tmp_path, capsys):
    args, first_artifact = _COMMANDS[command]
    out = tmp_path / "out"
    (out / first_artifact).mkdir(parents=True)
    code = main(args + ["--config", str(_small_config(tmp_path)), "--out", str(out)])
    assert code == 2
    assert _one_error_line(capsys, command)["field"] == "output.out_dir"


_LAST_ARTIFACT = {"sweep": "summary.json", "alphabet": "ranking.json",
                  "calibrate": "calibration.json"}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_failed_run_leaves_no_artifact(command, tmp_path, capsys):
    # the earlier artifacts are written before the last one fails
    args, _ = _COMMANDS[command]
    out = tmp_path / "out"
    (out / _LAST_ARTIFACT[command]).mkdir(parents=True)
    code = main(args + ["--config", str(_small_config(tmp_path)), "--out", str(out)])
    assert code == 2
    assert _one_error_line(capsys, command)["field"] == "output.out_dir"
    assert [p.name for p in out.iterdir()] == [_LAST_ARTIFACT[command]]
    assert (out / _LAST_ARTIFACT[command]).is_dir()


def test_partly_written_artifact_is_removed(tmp_path, capsys, monkeypatch):
    def full_disk(path, text, encoding):
        # part of the text lands before the device runs out of space
        with open(path, "w", encoding=encoding) as fh:
            fh.write(text[:len(text) // 2])
        raise OSError(28, "No space left on device")

    cfgfile = _small_config(tmp_path)
    out = tmp_path / "out"
    monkeypatch.setattr(Path, "write_text", full_disk)
    code = main(["calibrate", "--db", "2.2", "--config", str(cfgfile), "--out", str(out)])
    monkeypatch.undo()
    assert code == 2
    error = _one_error_line(capsys, "calibrate")
    assert error["field"] == "output.out_dir"
    assert "No space left" in error["message"]
    assert list(out.iterdir()) == []


def test_non_ascii_output_directory(tmp_path, capsys):
    cfgfile = _small_config(tmp_path)
    # calibrated.cfg records out_dir, and config files are ASCII
    out = tmp_path / "résultats"
    code = main(["calibrate", "--db", "2.2", "--config", str(cfgfile), "--out", str(out)])
    assert code == 2
    assert _one_error_line(capsys, "calibrate")["field"] == "output.out_dir"
    assert not out.exists()
    # no other artifact records out_dir: the same bytes as in an ASCII directory
    for command in ("sweep", "alphabet"):
        args, _ = _COMMANDS[command]
        for where in (out, tmp_path / "ascii"):
            assert main(args + ["--config", str(cfgfile), "--out", str(where)]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in out.iterdir()) == sorted(
        p.name for p in (tmp_path / "ascii").iterdir())
    for path in out.iterdir():
        assert path.read_bytes() == (tmp_path / "ascii" / path.name).read_bytes()
