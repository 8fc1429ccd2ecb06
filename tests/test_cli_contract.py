"""CLI artifact contract: bytes independent of BLAS threads, valid JSON, clean failures."""

import contextlib
import functools
import gc
import json
import os
import platform
import re
import string
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import noiseimaging
from noiseimaging import cli, estimate, noise, scene
from noiseimaging.cli import _json_text, main
from noiseimaging.config import RunConfig, save_config
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


# the interpreter's threads and the environment it changed on importing the CLI
_THREADS_AFTER_IMPORT = """
import json, os, sys
if sys.argv[1:] == ["numpy-first"]:
    import numpy
before = dict(os.environ)
import noiseimaging.cli
print(json.dumps({"tasks": len(os.listdir("/proc/self/task")),
                  "changed": {k: v for k, v in os.environ.items() if before.get(k) != v}}))
"""


def _threads_after_import(settings, *argv):
    env = _child_env()
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(name, None)
    env.update(settings)
    proc = subprocess.run([sys.executable, "-c", _THREADS_AFTER_IMPORT, *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize("settings, argv, expected", [
    # OpenBLAS's worker thread would only spin: no call here is large enough to use it
    ({}, (), {"tasks": 1, "changed": {"OPENBLAS_NUM_THREADS": "1"}}),
    # an explicit setting wins
    ({"OPENBLAS_NUM_THREADS": "2"}, (), {"tasks": 2, "changed": {}}),
    ({"OMP_NUM_THREADS": "1"}, (), {"changed": {}}),
    # a numpy loaded first already has its threads
    ({}, ("numpy-first",), {"changed": {}}),
], ids=["default", "openblas-2", "omp-only", "numpy-first"])
def test_cli_runs_blas_on_one_thread_unless_told_otherwise(settings, argv, expected):
    if expected.get("tasks", 1) > (os.cpu_count() or 1):
        pytest.skip("OpenBLAS starts no more threads than there are cores")
    seen = _threads_after_import(settings, *argv)
    assert {key: seen[key] for key in expected} == expected


# the trace points of four smoothing depths, the 16 desk bow-ties (mask and
# LOs, whose edge-sector angles are arctan2s of gathered centers) and the
# fits.json payload of a fit to 16 points made of Python floats, each hashed
# in a fresh interpreter
_CPU_PATH_DIGESTS = """
import hashlib, json, sys
import numpy as np
from noiseimaging import scene
from noiseimaging.cli import _curve_payload
from noiseimaging.config import RunConfig, load_config
from noiseimaging.estimate import fit_noise_curve
from noiseimaging.traces import _series_points, derive_seed

points = hashlib.sha256()
for phi in (0.0, 0.5, 0.9, 0.99):
    cfg = RunConfig(point_correlation=phi)
    points.update(_series_points(1.7, cfg, 10, derive_seed(12345, "cpu", phi)).tobytes())
desk = load_config(sys.argv[1])
bowties = hashlib.sha256()
for angle in (0.0,) + desk.angles_deg:
    bowties.update(scene.bowtie(np.deg2rad(angle), desk.bowtie_half_angle(),
                                desk.bowtie_radius(), desk.grid_size, desk.grid_size))
fit_points = [{"overlap": k / 15, "n": 1.0 + 0.3 * k / 15 + ((7 * k) % 11 - 5) * 1e-3,
               "sigma_n": 1e-3 * (1 + k % 3), "delta_n": 0.02} for k in range(16)]
fit = json.dumps(_curve_payload(fit_noise_curve(fit_points)), sort_keys=True)
print(json.dumps({"trace_points": points.hexdigest(), "desk_bowties": bowties.hexdigest(),
                  "fit": hashlib.sha256(fit.encode()).hexdigest()}))
"""


def _cpu_legs():
    """{leg: environment settings} for the CPU paths this host can run.

    OpenBLAS is forced only down to a core the host has (a core above it can
    SIGILL); numpy's dispatch drops the AVX512 groups the host reports.
    """
    from numpy._core._multiarray_umath import __cpu_features__

    legs = {"default": {}}
    if platform.machine().lower() in ("x86_64", "amd64"):
        legs["openblas-prescott"] = {"OPENBLAS_CORETYPE": "Prescott"}
        if __cpu_features__.get("AVX2") and __cpu_features__.get("FMA3"):
            legs["openblas-haswell"] = {"OPENBLAS_CORETYPE": "Haswell"}
    avx512 = [name for name, on in __cpu_features__.items()
              if on and (name.startswith("AVX512_") or name == "X86_V4")]
    if avx512:
        legs["numpy-no-avx512"] = {"NPY_DISABLE_CPU_FEATURES": " ".join(avx512)}
    return legs


def _leg_env(leg):
    """The child environment of one leg, or None when this host cannot run it."""
    legs = _cpu_legs()
    if leg not in legs:
        return None
    env = _child_env()
    for name in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES"):
        env.pop(name, None)
    env.update(legs[leg])
    return env


@functools.lru_cache(maxsize=None)
def _cpu_path_digests(leg):
    """The digests on one leg, or None when this host cannot run it."""
    env = _leg_env(leg)
    if env is None:
        return None
    proc = subprocess.run(
        [sys.executable, "-c", _CPU_PATH_DIGESTS, str(ROOT / "configs" / "desk_sweep.cfg")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _assert_same_on_cpu_path(leg, what):
    digests = _cpu_path_digests(leg)
    if digests is None:
        pytest.skip("this host cannot run the %s leg" % leg)
    assert digests[what] == _cpu_path_digests("default")[what], (
        "%s differ under %s" % (what, _cpu_legs()[leg]))


_CPU_PATHS = ["openblas-prescott", "openblas-haswell", "numpy-no-avx512"]


@pytest.mark.parametrize("leg", _CPU_PATHS)
def test_trace_points_do_not_depend_on_the_cpu_path(leg):
    _assert_same_on_cpu_path(leg, "trace_points")


@pytest.mark.parametrize("leg", _CPU_PATHS)
def test_desk_bowties_do_not_depend_on_the_cpu_path(leg):
    _assert_same_on_cpu_path(leg, "desk_bowties")


@pytest.mark.parametrize("leg", _CPU_PATHS)
def test_fit_does_not_depend_on_the_cpu_path(leg):
    _assert_same_on_cpu_path(leg, "fit")


@functools.lru_cache(maxsize=None)
def _desk_sweep_on_cpu_path(leg):
    """The desk sweep's artifacts on one leg, or None when this host cannot run it."""
    env = _leg_env(leg)
    if env is None:
        return None
    with tempfile.TemporaryDirectory() as out:
        proc = subprocess.run(
            [sys.executable, "-m", "noiseimaging.cli", "sweep",
             "--config", str(ROOT / "configs" / "desk_sweep.cfg"), "--out", out],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return {p.name: p.read_bytes() for p in sorted(Path(out).iterdir())}


# the fit makes no BLAS or LAPACK call, so OpenBLAS's core cannot move a
# sweep; the numpy-no-avx512 leg still moves fits.json and summary.json,
# through the noise model's dispatched np.sinh, and is not checked here
@pytest.mark.parametrize("leg", ["openblas-prescott", "openblas-haswell"])
def test_desk_sweep_artifacts_do_not_depend_on_the_openblas_core(leg):
    got = _desk_sweep_on_cpu_path(leg)
    if got is None:
        pytest.skip("this host cannot run the %s leg" % leg)
    want = _desk_sweep_on_cpu_path("default")
    assert sorted(got) == sorted(want)
    differ = [name for name in want if got[name] != want[name]]
    assert not differ, "desk sweep artifacts differ under %s: %s" % (_cpu_legs()[leg], differ)


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


def test_non_finite_floats_are_written_as_null():
    payload = {"a": 1.5, "b": [1.0, float("nan"), {"c": float("-inf")}],
               "d": {"e": float("inf"), "f": (2.0, float("nan"))}, "g": None, "h": "x"}
    got = json.loads(_json_text(payload), parse_constant=_reject_constant)
    assert got == {"a": 1.5, "b": [1.0, None, {"c": None}], "d": {"e": None, "f": [2.0, None]},
                   "g": None, "h": "x", "non_finite": ["b.1", "b.2.c", "d.e", "d.f.1"]}
    # a finite payload keeps the bytes of a plain dump, with no flag key
    finite = {"z": [0.1, 2], "a": {"k": -0.0, "j": 1e308}}
    assert _json_text(finite) == json.dumps(finite, indent=2, sort_keys=True) + "\n"


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
    save_pbm(np.ones((64, 64), dtype=bool), font / "Z.pbm")
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


# dotless i and long s upper-case to the ASCII letters I and S
@pytest.mark.parametrize("mask", ["1", "AB", "", "\u0131", "\u017f"],
                         ids=["digit", "two-letters", "empty", "dotless-i", "long-s"])
def test_unknown_mask_letter_fails_cleanly(mask, tmp_path, capsys):
    code = main(["alphabet", "--mask", mask,
                 "--config", str(ROOT / "configs" / "alphabet_recognition.cfg"),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    message = _one_error_line(capsys, "alphabet")["message"]
    assert message == "unknown letter %r: font covers A-Z" % (mask,)
    assert not (tmp_path / "out").exists()


def test_alphabet_reads_each_glyph_once(tmp_path, capsys, monkeypatch):
    # the mask comes from the loaded font, not from a second read of its file
    reads = []
    load_pbm = scene.load_pbm

    def counting_load_pbm(path):
        reads.append(path.name)
        return load_pbm(path)

    monkeypatch.setattr(scene, "load_pbm", counting_load_pbm)
    assert main(["alphabet", "--mask", "Z",
                 "--config", str(ROOT / "configs" / "alphabet_recognition.cfg"),
                 "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert len(reads) == 26
    assert sorted(reads) == ["%s.pbm" % letter for letter in string.ascii_uppercase]


@pytest.mark.parametrize("args", [
    ["sweep", "--config", "desk_sweep.cfg"],
    ["alphabet", "--mask", "Z", "--config", "alphabet_recognition.cfg"],
], ids=["sweep", "alphabet"])
def test_command_resolves_r_once(args, tmp_path, capsys, monkeypatch):
    # r sets the noise forms and the summary's r_resolved: one solve serves both
    calls = []
    calibrate_r = noise.calibrate_r

    def counting_calibrate_r(db, cfg):
        calls.append(db)
        return calibrate_r(db, cfg)

    for module in (cli, noiseimaging.config):
        monkeypatch.setattr(module, "calibrate_r", counting_calibrate_r)
    args = [str(ROOT / "configs" / a) if a.endswith(".cfg") else a for a in args]
    assert main(args + ["--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert calls == [2.2]


_STDOUT = {
    "sweep": (["sweep", "--config", "desk_sweep.cfg"],
              r"sweep: 15 angles x 10 series x 2 techniques -> {out}\n"
              r"enhancement \(O >= 0\.9\): \d+\.\d{{3}} \+/- \d+\.\d{{3}}\n"),
    "alphabet": (["alphabet", "--mask", "Z", "--config", "alphabet_recognition.cfg"],
                 r"alphabet: mask 'Z', quantum best 'Z' \(runner-up '[A-Y]', "
                 r"\d+\.\d sigma\), \d+ excluded\n"),
    "calibrate": (["calibrate", "--db", "2.2", "--config", "desk_sweep.cfg"],
                  r"calibrate: r = \d+\.\d{{6}} for -2\.2 dB detected "
                  r"\(measured -?\d+\.\d{{3}} dB over 10 series\)\n"),
}


@pytest.mark.parametrize("command", sorted(_STDOUT))
def test_stdout_is_one_summary_per_command(command, tmp_path, capsys):
    args, pattern = _STDOUT[command]
    args = [str(ROOT / "configs" / a) if a.endswith(".cfg") else a for a in args]
    out = tmp_path / "out"
    assert main(args + ["--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert re.fullmatch(pattern.format(out=re.escape(str(out))), captured.out), captured.out


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


# alphabet and calibrate never read the map, but a config that sets one the
# sweep would reject is rejected by them too, before any artifact is written
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("contents", ["a b\nc d\n", "1 1\n1 1\n"], ids=["letters", "shape"])
@pytest.mark.parametrize("args", [["alphabet", "--mask", "Z"], ["calibrate", "--db", "2.2"]],
                         ids=["alphabet", "calibrate"])
def test_unusable_weight_map_fails_every_command(args, contents, tmp_path, capsys):
    wmap = tmp_path / "bad.txt"
    wmap.write_text(contents)
    cfgfile = tmp_path / "run.cfg"
    save_config(RunConfig(grid_size=4, cell_size=1, weight_map=str(wmap), n_series=2,
                          samples_per_point=100), cfgfile)
    out = tmp_path / "out"
    code = main(args + ["--config", str(cfgfile), "--out", str(out)])
    assert code == 2
    assert _one_error_line(capsys, args[0])["field"] == "scene.weight_map"
    assert not out.exists()


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


# a child's ru_maxrss starts at the high-water mark of the process that
# spawned it (Linux carries it over the exec), so a small interpreter, not
# this test process, spawns the CLI and reads it from os.wait4
_PEAK_RSS = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_rss_mib(args, out):
    """The high-water resident set of one CLI run in a fresh process."""
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS,
         sys.executable, "-m", "noiseimaging.cli", *args, "--out", str(out)],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, maxrss = proc.stdout.split()
    assert code == "0", args
    # Linux reports ru_maxrss in KiB
    return int(maxrss) / 1024.0


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB on Linux")
def test_desk_sweep_peak_rss_stays_near_calibrate(tmp_path):
    # calibrate on the same config imports the same modules and builds no
    # bow-tie, so the gap is what the sweep's scene, traces and fit hold at
    # their peak. With int32 polar indices built in row strips it was 2.8-3.0
    # MiB while the fit called LAPACK, whose first call raised the high-water
    # mark past the scene's; with the fit in plain floats it is 1.4-1.7 MiB,
    # set by the scene and traces. The bound is fixed from those two numbers
    # alone, about halfway: 0.6 MiB above the plain-float fit (page rounding
    # and another numpy's temporaries) and 0.5 MiB below the LAPACK fit.
    desk = str(ROOT / "configs" / "desk_sweep.cfg")
    sweep = _peak_rss_mib(["sweep", "--config", desk], tmp_path / "sweep")
    calibrate = _peak_rss_mib(["calibrate", "--db", "2.2", "--config", desk],
                              tmp_path / "calibrate")
    assert sweep - calibrate < 2.3, "sweep %.2f MiB, calibrate %.2f MiB" % (sweep, calibrate)


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


# mirror angles, and angles half a turn apart, rasterize the same bow-tie
@pytest.mark.parametrize("pair", [(10.0, -10.0), (0.0, 180.0)], ids=["mirror", "half-turn"])
def test_angles_with_one_overlap_fail_before_any_trace(pair, tmp_path, capsys, monkeypatch):
    angles = tuple(dict.fromkeys(pair + (0.0, 10.0, 20.0, 30.0, 40.0)))
    cfgfile = tmp_path / "run.cfg"
    save_config(RunConfig(grid_size=32, cell_size=4, n_series=2, samples_per_point=100,
                          angles_deg=angles), cfgfile)

    def no_traces(*args, **kwargs):
        raise AssertionError("the sweep drew a trace")

    monkeypatch.setattr("noiseimaging.cli.measure_series", no_traces)
    code = main(["sweep", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
    assert code == 2
    error = _one_error_line(capsys, "sweep")
    assert error["field"] == "acquisition.angles_deg"
    assert "angles %r and %r give the same overlap" % pair in error["message"]
    assert not (tmp_path / "out").exists()


# overlaps 1, 0.56, 0.33, 0.11, 0: one above 0.8; overlaps 0.89, 0.87, 0.56,
# 0.33, 0.11: none at 0.9
@pytest.mark.parametrize("angles,message", [
    ((0.0, 20.0, 30.0, 40.0, 45.0), "need at least 2 points with overlap > 0.8"),
    ((5.0, 6.0, 20.0, 30.0, 40.0), "no overlap points at or above 0.9"),
], ids=["linear-stage", "enhancement"])
def test_angles_without_high_overlaps_fail_before_any_trace(angles, message, tmp_path, capsys,
                                                            monkeypatch):
    cfgfile = tmp_path / "run.cfg"
    save_config(RunConfig(grid_size=128, cell_size=4, n_series=2, samples_per_point=100,
                          angles_deg=angles), cfgfile)

    def no_traces(*args, **kwargs):
        raise AssertionError("the sweep drew a trace")

    monkeypatch.setattr("noiseimaging.cli.measure_series", no_traces)
    code = main(["sweep", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
    assert code == 2
    error = _one_error_line(capsys, "sweep")
    assert error["field"] == "acquisition.angles_deg"
    assert message in error["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config", ["shipped-alphabet", "four-angles"])
def test_short_sweep_fails_before_any_work(config, tmp_path, capsys, monkeypatch):
    # every angle is one point of the fitted noise curves, which need five
    if config == "shipped-alphabet":
        cfgfile = ROOT / "configs" / "alphabet_recognition.cfg"
    else:
        cfgfile = tmp_path / "run.cfg"
        save_config(RunConfig(grid_size=32, cell_size=4, n_series=2, samples_per_point=100,
                              angles_deg=(0.0, 9.0, 27.0, 45.0)), cfgfile)

    def no_scene(*args, **kwargs):
        raise AssertionError("the sweep rasterized a bow-tie")

    monkeypatch.setattr(scene, "bowtie", no_scene)
    code = main(["sweep", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
    assert code == 2
    error = _one_error_line(capsys, "sweep")
    assert error["field"] == "acquisition.angles_deg"
    assert "at least 5 angles" in error["message"]
    assert not (tmp_path / "out").exists()


# NaN compares false and inf passes a lower bound; each must name its own field
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("values,field", [
    ({"power_per_pixel": float("nan")}, "source.power_per_pixel"),
    ({"power_per_pixel": float("inf")}, "source.power_per_pixel"),
    ({"electronic_floor": float("nan")}, "source.electronic_floor"),
    ({"electronic_floor": float("inf")}, "source.electronic_floor"),
    ({"lock_noise": float("nan")}, "source.lock_noise"),
    ({"lock_noise": float("inf")}, "source.lock_noise"),
    ({"r": float("inf")}, "source.r"),
    # past calibrate_r's bound of 12 the noise is not resolved, past 355 it overflows
    ({"r": 13.0}, "source.r"),
    ({"r": 400.0}, "source.r"),
    # a given r leaves the dB unused by the noise, but the artifacts record it
    ({"r": 0.5, "squeezing_db_detected": float("nan")}, "source.squeezing_db_detected"),
    ({"r": 0.5, "squeezing_db_detected": float("inf")}, "source.squeezing_db_detected"),
], ids=["power-nan", "power-inf", "floor-nan", "floor-inf", "lock-nan", "lock-inf", "r-inf",
        "r-unresolved", "r-overflow", "db-nan", "db-inf"])
@pytest.mark.parametrize("args", [["sweep"], ["alphabet", "--mask", "Z"]],
                         ids=["sweep", "alphabet"])
def test_non_finite_source_value_names_its_field(values, field, args, tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    save_config(RunConfig(grid_size=32, cell_size=4, n_series=2, samples_per_point=100,
                          **values), cfgfile)
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
def test_output_directory_with_a_nul_byte_fails_cleanly(command, tmp_path, capsys):
    # a config file may hold a NUL byte, which no path can
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(_small_config(tmp_path).read_text().replace(
        "out_dir = out", "out_dir = %s" % (tmp_path / "o\0x")))
    before = set(tmp_path.rglob("*"))
    args, _ = _COMMANDS[command]
    code = main(args + ["--config", str(cfgfile)])
    assert code == 2
    assert _one_error_line(capsys, command)["field"] == "output.out_dir"
    assert set(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("given_by", ["config", "flag"])
@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_empty_output_directory_fails_cleanly(command, given_by, tmp_path, capsys,
                                              monkeypatch):
    # an empty path would put the artifacts in the working directory
    cfgfile = tmp_path / "run.cfg"
    text = _small_config(tmp_path).read_text()
    if given_by == "config":
        cfgfile.write_text(text.replace("out_dir = out", "out_dir ="))
        extra = []
    else:
        extra = ["--out", ""]
    monkeypatch.chdir(tmp_path)
    before = set(tmp_path.rglob("*"))
    args, _ = _COMMANDS[command]
    code = main(args + ["--config", str(cfgfile)] + extra)
    assert code == 2
    error = _one_error_line(capsys, command)
    assert error["field"] == "output.out_dir"
    assert "must not be empty" in error["message"]
    assert set(tmp_path.rglob("*")) == before


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


def test_failure_while_rendering_leaves_no_output_directory(tmp_path, capsys, monkeypatch):
    # summary.json is the sweep's last artifact: its text fails after the others'
    finite = cli._finite

    def exhausted(value, path, replaced):
        if path == "" and "techniques" in value:
            raise MemoryError("injected while rendering summary.json")
        return finite(value, path, replaced)

    monkeypatch.setattr(cli, "_finite", exhausted)
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(_small_config(tmp_path)), "--out", str(out)])
    assert code == 2
    assert _one_error_line(capsys, "sweep")["message"] == "injected while rendering summary.json"
    assert not out.exists()


def test_non_positive_fit_pivot_fails_cleanly(tmp_path, capsys, monkeypatch):
    # the Gram of a design whose last two columns are equal: its last pivot is 0
    inverse = estimate._spd_inverse

    def singular(gram):
        gram = [row[:-1] + row[-2:-1] for row in gram]
        return inverse(gram[:-1] + gram[-2:-1])

    monkeypatch.setattr(estimate, "_spd_inverse", singular)
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(_small_config(tmp_path)), "--out", str(out)])
    assert code == 2
    assert "rank deficient" in _one_error_line(capsys, "sweep")["message"]
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_any_failure_while_writing_removes_the_artifacts(command, tmp_path, capsys,
                                                         monkeypatch):
    # not an OSError: the second artifact's write runs out of memory
    cfgfile = _small_config(tmp_path)
    write_text = Path.write_text
    writes = []

    def second_write_fails(path, text, encoding):
        writes.append(path.name)
        if len(writes) == 2:
            raise MemoryError("injected while writing %s" % path.name)
        return write_text(path, text, encoding=encoding)

    monkeypatch.setattr(Path, "write_text", second_write_fails)
    args, _ = _COMMANDS[command]
    out = tmp_path / "out"
    code = main(args + ["--config", str(cfgfile), "--out", str(out)])
    monkeypatch.undo()
    assert code == 2
    error = _one_error_line(capsys, command)
    assert error["message"] == "injected while writing %s" % writes[1]
    assert list(out.iterdir()) == []


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


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_closed_stdout_fails_cleanly(command, buffered, tmp_path):
    # a pipe whose reader has gone, as in `noiseimaging ... | true`
    args, _ = _COMMANDS[command]
    out = tmp_path / "out"
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, *([] if buffered else ["-u"]), "-m", "noiseimaging.cli", *args,
             "--config", str(_small_config(tmp_path)), "--out", str(out)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=300,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    error = json.loads(lines[0])["error"]
    assert (error["command"], error["field"]) == (command, "stdout")
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
