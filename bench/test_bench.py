"""Fast tests of the benchmark itself: `python3 -m pytest bench -q`."""

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracer  # noqa: E402
from workloads import WORKLOADS, check_op, op_stream  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def take_ops(workload, seed, n):
    stream = op_stream(workload, seed, ROOT)
    return [next(stream) for _ in range(n)]


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))


def _run_cli(op, out, trace=False):
    """Run one op in this process; returns (files, span-derived metrics, tracer)."""
    import noiseimaging.cli as cli

    t = tracer.Tracer().install() if trace else None
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            rc = cli.main(list(op.argv) + ["--out", str(out)])
    finally:
        if t is not None:
            t.uninstall()
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    problems, _ = check_op(op, rc, stdout.getvalue(), "", files)
    assert problems == []
    return files, (tracer.layer_metrics(t.spans) if t else None), t


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_ops_are_a_function_of_the_seed(workload):
    assert take_ops(workload, 7, 12) == take_ops(workload, 7, 12)
    assert take_ops(workload, 7, 12) != take_ops(workload, 8, 12)


def test_metric_names_are_valid_and_cover_the_trace():
    spec = _spec()
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in spec[kind]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert set(tracer.layer_metrics([])) <= per_layer
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}


def test_checks_reject_a_wrong_calibration(tmp_path):
    op = take_ops("calibrate-solve", 3, 1)[0]
    files, _, _ = _run_cli(op, tmp_path / "out")
    payload = json.loads(files["calibration.json"])
    payload["detected_db"] += 1e-6
    files["calibration.json"] = json.dumps(payload).encode("ascii")
    problems, _ = check_op(op, 0, "calibrate: ok\n", "", files)
    assert any("detected_db" in p for p in problems)


@pytest.mark.parametrize("workload", ["alphabet-font", "calibrate-solve"])
def test_tracing_restores_functions_and_keeps_artifacts(workload, tmp_path):
    op = take_ops(workload, 5, 1)[0]

    def originals():
        return [tracer.resolve(module, attr)[2]
                for module, attr, _, _ in tracer.TARGETS]

    before = originals()
    out = tmp_path / "out"   # one --out for both: calibrated.cfg records it
    traced, _, t = _run_cli(op, out, trace=True)
    assert t.missing == [] and t.spans
    assert all(now is raw for now, raw in zip(originals(), before))
    shutil.rmtree(out)
    plain, _, _ = _run_cli(op, out)
    assert traced == plain


def test_layer_counts_repeat_exactly(tmp_path):
    sweep = take_ops("sweep-desk", 1, 1)[0]
    _, counts, _ = _run_cli(sweep, tmp_path / "sweep", trace=True)
    assert counts["scene.overlap.calls"] == 345
    assert counts["traces.simulate_trace.calls"] == 300
    first, second = take_ops("alphabet-font", 1, 2)
    _, a, _ = _run_cli(first, tmp_path / "a1", trace=True)
    _, b, _ = _run_cli(first, tmp_path / "a2", trace=True)
    _, c, _ = _run_cli(second, tmp_path / "a3", trace=True)
    assert a["traces.simulate_trace.calls"] == c["traces.simulate_trace.calls"] == 1000
    count_names = [n for n in a if not n.endswith((".s", "_s"))]
    assert {n: a[n] for n in count_names} == {n: b[n] for n in count_names}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
