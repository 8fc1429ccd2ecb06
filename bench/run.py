"""Fresh-process CLI benchmark for noiseimaging.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
`src/`, nothing is installed).  One caller runs one CLI command at a time,
each in a fresh `python3` process, for S seconds: a closed loop with one
client.  BLAS threads stay at the machine default.

--trace 0 reports the end-to-end metrics, each a median over the run's ops.
A warm-up op runs first (bytecode compiled, files cached); the first timed
op repeats the warm-up's (config, seed) and must write byte-identical
artifacts.  Medians over a run's ops are the only timing statistic: a run is
too short to have ten samples above a higher percentile.

--trace 1 runs every op three times: untraced and traced (public functions
wrapped by `tracer.py`, see there) in alternating order, then untraced at
one BLAS thread, plus `python -X importtime`.  It reports the per-layer metrics.  Counts are per
op over the first TRACE_COUNT_OPS ops, so they repeat exactly for a seed;
times are medians over all ops.

The last stdout line is the JSON result; the line before it records the
environment.  Work files go to `.bench_work/` and are removed at exit.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

from tracer import layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    ALPHABET_CFG, DESK_CFG, WORKLOADS, check_op, op_stream, working_set,
)

WORK = ROOT / ".bench_work"
OUT_ARG = ".bench_work/out"   # one fixed --out, so calibrated.cfg bytes repeat
OP_TIMEOUT_S = 150.0
TRACE_COUNT_OPS = 3


@dataclass
class OpResult:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    setup_s: float = 0.0
    run_s: float = 0.0
    files: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    nan_literals: int = 0
    spans: list = field(default_factory=list)
    unwrapped: list = field(default_factory=list)


def child_env(blas_threads=None):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    return env


def _spawn(cmd, env, stdout, stderr):
    """Run cmd to completion; returns (exit code, wall s, rusage)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout, stderr=stderr)
    watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def run_op(op, traced=False, blas_threads=None):
    """One op in a fresh process, timed, with its artifacts read and checked."""
    out = ROOT / OUT_ARG
    shutil.rmtree(out, ignore_errors=True)
    timing, spans = WORK / "timing.json", WORK / "spans.json"
    for path in (timing, spans):
        path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(timing),
           str(spans) if traced else "-", *op.argv, "--out", OUT_ARG]
    with open(WORK / "stdout", "w+b") as so, open(WORK / "stderr", "w+b") as se:
        rc, wall, usage = _spawn(cmd, child_env(blas_threads), so, se)
        so.seek(0)
        se.seek(0)
        stdout = so.read().decode("utf-8", "replace")
        stderr = se.read().decode("utf-8", "replace")
    res = OpResult(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                   peak_rss_mb=usage.ru_maxrss / 1024.0)
    if out.is_dir():
        res.files = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}
    res.problems, res.nan_literals = check_op(op, rc, stdout, stderr, res.files)
    if timing.is_file():
        record = json.loads(timing.read_text(encoding="ascii"))
        res.setup_s, res.run_s = record["setup_s"], record["run_s"]
        if not Path(record["module"]).resolve().is_relative_to(ROOT / "src"):
            res.problems.append("imported noiseimaging from %s" % record["module"])
    else:
        res.problems.append("no timing record")
    if traced:
        if spans.is_file():
            record = json.loads(spans.read_text(encoding="ascii"))
            res.spans, res.unwrapped = record["spans"], record["missing"]
        else:
            res.problems.append("no span record")
    return res


def import_times():
    """Self import time by top-level package, from `python -X importtime`."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import noiseimaging.cli"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=OP_TIMEOUT_S,
    )
    self_us, modules = {}, 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_part, _, name = line[len("import time:"):].split("|")
        top = name.strip().split(".")[0]
        self_us[top] = self_us.get(top, 0) + int(self_part)
        modules += 1
    problems = [] if proc.returncode == 0 else ["importtime exit %d" % proc.returncode]
    return {
        "import.scipy_s": self_us.get("scipy", 0) / 1e6,
        "import.numpy_s": self_us.get("numpy", 0) / 1e6,
        "import.noiseimaging_self_s": self_us.get("noiseimaging", 0) / 1e6,
        "import.modules": modules,
    }, problems


def run_untraced(workload, seed, seconds):
    stream = op_stream(workload, seed, ROOT)
    first = next(stream)
    warm = run_op(first)
    results, op, start = [], first, time.perf_counter()
    while True:
        results.append(run_op(op))
        if time.perf_counter() - start >= seconds:
            break
        op = next(stream)
    if results[0].files != warm.files:
        results[0].problems.append("artifacts differ on a rerun of the same (config, seed)")
    failed = sum(1 for r in results if r.problems)
    units = declared_units("end_to_end")
    metrics = {name: statistics.median(getattr(r, name) for r in results)
               for name in units if name != "ok_frac"}
    metrics["ok_frac"] = (len(results) - failed) / len(results)
    info = {"artifact_sha256": {name: hashlib.sha256(data).hexdigest()
                                for name, data in sorted(warm.files.items())}}
    problems = warm.problems + [p for r in results for p in r.problems]
    return metrics, units, len(results), failed, problems, info


def declared_units(kind):
    """Metric name -> unit, for the end_to_end or per_layer list of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="ascii") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def run_traced(workload, seed, seconds):
    units = declared_units("per_layer")
    stream = op_stream(workload, seed, ROOT)
    rows, attempted, failed, problems, unwrapped = [], 0, 0, [], set()
    start = time.perf_counter()
    while len(rows) < TRACE_COUNT_OPS or time.perf_counter() - start < seconds:
        op = next(stream)
        # alternate which of the pair runs first, so an order effect cancels
        if len(rows) % 2:
            traced, plain = run_op(op, traced=True), run_op(op)
        else:
            plain, traced = run_op(op), run_op(op, traced=True)
        blas1 = run_op(op, blas_threads=1)
        if traced.files != plain.files:
            traced.problems.append("traced artifacts differ from the untraced run")
        imports, import_problems = import_times()
        row = dict(layer_metrics(traced.spans), **imports)
        names = set(plain.files) | set(blas1.files)
        row["cli.thread_mismatch_files"] = sum(
            1 for n in names if plain.files.get(n) != blas1.files.get(n))
        row["cli.json_nan_literals"] = plain.nan_literals
        row["blas1.run_s"], row["blas1.cpu_s"] = blas1.run_s, blas1.cpu_s
        row["plain_wall_s"], row["traced_wall_s"] = plain.wall_s, traced.wall_s
        rows.append(row)
        unwrapped.update(traced.unwrapped)
        for res in (plain, traced, blas1):
            attempted += 1
            failed += bool(res.problems)
            problems += res.problems
        problems += import_problems
    metrics = {}
    for name in units:
        if name == "trace.overhead_s":
            continue
        if name.endswith((".s", "_s")):
            metrics[name] = statistics.median(row[name] for row in rows)
        else:
            counted = rows[:TRACE_COUNT_OPS]
            metrics[name] = sum(row[name] for row in counted) / len(counted)
    metrics["trace.overhead_s"] = statistics.median(
        r["traced_wall_s"] - r["plain_wall_s"] for r in rows)
    # a target a later version renamed or removed reads 0, and is listed here
    info = {"ops": len(rows), "trace_unwrapped": sorted(unwrapped)}
    return metrics, units, attempted, failed, problems, info


def cache_sizes():
    """Data and unified cache sizes of cpu0 by level, from sysfs."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            scale = {"K": 1024, "M": 1024**2}.get(size[-1:], 1)
            sizes["L" + level] = int(size.rstrip("KM")) * scale
    return sizes


def environment(workload, seed):
    probe = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), "--probe"],
                           cwd=ROOT, env=child_env(), capture_output=True, text=True,
                           timeout=OP_TIMEOUT_S)
    env = json.loads(probe.stdout.strip().splitlines()[-1]) if probe.returncode == 0 else {}

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    env.update({
        "workload": workload,
        "workload_seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "cache_bytes": cache_sizes(),
        "working_set": working_set(workload, ROOT),
        "client": "closed loop, 1 client, fresh process per op",
    })
    return env


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    needed = [ROOT / "src" / "noiseimaging" / "cli.py", ROOT / DESK_CFG, ROOT / ALPHABET_CFG]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        print("bench: not a noiseimaging source checkout, missing %s" % ", ".join(absent),
              file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    try:
        run = run_traced if args.trace else run_untraced
        metrics, units, attempted, failed, problems, info = run(
            args.workload, args.seed, args.seconds)
        env = environment(args.workload, args.seed)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    env.update(info, ops=attempted)
    for problem in sorted(set(problems)):
        print("FAILED CHECK: %s" % problem)
    for name, value in metrics.items():
        print("%-36s %14.6g %s" % (name, value, units[name]))
    print(json.dumps({"environment": env}, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
