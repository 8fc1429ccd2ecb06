"""Compare the end-to-end benchmark of this checkout against a parent checkout.

    python3 tools/paired_bench.py PARENT_CHECKOUT [--workload NAME]...
        [--pairs N] [--seconds S] [--first-seed K]

Copies the parent checkout and this one into one temporary directory, at
paths of equal length and without `.git`, `.bench_work` or `__pycache__`,
then runs `bench/run.py --trace 0` in each copy, alternately, for N pairs
per workload.  Pair i runs at seed K + i, the same on both sides, and the
side that runs first swaps from pair to pair, so an order effect cancels.
Without --first-seed the seeds start from the clock, so each invocation runs
on fresh ones; the seeds are printed.  Each side runs its own `bench/` and
`BENCHMARK.json`; the workload names, metric list, directions and bounds are
read from this checkout's `BENCHMARK.json`, and a name it does not declare
is a usage error (exit 2) before any run.

For each workload it prints each side's environment as `bench/run.py`
records it (core count, Python and numpy versions, BLAS thread setting) and
the length of its copy's path, with a warning when the two sides differ,
since a perf claim holds only for one environment: peak RSS moves by about
0.06 MB with the path length alone, which the copies hold equal.  For each
end-to-end metric it prints both sides' medians and quartiles, the pairs the
change won (ties count for neither side), and the median of the paired
differences d_i = change - parent with its distribution-free 95% interval:
the order statistics d_(k) and d_(n+1-k) of the sign test, for the largest k
whose coverage reaches 95% (no interval below 6 pairs).  Three verdicts
follow:
- paired: the interval lies wholly on the metric's better side of zero.
  Unlike gain, it tightens as pairs are added;
- gain: the change won at least 9 of every 10 pairs, and the medians differ,
  in the metric's better direction, by more than the distance between the
  parent's quartiles;
- bound: "ok" when the change's median is worse than the parent's by no more
  than the metric's bound, a fraction of the parent's median.  Past the
  bound it is "WORSE", or "unresolved" when the parent's own quartiles lie
  further apart than the bound, so that the runs cannot tell a shift of
  that size from their spread; then only a change whose every run is worse
  than every parent run is "WORSE".
A run that exits non-zero is printed and its pair left out; a failed check
is printed, and `bench/run.py` counts it in `ok_frac`.  The exit status is 1
when a run failed or a metric is WORSE.  Nothing is written to either
checkout, and the copies are removed at exit.
"""

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WIN_SHARE = 0.9
# the coverage of the paired differences' interval
PAIRED_LEVEL = 0.95
# the environment facts a perf claim must record: those of a run's
# environment line, then the length of the side's copy's path
ENV_KEYS = ("nproc", "python", "numpy", "OPENBLAS_NUM_THREADS")
PATH_KEY = "path_len"
# what a side's copy leaves out: history, bench scratch and bytecode
EXCLUDED = (".git", ".bench_work", "__pycache__")


def declared(root):
    """([workload name], [(name, unit, better, bound)]): the workloads and the
    end-to-end metrics that BENCHMARK.json declares."""
    with open(Path(root) / "BENCHMARK.json", encoding="ascii") as fh:
        spec = json.load(fh)
    return ([w["name"] for w in spec["workloads"]],
            [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]])


def copy_sides(parent, change, root):
    """{"parent": path, "change": path}: copies of the two checkouts as
    root/parent and root/change, paths of equal length, without EXCLUDED."""
    sides = {}
    for side, checkout in (("parent", parent), ("change", change)):
        sides[side] = Path(root).resolve() / side
        shutil.copytree(checkout, sides[side], symlinks=True,
                        ignore=shutil.ignore_patterns(*EXCLUDED))
    return sides


def run_bench(checkout, workload, seed, seconds):
    """parse_run of one `bench/run.py --trace 0` run."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        return None, ["exit %d: %s" % (proc.returncode, proc.stderr.strip()[-400:])], {}
    return parse_run(proc.stdout)


def parse_run(stdout):
    """({metric: value}, failed checks, {ENV_KEYS: value}) of a run's stdout:
    its last line is the result, and one line holds its environment."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = [line for line in lines if line.startswith("FAILED CHECK")]
    env = {}
    for line in lines:
        if line.startswith('{"environment"'):
            env = json.loads(line)["environment"]
    return ({name: m["value"] for name, m in result["metrics"].items()}, problems,
            {key: env.get(key) for key in ENV_KEYS})


def environment_text(env):
    """ENV_KEYS of one side's environment, then its path length if recorded."""
    keys = ENV_KEYS + ((PATH_KEY,) if PATH_KEY in env else ())
    return " ".join("%s=%s" % (key, env.get(key)) for key in keys)


def environment_warning(parent, change):
    """A warning naming, with both sides' values, the ENV_KEYS on which the
    two sides' environments differ, or None when they agree.  Their path
    lengths are equal: `copy_sides` puts both copies in one directory."""
    differ = ["%s %s vs %s" % (key, parent.get(key), change.get(key))
              for key in ENV_KEYS if parent.get(key) != change.get(key)]
    if not differ:
        return None
    return "WARNING: the sides ran in different environments (%s)" % ", ".join(differ)


def quartiles(values):
    """(first quartile, median, third quartile), interpolated within the data."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def sign_test_interval(diffs):
    """(low, high): the order statistics d_(k) and d_(n+1-k) of the sorted
    differences, which cover their median with probability
    1 - 2 P(B <= k - 1), B ~ Bin(n, 1/2), whatever their distribution; k is
    the largest rank whose coverage is at least PAIRED_LEVEL, and with no
    such rank the interval is (-inf, inf)."""
    n, k, below = len(diffs), 0, 0
    # below counts the outcomes of n fair signs with fewer than k negatives
    while 2 * (below + math.comb(n, k)) <= (1.0 - PAIRED_LEVEL) * 2 ** n:
        below += math.comb(n, k)
        k += 1
    if not k:
        return -math.inf, math.inf
    ordered = sorted(diffs)
    return ordered[k - 1], ordered[n - k]


def compare(parent, change, better, bound):
    """The verdicts for one metric from paired values (parent[i] and change[i]
    ran at the same seed): a dict of both sides' quartiles, the change's wins,
    the median and sign-test interval of the differences change - parent,
    whether that interval lies wholly on the better side, whether a gain
    holds, whether the change stays within its bound, and the bound's
    verdict: "ok", "unresolved" or "WORSE"."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    diffs = [c - p for p, c in zip(parent, change)]
    low, high = sign_test_interval(diffs)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = wins >= WIN_SHARE * len(parent) and sign * (pm - cm) > p3 - p1
    # how much worse the change's median is, as a fraction of the parent's
    worse = sign * (cm - pm) / abs(pm) if pm else (0.0 if cm == pm else float("inf"))
    every_run_worse = min(sign * c for c in change) > max(sign * p for p in parent)
    if worse <= bound:
        verdict = "ok"
    elif p3 - p1 > bound * abs(pm) and not every_run_worse:
        verdict = "unresolved"
    else:
        verdict = "WORSE"
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3), "wins": wins,
            "pairs": len(parent), "diff": statistics.median(diffs),
            "interval": (low, high), "paired": high < 0 if better == "lower" else low > 0,
            "gain": gain, "worse": worse,
            "within_bound": worse <= bound, "verdict": verdict}


def main(argv=None):
    names, metrics = declared(ROOT)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="a checkout of the parent commit")
    parser.add_argument("--workload", action="append", choices=names, metavar="NAME",
                        help="a workload of BENCHMARK.json, one of %s (repeatable;"
                        " default all)" % ", ".join(names))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--first-seed", type=int)
    args = parser.parse_args(argv)
    if not (args.parent / "bench" / "run.py").is_file():
        parser.error("%s has no bench/run.py" % args.parent)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    workloads = args.workload or names
    first = args.first_seed if args.first_seed is not None else int(time.time()) % 1_000_000
    # removed with this object: when main returns, or at the latest at exit
    scratch = tempfile.TemporaryDirectory(prefix="paired_bench.")
    sides = copy_sides(args.parent, ROOT, scratch.name)

    verdicts_met = True
    for workload in workloads:
        runs = {"parent": [], "change": []}
        envs = {"parent": {}, "change": {}}
        failures = []
        for i in range(args.pairs):
            seed = first + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                values, problems, env = run_bench(sides[side], workload, seed, args.seconds)
                failures += ["%s seed %d: %s" % (side, seed, p) for p in problems]
                runs[side].append(values)
                envs[side] = envs[side] or env
        print("%s: %d pairs at seeds %d-%d, %g s each, parent %s"
              % (workload, args.pairs, first, first + args.pairs - 1, args.seconds,
                 args.parent.resolve()))
        for side in ("parent", "change"):
            envs[side][PATH_KEY] = len(str(sides[side]))
            print("  %s environment: %s" % (side, environment_text(envs[side])))
        warning = environment_warning(envs["parent"], envs["change"])
        if warning:
            print("  " + warning)
        for failure in failures:
            print("  FAILED: %s" % failure)
        verdicts_met &= not failures
        # a pair where either side's bench did not run is left out
        pairs = [(p, c) for p, c in zip(runs["parent"], runs["change"])
                 if p is not None and c is not None]
        if not pairs:
            verdicts_met = False
            continue
        print("  %-12s %-34s %-34s %6s %-37s %5s %s" % (
            "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins",
            "paired d [95% interval]", "gain", "bound"))
        for name, unit, better, bound in metrics:
            result = compare([p[name] for p, _ in pairs], [c[name] for _, c in pairs],
                             better, bound)
            verdicts_met &= result["verdict"] != "WORSE"
            print("  %-12s %-34s %-34s %6s %-37s %5s %s" % (
                name,
                "%.5g [%.5g, %.5g] %s" % (result["parent"][1], result["parent"][0],
                                           result["parent"][2], unit),
                "%.5g [%.5g, %.5g] %s" % (result["change"][1], result["change"][0],
                                           result["change"][2], unit),
                "%d/%d" % (result["wins"], result["pairs"]),
                "%+.4g [%+.4g, %+.4g] %s" % (result["diff"], *result["interval"],
                                             "yes" if result["paired"] else "no"),
                "yes" if result["gain"] else "no",
                "%s (%+.1f%% of %g%%)" % (result["verdict"], 100.0 * result["worse"],
                                          100.0 * bound)))
    return 0 if verdicts_met else 1


if __name__ == "__main__":
    sys.exit(main())
