"""The verdicts of `tools/paired_bench.py` on made-up pairs: a gain needs
nine of every ten pairs and a median gap wider than the parent's quartiles,
the paired verdict needs the sign-test interval of the paired differences
wholly on the better side, and the bound is a fraction of the parent's
median in the worse direction.
Each side's environment is read from its run, with its copy's path length
beside it, and a difference is warned about; the copies of the two
checkouts lie at paths of equal length."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location(
        "paired_bench", ROOT / "tools" / "paired_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [37.30, 37.32, 37.34, 37.35, 37.35, 37.36, 37.37, 37.38, 37.40, 37.42]


def test_a_gain_needs_nine_wins_in_ten_and_a_gap_past_the_parent_quartiles():
    compare = _tool().compare
    change = [p - 0.55 for p in PARENT]
    result = compare(PARENT, change, "lower", 0.05)
    assert (result["wins"], result["pairs"], result["gain"]) == (10, 10, True)
    # two pairs lost: 8 of 10 is not enough, however wide the gap
    lost = change[:8] + PARENT[8:9] + [PARENT[9] + 1.0]
    assert compare(PARENT, lost, "lower", 0.05)["gain"] is False
    # ten wins by less than the parent's interquartile range of 0.04
    close = [p - 0.01 for p in PARENT]
    result = compare(PARENT, close, "lower", 0.05)
    assert (result["wins"], result["gain"]) == (10, False)


def test_ties_count_for_neither_side_and_higher_is_better_where_declared():
    compare = _tool().compare
    result = compare([1.0] * 10, [1.0] * 10, "higher", 0.01)
    assert (result["wins"], result["gain"], result["within_bound"]) == (0, False, True)
    # ok_frac falling from 1 to 0.98 is 2% worse, past a 1% bound
    result = compare([1.0] * 10, [0.98] * 10, "higher", 0.01)
    assert result["worse"] == pytest.approx(0.02)
    assert result["within_bound"] is False


def test_the_bound_is_a_fraction_of_the_parent_median():
    compare = _tool().compare
    slower = [p * 1.04 for p in PARENT]
    assert compare(PARENT, slower, "lower", 0.05)["within_bound"] is True
    assert compare(PARENT, slower, "lower", 0.03)["within_bound"] is False


def _stdout(env, ok=True, values=None):
    """A `bench/run.py` stdout: metric lines, its environment line, then the
    result line, which holds these metric values (default a peak RSS)."""
    values = values or {"peak_rss_mb": 36.2}
    result = {"correct": ok, "attempted": 3, "failed": 0,
              "metrics": {name: {"value": v, "unit": "-"} for name, v in values.items()}}
    lines = [] if ok else ["FAILED CHECK: artifacts differ"]
    lines += ["%-46s %s" % (name, v) for name, v in values.items()]
    lines += [json.dumps({"environment": env}, sort_keys=True), json.dumps(result)]
    return "\n".join(lines) + "\n"


ENV = {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "OPENBLAS_NUM_THREADS": "unset",
       "workload": "sweep-desk", "cache_bytes": {"L2": 2097152}}


def test_a_run_records_its_cores_versions_and_blas_threads():
    values, problems, env = _tool().parse_run(_stdout(ENV, ok=False))
    assert values == {"peak_rss_mb": 36.2}
    assert problems == ["FAILED CHECK: artifacts differ"]
    assert env == {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6",
                   "OPENBLAS_NUM_THREADS": "unset"}
    assert (_tool().environment_text(env)
            == "nproc=2 python=3.11.7 numpy=2.4.6 OPENBLAS_NUM_THREADS=unset")
    # a run that printed no environment line records none
    assert _tool().parse_run(json.dumps({"metrics": {}}))[2] == dict.fromkeys(env)


def test_sides_in_different_environments_are_warned_about():
    tool = _tool()
    env = tool.parse_run(_stdout(ENV))[2]
    assert tool.environment_warning(env, dict(env)) is None
    other = dict(env, nproc=4, OPENBLAS_NUM_THREADS="1")
    warning = tool.environment_warning(env, other)
    assert warning.startswith("WARNING")
    assert "nproc" in warning and "OPENBLAS_NUM_THREADS" in warning
    assert "numpy" not in warning


def _checkouts(tool, root, names=("parent", "change")):
    """(parent, change): two made-up checkouts under root, the parent with a
    `bench/run.py` and the change, made tool's own checkout, with this
    repository's BENCHMARK.json."""
    parent, change = (root / name for name in names)
    (parent / "bench").mkdir(parents=True)
    (parent / "bench" / "run.py").touch()
    change.mkdir()
    (change / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    tool.ROOT = change
    return parent, change


def test_the_copies_lie_at_equal_length_paths_without_history_or_scratch(tmp_path):
    tool = _tool()
    parent, change = _checkouts(tool, tmp_path, ("a-parent-checkout", "here"))
    for checkout in (parent, change):
        (checkout / "bench" / "__pycache__").mkdir(parents=True, exist_ok=True)
        (checkout / "bench" / "run.py").write_text("print('run')\n")
        for name in (".git/HEAD", ".bench_work/run.csv", "bench/__pycache__/run.pyc",
                     "src/pkg/__pycache__/mod.pyc", "src/pkg/mod.py"):
            (checkout / name).parent.mkdir(parents=True, exist_ok=True)
            (checkout / name).write_text(name)
    sides = tool.copy_sides(parent, change, tmp_path / "copies")
    assert sorted(sides) == ["change", "parent"]
    assert len(str(sides["parent"])) == len(str(sides["change"]))
    for side, checkout in (("parent", parent), ("change", change)):
        copy = sides[side]
        assert copy.parent == (tmp_path / "copies").resolve()
        assert (copy / "bench" / "run.py").read_text() == "print('run')\n"
        assert (copy / "src" / "pkg" / "mod.py").read_text() == "src/pkg/mod.py"
        names = {path.name for path in copy.rglob("*")}
        assert not names & {".git", ".bench_work", "__pycache__"}
        # the checkout itself keeps them
        assert (checkout / ".git" / "HEAD").is_file()


@pytest.mark.parametrize("names", [
    ("parent", "change"),
    ("parent", "the-change"),
], ids=["equal-length", "unequal-length"])
def test_each_side_prints_its_checkout_path_length(names, tmp_path, capsys):
    tool = _tool()
    metrics = tool.declared(ROOT)[1]
    parent, change = _checkouts(tool, tmp_path, names)
    ran = {}

    def canned(checkout, workload, seed, seconds):
        # the copy of the change is named as its side
        ran.setdefault(checkout.name, checkout)
        return tool.parse_run(_stdout(ENV, values=dict.fromkeys(
            (name for name, *_ in metrics), 1.0)))

    tool.run_bench = canned
    assert tool.main([str(parent), "--workload", "sweep-desk", "--pairs", "2",
                      "--first-seed", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # each side ran in its copy, removed when main returned
    assert sorted(ran) == ["change", "parent"]
    assert ran["parent"] != parent and ran["change"] != change
    assert not ran["parent"].exists() and not ran["change"].exists()
    for side, path in ran.items():
        assert ("  %s environment: nproc=2 python=3.11.7 numpy=2.4.6 "
                "OPENBLAS_NUM_THREADS=unset path_len=%d" % (side, len(str(path)))) in lines
    # however long the checkouts' paths, the copies' are equal: no warning
    assert len(str(ran["parent"])) == len(str(ran["change"]))
    assert [line for line in lines if "WARNING" in line] == []


def test_an_undeclared_workload_is_a_usage_error_before_any_run(capsys):
    tool = _tool()

    def no_run(*args):
        raise AssertionError("a bench ran")

    tool.run_bench = no_run
    with pytest.raises(SystemExit) as info:
        tool.main([str(ROOT), "--workload", "sweep-desk", "--workload", "nosuch"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'nosuch'" in err
    # the choices are BENCHMARK.json's workloads
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert all(w["name"] in err for w in spec["workloads"])


# run_s in ms, wide: the parent's quartiles lie 0.9 apart around a median of
# 1.9, wider than its 25% bound (0.475)
WIDE = [1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.6, 2.8]


@pytest.mark.parametrize("parent,change,verdict,status", [
    (WIDE, [p * 1.1 for p in WIDE], "ok", 0),
    # +32% at the median, but the two sides' runs interleave
    (WIDE, [p + 0.6 for p in WIDE], "unresolved", 0),
    # as wide, and every change run is worse than every parent run
    (WIDE, [p + 2.0 for p in WIDE], "WORSE", 1),
    # +30% past quartiles 0.035 apart
    (PARENT, [p * 1.3 for p in PARENT], "WORSE", 1),
], ids=["ok", "unresolved", "worse-every-run", "worse-narrow"])
def test_a_median_past_its_bound_is_unresolved_within_the_parent_spread(
        parent, change, verdict, status, tmp_path, capsys):
    tool = _tool()
    names, metrics = tool.declared(ROOT)
    assert ("run_s", "s", "lower", 0.25) in metrics

    def canned(checkout, workload, seed, seconds):
        # pair i runs at seed i; every metric but run_s reads 1.0 on both sides
        values = dict.fromkeys((name for name, *_ in metrics), 1.0)
        values["run_s"] = (change if checkout.name == "change" else parent)[seed]
        return tool.parse_run(_stdout(ENV, values=values))

    tool.run_bench = canned
    checkout = _checkouts(tool, tmp_path)[0]
    code = tool.main([str(checkout), "--workload", names[0], "--pairs", str(len(parent)),
                      "--first-seed", "0"])
    rows = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()}
    # the bound column: verdict, then "(+x% of y%)"
    assert {name: rows[name][-4] for name, *_ in metrics} == dict(
        dict.fromkeys((name for name, *_ in metrics), "ok"), run_s=verdict)
    assert code == status


@pytest.mark.parametrize("n,k", [(5, 0), (6, 1), (10, 2), (20, 6), (30, 10)])
def test_the_paired_interval_is_the_sign_test_order_statistics(n, k):
    # k is the sign test's two-sided 5% critical count plus one, from its
    # published tables; below 6 pairs no interval reaches 95%
    diffs = [float(v) for v in range(n, 0, -1)]
    want = (float(k), float(n + 1 - k)) if k else (-math.inf, math.inf)
    assert _tool().sign_test_interval(diffs) == want


# PR 35's calibrate-solve run_s in ms: a parent whose quartiles lie about 0.5
# apart around 1.78, and a change 19-25% lower
PR35_PARENT = [1.55, 1.62, 1.66, 1.70, 1.77, 1.80, 1.95, 2.17, 2.25, 2.40]
PR35_CUTS = [0.75, 0.81, 0.77, 0.79, 0.76, 0.80, 0.78, 0.81, 0.75, 0.77]
PR35_CHANGE = [p * cut for p, cut in zip(PR35_PARENT, PR35_CUTS)]


@pytest.mark.parametrize("lost", [[], [3], [6]], ids=["10-of-10", "9-of-10", "9-of-10-late"])
def test_a_pr35_shaped_run_reads_paired_where_the_gain_gate_cannot(lost):
    # a lost pair is one where the change ran slower, as runs B and C had
    change = [PR35_PARENT[i] * 1.05 if i in lost else c for i, c in enumerate(PR35_CHANGE)]
    result = _tool().compare(PR35_PARENT, change, "lower", 0.25)
    assert result["wins"] == 10 - len(lost)
    assert result["paired"] is True
    assert result["interval"][1] < 0.0
    # the median gap, about 0.4, is inside the parent's quartile range
    assert result["gain"] is False


def test_eight_wins_in_ten_need_more_pairs():
    # run D's 8 of 10: d_(9) is a lost pair at 10 pairs, but the same share
    # at 30 pairs puts d_(21) among the wins
    change = PR35_CHANGE[:8] + [p * 1.05 for p in PR35_PARENT[8:]]
    compare = _tool().compare
    assert compare(PR35_PARENT, change, "lower", 0.25)["paired"] is False
    assert compare(PR35_PARENT * 3, change * 3, "lower", 0.25)["paired"] is True


@pytest.mark.parametrize("change,better", [
    # a null change: each pair moves by noise of either sign
    ([p + (0.02 if i % 2 else -0.02) for i, p in enumerate(PARENT)], "lower"),
    (list(PARENT), "lower"),
    # worse: slower, or lower where higher is better
    ([p * 1.2 for p in PARENT], "lower"),
    ([p * 0.8 for p in PARENT], "higher"),
], ids=["null", "identical", "worse", "worse-higher"])
def test_a_null_or_worse_change_does_not_read_paired(change, better):
    assert _tool().compare(PARENT, change, better, 0.25)["paired"] is False


def test_higher_is_better_reads_paired_above_zero():
    result = _tool().compare(PARENT, [p * 1.2 for p in PARENT], "higher", 0.25)
    assert result["paired"] is True and result["interval"][0] > 0.0


def test_the_paired_column_sits_between_wins_and_gain(tmp_path, capsys):
    tool = _tool()
    names, metrics = tool.declared(ROOT)

    def canned(checkout, workload, seed, seconds):
        values = dict.fromkeys((name for name, *_ in metrics), 1.0)
        values["run_s"] = (PR35_CHANGE if checkout.name == "change" else PR35_PARENT)[seed]
        return tool.parse_run(_stdout(ENV, values=values))

    tool.run_bench = canned
    checkout = _checkouts(tool, tmp_path)[0]
    assert tool.main([str(checkout), "--workload", names[0], "--pairs", "10",
                      "--first-seed", "0"]) == 0
    rows = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()}
    # wins, then "d [low, high] verdict", then gain, then the bound's four
    assert rows["run_s"][-10:-4] == ["10/10", "-0.3999", "[-0.552,", "-0.357]", "yes", "no"]
    assert rows["wall_s"][-10:-4] == ["0/10", "+0", "[+0,", "+0]", "no", "no"]
