"""``scripts/bench_mva.py`` summarizes ``bench/run.py`` results of the checkout's own source."""

import contextlib
import importlib.util
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_mva", ROOT / "scripts" / "bench_mva.py")
bench_mva = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_mva)

# The end-to-end metrics of a ``--trace 0`` result of ``bench/run.py``, with their units.
E2E_UNITS = {"setup_s": "s", "op_p50_s": "s", "op_p90_s": "s", "ops_per_s": "ops/s",
             "cpu_per_op_s": "s", "ok_rate": "ratio", "peak_rss_mb": "MB"}


def _result(seed: int, src_sha256: str, op_p50_s: float) -> dict:
    metrics = {name: {"value": op_p50_s, "unit": unit} for name, unit in E2E_UNITS.items()}
    return {
        "meta": {"seed": seed, "src_sha256": src_sha256, "python": "3", "numpy": "1"},
        "result": {"attempted": 10, "failed": 0, "metrics": metrics},
    }


@pytest.fixture
def tree(tmp_path):
    (tmp_path / "src" / "fairshare").mkdir(parents=True)
    (tmp_path / "src" / "fairshare" / "a.py").write_text("x = 1\n")
    (tmp_path / ".bench_work" / "results").mkdir(parents=True)
    return tmp_path


def _traced(seed: int, src_sha256: str, ops: int, solve_ts_s: float, us_per_state: float) -> dict:
    """A trace-1 result: cli.main, solve_ts (with a unit cost), render_report (without),
    one run_sim mode that ran and one that did not, and a function never called."""
    values = {
        "cli.main.calls": ops, "cli.main.self_s": 0.001 * ops, "cli.main.raised": 0,
        "mva.solve_ts.calls": 2 * ops, "mva.solve_ts.self_s": solve_ts_s, "mva.solve_ts.raised": 0,
        "mva.solve_ts.states": 1000 * ops, "mva.solve_ts.us_per_state": us_per_state,
        "report.render_report.calls": ops, "report.render_report.self_s": 0.002 * ops,
        "report.render_report.raised": 0,
        "shares.apply_events.calls": 0, "shares.apply_events.self_s": 0.0,
        "shares.apply_events.raised": 0,
        "sim.run_sim.fairshare-flat.self_s": 0.003 * ops,
        "sim.run_sim.fairshare-flat.us_per_quantum": 3.0 + seed,
        "sim.run_sim.ts-roundrobin.self_s": 0.0, "sim.run_sim.ts-roundrobin.us_per_quantum": 0.0,
        "trace.overhead_frac": 0.1,
    }
    result = _result(seed, src_sha256, 0.0)
    result["result"]["metrics"] = {name: {"value": v} for name, v in values.items()}
    return result


def _write(tree: Path, seed: int, result: dict, trace: int = 0) -> None:
    path = tree / ".bench_work" / "results" / f"sim-crowd-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(result))


def test_e2e_records_skip_runs_of_other_source(tree):
    _write(tree, 1, _result(1, bench_mva.src_digest(tree), 0.015))
    _write(tree, 2, _result(2, "0123456789abcdef", 0.5))
    records = bench_mva.e2e_records("change", tree, "sim-crowd")
    assert [r["repeats"] for r in records] == [1] * len(E2E_UNITS)
    assert {r["median_s"] for r in records} == {0.015}
    assert {r["case"]: r["work_counters"]["unit"] for r in records} == {
        f"sim-crowd {name} change": unit for name, unit in E2E_UNITS.items()}
    assert records[0]["work_counters"]["seeds"] == [1]
    assert records[0]["work_counters"]["skipped"] == 1


def test_e2e_records_take_names_and_units_from_the_results(tree):
    digest = bench_mva.src_digest(tree)
    for seed, rss in ((1, 40.0), (2, 44.0), (3, 41.0)):
        result = _result(seed, digest, 0.0)
        result["result"]["metrics"] = {"ops_per_s": {"value": 100.0 * seed, "unit": "ops/s"},
                                       "peak_rss_mb": {"value": rss, "unit": "MB"}}
        _write(tree, seed, result)
    records = bench_mva.e2e_records("change", tree, "sim-crowd")
    assert [(r["case"], r["work_counters"]["unit"], r["median_s"], r["min_s"]) for r in records] == [
        ("sim-crowd ops_per_s change", "ops/s", 200.0, 100.0),
        ("sim-crowd peak_rss_mb change", "MB", 41.0, 40.0),
    ]


def test_e2e_units_are_the_ones_bench_run_reports():
    reported = subprocess.run(
        [sys.executable, "-c",
         "import json, sys; sys.path.insert(0, sys.argv[1]); import run; "
         "print(json.dumps(run.END_TO_END))", str(ROOT / "bench")],
        capture_output=True, text=True, check=True,
    ).stdout
    assert json.loads(reported) == E2E_UNITS


def test_e2e_records_refuse_when_no_run_is_of_this_source(tree):
    _write(tree, 1, _result(1, "0123456789abcdef", 0.5))
    _write(tree, 2, _result(2, "fedcba9876543210", 0.5))
    with pytest.raises(SystemExit, match="skipped 2 of other source"):
        bench_mva.e2e_records("change", tree, "sim-crowd")


def test_src_digest_is_the_one_bench_run_records():
    recorded = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import run; "
         "print(run.run_metadata()['src_sha256'])", str(ROOT / "bench")],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    assert recorded == bench_mva.src_digest(ROOT)


def test_layer_records_give_self_time_per_op_and_the_tracers_unit_cost(tree):
    digest = bench_mva.src_digest(tree)
    _write(tree, 1, _traced(1, digest, ops=10, solve_ts_s=0.1, us_per_state=0.5), trace=1)
    _write(tree, 2, _traced(2, digest, ops=20, solve_ts_s=0.4, us_per_state=0.7), trace=1)
    records = {r["layer"]: r for r in bench_mva.layer_records("change", tree, "sim-crowd")}
    assert sorted(records) == ["cli.main", "mva.solve_ts", "report.render_report",
                               "sim.run_sim.fairshare-flat"]
    ts = records["mva.solve_ts"]
    assert ts["case"] == "sim-crowd mva.solve_ts change"
    assert (ts["size"], ts["repeats"]) == (60, 2)
    assert ts["median_s"] == pytest.approx(0.015)  # 0.01 and 0.02 s per op
    assert ts["min_s"] == pytest.approx(0.01)
    assert (ts["per_unit"], ts["work_counters"]["per"]) == (pytest.approx(0.6), "state")
    render = records["report.render_report"]
    assert render["median_s"] == pytest.approx(0.002)
    assert (render["per_unit"], render["work_counters"]["per"]) == (pytest.approx(2000.0), "call")
    flat = records["sim.run_sim.fairshare-flat"]
    assert flat["size"] is None  # the tracer counts no calls per mode
    assert flat["median_s"] == pytest.approx(0.003)
    assert (flat["per_unit"], flat["work_counters"]["per"]) == (pytest.approx(4.5), "quantum")


def test_layer_records_skip_traced_runs_of_other_source(tree):
    _write(tree, 1, _traced(1, bench_mva.src_digest(tree), 10, 0.1, 0.5), trace=1)
    _write(tree, 2, _traced(2, "0123456789abcdef", 20, 9.0, 9.0), trace=1)
    _write(tree, 3, _traced(3, "0123456789abcdef", 20, 9.0, 9.0), trace=1)
    records = bench_mva.layer_records("change", tree, "sim-crowd")
    assert records
    for r in records:
        assert r["repeats"] == 1
        assert r["work_counters"]["seeds"] == [1]
        assert r["work_counters"]["skipped"] == 2
    assert {r["layer"]: r["per_unit"] for r in records}["mva.solve_ts"] == 0.5


def test_untraced_results_give_end_to_end_records_only(tree, tmp_path):
    _write(tree, 1, _result(1, bench_mva.src_digest(tree), 0.015))
    out = tmp_path / "bench.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert bench_mva.main(["--tree", f"change={tree}", "--workload", "sim-crowd",
                               "--out", str(out)]) == 0
    records = json.loads(out.read_text())
    assert [r["layer"] for r in records] == ["end-to-end"] * len(E2E_UNITS)


def test_main_writes_records_of_the_bench_schema(tree, tmp_path):
    digest = bench_mva.src_digest(tree)
    for seed in (1, 2, 3):
        _write(tree, seed, _result(seed, digest, 0.01 * seed))
        _write(tree, seed, _traced(seed, digest, 10 * seed, 0.1, 0.5), trace=1)
    out = tmp_path / "bench.json"
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        assert bench_mva.main(["--tree", f"a={tree}", "--tree", f"b={tree}",
                               "--workload", "sim-crowd", "--out", str(out)]) == 0
    records = json.loads(out.read_text())
    assert len(records) == 2 * (len(E2E_UNITS) + 4)
    schema = ["case", "layer", "size", "repeats", "median_s", "min_s", "per_unit",
              "work_counters", "python", "numpy", "commit"]
    assert all(list(r) == schema for r in records)
    assert {r["work_counters"]["unit"] for r in records if r["layer"] != "end-to-end"} == {"s"}
    # A line per record, then a pair-summary line per end-to-end metric and traced layer.
    assert len(printed.getvalue().splitlines()) == len(records) + len(E2E_UNITS) + 4


def test_describe_marks_only_source_edits_dirty(tmp_path):
    def git(*args):
        return subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t",
                               "-c", "commit.gpgsign=false", *args],
                              check=True, capture_output=True, text=True).stdout.strip()

    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\n")
    (tmp_path / "README").write_text("one\n")
    git("init", "-q")
    git("add", ".")
    git("commit", "-q", "-m", "one")
    commit = git("rev-parse", "--short", "HEAD")
    (tmp_path / "README").write_text("two\n")
    assert bench_mva.describe(tmp_path) == commit
    (tmp_path / "src" / "a.py").write_text("x = 2\n")
    assert bench_mva.describe(tmp_path) == f"{commit}-dirty"


def test_pair_summary_counts_wins_by_seed_in_each_metrics_direction(tmp_path):
    # op_p50_s is better lower: seed 1 wins, seed 2 ties and seed 3 wins.
    # ops_per_s is better higher: seeds 1 and 3 win, seed 2 loses.  Every
    # peak_rss_mb pair wins, with no spread in the base.  Seed 4 ran on one
    # tree only, so it makes no pair.
    base, change = tmp_path / "base", tmp_path / "change"
    fake = {base: {1: (0.010, 100.0, 40.0), 2: (0.020, 90.0, 40.0), 3: (0.030, 80.0, 40.0)},
            change: {1: (0.008, 110.0, 30.0), 2: (0.020, 85.0, 31.0), 3: (0.025, 95.0, 30.0),
                     4: (9.9, 1.0, 99.0)}}
    for tree, runs in fake.items():
        (tree / "src" / "fairshare").mkdir(parents=True)
        (tree / ".bench_work" / "results").mkdir(parents=True)
        for seed, (p50, rate, rss) in runs.items():
            result = _result(seed, bench_mva.src_digest(tree), p50)
            result["result"]["metrics"]["ops_per_s"]["value"] = rate
            result["result"]["metrics"]["peak_rss_mb"]["value"] = rss
            _write(tree, seed, result)
    better = bench_mva.directions()
    assert (better["op_p50_s"], better["ops_per_s"]) == ("lower", "higher")
    runs = [bench_mva.own_runs(tree, "sim-crowd", 0)[0] for tree in (base, change)]
    rows = {p["metric"]: p for p in bench_mva.pair_summary(*runs, better)}
    assert set(rows) == set(E2E_UNITS)
    p50 = rows["op_p50_s"]
    assert (p50["pairs"], p50["wins"], p50["ties"]) == (3, 2, 1)
    assert (p50["median_base"], p50["median_change"]) == (0.020, 0.020)
    assert p50["spread"] == pytest.approx(0.020)  # exclusive quartiles of three: 0.010 and 0.030
    assert not p50["beyond"]
    rate = rows["ops_per_s"]
    assert (rate["pairs"], rate["wins"], rate["ties"]) == (3, 2, 0)
    assert (rate["median_base"], rate["median_change"]) == (90.0, 95.0)
    assert rate["spread"] == pytest.approx(20.0)
    assert not rate["beyond"]
    rss = rows["peak_rss_mb"]
    assert (rss["wins"], rss["median_change"], rss["spread"], rss["beyond"]) == (3, 30.0, 0.0, True)
    out = tmp_path / "bench.json"
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        bench_mva.main(["--tree", f"parent={base}", "--tree", f"change={change}",
                        "--workload", "sim-crowd", "--out", str(out)])
    assert ("sim-crowd ops_per_s: change wins 2 of 3 pairs (0 tied), median 90 -> 95, "
            "parent q3-q1 20, not more than that apart") in printed.getvalue().splitlines()


def test_layer_pair_summary_counts_self_time_wins_by_seed(tmp_path):
    # solve_ts self time per op: seed 1 wins (0.010 -> 0.008 s), seed 2 ties
    # (0.020 s) and seed 3 loses (0.030 -> 0.035 s).  Seed 4 ran on one tree
    # only, so it makes no pair.
    base, change = tmp_path / "base", tmp_path / "change"
    fake = {base: {1: (0.10, 0.5), 2: (0.20, 0.6), 3: (0.30, 0.7)},
            change: {1: (0.08, 0.4), 2: (0.20, 0.6), 3: (0.35, 0.8), 4: (9.9, 9.9)}}
    for tree, runs in fake.items():
        (tree / "src" / "fairshare").mkdir(parents=True)
        (tree / ".bench_work" / "results").mkdir(parents=True)
        for seed, (solve_ts_s, us_per_state) in runs.items():
            _write(tree, seed, _result(seed, bench_mva.src_digest(tree), 0.01))
            _write(tree, seed, _traced(seed, bench_mva.src_digest(tree), 10, solve_ts_s,
                                       us_per_state), trace=1)
    runs = [bench_mva.own_runs(tree, "sim-crowd", 1)[0] for tree in (base, change)]
    rows = {p["layer"]: p for p in bench_mva.layer_pair_summary(*runs)}
    assert sorted(rows) == ["cli.main", "mva.solve_ts", "report.render_report",
                            "sim.run_sim.fairshare-flat"]
    ts = rows["mva.solve_ts"]
    assert (ts["pairs"], ts["wins"], ts["ties"]) == (3, 1, 1)
    assert (ts["median_base"], ts["median_change"]) == (pytest.approx(0.02), pytest.approx(0.02))
    assert (ts["per"], ts["per_unit_base"], ts["per_unit_change"]) == ("state", 0.6, 0.6)
    # Equal self times on every seed: three ties and no win.
    render = rows["report.render_report"]
    assert (render["wins"], render["ties"], render["per"]) == (0, 3, "call")
    assert render["per_unit_base"] == pytest.approx(2000.0)
    out = tmp_path / "bench.json"
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        bench_mva.main(["--tree", f"parent={base}", "--tree", f"change={change}",
                        "--workload", "sim-crowd", "--out", str(out)])
    assert ("sim-crowd mva.solve_ts self s/op: change wins 1 of 3 pairs (1 tied), "
            "median 0.02 -> 0.02, us/state 0.6 -> 0.6") in printed.getvalue().splitlines()
