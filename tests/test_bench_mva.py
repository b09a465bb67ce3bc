"""``scripts/bench_mva.py`` takes end-to-end records only from runs of the checkout's own source."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_mva", ROOT / "scripts" / "bench_mva.py")
bench_mva = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_mva)


def _result(seed: int, src_sha256: str, op_p50_s: float) -> dict:
    metrics = {name: {"value": op_p50_s} for name in bench_mva.E2E_METRICS}
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


def _write(tree: Path, seed: int, result: dict) -> None:
    path = tree / ".bench_work" / "results" / f"sim-crowd-seed{seed}-trace0.json"
    path.write_text(json.dumps(result))


def test_e2e_records_skip_runs_of_other_source(tree):
    _write(tree, 1, _result(1, bench_mva.src_digest(tree), 0.015))
    _write(tree, 2, _result(2, "0123456789abcdef", 0.5))
    records = bench_mva.e2e_records("change", tree, "sim-crowd")
    assert [r["repeats"] for r in records] == [1] * len(bench_mva.E2E_METRICS)
    assert {r["median_s"] for r in records} == {0.015}
    assert records[0]["work_counters"]["seeds"] == [1]
    assert records[0]["work_counters"]["skipped"] == 1


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
