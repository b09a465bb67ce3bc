"""The benchmark's tracer still fits the package it traces.

``bench/tracing.py`` patches the names in its ``TRACED`` list by import
path; a name deleted or renamed in ``src`` would break traced benchmark
runs, so the list is read from the benchmark itself.  Its work counters
read the monitor's results, so they are run on a real parse and window.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from fairshare.planning import goal_deviation, parse_ps_log

from builders import equal_table

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced_names() -> tuple[str, ...]:
    for node in ast.parse(TRACING.read_text()).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise LookupError(f"no TRACED list in {TRACING}")


@pytest.mark.parametrize("name", _traced_names())
def test_traced_name_resolves(name):
    layer, fn = name.split(".")
    assert callable(getattr(importlib.import_module(f"fairshare.{layer}"), fn))


def test_monitor_work_counters_read_the_results(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look their module up
    spec.loader.exec_module(tracing)
    # Six blocks of three processes: a's pid 7 (written 7, +7 and 007 in
    # turn), a's pid 8 and b's pid 7, and one malformed line per block.
    lines = []
    for block in range(6):
        lines += [f"T {60 * block}",
                  f"a {('7', '+7', '007')[block % 3]} 0.0 0.0 1 1 ?? R 0:00 0:{2 * block:02d} x",
                  f"a 8 0.0 0.0 1 1 ?? R 0:00 0:{block:02d} x",
                  f"b 7 0.0 0.0 1 1 ?? R 0:00 0:{3 * block:02d} x",
                  "b 7 0.0 0.0 1 1 ?? R 0:00 n/a x"]
    text = "\n".join(lines) + "\n"
    log = parse_ps_log(text)
    work = tracing.WORK["planning.parse_ps_log"]((text,), {}, log)
    assert work == {"lines": len(log.samples) + log.skipped, "skipped": log.skipped}
    assert work == {"lines": 24, "skipped": 6}

    # Called as the monitor command calls it.
    table = equal_table("a", "b")
    report = goal_deviation(log.samples, table, 60.0)
    work = tracing.WORK["planning.goal_deviation"]((log.samples, table, 60.0), {}, report)
    assert len(report.windows) == 5
    assert work == {"pid_windows": 3 * len(report.windows)}
