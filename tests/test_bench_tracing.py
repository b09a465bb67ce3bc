"""Every function the benchmark's tracer wraps still exists in the package.

``bench/tracing.py`` patches the names in its ``TRACED`` list by import
path; a name deleted or renamed in ``src`` would break traced benchmark
runs, so the list is read from the benchmark itself.
"""

import ast
import importlib
from pathlib import Path

import pytest

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
