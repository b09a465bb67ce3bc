"""Validated records: every way of building one runs its check."""

import pytest

from fairshare.errors import ValidationError
from fairshare.mva import ClassLoad, PerfRow, WorkloadSpec
from fairshare.planning import SLOTarget
from fairshare.shares import GroupAlloc, ShareHierarchy, TimelineEvent, UserAlloc
from fairshare.sim import SimConfig

LOAD = ClassLoad("a", 1, 0.5, 1.0)
USER = UserAlloc("a", 2)
GROUP = GroupAlloc("G", 2, (USER,))

# A valid record, one field given a bad value, and the error that value gives.
CASES = [
    (LOAD, {"procs": 0}, "user a: procs must be an integer >= 1"),
    (WorkloadSpec((LOAD,)), {"classes": (LOAD, LOAD)}, "duplicate workload user 'a'"),
    (PerfRow(1.0, 2.0, 0.5), {"response": float("inf")},
     "non-finite model estimate PerfRow(throughput=1.0, response=inf, utilization=0.5): "
     "the workload overflows floats"),
    (USER, {"shares": 0}, "user a: shares must be a positive integer"),
    (GROUP, {"shares": 3}, "group G: user shares sum to 2, group allocation is 3"),
    (ShareHierarchy(2, (GROUP,)), {"total_allocated_shares": 3},
     "group shares sum to 2, total allocation is 3"),
    (TimelineEvent(1.0, "activate", "a"), {"action": "pause"}, "unknown timeline action 'pause'"),
    (SimConfig(duration=10.0), {"quantum": 0.0}, "quantum must be finite and > 0"),
    (SLOTarget("web", 0.5), {"u_max": 1.5}, "target web: u_max must be in (0, 1], got 1.5"),
]


@pytest.mark.parametrize("record, bad, message", CASES,
                         ids=[type(record).__name__ for record, _, _ in CASES])
def test_constructor_make_and_replace_all_validate(record, bad, message):
    kind = type(record)
    values = {**record._asdict(), **bad}
    builds = {
        "constructor": lambda: kind(**values),
        "_make": lambda: kind._make(values.values()),
        "_replace": lambda: record._replace(**bad),
    }
    for how, build in builds.items():
        with pytest.raises(ValidationError) as got:
            build()
        assert str(got.value) == message, how
    with pytest.raises(ValueError, match="unexpected field names"):
        record._replace(bogus=1)
    for copy in (kind._make(record), record._replace()):
        assert type(copy) is kind and copy == record
    assert not hasattr(record, "__dict__")
