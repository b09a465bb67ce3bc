"""Model builders and the operational-law check that the test modules share."""

import pytest

from fairshare.mva import ClassLoad, WorkloadSpec
from fairshare.shares import GroupAlloc, ShareHierarchy, UserAlloc, compute_entitlements


def pool(*specs):
    """specs: (name, shares, active) triples in one group."""
    users = tuple(UserAlloc(n, s, a) for n, s, a in specs)
    total = sum(u.shares for u in users)
    return ShareHierarchy(total, (GroupAlloc("G", total, users),))


def equal_table(*names):
    """Entitlements of active users with one share each, in one group."""
    return compute_entitlements(pool(*((n, 1, True) for n in names)))


def cpu_bound(*names, demand=1.0):
    """One process per user that never thinks."""
    return WorkloadSpec(tuple(ClassLoad(n, 1, 0.0, demand) for n in names))


def standard_hierarchy(fin=True, web=True, ops_a=True, ops_b=True, ops_c=True):
    """The 100-share FIN/WEB/OPS allocation used by the bundled scenarios."""
    return ShareHierarchy(
        total_allocated_shares=100,
        groups=(
            GroupAlloc("FIN", 60, (UserAlloc("fAgg", 60, fin),)),
            GroupAlloc("WEB", 10, (UserAlloc("wAgg", 10, web),)),
            GroupAlloc(
                "OPS",
                30,
                (
                    UserAlloc("opsA", 6, ops_a),
                    UserAlloc("opsB", 5, ops_b),
                    UserAlloc("opsC", 19, ops_c),
                ),
            ),
        ),
    )


def standard_workload(**active):
    """One CPU-bound process for each active user of ``standard_hierarchy(**active)``."""
    return cpu_bound(*(u.name for u in standard_hierarchy(**active).users() if u.active))


def assert_operational_laws(table, classes, rel):
    """Check N = X(R + Z) and U = XD to ``rel`` for each class's row of ``table``;
    return the sum of the rows' U."""
    total = 0.0
    for c in classes:
        row = table.rows[c.user]
        assert row.throughput * (row.response + c.think) == pytest.approx(c.procs, rel=rel)
        assert row.utilization == pytest.approx(row.throughput * c.demand, rel=rel)
        total += row.utilization
    return total
