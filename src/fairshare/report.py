"""Capacity reports: solve a scenario and render the five standard sections.

Section layout and 2-decimal formatting are stable so reports can be
compared as golden files.  Values are computed at full precision and only
rounded when printed.
"""

from __future__ import annotations

import string
from typing import NamedTuple

from .errors import ValidationError
from .mva import (
    PerfTable,
    WorkloadSpec,
    solve_srm_conserving,
    solve_srm_partition,
    solve_ts,
)
from .scenario import Scenario
from .shares import FLAT_POOL, EntitlementTable, ShareHierarchy, compute_entitlements
from .sim import SimConfig, run_sim


class CapacityReport(NamedTuple):
    label: str
    hierarchy: ShareHierarchy
    entitlements: EntitlementTable
    workload: WorkloadSpec  # active users only, definition order
    srm: PerfTable
    ts: PerfTable


DEFAULT_SIM = SimConfig(duration=300.0, warmup=30.0)


def run_scenario(
    s: Scenario,
    mode: str = FLAT_POOL,
    sim_config: SimConfig = DEFAULT_SIM,
) -> CapacityReport:
    """Compute entitlements, solve both disciplines, assemble the report.

    The analytic solvers see the hierarchy's static activity; the simulate
    solver additionally replays the scenario timeline.
    """
    entitlements = compute_entitlements(s.hierarchy, mode)
    active = WorkloadSpec(
        classes=tuple(c for c in s.workload.classes if c.user in entitlements.active_users)
    )

    ts = solve_ts(active)
    if s.solver == "partition":
        srm = solve_srm_partition(active, entitlements)
    elif s.solver == "conserving":
        srm = solve_srm_conserving(active, entitlements)
    else:
        srm = run_sim(s.hierarchy, s.workload, s.timeline, sim_config).perf

    return CapacityReport(
        label=s.label,
        hierarchy=s.hierarchy,
        entitlements=entitlements,
        workload=active,
        srm=srm,
        ts=ts,
    )


def _f2(x: float) -> str:
    return f"{x:.2f}"


def _user_columns(h: ShareHierarchy) -> list[str]:
    width = max(len(g.users) for g in h.groups)
    letters = string.ascii_uppercase
    return [f"%User{letters[i]}" if i < len(letters) else f"%User{i + 1}" for i in range(width)]


def allocation_lines(h: ShareHierarchy) -> list[str]:
    active_shares = sum(u.shares for u in h.users() if u.active)
    lines = [
        f"{active_shares} ACTIVE group cpu.shares out of {h.total_allocated_shares} Allocated.",
        f"{active_shares} ACTIVE user cpu.shares out of {active_shares} Active group shares.",
    ]
    for group in h.groups:
        offline = "" if any(u.active for u in group.users) else " (offline)"
        lines.append(f"{group.name} Group cpu.shares: {group.shares}{offline}")
        for user in group.users:
            offline = "" if user.active else " (offline)"
            lines.append(f" {group.name} cpu.shares owned by {user.name}: {user.shares}{offline}")
    return lines


def entitlement_lines(h: ShareHierarchy, e: EntitlementTable) -> list[str]:
    lines = ["Group %Active " + " ".join(_user_columns(h))]
    width = max(len(g.users) for g in h.groups)
    for group in h.groups:
        cells = [group.name, _f2(100.0 * e.group_fractions[group.name])]
        for user in group.users:
            cells.append(_f2(100.0 * e.entitlements[user.name]))
        cells.extend(["0.00"] * (width - len(group.users)))
        lines.append(" ".join(cells))
    return lines


def workload_lines(w: WorkloadSpec) -> list[str]:
    lines = ["User Procs Think Dcpu"]
    for c in w.classes:
        lines.append(f"{c.user} {c.procs:.2f} {c.think:.2f} {c.demand:.4f}")
    return lines


def perf_lines(table: PerfTable) -> list[str]:
    lines = ["User Thru RTime %Ucpu"]
    for user, row in table.rows.items():
        lines.append(
            f"{user} {_f2(row.throughput)} {_f2(row.response)} {_f2(100.0 * row.utilization)}"
        )
    return lines


def render_report(r: CapacityReport) -> str:
    """Deterministic plain-text report; same report always renders the same bytes."""
    blocks = [
        [f"Capacity Report: {r.label}"],
        ["Allocations"],
        allocation_lines(r.hierarchy),
        ["Group Entitlements"],
        entitlement_lines(r.hierarchy, r.entitlements),
        ["User Workload Parameters"],
        workload_lines(r.workload),
        ["Estimated SRM Performance"],
        perf_lines(r.srm) + [f"Solver: {r.srm.solver}"],
        ["Comparative TS Performance"],
        perf_lines(r.ts),
    ]
    return "\n\n".join("\n".join(block) for block in blocks) + "\n"


def extract_section(text: str, heading: str) -> str:
    """Pull one section (heading plus body) out of a rendered report."""
    blocks = text.split("\n\n")
    for i, block in enumerate(blocks):
        if block.strip() == heading:
            body = blocks[i + 1] if i + 1 < len(blocks) else ""
            return f"{heading}\n\n{body.rstrip()}\n"
    raise ValidationError(f"section {heading!r} not found in report")


def _ratio_cell(numerator, denominator) -> str:
    if numerator is None or denominator is None:
        return "N/A"
    return _f2(numerator / denominator)


def cross_compare(reports) -> str:
    """Ratio tables: SRM vs TS inside each report, SRM across consecutive reports.

    Users missing from a table are shown as N/A in the affected column.
    """
    reports = list(reports)
    if len(reports) < 2:
        raise ValidationError("cross comparison needs at least two reports")
    blocks = []
    for k, report in enumerate(reports, start=1):
        header = ["User", "Rsm", "Rts", "Rsm/Rts"]
        previous = reports[k - 2] if k >= 2 else None
        if previous is not None:
            header.append(f"Rs{k}/Rs{k - 1}")
        lines = [f"Scenario {k}: {report.label}", "", " ".join(header)]
        for user, row in report.srm.rows.items():
            ts_row = report.ts.rows.get(user)
            cells = [
                user,
                _f2(row.response),
                _f2(ts_row.response) if ts_row else "N/A",
                _ratio_cell(row.response, ts_row.response if ts_row else None),
            ]
            if previous is not None:
                prev_row = previous.srm.rows.get(user)
                cells.append(
                    _ratio_cell(row.response, prev_row.response if prev_row else None)
                )
            lines.append(" ".join(cells))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
