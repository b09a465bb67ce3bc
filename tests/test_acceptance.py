"""Acceptance suite: one test per acceptance criterion.

Reference numbers come from the published capacity-report tables bundled
as golden files; model tolerances are stated inline.  Shared simulations
are module-scoped fixtures so the whole suite stays fast.

Known deviation, kept honest rather than hidden: the scenario-2 opsA
response time of the partition model is 5.00 (entitlement 6/30) while the
published table says 5.34, a 6.4% gap; the stated 5% tolerance cannot hold
for that one cell, so test_criterion_04b fails by design.  Every other
cell of that criterion is within tolerance.
"""

import random
import time

import pytest

from fairshare.mva import ClassLoad, WorkloadSpec, solve_srm_conserving, solve_ts
from fairshare.planning import SLOTarget, allocate_topdown, goal_deviation, parse_ps_log
from fairshare.report import extract_section, render_report
from fairshare.shares import (
    GroupAlloc,
    ShareHierarchy,
    TimelineEvent,
    UserAlloc,
    compute_entitlements,
)
from fairshare.sim import SimConfig, convergence_time, run_sim

from builders import assert_operational_laws

REPORT_USERS = ("fAgg", "wAgg", "opsA", "opsB", "opsC")
REPORT4_ENTITLEMENTS = {"fAgg": 0.60, "wAgg": 0.10, "opsA": 0.06, "opsB": 0.05, "opsC": 0.19}


@pytest.fixture(scope="module")
def report4_trace(load_scenario):
    s = load_scenario("report4")
    start = time.perf_counter()
    trace = run_sim(s.hierarchy, s.workload, (), SimConfig(duration=600.0, warmup=60.0))
    wall = time.perf_counter() - start
    return trace, wall


@pytest.fixture(scope="module")
def scenario_traces(load_scenario):
    traces = {}
    for n in range(1, 6):
        s = load_scenario(f"report{n}")
        traces[n] = run_sim(s.hierarchy, s.workload, (), SimConfig(duration=300.0, warmup=30.0))
    return traces


@pytest.fixture(scope="module")
def loophole_traces():
    h = ShareHierarchy(
        100, (GroupAlloc("G", 100, (UserAlloc("a", 50, True), UserAlloc("b", 50, True))),)
    )
    w = WorkloadSpec((ClassLoad("a", 1, 0.0, 1.0), ClassLoad("b", 9, 0.0, 1.0)))
    out = {}
    for mode in ("ts-roundrobin", "fairshare-flat"):
        out[mode] = run_sim(h, w, (), SimConfig(duration=300.0, warmup=30.0, mode=mode))
    return out


def test_criterion_01_entitlement_tables_match_reference(reports, golden_dir):
    for n in range(1, 6):
        rendered = extract_section(render_report(reports[n]), "Group Entitlements")
        expected = (golden_dir / f"report{n}_entitlements.txt").read_text()
        assert rendered == expected, f"scenario {n} entitlement section diverges"


def test_criterion_02_ts_baseline_matches_reference(reports, golden_dir):
    for n in range(1, 6):
        rendered = extract_section(render_report(reports[n]), "Comparative TS Performance")
        expected = (golden_dir / f"report{n}_ts.txt").read_text()
        assert rendered == expected, f"scenario {n} TS section diverges"


def test_criterion_03_partition_exact_rows_and_cross_ratio(reports):
    expected_rows = {
        3: {"wAgg": ("4.00", "25.00")},
        4: {"fAgg": ("1.67", "60.00"), "wAgg": ("10.00", "10.00")},
        5: {"fAgg": ("1.35", "74.07"), "wAgg": ("8.10", "12.35")},
    }
    for n, rows in expected_rows.items():
        section = extract_section(render_report(reports[n]), "Estimated SRM Performance")
        for user, (rtime, ucpu) in rows.items():
            line = next(l for l in section.splitlines() if l.startswith(user))
            cells = line.split()
            assert cells[2] == rtime, f"scenario {n} {user} RTime {cells[2]} != {rtime}"
            assert cells[3] == ucpu, f"scenario {n} {user} %Ucpu {cells[3]} != {ucpu}"
    for user in ("fAgg", "wAgg"):
        ratio = reports[5].srm.rows[user].response / reports[4].srm.rows[user].response
        assert ratio == pytest.approx(0.81, abs=0.01)


# Published response times for the OPS users in scenarios 1-3.
PUBLISHED_OPS_RESPONSE = {
    1: {"opsA": 1.80, "opsB": 2.25},
    2: {"opsA": 5.34, "opsB": 5.80, "opsC": 1.56},
    3: {"opsA": 6.97, "opsB": 7.88, "opsC": 2.08},
}


def _partition_relative_errors(reports):
    errors = {}
    for n, rows in PUBLISHED_OPS_RESPONSE.items():
        for user, published in rows.items():
            model = reports[n].srm.rows[user].response
            errors[(n, user)] = abs(model - published) / published
    return errors


def test_criterion_04a_partition_tracks_published_ops_rows(reports):
    errors = _partition_relative_errors(reports)
    for key, err in errors.items():
        if key == (2, "opsA"):
            continue  # covered by test_criterion_04b, a known deviation
        assert err <= 0.05, f"scenario {key[0]} {key[1]}: {err:.2%} off the published value"
    # opsC SRM/TS ratios in scenarios 2 and 3: model prints 0.53, published 0.52
    for n in (2, 3):
        ratio = reports[n].srm.rows["opsC"].response / reports[n].ts.rows["opsC"].response
        assert round(ratio, 2) == 0.53
        assert ratio == pytest.approx(0.52, abs=0.02)


def test_criterion_04b_report2_opsa_within_five_percent(reports):
    # Fails by design: 5.00 vs the published 5.34 is a 6.4% gap.  See the
    # module docstring; the deviation is reported, not hidden.
    err = _partition_relative_errors(reports)[(2, "opsA")]
    assert err <= 0.05, (
        f"report 2 opsA: partition model 5.00 vs published 5.34 is {err:.2%}, "
        "outside the stated 5% band"
    )


def test_criterion_05_simulator_reproduces_full_allocation_shares(report4_trace):
    trace, wall = report4_trace
    assert wall < 10.0, f"600-second simulation took {wall:.1f}s of wall time"
    for user, share in REPORT4_ENTITLEMENTS.items():
        assert trace.utilization(user) == pytest.approx(share, abs=0.01), user


def test_criterion_06_utilization_ratios_converge(scenario_traces, load_scenario):
    for n, trace in scenario_traces.items():
        s = load_scenario(f"report{n}")
        table = compute_entitlements(s.hierarchy)
        active = sorted(table.active_users)
        for i, a in enumerate(active):
            for b in active[i + 1 :]:
                measured = trace.utilization(a) / trace.utilization(b)
                entitled = table.entitlements[a] / table.entitlements[b]
                assert measured == pytest.approx(entitled, rel=0.02), (n, a, b)

    # dynamic case: second user activates at t=60 and the split converges
    h = ShareHierarchy(
        100, (GroupAlloc("G", 100, (UserAlloc("u1", 50, True), UserAlloc("u2", 50, False))),)
    )
    w = WorkloadSpec((ClassLoad("u1", 1, 0.0, 1.0), ClassLoad("u2", 1, 0.0, 1.0)))
    trace = run_sim(
        h, w, (TimelineEvent(60.0, "activate", "u2"),), SimConfig(duration=240.0, warmup=0.0)
    )
    assert trace.fractions[30] == pytest.approx({"u1": 1.0, "u2": 0.0}, abs=1e-9)
    both = compute_entitlements(
        ShareHierarchy(
            100, (GroupAlloc("G", 100, (UserAlloc("u1", 50, True), UserAlloc("u2", 50, True))),)
        )
    )
    assert trace.fractions[-1]["u1"] == pytest.approx(0.5, abs=0.02)
    assert trace.fractions[-1]["u2"] == pytest.approx(0.5, abs=0.02)
    t_star = convergence_time(trace, both, 0.05)
    assert t_star is not None
    assert 1.0 <= t_star - 60.0 <= 60.0


def test_criterion_07_round_robin_loophole(loophole_traces):
    rr = loophole_traces["ts-roundrobin"]
    assert rr.utilization("a") == pytest.approx(0.10, abs=0.02)
    assert rr.utilization("b") == pytest.approx(0.90, abs=0.02)
    fair = loophole_traces["fairshare-flat"]
    assert fair.utilization("a") == pytest.approx(0.50, abs=0.02)
    assert fair.utilization("b") == pytest.approx(0.50, abs=0.02)


def test_criterion_08_mva_against_processor_sharing_simulation():
    rng = random.Random(20250810)
    checked = 0
    for trial in range(20):
        n_classes = rng.randint(1, 4)
        classes = tuple(
            ClassLoad(
                user=f"u{i}",
                procs=rng.randint(1, 3),
                think=rng.choice([0.0, 1.0]),
                demand=round(rng.uniform(0.5, 2.0), 3),
            )
            for i in range(n_classes)
        )
        w = WorkloadSpec(classes)
        h = ShareHierarchy(
            10 * n_classes,
            (
                GroupAlloc(
                    "G", 10 * n_classes, tuple(UserAlloc(c.user, 10, True) for c in classes)
                ),
            ),
        )
        mva = solve_ts(w)
        trace = run_sim(
            h,
            w,
            (),
            SimConfig(
                duration=8000.0,
                warmup=500.0,
                mode="ts-ps-reference",
                seed=trial,
                think_jitter=True,
            ),
        )
        for c in classes:
            model = mva.rows[c.user]
            sim = trace.perf.rows[c.user]
            assert sim.throughput == pytest.approx(model.throughput, rel=0.02), (trial, c)
            assert sim.response == pytest.approx(model.response, rel=0.02), (trial, c)
            checked += 1
    assert checked >= 20


def test_criterion_09_consistency_laws(reports, load_scenario, report4_trace,
                                       scenario_traces, loophole_traces):
    # analytic solvers: exact to 1e-9 relative
    for n in range(1, 6):
        report = reports[n]
        conserving = solve_srm_conserving(report.workload, report.entitlements)
        for table in (report.ts, report.srm, conserving):
            assert assert_operational_laws(table, report.workload.classes, 1e-9) <= 1.0 + 1e-9

    # simulator estimates: within 1%
    sim_traces = [report4_trace[0], *scenario_traces.values(), *loophole_traces.values()]
    for trace in sim_traces:
        rows = trace.perf.rows
        assert_operational_laws(trace.perf, [c for c in trace.workload.classes if c.user in rows], 0.01)


def test_criterion_10_share_advisor():
    from fairshare.errors import InfeasiblePlanError

    with pytest.raises(InfeasiblePlanError, match="split groups across separate servers"):
        allocate_topdown([SLOTarget("A", u_max=0.7), SLOTarget("B", u_max=0.5)], 100)

    cases = [
        ([SLOTarget("A", u_max=0.5), SLOTarget("B", u_max=0.3)], 100),
        ([SLOTarget("A", u_max=0.42), SLOTarget("B", u_max=0.17), SLOTarget("C", u_max=0.09)], 64),
        ([SLOTarget("svc", u_max=0.25, demand=1.0, r_slo=2.5)], 10),
    ]
    for targets, total in cases:
        plan = allocate_topdown(targets, total)
        assert sum(plan.shares.values()) + plan.residual == total
        for t in targets:
            required = t.required_entitlement()
            assert plan.shares[t.name] / total >= required - 1.0 / total - 1e-12
        assert len(plan.commands) == len(targets)
        for t in targets:
            assert any(
                cmd.startswith("limadm set cpu.shares=") and cmd.endswith(f" {t.name}")
                for cmd in plan.commands
            )


def test_criterion_11_monitoring_round_trip(report4_trace, load_scenario):
    trace, _ = report4_trace
    # synthesize a ps log from the converged part of the trace: cumulative
    # busy seconds per user sampled every 100 simulated seconds
    first_window = int(trace.config.warmup / trace.window_seconds)
    cumulative = dict.fromkeys(trace.users, 0.0)
    lines = []
    for k, fractions in enumerate(trace.fractions[first_window:]):
        t = k * trace.window_seconds
        if t % 100.0 == 0.0:
            lines.append(f"T {t:.0f}")
            for pid, user in enumerate(trace.users, start=1):
                seconds = int(round(cumulative[user]))
                minutes, secs = divmod(seconds, 60)
                lines.append(
                    f"{user} {pid} 0.0 0.0 1 1 ?? R 0:00 {minutes}:{secs:02d} loop"
                )
        for user in trace.users:
            cumulative[user] += fractions[user] * trace.window_seconds

    log = parse_ps_log("\n".join(lines) + "\n")
    table = compute_entitlements(load_scenario("report4").hierarchy)
    report = goal_deviation(log.samples, table, window=100.0, threshold=0.02)
    assert report.windows, "synthesized log produced no monitoring windows"
    assert report.max_abs_deviation <= 0.02
