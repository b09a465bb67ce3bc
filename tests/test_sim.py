"""Scheduler simulator behavior: fairness limits, dynamics, and estimates."""

import gc
import hashlib
import io
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fairshare import sim
from fairshare.errors import PopulationGuardError, ValidationError
from fairshare.mva import ClassLoad, WorkloadSpec, solve_ts
from fairshare.scenario import parse_scenario
from fairshare.shares import (
    GroupAlloc,
    ShareHierarchy,
    TimelineEvent,
    UserAlloc,
    compute_entitlements,
    validate_timeline,
)
from fairshare.sim import (
    FAIRSHARE_FLAT,
    FAIRSHARE_HIERARCHICAL,
    SIM_MODES,
    SimConfig,
    convergence_time,
    export_trace,
    run_sim,
    trace_perf,
)


def pool(*specs):
    """specs: (name, shares, active) triples in one group."""
    users = tuple(UserAlloc(n, s, a) for n, s, a in specs)
    total = sum(u.shares for u in users)
    return ShareHierarchy(total, (GroupAlloc("G", total, users),))


def cpu_bound(*names, procs=1, demand=1.0):
    return WorkloadSpec(tuple(ClassLoad(n, procs, 0.0, demand) for n in names))


TWO_EQUAL = pool(("a", 50, True), ("b", 50, True))
TWO_EQUAL_W = cpu_bound("a", "b")


class TestFairShareLimit:
    def test_equal_shares_split_evenly(self):
        trace = run_sim(TWO_EQUAL, TWO_EQUAL_W, (), SimConfig(duration=300.0, warmup=30.0))
        assert trace.utilization("a") == pytest.approx(0.5, abs=0.02)
        assert trace.utilization("b") == pytest.approx(0.5, abs=0.02)

    def test_unequal_shares_split_proportionally(self):
        h = pool(("a", 25, True), ("b", 75, True))
        trace = run_sim(h, TWO_EQUAL_W, (), SimConfig(duration=300.0, warmup=30.0))
        assert trace.utilization("a") == pytest.approx(0.25, abs=0.02)
        assert trace.utilization("b") == pytest.approx(0.75, abs=0.02)

    def test_late_activation_converges_to_half(self):
        h = pool(("a", 50, True), ("b", 50, False))
        trace = run_sim(
            h,
            TWO_EQUAL_W,
            (TimelineEvent(60.0, "activate", "b"),),
            SimConfig(duration=180.0, warmup=0.0),
        )
        # sole user owns the machine before the event
        assert trace.fractions[30]["a"] == pytest.approx(1.0, abs=1e-9)
        assert trace.fractions[30]["b"] == 0.0
        # and both settle at their guaranteed half afterwards
        assert trace.fractions[120]["a"] == pytest.approx(0.5, abs=0.02)
        assert trace.fractions[120]["b"] == pytest.approx(0.5, abs=0.02)

    def test_convergence_offset_regression(self):
        # Usage catch-up takes one half-life (5s at defaults); pinned from
        # the simulator itself as a regression value.
        h = pool(("a", 50, True), ("b", 50, False))
        trace = run_sim(
            h,
            TWO_EQUAL_W,
            (TimelineEvent(60.0, "activate", "b"),),
            SimConfig(duration=180.0, warmup=0.0),
        )
        table = compute_entitlements(pool(("a", 50, True), ("b", 50, True)))
        t_star = convergence_time(trace, table, 0.05)
        assert t_star == pytest.approx(65.0, abs=1e-9)

    def test_process_count_does_not_change_fair_share(self):
        h = pool(("a", 50, True), ("b", 50, True))
        w_single = cpu_bound("a", "b")
        w_double = WorkloadSpec((ClassLoad("a", 2, 0.0, 1.0), ClassLoad("b", 1, 0.0, 1.0)))
        one = run_sim(h, w_single, (), SimConfig(duration=300.0, warmup=30.0))
        two = run_sim(h, w_double, (), SimConfig(duration=300.0, warmup=30.0))
        assert abs(one.utilization("a") - two.utilization("a")) <= 0.02


class TestRoundRobinLoophole:
    def test_one_against_nine_processes(self):
        h = pool(("a", 50, True), ("b", 50, True))
        w = WorkloadSpec((ClassLoad("a", 1, 0.0, 1.0), ClassLoad("b", 9, 0.0, 1.0)))
        rr = run_sim(h, w, (), SimConfig(duration=300.0, warmup=30.0, mode="ts-roundrobin"))
        assert rr.utilization("a") == pytest.approx(0.10, abs=0.02)
        assert rr.utilization("b") == pytest.approx(0.90, abs=0.02)
        fair = run_sim(h, w, (), SimConfig(duration=300.0, warmup=30.0))
        assert fair.utilization("a") == pytest.approx(0.50, abs=0.02)
        assert fair.utilization("b") == pytest.approx(0.50, abs=0.02)

    def test_round_robin_response_time_five_equal_users(self):
        names = [f"u{i}" for i in range(5)]
        h = pool(*((n, 10, True) for n in names))
        trace = run_sim(
            h, cpu_bound(*names), (), SimConfig(duration=300.0, warmup=30.0, mode="ts-roundrobin")
        )
        for name in names:
            assert trace.perf.rows[name].response == pytest.approx(5.0, rel=0.02)


class TestDecayBehavior:
    def test_infinite_half_life_enforces_cumulative_fairness(self):
        # Without decay the late joiner must repay the whole usage debt:
        # cumulative consumption, not just rates, levels out.
        h = pool(("a", 50, True), ("b", 50, False))
        trace = run_sim(
            h,
            TWO_EQUAL_W,
            (TimelineEvent(50.0, "activate", "b"),),
            SimConfig(duration=100.0, warmup=0.0, usage_half_life=math.inf),
        )
        total_a = sum(f["a"] for f in trace.fractions)
        total_b = sum(f["b"] for f in trace.fractions)
        assert total_b == pytest.approx(total_a, abs=1.0)

    def test_tiny_half_life_degenerates_to_user_round_robin(self):
        # With usage forgotten every quantum, shares stop mattering and the
        # dispatcher just alternates users.  Per 10 ms quantum usage decays
        # by 2**-10000 (0.0), 2**-1050 (below the smallest normal float)
        # and 2**-1000.
        h = pool(("a", 25, True), ("b", 75, True))
        for half_life in (1e-6, 0.01 / 1050, 1e-5):
            config = SimConfig(duration=120.0, warmup=20.0, usage_half_life=half_life)
            trace = run_sim(h, TWO_EQUAL_W, (), config)
            assert trace.utilization("a") == pytest.approx(0.5, abs=0.02)
            assert trace.utilization("b") == pytest.approx(0.5, abs=0.02)


class TestHierarchicalMode:
    def test_group_share_split_with_partial_group(self):
        h = ShareHierarchy(
            100,
            (
                GroupAlloc("FIN", 60, (UserAlloc("fAgg", 60, True),)),
                GroupAlloc("WEB", 10, (UserAlloc("wAgg", 10, True),)),
                GroupAlloc(
                    "OPS",
                    30,
                    (
                        UserAlloc("opsA", 6, True),
                        UserAlloc("opsB", 5, True),
                        UserAlloc("opsC", 19, False),
                    ),
                ),
            ),
        )
        w = cpu_bound("fAgg", "wAgg", "opsA", "opsB")
        trace = run_sim(
            h, w, (), SimConfig(duration=300.0, warmup=30.0, mode="fairshare-hierarchical")
        )
        table = compute_entitlements(h, "hierarchical")
        for user in ("fAgg", "wAgg", "opsA", "opsB"):
            assert trace.utilization(user) == pytest.approx(
                table.entitlements[user], abs=0.02
            )


class TestPsReference:
    def test_matches_exact_mva_without_think(self):
        w = WorkloadSpec((ClassLoad("a", 1, 0.0, 1.0), ClassLoad("b", 1, 0.0, 2.0)))
        h = pool(("a", 1, True), ("b", 1, True))
        trace = run_sim(h, w, (), SimConfig(duration=300.0, warmup=30.0, mode="ts-ps-reference"))
        mva = solve_ts(w)
        for user in ("a", "b"):
            assert trace.perf.rows[user].throughput == pytest.approx(
                mva.rows[user].throughput, rel=1e-6
            )
            assert trace.perf.rows[user].response == pytest.approx(
                mva.rows[user].response, rel=1e-6
            )

    def test_timeline_events_apply_in_fluid_mode(self):
        h = pool(("a", 50, True), ("b", 50, False))
        trace = run_sim(
            h,
            TWO_EQUAL_W,
            (TimelineEvent(30.0, "activate", "b"),),
            SimConfig(duration=90.0, warmup=0.0, mode="ts-ps-reference"),
        )
        assert trace.fractions[10] == pytest.approx({"a": 1.0, "b": 0.0}, abs=1e-9)
        assert trace.fractions[60]["a"] == pytest.approx(0.5, abs=1e-6)
        assert trace.fractions[60]["b"] == pytest.approx(0.5, abs=1e-6)

    def test_fixed_think_estimates_stay_consistent(self):
        w = WorkloadSpec((ClassLoad("a", 2, 1.0, 1.0), ClassLoad("b", 1, 0.0, 0.5)))
        h = pool(("a", 1, True), ("b", 1, True))
        trace = run_sim(h, w, (), SimConfig(duration=400.0, warmup=40.0, mode="ts-ps-reference"))
        for c in w.classes:
            row = trace.perf.rows[c.user]
            assert row.throughput * (row.response + c.think) == pytest.approx(
                c.procs, rel=0.01
            )
            assert row.utilization == pytest.approx(row.throughput * c.demand, rel=0.01)

    def test_matches_exact_mva_with_jittered_think(self):
        w = WorkloadSpec((ClassLoad("a", 2, 1.0, 1.0), ClassLoad("b", 1, 1.0, 0.5)))
        h = pool(("a", 1, True), ("b", 1, True))
        trace = run_sim(
            h,
            w,
            (),
            SimConfig(
                duration=8000.0, warmup=500.0, mode="ts-ps-reference", seed=7, think_jitter=True
            ),
        )
        mva = solve_ts(w)
        for user in ("a", "b"):
            assert trace.perf.rows[user].throughput == pytest.approx(
                mva.rows[user].throughput, rel=0.02
            )
            assert trace.perf.rows[user].response == pytest.approx(
                mva.rows[user].response, rel=0.02
            )


class TestTraceEstimates:
    def test_single_cpu_bound_user(self):
        h = pool(("only", 10, True))
        trace = run_sim(h, cpu_bound("only", demand=0.8), (), SimConfig(duration=120.0, warmup=10.0))
        row = trace.perf.rows["only"]
        assert trace.utilization("only") == pytest.approx(1.0, abs=0.01)
        assert row.response == pytest.approx(0.8, rel=0.01)

    def test_estimates_satisfy_consistency_laws(self):
        h = pool(("a", 30, True), ("b", 70, True))
        w = WorkloadSpec((ClassLoad("a", 2, 1.0, 0.5), ClassLoad("b", 1, 0.0, 1.0)))
        trace = run_sim(h, w, (), SimConfig(duration=400.0, warmup=40.0))
        for c in w.classes:
            row = trace.perf.rows[c.user]
            assert row.throughput * (row.response + c.think) == pytest.approx(
                c.procs, rel=0.01
            )
            assert row.utilization == pytest.approx(row.throughput * c.demand, rel=0.01)

    def test_user_with_no_completions_is_flagged(self):
        h = pool(("fast", 50, True), ("slow", 50, True))
        w = WorkloadSpec((ClassLoad("fast", 1, 0.0, 0.1), ClassLoad("slow", 1, 0.0, 1000.0)))
        trace = run_sim(h, w, (), SimConfig(duration=30.0, warmup=0.0))
        assert "slow" not in trace.perf.rows
        assert any("slow" in note for note in trace.perf.notes)

    def test_empty_trace_warning(self):
        h = pool(("ghost", 1, False))
        trace = run_sim(h, cpu_bound("ghost"), (), SimConfig(duration=5.0, warmup=0.0))
        assert trace.warnings
        assert not trace.perf.rows

    @pytest.mark.parametrize("mode", SIM_MODES)
    def test_busy_time_outside_every_window_and_the_warmup_warns(self, mode):
        # The user runs from 2.05 to 2.15 s: after the last whole window
        # ends at 2 s, before the warmup ends at 2.2 s.
        events = (TimelineEvent(2.05, "activate", "blip"), TimelineEvent(2.15, "deactivate", "blip"))
        config = SimConfig(duration=2.5, warmup=2.2, window=1.0, mode=mode)
        trace = run_sim(pool(("blip", 1, False)), cpu_bound("blip"), events, config)
        assert trace.warnings == ("the run recorded no busy time; trace is empty",)
        assert not any(trace.busy.values())


class TestWorkConservation:
    def test_busy_windows_sum_to_one(self):
        h = pool(("a", 30, True), ("b", 70, True))
        trace = run_sim(h, TWO_EQUAL_W, (), SimConfig(duration=60.0, warmup=0.0))
        slack = trace.config.quantum / trace.window_seconds
        for fractions in trace.fractions:
            assert sum(fractions.values()) == pytest.approx(1.0, abs=slack + 1e-9)

    def test_fractions_never_exceed_one(self):
        h = pool(("a", 50, True), ("b", 50, True))
        w = WorkloadSpec((ClassLoad("a", 3, 0.5, 0.3), ClassLoad("b", 2, 2.0, 0.7)))
        trace = run_sim(h, w, (), SimConfig(duration=60.0, warmup=0.0))
        for fractions in trace.fractions:
            assert sum(fractions.values()) <= 1.0 + 1e-9


class TestDeterminism:
    def test_identical_seeds_give_identical_traces(self):
        h = pool(("a", 40, True), ("b", 60, True))
        w = WorkloadSpec((ClassLoad("a", 2, 0.7, 0.9), ClassLoad("b", 1, 0.0, 1.1)))
        config = SimConfig(duration=90.0, warmup=10.0, seed=123, think_jitter=True)
        first = run_sim(h, w, (), config)
        second = run_sim(h, w, (), config)
        assert first.fractions == second.fractions
        assert first.cycles == second.cycles
        assert first.busy == second.busy

    def test_different_seed_changes_jittered_run(self):
        h = pool(("a", 50, True), ("b", 50, True))
        w = WorkloadSpec((ClassLoad("a", 1, 1.0, 1.0), ClassLoad("b", 1, 1.0, 1.0)))
        first = run_sim(h, w, (), SimConfig(duration=60.0, warmup=0.0, seed=1, think_jitter=True))
        second = run_sim(h, w, (), SimConfig(duration=60.0, warmup=0.0, seed=2, think_jitter=True))
        assert first.cycles != second.cycles


class TestConvergenceTime:
    def _trace(self, events=()):
        h = pool(("a", 50, True), ("b", 50, False if events else True))
        return run_sim(h, TWO_EQUAL_W, events, SimConfig(duration=120.0, warmup=0.0))

    def test_already_converged_returns_last_event_time(self):
        trace = self._trace()
        table = compute_entitlements(pool(("a", 50, True), ("b", 50, True)))
        assert convergence_time(trace, table, 0.05) == 0.0

    def test_vacuous_epsilon_converges_immediately(self):
        events = (TimelineEvent(60.0, "activate", "b"),)
        trace = self._trace(events)
        table = compute_entitlements(pool(("a", 50, True), ("b", 50, True)))
        assert convergence_time(trace, table, 1.0) == 60.0

    def test_not_converged_returns_none(self):
        h = pool(("a", 50, True), ("b", 50, True))
        trace = run_sim(h, TWO_EQUAL_W, (), SimConfig(duration=30.0, warmup=0.0))
        # judged against a lopsided allocation the 50/50 trace never settles
        skewed = compute_entitlements(pool(("a", 10, True), ("b", 90, True)))
        assert convergence_time(trace, skewed, 0.05) is None

    def test_no_windows_after_event_is_an_error(self):
        events = (TimelineEvent(119.5, "activate", "b"),)
        trace = self._trace(events)
        table = compute_entitlements(pool(("a", 50, True), ("b", 50, True)))
        with pytest.raises(ValidationError):
            convergence_time(trace, table, 0.05)


class TestTimelineHandling:
    def test_deactivation_stops_consumption(self):
        h = pool(("a", 50, True), ("b", 50, True))
        trace = run_sim(
            h,
            TWO_EQUAL_W,
            (TimelineEvent(30.0, "deactivate", "b"),),
            SimConfig(duration=90.0, warmup=0.0),
        )
        assert trace.fractions[60]["b"] == 0.0
        assert trace.fractions[60]["a"] == pytest.approx(1.0, abs=1e-9)

    def test_out_of_order_events_rejected(self):
        h = pool(("a", 50, True), ("b", 50, True))
        events = (
            TimelineEvent(50.0, "deactivate", "b"),
            TimelineEvent(10.0, "activate", "b"),
        )
        with pytest.raises(ValidationError):
            run_sim(h, TWO_EQUAL_W, events, SimConfig(duration=60.0))

    def test_wakeups_in_one_quantum_keep_parking_order(self):
        # b's 1e-12 s think rounds its wake into the quantum that parked it;
        # it still wakes in the next quantum, queued behind a, parked earlier.
        h = pool(("a", 50, True), ("b", 50, True))
        w = WorkloadSpec((ClassLoad("b", 1, 1e-12, 1e-12), ClassLoad("a", 1, 0.015, 0.004)))
        trace = run_sim(h, w, (), SimConfig(duration=0.05, mode="ts-roundrobin"))
        a_done = next(rec[2] for rec in trace.cycles["a"] if 0.02 <= rec[2] < 0.03)
        b_done = next(rec[2] for rec in trace.cycles["b"] if 0.02 <= rec[2] < 0.03)
        assert a_done < b_done

    @pytest.mark.parametrize("mode", [FAIRSHARE_FLAT, FAIRSHARE_HIERARCHICAL])
    def test_leaving_and_rejoining_in_one_quantum_changes_no_dispatch(self, mode):
        # A CPU-bound user's restarted cycle is as runnable as the dropped
        # one, so the dispatcher must see no difference (beyond the rounding
        # of where cycles end).
        h = pool(("a", 20, True), ("b", 30, True), ("c", 50, True))
        events = (TimelineEvent(10.0, "deactivate", "c"), TimelineEvent(10.0, "activate", "c"))
        config = SimConfig(duration=20.0, mode=mode)
        churned = run_sim(h, cpu_bound("a", "b", "c"), events, config)
        steady = run_sim(h, cpu_bound("a", "b", "c"), (), config)
        for got, want in zip(churned.fractions, steady.fractions, strict=True):
            assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("events, error", [
        (((50.0, "nobody"), (10.0, "b")), "unknown user 'nobody'"),
        (((50.0, "b"), (10.0, "nobody")), "non-decreasing"),
        (((50.0, "nobody"), (10.0, "ghost")), "unknown user 'nobody'"),
    ], ids=["unknown-first", "out-of-order-unknown", "both-unknown"])
    def test_timeline_errors_come_in_event_order(self, events, error):
        # Within one event the time order is checked before the user.
        h = pool(("a", 50, True), ("b", 50, True))
        timeline = [TimelineEvent(t, "activate", user) for t, user in events]
        with pytest.raises(ValidationError, match=error):
            validate_timeline(timeline, h)

    def test_unknown_event_user_rejected(self):
        h = pool(("a", 50, True), ("b", 50, True))
        with pytest.raises(ValidationError):
            run_sim(
                h,
                TWO_EQUAL_W,
                (TimelineEvent(5.0, "activate", "nobody"),),
                SimConfig(duration=60.0),
            )


def test_export_trace_format():
    h = pool(("a", 50, True), ("b", 50, True))
    trace = run_sim(h, TWO_EQUAL_W, (), SimConfig(duration=3.0, warmup=0.0))
    buffer = io.StringIO()
    export_trace(trace, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "time,user,fraction"
    assert len(lines) == 1 + 3 * 2
    time_cell, user_cell, fraction_cell = lines[1].split(",")
    assert float(time_cell) == 0.0
    assert user_cell == "a"
    assert 0.0 <= float(fraction_cell) <= 1.0


def test_trace_perf_is_consistent_with_run_sim_perf():
    h = pool(("a", 50, True), ("b", 50, True))
    trace = run_sim(h, TWO_EQUAL_W, (), SimConfig(duration=60.0, warmup=10.0))
    assert trace_perf(trace) == trace.perf


def test_config_validation():
    with pytest.raises(ValidationError):
        SimConfig(duration=10.0, quantum=0.0)
    with pytest.raises(ValidationError):
        SimConfig(duration=10.0, window=0.001)
    with pytest.raises(ValidationError):
        SimConfig(duration=10.0, warmup=20.0)
    with pytest.raises(ValidationError):
        SimConfig(duration=10.0, mode="fifo")


@pytest.mark.parametrize("mode", SIM_MODES)
def test_process_budget_counts_every_process(monkeypatch, mode):
    # An inactive user's processes are set up too, so they count.
    monkeypatch.setattr(sim, "PROCESS_GUARD", 3)
    h = pool(("a", 50, True), ("b", 50, False))
    config = SimConfig(duration=1.0, mode=mode)

    def workload(b_procs):
        return WorkloadSpec((ClassLoad("a", 1, 0.0, 1.0), ClassLoad("b", b_procs, 0.0, 1.0)))

    run_sim(h, workload(2), (), config)
    with pytest.raises(PopulationGuardError, match="^4 processes exceed 3, .*; use fewer procs$"):
        run_sim(h, workload(3), (), config)


@pytest.mark.parametrize("mode", SIM_MODES)
def test_tick_budget_counts_the_quanta_of_quantized_runs(monkeypatch, mode):
    monkeypatch.setattr(sim, "TICK_GUARD", 300)
    run_sim(TWO_EQUAL, TWO_EQUAL_W, (), SimConfig(duration=3.0, mode=mode))
    config = SimConfig(duration=3.01, mode=mode)
    if mode == sim.TS_PS_REFERENCE:  # steps by events, not quanta
        run_sim(TWO_EQUAL, TWO_EQUAL_W, (), config)
        return
    with pytest.raises(PopulationGuardError,
                       match=r"^3\.01s in 0\.01s quanta is 301 quanta, over 300, .*"
                             r"use a shorter --duration or a larger --quantum$"):
        run_sim(TWO_EQUAL, TWO_EQUAL_W, (), config)


@pytest.mark.parametrize("mode", SIM_MODES)
def test_window_budget_counts_windows_times_users(monkeypatch, mode):
    monkeypatch.setattr(sim, "WINDOW_GUARD", 20)
    # Ten one-second windows of two users fill the budget; eleven exceed it.
    run_sim(TWO_EQUAL, TWO_EQUAL_W, (), SimConfig(duration=10.0, mode=mode))
    config = SimConfig(duration=11.0, mode=mode)
    with pytest.raises(PopulationGuardError,
                       match=r"^11 windows of 2 users exceed 20 busy-time cells, .*"
                             r"use a larger --window or a shorter --duration$"):
        run_sim(TWO_EQUAL, TWO_EQUAL_W, (), config)


# Two groups, thinking and multi-process users, a user offline at the start,
# a 13 ms demand (shorter than a quantum) and events both on and off the
# quantum grid.
MIXED_SCENARIO = """\
total_shares 100
group A shares=70
group B shares=30
user a1 group=A shares=40 procs=2 think=0.5 demand=0.3 active=yes
user a2 group=A shares=30 procs=1 think=0 demand=0.013 active=yes
user b1 group=B shares=20 procs=3 think=1.5 demand=0.7 active=no
user b2 group=B shares=10 procs=1 think=0.2 demand=1 active=yes
event t=10 activate=b1
event t=23.456 deactivate=a1
event t=40 activate=a1
event t=55.005 deactivate=b1
solver simulate
"""


def trace_digest(tr) -> str:
    """sha256 of everything a trace records, as plain values with each
    float written by ``repr``, so any change to dispatch order, rounding or
    random draws changes it, while renaming a trace class or field does not.
    """
    perf = tr.perf
    observed = (
        tr.users,
        tr.window_seconds,
        tr.fractions,
        tr.busy,
        tr.elapsed,
        tr.cycles,
        tuple((ev.time, ev.action, ev.user) for ev in tr.events_applied),
        tr.warnings,
        (
            perf.solver,
            tuple(
                (user, row.throughput, row.response, row.utilization)
                for user, row in perf.rows.items()
            ),
            perf.notes,
        ),
    )
    return hashlib.sha256(repr(observed).encode()).hexdigest()


def sim_digest_lines(scenario_dir):
    """One ``case mode jitter seed sha256`` line per pinned simulator run."""
    cases = [(path.stem, path.read_text()) for path in sorted(scenario_dir.glob("*.fsp"))]
    cases.append(("mixed", MIXED_SCENARIO))
    lines = []
    for name, text in cases:
        s = parse_scenario(text, label=name)
        for mode in SIM_MODES:
            for jitter in (False, True):
                for seed in (0, 7):
                    config = SimConfig(
                        duration=80.0, warmup=5.0, mode=mode, seed=seed, think_jitter=jitter
                    )
                    tr = run_sim(s.hierarchy, s.workload, s.timeline, config)
                    lines.append(f"{name} {mode} {int(jitter)} {seed} {trace_digest(tr)}")
    return lines


def test_traces_match_pinned_digests(scenario_dir, golden_dir):
    expected = (golden_dir / "sim_digests.txt").read_text().splitlines()
    assert sim_digest_lines(scenario_dir) == expected


def crowd_scenario(seed: int = 40) -> str:
    """A seeded 40-user, 4-group scenario: half the users CPU bound, half
    thinking, some sub-quantum demands, six users offline at the start and
    churn events on and off the quantum grid."""
    rng = random.Random(seed)
    groups = []
    for g in range(4):
        users = []
        for j in range(10):
            think = 0.0 if j % 2 == 0 else rng.choice((0.2, 0.7, 1.5, 3.0))
            users.append((f"g{g}u{j}", rng.randint(1, 9), rng.randint(1, 3), think,
                          rng.choice((0.004, 0.013, 0.1, 0.35, 1.0))))
        groups.append((f"G{g}", users))
    names = [user[0] for _, users in groups for user in users]
    offline = set(rng.sample(names, 6))
    online = [n for n in names if n not in offline]
    events = [(round(rng.uniform(0.0, 40.0), 3), "activate", n) for n in sorted(offline)]
    for name in rng.sample(online, 8):
        leave = round(rng.uniform(5.0, 50.0), 3)
        events.append((leave, "deactivate", name))
        events.append((round(leave + rng.uniform(0.5, 20.0), 3), "activate", name))
    lines = [f"total_shares {sum(u[1] for _, users in groups for u in users)}"]
    for group, users in groups:
        lines.append(f"group {group} shares={sum(u[1] for u in users)}")
    for group, users in groups:
        for name, shares, procs, think, demand in users:
            active = "no" if name in offline else "yes"
            lines.append(f"user {name} group={group} shares={shares} procs={procs} "
                         f"think={think} demand={demand} active={active}")
    lines += [f"event t={t} {action}={name}" for t, action, name in sorted(events)]
    return "\n".join(lines) + "\n"


def crowd_digest_lines():
    """One ``crowd40 mode jitter half_life sha256`` line per pinned run.

    Every mode at the default 5 s half-life, and the fair-share modes at a
    0.05 s half-life, where usage halves every five quanta: 1,600 halvings
    in one run, so decayed usage spans far more than a float's exponent.
    """
    s = parse_scenario(crowd_scenario(), label="crowd40")
    cases = [(mode, 5.0) for mode in SIM_MODES]
    cases += [(mode, 0.05) for mode in (FAIRSHARE_FLAT, FAIRSHARE_HIERARCHICAL)]
    lines = []
    for mode, half_life in cases:
        for jitter in (False, True):
            config = SimConfig(duration=80.0, warmup=5.0, mode=mode, usage_half_life=half_life,
                               think_jitter=jitter)
            tr = run_sim(s.hierarchy, s.workload, s.timeline, config)
            lines.append(f"crowd40 {mode} {int(jitter)} {half_life:g} {trace_digest(tr)}")
    return lines


def test_many_user_traces_match_pinned_digests(golden_dir):
    expected = (golden_dir / "sim_crowd_digests.txt").read_text().splitlines()
    assert crowd_digest_lines() == expected


@pytest.mark.parametrize("mode", SIM_MODES)
def test_a_run_leaves_no_reference_cycles(mode):
    # The engines' state is freed by reference counting when run_sim
    # returns, not left for the cycle collector.
    s = parse_scenario(MIXED_SCENARIO, label="mixed")
    gc.collect()
    gc.disable()
    try:
        run_sim(s.hierarchy, s.workload, s.timeline, SimConfig(duration=20.0, mode=mode))
        assert gc.collect() == 0
    finally:
        gc.enable()


# Oracles that hold whatever order exact usage ties are broken in: small
# random hierarchies (some users inactive) in both fair-share modes, with
# demands below, at and above a quantum.
DEMANDS = (0.013, 0.1, 0.5, 1.0)
FAIR_MODES = {FAIRSHARE_FLAT: "flat-pool", FAIRSHARE_HIERARCHICAL: "hierarchical"}


@st.composite
def fair_share_runs(draw, thinks):
    """(hierarchy, workload, mode): 1-3 groups of 1-3 users, every user with
    1-3 processes thinking a time drawn from ``thinks``."""
    groups = []
    for g in range(draw(st.integers(1, 3))):
        users = tuple(
            UserAlloc(f"g{g}u{j}", draw(st.integers(1, 6)), draw(st.booleans()))
            for j in range(draw(st.integers(1, 3)))
        )
        groups.append(GroupAlloc(f"G{g}", sum(u.shares for u in users), users))
    h = ShareHierarchy(sum(g.shares for g in groups), tuple(groups))
    w = WorkloadSpec(tuple(
        ClassLoad(u.name, draw(st.integers(1, 3)), draw(st.sampled_from(thinks)),
                  draw(st.sampled_from(DEMANDS)))
        for u in h.users()
    ))
    return h, w, draw(st.sampled_from(sorted(FAIR_MODES)))


@settings(max_examples=30, deadline=None)
@given(run=fair_share_runs(thinks=(0.0,)))
def test_cpu_bound_users_reach_their_entitlements(run):
    # The decay-usage steady state (Epema, SIGMETRICS 1995): with every
    # active user CPU bound, long-run utilization equals entitlement.
    h, w, mode = run
    assume(any(u.active for u in h.users()))
    trace = run_sim(h, w, (), SimConfig(duration=60.0, warmup=15.0, mode=mode))
    table = compute_entitlements(h, FAIR_MODES[mode])
    for user in h.user_names():
        assert trace.utilization(user) == pytest.approx(table.entitlements[user], abs=0.01)


@settings(max_examples=30, deadline=None)
@given(run=fair_share_runs(thinks=(0.0, 0.5, 2.0)))
def test_no_idle_cpu_and_no_user_above_its_demand(run):
    h, w, mode = run
    trace = run_sim(h, w, (), SimConfig(duration=40.0, warmup=5.0, mode=mode))
    active_names = {u.name for u in h.users() if u.active}
    active = [c for c in w.classes if c.user in active_names]
    if any(c.think == 0.0 for c in active):
        # A CPU-bound process is always runnable, so no quantum idles.
        for fractions in trace.fractions:
            assert sum(fractions.values()) == pytest.approx(1.0, abs=1e-9)
    for c in active:
        # A process spends at least `think` between demands, so over the
        # measured span L its busy time B obeys B + (k-1) think <= L with
        # B <= k demand: B <= demand (L + think) / (demand + think).
        rate = c.procs * c.demand / (c.demand + c.think)
        assert trace.utilization(c.user) <= rate * (1.0 + c.think / trace.elapsed) + 1e-9
class TestModelValues:
    @pytest.mark.parametrize("field", ["quantum", "window", "warmup", "duration"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_config_rejects_non_finite(self, field, value):
        with pytest.raises(ValidationError, match=field):
            SimConfig(**{"duration": 10.0, field: value})

    def test_half_life_may_be_infinite_but_not_nan(self):
        assert SimConfig(duration=10.0, usage_half_life=math.inf).usage_half_life == math.inf
        with pytest.raises(ValidationError, match="half-life"):
            SimConfig(duration=10.0, usage_half_life=math.nan)

    @pytest.mark.parametrize("duration, warmup", [(1.0, 0.999), (0.004, 0.0), (0.025, 0.015)])
    def test_config_measures_at_least_one_quantum(self, duration, warmup):
        # each pair rounds to the same number of 10 ms quanta
        with pytest.raises(ValidationError, match="exceed warmup"):
            SimConfig(duration=duration, warmup=warmup)

    @pytest.mark.parametrize("when", [math.nan, math.inf, -1.0])
    def test_event_time_must_be_finite_and_not_negative(self, when):
        with pytest.raises(ValidationError, match="event time"):
            TimelineEvent(when, "activate", "a")

    def test_event_action_checked(self):
        with pytest.raises(ValidationError, match="pause"):
            TimelineEvent(1.0, "pause", "a")

    def test_convergence_epsilon_must_be_finite(self):
        trace = run_sim(TWO_EQUAL, TWO_EQUAL_W, (), SimConfig(duration=3.0, warmup=0.0))
        with pytest.raises(ValidationError, match="epsilon"):
            convergence_time(trace, compute_entitlements(TWO_EQUAL), math.nan)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), jitter=st.booleans(), half_life=st.sampled_from((5.0, 0.05)))
def test_one_group_hierarchy_dispatches_as_the_flat_pool(data, jitter, half_life):
    # Flat fair share is the hierarchy of one group that holds every user,
    # so on such a hierarchy the two modes must give the same trace, bit for
    # bit: fractions, busy time, cycles and estimates.
    users = tuple(
        UserAlloc(f"u{j}", data.draw(st.integers(1, 9)), data.draw(st.booleans()))
        for j in range(data.draw(st.integers(1, 5)))
    )
    h = ShareHierarchy(sum(u.shares for u in users),
                       (GroupAlloc("G", sum(u.shares for u in users), users),))
    w = WorkloadSpec(tuple(
        ClassLoad(u.name, data.draw(st.integers(1, 3)), data.draw(st.sampled_from((0.0, 0.05, 0.5))),
                  data.draw(st.sampled_from(DEMANDS)))
        for u in users
    ))
    first = users[0]
    churn = TimelineEvent(4.0, "deactivate" if first.active else "activate", first.name)
    timeline = (churn,) if data.draw(st.booleans()) else ()
    traces = [
        run_sim(h, w, timeline, SimConfig(duration=12.0, warmup=1.0, mode=mode, seed=3,
                                          usage_half_life=half_life, think_jitter=jitter))
        for mode in (FAIRSHARE_FLAT, FAIRSHARE_HIERARCHICAL)
    ]
    flat, hier = ((tr.fractions, tr.busy, tr.cycles, tr.perf.rows, tr.perf.notes) for tr in traces)
    assert hier == flat
