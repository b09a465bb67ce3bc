"""Scheduler simulator behavior: fairness limits, dynamics, and estimates."""

import gc
import hashlib
import io
import math
import random

import pytest
from hypothesis import assume, example, given, settings
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

from builders import assert_operational_laws, cpu_bound, pool

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
        assert_operational_laws(trace.perf, w.classes, 0.01)

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
        assert_operational_laws(trace.perf, w.classes, 0.01)

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

    @pytest.mark.parametrize("mode", SIM_MODES)
    def test_a_partial_last_window_counts_only_after_the_warmup(self, mode):
        # 10.5 s in 1 s windows: ten whole windows, and the last half second
        # is post-warmup busy time in no window.
        trace = run_sim(pool(("a", 1, True)), cpu_bound("a"), (), SimConfig(duration=10.5, mode=mode))
        assert [f["a"] for f in trace.fractions] == pytest.approx([1.0] * 10, abs=1e-9)
        assert trace.busy["a"] == pytest.approx(10.5, abs=1e-9)


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
        with pytest.raises(ValidationError, match="^trace has no windows after the last"):
            convergence_time(trace, table, 0.05)

    @pytest.mark.parametrize("mode", SIM_MODES)
    def test_a_run_without_a_whole_window_names_the_window_and_the_duration(self, mode):
        trace = run_sim(TWO_EQUAL, TWO_EQUAL_W, (), SimConfig(duration=5.0, window=10.0, mode=mode))
        with pytest.raises(ValidationError, match="^the 5s run has no whole 10s window$"):
            convergence_time(trace, compute_entitlements(TWO_EQUAL), 0.05)


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
                       match=r"^301 quanta of 0\.01s in 3\.01s exceed 300, .*; "
                             r"use a shorter --duration or a larger --quantum$"):
        run_sim(TWO_EQUAL, TWO_EQUAL_W, (), config)


@pytest.mark.parametrize("mode", SIM_MODES)
def test_window_budget_counts_windows_times_users(monkeypatch, mode):
    monkeypatch.setattr(sim, "WINDOW_GUARD", 20)
    # Ten one-second windows of two users fill the budget; eleven exceed it.
    run_sim(TWO_EQUAL, TWO_EQUAL_W, (), SimConfig(duration=10.0, mode=mode))
    config = SimConfig(duration=11.0, mode=mode)
    with pytest.raises(PopulationGuardError,
                       match=r"^22 busy-time cells in 11 windows of 2 users exceed 20, .*; "
                             r"use a larger --window or a shorter --duration$"):
        run_sim(TWO_EQUAL, TWO_EQUAL_W, (), config)


@pytest.mark.parametrize("mode", SIM_MODES)
def test_cycle_budget_bounds_processor_sharing_runs(monkeypatch, mode):
    # duration / demand summed over every class, the inactive b's included:
    # 10/1 + 10/0.5 = 30 cycles at most in 10 s.
    monkeypatch.setattr(sim, "CYCLE_GUARD", 30)
    h = pool(("a", 50, True), ("b", 50, False))
    w = WorkloadSpec((ClassLoad("a", 1, 0.0, 1.0), ClassLoad("b", 2, 0.0, 0.5)))
    run_sim(h, w, (), SimConfig(duration=10.0, mode=mode))
    config = SimConfig(duration=10.5, mode=mode)
    with pytest.raises(PopulationGuardError,
                       match=r"^31\.5 demand cycles in 10\.5s exceed 30, .*; "
                             r"use a shorter --duration or a larger demand$"):
        run_sim(h, w, (), config)


@pytest.mark.parametrize("a, b, duration, window", [
    # Past 1.7e7 s floats lie more than the 1e-9 s tolerance apart, so a
    # step to a completion less than half a spacing away takes no time.
    # Unless that completion then happens, the run steps in place forever.
    ((3, 0.0, 1e5), (2, 1.234e5, 2.5e5), 1e8, 1e6),
    # There a step's start divided by the window can also name the window
    # before the edge that the step starts from.  Crediting that index once
    # gave windows of 1.056 and 0.990 around 1.68e7 s.
    ((2, 0.0, 1000.0), (1, 0.0, 777.7), 3e7, 3030.3),
], ids=["completion-in-no-time", "window-index"])
def test_fluid_runs_where_floats_are_sparser_than_the_tolerance(a, b, duration, window):
    h = pool(("a", 1, True), ("b", 1, True))
    w = WorkloadSpec((ClassLoad("a", *a), ClassLoad("b", *b)))
    trace = run_sim(h, w, (), SimConfig(duration=duration, window=window, mode=sim.TS_PS_REFERENCE))
    for fractions in trace.fractions:  # a is CPU bound, so the CPU never idles
        assert sum(fractions.values()) == pytest.approx(1.0, abs=1e-9)


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


# Grids whose warmup and last window fall inside a window: a 0.7 s window
# of 70 quanta, a warmup at quantum 527 of window 7 and a partial window of
# 55 quanta; then 30 ms quanta in 2.49 s windows of 83 quanta, a warmup at
# quantum 167 of window 2, a partial window of 11 quanta and usage halving
# every 0.05 s.
OFFGRID_CONFIGS = {
    "w0.7": dict(duration=80.35, warmup=5.27, window=0.7),
    "q0.03": dict(duration=80.0, warmup=5.0, quantum=0.03, window=2.5, usage_half_life=0.05),
}


def offgrid_digest_lines(scenario_dir):
    """One ``case mode jitter grid sha256`` line per quantized run on an off-grid config."""
    cases = [(name, (scenario_dir / f"{name}.fsp").read_text())
             for name in ("report4", "example-2-2")]
    cases += [("mixed", MIXED_SCENARIO), ("crowd40", crowd_scenario())]
    lines = []
    for name, text in cases:
        s = parse_scenario(text, label=name)
        for mode in SIM_MODES[:3]:  # the quantized ones
            for jitter in (False, True):
                for grid, fields in OFFGRID_CONFIGS.items():
                    config = SimConfig(mode=mode, seed=7, think_jitter=jitter, **fields)
                    tr = run_sim(s.hierarchy, s.workload, s.timeline, config)
                    lines.append(f"{name} {mode} {int(jitter)} {grid} {trace_digest(tr)}")
    return lines


def test_offgrid_traces_match_pinned_digests(scenario_dir, golden_dir):
    expected = (golden_dir / "sim_offgrid_digests.txt").read_text().splitlines()
    assert offgrid_digest_lines(scenario_dir) == expected


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

    def test_workload_user_must_be_in_the_hierarchy(self):
        w = WorkloadSpec((ClassLoad("a", 1, 0.0, 1.0), ClassLoad("nobody", 1, 0.0, 1.0)))
        with pytest.raises(ValidationError, match="^workload user 'nobody' not in hierarchy$"):
            run_sim(TWO_EQUAL, w, (), SimConfig(duration=3.0))

    def test_convergence_epsilon_must_be_finite(self):
        trace = run_sim(TWO_EQUAL, TWO_EQUAL_W, (), SimConfig(duration=3.0, warmup=0.0))
        with pytest.raises(ValidationError, match="epsilon"):
            convergence_time(trace, compute_entitlements(TWO_EQUAL), math.nan)

    def test_convergence_epsilon_must_not_be_negative(self):
        # A negative epsilon could never be met; zero can.
        trace = run_sim(TWO_EQUAL, TWO_EQUAL_W, (), SimConfig(duration=3.0, warmup=0.0))
        table = compute_entitlements(TWO_EQUAL)
        with pytest.raises(ValidationError, match="^epsilon must be finite and >= 0, got -1.0$"):
            convergence_time(trace, table, -1.0)
        assert convergence_time(trace, table, 0.0) == 0.0


@settings(max_examples=40, deadline=None)
@given(data=st.data(), jitter=st.booleans(), half_life=st.sampled_from((5.0, 0.05)))
def test_one_group_hierarchy_dispatches_as_the_flat_pool(data, jitter, half_life):
    # Flat fair share is the hierarchy of one group that holds every user,
    # so on such a hierarchy the two modes must give the same trace, bit for
    # bit: fractions, busy time, cycles and estimates.  Sometimes a second
    # group whose users have no workload is added: the hierarchical run then
    # keeps and re-keys its group usage, which one group skips, and must
    # still dispatch as the flat pool.
    def draw_users(prefix, count):
        return tuple(UserAlloc(f"{prefix}{j}", data.draw(st.integers(1, 9)), data.draw(st.booleans()))
                     for j in range(data.draw(count)))

    users, idle = draw_users("u", st.integers(1, 5)), draw_users("v", st.integers(0, 2))
    groups = tuple(GroupAlloc(name, sum(u.shares for u in members), members)
                   for name, members in (("G", users), ("H", idle)) if members)
    h = ShareHierarchy(sum(g.shares for g in groups), groups)
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


@settings(max_examples=40, deadline=None)
@given(data=st.data(), jitter=st.booleans(), quantum=st.sampled_from((0.01, 0.1)),
       half_life=st.sampled_from((5.0, 0.05)))
def test_fair_share_with_one_user_is_round_robin(data, jitter, quantum, half_life):
    # A user's processes share one FIFO in every quantized mode, and usage
    # only orders users, so with one user fair share must dispatch exactly
    # as round robin, bit for bit, through any churn of that user.
    user = UserAlloc("u", data.draw(st.integers(1, 9)), data.draw(st.booleans()))
    h = ShareHierarchy(user.shares, (GroupAlloc("G", user.shares, (user,)),))
    w = WorkloadSpec((ClassLoad("u", data.draw(st.integers(1, 5)),
                                data.draw(st.floats(0.0, 2.0)), data.draw(st.floats(0.001, 1.0))),))
    times = sorted(data.draw(st.lists(st.sampled_from((0.0, 1.0, 2.5, 3.0, 4.05)), max_size=4)))
    timeline = tuple(
        TimelineEvent(t, data.draw(st.sampled_from(("activate", "deactivate"))), "u")
        for t in times
    )
    traces = [
        run_sim(h, w, timeline, SimConfig(duration=6.0, warmup=1.0, quantum=quantum, mode=mode,
                                          seed=3, usage_half_life=half_life, think_jitter=jitter))
        for mode in (sim.TS_ROUNDROBIN, FAIRSHARE_FLAT, FAIRSHARE_HIERARCHICAL)
    ]
    rr, flat, hier = ((tr.cycles, tr.fractions, tr.busy, tr.perf.rows, tr.perf.notes)
                      for tr in traces)
    assert flat == rr
    assert hier == rr


def reference_run_fluid_ps(h, w, timeline, config):
    """The fluid engine as it was before processor sharing moved to virtual
    time: every step scans every ready process.  Kept as an oracle."""
    duration = config.duration
    window_seconds = config.window
    # Every ready process sits in the core's run_queue, which the core itself
    # clears of a user who leaves, so the oracle has nothing to drop then.
    core = sim._Core(h, w, timeline, config, lambda t: t, lambda user: None)
    ready = core.run_queue
    window_busy = core.window_busy
    post_busy = core.post_busy

    next_edge = 1  # window edge index; warmup is handled as its own boundary
    now = 0.0
    while now < duration - sim._TIME_EPS:
        horizon = min(duration, core.release(now + sim._TIME_EPS, now))

        if not ready:
            # On to the next event, wakeup or the end, which is past now + _TIME_EPS:
            # release() leaves no key at or below it, and duration is past it.
            now = horizon
            continue

        k = len(ready)
        min_rem = min(p.remaining for p in ready)
        boundary = min(horizon, now + min_rem * k)
        while next_edge * window_seconds <= now + sim._TIME_EPS:
            next_edge += 1
        boundary = min(boundary, next_edge * window_seconds)
        if config.warmup > now + sim._TIME_EPS:
            boundary = min(boundary, config.warmup)

        delta = boundary - now
        if delta > sim._TIME_EPS:
            per = delta / k
            busy = window_busy[int((now + sim._TIME_EPS) // window_seconds)]
            post = now >= config.warmup - sim._TIME_EPS
            for p in ready:
                p.remaining -= per
                busy[p.user] += per
                if post:
                    post_busy[p.user] += per
        now = boundary

        finished = [p for p in ready if p.remaining <= sim._TIME_EPS]
        if finished:
            kept = [p for p in ready if p.remaining > sim._TIME_EPS]
            ready.clear()
            ready.extend(kept)
            for p in finished:
                core.finish_cycle(p, now, now)

    return core.trace(window_seconds, duration - config.warmup)


# Small processor-sharing runs: demands below, at and above a second, and
# think times of none, a fraction of a demand and several demands.
PS_DEMANDS = (0.013, 0.1, 0.37, 1.0, 1.7)
PS_THINKS = (0.0, 0.05, 1.0, 2.5)
# Completion times, window fractions and busy times of two engines that
# round differently may differ by this much, in seconds or as a fraction.
PS_TOLERANCE = 1e-9


# A closed processor-sharing system with thinkers amplifies a rounding gap
# from cycle to cycle, so the engine and its reference, which add in
# different orders, part in the end, with think jitter or without.  Over
# 20,000 drawn runs with thinkers, timed by the thinkers' expected
# completions (procs / (think + demand) a second, summed), the first
# completion more than PS_TOLERANCE apart came after 304 of them with
# jitter and 1,126 without, and no gap passed 1e-10 s within 100.  So runs
# with thinkers are compared over their first 100 expected completions;
# longer ones are checked statistically (criterion 08 and TestPsReference).
FLUID_HORIZON = 100.0


def fluid_span(w, duration):
    """The first seconds of a run of w that hold FLUID_HORIZON expected
    think completions, at least 0.5 s and at most duration."""
    per_s = sum(c.procs / (c.think + c.demand) for c in w.classes if c.think)
    return min(duration, max(0.5, FLUID_HORIZON / per_s)) if per_s else duration


@st.composite
def ps_runs(draw, thinks=PS_THINKS, events=True):
    """(hierarchy, workload, timeline, config) of a drawn ts-ps-reference
    run of 1-4 users with 1-3 processes each, up to 100 simulated seconds."""
    names = [f"u{j}" for j in range(draw(st.integers(1, 4)))]
    h = pool(*((name, 1, draw(st.booleans())) for name in names))
    w = WorkloadSpec(tuple(
        ClassLoad(name, draw(st.integers(1, 3)), draw(st.sampled_from(thinks)),
                  draw(st.sampled_from(PS_DEMANDS)))
        for name in names
    ))
    duration = draw(st.sampled_from((3.0, 20.0, 45.5, 100.0)))
    warmup = draw(st.sampled_from((0.0, 1.0, 2.25)))
    # Events both on window edges and between them, within the span that
    # test_fluid_engine_matches_the_reference_engine compares.
    span = fluid_span(w, duration)
    times = draw(st.lists(st.one_of(st.integers(0, int(span)).map(float),
                                    st.floats(0.0, span)), max_size=4 if events else 0))
    timeline = tuple(
        TimelineEvent(t, draw(st.sampled_from(("activate", "deactivate"))),
                      draw(st.sampled_from(names)))
        for t in sorted(times)
    )
    config = SimConfig(
        duration=duration,
        warmup=warmup,
        window=draw(st.sampled_from((0.5, 1.0, 2.5, 10.0))),
        mode=sim.TS_PS_REFERENCE,
        seed=draw(st.integers(0, 9)),
        think_jitter=draw(st.booleans()),
    )
    return h, w, timeline, config


def within_fluid_horizon(w, config):
    """config cut to the first FLUID_HORIZON expected think completions."""
    duration = fluid_span(w, config.duration)
    if duration == config.duration:
        return config
    return config._replace(duration=duration, warmup=min(config.warmup, duration / 2))


def per_process_cycles(trace):
    """{(user, process): [(ready, completed), ...]} in completion order."""
    cycles = {}
    for user, records in trace.cycles.items():
        for index, ready, done in records:
            cycles.setdefault((user, index), []).append((ready, done))
    return cycles


def assert_same_fluid_run(h, w, timeline, config):
    """The engine and the oracle finish the same cycles of every process,
    at the same times to within PS_TOLERANCE, and record the same busy time."""
    got = run_sim(h, w, timeline, config)
    want = reference_run_fluid_ps(h, w, timeline, config)
    got_cycles, want_cycles = per_process_cycles(got), per_process_cycles(want)
    assert got_cycles.keys() == want_cycles.keys()
    for proc, expected in want_cycles.items():
        assert len(got_cycles[proc]) == len(expected), proc
        for got_times, want_times in zip(got_cycles[proc], expected):
            assert got_times == pytest.approx(want_times, rel=0, abs=PS_TOLERANCE), proc
    assert len(got.fractions) == len(want.fractions)
    for got_window, want_window in zip(got.fractions, want.fractions):
        assert got_window == pytest.approx(want_window, rel=0, abs=PS_TOLERANCE)
    assert got.busy == pytest.approx(want.busy, rel=0, abs=PS_TOLERANCE)
    assert (got.users, got.elapsed, got.events_applied, got.warnings) == (
        want.users, want.elapsed, want.events_applied, want.warnings)


@settings(max_examples=60, deadline=None)
@given(run=ps_runs())
# Drawn once in a full test run: uncut, u0's process completes 1.36e-9 s
# apart at 39.476 s.  u1's class was not recorded; u1 is inactive, so it does not
# change the run.
@example(run=(pool(("u0", 1, True), ("u1", 1, False), ("u2", 1, True), ("u3", 1, True)),
              WorkloadSpec((ClassLoad("u0", 1, 0.05, 0.013), ClassLoad("u1", 1, 0.0, 0.013),
                            ClassLoad("u2", 3, 0.05, 0.1), ClassLoad("u3", 2, 1.0, 0.013))),
              (), SimConfig(duration=45.5, window=0.5, mode=sim.TS_PS_REFERENCE)))
def test_fluid_engine_matches_the_reference_engine(run):
    h, w, timeline, config = run
    config = within_fluid_horizon(w, config)
    assert all(ev.time <= config.duration for ev in timeline)
    assert_same_fluid_run(h, w, timeline, config)


@pytest.mark.parametrize("jitter", [False, True])
@pytest.mark.parametrize("name", ["example-2-2", "report1", "report2", "report3", "report4",
                                  "report5", "mixed", "crowd40"])
def test_fluid_engine_matches_the_reference_engine_on_the_digest_fixtures(
        scenario_dir, name, jitter):
    # The pinned processor-sharing runs, jittered ones included: 80 s is
    # short enough here for think draws to keep to the same processes.
    text = {"mixed": MIXED_SCENARIO, "crowd40": crowd_scenario()}.get(name)
    s = parse_scenario(text or (scenario_dir / f"{name}.fsp").read_text(), label=name)
    config = SimConfig(duration=80.0, warmup=5.0, mode=sim.TS_PS_REFERENCE, think_jitter=jitter)
    assert_same_fluid_run(s.hierarchy, s.workload, s.timeline, config)


@settings(max_examples=40, deadline=None)
@given(run=ps_runs(events=False))
def test_fluid_windows_hold_at_most_the_cpu(run):
    h, w, timeline, config = run
    trace = run_sim(h, w, timeline, config)
    for fractions in trace.fractions:
        assert sum(fractions.values()) <= 1.0 + 1e-9


@settings(max_examples=25, deadline=None)
@given(run=ps_runs(thinks=(0.0,), events=False))
def test_cpu_bound_users_split_every_fluid_window_by_process_count(run):
    # A CPU-bound process is always ready, so each of the k ready processes
    # gets 1/k of every window, and a user its processes' part of it.
    h, w, timeline, config = run
    trace = run_sim(h, w, timeline, config)
    active = {u.name for u in h.users() if u.active}
    procs = {c.user: c.procs if c.user in active else 0 for c in w.classes}
    total = sum(procs.values())
    for fractions in trace.fractions:
        for user, n in procs.items():
            assert fractions[user] == pytest.approx(n / total if total else 0.0, rel=0, abs=1e-9)


def cycle_bound(w, config):
    """run_sim's worst case of completed cycles, derived from its docstring:
    S / demand per class, or at most procs a quantum for a quantized class
    with think time, where S is the duration or the whole quanta it rounds to."""
    ticks = round(config.duration / config.quantum)
    seconds = max(config.duration, ticks * config.quantum)
    quantized = config.mode != sim.TS_PS_REFERENCE
    return sum(min(seconds / c.demand, c.procs * ticks if quantized and c.think else math.inf)
               for c in w.classes)


@settings(max_examples=40, deadline=None)
@given(run=ps_runs(), mode=st.sampled_from(SIM_MODES), quantum=st.sampled_from((0.01, 0.1)))
def test_completed_cycles_stay_within_the_cycle_bound(run, mode, quantum):
    # At 0.1 s quanta a process of demand 0.013 thinking 0.05 s completes
    # one cycle a quantum when it runs alone, so procs x quanta binds.
    h, w, timeline, config = run
    config = config._replace(mode=mode, quantum=quantum)
    trace = run_sim(h, w, timeline, config)
    assert sum(len(c) for c in trace.cycles.values()) <= cycle_bound(w, config)


@settings(max_examples=60, deadline=None)
@given(run=ps_runs(), mode=st.sampled_from(SIM_MODES), quantum=st.floats(0.01, 0.3),
       duration=st.floats(1.0, 20.0), warmup_share=st.sampled_from((0.0, 0.25)))
# a's three processes each complete a cycle in the first 0.3 s quantum and
# then wait out b's two quanta, so renewal spans that end at a process's
# last completion once gave a a U of 1.83.
@example(run=(pool(("a", 1, True), ("b", 1, True)),
              WorkloadSpec((ClassLoad("a", 3, 0.0, 0.1), ClassLoad("b", 2, 0.0, 1.0))),
              (), SimConfig(duration=1.0)),
         mode=sim.TS_ROUNDROBIN, quantum=0.3, duration=1.0, warmup_share=0.0)
def test_simulated_rows_hold_at_most_the_cpu(run, mode, quantum, duration, warmup_share):
    # Each row's U is its user's busy-time fraction and X is U / D, so the
    # table's U sums to at most 1 and U = X D, whatever the run.
    h, w, timeline, config = run
    config = config._replace(mode=mode, quantum=quantum, duration=duration,
                             warmup=warmup_share * duration)
    trace = run_sim(h, w, timeline, config)
    total = 0.0
    for c in w.classes:
        row = trace.perf.rows.get(c.user)
        if row is not None:
            assert row.utilization == trace.utilization(c.user)
            assert row.throughput * c.demand == pytest.approx(row.utilization, rel=1e-12)
            total += row.utilization
    assert total <= 1.0 + 1e-9
