"""Share advisor and ps-log goal monitoring."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairshare.errors import InfeasiblePlanError, PsLogError, ValidationError
from fairshare.planning import (
    SLOTarget,
    allocate_topdown,
    goal_deviation,
    parse_ps_log,
    parse_slo_file,
    render_deviation,
    render_plan,
)
from fairshare.shares import GroupAlloc, ShareHierarchy, UserAlloc, compute_entitlements


class TestAllocateTopdown:
    def test_two_targets_leave_residual(self):
        plan = allocate_topdown(
            [SLOTarget("A", u_max=0.5), SLOTarget("B", u_max=0.3)], 100
        )
        assert plan.shares == {"A": 50, "B": 30}
        assert plan.residual == 20
        assert plan.verdict == "feasible"

    def test_single_target(self):
        plan = allocate_topdown([SLOTarget("only", u_max=0.9)], 10)
        assert plan.shares == {"only": 9}
        assert plan.residual == 1

    def test_infeasible_recommends_splitting(self):
        with pytest.raises(InfeasiblePlanError, match="split groups across separate servers"):
            allocate_topdown([SLOTarget("A", u_max=0.7), SLOTarget("B", u_max=0.5)], 100)

    def test_largest_remainder_breaks_ties_deterministically(self):
        plan = allocate_topdown(
            [SLOTarget(n, u_max=0.333) for n in ("A", "B", "C")], 10
        )
        assert plan.shares == {"A": 4, "B": 3, "C": 3}
        assert plan.residual == 0

    def test_every_target_gets_at_least_one_share(self):
        plan = allocate_topdown(
            [SLOTarget("tiny", u_max=0.001), SLOTarget("big", u_max=0.9)], 20
        )
        assert plan.shares["tiny"] == 1

    def test_response_target_tightens_requirement(self):
        # R = D/E means meeting R <= 2.5 with D = 1 needs E >= 0.4
        plan = allocate_topdown(
            [SLOTarget("svc", u_max=0.25, demand=1.0, r_slo=2.5)], 100
        )
        assert plan.shares["svc"] == 40

    def test_commands_emitted_per_workload(self):
        plan = allocate_topdown(
            [SLOTarget("A", u_max=0.5), SLOTarget("B", u_max=0.3)], 100
        )
        assert plan.commands == (
            "limadm set cpu.shares=50 A",
            "limadm set cpu.shares=30 B",
        )
        text = render_plan(plan)
        assert "limadm set cpu.shares=50 A" in text

    def test_too_few_shares_rejected(self):
        with pytest.raises(ValidationError):
            allocate_topdown([SLOTarget("A", u_max=0.2), SLOTarget("B", u_max=0.2)], 1)

    def test_target_validation(self):
        with pytest.raises(ValidationError):
            SLOTarget("bad", u_max=0.0).validate()
        with pytest.raises(ValidationError):
            SLOTarget("bad", u_max=1.2).validate()
        with pytest.raises(ValidationError, match="needs a demand"):
            SLOTarget("bad", u_max=0.5, r_slo=2.0).validate()
        with pytest.raises(ValidationError, match="below the demand"):
            SLOTarget("bad", u_max=0.5, demand=2.0, r_slo=1.0).validate()


    @pytest.mark.parametrize("demand", [math.nan, math.inf, 0.0, -1.0])
    def test_target_demand_must_be_finite_and_positive(self, demand):
        with pytest.raises(ValidationError, match="demand must be"):
            SLOTarget("bad", u_max=0.5, demand=demand)

    @pytest.mark.parametrize("r_slo", [math.nan, math.inf])
    def test_target_rslo_must_be_finite(self, r_slo):
        with pytest.raises(ValidationError, match="rslo must be finite"):
            SLOTarget("bad", u_max=0.5, demand=1.0, r_slo=r_slo)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.01, max_value=0.5), min_size=1, max_size=5
    ),
    st.integers(min_value=10, max_value=500),
)
def test_plan_conserves_and_dominates(umaxes, total):
    targets = [SLOTarget(f"w{i}", u_max=round(u, 4)) for i, u in enumerate(umaxes)]
    required = sum(t.u_max for t in targets)
    if required > 1.0 or total < len(targets):
        return
    plan = allocate_topdown(targets, total)
    assert sum(plan.shares.values()) + plan.residual == total
    for t in targets:
        assert plan.shares[t.name] / total >= t.u_max - 1.0 / total - 1e-12


class TestSloFile:
    def test_parse(self):
        targets = parse_slo_file(
            "# comment\ntarget FIN umax=0.5 demand=1.0 rslo=2.5\ntarget WEB umax=0.3\n"
        )
        assert targets[0] == SLOTarget("FIN", u_max=0.5, demand=1.0, r_slo=2.5)
        assert targets[1] == SLOTarget("WEB", u_max=0.3)

    def test_bad_line(self):
        with pytest.raises(ValidationError, match="line 1"):
            parse_slo_file("workload FIN umax=0.5")

    def test_empty(self):
        with pytest.raises(ValidationError, match="no targets"):
            parse_slo_file("# nothing\n")


PS_LOG = """\
T 1000
alice 4242 55.5 1.0 100 200 pts/1 R 10:00 2:05 crunch
bob 4300 44.0 0.5 80 100 pts/2 R 10:01 1:00 serve -p 80
T 1060
alice 4242 55.0 1.0 100 200 pts/1 R 10:00 3:05 crunch
bob 4300 44.0 0.5 80 100 pts/2 R 10:01 1:40 serve -p 80
"""


class TestParsePsLog:
    def test_basic_record(self):
        log = parse_ps_log(PS_LOG)
        first = log.samples[0]
        assert first.timestamp == 1000.0
        assert first.user == "alice"
        assert first.pid == 4242
        assert first.pcpu == 55.5
        assert first.cputime == 125.0
        assert log.skipped == 0

    def test_hours_minutes_seconds(self):
        log = parse_ps_log("T 5\nu 1 0.0 0.0 1 1 ?? S 0:00 1:02:03 cmd\n")
        assert log.samples[0].cputime == 3723.0

    def test_malformed_lines_are_counted(self):
        noisy = "T 1000\nUSER PID %CPU %MEM SZ RSS TT S START TIME COMMAND\n" + \
            "alice 4242 55.5 1.0 100 200 pts/1 R 10:00 2:05 crunch\nnot a sample\n"
        log = parse_ps_log(noisy)
        assert len(log.samples) == 1
        assert log.skipped == 2

    def test_zero_samples_is_an_error(self):
        with pytest.raises(PsLogError, match="zero parseable samples"):
            parse_ps_log("T 1000\n")

    def test_samples_before_any_timestamp_are_skipped(self):
        log = parse_ps_log(
            "alice 4242 55.5 1.0 100 200 pts/1 R 10:00 2:05 crunch\n" + PS_LOG
        )
        assert log.skipped == 1


    @pytest.mark.parametrize("bad", ["T nan", "T inf", "alice 4242 55.0 1.0 100 200 pts/1 R 10:00 1:nan x"])
    def test_non_finite_numbers_are_malformed(self, bad):
        log = parse_ps_log(PS_LOG.replace("T 1060", f"{bad}\nT 1060"))
        assert log.skipped == 1
        assert [s.timestamp for s in log.samples] == [1000.0, 1000.0, 1060.0, 1060.0]

    @pytest.mark.parametrize("header", ["T nan", "T 10:00"])
    def test_lines_under_a_bad_header_are_skipped(self, header):
        log = parse_ps_log(PS_LOG.replace("T 1060", header))
        assert log.skipped == 3
        assert [s.timestamp for s in log.samples] == [1000.0, 1000.0]


def equal_table(*names):
    total = len(names)
    h = ShareHierarchy(
        total, (GroupAlloc("G", total, tuple(UserAlloc(n, 1, True) for n in names)),)
    )
    return compute_entitlements(h)


def synth_log(rows):
    """rows: list of (timestamp, user, pid, cputime-seconds)."""
    lines = []
    current = None
    for ts, user, pid, cpu in rows:
        if ts != current:
            lines.append(f"T {ts}")
            current = ts
        minutes, seconds = divmod(int(round(cpu)), 60)
        lines.append(f"{user} {pid} 0.0 0.0 1 1 ?? R 0:00 {minutes}:{seconds:02d} cmd")
    return "\n".join(lines) + "\n"


class TestGoalDeviation:
    def test_sixty_forty_split(self):
        table = equal_table("a", "b")
        log = parse_ps_log(
            synth_log([(0, "a", 1, 0), (0, "b", 2, 0), (100, "a", 1, 60), (100, "b", 2, 40)])
        )
        report = goal_deviation(log.samples, table, window=100.0)
        rows = report.windows[0].rows
        assert rows["a"].achieved == pytest.approx(0.6)
        assert rows["b"].achieved == pytest.approx(0.4)
        assert rows["a"].deviation == pytest.approx(+0.1)
        assert rows["b"].deviation == pytest.approx(-0.1)
        assert report.exceeded  # default threshold 0.05

    def test_single_observed_user_has_zero_deviation(self):
        table = equal_table("a", "b")
        log = parse_ps_log(synth_log([(0, "a", 1, 0), (100, "a", 1, 60)]))
        report = goal_deviation(log.samples, table, window=100.0)
        rows = report.windows[0].rows
        assert rows["a"].achieved == 1.0
        assert rows["a"].deviation == pytest.approx(0.0)

    def test_unknown_users_pool_under_unallocated(self):
        table = equal_table("a", "b")
        log = parse_ps_log(
            synth_log([(0, "a", 1, 0), (0, "zz", 9, 0), (100, "a", 1, 60), (100, "zz", 9, 60)])
        )
        report = goal_deviation(log.samples, table, window=100.0)
        rows = report.windows[0].rows
        assert rows["unallocated"].achieved == pytest.approx(0.5)
        assert rows["unallocated"].entitled == 0.0

    def test_window_longer_than_span_rejected(self):
        table = equal_table("a")
        log = parse_ps_log(synth_log([(0, "a", 1, 0), (50, "a", 1, 30)]))
        with pytest.raises(ValidationError, match="span"):
            goal_deviation(log.samples, table, window=100.0)

    def test_scale_invariance(self):
        table = equal_table("a", "b")
        rows = [(0, "a", 1, 0), (0, "b", 2, 0), (100, "a", 1, 30), (100, "b", 2, 20)]
        scaled = [(t, u, p, c * 10) for t, u, p, c in rows]
        r1 = goal_deviation(parse_ps_log(synth_log(rows)).samples, table, window=100.0)
        r2 = goal_deviation(parse_ps_log(synth_log(scaled)).samples, table, window=100.0)
        for user in ("a", "b"):
            assert r1.windows[0].rows[user].achieved == pytest.approx(
                r2.windows[0].rows[user].achieved
            )

    def test_proportional_log_is_within_rounding(self):
        # busy time generated exactly proportional to entitlements
        table = equal_table("a", "b", "c")
        rows = []
        for k in range(5):
            t = 100 * k
            for user, pid in (("a", 1), ("b", 2), ("c", 3)):
                rows.append((t, user, pid, 100 * k / 3))
        report = goal_deviation(parse_ps_log(synth_log(rows)).samples, table, window=100.0)
        assert report.max_abs_deviation <= 0.01

    def test_render_flags_exceeding_rows(self):
        table = equal_table("a", "b")
        log = parse_ps_log(
            synth_log([(0, "a", 1, 0), (0, "b", 2, 0), (100, "a", 1, 60), (100, "b", 2, 40)])
        )
        report = goal_deviation(log.samples, table, window=100.0, threshold=0.05)
        text = render_deviation(report)
        assert "EXCEEDED" in text
        assert "*" in text

    @pytest.mark.parametrize("window, threshold", [(math.nan, 0.05), (math.inf, 0.05),
                                                   (100.0, math.nan), (100.0, math.inf)])
    def test_window_and_threshold_must_be_finite(self, window, threshold):
        log = parse_ps_log(synth_log([(0, "a", 1, 0), (100, "a", 1, 60)]))
        with pytest.raises(ValidationError, match="must be finite"):
            goal_deviation(log.samples, equal_table("a"), window, threshold)

    def test_reused_pid_starts_a_new_process(self):
        # pid 1 exits after 100 s; a new process takes the pid at 0:00
        rows = [(0, "a", 1, 0), (0, "b", 2, 0), (100, "a", 1, 50), (100, "b", 2, 50),
                (110, "a", 1, 0), (110, "b", 2, 50), (200, "a", 1, 45), (200, "b", 2, 95)]
        report = goal_deviation(parse_ps_log(synth_log(rows)).samples, equal_table("a", "b"),
                                window=100.0)
        assert [w.rows["a"].achieved for w in report.windows] == [0.5, 0.5]
