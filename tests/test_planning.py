"""Share advisor and ps-log goal monitoring."""

import io
import math
import random
import tracemalloc
from functools import reduce
from operator import add

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fairshare.errors import (InfeasiblePlanError, PopulationGuardError, PsLogError,
                             ScenarioParseError, ValidationError)
from fairshare.planning import (
    MAX_WINDOWS,
    UNALLOCATED,
    DeviationReport,
    DeviationRow,
    DeviationWindow,
    PsLog,
    SLOTarget,
    UsageSample,
    allocate_topdown,
    goal_deviation,
    parse_ps_log,
    parse_slo_file,
    render_deviation,
    render_plan,
)
from fairshare.shares import GroupAlloc, ShareHierarchy, UserAlloc, compute_entitlements

from builders import equal_table


class TestAllocateTopdown:
    def test_two_targets_leave_residual(self):
        plan = allocate_topdown(
            [SLOTarget("A", u_max=0.5), SLOTarget("B", u_max=0.3)], 100
        )
        assert plan.shares == {"A": 50, "B": 30}
        assert plan.residual == 20
        assert render_plan(plan).startswith("Share plan: 100 total shares, 20 residual (feasible)\n")

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

    def test_no_targets_rejected(self):
        with pytest.raises(ValidationError, match="^no targets given$"):
            allocate_topdown([], 100)

    def test_duplicate_target_names_rejected(self):
        with pytest.raises(ValidationError, match="^duplicate target 'A'$"):
            allocate_topdown([SLOTarget("A", u_max=0.2), SLOTarget("A", u_max=0.3)], 100)

    def test_too_few_shares_rejected(self):
        with pytest.raises(ValidationError):
            allocate_topdown([SLOTarget("A", u_max=0.2), SLOTarget("B", u_max=0.2)], 1)

    def test_one_share_floor_past_the_total_is_refused(self):
        targets = [SLOTarget("A", u_max=0.98), SLOTarget("B", u_max=0.01), SLOTarget("C", u_max=0.01)]
        with pytest.raises(InfeasiblePlanError,
                           match=r"needs 4 shares, more than the total of 3; use a larger --total-shares"):
            allocate_topdown(targets, 3)

    def test_quota_noise_seats_no_share_past_the_total(self):
        # The quotas' float sum overshoots 3000000007 by more than the snapping tolerance.
        total = 3_000_000_007
        plan = allocate_topdown(
            [SLOTarget("A", u_max=0.3493), SLOTarget("B", u_max=0.5167), SLOTarget("C", u_max=0.134)],
            total,
        )
        assert plan.residual >= 0
        assert sum(plan.shares.values()) + plan.residual == total

    def test_target_validation(self):
        with pytest.raises(ValidationError):
            SLOTarget("bad", u_max=0.0)
        with pytest.raises(ValidationError):
            SLOTarget("bad", u_max=1.2)
        with pytest.raises(ValidationError, match="needs a demand"):
            SLOTarget("bad", u_max=0.5, r_slo=2.0)
        with pytest.raises(ValidationError, match="below the demand"):
            SLOTarget("bad", u_max=0.5, demand=2.0, r_slo=1.0)


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
@example([0.5, 0.47, 0.01, 0.01, 0.01], 10)
def test_plan_conserves_and_dominates(umaxes, total):
    targets = [SLOTarget(f"w{i}", u_max=round(u, 4)) for i, u in enumerate(umaxes)]
    required = sum(t.u_max for t in targets)
    if required > 1.0 or total < len(targets):
        return
    floored = sum(max(1, math.floor(t.u_max * total + 1e-9)) for t in targets)
    try:
        plan = allocate_topdown(targets, total)
    except InfeasiblePlanError:
        assert floored > total
        return
    assert plan.residual >= 0
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

    @pytest.mark.parametrize("sep", ["\x0c", "\x85", "\u2028"])
    def test_a_comment_runs_to_the_end_of_its_text_line(self, sep):
        targets = parse_slo_file(f"target FIN umax=0.5\n# note{sep}target x umax=0.5\n")
        assert targets == [SLOTarget("FIN", u_max=0.5)]

    def test_empty(self):
        with pytest.raises(ValidationError, match="no targets"):
            parse_slo_file("# nothing\n")

    def test_duplicate_key_names_line_and_column(self):
        with pytest.raises(ScenarioParseError) as exc:
            parse_slo_file("target A umax=0.9 umax=0.2\n")
        assert str(exc.value) == "line 1, col 19: duplicate key 'umax'"
        assert (exc.value.line, exc.value.column) == (1, 19)

    def test_repeated_token_names_its_own_column(self):
        with pytest.raises(ScenarioParseError) as exc:
            parse_slo_file("target A umax=0.5 umax=0.5\n")
        assert str(exc.value) == "line 1, col 19: duplicate key 'umax'"

    def test_key_inside_an_earlier_token_names_its_own_column(self):
        with pytest.raises(ScenarioParseError) as exc:
            parse_slo_file("target A aumax=x umax=x\n")
        assert str(exc.value) == "line 1, col 18: bad value for umax: 'x'"

    def test_duplicate_target_names_its_line(self):
        with pytest.raises(ScenarioParseError) as exc:
            parse_slo_file("target A umax=0.2\ntarget A umax=0.3\n")
        assert str(exc.value) == "line 2: duplicate target 'A'"

    def test_key_in_name_position(self):
        with pytest.raises(ValidationError, match="^line 1: expected: target <name>"):
            parse_slo_file("target umax=0.5 umax=0.3\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("target A umax=x color=red\n", "line 1, col 10: bad value for umax: 'x'"),
            ("target A demand=1 color=red\n", "line 1: missing umax="),
            ("target A umax=0.5 rslo=x color=red\n", "line 1, col 19: bad value for rslo: 'x'"),
            ("target A umax=2 color=red\n", "line 1, col 17: unknown key 'color' on target line"),
            ("target A umax=0.5\ntarget A umax=x\n", "line 2: duplicate target 'A'"),
            ("target umax=0.5 color=red\n",
             "line 1: expected: target <name> umax=<float> [demand=<float>] [rslo=<float>]"),
        ],
    )
    def test_two_faults_give_the_pinned_diagnostic(self, text, message):
        with pytest.raises(ScenarioParseError) as exc:
            parse_slo_file(text)
        assert str(exc.value) == message

    def test_out_of_range_value_names_its_line(self):
        with pytest.raises(ValidationError, match=r"^line 2: target B: u_max"):
            parse_slo_file("target A umax=0.2\ntarget B umax=nan\n")


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

    @pytest.mark.parametrize("cputime", [f"{'9' * 400}:00", f"{'9' * 400}:00:00"],
                             ids=["minutes", "hours"])
    def test_time_too_large_for_a_float_is_malformed(self, cputime):
        log = parse_ps_log(PS_LOG.replace("T 1060", f"alice 1 0.0 0.0 1 1 ?? R 0:00 {cputime} x\nT 1060"))
        assert log.skipped == 1
        assert len(log.samples) == 4

    def test_cpu_column_is_not_read(self):
        log = parse_ps_log(PS_LOG.replace("4242 55.0", "4242 n/a"))
        assert log.skipped == 0
        assert [s.cputime for s in log.samples] == [125.0, 60.0, 185.0, 100.0]

    def test_samples_index_and_compare_as_a_list_does(self):
        log = parse_ps_log(PS_LOG)
        listed = list(log.samples)
        assert len(log.samples) == len(listed) == 4
        assert [log.samples[i] for i in range(-4, 4)] == listed + listed
        assert log.samples[1:3] == listed[1:3]
        assert log.samples == listed and listed == log.samples
        assert log.samples != listed[:3] and log.samples != tuple(listed)
        assert repr(log.samples) == f"SampleColumns({listed!r})"

    @pytest.mark.parametrize("header", ["T nan", "T 10:00"])
    def test_lines_under_a_bad_header_are_skipped(self, header):
        log = parse_ps_log(PS_LOG.replace("T 1060", header))
        assert log.skipped == 3
        assert [s.timestamp for s in log.samples] == [1000.0, 1000.0]


def reference_parse_ps_log(stream) -> PsLog:
    """The monitor's ps-log parser before the per-line work was made lean,
    kept as an oracle for its accept and skip rules."""

    def parse_cputime(text):
        parts = text.split(":")
        if len(parts) == 2:
            minutes, seconds = parts
            hours = "0"
        elif len(parts) == 3:
            hours, minutes, seconds = parts
        else:
            raise ValueError(text)
        # ps prints no sign, seconds below 60 and, after hours, minutes below 60.
        if "-" in text or not float(seconds) < 60 or (len(parts) == 3 and int(minutes) >= 60):
            raise ValueError(text)
        total = int(hours) * 3600.0 + int(minutes) * 60.0 + float(seconds)
        if not math.isfinite(total):
            raise ValueError(text)
        return total

    if isinstance(stream, str):
        stream = stream.splitlines()
    samples = []
    skipped = 0
    timestamp = None
    for raw in stream:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split(None, 10)
        if tokens[0] == "T" and len(tokens) == 2:
            try:
                timestamp = float(tokens[1])
                if not math.isfinite(timestamp):
                    raise ValueError(tokens[1])
            except ValueError:
                timestamp = None
                skipped += 1
            continue
        if timestamp is None or len(tokens) < 10:
            skipped += 1
            continue
        try:
            samples.append(UsageSample(timestamp=timestamp, user=tokens[0], pid=int(tokens[1]),
                                       cputime=parse_cputime(tokens[9])))
        except ValueError:
            skipped += 1
    if not samples:
        raise PsLogError("zero parseable samples in log")
    return PsLog(samples=samples, skipped=skipped)


PS_PADDING = ("", " ", "\t", "  \t ", "\xa0", "\u3000")  # the last two are non-ASCII spaces
# Odd values that parse come first; each pool is drawn from with the
# well-formed values weighted up, so that most soups hold some samples.
PS_HEADERS = ("0", "1000", "-5.5", "1e3") * 3 + (
    "nan", "inf", "-inf", "10:00", "0x10", "1 2", "7 x")
PS_PIDS = ("7", "4242", "+7", "-3", "1_000", "007", "٣") * 3 + ("x", "1.5")
PS_TIMES = ("0:00", "2:05", "1:02:03", "12:34.50", "1_0:00", "٣:00", "1:2e1") * 2 + (
    "1:02:03:04", ":5", "1:nan", "1:inf", "5", "xx", "n/a", "1::2",
    "1:-5", "-1:00", "0:75", "1:60:00", "0:1e308")


@st.composite
def ps_log_texts(draw):
    """Line soups for the ps-log parser: comments, blank and padded lines,
    good and bad ``T`` headers, column headers, short lines and ps lines
    with odd pids and TIME values."""
    lines = ["T 0"] if draw(st.booleans()) else []
    for kind in draw(st.lists(st.sampled_from(
            ("blank", "comment", "header", "columns", "short", "ps", "ps", "ps")), max_size=25)):
        if kind == "blank":
            line = ""
        elif kind == "comment":
            line = draw(st.sampled_from(("# note", "#", "#T 5", "# a 1 0 0 1 1 ?? R 0:00 1:00")))
        elif kind == "header":
            line = "T " + draw(st.sampled_from(PS_HEADERS))
        elif kind == "columns":
            line = "USER PID %CPU %MEM SZ RSS TT S START TIME COMMAND"
        elif kind == "short":
            line = draw(st.sampled_from(("T", "a 1 2", "a 1 0 0 1 1 ?? R 0:00", "truncated line")))
        else:
            user = draw(st.sampled_from(("a", "b", "root", "ü")))
            pid = draw(st.sampled_from(PS_PIDS))
            cputime = draw(st.sampled_from(PS_TIMES))
            command = draw(st.sampled_from(("", " cmd", " job -x 1", " a b c d")))
            line = f"{user} {pid} 1.0 0.4 900 300 ?? R 9:00 {cputime}{command}"
        lines.append(draw(st.sampled_from(PS_PADDING)) + line + draw(st.sampled_from(PS_PADDING)))
    return "\n".join(lines) + draw(st.sampled_from(("", "\n")))


def test_a_string_breaks_lines_where_a_text_file_does(tmp_path):
    # str.splitlines() would also break this COMMAND at \x85, \x0b, \x0c,
    # \x1c-\x1e, \u2028 and \u2029; a text file breaks only at \n, \r\n and \r.
    text = ("T 0\r\nalice 1 1.0 0 0 0 ? S 10:00 0:01 job\x85a\x0bb\x0cc\x1cd\x1de\x1ef"
            "\u2028g\u2029h 1 2 3 4 5 6 7 8 0:00\rT 60\nalice 1 1.0 0 0 0 ? S 10:00 0:31 job\n")
    path = tmp_path / "odd.log"
    path.write_bytes(text.encode())
    with open(path, encoding="utf-8") as fh:
        from_file = parse_ps_log(fh)
    assert (len(from_file.samples), from_file.skipped) == (2, 0)
    assert parse_ps_log(text) == from_file


def parse_outcome(parse, stream):
    try:
        return parse(stream)
    except PsLogError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(ps_log_texts())
def test_parse_matches_the_reference_parser(text):
    expected = parse_outcome(reference_parse_ps_log, text)
    assert parse_outcome(parse_ps_log, text) == expected
    assert parse_outcome(parse_ps_log, io.StringIO(text)) == expected


def deviation_outcome(samples, window):
    try:
        report = goal_deviation(samples, equal_table("a", "b"), window)
    except (PsLogError, ValidationError) as exc:
        return str(exc)
    return report, render_deviation(report)


@settings(max_examples=150, deadline=None)
@given(ps_log_texts(), st.sampled_from((5.0, 60.0, 500.0)))
def test_parsed_and_listed_samples_give_one_report(text, window):
    # A parsed log's samples are read as columns, a list of them record by
    # record; root and ü are in no table, so they pool as unallocated.
    # Blocks at 0 and 2000 s around the soup give every log a span to window
    # and busy time in it.
    ps = "{} 1.0 0.4 900 300 ?? R 9:00 {}\n".format
    text = ("T 0\n" + ps("a 7", "0:00") + ps("root 4242", "0:00") + text
            + "\nT 2000\n" + ps("a 7", "30:00") + ps("root 4242", "9:00"))
    log = parse_ps_log(text)
    assert deviation_outcome(log.samples, window) == deviation_outcome(list(log.samples), window)


def test_pid_tokens_of_one_int_are_one_process():
    # a's pid is written 7, +7 and 007, and its TIME falls once at 120 s:
    # one process whose reuse starts a new run there, from either entry.
    log = parse_ps_log("T 0\na 7 0 0 1 1 ?? R 0:00 0:10 x\nb 9 0 0 1 1 ?? R 0:00 0:00 x\n"
                       "T 60\na +7 0 0 1 1 ?? R 0:00 0:40 x\nb 9 0 0 1 1 ?? R 0:00 0:30 x\n"
                       "T 120\na 007 0 0 1 1 ?? R 0:00 0:05 x\nb 9 0 0 1 1 ?? R 0:00 1:00 x\n"
                       "T 180\na 7 0 0 1 1 ?? R 0:00 0:25 x\nb 9 0 0 1 1 ?? R 0:00 1:30 x\n")
    assert {(s.user, s.pid) for s in log.samples} == {("a", 7), ("b", 9)}
    for samples in (log.samples, list(log.samples)):
        report = goal_deviation(samples, equal_table("a", "b"), window=60.0)
        assert [{user: row.achieved for user, row in w.rows.items()} for w in report.windows] == [
            {"a": 0.5, "b": 0.5}, {"b": 1.0}, {"a": 0.4, "b": 0.6}]


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

    def test_windows_over_the_budget_rejected(self):
        log = parse_ps_log(synth_log([(0, "a", 1, 0), (60 * (MAX_WINDOWS + 1), "a", 1, 60)]))
        with pytest.raises(PopulationGuardError,
                           match=rf"^{MAX_WINDOWS + 1} windows of 60s in the log span 0s to .* "
                                 rf"exceed {MAX_WINDOWS}, .*; use a larger --window$"):
            goal_deviation(log.samples, equal_table("a"), window=60.0)

    def test_span_past_the_float_range_rejected(self):
        # Each header is finite, but their difference overflows to inf, so
        # no window can help: the error blames the timestamps instead.
        samples = [UsageSample(-1.7e308, "a", 1, 1.0), UsageSample(1.7e308, "a", 1, 2.0)]
        for window in (60.0, 1e308):
            with pytest.raises(ValidationError,
                               match=r"^the log's timestamps run from -1\.7e\+308s to 1\.7e\+308s, "
                                     r"a span past the float range .*T headers are out of range$"):
                goal_deviation(samples, equal_table("a"), window=window)

    def test_windows_past_the_float_range_rejected(self):
        # A finite span in windows so short that their count overflows.
        samples = [UsageSample(0.0, "a", 1, 1.0), UsageSample(1e10, "a", 1, 2.0)]
        with pytest.raises(PopulationGuardError,
                           match=rf"^more than 1\.8e\+308 windows of 1e-300s in the log span 0s to "
                                 rf"1e\+10s exceed {MAX_WINDOWS}, .*; use a larger --window$"):
            goal_deviation(samples, equal_table("a"), window=1e-300)

    def test_window_below_float_spacing_rejected(self):
        # 1e17 + 1.0 == 1e17: window edges would never advance.
        log = parse_ps_log(synth_log([(10**17, "a", 1, 0), (10**17 + 64, "a", 1, 60)]))
        with pytest.raises(ValidationError, match="float spacing 16s"):
            goal_deviation(log.samples, equal_table("a"), window=1.0)
        assert len(goal_deviation(log.samples, equal_table("a"), window=16.0).windows) == 4

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_timestamp_rejected(self, bad):
        samples = [UsageSample(0.0, "a", 1, 0.0), UsageSample(bad, "a", 1, 60.0)]
        with pytest.raises(ValidationError, match="timestamps must be finite"):
            goal_deviation(samples, equal_table("a"), window=10.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_cputime_rejected(self, bad):
        # The parser never gives one; from the library it would make every
        # later window's change NaN.
        samples = [UsageSample(0.0, "a", 1, bad), UsageSample(60.0, "a", 1, 60.0)]
        with pytest.raises(ValidationError, match="cputimes must be finite"):
            goal_deviation(samples, equal_table("a"), window=10.0)

    def test_change_past_the_float_range_warns_nothing(self, recwarn):
        # -1e308 to 1e308 overflows to inf, which would make the window's
        # fractions NaN; numpy must not print a warning on the way.
        samples = [UsageSample(0.0, "a", 1, -1e308), UsageSample(60.0, "a", 1, 1e308),
                   UsageSample(0.0, "b", 2, 0.0), UsageSample(60.0, "b", 2, 30.0)]
        with pytest.raises(ValidationError, match="window 0.0-60.0s: busy time inf"):
            goal_deviation(samples, equal_table("a", "b"), window=60.0)
        assert not recwarn.list

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
                                                   (100.0, math.nan), (100.0, math.inf),
                                                   (100.0, -0.01)])
    def test_window_and_threshold_must_be_finite(self, window, threshold):
        log = parse_ps_log(synth_log([(0, "a", 1, 0), (100, "a", 1, 60)]))
        with pytest.raises(ValidationError, match="must be finite"):
            goal_deviation(log.samples, equal_table("a"), window, threshold)

    def test_no_samples_rejected(self):
        with pytest.raises(PsLogError, match="^no samples$"):
            goal_deviation([], equal_table("a"), 60.0, 0.05)

    def test_reused_pid_starts_a_new_process(self):
        # pid 1 exits after 100 s; a new process takes the pid at 0:00
        rows = [(0, "a", 1, 0), (0, "b", 2, 0), (100, "a", 1, 50), (100, "b", 2, 50),
                (110, "a", 1, 0), (110, "b", 2, 50), (200, "a", 1, 45), (200, "b", 2, 95)]
        report = goal_deviation(parse_ps_log(synth_log(rows)).samples, equal_table("a", "b"),
                                window=100.0)
        assert [w.rows["a"].achieved for w in report.windows] == [0.5, 0.5]


def quadratic_deviation(samples, e, window, threshold):
    """The monitor's windowing before the forward sweep, kept as an oracle:
    the value at every window edge is found by scanning the series from its
    first sample.  Validation is left out; the caller gives a valid log."""
    samples = sorted(samples, key=lambda s: (s.timestamp, s.user, s.pid))
    t_min = samples[0].timestamp
    t_max = samples[-1].timestamp
    by_pid = {}
    for s in samples:
        runs = by_pid.setdefault((s.user, s.pid), [[]])
        if runs[-1] and s.cputime < runs[-1][-1][1] - 1e-9:
            runs.append([])
        runs[-1].append((s.timestamp, s.cputime))

    def value_at(series, when):
        best = series[0][1]
        for ts, value in series:
            if ts <= when + 1e-9:
                best = value
            else:
                break
        return best

    known_active = set(e.active_users)
    windows = []
    max_abs = 0.0
    start = t_min
    while start + window <= t_max + 1e-9:
        end = start + window
        busy = {}
        for (user, _pid), runs in by_pid.items():
            for series in runs:
                delta = value_at(series, end) - value_at(series, start)
                if delta <= 0:
                    continue
                label = user if user in e.entitlements else UNALLOCATED
                busy[label] = busy.get(label, 0.0) + delta
        # Both sums add left to right: from Python 3.12 sum() compensates its rounding.
        total = reduce(add, busy.values(), 0.0)
        rows = {}
        if total > 0:
            observed_known = [u for u in busy if u != UNALLOCATED and u in known_active]
            entitled_sum = reduce(add, (e.entitlements[u] for u in observed_known), 0.0)
            for label in sorted(busy):
                achieved = busy[label] / total
                if label in known_active and entitled_sum > 0:
                    entitled = e.entitlements[label] / entitled_sum
                else:
                    entitled = 0.0
                deviation = achieved - entitled
                flagged = abs(deviation) > threshold
                max_abs = max(max_abs, abs(deviation))
                rows[label] = DeviationRow(achieved, entitled, deviation, flagged)
        windows.append(DeviationWindow(start=start, end=end, rows=rows))
        start = end
    return DeviationReport(windows, window, threshold, max_abs, max_abs > threshold)



def reference_render_deviation(report):
    """The monitor's table as it was rendered with format-spec f-strings,
    kept as a reference for the printf-style renderer."""
    lines = [
        f"Goal deviation (window {report.window_seconds:g}s, threshold {report.threshold:.3f})",
        "",
        f"{'window':>18}  {'user':<12} {'achieved':>9} {'entitled':>9} {'deviation':>10}",
    ]
    for w in report.windows:
        span = f"{w.start:.1f}-{w.end:.1f}"
        if not w.rows:
            lines.append(f"{span:>18}  {'(idle)':<12}")
            continue
        for user, row in w.rows.items():
            flag = " *" if row.flagged else ""
            lines.append(
                f"{span:>18}  {user:<12} {row.achieved:>9.4f} {row.entitled:>9.4f} "
                f"{row.deviation:>+10.4f}{flag}"
            )
    verdict = "EXCEEDED" if report.exceeded else "OK"
    lines.append("")
    lines.append(f"max |deviation| {report.max_abs_deviation:.4f} -> {verdict}")
    return "\n".join(lines) + "\n"


# Users a and b are active, c is inactive and zz is in no table.
ORACLE_TABLE = compute_entitlements(ShareHierarchy(9, (
    GroupAlloc("G", 5, (UserAlloc("a", 3, True), UserAlloc("c", 2, False))),
    GroupAlloc("H", 4, (UserAlloc("b", 4, True),)),
)), "hierarchical")
EDGE_OFFSETS = (0.0, 0.0, 1e-9, -1e-9, 5e-10, -5e-10, 1.5e-9, -1.5e-9)


@st.composite
def windowed_logs(draw):
    """(samples, window): a log whose timestamps sit on, near or between the
    monitor's window edges, with duplicate timestamps for one pid, reused
    pids whose TIME falls, gaps longer than a window and a user in no table.

    Some logs end part way into a window, so their last samples fall past
    the last edge; some processes live inside one window, the first window
    included; and some TIMEs fall by less than the reuse tolerance."""
    window = draw(st.sampled_from((1.0, 0.1, 0.7, 2.5, 10 / 3, 60.0)))
    t0 = draw(st.sampled_from((0.0, 0.3, 1000.0, 1.7e9)))
    n_windows = draw(st.integers(1, 10))
    edges = [t0]
    for _ in range(n_windows + 1):
        edges.append(edges[-1] + window)  # the monitor's own accumulation
    t_end = edges[n_windows] + draw(st.sampled_from((0.0, 0.0, 0.3, 0.99))) * window
    entries = draw(st.lists(st.tuples(
        st.sampled_from(("a", "b", "c", "zz")),
        st.integers(1, 3),
        st.one_of(
            st.tuples(st.integers(0, n_windows), st.sampled_from(EDGE_OFFSETS)),
            st.floats(0.0, 1.0),
        ),
        # -1: a new process took the pid; -2: TIME fell by less than 1e-9 s
        st.one_of(st.integers(0, 40), st.just(-1), st.just(-2)),
    ), min_size=1, max_size=40))
    timed = []
    for user, pid, when, step in entries:
        if isinstance(when, tuple):
            ts = max(t0, edges[when[0]] + when[1])
        else:
            ts = t0 + when * (t_end - t0)
        timed.append((ts, user, pid, step))
    short_lived = draw(st.lists(st.tuples(
        st.sampled_from(("a", "b", "zz")),
        st.one_of(st.just(0), st.integers(0, n_windows - 1)),
        st.lists(st.tuples(st.floats(0.05, 0.95), st.integers(0, 40)), min_size=1, max_size=4),
    ), max_size=3))
    for n, (user, k, steps) in enumerate(short_lived):
        for fraction, step in steps:
            timed.append((edges[k] + fraction * window, user, 10 + n, step))
    timed.sort(key=lambda row: row[0])
    cumulative = {}
    samples = [UsageSample(t0, "a", 1, 0.0), UsageSample(t_end, "b", 2, 0.0)]
    for ts, user, pid, step in timed:
        now = cumulative.get((user, pid), 0.0)
        if step == -1:
            cumulative[user, pid] = now * 0.25
        elif step == -2:
            cumulative[user, pid] = now - 5e-10
        else:
            cumulative[user, pid] = now + step * 0.37
        samples.append(UsageSample(ts, user, pid, cumulative[user, pid]))
    return draw(st.permutations(samples)), window


@settings(max_examples=300, deadline=None)
@given(windowed_logs(), st.sampled_from((0.0, 0.05, 0.3)))
def test_sweep_matches_the_quadratic_windowing(log, threshold):
    samples, window = log
    span = max(s.timestamp for s in samples) - min(s.timestamp for s in samples)
    assume(span >= window)
    report = goal_deviation(samples, ORACLE_TABLE, window, threshold)
    expected = quadratic_deviation(samples, ORACLE_TABLE, window, threshold)
    assert report == expected
    assert render_deviation(report) == render_deviation(expected)
    assert render_deviation(report) == reference_render_deviation(report)


@pytest.mark.parametrize("listed", [(3, 1, 2, 9), (9, 2, 1, 3)])
def test_busy_time_adds_processes_in_order_of_first_sample(listed):
    # Process 3's 1e16 s swallows a 1 s delta added after it but not the
    # 2 s of processes 1 and 2 added first, so only the (first sample, user,
    # pid) order of the sums gives a's busy time 1e16 + 2.
    deltas = {1: 1.0, 2: 1.0, 3: 1e16, 9: 1e16}
    samples = [UsageSample(t, "b" if pid == 9 else "a", pid, deltas[pid] * (t > 0))
               for t in (0.0, 10.0) for pid in listed]
    report = goal_deviation(samples, equal_table("a", "b"), window=10.0)
    assert report == quadratic_deviation(samples, equal_table("a", "b"), 10.0, 0.05)
    assert report.windows[0].rows["a"].achieved == (1e16 + 2) / (2e16 + 2)


@pytest.mark.parametrize("listed", [("a", "c", "b"), ("b", "c", "a")])
def test_window_total_adds_labels_in_order_of_first_change(listed):
    # a's and c's processes are first seen before b's, so the window's busy
    # time adds a, c and then b: 1 + 1 + 1e16 = 1e16 + 2.  In name order, a
    # then b then c, each 1 s would be lost in b's 1e16 s.
    first_seen = {"a": 0.0, "c": 0.0, "b": 1.0}
    delta = {"a": 1.0, "c": 1.0, "b": 1e16}
    samples = [UsageSample(t if t else first_seen[user], user, pid, delta[user] * (t > 0))
               for t in (0.0, 10.0) for pid, user in enumerate(listed)]
    report = goal_deviation(samples, equal_table("a", "b", "c"), window=10.0)
    assert report == quadratic_deviation(samples, equal_table("a", "b", "c"), 10.0, 0.05)
    assert report.windows[0].rows["b"].achieved == 1e16 / (1e16 + 2)


def test_busy_time_overflow_names_the_first_window_past_the_float_range():
    # Processes 1 and 2 each go from -1e308 to 1e308, an inf change, in the
    # first and the second window.
    samples = [UsageSample(0.0, "a", 1, -1e308), UsageSample(10.0, "a", 1, 1e308),
               UsageSample(10.0, "b", 2, -1e308), UsageSample(20.0, "b", 2, 1e308)]
    for listed in (samples, samples[::-1]):
        with pytest.raises(ValidationError, match=r"^window 0\.0-10\.0s: busy time inf is past"):
            goal_deviation(listed, equal_table("a", "b"), window=10.0)


def test_windowing_memory_grows_with_samples_and_windows_not_their_product():
    # 400 users each change once, 50 windows apart, over 20,000 windows.  A
    # windows x labels array of floats would alone take 64 MB; the report
    # holds a tuple, a dict and an edge for each window, about 200 B.
    n_users, n_windows, window = 400, 20_000, 10.0
    users = [f"u{i:03d}" for i in range(n_users)]
    samples = [UsageSample(0.0, user, 1, 0.0) for user in users]
    samples += [UsageSample((50 * i + 0.5) * window, user, 1, 1.0) for i, user in enumerate(users)]
    samples.append(UsageSample(n_windows * window, users[0], 1, 1.0))
    table = equal_table(*users)
    goal_deviation(samples[:1] + samples[-1:], table, n_windows * window)  # lazy imports
    tracemalloc.start()
    try:
        report = goal_deviation(samples, table, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.windows) == n_windows
    assert sum(len(w.rows) for w in report.windows) == n_users
    assert peak < 500 * n_windows + 4096 * len(samples)  # about 13 MB


@pytest.mark.parametrize("listed", [("b", "a"), ("a", "b")])
def test_first_edge_is_the_timestamp_first_in_sort_order(listed):
    # -0.0 == 0.0, so the (timestamp, user, pid) order puts a's 0.0 first
    # whichever sample is given first, and the first window starts at 0.0.
    at_zero = {"a": UsageSample(0.0, "a", 1, 0.0), "b": UsageSample(-0.0, "b", 2, 0.0)}
    samples = [at_zero[user] for user in listed] + [UsageSample(10.0, "a", 1, 5.0)]
    report = goal_deviation(samples, equal_table("a", "b"), window=10.0)
    assert report == quadratic_deviation(samples, equal_table("a", "b"), 10.0, 0.05)
    assert math.copysign(1.0, report.windows[0].start) == 1.0
    assert render_deviation(report).splitlines()[3].split()[0] == "0.0-10.0"


def _ps_time(centis: int) -> str:
    seconds = centis / 100
    if seconds >= 3600:
        return f"{int(seconds // 3600)}:{int(seconds % 3600 // 60):02d}:{seconds % 60:05.2f}"
    return f"{int(seconds // 60)}:{seconds % 60:05.2f}"


def generated_ps_log(seed: int, users) -> str:
    """About two hours of ps log with pid churn, one reused pid whose TIME falls,
    malformed lines, a bad header, an idle stretch, a sampling gap and the
    user ``guest``, who is in no scenario.

    Every malformed line has a bad TIME column, so it is skipped whether or
    not the %CPU column is read.
    """
    rng = random.Random(seed)
    users = [*users, "guest"]
    live: dict[int, list] = {}  # pid -> [user, cumulative CPU in centiseconds]
    next_pid = 100
    t = 1000 * seed
    lines = []
    for step in range(120):
        dt = 900 if step == 90 else rng.choice((30, 60, 60, 90))
        t += dt
        for pid in [p for p in live if rng.random() < 0.05]:
            del live[pid]  # the process exited
        while len(live) < 5 or rng.random() < 0.1:
            live[next_pid] = [rng.choice(users), 0]
            next_pid += 1
        if step == 70:
            live[min(live)][1] = rng.randrange(0, 200)  # a new process took the pid
        elif not 40 <= step < 50:  # steps 40-49 are idle
            for proc in live.values():
                proc[1] += rng.randrange(0, dt * 100 // len(live) + 1)
        lines.append(f"T {t}" if step != 20 else "T 10:00")
        if rng.random() < 0.3:
            lines.append("USER PID %CPU %MEM SZ RSS TT S START TIME COMMAND")
        for pid, (user, centis) in live.items():
            cpu_pct = f"{rng.uniform(0, 100):.1f}"
            lines.append(f"{user} {pid} {cpu_pct} 0.5 900 300 ?? R 9:00 {_ps_time(centis)} job -x {pid}")
            roll = rng.random()
            if roll < 0.02:
                lines.append(f"{user} {pid} n/a 0.5 900 300 ?? R 9:00 n/a job")
            elif roll < 0.04:
                lines.append(f"{user} {pid} {cpu_pct} 0.5 900 300 ?? R 9:00 {centis}:xx job")
            elif roll < 0.05:
                lines.append(f"{user} truncated line")
    return "\n".join(lines) + "\n"


# (seed, scenario, entitlement mode, window seconds) per pinned monitor run.
MONITOR_CASES = (
    (1, "report4", "flat-pool", 300.0),
    (2, "report5", "hierarchical", 120.0),
    (3, "report2", "hierarchical", 600.0),
)


def monitor_deviation_text(load_scenario) -> str:
    blocks = []
    for seed, name, mode, window in MONITOR_CASES:
        s = load_scenario(name)
        log = parse_ps_log(generated_ps_log(seed, s.hierarchy.user_names()))
        report = goal_deviation(log.samples, compute_entitlements(s.hierarchy, mode), window)
        blocks.append(
            f"== seed {seed} {name} {mode} window {window:g}: skipped {log.skipped}\n"
            + render_deviation(report)
        )
    return "\n".join(blocks)


def test_monitor_output_matches_pinned_text(load_scenario, golden_dir):
    expected = (golden_dir / "monitor_deviation.txt").read_text()
    assert monitor_deviation_text(load_scenario) == expected
