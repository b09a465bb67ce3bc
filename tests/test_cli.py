"""Command-line surface: output, exit codes, determinism."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import fairshare
from fairshare.cli import build_parser, main
from fairshare.report import extract_section

TWO_USERS = """\
total_shares 100
group A shares=50
group B shares=50
user alice group=A shares=50 procs=2 think={think} demand={demand} active=yes
user bob group=B shares=50 procs=1 think=0 demand=1 active=yes
{event}
"""


def two_user_log(path, reuse=False):
    """Two hours of once-a-minute ps output, alice and bob at 30 s of CPU a minute.

    With ``reuse`` alice's pid 4242 exits after an hour and a new process of
    hers takes the same pid, its TIME starting again from 0:00.
    """
    lines = []
    for k in range(120):
        lines.append(f"T {1_700_000_000 + 60 * k}")
        alice = 30 * (k - 60) if reuse and k >= 60 else 3000 + 30 * k
        for user, pid, cpu in (("alice", 4242, alice), ("bob", 5151, 30 * k)):
            lines.append(f"{user} {pid} 50.0 0.4 81234 5120 ?? S 10:00AM "
                         f"{cpu // 60}:{cpu % 60:02d}.00 /usr/bin/job")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def two_user_files(tmp_path):
    paths = {"log": two_user_log(tmp_path / "steady.log")}
    for role, fields in {
        "good": dict(think="1", demand="0.5", event=""),
        "think_nan": dict(think="nan", demand="0.5", event=""),
        "demand_inf": dict(think="1", demand="inf", event=""),
        "event_nan": dict(think="1", demand="0.5", event="event t=nan deactivate=alice"),
        # Under SHORT_RUN no window starts after this event.
        "event_in_last_window": dict(think="1", demand="0.5", event="event t=19.5 deactivate=bob"),
        # 20 s of 1e-7 s demands: up to 2e8 cycles in any mode.
        "demand_tiny": dict(think="0", demand="1e-7", event=""),
    }.items():
        path = tmp_path / f"{role}.fsp"
        path.write_text(TWO_USERS.format(**fields))
        paths[role] = str(path)
    # A byte that is not UTF-8 in each kind of input file; in the ps log it
    # comes after two hours of good lines, so it is met while streaming.
    for role, data in {
        "fsp_not_utf8": b"total_shares 10\n\xff\n",
        "slo_not_utf8": b"target alice umax=0.4\n\xff\n",
        "log_not_utf8": (tmp_path / "steady.log").read_bytes() + b"alice \xff\n",
        # Two samples 1e12 s apart: about 1.7e10 windows of 60 s.
        "log_far_header": b"T 0\nalice 1 1.0 0 0 0 ? S 10:00 0:01 x\n"
                          b"T 1000000000000\nalice 1 1.0 0 0 0 ? S 10:00 0:02 x\n",
        # Timestamps 64 s apart near 1e17, where floats are 16 s apart.
        "log_coarse_clock": b"T 100000000000000000\nalice 1 1.0 0 0 0 ? S 10:00 0:01 x\n"
                            b"T 100000000000000064\nalice 1 1.0 0 0 0 ? S 10:00 0:02 x\n",
        # Two pids each gaining 4e304 hours (1.44e308 s) of TIME in a minute:
        # a busy time past the float range.
        "log_float_range": b"T 0\nalice 1 1.0 0 0 0 ? S 10:00 0:00 x\n"
                           b"bob 2 1.0 0 0 0 ? S 10:00 0:00 x\n"
                           b"T 60\nalice 1 1.0 0 0 0 ? S 10:00 4" + b"0" * 304 + b":00:00 x\n"
                           b"bob 2 1.0 0 0 0 ? S 10:00 4" + b"0" * 304 + b":00:00 x\n",
        # Two finite headers whose span overflows to inf.
        "log_span_overflow": b"T -1.7e308\nalice 1 1.0 0 0 0 ? S 10:00 0:01 x\n"
                             b"T 1.7e308\nalice 1 1.0 0 0 0 ? S 10:00 0:02 x\n",
    }.items():
        path = tmp_path / role
        path.write_bytes(data)
        paths[role] = str(path)
    for role, text in {
        "slo_duplicate_key": "target alice umax=0.9 umax=0.2\n",
        "slo_duplicate_target": "target alice umax=0.2\ntarget alice umax=0.3\n",
        "solver_twice": TWO_USERS.format(think="1", demand="0.5",
                                         event="solver conserving\nsolver simulate"),
        # A hundred times the simulator's process budget.
        "procs_huge": TWO_USERS.format(think="1", demand="0.5", event="")
                      .replace("procs=2", "procs=100000000"),
        # One class of 1e7 + 1 processes: the time-share baseline answers,
        # but the partition repairman's budget of 1e7 process levels refuses it.
        "procs_one_deep_class": "total_shares 10\ngroup G shares=10\nuser alice group=G "
                                "shares=10 procs=10000001 think=1 demand=0.5 active=yes\n",
        # bob runs 1e400 processes, a count past the float range.
        "procs_past_float_range": TWO_USERS.format(think="1", demand="0.5", event="")
                                  .replace("procs=1", "procs=1" + "0" * 400),
    }.items():
        path = tmp_path / role
        path.write_text(text)
        paths[role] = str(path)
    paths["report4"] = str(Path(__file__).resolve().parent.parent / "scenarios" / "report4.fsp")
    # Trace paths that cannot be opened for writing.
    paths["trace_in_missing_dir"] = str(tmp_path / "no-such-dir" / "trace.csv")
    paths["trace_is_a_dir"] = str(tmp_path)
    paths["trace_on_full_device"] = "/dev/full"  # every write fails with ENOSPC
    return paths


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def report4(scenario_dir):
    return str(scenario_dir / "report4.fsp")


@pytest.fixture
def report5(scenario_dir):
    return str(scenario_dir / "report5.fsp")


class TestEntitle:
    def test_prints_table(self, capsys, report5):
        code, out, _ = run_cli(capsys, "entitle", report5)
        assert code == 0
        assert "OPS 13.58 7.41 6.17 0.00" in out
        assert "Active user shares: 81 / 100 allocated" in out

    def test_lub_flag(self, capsys, report5):
        code, out, _ = run_cli(capsys, "entitle", report5, "--lub")
        assert code == 0
        assert "OPS 30.00 6.00 5.00 19.00" in out

    def test_empty_pool_exits_one(self, capsys, tmp_path):
        path = tmp_path / "idle.fsp"
        path.write_text(
            "total_shares 10\ngroup G shares=10\n"
            "user u group=G shares=10 procs=1 think=0 demand=1 active=no\n"
        )
        code, _, err = run_cli(capsys, "entitle", str(path))
        assert code == 1
        assert "empty pool" in err

    def test_missing_file_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "entitle", "no-such-file.fsp")
        assert code == 1
        assert "no-such-file.fsp" in err


class TestReport:
    def test_matches_library_rendering(self, capsys, report4, load_scenario):
        from fairshare.report import render_report, run_scenario

        code, out, _ = run_cli(capsys, "report", report4)
        assert code == 0
        assert out == render_report(run_scenario(load_scenario("report4")))

    def test_byte_identical_across_runs(self, capsys, report4):
        _, first, _ = run_cli(capsys, "report", report4)
        _, second, _ = run_cli(capsys, "report", report4)
        assert first == second

    def test_solver_override(self, capsys, report4):
        code, out, _ = run_cli(capsys, "report", report4, "--solver", "conserving")
        assert code == 0
        assert "Solver: conserving" in out

    def test_scenario_solver_line_simulate(self, capsys, scenario_dir):
        code, out, _ = run_cli(
            capsys, "report", str(scenario_dir / "example-2-2.fsp"),
            "--duration", "30", "--warmup", "5",
        )
        assert code == 0
        assert "Solver: simulated" in out

    def test_sim_mode_and_entitlement_mode_are_separate(self, capsys, report4, load_scenario):
        from fairshare.report import render_report, run_scenario
        from fairshare.sim import SimConfig

        code, out, _ = run_cli(
            capsys, "report", report4, "--solver", "simulate",
            "--sim-mode", "ts-roundrobin", "--mode", "hierarchical",
            "--duration", "30", "--warmup", "5",
        )
        assert code == 0
        expected = run_scenario(
            load_scenario("report4")._replace(solver="simulate"),
            mode="hierarchical",
            sim_config=SimConfig(duration=30.0, warmup=5.0, mode="ts-roundrobin"),
        )
        assert out == render_report(expected)

    def test_simulated_notes_go_to_stderr(self, capsys, report4, load_scenario):
        # In 2 s only fAgg completes a 1 s demand after the 1 s warmup, so
        # the SRM table has one row and stderr says why the others are missing.
        from fairshare.report import render_report, run_scenario
        from fairshare.sim import SimConfig

        code, out, err = run_cli(capsys, "report", report4, "--solver", "simulate",
                                 "--duration", "2", "--warmup", "1")
        assert code == 0
        expected = run_scenario(load_scenario("report4")._replace(solver="simulate"),
                                sim_config=SimConfig(duration=2.0, warmup=1.0))
        assert out == render_report(expected)
        assert err == "".join(f"note: {user}: no completed cycles after warmup\n"
                              for user in ("wAgg", "opsA", "opsB", "opsC"))
        assert run_cli(capsys, "report", report4)[2] == ""

    def test_simulated_rows_hold_at_most_the_cpu(self, capsys, tmp_path):
        # a's three processes each complete a 0.1 s cycle in the first 0.3 s
        # quantum, then wait out b's two quanta: a is busy 0.3 of 0.9 s.  b
        # completes no cycle, so it has no R and no row, only a note.
        path = tmp_path / "t2.fsp"
        path.write_text("total_shares 2\ngroup G shares=2\n"
                        "user a group=G shares=1 procs=3 think=0 demand=0.1 active=yes\n"
                        "user b group=G shares=1 procs=2 think=0 demand=1 active=yes\n")
        code, out, err = run_cli(capsys, "report", str(path), "--solver", "simulate",
                                 "--duration", "1", "--warmup", "0", "--quantum", "0.3",
                                 "--sim-mode", "ts-roundrobin")
        assert code == 0
        rows = extract_section(out, "Estimated SRM Performance").splitlines()[3:-1]
        assert rows == ["a 3.33 0.20 33.33"]
        assert sum(float(row.split()[3]) for row in rows) <= 100.0
        assert err == "note: b: no completed cycles after warmup\n"

    def test_sim_flags_checked_with_analytic_solver(self, capsys, report4):
        code, _, err = run_cli(capsys, "report", report4, "--quantum", "nan")
        assert code == 1
        assert err.startswith("error: quantum")

    def test_parse_error_exits_one(self, capsys, tmp_path):
        path = tmp_path / "broken.fsp"
        path.write_text("total_shares ten\n")
        code, _, err = run_cli(capsys, "report", str(path))
        assert code == 1
        assert "broken.fsp" in err and "line 1" in err


class TestCompare:
    def test_cross_table_with_na(self, capsys, scenario_dir):
        code, out, _ = run_cli(
            capsys,
            "compare",
            str(scenario_dir / "report1.fsp"),
            str(scenario_dir / "report2.fsp"),
        )
        assert code == 0
        opsc = next(l for l in out.splitlines() if l.startswith("opsC"))
        assert opsc.split()[-1] == "N/A"

    def test_shipped_reports_match_the_pinned_table(self, capsys, scenario_dir, golden_dir):
        # Pinned from the exact MVA solver.  Every class in these reports is CPU
        # bound, so R_ts is D sum N exactly, and a ratio such as 13.50/4.00 =
        # 3.375 sits on a rounding tie that one ulp of R_ts would flip.
        reports = [str(scenario_dir / f"report{n}.fsp") for n in range(1, 6)]
        code, out, _ = run_cli(capsys, "compare", *reports)
        assert (code, out) == (0, (golden_dir / "compare_reports.txt").read_text())

    def test_single_argument_is_usage_error(self, capsys, report4):
        code, _, err = run_cli(capsys, "compare", report4)
        assert code == 1
        assert "two scenario files" in err


class TestSimulate:
    def test_summary_and_convergence(self, capsys, scenario_dir):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            str(scenario_dir / "example-2-2.fsp"),
            "--duration", "120", "--warmup", "0",
        )
        assert code == 0
        assert "Convergence (epsilon 0.05): t=65s" in out

    def test_trace_export(self, capsys, report4, tmp_path):
        trace_path = tmp_path / "trace.csv"
        code, _, err = run_cli(
            capsys,
            "simulate", report4,
            "--duration", "30", "--warmup", "5", "--trace", str(trace_path),
        )
        assert code == 0
        lines = trace_path.read_text().splitlines()
        assert lines[0] == "time,user,fraction"
        assert len(lines) == 1 + 30 * 5

    def test_failed_run_leaves_no_trace_file(self, capsys, two_user_files, tmp_path):
        trace_path = tmp_path / "trace.csv"
        code, out, err = run_cli(capsys, "simulate", two_user_files["event_in_last_window"],
                                 *SHORT_RUN, "--trace", str(trace_path))
        assert (code, out) == (1, "")
        assert "no windows after the last timeline event" in err
        assert not trace_path.exists()

    def test_idle_run_warns_before_its_error(self, capsys, tmp_path):
        # The only user is inactive until t=500, past the end of the run.
        path = tmp_path / "idle.fsp"
        path.write_text(
            "total_shares 10\ngroup G shares=10\n"
            "user a group=G shares=10 procs=1 think=0 demand=1 active=no\n"
            "event t=500 activate=a\n"
        )
        code, out, err = run_cli(capsys, "simulate", str(path), "--duration", "10", "--warmup", "0")
        assert (code, out) == (1, "")
        assert err == ("warning: the run recorded no busy time; trace is empty\n"
                       "error: empty pool: no active users in hierarchy\n")

    def test_deterministic_output(self, capsys, report4):
        args = ("simulate", report4, "--duration", "30", "--warmup", "5")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestAdvise:
    def test_feasible_plan(self, capsys, tmp_path):
        slo = tmp_path / "slo.txt"
        slo.write_text("target A umax=0.5\ntarget B umax=0.3\n")
        code, out, _ = run_cli(capsys, "advise", str(slo), "--total-shares", "100")
        assert code == 0
        assert "limadm set cpu.shares=50 A" in out
        assert "limadm set cpu.shares=30 B" in out
        assert "20 residual" in out

    def test_missing_file_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "advise", "no-such-slo.txt", "--total-shares", "100")
        assert code == 1
        assert err.startswith("error: no-such-slo.txt: ")

    def test_parse_error_names_file_and_line(self, capsys, tmp_path):
        slo = tmp_path / "slo.txt"
        slo.write_text("target A umax=0.5\ntarget B umax=1.5\n")
        code, _, err = run_cli(capsys, "advise", str(slo), "--total-shares", "100")
        assert code == 1
        assert err == f"error: {slo}: line 2: target B: u_max must be in (0, 1], got 1.5\n"

    def test_duplicate_target_names_file_and_line(self, capsys, tmp_path):
        slo = tmp_path / "slo.txt"
        slo.write_text("target A umax=0.2\ntarget A umax=0.3\n")
        code, _, err = run_cli(capsys, "advise", str(slo), "--total-shares", "100")
        assert code == 1
        assert err == f"error: {slo}: line 2: duplicate target 'A'\n"

    def test_infeasible_exits_two(self, capsys, tmp_path):
        slo = tmp_path / "slo.txt"
        slo.write_text("target A umax=0.8\ntarget B umax=0.5\n")
        code, _, err = run_cli(capsys, "advise", str(slo), "--total-shares", "100")
        assert code == 2
        assert "split groups across separate servers" in err

    def test_floor_past_the_total_exits_two(self, capsys, tmp_path):
        slo = tmp_path / "slo.txt"
        slo.write_text("target A umax=0.98\ntarget B umax=0.01\ntarget C umax=0.01\n")
        code, out, err = run_cli(capsys, "advise", str(slo), "--total-shares", "3")
        assert (code, out) == (2, "")
        assert err == ("error: the one-share floor needs 4 shares, more than the total of 3; "
                       "use a larger --total-shares\n")


class TestMonitor:
    def _write_log(self, tmp_path, skew):
        lines = []
        for k in range(4):
            t = k * 60
            lines.append(f"T {t}")
            a = int(round(k * 60 * skew))
            b = int(round(k * 60 * (1 - skew)))
            lines.append(f"usr1 11 0.0 0.0 1 1 ?? R 0:00 {a // 60}:{a % 60:02d} crunch")
            lines.append(f"usr2 22 0.0 0.0 1 1 ?? R 0:00 {b // 60}:{b % 60:02d} crunch")
        path = tmp_path / "ps.log"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    @pytest.fixture
    def balanced_scenario(self, tmp_path):
        path = tmp_path / "two.fsp"
        path.write_text(
            "total_shares 100\ngroup G shares=100\n"
            "user usr1 group=G shares=50 procs=1 think=0 demand=1 active=yes\n"
            "user usr2 group=G shares=50 procs=1 think=0 demand=1 active=yes\n"
        )
        return str(path)

    def test_within_threshold_exits_zero(self, capsys, tmp_path, balanced_scenario):
        log = self._write_log(tmp_path, skew=0.5)
        code, out, _ = run_cli(capsys, "monitor", log, balanced_scenario)
        assert code == 0
        assert "OK" in out

    def test_exceeded_threshold_exits_two(self, capsys, tmp_path, balanced_scenario):
        log = self._write_log(tmp_path, skew=0.7)
        code, out, _ = run_cli(capsys, "monitor", log, balanced_scenario)
        assert code == 2
        assert "EXCEEDED" in out

    def test_missing_log_exits_one(self, capsys, balanced_scenario):
        code, _, err = run_cli(capsys, "monitor", "no-such.log", balanced_scenario)
        assert code == 1
        assert err.startswith("error: no-such.log: ")

    def test_reused_pid_counts_as_a_new_process(self, capsys, tmp_path, two_user_files):
        log = two_user_log(tmp_path / "reuse.log", reuse=True)
        code, out, _ = run_cli(capsys, "monitor", log, two_user_files["good"], "--window", "60")
        assert code == 0
        assert out.endswith("max |deviation| 0.0000 -> OK\n")

    def test_negative_time_is_skipped_not_counted(self, capsys, tmp_path, two_user_files):
        # Read as a sample, alice's 0:-5 would give her 10 s of CPU against
        # bob's 1 s in a window where both hold half the shares.
        log = tmp_path / "negative.log"
        log.write_text("T 0\nalice 1 1.0 0 0 0 ? S 10:00 0:-5 x\nbob 2 1.0 0 0 0 ? S 10:00 0:00 x\n"
                       "T 60\nalice 1 1.0 0 0 0 ? S 10:00 0:05 x\nbob 2 1.0 0 0 0 ? S 10:00 0:01 x\n")
        code, out, err = run_cli(capsys, "monitor", str(log), two_user_files["good"],
                                 "--window", "60")
        assert code == 0
        assert "alice" not in out
        assert out.endswith("max |deviation| 0.0000 -> OK\n")
        assert err == "note: skipped 1 malformed line(s)\n"

    @pytest.mark.parametrize("window", ["60", "1e308"])
    def test_a_span_past_the_float_range_blames_the_t_headers(self, capsys, two_user_files,
                                                              window):
        code, out, err = run_cli(capsys, "monitor", two_user_files["log_span_overflow"],
                                 two_user_files["good"], "--window", window)
        assert (code, out) == (1, "")
        assert err.endswith("the log's T headers are out of range\n")
        assert "--window" not in err

    def test_malformed_line_is_noted_and_skipped(self, capsys, tmp_path, two_user_files):
        clean = run_cli(capsys, "monitor", two_user_files["log"], two_user_files["good"])
        lines = Path(two_user_files["log"]).read_text().splitlines(keepends=True)
        noisy = tmp_path / "noisy.log"
        noisy.write_text("".join(lines[:4] + ["alice 4242 garbage\n"] + lines[4:]))
        code, out, err = run_cli(capsys, "monitor", str(noisy), two_user_files["good"])
        assert (code, out) == clean[:2]
        assert clean[2] == ""
        assert err == "note: skipped 1 malformed line(s)\n"


SHORT_RUN = ("--duration", "20", "--warmup", "5")


@pytest.mark.parametrize(
    "argv",
    [
        ("report", "think_nan"),
        ("report", "demand_inf"),
        ("simulate", "event_nan", *SHORT_RUN),
        ("simulate", "good", "--quantum", "nan", *SHORT_RUN),
        ("simulate", "good", "--duration", "inf"),
        ("simulate", "good", "--trace", "trace_in_missing_dir", *SHORT_RUN),
        ("simulate", "good", "--trace", "trace_is_a_dir", *SHORT_RUN),
        pytest.param(("simulate", "good", "--trace", "trace_on_full_device", *SHORT_RUN),
                     marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                              reason="no /dev/full")),
        ("simulate", "event_in_last_window", *SHORT_RUN),
        ("simulate", "good", "--epsilon", "nan", *SHORT_RUN),
        ("simulate", "report4", "--epsilon", "-1", *SHORT_RUN),
        ("simulate", "report4", "--duration", "5", "--window", "10", "--warmup", "0"),
        ("simulate", "procs_huge", *SHORT_RUN),
        ("simulate", "good", "--duration", "1e9"),
        ("simulate", "good", "--quantum", "1e-7"),
        ("simulate", "good", "--sim-mode", "ts-ps-reference", "--duration", "1e9"),
        # 5e5 busy-time cells, but up to 5e8 cycles.
        ("simulate", "report4", "--sim-mode", "ts-ps-reference", "--duration", "1e8",
         "--window", "1000"),
        *(("simulate", "demand_tiny", "--sim-mode", mode, *SHORT_RUN)
          for mode in fairshare.sim.SIM_MODES),
        ("report", "procs_one_deep_class"),
        ("monitor", "log", "good", "--window", "nan"),
        ("monitor", "log", "good", "--threshold", "nan"),
        ("monitor", "log", "good", "--threshold=-1"),
        ("entitle", "fsp_not_utf8"),
        ("advise", "slo_not_utf8", "--total-shares", "100"),
        ("advise", "slo_duplicate_key", "--total-shares", "100"),
        ("advise", "slo_duplicate_target", "--total-shares", "100"),
        ("report", "solver_twice"),
        ("compare", "good"),
        ("monitor", "log_not_utf8", "good"),
        ("monitor", "log_far_header", "good", "--window", "60"),
        ("monitor", "log_coarse_clock", "good", "--window", "1"),
        ("monitor", "log_float_range", "good", "--window", "60"),
        ("monitor", "log_span_overflow", "good"),
    ],
    ids=lambda argv: "-".join(argv[:4]),
)
def test_bad_input_exits_one(capsys, two_user_files, argv):
    argv = [two_user_files.get(a, a) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ")
    assert out == ""


@pytest.mark.parametrize("solver, refusal", [
    ("partition", "10000001 process levels (1 x 10000001 processes) exceed 10000000, "
                  "the budget of about 1 s; use fewer procs"),
    ("conserving", "40000004 process levels (4 x 10000001 processes) exceed 10000000, "
                   "the budget of about 1 s; use fewer procs"),
    ("simulate", "10000001 processes exceed 1000000, "
                 "the budget of about 140 MB and 2 s of set-up; use fewer procs"),
], ids=["partition", "conserving", "simulate"])
def test_fair_share_budget_refuses_before_the_baseline_is_solved(
        capsys, monkeypatch, two_user_files, solver, refusal):
    # The time-share baseline answers one class of 1e7 + 1 processes, and
    # each fair-share solver refuses it before the baseline is paid for.
    def baseline(w):
        raise AssertionError("solve_ts ran before the fair-share solver's budget")

    monkeypatch.setattr("fairshare.report.solve_ts", baseline)
    code, out, err = run_cli(capsys, "report", two_user_files["procs_one_deep_class"],
                             "--solver", solver)
    assert (code, out, err) == (1, "", f"error: {refusal}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("report", "procs_past_float_range"),
        ("simulate", "report4", "--duration", "10", "--warmup", "0", "--quantum", "1e-300"),
        ("simulate", "report4", "--sim-mode", "ts-ps-reference", "--duration", "1e300",
         "--window", "1"),
    ],
    ids=["report-procs", "simulate-quanta", "simulate-windows"],
)
def test_budget_errors_print_huge_counts_briefly(capsys, two_user_files, argv):
    # Each count here has 300 to 400 digits in full.
    code, out, err = run_cli(capsys, *[two_user_files.get(a, a) for a in argv])
    assert code == 1
    assert err.startswith("error: ") and "exceed" in err
    assert len(err) < 300 and "Traceback" not in err


@pytest.mark.parametrize("argv", [("compare", "big", "big")], ids=["compare"])
def test_population_guard_names_a_command_that_works(capsys, tmp_path, argv):
    # Two classes of 4000 processes, about 1.6e7 population vectors: the exact
    # wavefront refused them, and the quadrature answers on 2 x 4,705 grid points.
    path = tmp_path / "big.fsp"
    path.write_text(TWO_USERS.format(think="1", demand="0.5", event="")
                    .replace("procs=2", "procs=4000").replace("procs=1", "procs=4000"))
    code, out, err = run_cli(capsys, *(str(path) if a == "big" else a for a in argv))
    assert (code, err) == (0, "")
    assert "alice 3999.00 3999.50 1.00\nbob 8000.00 7999.00 1.00\n" in out


@pytest.mark.parametrize("argv", [("report", "over"), ("compare", "over", "over")],
                         ids=["report", "compare"])
def test_overflowing_workload_prints_only_the_error(tmp_path, argv):
    # Demands of 1e308 overflow the time-share queue to inf, then nan.  A
    # fresh process, so that a numpy warning would reach stderr as a user sees it.
    path = tmp_path / "over.fsp"
    path.write_text("total_shares 2\ngroup G shares=2\n"
                    "user a group=G shares=1 procs=3 think=0 demand=1e308 active=yes\n"
                    "user b group=G shares=1 procs=2 think=1 demand=1e308 active=yes\n")
    src_dir = str(Path(fairshare.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-m", "fairshare.cli",
                             *(str(path) if a == "over" else a for a in argv)],
                            env=dict(os.environ, PYTHONPATH=src_dir),
                            capture_output=True, text=True)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: non-finite model estimate")
    assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n")


# A small valid grid per flag, and values a numeric flag may have to reject
# (a 1e308 s window is 1e310 quanta of 10 ms, past the float range).  The
# grid stays at or below 500 quanta per run: longer runs are valid, only
# slow.
BAD_NUMBERS = ("nan", "inf", "-inf", "0", "-1", "1e308")
SIM_GRID = {
    "--duration": ("2", "5"),
    "--warmup": ("0.5", "1", "1.995"),  # 1.995 s and 2 s round to the same quantum
    "--quantum": ("0.01", "0.1"),
    "--half-life": ("1", "5"),
    "--window": ("0.5", "1"),
    "--seed": ("0", "7"),
}


@st.composite
def flags(draw, grid):
    """``--flag=value`` tokens from the grid, mostly with one flag made bad."""
    values = {flag: draw(st.sampled_from(choices)) for flag, choices in grid.items()}
    bad = draw(st.sampled_from((None, *grid)))
    if bad:
        values[bad] = draw(st.sampled_from(BAD_NUMBERS))
    return [f"{flag}={value}" for flag, value in values.items()]


@st.composite
def fuzzed_argv(draw):
    command = draw(st.sampled_from(("report", "simulate", "monitor", "advise")))
    if command == "report":
        solver = draw(st.sampled_from(("partition", "conserving", "simulate")))
        return ["report", "good", "--solver", solver] + draw(flags(SIM_GRID))
    if command == "simulate":
        return ["simulate", "good"] + draw(flags({**SIM_GRID, "--epsilon": ("0.05",)}))
    if command == "monitor":
        return ["monitor", "log", "good"] + draw(
            flags({"--window": ("60", "600"), "--threshold": ("0.05", "0.5")})
        )
    return ["advise", "slo"] + draw(flags({"--total-shares": ("1", "100")}))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=fuzzed_argv())
@example(argv=["simulate", "good", "--window=1e308"])
def test_fuzzed_numeric_flags_never_raise(capsys, tmp_path, two_user_files, argv):
    slo = tmp_path / "slo.txt"
    slo.write_text("target alice umax=0.4 demand=0.5 rslo=2\ntarget bob umax=0.3\n")
    files = dict(two_user_files, slo=str(slo))
    assert main([files.get(a, a) for a in argv]) in (0, 1, 2)
    capsys.readouterr()


class TestUsage:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for name in ("entitle", "report", "compare", "simulate", "advise", "monitor"):
            assert name in out

    def test_subcommand_help_lists_defaults(self, capsys):
        assert main(["simulate", "--help"]) == 0
        out = capsys.readouterr().out
        for default in ("0.01", "5.0", "1.0", "300.0"):
            assert default in out


class TestSharedParser:
    """``main`` builds its parser once per process; reusing it changes no output."""

    def test_parser_is_built_once(self, capsys, report5):
        build_parser.cache_clear()
        for argv in (("entitle", report5), ("entitle", report5, "--lub"), ("--help",),
                     ("report",)):
            run_cli(capsys, *argv)
            assert build_parser.cache_info().misses == 1

    def test_calls_in_one_process_match_fresh_processes(self, capsys, scenario_dir):
        def path(name):
            return str(scenario_dir / f"{name}.fsp")

        with_flags = [
            ["report", path("report4"), "--solver", "conserving", "--quantum", "0.02"],
            ["simulate", path("example-2-2"), "--jitter-think", "--seed", "3", *SHORT_RUN],
            ["entitle", path("report5"), "--lub"],
        ]
        session = with_flags + [argv[:2] for argv in with_flags]
        build_parser.cache_clear()
        in_process = [run_cli(capsys, *argv) for argv in session]
        src_dir = str(Path(fairshare.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src_dir)
        for argv, result in zip(session, in_process):
            fresh = subprocess.run([sys.executable, "-m", "fairshare.cli", *argv],
                                   env=env, capture_output=True, text=True)
            assert result == (fresh.returncode, fresh.stdout, fresh.stderr), argv

    @pytest.mark.parametrize("argv", [("--help",), ("simulate", "--help"), ("report",),
                                      ("simulate", "report4", "--sim-mode", "bogus")])
    def test_help_and_usage_errors_repeat_byte_for_byte(self, capsys, report4, argv):
        argv = [report4 if a == "report4" else a for a in argv]
        build_parser.cache_clear()
        code, out, err = first = run_cli(capsys, *argv)
        assert run_cli(capsys, *argv) == first
        expected = (0, True, False) if "--help" in argv else (1, False, True)
        assert (code, bool(out), bool(err)) == expected


# Runs in a fresh interpreter: argv is the scenario directory, then SHORT_RUN.
COLD_START = """
import contextlib, io, sys
started = set(sys.modules)  # what site set-up imported: a .pth file may import inspect
from fairshare import cli

scenarios, short_run = sys.argv[1], sys.argv[2:]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.main(argv) for argv in (
        ["entitle", f"{scenarios}/report5.fsp"],
        ["advise", f"{scenarios}/slo-example.txt", "--total-shares", "100"],
        ["simulate", f"{scenarios}/report4.fsp", *short_run],
    )]
assert codes == [0, 0, 0], codes
assert "numpy" not in sys.modules, "numpy loaded without a solve"
for heavy in ("dataclasses", "inspect"):
    assert heavy in started or heavy not in sys.modules, f"{heavy} loaded by a command"
assert cli.main(["report", f"{scenarios}/report1.fsp"]) == 0
assert "numpy" in sys.modules
"""


def test_entitle_advise_and_simulate_never_load_numpy(scenario_dir, golden_dir):
    # numpy is about half of a small command's start-up; only solve_ts and
    # goal_deviation use it.  The records are NamedTuples, so dataclasses
    # and the inspect, ast and dis it pulls in are never imported either.
    src_dir = str(Path(fairshare.__file__).resolve().parents[1])
    child = subprocess.run([sys.executable, "-c", COLD_START, str(scenario_dir), *SHORT_RUN],
                           env=dict(os.environ, PYTHONPATH=src_dir),
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    for golden in sorted(golden_dir.glob("report1_*.txt")):
        expected = golden.read_text()
        assert extract_section(child.stdout, expected.split("\n", 1)[0]) == expected
