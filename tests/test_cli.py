"""Command-line surface: output, exit codes, determinism."""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fairshare.cli import main

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
    }.items():
        path = tmp_path / f"{role}.fsp"
        path.write_text(TWO_USERS.format(**fields))
        paths[role] = str(path)
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
            dataclasses.replace(load_scenario("report4"), solver="simulate"),
            mode="hierarchical",
            sim_config=SimConfig(duration=30.0, warmup=5.0, mode="ts-roundrobin"),
        )
        assert out == render_report(expected)

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

    def test_infeasible_exits_two(self, capsys, tmp_path):
        slo = tmp_path / "slo.txt"
        slo.write_text("target A umax=0.8\ntarget B umax=0.5\n")
        code, _, err = run_cli(capsys, "advise", str(slo), "--total-shares", "100")
        assert code == 2
        assert "split groups across separate servers" in err


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


SHORT_RUN = ("--duration", "20", "--warmup", "5")


@pytest.mark.parametrize(
    "argv",
    [
        ("report", "think_nan"),
        ("report", "demand_inf"),
        ("simulate", "event_nan", *SHORT_RUN),
        ("simulate", "good", "--quantum", "nan", *SHORT_RUN),
        ("simulate", "good", "--duration", "inf"),
        ("monitor", "log", "good", "--window", "nan"),
        ("monitor", "log", "good", "--threshold", "nan"),
    ],
    ids=lambda argv: "-".join(argv[:4]),
)
def test_bad_input_exits_one(capsys, two_user_files, argv):
    argv = [two_user_files.get(a, a) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ")
    assert "OK" not in out


# A small valid grid per flag, and the values a numeric flag must reject.
# The grid stays at or below 500 quanta per run: longer runs are valid, only
# slow.
BAD_NUMBERS = ("nan", "inf", "-inf", "0", "-1")
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
