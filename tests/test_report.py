"""Capacity report rendering: golden sections, determinism, comparisons."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairshare.errors import FairshareError, ScenarioParseError, ValidationError
from fairshare.mva import PerfTable
from fairshare.report import (
    CapacityReport,
    cross_compare,
    extract_section,
    render_report,
    run_scenario,
)
from fairshare.scenario import parse_scenario
from fairshare.shares import compute_entitlements


class TestGoldenSections:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_entitlement_section_matches_reference(self, n, reports, golden_dir):
        text = render_report(reports[n])
        expected = (golden_dir / f"report{n}_entitlements.txt").read_text()
        assert extract_section(text, "Group Entitlements") == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_ts_section_matches_reference(self, n, reports, golden_dir):
        text = render_report(reports[n])
        expected = (golden_dir / f"report{n}_ts.txt").read_text()
        assert extract_section(text, "Comparative TS Performance") == expected


class TestRendering:
    def test_rendering_is_deterministic(self, reports):
        assert render_report(reports[4]) == render_report(reports[4])

    def test_offline_markers(self, reports):
        allocations = extract_section(render_report(reports[5]), "Allocations")
        assert "owned by opsC: 19 (offline)" in allocations
        assert "FIN Group cpu.shares: 60\n" in allocations

    def test_srm_footer_names_solver(self, reports):
        section = extract_section(render_report(reports[4]), "Estimated SRM Performance")
        assert section.rstrip().endswith("Solver: partition")

    def test_workload_section(self, reports):
        section = extract_section(render_report(reports[1]), "User Workload Parameters")
        assert "opsA 1.00 0.00 1.0000" in section
        assert "fAgg" not in section  # offline users carry no workload rows

    def test_empty_performance_sections_render_headers(self, reports):
        empty = CapacityReport(
            label="empty",
            hierarchy=reports[1].hierarchy,
            entitlements=reports[1].entitlements,
            workload=reports[1].workload,
            srm=PerfTable(solver="partition", rows={}),
            ts=PerfTable(solver="ts", rows={}),
        )
        text = render_report(empty)
        section = extract_section(text, "Comparative TS Performance")
        assert section.splitlines()[-1] == "User Thru RTime %Ucpu"

    def test_single_user_scenario_srm_equals_ts(self):
        s = parse_scenario(
            "total_shares 10\n"
            "group G shares=10\n"
            "user solo group=G shares=10 procs=1 think=0 demand=1 active=yes\n"
        )
        report = run_scenario(s)
        srm = extract_section(render_report(report), "Estimated SRM Performance")
        ts = extract_section(render_report(report), "Comparative TS Performance")
        assert "solo 1.00 1.00 100.00" in srm
        assert "solo 1.00 1.00 100.00" in ts


class TestCrossCompare:
    def test_report5_over_report4_ratio(self, reports):
        text = cross_compare([reports[4], reports[5]])
        second_block = text.split("Scenario 2")[1]
        fagg_line = next(l for l in second_block.splitlines() if l.startswith("fAgg"))
        # last column of the second block row is the cross ratio
        assert fagg_line.split()[-1] == "0.81"

    def test_absent_user_marked_na(self, reports):
        text = cross_compare([reports[1], reports[2]])
        opsc_line = next(l for l in text.splitlines() if l.startswith("opsC"))
        assert opsc_line.split()[-1] == "N/A"

    def test_same_report_twice_gives_unit_ratios(self, reports):
        text = cross_compare([reports[3], reports[3]])
        second_block = text.split("Scenario 2")[1]
        for line in second_block.splitlines():
            cells = line.split()
            if cells and cells[0] in reports[3].srm.rows:
                assert cells[-1] == "1.00"

    def test_reports_with_no_shared_users_compare_as_na(self, reports, load_scenario):
        other = run_scenario(load_scenario("example-2-2"))
        text = cross_compare([reports[4], other])
        second_block = text.split("Scenario 2")[1].splitlines()
        rows = [l.split() for l in second_block if l.startswith("usr")]
        assert [cells[0] for cells in rows] == ["usr1", "usr2"]
        assert all(cells[-1] == "N/A" for cells in rows)

    def test_extract_section_names_a_missing_heading(self, reports):
        with pytest.raises(ValidationError, match="^section 'No Such Section' not found in report$"):
            extract_section(render_report(reports[1]), "No Such Section")

    def test_requires_two_reports(self, reports):
        with pytest.raises(ValidationError):
            cross_compare([reports[1]])

    def test_printed_ratio_matches_printed_operands(self, reports):
        # quotient of the rendered 2-decimal cells agrees with the rendered
        # ratio to one unit in the last place
        text = cross_compare([reports[4], reports[5]])
        for line in text.splitlines():
            cells = line.split()
            if not cells or cells[0] not in reports[4].srm.rows:
                continue
            if "N/A" in cells or len(cells) < 4:
                continue
            rsm, rts, ratio = float(cells[1]), float(cells[2]), float(cells[3])
            assert abs(ratio - rsm / rts) <= 0.01 + 1e-9


class TestSimulateSolver:
    def test_simulated_srm_section(self, load_scenario):
        from fairshare.sim import SimConfig

        s = load_scenario("report1")
        s = type(s)(
            label=s.label,
            hierarchy=s.hierarchy,
            workload=s.workload,
            timeline=s.timeline,
            solver="simulate",
        )
        report = run_scenario(s, sim_config=SimConfig(duration=120.0, warmup=20.0))
        section = extract_section(render_report(report), "Estimated SRM Performance")
        assert section.rstrip().endswith("Solver: simulated")
        table = compute_entitlements(s.hierarchy)
        for user in ("opsA", "opsB"):
            cells = next(l for l in section.splitlines() if l.startswith(user)).split()
            assert float(cells[3]) == pytest.approx(100 * table.entitlements[user], abs=2.0)


PROCS = ("1", "2", "3")
THINK = ("0", "1e-300", "0.5", "1", "3", "1e308")
DEMAND = THINK[1:]
BAD = ("nan", "inf", "-inf", "-1", "0", "1.5")


@st.composite
def scenario_texts(draw):
    """Valid hierarchies with extreme workload and event numbers, one of
    which is mostly swapped for nan, an infinity, a negative or a zero."""
    groups = draw(st.lists(st.lists(st.integers(1, 9), min_size=1, max_size=2),
                           min_size=1, max_size=2))
    users = [(f"u{g}{u}", g, share) for g, shares in enumerate(groups)
             for u, share in enumerate(shares)]
    n_events = draw(st.integers(0, 2))
    numbers = [draw(st.sampled_from(choices))
               for choices in [PROCS, THINK, DEMAND] * len(users) + [THINK] * n_events]
    bad = draw(st.sampled_from((None, *range(len(numbers)))))
    if bad is not None:
        numbers[bad] = draw(st.sampled_from(BAD))
    numbers = iter(numbers)
    lines = [f"total_shares {sum(map(sum, groups))}"]
    lines += [f"group G{g} shares={sum(shares)}" for g, shares in enumerate(groups)]
    for name, g, share in users:
        lines.append(
            f"user {name} group=G{g} shares={share} procs={next(numbers)} think={next(numbers)} "
            f"demand={next(numbers)} active={draw(st.sampled_from(('yes', 'no')))}"
        )
    for _ in range(n_events):
        lines.append(f"event t={next(numbers)} activate={draw(st.sampled_from(users))[0]}")
    return "\n".join(lines) + "\n"


# numpy warns while 1e308 overflows to the inf or nan that PerfRow then rejects
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(text=scenario_texts(), solver=st.sampled_from(("partition", "conserving")))
def test_accepted_scenarios_give_finite_rows_or_a_toolkit_error(text, solver):
    try:
        scenario = parse_scenario(text)
    except ScenarioParseError:
        return
    try:
        report = run_scenario(dataclasses.replace(scenario, solver=solver))
    except FairshareError:
        return
    for table in (report.srm, report.ts):
        for row in table.rows.values():
            assert all(map(math.isfinite, (row.throughput, row.response, row.utilization)))
