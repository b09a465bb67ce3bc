"""Scenario grammar: parsing, diagnostics, and round-tripping."""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairshare.errors import ScenarioParseError
from fairshare.mva import WorkloadSpec
from fairshare.scenario import parse_scenario, render_scenario
from fairshare.sim import TimelineEvent

GOOD = """\
# demo
total_shares 100
group FIN shares=60
group WEB shares=10
group OPS shares=30
user fAgg group=FIN shares=60 procs=1 think=0 demand=1 active=yes
user wAgg group=WEB shares=10 procs=1 think=0 demand=1 active=yes
user opsA group=OPS shares=6 procs=1 think=0 demand=1 active=yes
user opsB group=OPS shares=5 procs=1 think=0 demand=1 active=yes
user opsC group=OPS shares=19 procs=1 think=0 demand=1 active=yes
event t=60 deactivate=opsC
solver partition
"""


class TestParse:
    def test_full_scenario(self):
        s = parse_scenario(GOOD, label="demo")
        assert s.label == "demo"
        assert len(s.hierarchy.groups) == 3
        assert len(list(s.hierarchy.users())) == 5
        assert all(u.active for u in s.hierarchy.users())
        assert s.hierarchy.total_allocated_shares == 100
        assert s.workload.for_user("opsC").demand == 1.0
        assert s.timeline[0].action == "deactivate"
        assert s.timeline[0].user == "opsC"
        assert s.solver == "partition"

    def test_shipped_report4(self, load_scenario):
        s = load_scenario("report4")
        assert len(s.hierarchy.groups) == 3
        assert sum(u.shares for u in s.hierarchy.users() if u.active) == 100

    def test_empty_input(self):
        with pytest.raises(ScenarioParseError, match="no groups defined"):
            parse_scenario("")

    def test_share_sum_violation_names_group(self):
        bad = GOOD.replace("user opsB group=OPS shares=5", "user opsB group=OPS shares=4")
        with pytest.raises(ScenarioParseError, match=r"OPS.*29.*30"):
            parse_scenario(bad)

    def test_unknown_group_reference(self):
        bad = GOOD.replace("user opsA group=OPS", "user opsA group=OPS2")
        with pytest.raises(ScenarioParseError, match=r"line 8.*OPS2"):
            parse_scenario(bad)

    def test_unknown_event_user(self):
        bad = GOOD.replace("deactivate=opsC", "deactivate=nobody")
        with pytest.raises(ScenarioParseError, match="nobody"):
            parse_scenario(bad)

    def test_duplicate_user(self):
        bad = GOOD.replace(
            "user opsB group=OPS shares=5", "user opsA group=OPS shares=5"
        )
        with pytest.raises(ScenarioParseError, match="duplicate user"):
            parse_scenario(bad)

    def test_bad_solver(self):
        bad = GOOD.replace("solver partition", "solver magic")
        with pytest.raises(ScenarioParseError, match="solver"):
            parse_scenario(bad)

    def test_bad_value_has_line_and_column(self):
        bad = GOOD.replace("shares=60 procs=1 think=0 demand=1 active=yes",
                           "shares=60 procs=one think=0 demand=1 active=yes", 1)
        with pytest.raises(ScenarioParseError, match=r"line 6.*procs"):
            parse_scenario(bad)

    def test_missing_total_shares(self):
        bad = "\n".join(l for l in GOOD.splitlines() if not l.startswith("total_shares"))
        with pytest.raises(ScenarioParseError, match="total_shares"):
            parse_scenario(bad)

    def test_unknown_directive(self):
        with pytest.raises(ScenarioParseError, match="line 1"):
            parse_scenario("groop A shares=1")

    def test_events_must_be_ordered(self):
        bad = GOOD.replace(
            "event t=60 deactivate=opsC",
            "event t=60 deactivate=opsC\nevent t=10 activate=opsC",
        )
        with pytest.raises(ScenarioParseError, match="non-decreasing"):
            parse_scenario(bad)

    def test_share_sum_error_names_the_right_group_line(self):
        text = (
            "total_shares 20\n"
            "group OPS shares=10\n"
            "group OPS2 shares=10\n"
            "user a group=OPS shares=10 procs=1 think=0 demand=1 active=yes\n"
            "user b group=OPS2 shares=9 procs=1 think=0 demand=1 active=yes\n"
        )
        with pytest.raises(ScenarioParseError, match=r"^line 3: group OPS2:"):
            parse_scenario(text)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("think=0", "think=nan", "think time"),
            ("think=0", "think=-1", "think time"),
            ("demand=1", "demand=inf", "demand"),
            ("demand=1", "demand=0", "demand"),
            ("procs=1", "procs=0", "procs"),
        ],
    )
    def test_bad_workload_numbers_name_their_line(self, old, new, message):
        line = "user wAgg group=WEB shares=10 procs=1 think=0 demand=1 active=yes"
        bad = GOOD.replace(line, line.replace(old, new))
        with pytest.raises(ScenarioParseError, match=rf"^line 7: user wAgg: .*{message}"):
            parse_scenario(bad)

    @pytest.mark.parametrize("when", ["nan", "inf", "-1"])
    def test_event_time_must_be_finite_and_not_negative(self, when):
        bad = GOOD.replace("event t=60", f"event t={when}")
        with pytest.raises(ScenarioParseError, match=r"^line 11: event time"):
            parse_scenario(bad)

    def test_defaults_to_partition_solver(self):
        no_solver = "\n".join(l for l in GOOD.splitlines() if not l.startswith("solver"))
        assert parse_scenario(no_solver).solver == "partition"


class TestRoundTrip:
    def test_parse_render_parse_is_stable(self):
        first = parse_scenario(GOOD, label="demo")
        second = parse_scenario(render_scenario(first), label="demo")
        assert second == first
        assert render_scenario(second) == render_scenario(first)

    def test_shipped_scenarios_round_trip(self, scenario_dir):
        for path in sorted(scenario_dir.glob("*.fsp")):
            original = parse_scenario(path.read_text(), label=path.stem)
            rendered = render_scenario(original)
            assert parse_scenario(rendered, label=path.stem) == original

    @settings(max_examples=50, deadline=None)
    @given(
        think=st.floats(min_value=0.0, allow_infinity=False),
        demand=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        when=st.floats(min_value=0.0, allow_infinity=False),
    )
    @example(think=0.123456789, demand=1e-12, when=60.000000001)
    def test_render_keeps_every_float(self, think, demand, when):
        base = parse_scenario(GOOD, label="demo")
        classes = list(base.workload.classes)
        classes[0] = dataclasses.replace(classes[0], think=think, demand=demand)
        scenario = dataclasses.replace(
            base,
            workload=WorkloadSpec(tuple(classes)),
            timeline=(TimelineEvent(when, "deactivate", "opsC"),),
        )
        assert parse_scenario(render_scenario(scenario), label="demo") == scenario
