"""Scenario grammar: parsing, diagnostics, and round-tripping."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairshare.errors import ScenarioParseError, ValidationError
from fairshare.mva import ClassLoad, WorkloadSpec
from fairshare.planning import parse_slo_file
from fairshare.scenario import parse_scenario, render_scenario
from fairshare.shares import TimelineEvent

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


# Characters at which str.splitlines() also breaks a line, and a text file does not.
NOT_LINE_ENDS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


class TestParse:
    def test_full_scenario(self):
        s = parse_scenario(GOOD, label="demo")
        assert s.label == "demo"
        assert len(s.hierarchy.groups) == 3
        assert len(list(s.hierarchy.users())) == 5
        assert all(u.active for u in s.hierarchy.users())
        assert s.hierarchy.total_allocated_shares == 100
        assert s.workload.classes[4] == ClassLoad("opsC", procs=1, think=0.0, demand=1.0)
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
        with pytest.raises(ScenarioParseError) as exc:
            parse_scenario(bad)
        assert str(exc.value) == "line 11: unknown user 'nobody'"

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
        with pytest.raises(ScenarioParseError) as exc:
            parse_scenario(bad)
        assert str(exc.value) == "line 12: timeline event times must be non-decreasing"

    def test_first_failing_event_is_reported(self):
        bad = GOOD.replace(
            "event t=60 deactivate=opsC",
            "event t=60 deactivate=opsC\nevent t=70 activate=nobody\nevent t=10 activate=opsC",
        )
        with pytest.raises(ScenarioParseError) as exc:
            parse_scenario(bad)
        assert str(exc.value) == "line 12: unknown user 'nobody'"

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("solver partition", "solver partition\ntotal_shares 100",
             "line 13: total_shares given twice"),
            ("total_shares 100", "total_shares", "line 2: expected: total_shares <int>"),
            ("total_shares 100", "total_shares 100 0", "line 2: expected: total_shares <int>"),
            ("event t=60 deactivate=opsC", "event t=60 activate=opsC deactivate=opsC",
             "line 11: event has both activate= and deactivate="),
            ("event t=60 deactivate=opsC", "event t=60",
             "line 11: event needs activate=<user> or deactivate=<user>"),
            ("group OPS shares=30", "group OPS shares=30\ngroup IDLE shares=0",
             "line 6: group IDLE: shares must be a positive integer"),
            ("solver partition", "solver conserving\nsolver simulate",
             "line 13: solver given twice"),
        ],
        ids=["total-twice", "total-no-count", "total-two-counts", "event-both", "event-neither",
             "group-zero", "solver-twice"],
    )
    def test_one_fault_gives_its_diagnostic(self, old, new, message):
        with pytest.raises(ScenarioParseError) as exc:
            parse_scenario(GOOD.replace(old, new))
        assert str(exc.value) == message

    # Faults on different lines: the first one reported is pinned here.
    @pytest.mark.parametrize(
        "edits, message",
        [
            ((("user wAgg group=WEB shares=10", "user wAgg group=WEB shares=0"),
              ("solver partition", "solver partition\ntotal_shares 100")),
             "line 7: user wAgg: shares must be a positive integer"),
            ((("total_shares 100", "total_shares 0"),
              ("user opsB group=OPS shares=5", "user opsB group=OPS shares=4")),
             "line 5: group OPS: user shares sum to 29, group allocation is 30"),
            ((("total_shares 100", "total_shares 0"),
              ("user wAgg group=WEB shares=10", "user wAgg group=WEB shares=0")),
             "line 7: user wAgg: shares must be a positive integer"),
            ((("user fAgg group=FIN shares=60", "user fAgg group=FIN shares=59"),
              ("user opsA group=OPS shares=6", "user opsA group=OPS shares=0")),
             "line 8: user opsA: shares must be a positive integer"),
            ((("total_shares 100\n", ""),
              ("user wAgg group=WEB shares=10", "user wAgg group=WEB shares=0")),
             "line 6: user wAgg: shares must be a positive integer"),
        ],
        ids=["user-then-line", "total-then-group", "total-then-user", "group-then-user",
             "user-then-no-total"],
    )
    def test_faults_on_two_lines_give_the_pinned_diagnostic(self, edits, message):
        text = GOOD
        for old, new in edits:
            text = text.replace(old, new)
        with pytest.raises(ScenarioParseError) as exc:
            parse_scenario(text)
        assert str(exc.value) == message

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
            ("total_shares 100", "total_shares 0",
             "line 2: total allocated shares must be a positive integer, got 0"),
            ("user wAgg group=WEB shares=10", "user wAgg group=WEB shares=0",
             "line 7: user wAgg: shares must be a positive integer"),
            ("total_shares 100", "total_shares 101",
             "line 2: group shares sum to 100, total allocation is 101"),
        ],
        ids=["total", "user", "group-sum"],
    )
    def test_hierarchy_errors_name_their_line(self, old, new, message):
        with pytest.raises(ScenarioParseError) as exc:
            parse_scenario(GOOD.replace(old, new))
        assert str(exc.value) == message

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

    @pytest.mark.parametrize(
        "line, directive, line_no",
        [
            ("group WEB shares=10", "group", 4),
            ("user wAgg group=WEB shares=10 procs=1 think=0 demand=1 active=yes", "user", 7),
            ("event t=60 deactivate=opsC", "event", 11),
        ],
    )
    def test_unknown_key_names_line_and_column(self, line, directive, line_no):
        bad = GOOD.replace(line, f"{line} color=red")
        column = len(line) + 2
        with pytest.raises(ScenarioParseError) as exc:
            parse_scenario(bad)
        assert str(exc.value) == f"line {line_no}, col {column}: unknown key 'color' on {directive} line"
        assert (exc.value.line, exc.value.column) == (line_no, column)

    def test_repeated_token_names_its_own_column(self):
        line = "user wAgg group=WEB shares=10 procs=1 think=0 demand=1 active=yes"
        bad = GOOD.replace(line, f"{line} shares=10")
        with pytest.raises(ScenarioParseError) as exc:
            parse_scenario(bad)
        assert str(exc.value) == f"line 7, col {len(line) + 2}: duplicate key 'shares'"

    def test_unknown_group_column_is_its_value(self):
        # The group name also occurs earlier in the line, inside the user name.
        line = "user wAgg group=WEB shares=10 procs=1 think=0 demand=1 active=yes"
        bad = GOOD.replace(line, line.replace("group=WEB", "group=Agg"))
        with pytest.raises(ScenarioParseError) as exc:
            parse_scenario(bad)
        assert str(exc.value) == "line 7, col 17: unknown group 'Agg'"

    # A line with two faults gives one diagnostic; which one is pinned here, so
    # that a change to the order in which the reader checks a line shows.
    @pytest.mark.parametrize(
        "line_no, line, message",
        [
            (4, "group FIN shares=x", "line 4: duplicate group 'FIN'"),
            (4, "group WEB shares=x color=red", "line 4, col 11: bad value for shares: 'x'"),
            (7, "user fAgg group=WEB shares=10 procs=one think=0 demand=1 active=yes",
             "line 7: duplicate user 'fAgg'"),
            (7, "user wAgg group=WEB shares=x procs=1 think=0 demand=1 active=yes color=red",
             "line 7, col 21: bad value for shares: 'x'"),
            (7, "user wAgg group=WEB shares=10 procs=1 think=0 active=yes color=red",
             "line 7: missing demand="),
            (7, "user wAgg group=WEB shares=10 procs=1 think=0 demand=1 active=maybe demand=2",
             "line 7, col 69: duplicate key 'demand'"),
            (7, "user wAgg group=NOPE shares=10 procs=1 think=0 demand=1 active=yes color=red",
             "line 7, col 68: unknown key 'color' on user line"),
            (7, "user wAgg group=NOPE shares=10 procs=0 think=0 demand=1 active=yes",
             "line 7, col 17: unknown group 'NOPE'"),
            (11, "event t=x deactivate=opsC color=red", "line 11, col 7: bad value for t: 'x'"),
            (11, "event deactivate=opsC color=red", "line 11: missing t="),
            (11, "event t=60 deactivate=opsC oops", "line 11, col 28: expected key=value, got 'oops'"),
            # Neither action, or both, and an unknown key: keys are checked
            # before the rule that an event has exactly one action.
            (11, "event zz=1 t=5", "line 11, col 7: unknown key 'zz' on event line"),
            (11, "event t=60 activate=opsC deactivate=opsC color=red",
             "line 11, col 42: unknown key 'color' on event line"),
        ],
    )
    def test_two_faults_give_the_pinned_diagnostic(self, line_no, line, message):
        lines = GOOD.splitlines()
        lines[line_no - 1] = line
        with pytest.raises(ScenarioParseError) as exc:
            parse_scenario("\n".join(lines) + "\n")
        assert str(exc.value) == message

    def test_defaults_to_partition_solver(self):
        no_solver = "\n".join(l for l in GOOD.splitlines() if not l.startswith("solver"))
        assert parse_scenario(no_solver).solver == "partition"

    @pytest.mark.parametrize("sep", NOT_LINE_ENDS)
    def test_a_comment_runs_to_the_end_of_its_text_line(self, sep):
        text = GOOD.replace("event t=60", f"# off{sep}event t=60")
        assert parse_scenario(text).timeline == ()

    @pytest.mark.parametrize("sep", NOT_LINE_ENDS)
    def test_diagnostics_count_text_lines_only(self, sep):
        bad = GOOD.replace("total_shares 100", f"total_shares 100{sep}").replace("FIN shares=60",
                                                                                "FIN shares=sixty")
        with pytest.raises(ScenarioParseError, match=r"^line 3, col 11: bad value for shares"):
            parse_scenario(bad)

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_crlf_and_cr_end_one_line_each(self, end):
        bad = GOOD.replace("FIN shares=60", "FIN shares=sixty").replace("\n", end)
        with pytest.raises(ScenarioParseError, match=r"^line 3, col 11: bad value for shares"):
            parse_scenario(bad)


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
        classes[0] = classes[0]._replace(think=think, demand=demand)
        scenario = base._replace(
            workload=WorkloadSpec(tuple(classes)),
            timeline=(TimelineEvent(when, "deactivate", "opsC"),),
        )
        assert parse_scenario(render_scenario(scenario), label="demo") == scenario

    def test_render_names_a_user_without_a_workload(self):
        base = parse_scenario(GOOD, label="demo")
        scenario = base._replace(workload=WorkloadSpec(base.workload.classes[:4]))
        with pytest.raises(ValidationError, match="user 'opsC' not in workload"):
            render_scenario(scenario)


# Seeded one-line mutations of the shipped scenario and SLO files.  The
# diagnostic each one raises, message, line and column, is pinned in
# golden/parse_errors.txt, one ``file:line kind mutated-line -> error`` line
# per case; write parse_error_lines() to that file to pin new cases.
MUTATED_FILES = ("report1.fsp", "report2.fsp", "report3.fsp", "report4.fsp", "report5.fsp",
                 "example-2-2.fsp", "slo-example.txt")
BAD_VALUES = {
    **dict.fromkeys(("shares", "procs"), ("x", "1.5", "6e1", "0x10", "")),
    **dict.fromkeys(("think", "demand", "t", "umax", "rslo"), ("fast", "1,5", "0.5s", "--1")),
    "active": ("maybe", "Yes", "1", "true"),
}


def _kv_slots(tokens):
    """Indices of the ``key=value`` tokens of a line, or () for lines without them."""
    first = {"event": 1, "group": 2, "user": 2, "target": 2}.get(tokens[0])
    return range(first, len(tokens)) if first else ()


def _insert_after(rng, tokens, i, token):
    j = rng.randint(i + 1, len(tokens))
    return tokens[:j] + [token] + tokens[j:]


def _bad_value(rng, tokens):
    if tokens[0] == "total_shares":
        return [tokens[0], rng.choice(("x", "1.5", "100.0", "ten"))]
    slots = [i for i in _kv_slots(tokens) if tokens[i].partition("=")[0] in BAD_VALUES]
    if slots:
        i = rng.choice(slots)
        key = tokens[i].partition("=")[0]
        return tokens[:i] + [f"{key}={rng.choice(BAD_VALUES[key])}"] + tokens[i + 1:]


def _duplicate_key(rng, tokens):
    slots = list(_kv_slots(tokens))
    if slots:
        i = rng.choice(slots)
        return _insert_after(rng, tokens, i, tokens[i].partition("=")[0] + "=7")


def _unknown_key(rng, tokens):
    slots = list(_kv_slots(tokens))
    if slots:
        return _insert_after(rng, tokens, slots[0] - 1,
                             rng.choice(("color=red", "prio=3", "Shares=1", "umax2=0.1")))


def _no_equals(rng, tokens):
    slots = list(_kv_slots(tokens))
    if slots:
        return _insert_after(rng, tokens, slots[0] - 1,
                             rng.choice(("oops", "shares", "=1", "procs=", "=")))


def _key_as_name(rng, tokens):
    if tokens[0] in ("group", "user", "target"):
        return [tokens[0], rng.choice(("shares=5", "name=x", "umax=0.2"))] + tokens[2:]


def _unknown_group(rng, tokens):
    if tokens[0] == "user":
        # Names that also occur earlier in the line, inside the user name.
        name = rng.choice((tokens[1][1:], tokens[1][:2], tokens[1][-2:], "NOPE"))
        return [f"group={name}" if t.startswith("group=") else t for t in tokens]


def _repeated_token(rng, tokens):
    slots = list(_kv_slots(tokens))
    if slots:
        i = rng.choice(slots)
        return _insert_after(rng, tokens, i, tokens[i])


def _key_in_earlier_token(rng, tokens):
    slots = list(_kv_slots(tokens))
    if slots:
        i = rng.randint(1, len(tokens) - 1)
        token = tokens[i]
        k = rng.randint(1, len(token) - 1)
        return _insert_after(rng, tokens, i, rng.choice((token[k:], token[:k])))


def _inner_token_then_repeat(rng, tokens):
    # A key=value token that also occurs inside an earlier one, then a repeat
    # of a later token: the repeat's column is found only by searching on
    # from where the inner token really is.
    slots = list(_kv_slots(tokens))
    if len(slots) > 1:
        i = rng.choice(slots[:-1])
        inner = tokens[i][rng.randint(0, tokens[i].index("=") - 1):]
        return tokens + [inner, tokens[rng.choice(slots[slots.index(i) + 1:])]]


MUTATIONS = {
    "bad-value": _bad_value,
    "duplicate-key": _duplicate_key,
    "unknown-key": _unknown_key,
    "no-equals": _no_equals,
    "key-as-name": _key_as_name,
    "unknown-group": _unknown_group,
    "repeated-token": _repeated_token,
    "key-in-earlier-token": _key_in_earlier_token,
    "inner-token-then-repeat": _inner_token_then_repeat,
}
PADDING = {
    "spaces": (" ",),
    "tabs": ("\t", " \t", "\t\t"),
    "nbsp": ("\xa0", " \xa0", "\xa0\xa0"),
    "mixed": (" ", "  ", "\t", "\xa0", " \t\xa0"),
}
COMMENTS = ("", "", " # note", "\t# shares=1 oops", "# x", " #")


def parse_error_lines(scenario_dir, cases=270, seed=13):
    sources = {name: (scenario_dir / name).read_text().splitlines() for name in MUTATED_FILES}
    rng = random.Random(seed)
    out = []
    for n in range(cases):
        kind = list(MUTATIONS)[n % len(MUTATIONS)]
        tokens = None
        while tokens is None:
            name = rng.choice(MUTATED_FILES)
            lines = sources[name]
            index = rng.choice([i for i, line in enumerate(lines)
                                if line.strip() and not line.startswith("#")])
            tokens = MUTATIONS[kind](rng, lines[index].split())
        padding = rng.choice(list(PADDING))
        seps = PADDING[padding]
        line = rng.choice(("", *seps)) + tokens[0]
        for token in tokens[1:]:
            line += rng.choice(seps) + token
        line += rng.choice(COMMENTS)
        text = "\n".join(lines[:index] + [line] + lines[index + 1:]) + "\n"
        try:
            if name.endswith(".fsp"):
                parse_scenario(text, label=name)
            else:
                parse_slo_file(text)
            result = "parsed"
        except ScenarioParseError as exc:
            result = str(exc)
        out.append(f"{name}:{index + 1} {kind}/{padding} {line!r} -> {result!r}")
    return out


def test_parse_errors_match_pinned_text(scenario_dir, golden_dir):
    expected = (golden_dir / "parse_errors.txt").read_text().splitlines()
    assert parse_error_lines(scenario_dir) == expected
