"""Line-oriented scenario files tying shares, workloads and timelines together.

Grammar ('#' starts a comment, blank lines ignored):

    total_shares <int>
    group <name> shares=<int>
    user <name> group=<name> shares=<int> procs=<int> think=<float> demand=<float> active=<yes|no>
    event t=<float> <activate|deactivate>=<user>
    solver <partition|conserving|simulate>

Groups must be declared before their users; the solver line is optional
and defaults to partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import ScenarioParseError, ValidationError
from .mva import ClassLoad, WorkloadSpec
from .shares import GroupAlloc, ShareHierarchy, UserAlloc
from .sim import TimelineEvent, validate_timeline

SOLVERS = ("partition", "conserving", "simulate")


@dataclass(frozen=True)
class Scenario:
    label: str
    hierarchy: ShareHierarchy
    workload: WorkloadSpec
    timeline: tuple[TimelineEvent, ...]
    solver: str


class _Line(NamedTuple):
    """A line with content: its number, its text without the comment, its tokens."""

    no: int
    text: str
    tokens: list[str]

    def column(self, i: int) -> int:
        """The 1-based column where ``tokens[i]`` starts; only diagnostics need it."""
        end = 0  # each token starts at the first non-space after the one before
        for token in self.tokens[:i]:
            end = self.text.index(token, end) + len(token)
        return self.text.index(self.tokens[i], end) + 1


def _lines(text: str):
    """Yield a ``_Line`` for each line with content, comments stripped."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if tokens:
            yield _Line(line_no, line, tokens)


def _build(model, line_no, **fields):
    """Construct a model value; its ValidationError becomes a parse error at ``line_no``."""
    try:
        return model(**fields)
    except ValidationError as exc:
        raise ScenarioParseError(str(exc), line_no) from exc


def _parse_kv(line, start):
    """``{key: (value, token index)}`` from ``line``'s ``key=value`` tokens from ``start`` on."""
    out = {}
    for i, token in enumerate(line.tokens[start:], start):
        key, sep, value = token.partition("=")
        if not sep or not key or not value:
            raise ScenarioParseError(f"expected key=value, got {token!r}", line.no, line.column(i))
        if key in out:
            raise ScenarioParseError(f"duplicate key {key!r}", line.no, line.column(i))
        out[key] = (value, i)
    return out

def _take(kv, key, cast, line):
    if key not in kv:
        raise ScenarioParseError(f"missing {key}=", line.no)
    value, i = kv.pop(key)
    try:
        return cast(value)
    except ValueError:
        raise ScenarioParseError(f"bad value for {key}: {value!r}", line.no, line.column(i)) from None


def _reject_unknown_keys(kv, directive, line):
    if kv:
        extra = next(iter(kv))
        raise ScenarioParseError(
            f"unknown key {extra!r} on {directive} line", line.no, line.column(kv[extra][1])
        )


def _yes_no(value: str) -> bool:
    if value == "yes":
        return True
    if value == "no":
        return False
    raise ValueError(value)


def parse_scenario(text: str, label: str = "scenario") -> Scenario:
    """Parse and validate scenario text; diagnostics carry line numbers."""
    total_shares = None
    group_rows: list[tuple[str, int, int]] = []  # name, shares, line
    group_lines: dict[str, int] = {}
    users_by_group: dict[str, list[UserAlloc]] = {}
    user_names: set[str] = set()
    loads: list[ClassLoad] = []
    events: list[TimelineEvent] = []
    solver = None

    for line in _lines(text):
        line_no, tokens = line.no, line.tokens
        keyword = tokens[0]

        if keyword == "total_shares":
            if total_shares is not None:
                raise ScenarioParseError("total_shares given twice", line_no)
            if len(tokens) != 2:
                raise ScenarioParseError("expected: total_shares <int>", line_no)
            try:
                total_shares = int(tokens[1])
            except ValueError:
                raise ScenarioParseError(
                    f"bad share count {tokens[1]!r}", line_no, line.column(1)
                ) from None

        elif keyword == "group":
            if len(tokens) < 2 or "=" in tokens[1]:
                raise ScenarioParseError("expected: group <name> shares=<int>", line_no)
            name = tokens[1]
            if name in group_lines:
                raise ScenarioParseError(f"duplicate group {name!r}", line_no)
            kv = _parse_kv(line, 2)
            shares = _take(kv, "shares", int, line)
            _reject_unknown_keys(kv, "group", line)
            group_rows.append((name, shares, line_no))
            group_lines[name] = line_no
            users_by_group[name] = []

        elif keyword == "user":
            if len(tokens) < 2 or "=" in tokens[1]:
                raise ScenarioParseError("expected: user <name> key=value...", line_no)
            name = tokens[1]
            if name in user_names:
                raise ScenarioParseError(f"duplicate user {name!r}", line_no)
            kv = _parse_kv(line, 2)
            group_index = kv["group"][1] if "group" in kv else None
            group = _take(kv, "group", str, line)
            shares = _take(kv, "shares", int, line)
            procs = _take(kv, "procs", int, line)
            think = _take(kv, "think", float, line)
            demand = _take(kv, "demand", float, line)
            active = _take(kv, "active", _yes_no, line)
            _reject_unknown_keys(kv, "user", line)
            if group not in users_by_group:
                raise ScenarioParseError(
                    f"unknown group {group!r}", line_no, line.column(group_index) + len("group=")
                )
            loads.append(_build(ClassLoad, line_no, user=name, procs=procs, think=think, demand=demand))
            user_names.add(name)
            users_by_group[group].append(UserAlloc(name=name, shares=shares, active=active))

        elif keyword == "event":
            kv = _parse_kv(line, 1)
            when = _take(kv, "t", float, line)
            action = None
            user = None
            for candidate in ("activate", "deactivate"):
                if candidate in kv:
                    if action is not None:
                        raise ScenarioParseError("event has both activate= and deactivate=", line_no)
                    action = candidate
                    user = _take(kv, candidate, str, line)
            if action is None:
                raise ScenarioParseError("event needs activate=<user> or deactivate=<user>", line_no)
            _reject_unknown_keys(kv, "event", line)
            events.append(_build(TimelineEvent, line_no, time=when, action=action, user=user))

        elif keyword == "solver":
            if len(tokens) != 2 or tokens[1] not in SOLVERS:
                raise ScenarioParseError(
                    f"expected: solver <{'|'.join(SOLVERS)}>", line_no
                )
            solver = tokens[1]

        else:
            raise ScenarioParseError(f"unknown directive {keyword!r}", line_no, 1)

    if not group_rows:
        raise ScenarioParseError("no groups defined")
    if total_shares is None:
        raise ScenarioParseError("missing total_shares line")

    try:
        hierarchy = ShareHierarchy(
            total_allocated_shares=total_shares,
            groups=tuple(
                GroupAlloc(name=name, shares=shares, users=tuple(users_by_group[name]))
                for name, shares, _ in group_rows
            ),
        )
    except ValidationError as exc:
        line = next(
            (group_line for name, _, group_line in group_rows if f"group {name}:" in str(exc)),
            None,
        )
        raise ScenarioParseError(str(exc), line) from exc
    try:
        validate_timeline(events, hierarchy)
    except ValidationError as exc:
        raise ScenarioParseError(str(exc)) from exc

    return Scenario(
        label=label,
        hierarchy=hierarchy,
        workload=WorkloadSpec(classes=tuple(loads)),
        timeline=tuple(events),
        solver=solver or "partition",
    )


def render_scenario(s: Scenario) -> str:
    """Serialize a scenario back to the grammar (parse/render round-trips)."""
    loads = {c.user: c for c in s.workload.classes}
    lines = [f"total_shares {s.hierarchy.total_allocated_shares}"]
    for group in s.hierarchy.groups:
        lines.append(f"group {group.name} shares={group.shares}")
    for group in s.hierarchy.groups:
        for user in group.users:
            if user.name not in loads:
                raise ValidationError(f"user {user.name!r} not in workload")
            load = loads[user.name]
            lines.append(
                f"user {user.name} group={group.name} shares={user.shares} "
                f"procs={load.procs} think={load.think!r} demand={load.demand!r} "
                f"active={'yes' if user.active else 'no'}"
            )
    for ev in s.timeline:
        lines.append(f"event t={ev.time!r} {ev.action}={ev.user}")
    lines.append(f"solver {s.solver}")
    return "\n".join(lines) + "\n"
