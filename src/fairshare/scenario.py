"""Line-oriented scenario files tying shares, workloads and timelines together.

Grammar ('#' starts a comment, blank lines ignored):

    total_shares <int>
    group <name> shares=<int>
    user <name> group=<name> shares=<int> procs=<int> think=<float> demand=<float> active=<yes|no>
    event t=<float> <activate|deactivate>=<user>
    solver <partition|conserving|simulate>

Groups must be declared before their users.  The total_shares line is
given once; the solver line at most once, and it defaults to partition.
"""

from __future__ import annotations

import io
from typing import NamedTuple

from .errors import ScenarioParseError, ValidationError
from .mva import ClassLoad, WorkloadSpec
from .shares import GroupAlloc, ShareHierarchy, TimelineEvent, UserAlloc, validate_timeline

SOLVERS = ("partition", "conserving", "simulate")


class Scenario(NamedTuple):
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

    def name(self, usage: str, seen, kind: str) -> str:
        """The name after the directive: ``usage`` is the error when there is none,
        and a name in ``seen`` is a duplicate ``kind``."""
        tokens = self.tokens
        if len(tokens) < 2 or "=" in tokens[1]:
            raise ScenarioParseError(usage, self.no)
        if tokens[1] in seen:
            raise ScenarioParseError(f"duplicate {kind} {tokens[1]!r}", self.no)
        return tokens[1]

    def fields(self, start: int, keys, optional=()) -> tuple:
        """The values of the ``key=value`` tokens from ``tokens[start]`` on, cast.

        ``keys`` holds ``(key, cast)`` pairs, in the order of the values; a
        key in ``optional`` may be left out and gives None.  The first fault
        is reported: a token that is not ``key=value`` or repeats a key; a
        key missing or its value bad, in ``keys`` order; then a key not in it.
        """
        found = {}
        for i, token in enumerate(self.tokens[start:], start):
            key, sep, value = token.partition("=")
            if not sep or not key or not value:
                raise ScenarioParseError(f"expected key=value, got {token!r}", self.no, self.column(i))
            if key in found:
                raise ScenarioParseError(f"duplicate key {key!r}", self.no, self.column(i))
            found[key] = (value, i)
        values = []
        for key, cast in keys:
            value, i = found.pop(key, (None, None))
            if value is not None:
                try:
                    value = cast(value)
                except ValueError:
                    raise ScenarioParseError(
                        f"bad value for {key}: {value!r}", self.no, self.column(i)
                    ) from None
            elif key not in optional:
                raise ScenarioParseError(f"missing {key}=", self.no)
            values.append(value)
        if found:
            extra, (_, i) = next(iter(found.items()))
            raise ScenarioParseError(
                f"unknown key {extra!r} on {self.tokens[0]} line", self.no, self.column(i)
            )
        return tuple(values)


def _lines(text: str):
    r"""Yield a ``_Line`` for each line with content, comments stripped.  Lines
    end at ``\n``, ``\r\n`` or ``\r``, as in a text file, and nowhere else."""
    for line_no, raw in enumerate(io.StringIO(text, newline=None), start=1):
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


def _yes_no(value: str) -> bool:
    if value == "yes":
        return True
    if value == "no":
        return False
    raise ValueError(value)


_GROUP_KEYS = (("shares", int),)
_USER_KEYS = (("group", str), ("shares", int), ("procs", int), ("think", float),
              ("demand", float), ("active", _yes_no))
_EVENT_KEYS = (("t", float), ("activate", str), ("deactivate", str))


def parse_scenario(text: str, label: str = "scenario") -> Scenario:
    """Parse and validate scenario text; diagnostics carry line numbers."""
    total_shares = total_line = None
    groups: dict[str, tuple[int, int, list[UserAlloc]]] = {}  # name: shares, line, users
    user_names: set[str] = set()
    loads: list[ClassLoad] = []
    events: list[TimelineEvent] = []
    event_lines: list[int] = []
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
            total_line = line_no

        elif keyword == "group":
            name = line.name("expected: group <name> shares=<int>", groups, "group")
            (shares,) = line.fields(2, _GROUP_KEYS)
            groups[name] = (shares, line_no, [])

        elif keyword == "user":
            name = line.name("expected: user <name> key=value...", user_names, "user")
            group, shares, procs, think, demand, active = line.fields(2, _USER_KEYS)
            if group not in groups:
                column = line.column(tokens.index(f"group={group}", 2)) + len("group=")
                raise ScenarioParseError(f"unknown group {group!r}", line_no, column)
            loads.append(_build(ClassLoad, line_no, user=name, procs=procs, think=think, demand=demand))
            groups[group][2].append(_build(UserAlloc, line_no, name=name, shares=shares, active=active))
            user_names.add(name)

        elif keyword == "event":
            when, activate, deactivate = line.fields(1, _EVENT_KEYS, ("activate", "deactivate"))
            if activate is not None and deactivate is not None:
                raise ScenarioParseError("event has both activate= and deactivate=", line_no)
            if activate is None and deactivate is None:
                raise ScenarioParseError("event needs activate=<user> or deactivate=<user>", line_no)
            action = "activate" if deactivate is None else "deactivate"
            events.append(_build(TimelineEvent, line_no, time=when, action=action,
                                 user=activate or deactivate))
            event_lines.append(line_no)

        elif keyword == "solver":
            if solver is not None:
                raise ScenarioParseError("solver given twice", line_no)
            if len(tokens) != 2 or tokens[1] not in SOLVERS:
                raise ScenarioParseError(
                    f"expected: solver <{'|'.join(SOLVERS)}>", line_no
                )
            solver = tokens[1]

        else:
            raise ScenarioParseError(f"unknown directive {keyword!r}", line_no, 1)

    if not groups:
        raise ScenarioParseError("no groups defined")
    if total_shares is None:
        raise ScenarioParseError("missing total_shares line")

    allocs = tuple(_build(GroupAlloc, group_line, name=name, shares=shares, users=tuple(users))
                   for name, (shares, group_line, users) in groups.items())
    hierarchy = _build(ShareHierarchy, total_line, total_allocated_shares=total_shares, groups=allocs)
    try:
        validate_timeline(events, hierarchy)
    except ValidationError as exc:
        raise ScenarioParseError(str(exc), event_lines[exc.event_index]) from exc

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
