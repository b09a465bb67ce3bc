"""Top-down share allocation from measured load, and goal monitoring from ps logs.

Allocation: measure each workload's peak utilization under plain time
sharing (optionally plus a response-time target), turn those into required
entitlements, and integerize into shares.  The response-time requirement
uses the guaranteed-minimum relation R = D/E, so targets hold even when
every share is active.

Monitoring: replay timestamped BSD ``ps aux`` output, difference the
cumulative TIME column per user, and compare achieved busy-time fractions
against entitlements.  TIME deltas are used rather than the instantaneous
%CPU column, which is only a sampling approximation.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .errors import InfeasiblePlanError, PsLogError, ScenarioParseError, ValidationError
from .scenario import _build, _lines, _parse_kv, _reject_unknown_keys, _take
from .shares import EntitlementTable

SPLIT_ADVICE = "use domains, or split groups across separate servers"

# Quota fractions this close to an integer are treated as exact, so that
# binary float noise cannot shift a largest-remainder seat.
_QUOTA_EPS = 1e-9

UNALLOCATED = "unallocated"

# Most windows one monitor run may ask for.  Computing a window costs about
# 20 us with 20 processes in the log and 60 us with 92 (every process the
# log holds counts, exited ones too); rendering it costs about 2 us (2-CPU
# x86-64 host).  So the budget is about 2 s with 20 processes and 6 s with
# 92; a week of 10 s windows is 60,480.
MAX_WINDOWS = 100_000


@dataclass(frozen=True)
class SLOTarget:
    name: str
    u_max: float
    demand: float | None = None
    r_slo: float | None = None

    def __post_init__(self):
        if not 0.0 < self.u_max <= 1.0:
            raise ValidationError(f"target {self.name}: u_max must be in (0, 1], got {self.u_max}")
        if self.demand is not None and not (math.isfinite(self.demand) and self.demand > 0):
            raise ValidationError(f"target {self.name}: demand must be finite and > 0")
        if self.r_slo is not None:
            if self.demand is None:
                raise ValidationError(f"target {self.name}: rslo needs a demand")
            if not math.isfinite(self.r_slo):
                raise ValidationError(f"target {self.name}: rslo must be finite")
            if self.r_slo < self.demand:
                raise ValidationError(
                    f"target {self.name}: rslo {self.r_slo} is below the demand {self.demand}"
                )

    def required_entitlement(self) -> float:
        required = self.u_max
        if self.r_slo is not None:
            required = max(required, self.demand / self.r_slo)
        return required


@dataclass(frozen=True)
class SharePlan:
    shares: dict[str, int]
    total_shares: int
    residual: int
    commands: tuple[str, ...]


def allocate_topdown(targets, total_shares: int) -> SharePlan:
    """Integer share allocation covering every target's required entitlement.

    Feasible iff required entitlements sum to at most 1.  Quotas are
    integerized by largest remainder with a one-share floor; leftover
    shares are reported as residual for the operator to assign.
    """
    targets = list(targets)
    if not targets:
        raise ValidationError("no targets given")
    names = set()
    for t in targets:
        if t.name in names:
            raise ValidationError(f"duplicate target {t.name!r}")
        names.add(t.name)
    if total_shares < len(targets):
        raise ValidationError(
            f"total shares {total_shares} below the number of targets {len(targets)}"
        )

    required = {t.name: t.required_entitlement() for t in targets}
    demand_sum = sum(required.values())
    if demand_sum > 1.0 + _QUOTA_EPS:
        raise InfeasiblePlanError(
            f"required entitlements sum to {demand_sum:.4f} > 1; {SPLIT_ADVICE}"
        )

    quotas = {name: req * total_shares for name, req in required.items()}
    house = math.ceil(sum(quotas.values()) - _QUOTA_EPS)
    base: dict[str, int] = {}
    fractions: dict[str, float] = {}
    for name, quota in quotas.items():
        nearest = round(quota)
        if abs(quota - nearest) <= _QUOTA_EPS:
            quota = float(nearest)
        floor = int(math.floor(quota))
        base[name] = max(1, floor)
        fractions[name] = quota - floor

    extras = house - sum(base.values())
    if extras > 0:
        order = sorted(fractions, key=lambda n: (-fractions[n], n))
        for name in order[:extras]:
            base[name] += 1

    residual = total_shares - sum(base.values())
    commands = tuple(f"limadm set cpu.shares={base[t.name]} {t.name}" for t in targets)
    return SharePlan(
        shares=base,
        total_shares=total_shares,
        residual=residual,
        commands=commands,
    )


def render_plan(plan: SharePlan) -> str:
    lines = [
        f"Share plan: {plan.total_shares} total shares, {plan.residual} residual (feasible)",
        "",
    ]
    lines.extend(plan.commands)
    return "\n".join(lines) + "\n"


def parse_slo_file(text: str) -> list[SLOTarget]:
    """Parse advisor input, one ``target <name> umax=<f> [demand=<f>] [rslo=<f>]`` per line.

    SLO files follow the scenario grammar: ``#`` starts a comment, blank
    lines are ignored and each key is given once.  Malformed lines and
    out-of-range values raise ``ScenarioParseError`` naming the line, and
    the column when one token is at fault.
    """
    targets = []
    names = set()
    for line_no, tokens, columns in _lines(text):
        if tokens[0] != "target" or len(tokens) < 2 or "=" in tokens[1]:
            raise ScenarioParseError(
                "expected: target <name> umax=<float> [demand=<float>] [rslo=<float>]", line_no
            )
        if tokens[1] in names:
            raise ScenarioParseError(f"duplicate target {tokens[1]!r}", line_no)
        names.add(tokens[1])
        kv = _parse_kv(tokens[2:], columns[2:], line_no)
        u_max = _take(kv, "umax", float, line_no)
        demand = _take(kv, "demand", float, line_no) if "demand" in kv else None
        r_slo = _take(kv, "rslo", float, line_no) if "rslo" in kv else None
        _reject_unknown_keys(kv, "target", line_no)
        targets.append(
            _build(SLOTarget, line_no, name=tokens[1], u_max=u_max, demand=demand, r_slo=r_slo)
        )
    if not targets:
        raise ScenarioParseError("no targets defined")
    return targets


class UsageSample(NamedTuple):
    timestamp: float
    user: str
    pid: int
    cputime: float


class PsLog(NamedTuple):
    samples: list[UsageSample]
    skipped: int


def _parse_cputime(text: str) -> float:
    parts = text.split(":")
    if len(parts) == 2:
        minutes, seconds = parts
        hours = "0"
    elif len(parts) == 3:
        hours, minutes, seconds = parts
    else:
        raise ValueError(text)
    total = int(hours) * 3600.0 + int(minutes) * 60.0 + float(seconds)
    if not math.isfinite(total):
        raise ValueError(text)
    return total


def parse_ps_log(stream) -> PsLog:
    """Parse a timestamped BSD ps-aux log.

    Records are ``T <epoch-seconds>`` header lines followed by ps lines
    (USER PID %CPU %MEM SZ RSS TT S START TIME COMMAND, TIME as mm:ss or
    hh:mm:ss).  Only USER, PID and TIME are read.  Malformed lines, and the
    ps lines under a malformed header, are skipped and counted.
    """
    if isinstance(stream, str):
        stream = stream.splitlines()
    samples: list[UsageSample] = []
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
                timestamp = None  # the block's lines have no time: skip them too
                skipped += 1
            continue
        if timestamp is None or len(tokens) < 10:
            skipped += 1
            continue
        try:
            samples.append(
                UsageSample(
                    timestamp=timestamp,
                    user=tokens[0],
                    pid=int(tokens[1]),
                    cputime=_parse_cputime(tokens[9]),
                )
            )
        except ValueError:
            skipped += 1
    if not samples:
        raise PsLogError("zero parseable samples in log")
    return PsLog(samples=samples, skipped=skipped)


@dataclass(frozen=True)
class DeviationRow:
    achieved: float
    entitled: float
    deviation: float
    flagged: bool


@dataclass(frozen=True)
class DeviationWindow:
    start: float
    end: float
    rows: dict[str, DeviationRow]


@dataclass(frozen=True)
class DeviationReport:
    windows: list[DeviationWindow]
    window_seconds: float
    threshold: float
    max_abs_deviation: float
    exceeded: bool


def goal_deviation(
    samples,
    e: EntitlementTable,
    window: float,
    threshold: float = 0.05,
) -> DeviationReport:
    """Compare achieved busy-time fractions against entitlements per window.

    Busy time per user is the windowed delta of cumulative TIME summed over
    its pids.  Entitlements are renormalized over the users observed
    consuming CPU in the window; users missing from the entitlement table
    are pooled under ``unallocated`` with entitlement zero.
    """
    if not (math.isfinite(window) and window > 0):
        raise ValidationError(f"window must be finite and > 0, got {window!r}")
    if not math.isfinite(threshold):
        raise ValidationError(f"threshold must be finite, got {threshold!r}")
    samples = list(samples)
    if not samples:
        raise PsLogError("no samples")
    for sample in samples:
        if not math.isfinite(sample.timestamp):
            raise ValidationError(f"sample timestamps must be finite, got {sample.timestamp!r}")
    samples.sort(key=itemgetter(0, 1, 2))
    t_min = samples[0].timestamp
    t_max = samples[-1].timestamp
    if t_max - t_min < window:
        raise ValidationError(
            f"window {window}s exceeds the log span {t_max - t_min}s"
        )
    count = math.floor((t_max - t_min) / window)
    if count > MAX_WINDOWS:
        raise ValidationError(
            f"window {window:g}s cuts the log span {t_max - t_min:g}s into {count} "
            f"windows, over the budget of {MAX_WINDOWS}; use a larger --window"
        )
    # Window edges are found by adding `window` to the previous edge, so it
    # must be at least the spacing of floats at the log's timestamps.
    farthest = max(abs(t_min), abs(t_max))
    if window < math.ulp(farthest):
        raise ValidationError(
            f"window {window:g}s is below the float spacing {math.ulp(farthest):g}s of "
            f"timestamps near {farthest:g}; use a larger --window"
        )

    # One series of (timestamps, cumulative TIMEs) per process, in the order
    # of the sorted samples, so each series' timestamps are non-decreasing.
    by_pid: dict[tuple[str, int], list[tuple[list[float], list[float]]]] = {}
    for timestamp, user, pid, cputime in samples:
        runs = by_pid.setdefault((user, pid), [([], [])])
        times, values = runs[-1]
        if values and cputime < values[-1] - 1e-9:
            times, values = [], []  # cumulative TIME went down: the pid was reused
            runs.append((times, values))
        times.append(timestamp)
        values.append(cputime)
    series = [run for runs in by_pid.values() for run in runs]
    labels = [user if user in e.entitlements else UNALLOCATED
              for (user, _pid), runs in by_pid.items() for _run in runs]
    cursors = [0] * len(series)

    def values_at(when: float) -> list[float]:
        # Each series' last sample at or before `when`, or its first sample
        # if `when` comes before it.  Edges only move forward, so each
        # cursor resumes where the previous edge left it.
        limit = when + 1e-9
        out = []
        for k, (times, values) in enumerate(series):
            cursors[k] = i = bisect_right(times, limit, cursors[k])
            out.append(values[max(i, 1) - 1])
        return out

    known_active = set(e.active_users)
    windows: list[DeviationWindow] = []
    max_abs = 0.0
    start = t_min
    low = values_at(start)
    while start + window <= t_max + 1e-9:
        end = start + window
        high = values_at(end)
        busy: dict[str, float] = {}
        for label, high_value, low_value in zip(labels, high, low):
            delta = high_value - low_value
            if delta <= 0:
                continue
            busy[label] = busy.get(label, 0.0) + delta
        total = sum(busy.values())
        rows: dict[str, DeviationRow] = {}
        if total > 0:
            observed_known = [u for u in busy if u != UNALLOCATED and u in known_active]
            entitled_sum = sum(e.entitlements[u] for u in observed_known)
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
        start, low = end, high

    return DeviationReport(
        windows=windows,
        window_seconds=window,
        threshold=threshold,
        max_abs_deviation=max_abs,
        exceeded=max_abs > threshold,
    )


def render_deviation(report: DeviationReport) -> str:
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
