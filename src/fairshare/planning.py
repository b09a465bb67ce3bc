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
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InfeasiblePlanError, PsLogError, ValidationError
from .shares import EntitlementTable

SPLIT_ADVICE = "use domains, or split groups across separate servers"

# Quota fractions this close to an integer are treated as exact, so that
# binary float noise cannot shift a largest-remainder seat.
_QUOTA_EPS = 1e-9

UNALLOCATED = "unallocated"


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
    verdict: str
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
        verdict="feasible",
        commands=commands,
    )


def render_plan(plan: SharePlan) -> str:
    lines = [
        f"Share plan: {plan.total_shares} total shares, {plan.residual} residual ({plan.verdict})",
        "",
    ]
    lines.extend(plan.commands)
    return "\n".join(lines) + "\n"


def parse_slo_file(text: str):
    """Parse advisor input: ``target <name> umax=<f> [demand=<f>] [rslo=<f>]``."""
    targets = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] != "target" or len(tokens) < 3:
            raise ValidationError(f"line {line_no}: expected 'target <name> umax=<f> ...'")
        name = tokens[1]
        kv = {}
        for token in tokens[2:]:
            key, sep, value = token.partition("=")
            if not sep:
                raise ValidationError(f"line {line_no}: expected key=value, got {token!r}")
            try:
                kv[key] = float(value)
            except ValueError:
                raise ValidationError(f"line {line_no}: bad value for {key}: {value!r}") from None
        if "umax" not in kv:
            raise ValidationError(f"line {line_no}: missing umax=")
        target = SLOTarget(
            name=name,
            u_max=kv.pop("umax"),
            demand=kv.pop("demand", None),
            r_slo=kv.pop("rslo", None),
        )
        if kv:
            raise ValidationError(f"line {line_no}: unknown key {next(iter(kv))!r}")
        targets.append(target)
    if not targets:
        raise ValidationError("no targets defined")
    return targets


class UsageSample(NamedTuple):
    timestamp: float
    user: str
    pid: int
    pcpu: float
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
    hh:mm:ss).  Malformed lines, and the ps lines under a malformed header,
    are skipped and counted.
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
                    pcpu=float(tokens[2]),
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
    samples = sorted(samples, key=lambda s: (s.timestamp, s.user, s.pid))
    if not samples:
        raise PsLogError("no samples")
    t_min = samples[0].timestamp
    t_max = samples[-1].timestamp
    if t_max - t_min < window:
        raise ValidationError(
            f"window {window}s exceeds the log span {t_max - t_min}s"
        )

    by_pid: dict[tuple[str, int], list[list[tuple[float, float]]]] = {}
    for s in samples:
        runs = by_pid.setdefault((s.user, s.pid), [[]])
        if runs[-1] and s.cputime < runs[-1][-1][1] - 1e-9:
            runs.append([])  # cumulative TIME went down: the pid was reused
        runs[-1].append((s.timestamp, s.cputime))

    def value_at(series, when: float) -> float:
        # Last sample at or before `when`; before the first sample, its value.
        best = series[0][1]
        for ts, value in series:
            if ts <= when + 1e-9:
                best = value
            else:
                break
        return best

    known_active = set(e.active_users)
    windows: list[DeviationWindow] = []
    max_abs = 0.0
    start = t_min
    while start + window <= t_max + 1e-9:
        end = start + window
        busy: dict[str, float] = {}
        for (user, _pid), runs in by_pid.items():
            for series in runs:
                delta = value_at(series, end) - value_at(series, start)
                if delta <= 0:
                    continue
                label = user if user in e.entitlements else UNALLOCATED
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
        start = end

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
