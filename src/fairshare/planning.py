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
import sys
from collections import defaultdict
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .errors import InfeasiblePlanError, PsLogError, ScenarioParseError, ValidationError
from .scenario import _build, _lines
from .shares import EntitlementTable

SPLIT_ADVICE = "use domains, or split groups across separate servers"

# Quota fractions this close to an integer are treated as exact, so that
# binary float noise cannot shift a largest-remainder seat.
_QUOTA_EPS = 1e-9

UNALLOCATED = "unallocated"

# Most windows one monitor run may ask for.  A window that holds no samples
# costs about 3 us to compute and 1 us to render; one that does costs about
# 2 us more to compute and 1.5 us more to render per user row.  Sorting the
# samples costs about 0.5 us each, once, however many processes they hold
# (2-CPU x86-64 host).  So the budget is about 0.4 s of idle windows; a
# week of 10 s windows is 60,480.
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

    Feasible iff required entitlements sum to at most 1 and the quotas,
    floored but at least one share each, fit in ``total_shares``.  Quotas
    are integerized by largest remainder; leftover shares are reported as
    residual for the operator to assign.
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
    # At most the total: float noise in a large quota sum must not seat a share too many.
    house = min(total_shares, math.ceil(sum(quotas.values()) - _QUOTA_EPS))
    base: dict[str, int] = {}
    fractions: dict[str, float] = {}
    for name, quota in quotas.items():
        nearest = round(quota)
        if abs(quota - nearest) <= _QUOTA_EPS:
            quota = float(nearest)
        floor = int(math.floor(quota))
        base[name] = max(1, floor)
        fractions[name] = quota - floor

    floored = sum(base.values())
    if floored > total_shares:
        raise InfeasiblePlanError(
            f"the one-share floor needs {floored} shares, more than the total of "
            f"{total_shares}; use a larger --total-shares"
        )
    extras = house - floored
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


_TARGET_USAGE = "expected: target <name> umax=<float> [demand=<float>] [rslo=<float>]"
_TARGET_KEYS = (("umax", float), ("demand", float), ("rslo", float))


def parse_slo_file(text: str) -> list[SLOTarget]:
    """Parse advisor input, one ``target <name> umax=<f> [demand=<f>] [rslo=<f>]`` per line.

    SLO files follow the scenario grammar: ``#`` starts a comment, blank
    lines are ignored and each key is given once.  Malformed lines and
    out-of-range values raise ``ScenarioParseError`` naming the line, and
    the column when one token is at fault.
    """
    targets = []
    names = set()
    for line in _lines(text):
        if line.tokens[0] != "target":
            raise ScenarioParseError(_TARGET_USAGE, line.no)
        name = line.name(_TARGET_USAGE, names, "target")
        names.add(name)
        u_max, demand, r_slo = line.fields(2, _TARGET_KEYS, ("demand", "rslo"))
        targets.append(
            _build(SLOTarget, line.no, name=name, u_max=u_max, demand=demand, r_slo=r_slo)
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


def parse_ps_log(stream) -> PsLog:
    """Parse a timestamped BSD ps-aux log.

    Records are ``T <epoch-seconds>`` header lines followed by ps lines
    (USER PID %CPU %MEM SZ RSS TT S START TIME COMMAND, TIME as mm:ss or
    hh:mm:ss).  Only USER, PID and TIME are read.  A TIME is malformed when
    it holds a minus sign, when its seconds are not below 60, or when its
    minutes are 60 or more after hours.  Malformed lines, and the ps lines
    under a malformed header, are skipped and counted.
    """
    if isinstance(stream, str):
        stream = stream.splitlines()
    samples: list[UsageSample] = []
    append = samples.append
    new_sample = tuple.__new__  # positional, skipping the NamedTuple's keyword __new__
    isfinite = math.isfinite
    # One string per user name and one int per pid token, shared by their samples.
    names: dict[str, str] = {}
    pid_of: dict[str, int] = {}
    skipped = 0
    timestamp = None
    for line in stream:
        tokens = line.split(None, 10)  # split() drops the same whitespace strip() does
        if not tokens or tokens[0][0] == "#":
            continue
        if tokens[0] == "T" and len(tokens) == 2:
            try:
                timestamp = float(tokens[1])
                if not isfinite(timestamp):
                    raise ValueError(tokens[1])
            except ValueError:
                timestamp = None  # the block's lines have no time: skip them too
                skipped += 1
            continue
        if timestamp is None or len(tokens) < 10:
            skipped += 1
            continue
        try:
            pid = pid_of.get(tokens[1])
            if pid is None:
                pid = pid_of[tokens[1]] = int(tokens[1])
            time = tokens[9]
            parts = time.split(":")
            seconds = float(parts[-1])
            if len(parts) == 2:  # mm:ss; a zero hours term would add 0.0, a no-op
                cputime = int(parts[0]) * 60.0 + seconds
            elif len(parts) == 3 and int(parts[1]) < 60:
                cputime = int(parts[0]) * 3600.0 + int(parts[1]) * 60.0 + seconds
            else:
                raise ValueError(time)
            # ps prints no sign and seconds below 60; that also rules out nan and inf.
            if "-" in time or not (seconds < 60.0 and isfinite(cputime)):
                raise ValueError(time)
        except (ValueError, OverflowError):  # OverflowError: TIME too large for a float
            skipped += 1
            continue
        user = names.setdefault(tokens[0], tokens[0])
        append(new_sample(UsageSample, (timestamp, user, pid, cputime)))
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

    The samples are sorted once, as columns, into one run per process; a
    pid whose cumulative TIME falls starts a new run.  A run's value at a
    window edge is its last sample at or before the edge, or its first
    sample if the edge comes before it, so a run changes only in the
    windows that hold its samples, and only those windows read it.  The
    cost is O(samples log samples + windows), whatever the number of
    processes the log has held.
    """
    import numpy as np  # here, not at module top, so commands that window nothing never load it

    if not (math.isfinite(window) and window > 0):
        raise ValidationError(f"window must be finite and > 0, got {window!r}")
    if not math.isfinite(threshold):
        raise ValidationError(f"threshold must be finite, got {threshold!r}")
    samples = list(samples)
    if not samples:
        raise PsLogError("no samples")
    times = np.fromiter(map(itemgetter(0), samples), dtype=float, count=len(samples))
    values = np.fromiter(map(itemgetter(3), samples), dtype=float, count=len(samples))
    for column, field in ((times, "timestamp"), (values, "cputime")):
        finite = np.isfinite(column)
        if not finite.all():
            bad = getattr(samples[int(np.argmin(finite))], field)
            raise ValidationError(f"sample {field}s must be finite, got {bad!r}")
    # The first and last samples in (timestamp, user, pid) order, whose
    # timestamps (zero's sign included) bound the windows.
    first = min(np.flatnonzero(times == times.min()).tolist(), key=lambda i: samples[i][1:3])
    last = max(reversed(np.flatnonzero(times == times.max()).tolist()),
               key=lambda i: samples[i][1:3])
    t_min = samples[first].timestamp
    t_max = samples[last].timestamp
    span = t_max - t_min  # inf when two finite timestamps lie too far apart
    if span < window:
        raise ValidationError(f"window {window}s exceeds the log span {span}s")
    count = span / window
    if count >= MAX_WINDOWS + 1:  # over the budget in whole windows, or past the float range
        count = math.floor(count) if count < math.inf else f"more than {sys.float_info.max:.1e}"
        raise ValidationError(
            f"window {window:g}s cuts the log span {t_min:g}s to {t_max:g}s into {count} "
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
    edges = [t_min]
    while edges[-1] + window <= t_max + 1e-9:
        edges.append(edges[-1] + window)

    # Processes in the order of their first sample, then user, then pid;
    # each process's samples in time order, ties in the order given.
    index = defaultdict()
    index.default_factory = index.__len__  # a new (user, pid) gets the next number
    key_of = np.fromiter(map(index.__getitem__, map(itemgetter(1, 2), samples)),
                         dtype=np.intp, count=len(samples))
    keys = list(index)
    first_seen = np.full(len(keys), np.inf)
    np.minimum.at(first_seen, key_of, times)
    first_seen = first_seen.tolist()
    ranked = sorted(range(len(keys)), key=lambda k: (first_seen[k], *keys[k]))
    rank = np.argsort(ranked)
    labels = [user if user in e.entitlements else UNALLOCATED
              for user, _pid in (keys[k] for k in ranked)]
    process = rank[key_of]
    order = np.lexsort((times, process))
    process = process[order]
    times = times[order]
    values = values[order]
    del samples, index, key_of, order

    # A run starts at each process's first sample and wherever its
    # cumulative TIME goes down (the pid was reused).  A sample is counted
    # from the first edge at or after it (within 1e-9 s), so the samples of
    # a run that share a first edge change the run's value in the window
    # ending there: from the sample before them, or the run's first sample,
    # to the last of them.
    run_start = np.ones(len(times), dtype=bool)
    run_start[1:] = (process[1:] != process[:-1]) | (values[1:] < values[:-1] - 1e-9)
    first_edge = np.searchsorted(np.array(edges) + 1e-9, times, "left")
    del times
    group_start = run_start.copy()
    group_start[1:] |= first_edge[1:] != first_edge[:-1]
    lows = np.flatnonzero(group_start)
    highs = np.append(lows[1:] - 1, len(values) - 1)
    with np.errstate(over="ignore"):  # a change past the float range is inf, as in Python
        deltas = values[highs] - values[np.where(run_start[lows], lows, lows - 1)]
    in_window = first_edge[lows] - 1
    del values, run_start, group_start, first_edge
    # Changes of zero or less add nothing and are dropped.  The rest are
    # added up window by window, in process order; changes before the first
    # edge (window -1) or past the last fall outside `bounds`.
    keep = deltas > 0
    in_window = in_window[keep]
    by_window = np.argsort(in_window, kind="stable")
    event_process = process[lows[keep][by_window]]
    event_delta = deltas[keep][by_window]
    bounds = np.searchsorted(in_window[by_window], np.arange(len(edges))).tolist()
    del process, lows, highs, deltas, in_window, keep, by_window

    known_active = set(e.active_users)
    windows: list[DeviationWindow] = []
    max_abs = 0.0
    for w in range(len(edges) - 1):
        lo, hi = bounds[w], bounds[w + 1]
        busy: dict[str, float] = {}
        for k, delta in zip(event_process[lo:hi].tolist(), event_delta[lo:hi].tolist()):
            label = labels[k]
            busy[label] = busy.get(label, 0.0) + delta
        total = sum(busy.values())
        if not math.isfinite(total):  # every change is above zero, so only overflow
            raise ValidationError(
                f"window {edges[w]:.1f}-{edges[w + 1]:.1f}s: busy time {total} is past the "
                f"float range; check the log's TIME column"
            )
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
        windows.append(DeviationWindow(start=edges[w], end=edges[w + 1], rows=rows))

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
