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

import io
import math
from collections import defaultdict
from itertools import islice, repeat
from operator import itemgetter
from typing import NamedTuple

from .errors import (InfeasiblePlanError, PsLogError, ScenarioParseError, Validated,
                     ValidationError, check_budget)
from .scenario import _build, _lines
from .shares import EntitlementTable

SPLIT_ADVICE = "use domains, or split groups across separate servers"

# Quota fractions this close to an integer are treated as exact, so that
# binary float noise cannot shift a largest-remainder seat.
_QUOTA_EPS = 1e-9

UNALLOCATED = "unallocated"

# Most windows one monitor run may ask for.  A window that holds no samples
# costs about 1.3 us to compute and 1.1 us to render; one that does costs
# about 1.2 us more to compute and 0.8 us more to render per user row.
# Sorting the samples costs about 0.4 us each, once, however many processes
# they hold (2-CPU x86-64 host).  So the budget is about 0.3 s of idle
# windows; a week of 10 s windows is 60,480.
MAX_WINDOWS = 100_000


class _SLOTarget(NamedTuple):
    name: str
    u_max: float
    demand: float | None = None
    r_slo: float | None = None


class SLOTarget(Validated, _SLOTarget):
    __slots__ = ()

    def _check(self):
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


class SharePlan(NamedTuple):
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
    r"""Parse a timestamped BSD ps-aux log.

    Records are ``T <epoch-seconds>`` header lines followed by ps lines
    (USER PID %CPU %MEM SZ RSS TT S START TIME COMMAND, TIME as mm:ss or
    hh:mm:ss).  Only USER, PID and TIME are read.  A TIME is malformed when
    it holds a minus sign, when its seconds are not below 60, or when its
    minutes are 60 or more after hours.  Malformed lines, and the ps lines
    under a malformed header, are skipped and counted.  A string is read as
    a text file is: lines end at ``\n``, ``\r\n`` or ``\r`` and nowhere else.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream, newline=None)
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


class DeviationRow(NamedTuple):
    achieved: float
    entitled: float
    deviation: float
    flagged: bool


class DeviationWindow(NamedTuple):
    start: float
    end: float
    rows: dict[str, DeviationRow]


class DeviationReport(NamedTuple):
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
    windows that hold its samples, and only those windows read it.

    The changes are then added up as arrays, one cell for each window and
    user that changed: a cell's busy time in process order, and a window's
    total and entitlement sum left to right, in the order its users first
    change there.  The cost is O(samples log samples + windows), whatever
    the number of processes or users the log has held; no array has a slot
    for every window and user.
    """
    import numpy as np  # here, not at module top, so commands that window nothing never load it

    if not (math.isfinite(window) and window > 0):
        raise ValidationError(f"window must be finite and > 0, got {window!r}")
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ValidationError(f"threshold must be finite and >= 0, got {threshold!r}")
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
    if span == math.inf:
        raise ValidationError(
            f"the log's timestamps run from {t_min:g}s to {t_max:g}s, a span past the float "
            "range that no window can cut; the log's T headers are out of range"
        )
    if span < window:
        raise ValidationError(f"window {window}s exceeds the log span {span}s")
    check_budget(span // window, MAX_WINDOWS,  # whole windows, or past the float range
                 f"windows of {window:g}s in the log span {t_min:g}s to {t_max:g}s",
                 "about 0.3 s", "use a larger --window")
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
    # Changes of zero or less add nothing and are dropped, and so are those
    # before the first edge (window -1) or past the last.  The rest stay in
    # process order.
    n_windows = len(edges) - 1
    keep = (deltas > 0) & (in_window >= 0) & (in_window < n_windows)
    names = sorted(set(labels))
    position = {name: i for i, name in enumerate(names)}
    label_of = np.array([position[label] for label in labels], dtype=np.intp)
    cell_key = in_window[keep] * len(names) + label_of[process[lows[keep]]]
    deltas = deltas[keep]
    del process, lows, highs, in_window, keep, label_of

    # One cell per (window, label) that changed, in window and then name
    # order, the order of the report's rows.  A cell's busy time adds its
    # changes in process order (bincount adds left to right).  A window's
    # total and entitlement sum add its labels in the order they first
    # change there, the order of a dict of them, which Python 3.11's sum
    # adds left to right: one vectorized add for each window's first label,
    # then one for its second, and so on.  Never np.sum or np.add.reduceat,
    # which add pairwise.  Every array is sized by changes, cells or windows.
    cells, first_change, cell_of = np.unique(cell_key, return_index=True, return_inverse=True)
    busy = np.bincount(cell_of, weights=deltas, minlength=len(cells))
    cell_window, cell_label = np.divmod(cells, len(names))
    # A cell's rank is its place among its window's cells by first change.
    by_first = np.lexsort((first_change, cell_window))
    rank = np.empty(len(cells), dtype=np.intp)
    rank[by_first] = np.arange(len(cells)) - np.searchsorted(cell_window, cell_window[by_first])
    by_rank = np.argsort(rank, kind="stable")
    rank_bounds = np.searchsorted(rank[by_rank], np.arange(rank.max(initial=-1) + 2)).tolist()
    del cell_key, deltas, cells, first_change, cell_of, by_first, rank

    known_active = set(e.active_users)
    # A label's entitlement if it is an active user, else 0; the sums that
    # entitlements are renormalized over leave out `unallocated`.
    share = np.array([e.entitlements[name] if name in known_active else 0.0 for name in names])
    counted = share.copy()
    if UNALLOCATED in position:
        counted[position[UNALLOCATED]] = 0.0
    total = np.zeros(n_windows)
    entitled_sum = np.zeros(n_windows)
    with np.errstate(over="ignore"):
        for lo, hi in zip(rank_bounds, rank_bounds[1:]):
            at = by_rank[lo:hi]
            total[cell_window[at]] += busy[at]
            entitled_sum[cell_window[at]] += counted[cell_label[at]]
    overflowed = np.flatnonzero(~np.isfinite(total))  # every change is above zero
    if overflowed.size:
        w = int(overflowed[0])
        raise ValidationError(
            f"window {edges[w]:.1f}-{edges[w + 1]:.1f}s: busy time {float(total[w])} is past "
            f"the float range; check the log's TIME column"
        )
    achieved = busy / total[cell_window]
    cell_sum = entitled_sum[cell_window]
    entitled = np.divide(share[cell_label], cell_sum, out=np.zeros(len(cell_sum)),
                         where=cell_sum > 0)
    deviation = achieved - entitled
    flagged = np.abs(deviation) > threshold
    max_abs = float(np.abs(deviation).max(initial=0.0))

    new = tuple.__new__  # positional, skipping the NamedTuple's keyword __new__
    rows = map(new, repeat(DeviationRow), zip(achieved.tolist(), entitled.tolist(),
                                               deviation.tolist(), flagged.tolist()))
    labelled = zip(map(names.__getitem__, cell_label.tolist()), rows)
    windows = [new(DeviationWindow, (start, end, dict(islice(labelled, count))))
               for start, end, count in zip(edges, edges[1:],
                                            np.bincount(cell_window, minlength=n_windows).tolist())]

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
    append = lines.append
    for start, end, rows in report.windows:
        span = "%.1f-%.1f" % (start, end)
        if not rows:
            append("%18s  %-12s" % (span, "(idle)"))
            continue
        for user, (achieved, entitled, deviation, flagged) in rows.items():
            append("%18s  %-12s %9.4f %9.4f %+10.4f%s"
                   % (span, user, achieved, entitled, deviation, " *" if flagged else ""))
    verdict = "EXCEEDED" if report.exceeded else "OK"
    lines.append("")
    lines.append(f"max |deviation| {report.max_abs_deviation:.4f} -> {verdict}")
    return "\n".join(lines) + "\n"
