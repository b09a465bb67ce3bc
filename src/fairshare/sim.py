"""Deterministic simulator for round-robin and decay-usage fair-share CPUs.

The engine models one CPU shared by users whose processes cycle through a
CPU demand followed by a think delay.  Four dispatch disciplines:

* ``fairshare-flat``: every quantum, run the user with the lowest decayed
  usage per share.  Usage is charged for CPU actually consumed and decays
  exponentially with a configurable half life, so long-run consumption
  converges to share proportions no matter how many processes a user runs.
* ``fairshare-hierarchical``: pick the group with the lowest decayed usage
  per group share first, then the user inside it as above.
* ``ts-roundrobin``: classic time sharing, one FIFO of runnable processes
  taking a quantum each.  Per-process equality is the loophole: a user
  running many processes absorbs a proportional slice of the CPU.
* ``ts-ps-reference``: idealized processor sharing, the limit of round
  robin as the quantum shrinks, with all runnable processes advancing at
  equal rates.  Implemented event-driven and exact; used as the
  independent check against the analytic time-share solver.

One core keeps what every mode shares: process setup, demand cycles and
think-time parking, the timeline, busy-time windows and the trace.  Time
advances in one of two ways.  The first three modes step one quantum at a
time (10 ms default), dispatching and then decaying usage; fair-share
priorities are decayed-usage/shares with least-recently-run, then
lexicographic tie-breaking, so runs are reproducible bit for bit.  The
processor-sharing mode jumps from event to event.  Randomness enters only
through optional exponentially jittered think times.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
from dataclasses import dataclass

from .errors import ValidationError
from .mva import PerfRow, PerfTable, WorkloadSpec
from .shares import EntitlementTable, ShareHierarchy

FAIRSHARE_FLAT = "fairshare-flat"
FAIRSHARE_HIERARCHICAL = "fairshare-hierarchical"
TS_ROUNDROBIN = "ts-roundrobin"
TS_PS_REFERENCE = "ts-ps-reference"
SIM_MODES = (FAIRSHARE_FLAT, FAIRSHARE_HIERARCHICAL, TS_ROUNDROBIN, TS_PS_REFERENCE)

_TIME_EPS = 1e-9


@dataclass(frozen=True)
class SimConfig:
    duration: float
    warmup: float = 0.0
    quantum: float = 0.01
    usage_half_life: float = 5.0
    window: float = 1.0
    seed: int = 0
    mode: str = FAIRSHARE_FLAT
    think_jitter: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.quantum) and self.quantum > 0):
            raise ValidationError("quantum must be finite and > 0")
        if not (math.isfinite(self.window) and self.window >= self.quantum):
            raise ValidationError("window must be finite and >= quantum")
        if not (math.isfinite(self.warmup) and self.warmup >= 0):
            raise ValidationError("warmup must be finite and >= 0")
        # The quantized engine measures round(duration/quantum) - round(warmup/quantum) quanta.
        ticks = self.duration / self.quantum
        if not (self.duration > self.warmup and math.isfinite(ticks)
                and round(ticks) > round(self.warmup / self.quantum)):
            raise ValidationError("duration must be finite and exceed warmup by a quantum")
        if not self.usage_half_life > 0:
            raise ValidationError("usage half-life must be > 0")
        if self.mode not in SIM_MODES:
            raise ValidationError(f"unknown mode {self.mode!r}; expected one of {SIM_MODES}")


@dataclass(frozen=True)
class TimelineEvent:
    time: float
    action: str
    user: str

    def __post_init__(self):
        if self.action not in ("activate", "deactivate"):
            raise ValidationError(f"unknown timeline action {self.action!r}")
        if not (math.isfinite(self.time) and self.time >= 0):
            raise ValidationError(f"event time must be finite and >= 0, got {self.time!r}")


def validate_timeline(events, h: ShareHierarchy) -> None:
    """Check what no single event can: times in order, users in the hierarchy."""
    last = 0.0
    for ev in events:
        if ev.time < last:
            raise ValidationError("timeline event times must be non-decreasing")
        last = ev.time
        h.find_user(ev.user)


@dataclass
class SimTrace:
    """Everything observed during one run.

    ``fractions`` holds per-window busy fractions for every user (windows
    tile the whole run, warmup included, so convergence can be located);
    ``busy``/``elapsed`` are post-warmup aggregates; ``cycles`` records
    (process, ready, completed) per user for every finished demand cycle.
    """

    config: SimConfig
    workload: WorkloadSpec
    users: tuple[str, ...]
    window_seconds: float
    fractions: list[dict[str, float]]
    busy: dict[str, float]
    elapsed: float
    cycles: dict[str, list[tuple[int, float, float]]]
    events_applied: tuple[TimelineEvent, ...]
    warnings: tuple[str, ...] = ()
    perf: PerfTable | None = None

    def utilization(self, user: str) -> float:
        """Post-warmup busy-time fraction of the physical CPU."""
        return self.busy.get(user, 0.0) / self.elapsed

    def last_event_time(self) -> float:
        return max((ev.time for ev in self.events_applied), default=0.0)


class _Proc:
    __slots__ = ("user", "index", "remaining", "ready_since")

    def __init__(self, user: str, index: int):
        self.user = user
        self.index = index
        self.remaining = 0.0
        self.ready_since = 0.0


def run_sim(
    h: ShareHierarchy,
    w: WorkloadSpec,
    timeline=(),
    config: SimConfig | None = None,
) -> SimTrace:
    """Simulate the configured discipline and return the full trace.

    Deterministic for a given config and seed.  Users inactive in the
    hierarchy contribute nothing until an activate event; deactivation
    drops a user's in-flight cycles.
    """
    if config is None:
        raise ValidationError("a SimConfig is required")
    known = set(h.user_names())
    for c in w.classes:
        if c.user not in known:
            raise ValidationError(f"workload user {c.user!r} not in hierarchy")
    validate_timeline(timeline, h)

    if config.mode == TS_PS_REFERENCE:
        return _run_fluid_ps(h, w, timeline, config)
    return _run_quantized(h, w, timeline, config)


def _think_sampler(config: SimConfig):
    rng = random.Random(config.seed)

    def sample(mean: float) -> float:
        if mean <= 0.0:
            return 0.0
        if config.think_jitter:
            return rng.expovariate(1.0 / mean)
        return mean

    return sample


class _Core:
    """Process life cycles, the timeline and busy-time accounting.

    Both engines share this; each keeps only its own way of advancing
    time.  Timeline events and wakeups are ordered by a key that the
    engine derives from a time with ``to_key``: the quantum index in the
    quantized engine, the time itself in the fluid one.  Runnable
    processes join ``queues[user]``, one FIFO per user, or one FIFO that
    every user shares when ``shared_queue`` is set.
    """

    def __init__(self, h, w, timeline, config, n_windows, to_key, shared_queue):
        self.config = config
        self.workload = w
        self.to_key = to_key
        self.sample_think = _think_sampler(config)
        self.loads = {c.user: c for c in w.classes}
        self.user_names = list(self.loads)
        self.active = {u.name: u.active for u in h.users()}
        self.procs = {u: [_Proc(u, i) for i in range(c.procs)] for u, c in self.loads.items()}
        self.run_queue: list[_Proc] = []
        self.queues = {u: self.run_queue if shared_queue else [] for u in self.user_names}
        self.parked: list[tuple[float, int, _Proc]] = []  # heap on (wake key, seq)
        self.seq = 0
        # validate_timeline guarantees non-decreasing times, hence keys.
        self.events = deque((to_key(ev.time), ev) for ev in timeline)
        self.applied: list[TimelineEvent] = []
        self.window_busy = [dict.fromkeys(self.user_names, 0.0) for _ in range(n_windows)]
        self.post_busy = dict.fromkeys(self.user_names, 0.0)
        self.cycles = {u: [] for u in self.user_names}
        for u in self.user_names:
            if self.active[u]:
                for proc in self.procs[u]:
                    self.start_cycle(proc, 0.0)

    def start_cycle(self, proc: _Proc, when: float) -> None:
        proc.remaining = self.loads[proc.user].demand
        proc.ready_since = when
        self.queues[proc.user].append(proc)

    def finish_cycle(self, proc: _Proc, when: float, earliest):
        """Record a completed cycle, then restart the process or park it.

        Returns the key at which a parked process wakes, never below
        ``earliest``, or infinity when it restarted at once.
        """
        self.cycles[proc.user].append((proc.index, proc.ready_since, when))
        think = self.sample_think(self.loads[proc.user].think)
        if think <= 0.0:
            self.start_cycle(proc, when)
            return math.inf
        key = max(self.to_key(when + think), earliest)
        self.seq += 1
        heapq.heappush(self.parked, (key, self.seq, proc))
        return key

    def release(self, limit, when: float):
        """Apply the events and wake the processes due at ``limit`` or before.

        Returns the key of the next event or wakeup, infinity if none.
        """
        events, parked = self.events, self.parked
        while events and events[0][0] <= limit:
            self._apply(events.popleft()[1], when)
        while parked and parked[0][0] <= limit:
            self.start_cycle(heapq.heappop(parked)[2], when)
        due = parked[0][0] if parked else math.inf
        return min(due, events[0][0]) if events else due

    def _apply(self, ev: TimelineEvent, when: float) -> None:
        user = ev.user
        if ev.action == "activate":
            if not self.active[user]:
                self.active[user] = True
                for proc in self.procs.get(user, ()):
                    self.start_cycle(proc, when)
        elif self.active[user]:
            self.active[user] = False
            queue = self.queues.get(user)
            if queue:
                queue[:] = [p for p in queue if p.user != user]
            self.parked[:] = [e for e in self.parked if e[2].user != user]
            heapq.heapify(self.parked)
        self.applied.append(ev)

    def trace(self, window_seconds: float, elapsed: float, total_busy: float) -> SimTrace:
        warnings = ()
        if total_busy <= 0.0:
            warnings = ("no process was runnable during the run; trace is empty",)
        trace = SimTrace(
            config=self.config,
            workload=self.workload,
            users=tuple(self.user_names),
            window_seconds=window_seconds,
            fractions=[
                {u: busy / window_seconds for u, busy in wb.items()}
                for wb in self.window_busy
            ],
            busy=self.post_busy,
            elapsed=elapsed,
            cycles=self.cycles,
            events_applied=tuple(self.applied),
            warnings=warnings,
        )
        trace.perf = trace_perf(trace)
        return trace


def _run_quantized(h, w, timeline, config) -> SimTrace:
    """Advance one quantum at a time, dispatching and then decaying usage."""
    q = config.quantum
    n_ticks = int(round(config.duration / q))
    warmup_ticks = int(round(config.warmup / q))
    window_ticks = max(1, int(round(config.window / q)))
    decay = 2.0 ** (-q / config.usage_half_life)
    round_robin = config.mode == TS_ROUNDROBIN

    def to_tick(t: float) -> int:
        return max(0, math.ceil(t / q - _TIME_EPS))

    n_windows = n_ticks // window_ticks
    core = _Core(h, w, timeline, config, n_windows, to_tick, shared_queue=round_robin)
    user_names = core.user_names
    queues = core.queues
    run_queue = core.run_queue  # FIFO over processes (ts-roundrobin)
    window_busy = core.window_busy
    post_busy = core.post_busy

    shares = {u.name: u.shares for u in h.users()}
    group_of = {u.name: g.name for g in h.groups for u in g.users}
    group_shares = {g.name: g.shares for g in h.groups}
    group_members = {g.name: [u.name for u in g.users if u.name in core.loads] for g in h.groups}
    usage = {name: 0.0 for name in shares}  # decayed CPU seconds charged per user
    last_run = {name: -1 for name in shares}
    group_last_run = {g.name: -1 for g in h.groups}
    fair_hier = config.mode == FAIRSHARE_HIERARCHICAL

    def pick_user() -> str | None:
        candidates = [u for u in user_names if queues[u]]
        if not candidates:
            return None
        if fair_hier:
            groups = sorted({group_of[u] for u in candidates})
            best_group = min(
                groups,
                key=lambda g: (
                    sum(usage[m] for m in group_members[g]) / group_shares[g],
                    group_last_run[g],
                    g,
                ),
            )
            candidates = [u for u in candidates if group_of[u] == best_group]
        return min(candidates, key=lambda u: (usage[u] / shares[u], last_run[u], u))

    total_busy = 0.0
    next_due = 0
    for tick in range(n_ticks):
        tick_time = tick * q
        if tick >= next_due:
            next_due = core.release(tick, tick_time)

        widx = tick // window_ticks
        in_window = widx < n_windows
        post = tick >= warmup_ticks
        time_left = q
        sub = tick_time
        while time_left > _TIME_EPS:
            if round_robin:
                proc = run_queue.pop(0) if run_queue else None
            else:
                user = pick_user()
                proc = queues[user].pop(0) if user else None
            if proc is None:
                break
            run = proc.remaining if proc.remaining < time_left else time_left
            proc.remaining -= run
            sub += run
            time_left -= run
            u = proc.user
            usage[u] += run
            last_run[u] = tick
            group_last_run[group_of[u]] = tick
            total_busy += run
            if in_window:
                window_busy[widx][u] += run
            if post:
                post_busy[u] += run
            if proc.remaining <= _TIME_EPS:
                # Wakeups are released at the start of a quantum, so a
                # process parked now wakes in the next one at the earliest.
                wake = core.finish_cycle(proc, sub, tick + 1)
                if wake < next_due:
                    next_due = wake
            else:
                queues[u].append(proc)
        if decay != 1.0:
            for u in usage:
                usage[u] *= decay

    return core.trace(window_ticks * q, n_ticks * q - warmup_ticks * q, total_busy)


def _run_fluid_ps(h, w, timeline, config) -> SimTrace:
    """Event-driven processor sharing: every runnable process advances at 1/k."""
    duration = config.duration
    window_seconds = config.window
    n_windows = int((duration + _TIME_EPS) // window_seconds)
    core = _Core(h, w, timeline, config, n_windows, lambda t: t, shared_queue=True)
    ready = core.run_queue
    window_busy = core.window_busy
    post_busy = core.post_busy

    total_busy = 0.0
    next_edge = 1  # window edge index; warmup is handled as its own boundary
    now = 0.0
    while now < duration - _TIME_EPS:
        horizon = min(duration, core.release(now + _TIME_EPS, now))

        if not ready:
            if horizon <= now + _TIME_EPS:
                break  # nothing left that could ever run
            now = horizon
            continue

        k = len(ready)
        min_rem = min(p.remaining for p in ready)
        boundary = min(horizon, now + min_rem * k)
        while next_edge * window_seconds <= now + _TIME_EPS:
            next_edge += 1
        boundary = min(boundary, next_edge * window_seconds)
        if config.warmup > now + _TIME_EPS:
            boundary = min(boundary, config.warmup)

        delta = boundary - now
        if delta > _TIME_EPS:
            per = delta / k
            widx = int((now + _TIME_EPS) // window_seconds)
            in_window = widx < n_windows
            post = now >= config.warmup - _TIME_EPS
            for p in ready:
                p.remaining -= per
                if in_window:
                    window_busy[widx][p.user] += per
                if post:
                    post_busy[p.user] += per
            total_busy += delta
        now = boundary

        finished = [p for p in ready if p.remaining <= 1e-9]
        if finished:
            ready[:] = [p for p in ready if p.remaining > 1e-9]
            for p in finished:
                core.finish_cycle(p, now, now)

    return core.trace(window_seconds, duration - config.warmup, total_busy)


def trace_perf(tr: SimTrace) -> PerfTable:
    """Estimate X, R and U per user from post-warmup cycle completions.

    Rates are measured over each process's own renewal span (first cycle
    start to last completion plus the trailing think), which keeps the
    estimates consistent with Little's law on short runs.  Raw busy-time
    fractions remain available via ``SimTrace.utilization``.  Users with no
    completed cycle are flagged in the table notes, never fabricated.
    """
    rows: dict[str, PerfRow] = {}
    notes: list[str] = []
    warm = tr.config.warmup
    for c in tr.workload.classes:
        completed = [rec for rec in tr.cycles.get(c.user, []) if rec[2] >= warm - _TIME_EPS]
        if not completed:
            notes.append(f"{c.user}: no completed cycles after warmup")
            continue
        by_proc: dict[int, list[tuple[int, float, float]]] = {}
        for rec in completed:
            by_proc.setdefault(rec[0], []).append(rec)
        throughput = 0.0
        utilization = 0.0
        residences: list[float] = []
        for recs in by_proc.values():
            recs.sort(key=lambda rec: rec[2])
            span = (recs[-1][2] - recs[0][1]) + c.think
            count = len(recs)
            throughput += count / span
            utilization += count * c.demand / span
            residences.extend(rec[2] - rec[1] for rec in recs)
        response = sum(residences) / len(residences)
        rows[c.user] = PerfRow(throughput, response, utilization)
    return PerfTable(solver="simulated", rows=rows, notes=tuple(notes))


def convergence_time(tr: SimTrace, e: EntitlementTable, epsilon: float):
    """Earliest time after the last timeline event from which every later
    window keeps all active users within epsilon of their entitlements.

    Returns seconds, or None when no trailing run of windows qualifies.
    """
    if not math.isfinite(epsilon):
        raise ValidationError(f"epsilon must be finite, got {epsilon!r}")
    last_event = tr.last_event_time()
    window = tr.window_seconds
    eligible = [
        i for i in range(len(tr.fractions)) if i * window >= last_event - _TIME_EPS
    ]
    if not eligible:
        raise ValidationError("trace has no windows after the last timeline event")

    def window_ok(i: int) -> bool:
        fractions = tr.fractions[i]
        return all(
            abs(fractions.get(u, 0.0) - e.entitlements[u]) <= epsilon + _TIME_EPS
            for u in e.active_users
        )

    suffix_start = None
    for i in reversed(eligible):
        if not window_ok(i):
            break
        suffix_start = i
    if suffix_start is None:
        return None
    if suffix_start == eligible[0]:
        return last_event
    return suffix_start * window


def export_trace(tr: SimTrace, fh) -> None:
    """Write per-window busy fractions as delimiter-separated text."""
    fh.write("time,user,fraction\n")
    for i, fractions in enumerate(tr.fractions):
        start = i * tr.window_seconds
        for user in tr.users:
            fh.write(f"{start:.3f},{user},{fractions[user]:.6f}\n")
