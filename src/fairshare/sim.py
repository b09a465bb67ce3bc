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
time (10 ms default).  The processor-sharing mode jumps from event to
event.  Randomness enters only through optional exponentially jittered
think times.

Fair-share dispatch is the decay-usage policy of Kay & Lauder (CACM 1988),
kept incrementally so that a dispatch costs O(log users):

* Lazy decay.  Instead of multiplying every user's usage by the decay
  factor each quantum, one global scale grows by its inverse and each
  charge is multiplied by the scale.  Stored usages are then the true ones
  times a common factor, so a user who does not run keeps its key.
* Exact renormalization.  When the scale passes 2**64 it is divided,
  together with every stored usage, by a power of two (``frexp``/``ldexp``),
  which rounds nothing, so no key changes order.
* Heaps.  Priorities are (usage/shares, last quantum run, name), so ties
  go to the least recently run user, then by name, and runs are
  reproducible bit for bit.  Runnable users sit in a heap keyed so, with
  stale entries dropped when popped; hierarchical mode keeps a heap of
  groups keyed (group usage/group shares, last run, name) and one user
  heap per group.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
from dataclasses import dataclass

from .errors import PopulationGuardError, ValidationError
from .mva import PerfRow, PerfTable, WorkloadSpec
from .shares import EntitlementTable, ShareHierarchy, TimelineEvent, validate_timeline

FAIRSHARE_FLAT = "fairshare-flat"
FAIRSHARE_HIERARCHICAL = "fairshare-hierarchical"
TS_ROUNDROBIN = "ts-roundrobin"
TS_PS_REFERENCE = "ts-ps-reference"
SIM_MODES = (FAIRSHARE_FLAT, FAIRSHARE_HIERARCHICAL, TS_ROUNDROBIN, TS_PS_REFERENCE)

# Most processes one run may set up.  Each costs 1.1-2.2 us and 110-145 B
# of peak RSS before the first quantum, so at the limit set-up alone takes
# 1.1-2.2 s and 107-137 MB depending on the mode (2-CPU x86-64 host).
PROCESS_GUARD = 1_000_000

_TIME_EPS = 1e-9
# The quantized engine folds its usage scale back into the stored usages
# once it passes this bound, far below where a charge could overflow.
_SCALE_LIMIT = 2.0 ** 64


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


@dataclass
class SimTrace:
    """Everything observed during one run.

    ``fractions`` holds per-window busy fractions for every user (windows
    tile the whole run, warmup included, so convergence can be located);
    ``busy``/``elapsed`` are post-warmup aggregates; ``cycles`` records
    (process, ready, completed) per user for every finished demand cycle,
    in completion order.
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
    timeline,
    config: SimConfig,
) -> SimTrace:
    """Simulate the configured discipline and return the full trace.

    Deterministic for a given config and seed.  Users inactive in the
    hierarchy contribute nothing until an activate event; deactivation
    drops a user's in-flight cycles.  A workload of more than
    ``PROCESS_GUARD`` processes, inactive users' included, is refused
    before any is set up.
    """
    known = set(h.user_names())
    for c in w.classes:
        if c.user not in known:
            raise ValidationError(f"workload user {c.user!r} not in hierarchy")
    validate_timeline(timeline, h)
    procs = sum(c.procs for c in w.classes)
    if procs > PROCESS_GUARD:
        raise PopulationGuardError(
            f"{procs} processes exceed {PROCESS_GUARD}, the simulator's budget of about "
            "140 MB and 2 s of set-up; use fewer procs"
        )

    if config.mode == TS_PS_REFERENCE:
        return _run_fluid_ps(h, w, timeline, config)
    return _run_quantized(h, w, timeline, config)


class _Core:
    """Process life cycles, the timeline and busy-time accounting.

    Both engines share this; each keeps only its own way of advancing
    time.  Timeline events and wakeups are ordered by a key that the
    engine derives from a time with ``to_key``: the quantum index in the
    quantized engine, the time itself in the fluid one.  Runnable
    processes join ``queues[user]``: with ``on_ready`` one FIFO per user,
    and ``on_ready(user)`` is called when a user's queue goes from empty to
    non-empty; without it one FIFO, ``run_queue``, that every user shares.
    """

    def __init__(self, h, w, timeline, config, n_windows, to_key, on_ready=None):
        self.config = config
        self.workload = w
        self.to_key = to_key
        self.on_ready = on_ready
        self.rng = random.Random(config.seed)
        self.loads = {c.user: c for c in w.classes}
        self.user_names = list(self.loads)
        self.active = {u.name: u.active for u in h.users()}
        self.procs = {u: [_Proc(u, i) for i in range(c.procs)] for u, c in self.loads.items()}
        self.run_queue: deque[_Proc] = deque()
        self.queues = {u: self.run_queue if on_ready is None else deque() for u in self.user_names}
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
        queue = self.queues[proc.user]
        queue.append(proc)
        if self.on_ready is not None and len(queue) == 1:
            self.on_ready(proc.user)

    def finish_cycle(self, proc: _Proc, when: float, earliest):
        """Record a completed cycle, then restart the process or park it.

        Returns the key at which a parked process wakes, never below
        ``earliest``, or infinity when it restarted at once.
        """
        self.cycles[proc.user].append((proc.index, proc.ready_since, when))
        think = self.loads[proc.user].think
        if think > 0.0 and self.config.think_jitter:
            think = self.rng.expovariate(1.0 / think)
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
                kept = [p for p in queue if p.user != user]
                queue.clear()
                queue.extend(kept)
            self.parked[:] = [e for e in self.parked if e[2].user != user]
            heapq.heapify(self.parked)
        self.applied.append(ev)

    def trace(self, window_seconds: float, elapsed: float) -> SimTrace:
        warnings = ()
        if not any(any(busy.values()) for busy in (self.post_busy, *self.window_busy)):
            warnings = ("the run recorded no busy time; trace is empty",)
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
    """Advance one quantum at a time, dispatching by decayed usage or round robin."""
    q = config.quantum
    n_ticks = int(round(config.duration / q))
    warmup_ticks = int(round(config.warmup / q))
    window_ticks = max(1, int(round(config.window / q)))
    n_windows = n_ticks // window_ticks
    round_robin = config.mode == TS_ROUNDROBIN
    fair_hier = config.mode == FAIRSHARE_HIERARCHICAL
    # Usage decays by `decay` every quantum.  Rather than multiply every
    # user's usage, each charge is multiplied by `scale`, which grows by
    # 1/decay every quantum: usage[u] is u's decayed usage times scale, the
    # same factor for every user, so a user who does not run keeps its key.
    # Round robin never reads usage, so its scale stays 1.
    decay = 1.0 if round_robin else 2.0 ** (-q / config.usage_half_life)
    growth = 1.0 / decay if decay else math.inf
    scale = 1.0

    shares = {u.name: u.shares for u in h.users()}
    group_of = {u.name: g.name for g in h.groups for u in g.users}
    group_shares = {g.name: g.shares for g in h.groups}
    loaded = {c.user for c in w.classes}
    group_members = {g.name: [u.name for u in g.users if u.name in loaded] for g in h.groups}
    usage = dict.fromkeys(shares, 0.0)
    # Dispatch keys: (usage/shares, last run, name) per user, and
    # (group usage/group shares, last run, name) per group.
    key = {name: (0.0, -1, name) for name in shares}
    group_key = {name: (0.0, -1, name) for name in group_shares}
    # Every runnable user's current key sits in its heap: one heap for all
    # users in flat mode, one per group in hierarchical mode, where
    # group_heap holds the current key of every group with a runnable user.
    # An entry that is no longer its owner's key, or whose user has nothing
    # queued, is dropped when it is popped.
    if fair_hier:
        heap_members = group_members
    else:
        heap_members = {"": [u for members in group_members.values() for u in members]}
    heaps = {name: [] for name in heap_members}
    heap_of = {u: heaps[name] for name, members in heap_members.items() for u in members}
    group_heap: list[tuple[float, int, str]] = []

    def on_ready(user: str) -> None:
        heapq.heappush(heap_of[user], key[user])
        if fair_hier:
            heapq.heappush(group_heap, group_key[group_of[user]])

    def to_tick(t: float) -> int:
        return max(0, math.ceil(t / q - _TIME_EPS))

    core = _Core(h, w, timeline, config, n_windows, to_tick, None if round_robin else on_ready)
    queues = core.queues
    run_queue = core.run_queue  # FIFO over processes (ts-roundrobin)
    window_busy = core.window_busy
    post_busy = core.post_busy

    def pop_runnable(heap) -> str | None:
        while heap:
            entry = heapq.heappop(heap)
            user = entry[2]
            if entry is key[user] and queues[user]:
                return user
        return None

    def pick_user() -> str | None:
        if not fair_hier:
            return pop_runnable(heaps[""])
        while group_heap:
            entry = heapq.heappop(group_heap)
            if entry is group_key[entry[2]]:
                user = pop_runnable(heaps[entry[2]])
                if user is not None:
                    return user
        return None

    def charge(user: str, run: float, tick: int) -> None:
        # The picked user's entry was popped; push its new key if it still
        # has a process queued.  Only its own group's key changes.
        usage[user] += run * scale
        key[user] = (usage[user] / shares[user], tick, user)
        if queues[user]:
            heapq.heappush(heap_of[user], key[user])
        if fair_hier:
            g = group_of[user]
            group_key[g] = (sum(usage[m] for m in group_members[g]) / group_shares[g], tick, g)
            if heaps[g]:
                heapq.heappush(group_heap, group_key[g])

    def renormalize() -> None:
        # Divide the scale and every usage by one power of two, which is
        # exact, so no two keys change order; then rebuild every key and heap.
        nonlocal scale
        if scale < math.inf:
            scale, shift = math.frexp(scale)
        else:  # 1/decay overflowed: shifting by 4096 zeroes every usage
            scale, shift = 1.0, 4096
        for user in usage:
            usage[user] = math.ldexp(usage[user], -shift)
            key[user] = (usage[user] / shares[user], key[user][1], user)
        for name, members in heap_members.items():
            heaps[name][:] = [key[u] for u in members if queues[u]]
            heapq.heapify(heaps[name])
        if fair_hier:
            for g, members in group_members.items():
                group_key[g] = (sum(usage[m] for m in members) / group_shares[g],
                                group_key[g][1], g)
            group_heap[:] = [group_key[g] for g in group_members if heaps[g]]
            heapq.heapify(group_heap)

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
                proc = run_queue.popleft() if run_queue else None
            else:
                user = pick_user()
                proc = queues[user].popleft() if user else None
            if proc is None:
                break
            run = proc.remaining if proc.remaining < time_left else time_left
            proc.remaining -= run
            sub += run
            time_left -= run
            u = proc.user
            if in_window:
                window_busy[widx][u] += run
            if post:
                post_busy[u] += run
            finished = proc.remaining <= _TIME_EPS
            if not finished:
                queues[u].append(proc)
            if not round_robin:
                charge(u, run, tick)
            if finished:
                # Wakeups are released at the start of a quantum, so a
                # process parked now wakes in the next one at the earliest.
                wake = core.finish_cycle(proc, sub, tick + 1)
                if wake < next_due:
                    next_due = wake
        scale *= growth
        if scale > _SCALE_LIMIT:
            renormalize()

    return core.trace(window_ticks * q, n_ticks * q - warmup_ticks * q)


def _run_fluid_ps(h, w, timeline, config) -> SimTrace:
    """Event-driven processor sharing: every runnable process advances at 1/k."""
    duration = config.duration
    window_seconds = config.window
    n_windows = int((duration + _TIME_EPS) // window_seconds)
    core = _Core(h, w, timeline, config, n_windows, lambda t: t)
    ready = core.run_queue
    window_busy = core.window_busy
    post_busy = core.post_busy

    next_edge = 1  # window edge index; warmup is handled as its own boundary
    now = 0.0
    while now < duration - _TIME_EPS:
        horizon = min(duration, core.release(now + _TIME_EPS, now))

        if not ready:
            # On to the next event, wakeup or the end, which is past now + _TIME_EPS:
            # release() leaves no key at or below it, and duration is past it.
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
        now = boundary

        finished = [p for p in ready if p.remaining <= _TIME_EPS]
        if finished:
            kept = [p for p in ready if p.remaining > _TIME_EPS]
            ready.clear()
            ready.extend(kept)
            for p in finished:
                core.finish_cycle(p, now, now)

    return core.trace(window_seconds, duration - config.warmup)


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
    last_event = max((ev.time for ev in tr.events_applied), default=0.0)
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
