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

Processor sharing runs in virtual time, as GPS and WFQ do (Demers, Keshav &
Shenker, SIGCOMM 1989; Parekh & Gallager, ToN 1993), so a step costs
O(log k) with k processes ready:

* One virtual clock, the service each ready process has received, grows
  by delta/k over a step of delta seconds.  A process that starts a cycle
  gets the finish tag clock + demand, and a heap of tags gives the next
  completion.  Completions within 1e-9 s of service of each other finish
  together, in the order the processes became ready.
* Busy time is credited per user, not per process: a user with n ready
  processes gets n times the clock's advance since its last credit,
  whenever n changes and at the end of every stretch: the run is walked
  window by window, each window split at the warmup, as in the quantized
  modes, and a step ends at every window edge and at the warmup.

Fair-share dispatch is the decay-usage policy of Kay & Lauder (CACM 1988),
kept incrementally so that a dispatch costs O(log users):

* Lazy decay.  Instead of multiplying every user's usage by the decay
  factor each quantum, one global scale grows by its inverse and each
  charge is multiplied by the scale.  Stored usages are then the true ones
  times a common factor, so a user who does not run keeps its key.
* Exact renormalization.  When the scale passes 2**64 it is divided,
  together with every stored usage, by a power of two (``frexp``/``ldexp``),
  which rounds nothing, so no key changes order.
* Heaps.  Flat mode is the hierarchy of one group that holds every user,
  so both modes share one dispatch path.  Users and groups alike are keyed
  (usage/shares, last quantum run, name), so ties go to the least recently
  run, then by name, and runs are reproducible bit for bit.  A heap of
  groups holds exactly the groups with a runnable user, and each group a
  heap of exactly its runnable users.  A dispatch runs the top user of the
  top group and replaces that user's entry with its new key, and a user
  who is deactivated leaves its heap at once.  With more than one group,
  the group's entry is replaced too, and a group's usage is the sum of its
  members' charges, kept as they are made and decayed and renormalized.
  With one group, as in flat mode, its key is never compared, so it is
  neither kept nor replaced: the group only enters and leaves its heap.
"""

from __future__ import annotations

import math
import random
from collections import deque
from heapq import heapify, heappop, heappush, heapreplace
from operator import itemgetter
from typing import NamedTuple

from .errors import ValidationError, check_budget, count_text, validated
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
# Most quanta one quantized run may step through.  A busy quantum costs
# 0.4-1.7 us (round robin with 5 users to fair share with 200) and an idle
# one 0.15 us, so at the limit the loop takes up to 2 s; 10 ms quanta
# reach it at 10,000 simulated s.
TICK_GUARD = 1_000_000
# Most (window, user) busy-time cells one run may record.  Each costs
# 106-125 B of peak RSS, so the limit is about 125 MB, and 0.15-0.5 us in
# the quantized modes.  The fluid one ends a step and credits every ready
# user at each window edge, 0.38-0.82 us a cell: jittered runs of 4, 40
# and 200 users in 0.1 or 1 s windows against one window, min of 5 runs
# (2-CPU x86-64).  A 200-user run in 1 s windows reaches it at 5,000 s.
WINDOW_GUARD = 1_000_000
# Most demand cycles a run may complete, bounded before the run (run_sim).
# A cycle costs 3.7-6.3 us in the processor-sharing engine, 0.8-2.7 us in
# the quantized ones, and 96-154 B of peak RSS with its SimTrace.cycles
# record, so at the limit a run takes up to 7 s and 155 MB (2-CPU x86-64).
CYCLE_GUARD = 1_000_000

_TIME_EPS = 1e-9
# The quantized engine folds its usage scale back into the stored usages
# once it passes this bound, far below where a charge could overflow.
_SCALE_LIMIT = 2.0 ** 64


@validated
class SimConfig(NamedTuple):
    duration: float
    warmup: float = 0.0
    quantum: float = 0.01
    usage_half_life: float = 5.0
    window: float = 1.0
    seed: int = 0
    mode: str = FAIRSHARE_FLAT
    think_jitter: bool = False

    def _check(self):
        if not (math.isfinite(self.quantum) and self.quantum > 0):
            raise ValidationError("quantum must be finite and > 0")
        if not (self.window >= self.quantum and math.isfinite(self.window / self.quantum)):
            raise ValidationError("window must be >= quantum and a finite number of quanta")
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


class SimTrace(NamedTuple):
    """Everything observed during one run.

    ``fractions`` holds per-window busy fractions for every user (whole
    windows from the start, warmup included, so convergence can be located;
    a partial window at the end is left out);
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
    drops a user's in-flight cycles.  Before anything is set up, a run is
    refused if, inactive users included, it has more than ``PROCESS_GUARD``
    processes; more than ``TICK_GUARD`` quanta, if quantized; more than
    ``WINDOW_GUARD`` windows times users; or more than ``CYCLE_GUARD``
    demand cycles in the worst case.  That bound: the engine runs S
    seconds (the duration, or the whole quanta it rounds to), and a cycle
    of class c uses its demand D_c of the one CPU, so c completes at most
    S / D_c.  A quantized process that parks wakes in a later quantum, so a
    quantized class with think time also completes at most procs_c a
    quantum, and its bound is min(S / D_c, procs_c x quanta).
    """
    known = set(h.user_names())
    for c in w.classes:
        if c.user not in known:
            raise ValidationError(f"workload user {c.user!r} not in hierarchy")
    validate_timeline(timeline, h)
    ticks, _, windows = _grid(config)
    quantized = config.mode != TS_PS_REFERENCE
    seconds = max(config.duration, ticks * config.quantum)
    cycles = sum(min(seconds / c.demand, c.procs * ticks if quantized and c.think > 0 else math.inf)
                 for c in w.classes)
    for budget in (
        (sum(c.procs for c in w.classes), PROCESS_GUARD, "processes",
         "about 140 MB and 2 s of set-up", "use fewer procs"),
        (ticks if quantized else 0, TICK_GUARD,
         f"quanta of {config.quantum:g}s in {config.duration:g}s", "a few seconds",
         "use a shorter --duration or a larger --quantum"),
        (windows * len(w.classes), WINDOW_GUARD,
         f"busy-time cells in {count_text(windows)} windows of {len(w.classes)} users", "about 125 MB",
         "use a larger --window or a shorter --duration"),
        (cycles, CYCLE_GUARD, f"demand cycles in {seconds:g}s", "about 155 MB and 7 s",
         "use a shorter --duration or a larger demand"),
    ):
        check_budget(*budget)
    return (_run_quantized if quantized else _run_fluid_ps)(h, w, timeline, config)


def _grid(config: SimConfig) -> tuple[int, int, int]:
    """(quanta, quanta per window, windows) of a run.  The fluid engine
    steps by events, not quanta, and records the whole windows of its run."""
    ticks = round(config.duration / config.quantum)
    if config.mode == TS_PS_REFERENCE:
        return ticks, 0, int((config.duration + _TIME_EPS) // config.window)
    window_ticks = round(config.window / config.quantum)  # >= 1, as window >= quantum
    return ticks, window_ticks, ticks // window_ticks


class _Core:
    """Process life cycles, the timeline and busy-time accounting.

    Both engines share this; each keeps only its own way of advancing
    time.  Timeline events and wakeups are ordered by a key that the
    engine derives from a time with ``to_key``: the quantum index in the
    quantized engine, the time itself in the fluid one.  Runnable
    processes join ``queues[user]``: with ``on_ready`` one FIFO per user,
    and ``on_ready(user)`` is called when a user's queue goes from empty to
    non-empty; without it one FIFO, ``run_queue``, that every user shares.
    ``on_leave(user)`` is called when a deactivation stops a user with a
    workload, once its queued and parked processes are dropped.

    ``window_busy`` holds one busy-time dict per whole window of the run
    (``_grid``), and one more for the partial window after the last whole
    one, so the engines add every slice of busy time to its window without
    a test; ``trace`` leaves that last dict out.
    """

    def __init__(self, h, w, timeline, config, to_key, on_leave, on_ready=None):
        self.config = config
        self.workload = w
        self.to_key = to_key
        self.on_ready = on_ready
        self.on_leave = on_leave
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
        self.window_busy = [dict.fromkeys(self.user_names, 0.0) for _ in range(_grid(config)[2] + 1)]
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
        if think <= 0.0:
            self.start_cycle(proc, when)
            return math.inf
        if self.config.think_jitter:  # a draw of 0.0 parks too, as run_sim's cycle bound needs
            think = self.rng.expovariate(1.0 / think)
        key = max(self.to_key(when + think), earliest)
        self.seq += 1
        heappush(self.parked, (key, self.seq, proc))
        return key

    def release(self, limit, when: float):
        """Apply the events and wake the processes due at ``limit`` or before.

        Returns the key of the next event or wakeup, infinity if none.
        """
        events, parked = self.events, self.parked
        while events and events[0][0] <= limit:
            self._apply(events.popleft()[1], when)
        while parked and parked[0][0] <= limit:
            self.start_cycle(heappop(parked)[2], when)
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
            if user in self.loads:
                queue = self.queues[user]
                kept = [p for p in queue if p.user != user]
                queue.clear()
                queue.extend(kept)
                self.parked[:] = [e for e in self.parked if e[2].user != user]
                heapify(self.parked)
                self.on_leave(user)
        self.applied.append(ev)

    def trace(self, window_seconds: float, elapsed: float) -> SimTrace:
        whole = self.window_busy[:-1]
        warnings = ()
        if not any(any(busy.values()) for busy in (self.post_busy, *whole)):
            warnings = ("the run recorded no busy time; trace is empty",)
        trace = SimTrace(
            config=self.config,
            workload=self.workload,
            users=tuple(self.user_names),
            window_seconds=window_seconds,
            fractions=[{u: busy / window_seconds for u, busy in wb.items()} for wb in whole],
            busy=self.post_busy,
            elapsed=elapsed,
            cycles=self.cycles,
            events_applied=tuple(self.applied),
            warnings=warnings,
        )
        return trace._replace(perf=trace_perf(trace))


def _run_quantized(h, w, timeline, config) -> SimTrace:
    """Advance one quantum at a time, dispatching by decayed usage or round robin."""
    q = config.quantum
    n_ticks, window_ticks, _ = _grid(config)
    warmup_ticks = int(round(config.warmup / q))
    round_robin = config.mode == TS_ROUNDROBIN
    # Usage decays by `decay` every quantum.  Rather than multiply every
    # user's usage, each charge is multiplied by `scale`, which grows by
    # 1/decay every quantum: usage[u] is u's decayed usage times scale, the
    # same factor for every user, so a user who does not run keeps its key.
    # Round robin never reads usage, so its scale stays 1.
    decay = 1.0 if round_robin else 2.0 ** (-q / config.usage_half_life)
    growth = 1.0 / decay if decay else math.inf
    scale = 1.0

    # Fair share picks a group, then a user inside it.  Flat mode is the
    # hierarchy of one group, "", that holds every user.
    loaded = {c.user for c in w.classes}
    if config.mode == FAIRSHARE_HIERARCHICAL:
        groups = [(g.name, g.shares, [u.name for u in g.users if u.name in loaded])
                  for g in h.groups]
    else:
        groups = [("", 1, [u.name for g in h.groups for u in g.users if u.name in loaded])]
    shares = {u.name: u.shares for u in h.users()}
    group_of = {u: g for g, _, members in groups for u in members}
    group_shares = {g: s for g, s, _ in groups}
    usage = dict.fromkeys(shares, 0.0)
    group_usage = dict.fromkeys(group_shares, 0.0)  # its members' charges, summed as made
    # Dispatch keys: (usage/shares, last run, name) per user and per group.
    key = {name: (0.0, -1, name) for name in shares}
    group_key = {name: (0.0, -1, name) for name in group_shares}
    # Each group's heap holds exactly its runnable users' current keys, and
    # group_heap exactly the current keys of the groups whose heap is not empty.
    heaps = {g: [] for g in group_shares}
    group_heap: list[tuple[float, int, str]] = []

    def on_ready(user: str) -> None:
        g = group_of[user]
        if not heaps[g]:
            heappush(group_heap, group_key[g])
        heappush(heaps[g], key[user])

    def on_leave(user: str) -> None:
        heap = heaps[group_of[user]]
        heap[:] = [entry for entry in heap if entry[2] != user]
        heapify(heap)
        group_heap[:] = [group_key[g] for g in heaps if heaps[g]]
        heapify(group_heap)

    def to_tick(t: float) -> int:
        return max(0, math.ceil(t / q - _TIME_EPS))

    # Round robin keeps the heaps empty, so on_leave changes nothing there.
    core = _Core(h, w, timeline, config, to_tick, on_leave, None if round_robin else on_ready)
    queues = core.queues
    run_queue = core.run_queue  # FIFO over processes (ts-roundrobin)
    window_busy = core.window_busy
    post_busy = core.post_busy

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
        for g, _, members in groups:
            group_usage[g] = math.ldexp(group_usage[g], -shift)
            group_key[g] = (group_usage[g] / group_shares[g], group_key[g][1], g)
            heaps[g][:] = [key[u] for u in members if queues[u]]
            heapify(heaps[g])
        group_heap[:] = [group_key[g] for g in heaps if heaps[g]]
        heapify(group_heap)

    # With one group, group_heap holds at most that group, so its key is
    # never compared and is left as it is: only its presence is kept.
    one_group = len(groups) == 1
    time_eps, scale_limit = _TIME_EPS, _SCALE_LIMIT
    next_due = 0
    # Window by window, each split at the warmup, so a quantum looks up
    # neither its window's busy time nor whether it is past the warmup.
    for index, busy in enumerate(window_busy):
        start = index * window_ticks
        end = min(start + window_ticks, n_ticks)
        edge = min(max(start, warmup_ticks), end)
        for post, ticks in ((False, range(start, edge)), (True, range(edge, end))):
            for tick in ticks:
                tick_time = tick * q
                if tick >= next_due:
                    next_due = core.release(tick, tick_time)

                time_left = q
                sub = tick_time
                while time_left > time_eps:
                    if round_robin:
                        if not run_queue:
                            break
                        queue = run_queue
                    else:
                        # The top group, then the top user in its heap.  Both
                        # entries stay on top until the charge.
                        if not group_heap:
                            break
                        g = group_heap[0][2]
                        heap = heaps[g]
                        queue = queues[heap[0][2]]
                    proc = queue.popleft()
                    remaining = proc.remaining
                    run = remaining if remaining < time_left else time_left
                    remaining -= run
                    proc.remaining = remaining
                    sub += run
                    time_left -= run
                    u = proc.user
                    busy[u] += run
                    if post:
                        post_busy[u] += run
                    finished = remaining <= time_eps
                    if not finished:
                        queue.append(proc)
                    if not round_robin:
                        # Replace the picked user's entry with its new key, or
                        # drop it when the user has nothing left to run; then
                        # the group's, which one group only drops.
                        charged = run * scale
                        used = usage[u] + charged
                        usage[u] = used
                        key[u] = entry = (used / shares[u], tick, u)
                        if queue:
                            heapreplace(heap, entry)
                        else:
                            heappop(heap)
                        if one_group:
                            if not heap:
                                heappop(group_heap)
                        else:
                            group_usage[g] += charged
                            group_key[g] = (group_usage[g] / group_shares[g], tick, g)
                            if heap:
                                heapreplace(group_heap, group_key[g])
                            else:
                                heappop(group_heap)
                    if finished:
                        # Wakeups are released at the start of a quantum, so a
                        # process parked now wakes in the next one at the earliest.
                        wake = core.finish_cycle(proc, sub, tick + 1)
                        if wake < next_due:
                            next_due = wake
                scale *= growth
                if scale > scale_limit:
                    renormalize()

    return core.trace(window_ticks * q, n_ticks * q - warmup_ticks * q)


def _run_fluid_ps(h, w, timeline, config) -> SimTrace:
    """Event-driven processor sharing in virtual time: every ready process
    advances at 1/k, and a heap keyed by virtual finish gives the next
    completion in O(log k)."""
    duration = config.duration
    warmup = config.warmup
    window_seconds = config.window
    left: list[str] = []  # users deactivated since the last step
    core = _Core(h, w, timeline, config, lambda t: t, left.append)
    inbox = core.run_queue  # processes that started a cycle since the last step
    demand = {c.user: c.demand for c in w.classes}
    # v is the service each ready process has received.  A process that
    # starts a cycle at v gets the finish tag v + demand.
    v = 0.0
    heap: list[tuple[float, int, _Proc]] = []  # (tag, start seq, proc)
    seq = 0
    # A user with n ready processes is credited n * (v - since[u]) of busy
    # time whenever n changes and at the end of every stretch, into the
    # stretch's window (busy) and post-warmup (post) dicts.
    ready = dict.fromkeys(core.user_names, 0)
    since = dict.fromkeys(core.user_names, 0.0)

    next_due = 0.0  # key of the next event or wakeup
    now = 0.0
    # A step ends at its window's edge and at the warmup, so it is credited
    # to its own stretch; an idle jump past edges leaves the walk to pass
    # their windows with no work.  The warmup is before the end.
    stretches = ((None, warmup - _TIME_EPS), (core.post_busy, duration - _TIME_EPS))
    for index, busy in enumerate(core.window_busy):
        edge = (index + 1) * window_seconds
        for post, until in stretches:
            start = v
            while now < until and now + _TIME_EPS < edge:
                if next_due <= now + _TIME_EPS:
                    next_due = core.release(now + _TIME_EPS, now)
                    for u in left:
                        if ready[u]:
                            # The core dropped u's processes; drop their entries too.
                            _credit(((u, ready[u]),), since, v, busy, post)
                            ready[u] = 0
                            heap[:] = [e for e in heap if e[2].user != u]
                            heapify(heap)
                    left.clear()
                while inbox:
                    p = inbox.popleft()
                    u = p.user
                    _credit(((u, ready[u]),), since, v, busy, post)
                    since[u] = v  # _credit skips a user with nothing ready
                    ready[u] += 1
                    seq += 1
                    heappush(heap, (v + demand[u], seq, p))

                if not heap:
                    # On to the next event, wakeup or the end, which is past now + _TIME_EPS:
                    # release() leaves no key at or below it, and duration is past it.
                    now = min(duration, next_due)
                    continue

                k = len(heap)
                boundary = now + (heap[0][0] - v) * k
                if next_due < boundary:
                    boundary = next_due
                if duration < boundary:
                    boundary = duration
                if edge < boundary:
                    boundary = edge
                if now + _TIME_EPS < warmup < boundary:
                    boundary = warmup

                delta = boundary - now
                if delta > 0.0:
                    v += delta / k
                else:
                    # The next completion is nearer than the spacing of floats at
                    # now, so it is now; without this the run would stall.
                    v = heap[0][0]
                now = boundary

                if heap[0][0] - v <= _TIME_EPS:
                    finished = [heappop(heap)]
                    while heap and heap[0][0] - v <= _TIME_EPS:
                        finished.append(heappop(heap))
                    finished.sort(key=itemgetter(1))  # in the order they became ready
                    for entry in finished:
                        p = entry[2]
                        u = p.user
                        _credit(((u, ready[u]),), since, v, busy, post)
                        ready[u] -= 1
                        wake = core.finish_cycle(p, now, now)
                        if wake < next_due:
                            next_due = wake
            if v != start:  # v never falls, so if it stayed, no user is owed
                _credit(ready.items(), since, v, busy, post)

    return core.trace(window_seconds, duration - config.warmup)


def _credit(counts, since, v, busy, post) -> None:
    """Credit each user of the (user, ready processes) pairs ``counts`` its
    busy time since its last credit, ``n * (v - since[u])``, in ``busy``
    and, unless it is None, in ``post``.  A user with nothing ready is
    skipped: its ``since`` restarts when a process of its becomes ready."""
    for u, n in counts:
        if n:
            amount = n * (v - since[u])
            since[u] = v
            busy[u] += amount
            if post is not None:
                post[u] += amount


def trace_perf(tr: SimTrace) -> PerfTable:
    """Estimate X, R and U per user from the post-warmup part of the run.

    U is the user's busy-time fraction, ``SimTrace.utilization``, and X is
    U / D, so a table's U sums to at most 1 and U = X D holds by
    construction.  R is the mean residence, ready to completion, of the
    cycles completed after the warmup.  A user with no such cycle has no R,
    so it gets no row, only a note; its busy time stays in
    ``SimTrace.utilization``.  A deactivation drops its user's in-flight
    cycles, but their service stays in the busy time: each deactivation
    can count up to D per process in U, and so up to one cycle per process
    in X, that no cycle completed.  Think times are not read.
    """
    rows: dict[str, PerfRow] = {}
    notes: list[str] = []
    warm = tr.config.warmup
    for c in tr.workload.classes:
        residence = 0.0  # added left to right: from Python 3.12 sum() compensates its rounding
        completed = 0
        for _, ready, done in tr.cycles[c.user]:
            if done >= warm - _TIME_EPS:
                residence += done - ready
                completed += 1
        if not completed:
            notes.append(f"{c.user}: no completed cycles after warmup")
            continue
        utilization = tr.utilization(c.user)
        rows[c.user] = PerfRow(utilization / c.demand, residence / completed, utilization)
    return PerfTable(solver="simulated", rows=rows, notes=tuple(notes))


def convergence_time(tr: SimTrace, e: EntitlementTable, epsilon: float):
    """Earliest time after the last timeline event from which every later
    window keeps all active users within epsilon of their entitlements.

    Returns seconds, or None when no trailing run of windows qualifies.
    """
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise ValidationError(f"epsilon must be finite and >= 0, got {epsilon!r}")
    last_event = max((ev.time for ev in tr.events_applied), default=0.0)
    window = tr.window_seconds
    windows = tr.fractions
    if not windows:
        raise ValidationError(f"the {tr.config.duration:g}s run has no whole {window:g}s window")
    entitled = e.entitlements  # read once: a record field is read through a descriptor
    start = len(windows)  # the converged suffix is windows[start:]
    while start and (start - 1) * window >= last_event - _TIME_EPS:
        fractions = windows[start - 1]
        if not all(abs(fractions.get(u, 0.0) - entitled[u]) <= epsilon + _TIME_EPS
                   for u in e.active_users):
            return start * window if start < len(windows) else None
        start -= 1
    if start == len(windows):
        raise ValidationError("trace has no windows after the last timeline event")
    return last_event


def export_trace(tr: SimTrace, fh) -> None:
    """Write per-window busy fractions as delimiter-separated text."""
    fh.write("time,user,fraction\n")
    for i, fractions in enumerate(tr.fractions):
        start = i * tr.window_seconds
        for user in tr.users:
            fh.write(f"{start:.3f},{user},{fractions[user]:.6f}\n")
