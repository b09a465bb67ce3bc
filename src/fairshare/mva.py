"""Closed queueing solvers for time-share and entitlement-constrained CPUs.

Three steady-state models share one workload description:

* ``solve_ts``: exact multiclass mean value analysis of one processor-
  sharing CPU plus per-class think stations.  This is the conventional
  round-robin time-share baseline: every process gets an equal slice.
* ``solve_srm_partition``: each user owns a dedicated virtual CPU whose
  speed equals its entitlement, so its demand inflates to D/E.  This is the
  guaranteed-minimum reading of fair-share scheduling: capacity is never
  lent between users.
* ``solve_srm_conserving``: partition model refined by a fixed point that
  lends capacity left idle by think-heavy users to users still saturating
  their virtual CPU, in proportion to their shares.

Utilization is always reported against the physical CPU (U = X * D).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ValidationError, ZeroEntitlementError, check_budget, count_text, validated
from .shares import EntitlementTable

# Largest population-vector space the exact recursion will attempt.  At the
# limit the queue table takes 8 bytes per vector, 80 MB, and solving 2 to 23
# classes measured 0.4-3.5 s at 106-167 MB peak RSS (2-CPU x86-64 host).
# The repairman solvers' process levels count against it at 0.09 us each: 1 s.
POPULATION_GUARD = 10_000_000
# Each population level also costs 14-35 us however few vectors it holds,
# against 0.05-0.38 us per vector, so a level counts as 100 vectors against
# the guard and a thin space stays within the same few seconds: one class
# of 1e5 processes (1.6-1.9 s) is just over it.
_LEVEL_VECTORS = 100

# Most (class, vector) cells one block of a level holds, 8 MB per array, so
# a wide level of many classes is not materialised k times over at once.
_LEVEL_CELLS = 1 << 20

# Virtual-CPU slack below which a user counts as saturated (CPU bound).
_SATURATION_TOL = 1e-6


@validated
class ClassLoad(NamedTuple):
    """One user's closed workload: procs cycling through demand and think."""

    user: str
    procs: int
    think: float
    demand: float

    def _check(self):
        if not isinstance(self.procs, int) or self.procs < 1:
            raise ValidationError(f"user {self.user}: procs must be an integer >= 1")
        if not (math.isfinite(self.think) and self.think >= 0):
            raise ValidationError(f"user {self.user}: think time must be finite and >= 0")
        if not (math.isfinite(self.demand) and self.demand > 0):
            raise ValidationError(f"user {self.user}: CPU demand must be finite and > 0")


@validated
class WorkloadSpec(NamedTuple):
    classes: tuple[ClassLoad, ...]

    def _check(self):
        if not self.classes:
            raise ValidationError("workload is empty")
        seen = set()
        for c in self.classes:
            if c.user in seen:
                raise ValidationError(f"duplicate workload user {c.user!r}")
            seen.add(c.user)


@validated
class PerfRow(NamedTuple):
    throughput: float
    response: float
    utilization: float

    def _check(self):
        if not all(map(math.isfinite, self)):
            raise ValidationError(f"non-finite model estimate {self}: the workload overflows floats")


class PerfTable(NamedTuple):
    """Per-user steady-state results plus the model that produced them."""

    solver: str
    rows: dict[str, PerfRow]
    notes: tuple[str, ...] = ()


def solve_ts(w: WorkloadSpec) -> PerfTable:
    """Exact multiclass MVA for the round-robin time-share scheduler.

    The CPU is one processor-sharing center with per-class demand; each
    class also has a think (delay) station.  The mean CPU queue at a
    population vector depends only on the vectors with one process fewer,
    so the solver sweeps the population levels (total processes) upward and
    solves each level as one batch of array operations.  Every vector and
    every level is visited once, so the product of (N_c + 1) plus the
    levels, each counted as ``_LEVEL_VECTORS`` vectors, is guarded.
    """
    import numpy as np  # here, not at module top, so commands that solve nothing never load it

    dims = [c.procs + 1 for c in w.classes]
    size = math.prod(dims)
    levels = sum(c.procs for c in w.classes)
    check_budget(size + levels * _LEVEL_VECTORS, POPULATION_GUARD, f"vectors ({count_text(size)} states"
                 f" and {count_text(levels)} levels of {_LEVEL_VECTORS})",
                 "an 80 MB queue table and a few seconds",
                 "use the simulator (`fairshare simulate`) for this workload")

    # Per-class constants as (k, 1) columns.  Every per-level array is
    # class-major, (k, vectors), so a sum over axis 0 adds the classes row by
    # row, in workload order, as the textbook recursion does.
    #
    # A vector at flat index i may gain a process of class j when every class
    # before j is empty and class j has room: exactly when i < room_j, with
    # room_j = procs_j * stride_j.  So each vector is generated once, from the
    # parent that lacks one process of its first non-empty class.
    strides = np.array([math.prod(dims[i + 1:]) for i in range(len(dims))])[:, None]
    dim = np.array(dims)[:, None]
    room = (dim - 1) * strides
    think = np.array([c.think for c in w.classes])[:, None]
    demand = np.array([c.demand for c in w.classes])[:, None]
    block = max(2, _LEVEL_CELLS // len(dims))

    queue = np.zeros(size)  # total mean CPU queue length per population vector
    level = strides[:, 0]  # level 1: one process of any one class; level 0 is 0.0
    for _ in range(1, levels):  # levels 1 .. N-1
        solved = np.empty(len(level))
        children = []
        # A wide level is solved in blocks of vectors.  A single leftover
        # vector joins the block before it: numpy sums a one-column (k, 1)
        # array pairwise once k >= 8, not row by row.
        starts = range(0, max(len(level) - 1, 1), block)
        for lo, hi in zip(starts, [*starts[1:], len(level)]):
            idx = level[lo:hi]
            counts = idx // strides % dim
            # An empty class reads a vector at this level or above, none of
            # them solved yet (0.0), so it adds an exact 0.0.
            resp = demand * (1.0 + queue[idx - strides])
            (counts / (think + resp) * resp).sum(axis=0, out=solved[lo:hi])
            children.append((idx + strides)[idx < room])
        # Written after the whole level, so no block reads a vector of its own level.
        queue[level] = solved
        level = np.concatenate(children)

    # The full vector's rows, from the queue one process below it per class.
    rows = {}
    for c, below in zip(w.classes, queue[size - 1 - strides[:, 0]].tolist()):
        r = c.demand * (1.0 + below)
        x = c.procs / (c.think + r)
        rows[c.user] = PerfRow(x, r, x * c.demand)
    return PerfTable(solver="ts", rows=rows)


def _repairman(procs: int, think: float, demand: float) -> tuple[float, float]:
    """Single-class exact MVA: returns (response, throughput)."""
    q = 0.0
    r = demand
    x = 0.0
    for n in range(1, procs + 1):
        r = demand * (1.0 + q)
        x = n / (think + r)
        q = x * r
    return r, x


def _check_workload(w: WorkloadSpec, e: EntitlementTable, passes: int) -> None:
    """Refuse a user without entitlement, or ``passes`` of ``_repairman`` over the budget."""
    for c in w.classes:
        if e.entitlements.get(c.user, 0.0) <= 0.0:
            raise ZeroEntitlementError(
                f"user {c.user!r} has zero entitlement but a nonzero workload"
            )
    procs = sum(c.procs for c in w.classes)
    check_budget(passes * procs, POPULATION_GUARD,
                 f"process levels ({passes} x {count_text(procs)} processes)", "about 1 s",
                 "use fewer procs")


def solve_srm_partition(w: WorkloadSpec, e: EntitlementTable) -> PerfTable:
    """Capacity-partition model: each user runs on its entitlement's worth of CPU.

    A user with entitlement E sees effective demand D/E on its private
    virtual processor; users do not interact.  For one CPU-bound process
    this gives R = D/E and U = E.
    """
    _check_workload(w, e, 1)
    rows = {}
    for c in w.classes:
        speed = e.entitlements[c.user]
        r, x = _repairman(c.procs, c.think, c.demand / speed)
        rows[c.user] = PerfRow(x, r, x * c.demand)
    return PerfTable(solver="partition", rows=rows)


def solve_srm_conserving(w: WorkloadSpec, e: EntitlementTable) -> PerfTable:
    """Work-conserving refinement: idle entitlement is lent to saturated users.

    Starting from entitlement speeds, any user whose demanded utilization
    falls below its virtual speed (think time or small demand) keeps its
    entitlement but releases the unused capacity; the release is split
    among still-saturated users in proportion to their shares.  With every
    user CPU bound this is exactly the partition model.
    """
    # Bound on the passes: the saturated set only shrinks, and a pass's
    # speeds depend only on that set and on what the other users use.  When
    # two passes in a row leave the set unchanged, the users outside it ran
    # at base speed in both, so the second repeats the first's speeds.  That
    # allows at most users shrinking passes, users + 1 passes that change
    # only the speeds, and one final pass that changes nothing.
    passes = 2 * len(w.classes) + 2
    _check_workload(w, e, passes)

    base = {c.user: e.entitlements[c.user] for c in w.classes}
    speeds = dict(base)
    saturated = set(base)
    for _ in range(passes):
        solved, used = {}, {}
        for c in w.classes:
            _, x = solved[c.user] = _repairman(c.procs, c.think, c.demand / speeds[c.user])
            used[c.user] = x * c.demand
        still = {u for u in saturated if speeds[u] - used[u] <= _SATURATION_TOL}
        new_speeds = dict(base)  # nobody can absorb the slack when still is empty
        if still:
            # Sum in workload order, left to right: set order depends on the
            # string hash seed, and from Python 3.12 sum() compensates its rounding.
            lent = weight = 0.0
            for u in base:
                if u in still:
                    weight += base[u]
                else:
                    lent += used[u]
            lendable = 1.0 - lent
            for u in still:
                new_speeds[u] = lendable * base[u] / weight
        if still == saturated and new_speeds == speeds:
            break
        speeds, saturated = new_speeds, still

    # The loop ends on a pass that changed nothing, so that pass ran on the
    # final speeds and its solutions are the rows.
    rows = {}
    for c in w.classes:
        r, x = solved[c.user]
        rows[c.user] = PerfRow(x, r, used[c.user])
    return PerfTable(solver="conserving", rows=rows)
