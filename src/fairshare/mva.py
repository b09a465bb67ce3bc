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
from dataclasses import dataclass

import numpy as np

from .errors import PopulationGuardError, ValidationError, ZeroEntitlementError
from .shares import EntitlementTable

# Largest population-vector space the exact recursion will attempt.
POPULATION_GUARD = 10_000_000

# Virtual-CPU slack below which a user counts as saturated (CPU bound).
_SATURATION_TOL = 1e-6


@dataclass(frozen=True)
class ClassLoad:
    """One user's closed workload: procs cycling through demand and think."""

    user: str
    procs: int
    think: float
    demand: float


@dataclass(frozen=True)
class WorkloadSpec:
    classes: tuple[ClassLoad, ...]

    def validate(self) -> None:
        if not self.classes:
            raise ValidationError("workload is empty")
        seen = set()
        for c in self.classes:
            if c.user in seen:
                raise ValidationError(f"duplicate workload user {c.user!r}")
            seen.add(c.user)
            if not isinstance(c.procs, int) or c.procs < 1:
                raise ValidationError(f"user {c.user}: procs must be an integer >= 1")
            if c.think < 0:
                raise ValidationError(f"user {c.user}: think time must be >= 0")
            if c.demand <= 0:
                raise ValidationError(f"user {c.user}: CPU demand must be > 0")

    def for_user(self, name: str) -> ClassLoad:
        for c in self.classes:
            if c.user == name:
                return c
        raise ValidationError(f"user {name!r} not in workload")

    def users(self) -> tuple[str, ...]:
        return tuple(c.user for c in self.classes)


@dataclass(frozen=True)
class PerfRow:
    throughput: float
    response: float
    utilization: float


@dataclass(frozen=True)
class PerfTable:
    """Per-user steady-state results plus the model that produced them."""

    solver: str
    rows: dict[str, PerfRow]
    entitlements: EntitlementTable | None = None
    notes: tuple[str, ...] = ()

    def users(self) -> tuple[str, ...]:
        return tuple(self.rows)


@dataclass(frozen=True)
class RatioTable:
    """Response-time ratios a.R / b.R per user; None where a user is absent."""

    label_a: str
    label_b: str
    ratios: dict[str, float | None]


def solve_ts(w: WorkloadSpec) -> PerfTable:
    """Exact multiclass MVA for the round-robin time-share scheduler.

    The CPU is one processor-sharing center with per-class demand; each
    class also has a think (delay) station.  The recursion visits every
    population vector, so the product of (N_c + 1) is guarded.
    """
    w.validate()
    dims = [c.procs + 1 for c in w.classes]
    size = math.prod(dims)
    if size > POPULATION_GUARD:
        raise PopulationGuardError(
            f"population space {size} exceeds {POPULATION_GUARD}; use the simulator for this workload"
        )

    demands = [c.demand for c in w.classes]
    thinks = [c.think for c in w.classes]
    n_classes = len(w.classes)

    # Mixed-radix strides into the flat queue-length table.
    strides = [0] * n_classes
    stride = 1
    for i in range(n_classes - 1, -1, -1):
        strides[i] = stride
        stride *= dims[i]

    queue = np.zeros(size)  # total mean CPU queue length per population vector
    resp = [0.0] * n_classes
    thru = [0.0] * n_classes

    counts = [0] * n_classes
    for idx in range(1, size):
        # Advance the mixed-radix counter to this index.
        for i in range(n_classes - 1, -1, -1):
            counts[i] += 1
            if counts[i] < dims[i]:
                break
            counts[i] = 0
        q_here = 0.0
        for i in range(n_classes):
            if counts[i] == 0:
                resp[i] = 0.0
                thru[i] = 0.0
                continue
            resp[i] = demands[i] * (1.0 + queue[idx - strides[i]])
            thru[i] = counts[i] / (thinks[i] + resp[i])
            q_here += thru[i] * resp[i]
        queue[idx] = q_here

    rows = {
        c.user: PerfRow(thru[i], resp[i], thru[i] * demands[i])
        for i, c in enumerate(w.classes)
    }
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


def _require_entitlements(w: WorkloadSpec, e: EntitlementTable) -> None:
    for c in w.classes:
        if e.entitlements.get(c.user, 0.0) <= 0.0:
            raise ZeroEntitlementError(
                f"user {c.user!r} has zero entitlement but a nonzero workload"
            )


def solve_srm_partition(w: WorkloadSpec, e: EntitlementTable) -> PerfTable:
    """Capacity-partition model: each user runs on its entitlement's worth of CPU.

    A user with entitlement E sees effective demand D/E on its private
    virtual processor; users do not interact.  For one CPU-bound process
    this gives R = D/E and U = E.
    """
    w.validate()
    _require_entitlements(w, e)
    rows = {}
    for c in w.classes:
        speed = e.entitlements[c.user]
        r, x = _repairman(c.procs, c.think, c.demand / speed)
        rows[c.user] = PerfRow(x, r, x * c.demand)
    return PerfTable(solver="partition", rows=rows, entitlements=e)


def solve_srm_conserving(w: WorkloadSpec, e: EntitlementTable) -> PerfTable:
    """Work-conserving refinement: idle entitlement is lent to saturated users.

    Starting from entitlement speeds, any user whose demanded utilization
    falls below its virtual speed (think time or small demand) keeps its
    entitlement but releases the unused capacity; the release is split
    among still-saturated users in proportion to their shares.  With every
    user CPU bound this is exactly the partition model.
    """
    w.validate()
    _require_entitlements(w, e)

    base = {c.user: e.entitlements[c.user] for c in w.classes}
    speeds = dict(base)
    saturated = set(base)
    # Bound on the passes: the saturated set only shrinks, and a pass's
    # speeds depend only on that set and on what the other users use.  When
    # two passes in a row leave the set unchanged, the users outside it ran
    # at base speed in both, so the second repeats the first's speeds.  That
    # allows at most users shrinking passes, users + 1 passes that change
    # only the speeds, and one final pass that changes nothing.
    for _ in range(2 * len(base) + 2):
        used = {}
        for c in w.classes:
            _, x = _repairman(c.procs, c.think, c.demand / speeds[c.user])
            used[c.user] = x * c.demand
        still = {u for u in saturated if speeds[u] - used[u] <= _SATURATION_TOL}
        new_speeds = dict(base)  # nobody can absorb the slack when still is empty
        if still:
            # Sum in workload order: set order depends on the string hash seed.
            lendable = 1.0 - sum(used[u] for u in base if u not in still)
            weight = sum(base[u] for u in base if u in still)
            for u in still:
                new_speeds[u] = lendable * base[u] / weight
        if still == saturated and new_speeds == speeds:
            break
        speeds, saturated = new_speeds, still

    rows = {}
    for c in w.classes:
        r, x = _repairman(c.procs, c.think, c.demand / speeds[c.user])
        rows[c.user] = PerfRow(x, r, x * c.demand)
    return PerfTable(solver="conserving", rows=rows, entitlements=e)


def compare_tables(a: PerfTable, b: PerfTable) -> RatioTable:
    """Per-user response-time ratios a.R/b.R; users missing from either side map to None."""
    common = [u for u in a.rows if u in b.rows]
    if not common:
        raise ValidationError("performance tables share no users")
    order = list(a.rows) + [u for u in b.rows if u not in a.rows]
    ratios: dict[str, float | None] = {}
    for user in order:
        if user in a.rows and user in b.rows:
            ratios[user] = a.rows[user].response / b.rows[user].response
        else:
            ratios[user] = None
    return RatioTable(label_a=a.solver, label_b=b.solver, ratios=ratios)
