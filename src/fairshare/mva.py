"""Closed queueing solvers for time-share and entitlement-constrained CPUs.

Three steady-state models share one workload description:

* ``solve_ts``: the round-robin time-share baseline, where every process
  gets an equal slice of one processor-sharing CPU, plus per-class think
  stations.  By product form, X_c = (N_c/D_c) E[1/(Z_c/D_c + T)] for T of
  density proportional to exp(-t) prod_j (Z_j/D_j + t)**N_j: a trapezoid
  sum in log t, within 1e-12 relative at any population.
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
import sys
from typing import NamedTuple

from .errors import ValidationError, ZeroEntitlementError, check_budget, count_text, validated
from .shares import EntitlementTable

# Most process levels the repairman solvers run: 0.09 us each, about 1 s.
POPULATION_GUARD = 10_000_000

# Relative error each solve_ts quadrature sum may take from its step, and
# again from its support: its rows are within 4.1 times it plus rounding.
_QUADRATURE_ERROR = 1e-13

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
    """The round-robin time-share baseline, exact to 1e-12, by one quadrature.

    The CPU is one processor-sharing center with per-class demand D; each
    class also has a think (delay) station, Z.  The network has product
    form, so with zeta_c = Z_c/D_c and T of density proportional to
    exp(-t) prod_j (zeta_j + t)**N_j (McKenna & Mitra, BSTJ 1982),
    X_c = (N_c/D_c) E_c and R_c = D_c rho_c, with E_c = E[1/(zeta_c + T)]
    and rho_c = E[T/(zeta_c + T)] / E_c.  If zeta_c = 0, the density
    vanishes at 0 and its derivative integrates to 0: sum_j N_j E_j = 1, so
    rho_c = N0 + sum over zeta_j > 0 of N_j E_j/E_c, with N0 the processes
    of the classes with zeta = 0, and it is exactly N0 when no class thinks.
    The rows are R = D rho, X = N/(Z + R) and U = X D, in Python floats.
    Each expectation is a trapezoid sum in delta = log(T/c), about the mode
    c, at the nodes delta = j/nu for j from -left nu to 4 nu.  Each sum is
    within 2.01 eps (``_QUADRATURE_ERROR``) of its integral, so rho, X, R
    and U are within 4.1 eps plus rounding, below 1e-12 relative:

    (a) Step.  Every integrand is entire in delta, and with n = 1 + sum N,
        int |f(x + iy)| dx <= (cos y)**-n int f for |y| < pi/2 (put
        s = t cos y and use zeta + s/cos y <= (zeta + s)/cos y).  For
        a**2 = m/n <= 1, -log cos a <= a**2/2 + a**4/6 bounds (cos a)**-n
        by E = exp(m/2 + m**2/(6n)).  By Trefethen & Weideman (SIAM Review
        2014, Theorem 5.1) the infinite sum is then within
        2E/(exp(2 pi a nu) - 1) of the integral relative, at most eps once
        nu >= lam/(2 pi a), lam = log(1 + 2E/eps): nu is that bound rounded
        up in integers.  m = min(n, 2 log(2/eps)) nearly minimizes it, to
        about 1.25 sqrt(n) for large n.
    (b) Support.  Newton from t = n, above the mode, stops where the mode
        equation's residual r = 1 + sum N_j c/(zeta_j + c) - c is in
        [-1/2, 0].  Then log1p(x) <= x bounds every integrand, 1 at the
        node delta = 0, by exp(delta + 2.5) to its left and by
        exp(2 delta + 1 - e**delta) to its right.  The nodes left of -left
        add at most exp(2.5 - left) <= eps/nu, and those right of 4 at
        most 3e-22 < 0.01 eps/nu for the nu < 3e5 that the budget allows.
        The node at delta = 0 makes each sum at least 1/nu.
    (c) Rounding.  Each log-factor log((zeta + t)/(zeta + c)) is a log1p
        of a positive argument, or of one above -1/2, and vanishes at the
        mode.  The same sums in 40 digits differed by at most 6.3e-16 (48
        workloads up to 1e6 processes), and the rows from exact rational
        MVA or a 40-digit repairman by at most 1e-14, mostly the step's.

    Its cost, classes x (nu (left + 4) + 1) grid cells, is counted in
    integers before any float, so a population past floats is refused.
    """
    import numpy as np  # here, not at module top, so commands that solve nothing never load it

    n = 1 + sum(c.procs for c in w.classes)
    m = min(n, math.ceil(2 * math.log(2 / _QUADRATURE_ERROR)))
    lam = math.log1p(2 / _QUADRATURE_ERROR * math.exp(m / 2 + m * m / (6 * n)))
    nu = math.isqrt(math.ceil(16 * lam * lam / (math.pi ** 2 * m)) * n) // 8 + 1
    left = math.ceil(math.log(nu) - math.log(_QUADRATURE_ERROR) + 2.5)
    points = nu * (left + 4) + 1
    check_budget(len(w.classes) * points, 10**7,
                 f"grid cells ({len(w.classes)} x {count_text(points)} points)",
                 "about 1 s and 330 MB", "use fewer users or procs")

    procs = np.array([c.procs for c in w.classes], dtype=float)
    zeta = np.array([min(c.think / c.demand, sys.float_info.max) for c in w.classes])
    mode = float(n)
    while (r := 1.0 + procs @ (g := mode / (zeta + mode)) - mode) < -0.5:
        mode -= r / (procs @ (g - g * g) / mode - 1.0)
    d = np.arange(-left * nu, 4 * nu + 1) / nu
    # log((zeta + t)/(zeta + c)) per class and node: log1p(g expm1(delta)), or, where that would
    # cancel (left of the mode, zeta < c), delta + log1p(zeta/(zeta + c) expm1(-delta)).
    factor = np.multiply.outer(g, np.expm1(d))
    low, below = zeta < mode, slice(0, left * nu)
    factor[low, below] = np.multiply.outer(zeta[low] / (zeta[low] + mode), np.expm1(-d[below]))
    np.log1p(factor, out=factor)
    factor[low, below] += d[below]
    # Weight of 1/(zeta_c + T) at each node, relative to the mode; times t/c for T/(zeta_c + T).
    weight = np.exp(np.subtract(d - mode * np.expm1(d) + procs @ factor, factor, out=factor), out=factor)
    s, zero = weight.sum(axis=1), zeta == 0
    rho = np.where(zero, procs @ zero + (procs * g * ~zero) @ s / s, mode * (weight @ np.exp(d)) / s)

    rows = {}
    for c, q in zip(w.classes, rho.tolist()):
        r = c.demand * q
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
