"""Analytic solver checks against hand-unrolled recursions and a CTMC oracle."""

import functools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairshare
from fairshare import mva
from fairshare.errors import PopulationGuardError, ValidationError, ZeroEntitlementError
from fairshare.mva import (
    ClassLoad,
    PerfRow,
    WorkloadSpec,
    solve_srm_conserving,
    solve_srm_partition,
    solve_ts,
)
from fairshare.shares import compute_entitlements

from builders import (
    assert_operational_laws,
    cpu_bound,
    equal_table,
    standard_hierarchy,
    standard_workload,
)

REL = 1e-9
# solve_ts's derived bound on the relative error of each field of its rows.
BOUND = 1e-12


class TestSolveTs:
    def test_five_equal_users(self):
        table = solve_ts(cpu_bound("a", "b", "c", "d", "e"))
        for row in table.rows.values():
            assert row.response == pytest.approx(5.0, rel=REL)
            assert row.throughput == pytest.approx(0.2, rel=REL)
            assert row.utilization == pytest.approx(0.2, rel=REL)

    def test_single_user_owns_the_machine(self):
        table = solve_ts(cpu_bound("only"))
        row = table.rows["only"]
        for value in (row.response, row.throughput, row.utilization):
            assert value == pytest.approx(1.0, rel=BOUND, abs=0)

    def test_cpu_bound_classes_are_exact(self):
        # With no think time every process is at the CPU, so R_c = D_c sum N.
        for procs in ((1, 1, 1, 1), (3, 1), (7,), (2, 5, 1)):
            w = WorkloadSpec(tuple(ClassLoad(f"u{i}", n, 0.0, 0.5 + i) for i, n in enumerate(procs)))
            rows = solve_ts(w).rows
            for c in w.classes:
                r = c.demand * sum(procs)
                assert rows[c.user] == PerfRow(c.procs / r, r, c.procs / r * c.demand)

    def test_two_classes_unequal_demand(self):
        # Hand-unrolled recursion: populations (1,0) and (0,1) give total
        # queue 1, so at (1,1): Ra = 1*(1+1) = 2, Rb = 2*(1+1) = 4.
        table = solve_ts(
            WorkloadSpec((ClassLoad("a", 1, 0.0, 1.0), ClassLoad("b", 1, 0.0, 2.0)))
        )
        assert table.rows["a"].response == pytest.approx(2.0, rel=REL)
        assert table.rows["b"].response == pytest.approx(4.0, rel=REL)
        assert table.rows["a"].throughput == pytest.approx(0.5, rel=REL)
        assert table.rows["b"].throughput == pytest.approx(0.25, rel=REL)

    def test_single_class_with_think(self):
        # n=1: R=1, X=1/2, Q=1/2; n=2: R=1.5, X=2/2.5=0.8.
        table = solve_ts(WorkloadSpec((ClassLoad("a", 2, 1.0, 1.0),)))
        row = table.rows["a"]
        assert row.response == pytest.approx(1.5, rel=REL)
        assert row.throughput == pytest.approx(0.8, rel=REL)

    def test_matches_markov_chain_solution(self):
        # Independent oracle: the processor-sharing CPU with exponential
        # think is a four-state Markov chain for two single-process users.
        # States index (a, b) location, C=cpu T=think.
        rates = np.zeros((4, 4))
        rates[0, 2] = 0.5   # (C,C): a finishes at 1/D_a / 2
        rates[0, 1] = 0.25  # (C,C): b finishes at 1/D_b / 2
        rates[1, 3] = 1.0   # (C,T): a finishes alone
        rates[1, 0] = 1.0   # (C,T): b's think ends
        rates[2, 3] = 0.5   # (T,C): b finishes alone
        rates[2, 0] = 1.0   # (T,C): a's think ends
        rates[3, 1] = 1.0   # (T,T): a wakes
        rates[3, 2] = 1.0   # (T,T): b wakes
        for i in range(4):
            rates[i, i] = -rates[i].sum()
        design = np.vstack([rates.T, np.ones(4)])
        target = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
        pi, *_ = np.linalg.lstsq(design, target, rcond=None)
        x_a = pi[0] * 0.5 + pi[1] * 1.0
        x_b = pi[0] * 0.25 + pi[2] * 0.5

        table = solve_ts(
            WorkloadSpec((ClassLoad("a", 1, 1.0, 1.0), ClassLoad("b", 1, 1.0, 2.0)))
        )
        assert table.rows["a"].throughput == pytest.approx(x_a, rel=1e-10)
        assert table.rows["b"].throughput == pytest.approx(x_b, rel=1e-10)
        assert table.rows["a"].response == pytest.approx(1.0 / x_a - 1.0, rel=1e-10)

    def test_population_guard(self):
        # Workloads the guard passes that a budget of 1e7 population vectors
        # refused: 4 x 100 processes, 2 x 4000, a 30-user pool (4.5e14
        # vectors) and one class of 1e6 processes (1e6 levels).
        rng = random.Random(17)
        pool30 = [(rng.randint(1, 3), round(rng.uniform(0, 5), 2), round(rng.uniform(0.1, 1), 3))
                  for _ in range(30)]
        for classes in ([(100, 0.0, 1.0)] * 4, [(4000, 1.0, 0.5)] * 2, pool30, [(10**6, 1.0, 0.5)]):
            w = WorkloadSpec(tuple(ClassLoad(f"u{i}", *c) for i, c in enumerate(classes)))
            table = solve_ts(w)
            assert all(math.isfinite(v) for row in table.rows.values() for v in row)
            assert assert_operational_laws(table, w.classes, BOUND) <= 1.0 + BOUND

    def test_population_guard_counts_levels(self):
        # The grid follows the population level sum N, not the vectors: 1000
        # classes of 400 processes (401**1000 vectors) and 999 classes of 1
        # plus one of 399,001 (2**999 x 399,002) both cost 1000 x 34,805 points.
        for procs in ([400] * 1000, [1] * 999 + [399_001]):
            w = WorkloadSpec(tuple(ClassLoad(f"u{i}", n, 1.0, 0.5) for i, n in enumerate(procs)))
            with pytest.raises(PopulationGuardError,
                               match=r"^34805000 grid cells \(1000 x 34805 points\) exceed "
                                     r"10000000, .*; use fewer users or procs$"):
                solve_ts(w)

    def test_empty_workload(self):
        with pytest.raises(ValidationError):
            solve_ts(WorkloadSpec(()))


def reference_ts(w: WorkloadSpec) -> dict[str, PerfRow]:
    """Textbook exact MVA (Reiser & Lavenberg 1980), memoised per population vector.

    The queue length at a vector sums, class by class in workload order, the
    Little's-law queue of every class present in it; each class's response
    time reads the queue at the vector with one of its processes removed.
    """

    @functools.cache
    def queue(pop: tuple[int, ...]) -> float:
        total = 0.0
        for i, c in enumerate(w.classes):
            if pop[i]:
                r = c.demand * (1.0 + queue(pop[:i] + (pop[i] - 1,) + pop[i + 1:]))
                total += pop[i] / (c.think + r) * r
        return total

    full = tuple(c.procs for c in w.classes)
    rows = {}
    for i, c in enumerate(w.classes):
        r = c.demand * (1.0 + queue(full[:i] + (c.procs - 1,) + full[i + 1:]))
        x = c.procs / (c.think + r)
        rows[c.user] = PerfRow(x, r, x * c.demand)
    return rows


reference_workloads = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=5),
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=20.0)),
        st.floats(min_value=1e-3, max_value=10.0),
    ),
    min_size=1,
    max_size=4,
).map(lambda rows: WorkloadSpec(tuple(ClassLoad(f"u{i}", *row) for i, row in enumerate(rows))))


def assert_rows_within_bound(rows, expected):
    assert rows.keys() == expected.keys()
    for user, row in rows.items():
        for got, want in zip(row, expected[user]):
            assert got == pytest.approx(want, rel=BOUND, abs=0), (user, row, expected[user])


def repairman_row(c: ClassLoad) -> PerfRow:
    r, x = mva._repairman(c.procs, c.think, c.demand)
    return PerfRow(x, r, x * c.demand)


@settings(max_examples=200, deadline=None)
@given(reference_workloads)
def test_solve_ts_equals_the_textbook_recursion(w):
    rows = solve_ts(w).rows
    assert_rows_within_bound(rows, reference_ts(w))
    if len(w.classes) == 1:
        c = w.classes[0]
        assert_rows_within_bound(rows, {c.user: repairman_row(c)})


def gauss_laguerre_ts(w: WorkloadSpec) -> dict[str, PerfRow]:
    """The time-share rows from G(N) = int e^-t prod_j (Z_j + D_j t)^N_j / N_j! dt.

    Each integrand is e^-t times a polynomial of degree at most sum N, so
    Gauss-Laguerre with m >= (sum N + 2)/2 nodes integrates it exactly.
    X_c = G(N - e_c)/G(N) and R_c = D_c G'_c / G(N - e_c), where G'_c
    integrates t in place of (Z_c + D_c t): every term is positive.
    """
    t, weight = np.polynomial.laguerre.laggauss((sum(c.procs for c in w.classes) + 3) // 2)
    load = np.prod([(c.think + c.demand * t) ** c.procs for c in w.classes], axis=0) * weight
    g = load.sum()
    rows = {}
    for c in w.classes:
        below = load / (c.think + c.demand * t)
        x = c.procs * below.sum() / g
        rows[c.user] = PerfRow(x, c.demand * (below * t).sum() / below.sum(), x * c.demand)
    return rows


@settings(max_examples=100, deadline=None)
@given(reference_workloads)
def test_solve_ts_equals_gauss_laguerre(w):
    assert_rows_within_bound(solve_ts(w).rows, gauss_laguerre_ts(w))


@pytest.mark.parametrize("procs", [10**5, 10**6])
@pytest.mark.parametrize("think, demand", [(1e9, 1.0), (0.5, 1.0)], ids=["light", "heavy"])
def test_one_large_class_equals_the_repairman(procs, think, demand):
    c = ClassLoad("a", procs, think, demand)
    assert_rows_within_bound(solve_ts(WorkloadSpec((c,))).rows, {"a": repairman_row(c)})


# Workloads whose rows are pinned in golden/mva_rows.txt, as (procs, think,
# demand) per class: 1e4 to 2e5 population vectors, one class of 3,000
# one-vector levels, and 1e6 vectors in the shape of the benchmark's top op.
PINNED_WORKLOADS = {
    "three-classes": ((21, 0.0, 1.0), (21, 2.5, 0.7), (21, 0.0, 1.3)),
    "four-classes": ((15, 1.7, 0.37), (12, 0.0, 1.9), (10, 4.0, 0.05), (9, 0.25, 2.2)),
    "five-classes": ((10, 0.0, 0.6), (9, 3.3, 1.1), (8, 0.0, 0.45), (7, 12.0, 2.0), (6, 0.8, 0.9)),
    "two-classes": ((499, 10.0, 0.3), (399, 0.0, 0.11)),
    "one-class": ((3000, 0.5, 0.02),),
    "million": ((99, 0.0, 0.31), (99, 1.9, 0.07), (99, 0.0, 0.55)),
}


def mva_row_lines() -> list[str]:
    """One ``workload user throughput response utilization`` line per row, floats as repr."""
    lines = []
    for name, classes in PINNED_WORKLOADS.items():
        w = WorkloadSpec(tuple(ClassLoad(f"u{i}", *c) for i, c in enumerate(classes)))
        for user, row in solve_ts(w).rows.items():
            fields = (row.throughput, row.response, row.utilization)
            lines.append(" ".join([name, user, *(repr(float(v)) for v in fields)]))
    return lines


def test_solve_ts_rows_match_pinned_values(golden_dir):
    expected = (golden_dir / "mva_rows.txt").read_text().splitlines()
    assert mva_row_lines() == expected


class TestSolveSrmPartition:
    def test_report4_fagg_row(self):
        e = compute_entitlements(standard_hierarchy())
        table = solve_srm_partition(standard_workload(), e)
        row = table.rows["fAgg"]
        assert row.throughput == pytest.approx(0.60, rel=REL)
        assert row.response == pytest.approx(1 / 0.6, rel=REL)
        assert row.utilization == pytest.approx(0.60, rel=REL)

    def test_report5_wagg_row(self):
        e = compute_entitlements(standard_hierarchy(ops_c=False))
        table = solve_srm_partition(standard_workload(ops_c=False), e)
        row = table.rows["wAgg"]
        assert row.response == pytest.approx(8.10, rel=REL)
        assert row.utilization == pytest.approx(10 / 81, rel=REL)

    def test_full_entitlement_means_raw_demand(self):
        e = equal_table("only")
        table = solve_srm_partition(WorkloadSpec((ClassLoad("only", 1, 0.0, 2.5),)), e)
        assert table.rows["only"].response == pytest.approx(2.5, rel=REL)

    def test_report3_opsc_row(self):
        e = compute_entitlements(standard_hierarchy(fin=False))
        table = solve_srm_partition(standard_workload(fin=False), e)
        assert e.entitlements["opsC"] == pytest.approx(0.475, abs=1e-12)
        assert table.rows["opsC"].response == pytest.approx(1 / 0.475, rel=REL)

    def test_zero_entitlement_names_user(self):
        e = equal_table("a", "b")
        w = WorkloadSpec((ClassLoad("ghost", 1, 0.0, 1.0),))
        with pytest.raises(ZeroEntitlementError, match="ghost"):
            solve_srm_partition(w, e)

    def test_utilization_capped_by_entitlement(self):
        e = equal_table("a", "b")
        w = WorkloadSpec((ClassLoad("a", 1, 2.0, 1.0), ClassLoad("b", 3, 0.0, 0.5)))
        table = solve_srm_partition(w, e)
        for user, row in table.rows.items():
            assert row.utilization <= e.entitlements[user] + 1e-9
        # CPU-bound users hit the cap exactly
        assert table.rows["b"].utilization == pytest.approx(0.5, rel=REL)


class TestSolveSrmConserving:
    def test_reduces_to_partition_when_cpu_bound(self):
        e = compute_entitlements(standard_hierarchy())
        w = standard_workload()
        conserving = solve_srm_conserving(w, e)
        partition = solve_srm_partition(w, e)
        for user in tuple(c.user for c in w.classes):
            assert conserving.rows[user] == partition.rows[user]

    def test_rows_do_not_depend_on_the_string_hash_seed(self, scenario_dir):
        # Sets of user names iterate in hash order; the solver must not add
        # floats in that order, or the same scenario prints different bytes.
        script = (
            "import sys\n"
            "from fairshare.mva import solve_srm_conserving, solve_srm_partition\n"
            "from fairshare.scenario import parse_scenario\n"
            "from fairshare.shares import compute_entitlements\n"
            "s = parse_scenario(open(sys.argv[1]).read())\n"
            "e = compute_entitlements(s.hierarchy)\n"
            "print(solve_srm_conserving(s.workload, e).rows)\n"
            "print(solve_srm_partition(s.workload, e).rows)\n"
        )
        src_dir = str(Path(fairshare.__file__).resolve().parents[1])
        outputs = []
        for seed in ("0", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src_dir)
            result = subprocess.run(
                [sys.executable, "-c", script, str(scenario_dir / "report4.fsp")],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            conserving, partition = result.stdout.splitlines()
            assert conserving == partition
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]

    def test_idle_capacity_flows_to_the_saturated_user(self):
        # Fixed point by hand: the thinker demands 1/(9+2) = 1/11 of the
        # CPU at its 0.5 entitlement, so the busy user ends up with 10/11.
        e = equal_table("thinker", "cruncher")
        w = WorkloadSpec(
            (ClassLoad("thinker", 1, 9.0, 1.0), ClassLoad("cruncher", 1, 0.0, 1.0))
        )
        table = solve_srm_conserving(w, e)
        assert table.rows["thinker"].utilization == pytest.approx(1 / 11, rel=REL)
        assert table.rows["thinker"].response == pytest.approx(2.0, rel=REL)
        assert table.rows["cruncher"].utilization == pytest.approx(10 / 11, rel=REL)
        assert table.rows["cruncher"].response == pytest.approx(1.1, rel=REL)

    def test_single_user_gets_the_whole_machine(self):
        e = equal_table("only")
        w = WorkloadSpec((ClassLoad("only", 1, 4.0, 1.0),))
        table = solve_srm_conserving(w, e)
        # speed 1.0: response is the raw demand
        assert table.rows["only"].response == pytest.approx(1.0, rel=REL)

    def test_redistribution_never_harms(self):
        e = compute_entitlements(standard_hierarchy())
        w = WorkloadSpec(
            (
                ClassLoad("fAgg", 1, 5.0, 1.0),
                ClassLoad("wAgg", 1, 0.0, 1.0),
                ClassLoad("opsA", 2, 1.0, 0.5),
                ClassLoad("opsB", 1, 0.0, 1.0),
                ClassLoad("opsC", 1, 0.5, 2.0),
            )
        )
        conserving = solve_srm_conserving(w, e)
        partition = solve_srm_partition(w, e)
        total = 0.0
        for user in tuple(c.user for c in w.classes):
            floor = min(partition.rows[user].utilization, e.entitlements[user])
            assert conserving.rows[user].utilization >= floor - 1e-9
            total += conserving.rows[user].utilization
        assert total <= 1.0 + 1e-9


def test_repairman_budget_counts_the_levels_of_every_pass(monkeypatch):
    # Partition runs each class's process levels once, conserving up to
    # 2 x users + 2 passes of them: 6 passes of 5 levels for two users.
    monkeypatch.setattr(mva, "POPULATION_GUARD", 30)
    e = equal_table("a", "b")
    solve_srm_conserving(WorkloadSpec((ClassLoad("a", 3, 1.0, 0.5), ClassLoad("b", 2, 0.0, 1.0))), e)
    w = WorkloadSpec((ClassLoad("a", 4, 1.0, 0.5), ClassLoad("b", 2, 0.0, 1.0)))
    solve_srm_partition(w, e)
    with pytest.raises(PopulationGuardError,
                       match=r"^36 process levels \(6 x 6 processes\) exceed 30, .*; use fewer procs$"):
        solve_srm_conserving(w, e)
    monkeypatch.setattr(mva, "POPULATION_GUARD", 5)
    with pytest.raises(PopulationGuardError,
                       match=r"^6 process levels \(1 x 6 processes\) exceed 5, .*; use fewer procs$"):
        solve_srm_partition(w, e)


class TestCompareTables:
    def test_identity(self):
        a = solve_ts(cpu_bound("a", "b"))
        b = solve_ts(cpu_bound("a", "b"))
        for user in a.rows:
            assert a.rows[user].response / b.rows[user].response == pytest.approx(1.0, rel=REL)

    def test_report2_opsc_against_ts(self):
        e = compute_entitlements(standard_hierarchy(fin=False, web=False))
        w = standard_workload(fin=False, web=False)
        srm = solve_srm_partition(w, e)
        ts = solve_ts(w)
        ratio = srm.rows["opsC"].response / ts.rows["opsC"].response
        assert ratio == pytest.approx((30 / 19) / 3.0, rel=REL)
        assert round(ratio, 2) == 0.53

    def test_report5_over_report4(self):
        e4 = compute_entitlements(standard_hierarchy())
        e5 = compute_entitlements(standard_hierarchy(ops_c=False))
        srm4 = solve_srm_partition(standard_workload(), e4)
        srm5 = solve_srm_partition(standard_workload(ops_c=False), e5)
        for user in ("fAgg", "wAgg"):
            ratio = srm5.rows[user].response / srm4.rows[user].response
            assert ratio == pytest.approx(0.81, abs=1e-12)


def test_equal_demand_ts_response_is_population_times_demand():
    for k in (2, 3, 4, 5):
        table = solve_ts(cpu_bound(*[f"u{i}" for i in range(k)], demand=1.0))
        for row in table.rows.values():
            assert row.response == pytest.approx(float(k), rel=REL)
            assert row.utilization == pytest.approx(1.0 / k, rel=REL)


def test_adding_a_user_never_raises_existing_throughput():
    base = WorkloadSpec(
        (ClassLoad("a", 2, 1.0, 1.0), ClassLoad("b", 1, 0.0, 0.7))
    )
    bigger = WorkloadSpec(base.classes + (ClassLoad("c", 1, 0.5, 1.3),))
    before = solve_ts(base)
    after = solve_ts(bigger)
    for user in tuple(c.user for c in base.classes):
        assert after.rows[user].throughput <= before.rows[user].throughput + 1e-12


workload_strategy = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=3),
        st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        st.floats(min_value=0.25, max_value=2.5),
    ),
    min_size=1,
    max_size=4,
).map(
    lambda rows: WorkloadSpec(
        tuple(ClassLoad(f"u{i}", n, z, round(d, 4)) for i, (n, z, d) in enumerate(rows))
    )
)


@settings(max_examples=60, deadline=None)
@given(workload_strategy)
def test_solver_outputs_satisfy_the_consistency_laws(w):
    e = equal_table(*tuple(c.user for c in w.classes))
    for table in (solve_ts(w), solve_srm_partition(w, e), solve_srm_conserving(w, e)):
        assert assert_operational_laws(table, w.classes, 1e-9) <= 1.0 + 1e-9


class TestModelValues:
    @pytest.mark.parametrize(
        "think, demand",
        [(math.nan, 1.0), (math.inf, 1.0), (-1.0, 1.0), (0.0, math.nan), (0.0, math.inf), (0.0, 0.0)],
    )
    def test_class_load_rejects_bad_numbers(self, think, demand):
        with pytest.raises(ValidationError, match="user a:"):
            ClassLoad("a", 1, think, demand)

    def test_class_load_needs_an_integer_process_count(self):
        with pytest.raises(ValidationError, match="procs"):
            ClassLoad("a", 1.5, 0.0, 1.0)

    def test_duplicate_workload_user(self):
        with pytest.raises(ValidationError, match="duplicate workload user 'a'"):
            WorkloadSpec((ClassLoad("a", 1, 0.0, 1.0), ClassLoad("a", 2, 0.0, 1.0)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_perf_row_rejects_non_finite_fields(self, bad):
        for fields in ((bad, 1.0, 1.0), (1.0, bad, 1.0), (1.0, 1.0, bad)):
            with pytest.raises(ValidationError, match="non-finite"):
                PerfRow(*fields)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_workload_is_rejected_not_answered(self):
        w = WorkloadSpec((ClassLoad("a", 2, 0.0, 1e308),))
        with pytest.raises(ValidationError, match="non-finite"):
            solve_ts(w)
        with pytest.raises(ValidationError, match="non-finite"):
            solve_srm_partition(w, equal_table("a", "b"))
        # Two classes, one with think time: R = D rho overflows in both rows.
        w = WorkloadSpec((ClassLoad("a", 3, 0.0, 1e308), ClassLoad("b", 2, 1.0, 1e308)))
        with pytest.raises(ValidationError, match="non-finite"):
            solve_ts(w)
