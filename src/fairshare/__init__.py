"""Capacity planning toolkit for fair-share CPU scheduling."""

from .errors import (
    EmptyPoolError,
    FairshareError,
    InfeasiblePlanError,
    PopulationGuardError,
    PsLogError,
    ScenarioParseError,
    UnknownUserError,
    ValidationError,
    ZeroEntitlementError,
)
from .mva import (
    ClassLoad,
    PerfRow,
    PerfTable,
    WorkloadSpec,
    solve_srm_conserving,
    solve_srm_partition,
    solve_ts,
)
from .planning import (
    SLOTarget,
    SharePlan,
    UsageSample,
    allocate_topdown,
    goal_deviation,
    parse_ps_log,
)
from .report import CapacityReport, cross_compare, render_report, run_scenario
from .scenario import Scenario, parse_scenario, render_scenario
from .shares import (
    EntitlementTable,
    GroupAlloc,
    ShareHierarchy,
    TimelineEvent,
    UserAlloc,
    compute_entitlements,
    least_upper_bounds,
)
from .sim import (
    SimConfig,
    SimTrace,
    convergence_time,
    export_trace,
    run_sim,
    trace_perf,
)

__version__ = "0.1.0"
