"""Exception types shared across the toolkit, and the one check of every work budget."""

import math
import sys


class FairshareError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(FairshareError):
    """An input value violates a domain invariant."""


class EmptyPoolError(ValidationError):
    """No user in the hierarchy is active, so no entitlement pool exists."""


class UnknownUserError(ValidationError):
    """A named user does not exist in the hierarchy."""


class ZeroEntitlementError(ValidationError):
    """A workload user has no entitlement under the given table."""


class PopulationGuardError(FairshareError):
    """A workload or run exceeds a solver's, the simulator's or the monitor's work budget."""


def check_budget(count, limit, counted: str, cost: str, advice: str) -> None:
    """Refuse a predicted ``count`` of ``counted`` over ``limit``, whose measured
    cost is ``cost``; ``advice`` says how to ask for less.  No count reads inf."""
    if count > limit:
        shown = (count if isinstance(count, int) else f"{count:g}" if count < math.inf
                 else f"more than {sys.float_info.max:.1e}")
        raise PopulationGuardError(f"{shown} {counted} exceed {limit}, the budget of {cost}; {advice}")


class ScenarioParseError(ValidationError):
    """Scenario or SLO text could not be parsed; carries line/column when known."""

    def __init__(self, message, line=None, column=None):
        location = ""
        if line is not None:
            location = f"line {line}: " if column is None else f"line {line}, col {column}: "
        super().__init__(location + message)
        self.line = line
        self.column = column


class InfeasiblePlanError(FairshareError):
    """Requested entitlements exceed the machine's capacity."""


class PsLogError(FairshareError):
    """A ps-style usage log was unreadable or yielded no samples."""
