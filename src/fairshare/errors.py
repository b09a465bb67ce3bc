"""Exception types shared across the toolkit, the one check of every work budget,
and the mixin by which a record validates itself."""

import math
import sys


class FairshareError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(FairshareError):
    """An input value violates a domain invariant."""


class Validated:
    """Mixin that makes a ``NamedTuple`` record check itself when built.

    A validated record is a ``NamedTuple`` of its fields and a subclass that
    lists this mixin first, sets ``__slots__ = ()`` and defines ``_check``,
    which raises ``ValidationError``.  The constructor runs the check once
    namedtuple's own ``__new__`` has built the record, and so does ``_make``,
    through which namedtuple's ``_replace`` builds; so every value of the
    type that exists is valid.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        self._check()

    @classmethod
    def _make(cls, iterable):
        self = super()._make(iterable)
        self._check()
        return self


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
