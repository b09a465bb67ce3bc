"""Exception types shared across the toolkit, the one check of every work budget,
and the decorator by which a record validates itself."""

import sys


class FairshareError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(FairshareError):
    """An input value violates a domain invariant."""


def validated(record):
    """Class decorator that makes a ``NamedTuple`` record check itself when built.

    The record defines ``_check``, which raises ``ValidationError``.  The
    constructor runs it once namedtuple's own ``__new__`` has built the
    record, and so does ``_make``, through which namedtuple's ``_replace``
    builds; so every value of the type that exists is valid.  ``NamedTuple``
    refuses ``__init__`` and ``_make`` in a class body, not set afterwards.
    """
    make = record._make.__func__

    def __init__(self, *args, **kwargs):
        self._check()

    def _make(cls, iterable):
        self = make(cls, iterable)
        self._check()
        return self

    record.__init__ = __init__
    record._make = classmethod(_make)
    return record


class EmptyPoolError(ValidationError):
    """No user in the hierarchy is active, so no entitlement pool exists."""


class UnknownUserError(ValidationError):
    """A named user does not exist in the hierarchy."""


class ZeroEntitlementError(ValidationError):
    """A workload user has no entitlement under the given table."""


class PopulationGuardError(FairshareError):
    """A workload or run exceeds a solver's, the simulator's or the monitor's work budget."""


def count_text(count) -> str:
    """A count as an error message shows it: below 10**15 an int in full and a
    float with ``g``, above that three digits, past the float range as "more
    than 1.8e+308" (never inf, and ``format`` refuses an int that large)."""
    if count < 10**15:
        return str(count) if isinstance(count, int) else f"{count:g}"
    return f"{count:.3g}" if count <= sys.float_info.max else f"more than {sys.float_info.max:.1e}"


def check_budget(count, limit, counted: str, cost: str, advice: str) -> None:
    """Refuse a predicted ``count`` of ``counted`` over ``limit``, whose measured
    cost is ``cost``; ``advice`` says how to ask for less."""
    if count > limit:
        raise PopulationGuardError(
            f"{count_text(count)} {counted} exceed {limit}, the budget of {cost}; {advice}")


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
