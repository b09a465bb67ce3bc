"""Share allocation hierarchies and the CPU entitlements derived from them.

A hierarchy awards integer shares to groups and to the users inside them.
An entitlement is a user's guaranteed minimum fraction of the CPU: its
shares divided by the shares currently active (competing).  Deactivating
users shrinks the pool and raises everyone else's entitlement.  Timeline
events switch users on and off; ``apply_events`` folds them into a hierarchy.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import EmptyPoolError, UnknownUserError, ValidationError, validated

FLAT_POOL = "flat-pool"
HIERARCHICAL = "hierarchical"
ENTITLEMENT_MODES = (FLAT_POOL, HIERARCHICAL)


@validated
class UserAlloc(NamedTuple):
    name: str
    shares: int
    active: bool = True

    def _check(self):
        if not isinstance(self.shares, int) or self.shares <= 0:
            raise ValidationError(f"user {self.name}: shares must be a positive integer")


@validated
class GroupAlloc(NamedTuple):
    name: str
    shares: int
    users: tuple[UserAlloc, ...]

    def _check(self):
        if not isinstance(self.shares, int) or self.shares <= 0:
            raise ValidationError(f"group {self.name}: shares must be a positive integer")
        user_sum = sum(u.shares for u in self.users)
        if user_sum != self.shares:
            raise ValidationError(
                f"group {self.name}: user shares sum to {user_sum}, group allocation is {self.shares}"
            )


@validated
class ShareHierarchy(NamedTuple):
    """Immutable allocation universe: groups of users holding integer shares.

    Invariants (checked on construction): ``total_allocated_shares`` is a
    positive integer that the group shares sum to, and group and user
    names are unique.  Each group and user checks its own shares.
    """

    total_allocated_shares: int
    groups: tuple[GroupAlloc, ...]

    def _check(self):
        if not isinstance(self.total_allocated_shares, int) or self.total_allocated_shares <= 0:
            raise ValidationError(
                f"total allocated shares must be a positive integer, got {self.total_allocated_shares!r}"
            )
        if not self.groups:
            raise ValidationError("hierarchy has no groups")
        seen_groups: set[str] = set()
        seen_users: set[str] = set()
        for group in self.groups:
            if group.name in seen_groups:
                raise ValidationError(f"duplicate group name {group.name!r}")
            seen_groups.add(group.name)
            for user in group.users:
                if user.name in seen_users:
                    raise ValidationError(f"duplicate user name {user.name!r}")
                seen_users.add(user.name)
        group_sum = sum(g.shares for g in self.groups)
        if group_sum != self.total_allocated_shares:
            raise ValidationError(
                f"group shares sum to {group_sum}, total allocation is {self.total_allocated_shares}"
            )

    def users(self):
        """All users in definition order."""
        for group in self.groups:
            yield from group.users

    def user_names(self) -> tuple[str, ...]:
        return tuple(u.name for u in self.users())


class EntitlementTable(NamedTuple):
    """Per-user CPU entitlements for one activity pattern.

    ``entitlements`` maps every user to its global CPU fraction (exactly 0.0
    for inactive users); ``group_fractions`` maps each group to the fraction
    owned by its active members.  Active entitlements sum to 1.
    """

    mode: str
    active_user_shares: int
    entitlements: dict[str, float]
    group_fractions: dict[str, float]
    active_users: frozenset[str]


def compute_entitlements(h: ShareHierarchy, mode: str = FLAT_POOL) -> EntitlementTable:
    """Derive the entitlement table for the hierarchy's current activity.

    ``flat-pool`` divides a user's shares by all active user shares on the
    machine.  ``hierarchical`` first splits the CPU between groups that have
    at least one active user (by group shares), then splits each group's
    fraction between its active users (by user shares).
    """
    if mode not in ENTITLEMENT_MODES:
        raise ValidationError(f"unknown entitlement mode {mode!r}; expected one of {ENTITLEMENT_MODES}")
    # Each group's active shares, summed once.
    group_active = [sum(u.shares for u in g.users if u.active) for g in h.groups]
    active_pool = sum(group_active)
    if not active_pool:
        raise EmptyPoolError("empty pool: no active users in hierarchy")

    entitlements: dict[str, float] = {}
    group_fractions: dict[str, float] = {}

    if mode == FLAT_POOL:
        for group, live in zip(h.groups, group_active):
            group_fractions[group.name] = live / active_pool
            for user in group.users:
                entitlements[user.name] = user.shares / active_pool if user.active else 0.0
    else:
        group_pool = sum(g.shares for g, live in zip(h.groups, group_active) if live)
        for group, live in zip(h.groups, group_active):
            fraction = group.shares / group_pool if live else 0.0
            group_fractions[group.name] = fraction
            for user in group.users:
                entitlements[user.name] = fraction * user.shares / live if user.active else 0.0

    return EntitlementTable(
        mode=mode,
        active_user_shares=active_pool,
        entitlements=entitlements,
        group_fractions=group_fractions,
        active_users=frozenset(u.name for u in h.users() if u.active),
    )


def least_upper_bounds(h: ShareHierarchy) -> EntitlementTable:
    """Guaranteed-minimum entitlements: the table with every user active.

    Equals each user's shares over the total allocation; actual entitlements
    can only meet or exceed these bounds as other users go offline.
    """
    return compute_entitlements(_with_active(h, dict.fromkeys(h.user_names(), True)), FLAT_POOL)


@validated
class TimelineEvent(NamedTuple):
    time: float
    action: str
    user: str

    def _check(self):
        if self.action not in ("activate", "deactivate"):
            raise ValidationError(f"unknown timeline action {self.action!r}")
        if not (math.isfinite(self.time) and self.time >= 0):
            raise ValidationError(f"event time must be finite and >= 0, got {self.time!r}")


def validate_timeline(events, h: ShareHierarchy) -> None:
    """Check what no single event can: times in order, users in the hierarchy.

    Errors come in event order, and within an event the time first; an
    error's ``event_index`` is the index of the event at fault.  Costs
    O(users + events).
    """
    names = set(h.user_names())
    last = 0.0
    for i, ev in enumerate(events):
        if ev.time < last:
            error = ValidationError("timeline event times must be non-decreasing")
        elif ev.user not in names:
            error = UnknownUserError(f"unknown user {ev.user!r}")
        else:
            last = ev.time
            continue
        error.event_index = i
        raise error


def apply_events(h: ShareHierarchy, events) -> ShareHierarchy:
    """Fold a sequence of (de)activation events into a new hierarchy.

    The events are checked by ``validate_timeline`` first.  The last event
    for a user sets its flag.  Costs O(users + events): the check and one
    pass over the events, then one rebuild and one validation of the
    hierarchy, whatever the number of events.
    """
    validate_timeline(events, h)
    flags = {event.user: event.action == "activate" for event in events}
    return _with_active(h, flags) if flags else h


def _with_active(h: ShareHierarchy, flags: dict[str, bool]) -> ShareHierarchy:
    """The hierarchy with each user in ``flags`` given its flag.

    Every name in ``flags`` must be a user.  Only the groups holding a
    named user are rebuilt.
    """
    return h._replace(groups=tuple(
        g._replace(users=tuple(
            u._replace(active=flags[u.name]) if u.name in flags else u for u in g.users))
        if any(u.name in flags for u in g.users) else g
        for g in h.groups
    ))
