"""Share allocation hierarchies and the CPU entitlements derived from them.

A hierarchy awards integer shares to groups and to the users inside them.
An entitlement is a user's guaranteed minimum fraction of the CPU: its
shares divided by the shares currently active (competing).  Deactivating
users shrinks the pool and raises everyone else's entitlement.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import EmptyPoolError, UnknownUserError, ValidationError

FLAT_POOL = "flat-pool"
HIERARCHICAL = "hierarchical"
ENTITLEMENT_MODES = (FLAT_POOL, HIERARCHICAL)


@dataclass(frozen=True)
class UserAlloc:
    name: str
    shares: int
    active: bool = True


@dataclass(frozen=True)
class GroupAlloc:
    name: str
    shares: int
    users: tuple[UserAlloc, ...]


@dataclass(frozen=True)
class ShareHierarchy:
    """Immutable allocation universe: groups of users holding integer shares.

    Invariants (checked on construction): user shares within a group sum
    to the group's shares, group shares sum to ``total_allocated_shares``,
    all shares are positive integers, and user names are globally unique.
    """

    total_allocated_shares: int
    groups: tuple[GroupAlloc, ...]

    def __post_init__(self):
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
            if not isinstance(group.shares, int) or group.shares <= 0:
                raise ValidationError(f"group {group.name}: shares must be a positive integer")
            user_sum = 0
            for user in group.users:
                if user.name in seen_users:
                    raise ValidationError(f"duplicate user name {user.name!r}")
                seen_users.add(user.name)
                if not isinstance(user.shares, int) or user.shares <= 0:
                    raise ValidationError(f"user {user.name}: shares must be a positive integer")
                user_sum += user.shares
            if user_sum != group.shares:
                raise ValidationError(
                    f"group {group.name}: user shares sum to {user_sum}, group allocation is {group.shares}"
                )
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

    def find_user(self, name: str) -> UserAlloc:
        for user in self.users():
            if user.name == name:
                return user
        raise UnknownUserError(f"unknown user {name!r}")

    def group_of(self, name: str) -> GroupAlloc:
        for group in self.groups:
            if any(u.name == name for u in group.users):
                return group
        raise UnknownUserError(f"unknown user {name!r}")


@dataclass(frozen=True)
class EntitlementTable:
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

    def of(self, user: str) -> float:
        if user not in self.entitlements:
            raise UnknownUserError(f"unknown user {user!r}")
        return self.entitlements[user]


def compute_entitlements(h: ShareHierarchy, mode: str = FLAT_POOL) -> EntitlementTable:
    """Derive the entitlement table for the hierarchy's current activity.

    ``flat-pool`` divides a user's shares by all active user shares on the
    machine.  ``hierarchical`` first splits the CPU between groups that have
    at least one active user (by group shares), then splits each group's
    fraction between its active users (by user shares).
    """
    if mode not in ENTITLEMENT_MODES:
        raise ValidationError(f"unknown entitlement mode {mode!r}; expected one of {ENTITLEMENT_MODES}")
    active = [u for u in h.users() if u.active]
    if not active:
        raise EmptyPoolError("empty pool: no active users in hierarchy")

    active_pool = sum(u.shares for u in active)
    entitlements: dict[str, float] = {}
    group_fractions: dict[str, float] = {}

    if mode == FLAT_POOL:
        for group in h.groups:
            group_active = sum(u.shares for u in group.users if u.active)
            group_fractions[group.name] = group_active / active_pool
            for user in group.users:
                entitlements[user.name] = user.shares / active_pool if user.active else 0.0
    else:
        live_groups = [g for g in h.groups if any(u.active for u in g.users)]
        group_pool = sum(g.shares for g in live_groups)
        for group in h.groups:
            group_active = sum(u.shares for u in group.users if u.active)
            if group_active == 0:
                group_fractions[group.name] = 0.0
                for user in group.users:
                    entitlements[user.name] = 0.0
                continue
            fraction = group.shares / group_pool
            group_fractions[group.name] = fraction
            for user in group.users:
                entitlements[user.name] = (
                    fraction * user.shares / group_active if user.active else 0.0
                )

    return EntitlementTable(
        mode=mode,
        active_user_shares=active_pool,
        entitlements=entitlements,
        group_fractions=group_fractions,
        active_users=frozenset(u.name for u in active),
    )


def least_upper_bounds(h: ShareHierarchy) -> EntitlementTable:
    """Guaranteed-minimum entitlements: the table with every user active.

    Equals each user's shares over the total allocation; actual entitlements
    can only meet or exceed these bounds as other users go offline.
    """
    everyone = replace(
        h,
        groups=tuple(
            replace(g, users=tuple(replace(u, active=True) for u in g.users)) for g in h.groups
        ),
    )
    return compute_entitlements(everyone, FLAT_POOL)


def set_active(h: ShareHierarchy, user: str, active: bool) -> ShareHierarchy:
    """Return a copy of the hierarchy with one user's active flag changed."""
    h.find_user(user)
    return replace(
        h,
        groups=tuple(
            replace(
                g,
                users=tuple(
                    replace(u, active=active) if u.name == user else u for u in g.users
                ),
            )
            for g in h.groups
        ),
    )


def apply_events(h: ShareHierarchy, events) -> ShareHierarchy:
    """Fold a sequence of (de)activation events into a new hierarchy."""
    for event in events:
        h = set_active(h, event.user, event.action == "activate")
    return h
