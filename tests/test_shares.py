"""Entitlement arithmetic on share hierarchies."""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairshare import shares, sim
from fairshare.errors import EmptyPoolError, UnknownUserError, ValidationError
from fairshare.shares import (
    GroupAlloc,
    ShareHierarchy,
    TimelineEvent,
    UserAlloc,
    apply_events,
    compute_entitlements,
    least_upper_bounds,
)

from builders import standard_hierarchy


class TestComputeEntitlements:
    def test_two_users_one_and_two_shares(self):
        h = ShareHierarchy(3, (GroupAlloc("G", 3, (UserAlloc("u1", 1), UserAlloc("u2", 2))),))
        table = compute_entitlements(h)
        assert table.entitlements["u1"] == pytest.approx(1 / 3, abs=1e-12)
        assert table.entitlements["u2"] == pytest.approx(2 / 3, abs=1e-12)

    def test_report5_allocation(self):
        # FIN and WEB active, opsC offline: pool of 81 active shares.
        table = compute_entitlements(standard_hierarchy(ops_c=False))
        assert table.active_user_shares == 81
        assert table.entitlements["fAgg"] == pytest.approx(60 / 81, abs=1e-12)
        assert table.entitlements["wAgg"] == pytest.approx(10 / 81, abs=1e-12)
        assert table.entitlements["opsA"] == pytest.approx(6 / 81, abs=1e-12)
        assert table.entitlements["opsB"] == pytest.approx(5 / 81, abs=1e-12)
        assert table.entitlements["opsC"] == 0.0
        assert table.group_fractions["OPS"] == pytest.approx(11 / 81, abs=1e-12)

    def test_single_active_user_gets_everything(self):
        table = compute_entitlements(standard_hierarchy(web=False, ops_a=False, ops_b=False, ops_c=False))
        assert table.entitlements["fAgg"] == 1.0

    def test_half_the_shares_active_doubles_the_fraction(self):
        # A 10-share holder sees 20% when only 50 of 100 shares are active.
        h = ShareHierarchy(
            100,
            (
                GroupAlloc(
                    "G",
                    100,
                    (
                        UserAlloc("holder", 10, True),
                        UserAlloc("other", 40, True),
                        UserAlloc("sleeper", 50, False),
                    ),
                ),
            ),
        )
        table = compute_entitlements(h)
        assert table.entitlements["holder"] == pytest.approx(0.20, abs=1e-12)

    def test_no_active_users_is_a_distinct_error(self):
        h = standard_hierarchy(False, False, False, False, False)
        with pytest.raises(EmptyPoolError):
            compute_entitlements(h)

    def test_bad_shares_rejected(self):
        with pytest.raises(ValidationError):
            h = ShareHierarchy(1, (GroupAlloc("G", 1, (UserAlloc("u", 0),)),))
            compute_entitlements(h)

    def test_hierarchy_needs_a_group(self):
        with pytest.raises(ValidationError, match="^hierarchy has no groups$"):
            ShareHierarchy(100, ())

    def test_duplicate_group_name_rejected(self):
        with pytest.raises(ValidationError, match="^duplicate group name 'G'$"):
            ShareHierarchy(2, (GroupAlloc("G", 1, (UserAlloc("a", 1),)),
                               GroupAlloc("G", 1, (UserAlloc("b", 1),))))

    def test_user_in_two_groups_rejected(self):
        with pytest.raises(ValidationError, match="^duplicate user name 'a'$"):
            ShareHierarchy(2, (GroupAlloc("G", 1, (UserAlloc("a", 1),)),
                               GroupAlloc("H", 1, (UserAlloc("a", 1),))))

    def test_share_sum_mismatch_names_group_and_sums(self):
        with pytest.raises(ValidationError, match=r"OPS.*11.*30"):
            h = ShareHierarchy(
                100,
                (
                    GroupAlloc("FIN", 70, (UserAlloc("fAgg", 70),)),
                    GroupAlloc("OPS", 30, (UserAlloc("opsA", 6), UserAlloc("opsB", 5))),
                ),
            )
            compute_entitlements(h)

    def test_unknown_mode(self):
        with pytest.raises(ValidationError):
            compute_entitlements(standard_hierarchy(), "weighted")


class TestHierarchicalMode:
    def test_matches_flat_when_everyone_active(self):
        h = standard_hierarchy()
        flat = compute_entitlements(h, "flat-pool")
        hier = compute_entitlements(h, "hierarchical")
        for user in flat.entitlements:
            assert hier.entitlements[user] == pytest.approx(flat.entitlements[user], abs=1e-12)

    def test_partial_group_keeps_group_fraction(self):
        # opsC offline: OPS still owns 30% at the group level, split 6:5.
        table = compute_entitlements(standard_hierarchy(ops_c=False), "hierarchical")
        assert table.group_fractions["OPS"] == pytest.approx(0.30, abs=1e-12)
        assert table.entitlements["opsA"] == pytest.approx(0.30 * 6 / 11, abs=1e-12)
        assert table.entitlements["opsB"] == pytest.approx(0.30 * 5 / 11, abs=1e-12)

    def test_group_with_no_active_users_contributes_nothing(self):
        table = compute_entitlements(standard_hierarchy(fin=False), "hierarchical")
        assert table.group_fractions["FIN"] == 0.0
        assert table.group_fractions["WEB"] == pytest.approx(10 / 40, abs=1e-12)
        assert sum(table.entitlements.values()) == pytest.approx(1.0, abs=1e-12)


class TestLeastUpperBounds:
    def test_standard_allocation(self):
        table = least_upper_bounds(standard_hierarchy(fin=False, web=False, ops_c=False))
        expected = {"fAgg": 0.60, "wAgg": 0.10, "opsA": 0.06, "opsB": 0.05, "opsC": 0.19}
        for user, bound in expected.items():
            assert table.entitlements[user] == pytest.approx(bound, abs=1e-12)

    def test_single_user(self):
        h = ShareHierarchy(7, (GroupAlloc("G", 7, (UserAlloc("only", 7, False),)),))
        assert least_upper_bounds(h).entitlements["only"] == 1.0

    def test_equal_shares_split_evenly(self):
        k = 5
        h = ShareHierarchy(
            k, (GroupAlloc("G", k, tuple(UserAlloc(f"u{i}", 1) for i in range(k))),)
        )
        table = least_upper_bounds(h)
        for i in range(k):
            assert table.entitlements[f"u{i}"] == pytest.approx(1 / k, abs=1e-12)


class TestSetActive:
    """One user's flag set by ``apply_events`` with one event."""

    def test_deactivating_opsc_turns_report4_into_report5(self):
        h = apply_events(standard_hierarchy(), [TimelineEvent(0.0, "deactivate", "opsC")])
        assert compute_entitlements(h) == compute_entitlements(standard_hierarchy(ops_c=False))

    def test_idempotent_deactivation(self):
        h = standard_hierarchy(ops_c=False)
        assert apply_events(h, [TimelineEvent(0.0, "deactivate", "opsC")]) == h

    def test_original_is_untouched(self):
        h = standard_hierarchy()
        apply_events(h, [TimelineEvent(0.0, "deactivate", "opsC")])
        assert next(u for u in h.users() if u.name == "opsC").active

    def test_unknown_user(self):
        with pytest.raises(UnknownUserError, match="unknown user 'nobody'"):
            apply_events(standard_hierarchy(), [TimelineEvent(0.0, "activate", "nobody")])


# Random two-level hierarchies for the property checks.
def hierarchies():
    user_shares = st.integers(min_value=1, max_value=20)

    @st.composite
    def build(draw):
        n_groups = draw(st.integers(min_value=1, max_value=3))
        groups = []
        for g in range(n_groups):
            n_users = draw(st.integers(min_value=1, max_value=4))
            users = tuple(
                UserAlloc(f"g{g}u{i}", draw(user_shares), draw(st.booleans()))
                for i in range(n_users)
            )
            groups.append(GroupAlloc(f"g{g}", sum(u.shares for u in users), users))
        return ShareHierarchy(sum(g.shares for g in groups), tuple(groups))

    return build()


def some_active(h):
    return any(u.active for u in h.users())


@settings(max_examples=100, deadline=None)
@given(hierarchies(), st.sampled_from(["flat-pool", "hierarchical"]))
def test_active_entitlements_sum_to_one(h, mode):
    if not some_active(h):
        return
    table = compute_entitlements(h, mode)
    assert sum(table.entitlements.values()) == pytest.approx(1.0, abs=1e-12)
    for user in h.users():
        if not user.active:
            assert table.entitlements[user.name] == 0.0
    for group in h.groups:
        member_sum = sum(table.entitlements[u.name] for u in group.users if u.active)
        assert table.group_fractions[group.name] == pytest.approx(member_sum, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(hierarchies(), st.data())
def test_raising_shares_raises_own_entitlement(h, data):
    active = [u.name for u in h.users() if u.active]
    if not active:
        return
    target = data.draw(st.sampled_from(active))
    before = compute_entitlements(h)

    group = next(g for g in h.groups if any(u.name == target for u in g.users))
    bumped_users = tuple(
        UserAlloc(u.name, u.shares + (1 if u.name == target else 0), u.active)
        for u in group.users
    )
    bumped = ShareHierarchy(
        h.total_allocated_shares + 1,
        tuple(
            GroupAlloc(g.name, g.shares + (1 if g.name == group.name else 0),
                       bumped_users if g.name == group.name else g.users)
            for g in h.groups
        ),
    )
    after = compute_entitlements(bumped)
    if len(active) > 1:
        assert after.entitlements[target] > before.entitlements[target]
    else:
        assert after.entitlements[target] == before.entitlements[target] == 1.0
    for user in active:
        if user != target:
            assert after.entitlements[user] <= before.entitlements[user] + 1e-12


@settings(max_examples=100, deadline=None)
@given(hierarchies(), st.data())
def test_deactivation_redistributes_upward(h, data):
    active = [u.name for u in h.users() if u.active]
    if len(active) < 2:
        return
    leaver = data.draw(st.sampled_from(active))
    before = compute_entitlements(h)
    after = compute_entitlements(apply_events(h, [TimelineEvent(0.0, "deactivate", leaver)]))
    for user in active:
        if user != leaver:
            assert after.entitlements[user] >= before.entitlements[user] - 1e-12


@settings(max_examples=100, deadline=None)
@given(hierarchies())
def test_modes_agree_when_everyone_is_active(h):
    everyone = apply_events(h, [TimelineEvent(0.0, "activate", u) for u in h.user_names()])
    flat = compute_entitlements(everyone, "flat-pool")
    hier = compute_entitlements(everyone, "hierarchical")
    for user in everyone.user_names():
        assert hier.entitlements[user] == pytest.approx(flat.entitlements[user], abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(hierarchies())
def test_guaranteed_minimum_never_exceeds_actual(h):
    if not some_active(h):
        return
    bounds = least_upper_bounds(h)
    actual = compute_entitlements(h)
    for user in actual.active_users:
        assert bounds.entitlements[user] <= actual.entitlements[user] + 1e-12


def reference_apply_events(h, events):
    """Fold the events one at a time, rebuilding the hierarchy for each."""
    for event in events:
        if event.user not in h.user_names():
            raise UnknownUserError(f"unknown user {event.user!r}")
        h = ShareHierarchy(h.total_allocated_shares, tuple(
            GroupAlloc(g.name, g.shares, tuple(
                UserAlloc(u.name, u.shares, event.action == "activate") if u.name == event.user
                else u
                for u in g.users))
            for g in h.groups))
    return h


@st.composite
def hierarchies_and_events(draw):
    """A hierarchy and events naming its users, repeats included, and unknown names."""
    h = draw(hierarchies())
    names = st.sampled_from(h.user_names() + ("nobody", "g0"))
    events = draw(st.lists(
        st.builds(TimelineEvent, st.just(0.0), st.sampled_from(["activate", "deactivate"]), names),
        max_size=12))
    return h, events


@settings(max_examples=200, deadline=None)
@given(hierarchies_and_events())
def test_apply_events_matches_the_sequential_fold(case):
    h, events = case
    try:
        want = reference_apply_events(h, events)
    except UnknownUserError as err:
        with pytest.raises(UnknownUserError) as got:
            apply_events(h, events)
        assert str(got.value) == str(err)
    else:
        assert apply_events(h, events) == want


def test_apply_events_validates_the_hierarchy_once(monkeypatch):
    h = ShareHierarchy(200, tuple(
        GroupAlloc(f"G{g}", 20, tuple(UserAlloc(f"u{g}{i}", 2) for i in range(10)))
        for g in range(10)))
    events = [TimelineEvent(float(k), ("activate", "deactivate")[k % 2], f"u{k % 7}{k % 9}")
              for k in range(30)]
    want = reference_apply_events(h, events)
    validations = []
    check = ShareHierarchy._check
    monkeypatch.setattr(ShareHierarchy, "_check", lambda self: validations.append(check(self)))
    assert apply_events(h, events) == want
    assert len(validations) <= 1


def test_apply_events_refuses_events_out_of_time_order():
    events = [TimelineEvent(5.0, "deactivate", "opsC"), TimelineEvent(1.0, "activate", "opsC")]
    with pytest.raises(ValidationError, match="non-decreasing") as got:
        apply_events(standard_hierarchy(), events)
    assert got.value.event_index == 1


@pytest.mark.parametrize("module", ["shares", "scenario", "planning"])
def test_model_and_file_formats_import_nothing_from_the_simulator(module):
    path = Path(shares.__file__).parent / f"{module}.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not imported & {".sim", "fairshare.sim"}


def test_the_simulator_re_exports_the_activity_model():
    assert sim.TimelineEvent is TimelineEvent
    assert sim.validate_timeline is shares.validate_timeline
