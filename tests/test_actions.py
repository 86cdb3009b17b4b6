import itertools

import numpy as np
import pytest

from tsglab.actions import (
    Model,
    OrbitPlan,
    PLAN_HEADERS,
    PartSpec,
    RESTRICT_EVEN_S4,
    RESTRICT_STAB_A5,
    build,
    has_free_edge,
    measured_profile,
    plan,
)
from tsglab.perm import burnside_orbit_count, is_faithful, standard_group
from tsglab.profiles import NotAdmissibleError, necessity_check

from .conftest import (action_table, expected_orbit_count, orbit_partition, pair_stabilizers,
                       passes_profile_rules, plan_orbits, stacked_table)

GROUPS = ("A4", "S4", "A5")


def admissible_ms(group, lo, hi):
    from tsglab.profiles import admissible_residues

    cs = admissible_residues(group)
    return [m for m in range(lo, hi) if m in cs]


# ------------------------------------------------------------------ plans


def test_plan_s4_52_two_free_orbits_plus_corners():
    p = plan("S4", 52)
    assert [(s.kind, s.count) for s in p.parts] == [("free", 2), ("tetra_corners", 1)]
    assert p.model is Model.TETRA_FULL


def test_plan_a5_80_free_plus_simplex_edges():
    p = plan("A5", 80)
    assert [(s.kind, s.count) for s in p.parts] == [("free", 1), ("simplex_edge", 1)]
    assert p.model is Model.SIMPLEX4


def test_plan_a4_16_uses_odd_free_orbits_of_size_12():
    p = plan("A4", 16)
    assert p.restriction is None and p.model is Model.TETRA_ROT
    assert [(s.kind, s.count) for s in p.parts] == [("free", 1), ("tetra_corners", 1)]
    assert p.part_size(p.parts[0]) == 12


def test_plan_a4_40_also_tetra_model():
    p = plan("A4", 40)  # 40 = 24 + 16, still 16 mod 24
    assert p.restriction is None
    assert [(s.kind, s.count) for s in p.parts] == [("free", 3), ("tetra_corners", 1)]


def test_plan_a4_knotted_specials():
    p4, p5 = plan("A4", 4), plan("A4", 5)
    assert p4.knotted and [s.kind for s in p4.parts] == ["knotted_k4"]
    assert p5.knotted and [s.kind for s in p5.parts] == ["knotted_k5"]


def test_plan_a4_restrictions():
    assert plan("A4", 24).restriction == RESTRICT_EVEN_S4
    assert plan("A4", 12).restriction == RESTRICT_EVEN_S4
    assert plan("A4", 61).restriction == RESTRICT_STAB_A5
    assert plan("A4", 65).restriction == RESTRICT_STAB_A5
    assert plan("A4", 13).restriction is None
    assert plan("A4", 17).restriction is None


def test_plan_s4_4_has_no_free_orbits():
    p = plan("S4", 4)
    assert [(s.kind, s.count) for s in p.parts] == [("tetra_corners", 1)]


def test_plan_rejects_inadmissible():
    with pytest.raises(NotAdmissibleError):
        plan("S4", 16)
    with pytest.raises(NotAdmissibleError):
        plan("A4", 7)


def test_plan_headers_are_the_plan_triples():
    # every admissible m up to 400 (no plan exists below m = 4)
    plans = [plan(g, m) for g in GROUPS for m in admissible_ms(g, 4, 401)]
    assert len(set(PLAN_HEADERS)) == len(PLAN_HEADERS) == 7
    assert set(PLAN_HEADERS) == {(p.group, p.restriction, p.model.value) for p in plans}


def test_plan_sizes_validated():
    with pytest.raises(ValueError):
        OrbitPlan("S4", 10, (PartSpec("tetra_corners"),), Model.TETRA_FULL)


# ------------------------------------------------------------------ builds


def test_parts_start_at_the_cumulative_sums_of_their_sizes():
    """A4 m=30000 builds 1250 free orbits of its parent S4, one label each,
    each orbit starting where the ones before it end."""
    va = build(plan("A4", 30000))
    reps, index = va.parent.orbits.reps, va.parent.orbits.index
    sizes = np.bincount(index).tolist()
    assert va.labels == tuple(f"free{j}" for j in range(1250))
    assert sizes == [24] * 1250
    assert reps.tolist() == list(itertools.accumulate(sizes[:-1], initial=0))
    assert np.array_equal(index, np.arange(30000) // 24)


def test_labels_are_the_plan_parts_one_per_orbit():
    """On every admissible plan below m=400, the knotted A4 m=4 and m=5
    included, build's labels are plan.parts expanded one label per orbit
    (conftest.plan_orbits), and the orbit minima of the action it lays
    down (the parent, for a restriction) are the cumulative part sizes."""
    checked = 0
    for group in GROUPS:
        for m in admissible_ms(group, 4, 400):
            p = plan(group, m)
            va = build(p)
            labels, sizes = zip(*plan_orbits(p))
            assert va.labels == labels, (group, m)
            reps = (va.parent or va.action).orbits.reps
            assert reps.tolist() == list(itertools.accumulate(sizes[:-1], initial=0)), (group, m)
            checked += 1
    assert checked >= 270


STACKED_CASES = {
    "below-400": lambda: [(g, m) for g in GROUPS for m in admissible_ms(g, 4, 400)],
    "large-orbits": lambda: [("A4", 1205), ("A4", 1213), ("S4", 1204), ("A5", 1205)],
}


@pytest.mark.parametrize("cases", STACKED_CASES)
def test_build_equals_the_stacked_block_tables(cases):
    """The table build's generator rows give along the tree
    (action_table) equals the direct sum of the blocks' whole coset,
    natural and one-point tables: on every admissible plan below m=400,
    the knotted A4 m=4 and m=5 included, and on the large-orbits plans and
    A4 m=1205.  A restricted plan's parent is that sum, and its action the
    sum's rows at the subgroup's elements."""
    checked = 0
    for group, m in STACKED_CASES[cases]():
        p = plan(group, m)
        va, ref = build(p), stacked_table(p)
        built = va.action if va.parent is None else va.parent
        g = standard_group(p.building_group)
        assert built.group is g and np.array_equal(action_table(built), ref), (group, m)
        if va.parent is not None:
            rows = g.rows(va.action.group.elements)
            assert np.array_equal(action_table(va.action), ref[rows]), (group, m)
        checked += 1
    assert checked >= {"below-400": 270, "large-orbits": 4}[cases]


def test_build_s4_4_profile_and_burnside():
    va = build(plan("S4", 4))
    assert measured_profile(va).key() == (0, 2, 1, 0)
    # burnside consistency: (4 + 6*2 + 8*1) / 24 = 1
    assert burnside_orbit_count(va.action) == 1


def test_build_a5_5_profile():
    assert measured_profile(build(plan("A5", 5))).key() == (1, 2, 0)


def test_build_a4_13_profile():
    va = build(plan("A4", 13))
    assert measured_profile(va).key() == (1, 1)


def test_build_s4_8_profile():
    assert measured_profile(build(plan("S4", 8))).key() == (0, 0, 2, 0)


def test_build_a5_61_profile():
    assert measured_profile(build(plan("A5", 61))).key() == (1, 1, 1)


def test_regular_only_plans_fix_nothing():
    for group, m in (("S4", 24), ("A5", 60)):
        p = measured_profile(build(plan(group, m)))
        assert all(v == 0 for v in p.named_counts().values())


def test_restricted_action_group_is_a4():
    va = build(plan("A4", 24))
    assert va.action.group.name == "A4"
    assert va.parent is not None and va.parent.group.name == "S4"
    assert is_faithful(va.action)


def test_restriction_splits_orbits():
    p = plan("A4", 24)  # one free S4 orbit -> two A4 orbits
    assert burnside_orbit_count(build(p).action) == 2 == expected_orbit_count(p)
    p = plan("A4", 8)  # twin tetra splits into the two tetrahedra
    assert burnside_orbit_count(build(p).action) == 2 == expected_orbit_count(p)
    p = plan("A4", 65)  # 5 free + corners orbit + fixed letter
    assert burnside_orbit_count(build(p).action) == 7 == expected_orbit_count(p)


def test_knotted_builds_record_actions():
    va4 = build(plan("A4", 4))
    assert measured_profile(va4).key() == (0, 1)
    assert burnside_orbit_count(va4.action) == 1
    p5 = plan("A4", 5)
    va5 = build(p5)
    assert measured_profile(va5).key() == (1, 2)
    assert burnside_orbit_count(va5.action) == 2 == expected_orbit_count(p5)


# --------------------------------------------------------------- free edges


def test_free_orbit_gives_free_edge():
    va = build(plan("S4", 24))
    assert has_free_edge(va.action)
    u, v = 0, 1  # two vertices of one regular orbit
    assert pair_stabilizers(va.action, [(u, v)]).nonzero()[1].tolist() == [0]  # the identity's row


def test_twin_tetra_alone_has_free_edge_across_axes():
    va = build(plan("S4", 8))
    assert has_free_edge(va.action)


def test_all_restriction_cases_have_free_edges():
    for m in [8, 12, 20, 24, 28, 32, 36, 44, 48, 61, 65]:
        p = plan("A4", m)
        if p.restriction is None:
            continue
        va = build(p)
        assert has_free_edge(va.action), m
        assert has_free_edge(va.parent), m


def test_simplex_corners_alone_have_no_free_edge():
    # every pair of 4-simplex corners is pinned by a 3-cycle, so the
    # re-embedding route from the A5 action on K_5 is unavailable
    va = build(plan("A5", 5))
    assert not has_free_edge(va.action)


def test_corners_only_s4_has_no_free_edge():
    va = build(plan("S4", 4))
    assert not has_free_edge(va.action)


# ----------------------------------------------------- acceptance-style grid


@pytest.mark.parametrize("group", GROUPS)
def test_grid_profiles_match_witnesses(group):
    for m in admissible_ms(group, 4, 130):
        p = plan(group, m)
        va = build(p)
        assert is_faithful(va.action)
        prof = measured_profile(va)
        verdict = necessity_check(group, m)
        assert prof.key() in {w.key() for w in verdict.witnesses}, (group, m)
        assert burnside_orbit_count(va.action) == expected_orbit_count(p) == len(orbit_partition(va.action))


def test_restricted_profiles_pass_a4_rules():
    for m in (8, 12, 20, 24, 61, 65):
        p = plan("A4", m)
        assert p.restriction is not None
        prof = measured_profile(build(p))
        assert prof.group == "A4"
        assert passes_profile_rules("A4", prof)
