import dataclasses
import math
import re

import numpy as np
import pytest

from tsglab.actions import Model, VertexAction, build, plan
from tsglab.edges import (
    PAIR_TOL,
    ArcAssignmentError,
    _image_pair,
    _verify_disjoint_interiors,
    assign_arcs,
    check_arcs,
    check_h1,
    check_h3,
    check_h4,
    check_h5,
    full_report,
    required_pairs,
)
from tsglab import edges
from tsglab.geometry import (
    FixedCircle,
    ModelConfig,
    Realization,
    circles_intersection,
    realize,
    representation,
)
from tsglab.perm import GroupAction, standard_group
from tsglab.profiles import admissible_residues

from .conftest import REFERENCES

S4 = standard_group("S4")


# ------------------------------------------------------------ required pairs


def test_s4_4_pairs_are_the_tetrahedron_edges(realized):
    va, _ = realized[("S4", 4)]
    assert len(required_pairs(va)) == 6


def test_free_only_plans_have_no_pinned_pairs(realized):
    for key in (("S4", 24), ("A5", 60)):
        va, _ = realized[key]
        assert required_pairs(va) == []


def test_a5_80_pairs_are_same_edge_points(realized):
    va, _ = realized[("A5", 80)]
    pairs = required_pairs(va)
    assert len(pairs) == 10
    # both members of each pair carry the simplex-edge label
    for u, v in pairs:
        assert va.labels[u] == va.labels[v] == "simplex_edge"


def test_s4_8_pairs_join_twin_tetra_vertices(realized):
    va, _ = realized[("S4", 8)]
    assert len(required_pairs(va)) == 4


# ------------------------------------------------------------------- arcs


@pytest.mark.parametrize("key,count", [
    (("S4", 4), 6), (("S4", 8), 4), (("S4", 12), 6), (("S4", 20), 10),
    (("A5", 5), 10), (("A5", 20), 10), (("A5", 80), 10), (("A4", 17), 4),
])
def test_arc_counts(realized, key, count):
    _, r = realized[key]
    arcs = assign_arcs(r)
    assert len(arcs) == count


def test_arc_endpoints_are_pair_coordinates(realized):
    _, r = realized[("S4", 12)]
    for (u, v), arc in assign_arcs(r).items():
        ends = {0.0: r.coords[u], 1.0: r.coords[v]}
        for s, target in ends.items():
            assert np.linalg.norm(arc.point_at(s) - target) < 1e-8


def test_arc_interiors_vertex_free(realized):
    for key in (("S4", 20), ("A5", 80), ("A4", 17)):
        _, r = realized[key]
        for arc in assign_arcs(r).values():
            for v in range(r.m):
                if v in arc.pair:
                    continue
                assert not arc.interior_contains_point(r.coords[v], margin=1e-9)


def test_arc_assignment_is_equivariant_as_pair_map(realized):
    va, r = realized[("A5", 20)]
    arcs = assign_arcs(r)
    for img in va.action.images:
        for (u, v) in arcs:
            x, y = sorted((img[u], img[v]))
            assert (x, y) in arcs


# -------------------------------------------------------------- hypotheses


@pytest.mark.parametrize("key", REFERENCES)
def test_all_references_pass_everything(realized, key):
    _, r = realized[key]
    rep = full_report(r)
    assert rep.overall, (key, rep.details)


def test_h1_vacuous_for_unique_fixer(realized):
    _, r = realized[("S4", 4)]
    assert check_h1(r)


def test_h3_arc_fixed_by_edge_reversing_involution(realized):
    va, r = realized[("S4", 12)]
    arcs = assign_arcs(r)
    (u, v), arc = next(iter(arcs.items()))
    # some involution swaps u and v; it must map the arc onto itself
    swappers = [f for f, img in enumerate(va.action.images) if img[u] == v and img[v] == u]
    assert swappers
    for f in swappers:
        assert np.linalg.norm(r.mats[f] @ arc.midpoint - arc.midpoint) < 1e-8


def test_h4_on_natural_a5(realized):
    va, r = realized[("A5", 5)]
    assert check_h4(va)


def test_h5_transposition_circles_unshared(realized):
    _, r = realized[("S4", 12)]
    assert check_h5(r)


# ------------------------------------------------------- corrupted fixtures


def test_fixture_wrong_circle_vertex_fails(realized):
    va, r = realized[("S4", 12)]
    bad_coords = r.coords.copy()
    # drag one edge vertex onto a different transposition's circle
    other = next(i for i in S4.classes["n2p"]
                 if not r.circles[i].contains(bad_coords[0], 1e-6))
    bad_coords[0] = r.circles[other].point_at(0.37)
    bad = Realization(r.plan, va, r.model, r.config, r.mats, bad_coords)
    report = full_report(bad)
    assert not report.h2
    assert not report.overall
    assert "arc_error" in report.details


def test_fixture_midpoint_parameter_rejected():
    with pytest.raises(ValueError, match="midpoint"):
        ModelConfig(t=0.5)


def _interchanger_fixes_three_action() -> VertexAction:
    # natural S4 on 4 letters plus 3 global fixed points: any transposition
    # swaps a pair while fixing 2 + 3 = 5 > 2 vertices
    act = [p + [4, 5, 6] for p in S4.elements.tolist()]
    ga = GroupAction(S4, act)
    return VertexAction(ga, ("nat",) * 4 + ("pin",) * 3, ())


def test_fixture_interchanger_fixing_three_fails_h4():
    va = _interchanger_fixes_three_action()
    assert not check_h4(va)


def _pair_at_circle_intersection() -> tuple[VertexAction, Realization]:
    # two vertices at the poles: even elements fix both, odd ones swap them;
    # the pair is pinned by elements with different circles, breaking h1
    act = []
    for i in range(S4.order):
        first = [0, 1] if S4.even[i] else [1, 0]
        act.append(first + (2 + S4.cayley[i]).tolist())
    ga = GroupAction(S4, act)
    va = VertexAction(ga, ("pole",) * 2 + ("free",) * 24, ())
    mats = representation(S4, Model.TETRA_FULL)
    rng = np.random.default_rng(2)
    base = rng.standard_normal(4)
    base /= np.linalg.norm(base)
    coords = np.vstack([[0, 0, 0, 1.0], [0, 0, 0, -1.0]] + [mat @ base for mat in mats])
    return va, Realization(None, va, Model.TETRA_FULL, ModelConfig(), mats, coords)


def test_fixture_pair_at_intersection_fails_h1():
    va, r = _pair_at_circle_intersection()
    assert not check_h1(r)
    report = full_report(r)
    assert not report.overall


def _complement(arc):
    """The other arc of the same circle between the same two vertices."""
    return dataclasses.replace(arc, sweep=arc.sweep - math.copysign(2 * math.pi, arc.sweep))


@pytest.mark.parametrize("key", [("S4", 12), ("A5", 20)])
def test_fixture_complement_arc_fails_h3(realized, key):
    _, r = realized[key]
    arcs = assign_arcs(r)
    pair = next(iter(arcs))
    arcs[pair] = _complement(arcs[pair])
    assert not check_h3(r, arcs)


@pytest.mark.parametrize("key", [("S4", 12), ("A5", 20)])
def test_fixture_dropped_arc_fails_h3(realized, key):
    _, r = realized[key]
    arcs = assign_arcs(r)
    del arcs[next(iter(arcs))]
    assert not check_h3(r, arcs)


# ----------------------------------------------------------- arc checking


def test_check_arcs_rejects_vertex_inside(realized):
    """Move a vertex of S4 m=12 into the interior of an arc: check_arcs
    names it, and assign_arcs picks the other arc of that pair instead."""
    va, r = realized[("S4", 12)]
    arcs = assign_arcs(r)
    pair, arc = next(iter(arcs.items()))
    w = next(x for x in range(r.m) if x not in pair)
    coords = r.coords.copy()
    coords[w] = arc.midpoint
    moved = Realization(r.plan, va, r.model, r.config, r.mats, coords)
    message = f"arc of pair {pair} has vertex {w} inside"
    with pytest.raises(ArcAssignmentError, match=re.escape(message)):
        check_arcs(moved, arcs)
    assert assign_arcs(moved)[pair].sweep == pytest.approx(_complement(arc).sweep)


def _rotated(arc, alpha):
    """The same arc, described in its plane's basis turned by alpha."""
    b0, b1 = arc.circle.basis
    c, s = math.cos(alpha), math.sin(alpha)
    basis = np.array([c * b0 + s * b1, c * b1 - s * b0])
    return dataclasses.replace(arc, circle=FixedCircle(basis), start=arc.start - alpha)


def test_overlap_found_across_bases(realized):
    """Two arcs on one circle overlap whatever bases describe them."""
    _, r = realized[("S4", 12)]
    pair, arc = next(iter(assign_arcs(r).items()))
    twin = dataclasses.replace(_rotated(arc, math.pi), pair=(pair[0], pair[1] + 100))
    assert np.linalg.norm(twin.midpoint - arc.midpoint) < 1e-12
    with pytest.raises(ArcAssignmentError, match="overlap"):
        _verify_disjoint_interiors(r, {pair: arc, twin.pair: twin})


def test_full_report_skips_h3_when_arcs_fail(realized, monkeypatch):
    _, r = realized[("A5", 20)]
    arcs = assign_arcs(r)
    del arcs[next(iter(arcs))]

    def refuse(*args):
        raise AssertionError("check_h3 ran on arcs that failed h2")

    monkeypatch.setattr(edges, "check_h3", refuse)
    report = full_report(r, arcs)
    assert not report.h2 and not report.h3 and report.arcs is None
    assert "has no arc" in report.details["arc_error"]


# ------------------------------------------ h3 second clause is implied by h2


def _two_clause_h3(r, arcs) -> bool:
    """check_h3 with the clause it dropped: besides equivariance, an element
    fixing an interior point of an arc (their circles cross there, or it
    carries the arc's own circle) must map the arc onto itself."""
    va = r.vertex_action
    for f, (img, mat) in enumerate(zip(va.action.images, r.mats)):
        for pair, arc in arcs.items():
            target = arcs.get(_image_pair(img, pair))
            if target is None:
                return False
            moved_mid = mat @ arc.midpoint
            if not float(np.linalg.norm(moved_mid - target.midpoint)) <= PAIR_TOL:
                return False
            if f == 0:  # the identity
                continue
            fc = r.circles[f]
            if fc.empty:
                continue
            if fc.same_circle(arc.circle):
                fixes_interior = True
            else:
                crossings = circles_intersection(fc, arc.circle)
                fixes_interior = any(arc.interior_contains_point(p) for p in crossings)
            if fixes_interior and target is not arcs[pair]:
                return False
    return True


def _disjoint(r, arcs) -> bool:
    try:
        _verify_disjoint_interiors(r, arcs)
    except ArcAssignmentError:
        return False
    return True


@pytest.mark.parametrize("group", ["A4", "S4", "A5"])
def test_h3_equals_two_clause_h3(group):
    """On every admissible, non-knotted m < 100 (seed 0), and on every
    single complement-arc mutation that keeps the interiors disjoint, the
    equivariance clause alone gives the two-clause verdict."""
    cases = mutations = 0
    for m in range(4, 100):
        if m not in admissible_residues(group):
            continue
        p = plan(group, m)
        if p.knotted:
            continue
        r = realize(p, build(p), ModelConfig(seed=0))
        arcs = assign_arcs(r)
        assert check_h3(r, arcs) == _two_clause_h3(r, arcs), (group, m)
        cases += 1
        for pair in arcs:
            mutated = {**arcs, pair: _complement(arcs[pair])}
            if _disjoint(r, mutated):
                assert check_h3(r, mutated) == _two_clause_h3(r, mutated), (group, m, pair)
                mutations += 1
    assert cases and mutations


# ------------------------------------------------- h4 reduction soundness


def _embeds_in_proper_arc(n: int) -> bool:
    # direct check: n points on a line segment, each pair joined inside it;
    # the outermost pair's edge passes through every interior vertex
    if n <= 1:
        return True
    from itertools import combinations, permutations

    for order in permutations(range(n)):
        pos = {v: i for i, v in enumerate(order)}
        ok = True
        for u, v in combinations(range(n), 2):
            lo, hi = sorted((pos[u], pos[v]))
            if any(lo < pos[w] < hi for w in range(n) if w not in (u, v)):
                ok = False
                break
        if ok:
            return True
    return False


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_h4_cap_equals_direct_arc_embedder(n):
    assert _embeds_in_proper_arc(n) == (n <= 2)
