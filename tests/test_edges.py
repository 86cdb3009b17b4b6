import collections
import math
import re
from typing import NamedTuple

import numpy as np
import pytest

from tsglab.actions import Model, VertexAction, build, plan
from tsglab.edges import (
    ANGLE_EPS,
    CAP_SLACK,
    INSIDE_MARGIN,
    PAIR_TOL,
    ArcAssignmentError,
    Arcs,
    _verify_disjoint_interiors,
    assign_arcs,
    check_arcs,
    check_h1,
    check_h3,
    check_h4,
    check_h5,
    full_report,
    interchangers,
    required_pairs,
)
from tsglab import edges, geometry
from tsglab.certificate import first_failure, read_certificate, verify_certificate, write_certificate
from tsglab.geometry import (
    CIRCLE_EQ_TOL,
    ERROR_TOL,
    SHARED_LINE_TOL,
    ModelConfig,
    PrecisionError,
    Realization,
    plane_distance,
    projectors,
    realize,
    representation,
    same_circle,
    shared_lines,
)
from tsglab.perm import GroupAction, standard_group
from tsglab.profiles import admissible_residues

from .conftest import REFERENCES, action_table, all_vertex_inside, pair_stabilizers, svd_circles, svd_planes

S4 = standard_group("S4")


def _fixers(r: Realization):
    """The non-trivial fixer mask of the pinned pairs, read off the images:
    the reference for the mask full_report reads off the fixed-point table."""
    fixers = pair_stabilizers(r.vertex_action.action, required_pairs(r.vertex_action))
    fixers[:, 0] = False
    return fixers


def _arcs(r: Realization) -> Arcs:
    """The arcs full_report picks, for a realization that passes h1."""
    return assign_arcs(r, required_pairs(r.vertex_action), _fixers(r))


class _Arc(NamedTuple):
    """One row of an Arcs, for the per-arc reference loops and for editing
    an arc system one arc at a time."""

    pair: tuple[int, int]
    fixer: int
    basis: np.ndarray
    start: float
    sweep: float

    @property
    def projector(self) -> np.ndarray:
        return projectors(self.basis)

    def point_at(self, s: float) -> np.ndarray:
        angle = self.start + s * self.sweep
        return math.cos(angle) * self.basis[0] + math.sin(angle) * self.basis[1]

    @property
    def midpoint(self) -> np.ndarray:
        return self.point_at(0.5)


def _rows(arcs: Arcs) -> list[_Arc]:
    return [_Arc(tuple(pair), fixer, basis, start, sweep) for pair, fixer, basis, start, sweep
            in zip(arcs.pairs.tolist(), arcs.fixers.tolist(), arcs.bases,
                   arcs.starts.tolist(), arcs.sweeps.tolist())]


def _system(rows: list[_Arc]) -> Arcs:
    """The Arcs with these rows, in this order."""
    return Arcs(np.array([a.pair for a in rows], dtype=int).reshape(-1, 2),
                np.array([a.fixer for a in rows], dtype=int),
                np.array([a.basis for a in rows], dtype=float).reshape(-1, 2, 4),
                np.array([a.start for a in rows], dtype=float),
                np.array([a.sweep for a in rows], dtype=float))


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
    arcs = _arcs(r)
    assert len(arcs) == count


def test_arc_endpoints_are_pair_coordinates(realized):
    _, r = realized[("S4", 12)]
    arcs = _arcs(r)
    for (u, v), points in zip(arcs.pairs, arcs.points([0.0, 1.0])):
        ends = {0: r.coords[u], 1: r.coords[v]}
        for s, target in ends.items():
            assert np.linalg.norm(points[s] - target) < 1e-8


def test_arc_interiors_vertex_free(realized):
    for key in (("S4", 20), ("A5", 80), ("A4", 17)):
        _, r = realized[key]
        for arc in _rows(_arcs(r)):
            for v in range(r.m):
                if v in arc.pair:
                    continue
                assert not _old_holds_point(arc, r.coords[v], margin=1e-9)


def test_arc_assignment_is_equivariant_as_pair_map(realized):
    va, r = realized[("A5", 20)]
    arcs = set(map(tuple, _arcs(r).pairs.tolist()))
    for img in action_table(va.action):
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
    assert check_h1(r, _fixers(r))


@pytest.mark.parametrize("group,m,name", [("S4", 28, "n4"), ("A5", 5, "n5")])
def test_h1_fails_when_the_first_fixer_fixes_no_circle(realized, group, m, name):
    """A pair whose only non-trivial fixer fixes nothing (an order-4
    element of TETRA_FULL, an order-5 one of SIMPLEX4) has no circle to
    share.  That element's averaged plane is near zero, not exactly zero,
    so h1 reads its trace, within PLANE_ERROR of 0, not its entries."""
    _, r = realized[(group, m)]
    assert r.model is {"n4": Model.TETRA_FULL, "n5": Model.SIMPLEX4}[name]
    row = r.group.classes[name][0]
    fixers = np.zeros((1, r.group.order), dtype=bool)
    fixers[0, row] = True
    assert 0 < np.abs(r.planes[row]).max() <= geometry.PLANE_ERROR
    assert not check_h1(r, fixers)


def test_h3_arc_fixed_by_edge_reversing_involution(realized):
    va, r = realized[("S4", 12)]
    arc = _rows(_arcs(r))[0]
    u, v = arc.pair
    # some involution swaps u and v; it must map the arc onto itself
    swappers = [f for f, img in enumerate(action_table(va.action)) if img[u] == v and img[v] == u]
    assert swappers
    for f in swappers:
        assert np.linalg.norm(r.mats[f] @ arc.midpoint - arc.midpoint) < 1e-8


def test_h4_on_natural_a5(realized):
    va, r = realized[("A5", 5)]
    assert check_h4(va, interchangers(va))


def test_h5_transposition_circles_unshared(realized):
    _, r = realized[("S4", 12)]
    assert check_h5(r, interchangers(r.vertex_action))


# ------------------------------------------------------- corrupted fixtures


def test_fixture_wrong_circle_vertex_fails(realized):
    va, r = realized[("S4", 12)]
    base = r.base.copy()
    # drag the edge orbit's representative onto a different transposition's circle
    circles = svd_circles(r.mats)
    other = next(i for i in S4.classes["n2p"]
                 if plane_distance(projectors(circles[i]), base[0]) > 1e-6)
    b0, b1 = circles[other]
    base[0] = math.cos(0.37) * b0 + math.sin(0.37) * b1
    bad = Realization(va, r.model, r.config, r.mats, base)
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
    act = [p + [4, 5, 6] for p in S4.elements[list(S4.generators)].tolist()]
    ga = GroupAction(S4, act)
    return VertexAction(ga, ("nat",) * 4 + ("pin",) * 3, ())


def test_fixture_interchanger_fixing_three_fails_h4():
    va = _interchanger_fixes_three_action()
    assert not check_h4(va, interchangers(va))


def _pair_at_circle_intersection() -> tuple[VertexAction, Realization]:
    # two vertices at the poles: even elements fix both, odd ones swap them;
    # the pair is pinned by elements with different circles, breaking h1
    act = []
    for i in S4.generators:
        first = [0, 1] if S4.even[i] else [1, 0]
        act.append(first + (2 + S4.cayley[i]).tolist())
    ga = GroupAction(S4, act)
    va = VertexAction(ga, ("pole",) * 2 + ("free",) * 24, ())
    mats = representation(S4, Model.TETRA_FULL)
    rng = np.random.default_rng(2)
    base = np.zeros((26, 4))
    base[0, 3] = 1.0  # a pole; the odd elements carry it to the other, vertex 1
    base[2] = rng.standard_normal(4)  # the free orbit's representative
    base[2] /= np.linalg.norm(base[2])
    return va, Realization(va, Model.TETRA_FULL, ModelConfig(), mats, base)


def test_fixture_pair_at_intersection_fails_h1():
    va, r = _pair_at_circle_intersection()
    assert not check_h1(r, _fixers(r))
    report = full_report(r)
    assert not report.overall


def _complement(arc: _Arc) -> _Arc:
    """The other arc of the same circle between the same two vertices."""
    return arc._replace(sweep=arc.sweep - math.copysign(2 * math.pi, arc.sweep))


@pytest.mark.parametrize("key", [("S4", 12), ("A5", 20)])
def test_fixture_complement_arc_fails_h3(realized, key):
    _, r = realized[key]
    arcs = _rows(_arcs(r))
    arcs[0] = _complement(arcs[0])
    assert not check_h3(r, _system(arcs))


@pytest.mark.parametrize("key", [("S4", 12), ("A5", 20)])
def test_fixture_dropped_arc_fails_h3(realized, key):
    _, r = realized[key]
    assert not check_h3(r, _arcs(r).take(slice(1, None)))


# ----------------------------------------------------------- arc checking


def _moved_into(r: Realization, arc: _Arc, avoid) -> tuple[Realization, int]:
    """r with the first orbit representative that lies in none of the
    pairs `avoid` moved to the midpoint of `arc`, its orbit along with it,
    and that representative."""
    w = next(x for x in r.vertex_action.action.orbits.reps.tolist()
             if all(x not in pair for pair in avoid))
    base = r.base.copy()
    base[w] = arc.midpoint
    return Realization(r.vertex_action, r.model, r.config, r.mats, base), w


def test_check_arcs_rejects_vertex_inside(realized):
    """Move the representative of the other orbit of S4 m=20 (two special
    parts) into the interior of an arc, its orbit along with it: check_arcs
    names it, and assign_arcs picks the other arc of that pair instead."""
    va, r = realized[("S4", 20)]
    arcs = _arcs(r)
    arc = _rows(arcs)[0]
    pair = arc.pair
    moved, w = _moved_into(r, arc, [pair])
    message = f"arc of pair {pair} has vertex {w} inside"
    with pytest.raises(ArcAssignmentError, match=re.escape(message)):
        check_arcs(moved, arcs, required_pairs(va))
    assert _rows(_arcs(moved))[0].sweep == pytest.approx(_complement(arc).sweep)


def _rotated(arc: _Arc, alpha: float) -> _Arc:
    """The same arc, described in its plane's basis turned by alpha."""
    b0, b1 = arc.basis
    c, s = math.cos(alpha), math.sin(alpha)
    basis = np.array([c * b0 + s * b1, c * b1 - s * b0])
    return arc._replace(basis=basis, start=arc.start - alpha)


def test_overlap_found_across_bases(realized):
    """Two arcs on one circle overlap whatever bases describe them."""
    _, r = realized[("S4", 12)]
    arc = _rows(_arcs(r))[0]
    twin = _rotated(arc, math.pi)._replace(pair=(arc.pair[0], arc.pair[1] + 100))
    assert np.linalg.norm(twin.midpoint - arc.midpoint) < 1e-12
    with pytest.raises(ArcAssignmentError, match="overlap"):
        _verify_disjoint_interiors(_system([arc, twin]))


def test_full_report_skips_h3_when_arcs_fail(realized, monkeypatch):
    _, r = realized[("A5", 20)]
    arcs = _arcs(r).take(slice(1, None))

    def refuse(*args):
        raise AssertionError("check_h3 ran on arcs that failed h2")

    monkeypatch.setattr(edges, "check_h3", refuse)
    report = full_report(r, arcs)
    assert not report.h2 and not report.h3 and report.arcs is None
    assert "has no arc" in report.details["arc_error"]


def test_full_report_computes_pinned_pairs_once(realized, monkeypatch):
    calls = []

    def counted(va):
        calls.append(va)
        return required_pairs(va)

    monkeypatch.setattr(edges, "required_pairs", counted)
    _, r = realized[("S4", 12)]
    assert full_report(r).overall
    assert len(calls) == 1


@pytest.mark.parametrize("key", REFERENCES + [("A4", 24), ("A4", 61), ("A4", 65)])
def test_full_report_pair_fixers_equal_the_image_reference(realized, monkeypatch, key):
    """The mask full_report hands check_h1 and assign_arcs, read off the
    fixed-point table, is the image-based pair stabilizer mask without the
    identity's column."""
    seen = []

    def record(r, fixers):
        seen.append(fixers)
        return check_h1(r, fixers)

    monkeypatch.setattr(edges, "check_h1", record)
    r = realized[key][1] if key in realized else realize(plan(*key))
    assert full_report(r).overall
    assert np.array_equal(seen[0], _fixers(r))


def test_full_report_computes_interchangers_once(realized, monkeypatch):
    calls = []

    def counted(va):
        calls.append(va)
        return interchangers(va)

    monkeypatch.setattr(edges, "interchangers", counted)
    _, r = realized[("S4", 12)]
    assert full_report(r).overall
    assert len(calls) == 1


def test_planes_and_landmarks_are_read_only_and_computed_once(realized, monkeypatch, tmp_path):
    """Realization.planes and Arcs.landmarks are cached and read-only.  One
    full_report on a fresh realization, and one whole verify, average the
    fixed planes of the whole matrix stack once."""
    _, r = realized[("S4", 20)]
    fresh = Realization(r.vertex_action, r.model, r.config, r.mats, r.base)
    calls, original = [], geometry.fixed_planes

    def counted(group, mats):
        calls.append(mats)
        return original(group, mats)

    monkeypatch.setattr(geometry, "fixed_planes", counted)
    report = full_report(fresh)
    assert report.overall
    assert len(calls) == 1 and calls[0] is fresh.mats
    arcs = report.arcs
    for value, again in ((fresh.planes, fresh.planes), (arcs.landmarks, arcs.landmarks)):
        assert value is again and not value.flags.writeable
        with pytest.raises(ValueError):
            value[0, 0, 0] = 1.0
    assert np.array_equal(fresh.planes, original(r.group, r.mats))
    assert np.array_equal(arcs.landmarks, arcs.points([0.0, 1.0, 0.5]))

    path = str(tmp_path / "s4_20.json")
    write_certificate(path, r, report)
    calls.clear()
    assert first_failure(verify_certificate(read_certificate(path))) is None
    assert [mats.shape for mats in calls] == [r.mats.shape]


# ------------------------------------ batched disjointness vs pairwise loop


def _old_angle(basis, p):
    return math.atan2(float(basis[1] @ p), float(basis[0] @ p))


def _old_holds_angle(arc, phi, margin=ANGLE_EPS):
    rel = (phi - arc.start) % (2 * math.pi)
    if arc.sweep < 0:
        rel = (2 * math.pi - rel) % (2 * math.pi)
    return margin < rel < abs(arc.sweep) - margin


def _old_holds_point(arc, p, margin=ANGLE_EPS):
    return bool(plane_distance(arc.projector, p) <= PAIR_TOL) \
        and _old_holds_angle(arc, _old_angle(arc.basis, p), margin)


def _old_crossings(p1, p2):
    _, s, vt = np.linalg.svd(np.vstack([np.eye(4) - p1, np.eye(4) - p2]))
    line = vt[s < SHARED_LINE_TOL]
    if line.shape[0] == 0:
        return np.empty((0, 4))
    if line.shape[0] > 1:
        raise PrecisionError("distinct circles sharing a 2-plane")
    v = line[0] / np.linalg.norm(line[0])
    return np.vstack([v, -v])


def _pairwise_disjoint(arcs):
    """The pairwise loop that the batched test replaced, with one SVD per
    pair of arcs on distinct circles, kept as its oracle."""
    items = _rows(arcs)
    for i, a in enumerate(items):
        for b in items[i + 1:]:
            if same_circle(a.projector, b.projector):
                for s in (0.0, 1.0, 0.5):
                    if _old_holds_angle(a, _old_angle(a.basis, b.point_at(s))) or \
                       _old_holds_angle(b, _old_angle(b.basis, a.point_at(s))):
                        raise ArcAssignmentError(
                            f"arcs of {a.pair} and {b.pair} overlap on their circle")
            else:
                for p in _old_crossings(a.projector, b.projector):
                    if _old_holds_point(a, p) and _old_holds_point(b, p):
                        raise ArcAssignmentError(
                            f"arcs of {a.pair} and {b.pair} cross at a circle intersection")


def _outcome(check, arcs):
    try:
        check(arcs)
    except (ArcAssignmentError, PrecisionError) as err:
        return type(err).__name__, str(err)
    return None


def _arc_orbits(va, pairs):
    orbits, seen = [], set()
    for u, v in pairs:
        if (u, v) not in seen:
            orbit = {tuple(sorted(img[[u, v]].tolist())) for img in action_table(va.action)}
            orbits.append(sorted(orbit))
            seen |= orbit
    return orbits


@pytest.mark.parametrize("group", ["A4", "S4", "A5"])
def test_batched_disjointness_matches_pairwise_loop(group):
    """On every admissible, non-knotted m < 200 (seed 0), on every single
    complement-arc mutation, on every whole-orbit complement and with a
    twin added over each arc, the batched test raises what the pairwise
    loop raises, type and message, or passes where it passes.  A whole orbit of complements keeps the
    system equivariant and is rejected for crossing."""
    seen = collections.Counter()
    for m in range(4, 200):
        if m not in admissible_residues(group):
            continue
        p = plan(group, m)
        if p.knotted:
            continue
        r = realize(p, build(p), ModelConfig(seed=0))
        arcs = _rows(_arcs(r))
        singles = [arcs[:k] + [_complement(arc)] + arcs[k + 1:] for k, arc in enumerate(arcs)]
        orbits = [[_complement(arc) if arc.pair in orbit else arc for arc in arcs]
                  for orbit in _arc_orbits(r.vertex_action, [arc.pair for arc in arcs])]
        # an arc's twin, described in its basis turned half a turn, overlaps it
        twins = [arcs + [_rotated(arc, math.pi)._replace(pair=(arc.pair[0], arc.pair[1] + r.m))]
                 for arc in arcs]
        kinds = (("valid", [arcs]), ("single", singles), ("orbit", orbits), ("twin", twins))
        for kind, systems in kinds:
            for system in map(_system, systems):
                expected = _outcome(_pairwise_disjoint, system)
                assert _outcome(_verify_disjoint_interiors, system) == expected, (m, kind)
                verdict = next((w for w in ("overlap", "cross", "sharing") if w in expected[1]),
                               expected[1]) if expected else "disjoint"
                seen[kind, verdict] += 1
                if kind == "orbit":
                    assert check_h3(r, system) and verdict == "cross", (m, expected)
    assert seen["valid", "disjoint"] and seen["orbit", "cross"] and seen["twin", "overlap"], seen


def test_distinct_circles_sharing_a_plane_raise_precision_error():
    """Two circles whose projectors differ by more than CIRCLE_EQ_TOL but
    whose planes share two directions to SHARED_LINE_TOL: neither test
    guesses a crossing."""
    eps = 5e-8
    a = _Arc((0, 1), 1, np.eye(4)[:2], 0.0, 1.0)
    b = _Arc((2, 3), 1, np.array([[1.0, 0, 0, 0], [0, math.cos(eps), math.sin(eps), 0]]), 2.0, 1.0)
    assert not same_circle(a.projector, b.projector)
    for check in (_verify_disjoint_interiors, _pairwise_disjoint):
        with pytest.raises(PrecisionError, match="sharing a 2-plane"):
            check(_system([a, b]))


# ---------------------------------------- caps filter of the disjointness test


@pytest.mark.parametrize("group, m, kept", [("S4", 8, 0), ("S4", 12, 0), ("A5", 20, 0),
                                            ("A5", 80, 0), ("S4", 20, 12), ("A5", 5, 30)])
def test_only_pairs_whose_caps_meet_reach_the_exact_tests(realized, monkeypatch, group, m, kept):
    """At seed 0 no two arcs come near each other on S4 m=8, S4 m=12, A5
    m=20 and A5 m=80, so no pair reaches the same-circle test and no SVD
    runs; 12 of the 45 pairs do on S4 m=20 and 30 of 45 on A5 m=5."""
    arcs = _arcs(realized[(group, m)][1])
    pairs, svds = [], []
    same, lines = edges.same_circle, edges.shared_lines
    monkeypatch.setattr(edges, "same_circle", lambda p, q: pairs.append(len(p)) or same(p, q))
    monkeypatch.setattr(edges, "shared_lines", lambda p, q: svds.append(len(p)) or lines(p, q))
    _verify_disjoint_interiors(arcs)
    assert not kept or len(arcs) == 10  # 45 pairs of arcs
    assert pairs == ([kept] if kept else []) and (kept or not svds)


def _stretched(arc: _Arc, factor: float) -> _Arc:
    """The arc in its basis scaled by factor, still orthonormal to ERROR_TOL
    for |factor - 1| below ERROR_TOL / 2."""
    return arc._replace(basis=factor * arc.basis)


def _plane_through_e0(off: float, tilt: float) -> np.ndarray:
    """Basis of a plane whose first row is e0 turned by off toward e3 and
    whose second row is e1 turned by tilt toward e2."""
    return np.array([[math.cos(off), 0, 0, math.sin(off)], [0, math.cos(tilt), math.sin(tilt), 0]])


def _cap_edge_systems():
    """Pairs of arcs where the caps filter decides by a hair, by name."""
    plane = np.eye(4)[:2]
    a = _Arc((0, 1), 1, plane, 0.0, 1.0)
    # two arcs of one circle whose ends lie within CAP_SLACK, the second in
    # another basis of the plane or of a plane tilted within CIRCLE_EQ_TOL
    for gap in (-3 * ANGLE_EPS, -ANGLE_EPS / 2, 0.0, CAP_SLACK / 2, 2 * CAP_SLACK):
        for tilt in (0.0, 0.9 * CIRCLE_EQ_TOL):
            b = _rotated(_Arc((2, 3), 1, _plane_through_e0(0.0, tilt), 1.0 + gap, 1.0), 0.3)
            yield f"ends {gap:.1e} apart, tilt {tilt:.0e}", [a, b]
    # caps that cover the sphere: antipodal midpoints of overlapping arcs,
    # whose bases stretched by ERROR_TOL / 4 put them more than 2 apart
    wide = 1 + ERROR_TOL / 4
    yield "caps cover the sphere", [_stretched(_Arc((0, 1), 1, plane, 0.0, 1.5 * math.pi), wide),
                                   _stretched(_Arc((2, 3), 1, plane, 1.25 * math.pi, math.pi), wide)]
    # a crossing PAIR_TOL off both circles, just inside or outside an end
    # of each arc; the second circle turns 1e-3 off the first's direction
    for off in (0.9 * PAIR_TOL, 1.1 * PAIR_TOL):
        for inside in (3 * ANGLE_EPS, -3 * ANGLE_EPS):
            yield f"crossing {off:.1e} off, {inside:.0e} inside", [
                _Arc((0, 1), 1, plane, -1.0, 1.0 + inside),
                _Arc((2, 3), 1, _plane_through_e0(2 * off, 1e-3), -inside, 1.0)]
    # sweeps of 1e-6 in bases shrunk by 0.45 ERROR_TOL: their midpoints'
    # dot product reads about 1 - 1e-12, whose arccos is over 1e-6
    for start in (0.5e-6, 1e-6 + 3 * ANGLE_EPS):
        yield f"sweeps of 1e-6, second from {start:.1e}", [
            _stretched(_Arc((0, 1), 1, plane, 0.0, 1e-6), 1 - 0.45 * ERROR_TOL),
            _stretched(_Arc((2, 3), 1, plane, start, 1e-6), 1 - 0.45 * ERROR_TOL)]
    # distinct planes on either side of sharing two directions, arcs apart
    for turn in (0.5, 0.99, 1.01, 2.0):
        yield f"planes {turn}·√2·SHARED_LINE_TOL apart", [
            a, _Arc((2, 3), 1, _plane_through_e0(0.0, turn * math.sqrt(2) * SHARED_LINE_TOL), 2.5, 1.0)]


def test_caps_filter_keeps_every_outcome_at_its_edge():
    """Where the caps filter decides by a hair, the batched test raises
    what the pairwise loop raises, or passes where it passes: ends of two
    arcs of one circle within CAP_SLACK, caps that cover the sphere, a
    crossing PAIR_TOL off both circles next to the arcs' ends, sweeps of
    1e-6, and distinct planes next to sharing two directions."""
    seen = collections.Counter()
    for name, rows in _cap_edge_systems():
        system = _system(rows)
        expected = _outcome(_pairwise_disjoint, system)
        assert _outcome(_verify_disjoint_interiors, system) == expected, name
        seen[next(w for w in ("overlap", "cross", "sharing") if w in expected[1])
             if expected else "disjoint"] += 1
    assert set(seen) == {"disjoint", "overlap", "cross", "sharing"}, seen


# --------------------------------------- batched check_arcs vs per-arc loop


def _joins(arc: _Arc, p: np.ndarray, q: np.ndarray) -> bool:
    """The arc runs from p to q or from q to p, within ERROR_TOL."""
    ends = np.array([arc.point_at(0.0), arc.point_at(1.0)])
    gaps = [np.linalg.norm(ends - np.array(pts), axis=1).max() for pts in ((p, q), (q, p))]
    return bool(np.minimum(*gaps) <= ERROR_TOL)


def _arc_fault(r: Realization, arc: _Arc):
    """Why `arc` is no arc of its fixer's circle between the two vertices of
    its pair, or None."""
    u, v = pair = arc.pair
    action = r.vertex_action.action
    if not 0 < arc.fixer < action.group.order \
            or tuple(action_table(action)[arc.fixer, [u, v]]) != (u, v):
        return f"fixer of pair {pair} is not a non-trivial group element fixing both vertices"
    gram = float(np.abs(arc.basis @ arc.basis.T - np.eye(2)).max())
    circle = svd_planes(r.mats)[arc.fixer]
    if not gram <= ERROR_TOL or not same_circle(arc.projector, circle):
        return f"arc of pair {pair} is not on the fixed circle of its fixer"
    if not (math.isfinite(arc.start) and 0 < abs(arc.sweep) < 2 * math.pi) \
            or not _joins(arc, r.coords[u], r.coords[v]):
        return f"arc of pair {pair} does not run between its two vertices"
    return None


def _per_arc_check_arcs(r: Realization, arcs: Arcs, pairs) -> None:
    """check_arcs as the loop over arcs that the masks replaced, with one
    vertex at a time for the vertex test, kept as its oracle."""
    rows = _rows(arcs)
    required, given = set(pairs), {arc.pair for arc in rows}
    extra, missing = sorted(given - required), sorted(required - given)
    if extra:
        raise ArcAssignmentError(f"arc over pair {extra[0]}, which is not a pinned pair")
    if missing:
        raise ArcAssignmentError(f"pinned pair {missing[0]} has no arc")
    fault, circles = None, svd_planes(r.mats)
    for arc in rows:
        fault = _arc_fault(r, arc)
        if fault:
            break
        circle = circles[arc.fixer]
        for w, p in enumerate(r.coords):
            if w not in arc.pair and plane_distance(circle, p) <= PAIR_TOL \
                    and _old_holds_angle(arc, _old_angle(arc.basis, p), INSIDE_MARGIN):
                raise ArcAssignmentError(f"arc of pair {arc.pair} has vertex {w} inside")
    if fault:
        raise ArcAssignmentError(fault)
    _pairwise_disjoint(arcs)


_ARC_EDITS = {
    "identity fixer": lambda arc: arc._replace(fixer=0),
    "nan start": lambda arc: arc._replace(start=float("nan")),
    "inf start": lambda arc: arc._replace(start=float("inf")),
    "nan basis": lambda arc: arc._replace(basis=np.full((2, 4), np.nan)),
    "complement": _complement,
    "basis x1.5": lambda arc: arc._replace(basis=1.5 * arc.basis),
    "sweep x1.5": lambda arc: arc._replace(sweep=1.5 * arc.sweep),
    "reversed": lambda arc: arc._replace(start=arc.start + arc.sweep, sweep=-arc.sweep),
    "swapped pair": lambda arc: arc._replace(pair=arc.pair[::-1]),
    # two faults in one arc: the first in the order fixer, circle, ends names it
    "identity fixer, basis x1.5": lambda arc: arc._replace(fixer=0, basis=1.5 * arc.basis),
    "basis x1.5, nan start": lambda arc: arc._replace(basis=1.5 * arc.basis, start=float("nan")),
}


@pytest.mark.parametrize("group,m,seed", [
    ("S4", 20, 0), ("A5", 5, 0), ("A5", 80, 0), ("A4", 17, 0), ("A4", 61, 0), ("S4", 28, 1),
])
def test_check_arcs_matches_per_arc_loop(group, m, seed):
    """Every edit above, at the first, a middle and the last arc and at the
    first and last together, and every pair of distinct edits at the first
    and last arc: the batched check raises what the per-arc loop raises,
    type and message, or passes where it passes.  A4 m=61 pins no pair, so
    only its empty system is checked."""
    p = plan(group, m)
    r = realize(p, build(p), ModelConfig(seed=seed))
    pairs = required_pairs(r.vertex_action)
    arcs = _rows(_arcs(r))
    last = len(arcs) - 1
    systems = [arcs]
    for edit in _ARC_EDITS.values() if arcs else ():
        for rows in ((0,), (last // 2,), (last,), (0, last)):
            systems.append([edit(arc) if k in rows else arc for k, arc in enumerate(arcs)])
        for second in _ARC_EDITS.values():
            if second is not edit:
                systems.append([edit(arcs[0])] + arcs[1:last] + [second(arcs[last])])
    seen = collections.Counter()
    for system in map(_system, systems):
        expected = _outcome(lambda a: _per_arc_check_arcs(r, a, pairs), system)
        assert _outcome(lambda a: check_arcs(r, a, pairs), system) == expected, expected
        seen[next((w for w in ("fixer of", "not on", "does not run", "inside", "pinned",
                               "overlap", "cross") if expected and w in expected[1]), None)] += 1
    assert seen[None], seen
    if arcs:
        assert seen["fixer of"] and seen["not on"] and seen["does not run"] and seen["pinned"], seen


@pytest.mark.parametrize("vertex_first", [True, False])
def test_check_arcs_reports_a_vertex_inside_only_before_the_first_fault(vertex_first):
    """A vertex inside an arc before the first faulty arc is reported; one
    inside an arc after it is not, the fault is."""
    p = plan("S4", 28)
    r = realize(p, build(p), ModelConfig(seed=1))
    arcs = _rows(_arcs(r))
    inside, faulty = (0, len(arcs) - 1) if vertex_first else (len(arcs) - 1, 0)
    moved, w = _moved_into(r, arcs[inside], [arc.pair for arc in arcs])
    arcs[faulty] = arcs[faulty]._replace(start=float("nan"))
    if vertex_first:
        message = f"arc of pair {arcs[inside].pair} has vertex {w} inside"
    else:
        message = f"arc of pair {arcs[faulty].pair} does not run between its two vertices"
    with pytest.raises(ArcAssignmentError, match=re.escape(message)):
        check_arcs(moved, _system(arcs), required_pairs(r.vertex_action))


def _inside_calls(monkeypatch, run) -> list[tuple[Realization, Arcs]]:
    """Every (realization, arc system) that run() hands _vertices_inside."""
    calls, inside = [], edges._vertices_inside

    def record(r, arcs):
        calls.append((r, arcs))
        return inside(r, arcs)

    with monkeypatch.context() as patch:
        patch.setattr(edges, "_vertices_inside", record)
        try:
            run()
        except ArcAssignmentError:
            pass
    return calls


def _pinned_realizations():
    """Every admissible plan with 4 <= m < 400 that pins a pair, then S4
    m=1204 and A5 m=1205, realized at seed 0."""
    for group in ("A4", "S4", "A5"):
        cs = admissible_residues(group)
        plans = (plan(group, m) for m in range(4, 400) if m in cs)
        yield from (realize(p) for p in plans if not p.knotted and required_pairs(build(p)))
    for group, m in (("S4", 1204), ("A5", 1205)):
        yield realize(plan(group, m))


def _moved_realizations():
    """The off-contract realizations of the two vertex-inside tests above,
    each with the arcs assign_arcs picked before the move."""
    r = realize(plan("S4", 20))
    arc = _rows(_arcs(r))[0]
    yield _moved_into(r, arc, [arc.pair])[0], _arcs(r)
    r = realize(plan("S4", 28), config=ModelConfig(seed=1))
    arcs = _rows(_arcs(r))
    for inside in (0, -1):
        yield _moved_into(r, arcs[inside], [arc.pair for arc in arcs])[0], _arcs(r)


@pytest.mark.parametrize("kind", ["plans", "moved"])
def test_vertices_inside_equals_the_all_vertex_reference(kind, monkeypatch):
    """On assign_arcs' two candidate arcs per pair and on the arcs
    check_arcs judges, the vertices inside each arc are those the
    reference finds by measuring all m vertices against every row's
    circle: on every admissible plan with pinned pairs below m = 400 and
    on the large-orbits S4 and A5 cases, and on the moved realizations,
    whose vertex inside an arc puts them outside the realize contract."""
    calls = []
    if kind == "plans":
        for r in _pinned_realizations():
            calls += _inside_calls(monkeypatch, lambda: full_report(r))
    else:
        for r, arcs in _moved_realizations():
            pairs = required_pairs(r.vertex_action)
            calls += _inside_calls(monkeypatch, lambda: check_arcs(r, arcs, pairs))
            calls += _inside_calls(monkeypatch, lambda: _arcs(r))
    # 146 plans below 400 and two large ones, each with its candidates and its picked arcs
    assert len(calls) == (2 * 148 if kind == "plans" else 6)
    for r, arcs in calls:
        inside = edges._vertices_inside(r, arcs)
        assert np.array_equal(inside, all_vertex_inside(r, arcs)), (r.group.name, r.m)
        assert kind == "plans" or inside.any()  # each moved call has the vertex inside an arc


# ------------------------------------------ h3 second clause is implied by h2


def _image_pair(img: np.ndarray, pair: tuple[int, int]) -> tuple[int, int]:
    x, y = int(img[pair[0]]), int(img[pair[1]])
    return (x, y) if x < y else (y, x)


def _two_clause_h3(r, arcs) -> bool:
    """check_h3 with the clause it dropped: besides equivariance, an element
    fixing an interior point of an arc (their circles cross there, or it
    carries the arc's own circle) must map the arc onto itself."""
    va = r.vertex_action
    arcs = {arc.pair: arc for arc in _rows(arcs)}
    circles = svd_planes(r.mats)
    for f, (img, mat) in enumerate(zip(action_table(va.action), r.mats)):
        for pair, arc in arcs.items():
            target = arcs.get(_image_pair(img, pair))
            if target is None:
                return False
            moved_mid = mat @ arc.midpoint
            if not float(np.linalg.norm(moved_mid - target.midpoint)) <= ERROR_TOL:
                return False
            if f == 0:  # the identity
                continue
            fc = circles[f]
            if not fc.any():
                continue
            if same_circle(fc, arc.projector):
                fixes_interior = True
            else:
                count, v = shared_lines(fc, arc.projector)  # count 0 or 1: distinct circles
                fixes_interior = bool(count) and any(_old_holds_point(arc, p) for p in (v, -v))
            if fixes_interior and target is not arc:
                return False
    return True


def _disjoint(arcs) -> bool:
    try:
        _verify_disjoint_interiors(arcs)
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
        arcs = _arcs(r)
        assert check_h3(r, arcs) == _two_clause_h3(r, arcs), (group, m)
        cases += 1
        rows = _rows(arcs)
        for k, arc in enumerate(rows):
            mutated = _system(rows[:k] + [_complement(arc)] + rows[k + 1:])
            if _disjoint(mutated):
                assert check_h3(r, mutated) == _two_clause_h3(r, mutated), (group, m, arc.pair)
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
