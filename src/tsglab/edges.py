"""Certificates that the edges of K_m can be laid down equivariantly.

Once the vertices sit on the sphere invariantly, the edges embed without
collisions provided the five conditions below hold.  h2 and h3 are
judged on a witness arc system for the pairs that are pinned to fixed
circles: the one assign_arcs picks, or one read from a certificate.

    h1  a pair fixed pointwise by two non-trivial elements forces the two
        elements to share one fixed circle
    h2  every pinned pair has one arc of its fixers' circle between its
        two vertices, whose interior is free of vertices, and the arcs'
        interiors are pairwise disjoint (check_arcs, for any arc system)
    h3  every element maps each arc onto the arc of the image pair (the
        assignment commutes with the action); that an element fixing an
        interior point of an arc maps the arc onto itself follows from h2
    h4  an element that swaps some pair may fix at most 2 vertices (the
        fixed vertices span a complete subgraph that must fit in a proper
        sub-arc of a circle)
    h5  an element that swaps some pair has a non-empty fixed circle that
        no other non-trivial element shares

Free pairs need none of this; they are routed away from the fixed-point
set, which the certificate does not model explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .actions import VertexAction
from .geometry import Realization, circles_intersection, plane_distance, projectors, same_circle
from .perm import is_faithful, pair_fixer_counts, pair_stabilizer

PAIR_TOL = 1e-8
ANGLE_EPS = 1e-9
INSIDE_MARGIN = 1e-7  # angular margin for a vertex inside an arc's interior


class ArcAssignmentError(RuntimeError):
    """The gray-arc system cannot be built as specified."""


@dataclass(frozen=True)
class Arc:
    """An arc of a fixed circle: start angle plus signed sweep to the end.

    Interior angles are start + s*sweep for s in (0, 1); the endpoints are
    exactly the embedded coordinates of the pair.
    """

    pair: tuple[int, int]
    fixer: int                  # row of a non-trivial element whose circle carries the arc
    basis: np.ndarray           # (2, 4) orthonormal rows; angle 0 at basis[0], pi/2 at basis[1]
    start: float
    sweep: float

    @cached_property
    def projector(self) -> np.ndarray:
        return projectors(self.basis)

    def angle_at(self, s: float) -> float:
        return self.start + s * self.sweep

    def point_at(self, s: float) -> np.ndarray:
        angle = self.angle_at(s)
        return math.cos(angle) * self.basis[0] + math.sin(angle) * self.basis[1]

    @property
    def midpoint(self) -> np.ndarray:
        return self.point_at(0.5)

    def interior_contains_angle(self, phi: float, margin: float = ANGLE_EPS) -> bool:
        span = abs(self.sweep)
        rel = (phi - self.start) % (2 * math.pi)
        if self.sweep < 0:
            rel = (2 * math.pi - rel) % (2 * math.pi)
        return margin < rel < span - margin

    def interior_contains_point(self, p: np.ndarray, margin: float = ANGLE_EPS) -> bool:
        if not plane_distance(self.projector, p) <= PAIR_TOL:
            return False
        return self.interior_contains_angle(_angle(self.basis, p), margin)


def _angle(basis: np.ndarray, p: np.ndarray) -> float:
    x, y = float(basis[0] @ p), float(basis[1] @ p)
    return math.atan2(y, x)


ArcAssignment = dict[tuple[int, int], Arc]


@dataclass
class HypothesisReport:
    h1: bool
    h2: bool
    h3: bool
    h4: bool
    h5: bool
    arcs: Optional[ArcAssignment]
    details: dict = field(default_factory=dict)

    @property
    def overall(self) -> bool:
        return self.h1 and self.h2 and self.h3 and self.h4 and self.h5


def required_pairs(va: VertexAction) -> list[tuple[int, int]]:
    """All vertex pairs pointwise fixed by some non-trivial element.

    In a complete graph every pair is adjacent, so these are exactly the
    pairs whose edge must run inside a fixed circle.
    """
    a = va.action
    if not is_faithful(a):
        raise ValueError("required_pairs needs a faithful action")
    pinned, counts = pair_fixer_counts(a)
    rows, cols = np.nonzero(np.triu(counts > 1, k=1))
    return [(int(pinned[i]), int(pinned[j])) for i, j in zip(rows, cols)]


def check_h1(r: Realization, pairs: list[tuple[int, int]]) -> bool:
    """All non-trivial fixers of each pinned pair share one fixed circle."""
    planes = projectors(r.circles)
    for u, v in pairs:
        fixers = planes[list(pair_stabilizer(r.vertex_action.action, u, v)[1:])]
        # a zero projector is no circle, which nothing can share
        if not (fixers[0].any() and same_circle(fixers, fixers[0]).all()):
            return False
    return True


def assign_arcs(r: Realization, pairs: list[tuple[int, int]]) -> ArcAssignment:
    """Pick the witness arc for every pinned pair; check_arcs judges it (h2).

    The pair's two endpoints cut the circle of its first non-trivial fixer
    into two arcs; the one whose interior contains no vertex is picked (the
    shorter one when both qualify, or when neither does).

    Precondition: `r` passes h1, so the circle of the first non-trivial
    fixer of a pair is the circle of all of them and is not empty.
    full_report checks h1 and calls this only when it holds.
    """
    arcs: ArcAssignment = {}
    for u, v in pairs:
        fixer = pair_stabilizer(r.vertex_action.action, u, v)[1]
        basis = r.circles[fixer]
        a_u, a_v = _angle(basis, r.coords[u]), _angle(basis, r.coords[v])
        ccw = (a_v - a_u) % (2 * math.pi)
        candidates = [Arc((u, v), fixer, basis, a_u, ccw),
                      Arc((u, v), fixer, basis, a_u, ccw - 2 * math.pi)]
        arcs[(u, v)] = min(candidates,
                           key=lambda a: (bool(_vertices_inside(r, a)), abs(a.sweep)))
    return arcs


def _vertices_inside(r: Realization, arc: Arc) -> list[int]:
    """Vertices other than the arc's own pair that lie in its interior.
    Which vertices sit on the circle is read from the fixer's own circle,
    so a slightly tilted stored basis cannot hide one."""
    distance = plane_distance(projectors(r.circles[arc.fixer]), r.coords)
    return [w for w in np.flatnonzero(distance <= PAIR_TOL).tolist() if w not in arc.pair
            and arc.interior_contains_angle(_angle(arc.basis, r.coords[w]), INSIDE_MARGIN)]


def _joins(arc: Arc, p: np.ndarray, q: np.ndarray) -> bool:
    """The arc runs from p to q or from q to p, within PAIR_TOL."""
    ends = np.array([arc.point_at(0.0), arc.point_at(1.0)])
    gaps = [np.linalg.norm(ends - np.array(pts), axis=1).max() for pts in ((p, q), (q, p))]
    return bool(np.minimum(*gaps) <= PAIR_TOL)


def check_arcs(r: Realization, arcs: ArcAssignment, pairs: list[tuple[int, int]]) -> None:
    """h2 on any arc system, picked by assign_arcs or read from a file.

    Raises ArcAssignmentError naming the first offending pair.  The pair
    set is checked first, so every later coordinate lookup goes through a
    pinned pair; every tolerance test fails on NaN.
    """
    va = r.vertex_action
    required = set(pairs)
    extra, missing = sorted(set(arcs) - required), sorted(required - set(arcs))
    if extra:
        raise ArcAssignmentError(f"arc over pair {extra[0]}, which is not a pinned pair")
    if missing:
        raise ArcAssignmentError(f"pinned pair {missing[0]} has no arc")
    for (u, v), arc in arcs.items():
        fixer = arc.fixer
        if not 0 < fixer < va.action.group.order \
                or tuple(va.action.images[fixer, [u, v]]) != (u, v):
            raise ArcAssignmentError(f"fixer of pair {(u, v)} is not a non-trivial "
                                     "group element fixing both vertices")
        gram = float(np.abs(arc.basis @ arc.basis.T - np.eye(2)).max())
        if not gram <= PAIR_TOL or not same_circle(arc.projector, projectors(r.circles[fixer])):
            raise ArcAssignmentError(f"arc of pair {(u, v)} is not on the fixed circle "
                                     "of its fixer")
        if not (math.isfinite(arc.start) and 0 < abs(arc.sweep) < 2 * math.pi) \
                or not _joins(arc, r.coords[u], r.coords[v]):
            raise ArcAssignmentError(f"arc of pair {(u, v)} does not run between "
                                     "its two vertices")
        inside = _vertices_inside(r, arc)
        if inside:
            raise ArcAssignmentError(f"arc of pair {(u, v)} has vertex {inside[0]} inside")
    _verify_disjoint_interiors(r, arcs)


def _verify_disjoint_interiors(r: Realization, arcs: ArcAssignment):
    items = list(arcs.values())
    for i, a in enumerate(items):
        for b in items[i + 1:]:
            if same_circle(a.projector, b.projector):
                # each arc measures angles in its own basis of the plane
                for s in (0.0, 1.0, 0.5):
                    if a.interior_contains_angle(_angle(a.basis, b.point_at(s))) or \
                       b.interior_contains_angle(_angle(b.basis, a.point_at(s))):
                        raise ArcAssignmentError(
                            f"arcs of {a.pair} and {b.pair} overlap on their circle")
            else:
                crossings = circles_intersection(a.projector, b.projector)
                for p in crossings:
                    if a.interior_contains_point(p) and b.interior_contains_point(p):
                        raise ArcAssignmentError(
                            f"arcs of {a.pair} and {b.pair} cross at a circle intersection")


def _image_pair(img: np.ndarray, pair: tuple[int, int]) -> tuple[int, int]:
    x, y = int(img[pair[0]]), int(img[pair[1]])
    return (x, y) if x < y else (y, x)


def check_h3(r: Realization, arcs: ArcAssignment) -> bool:
    """Equivariance of the arc system.

    For every element f and arc A over pair P, B = arcs[f(P)] must exist
    and f must move A's midpoint onto B's.  Invariance already maps A's
    endpoints onto B's, and arcs with equal endpoints agree as point sets
    exactly when their midpoints agree, so f(A) = B.

    An element fixing an interior point of A then maps A onto itself: the
    fixed point lies in the interior of f(A) = B as well, and distinct
    arcs have disjoint interiors (h2), so B = A.  Precondition: `arcs`
    pass check_arcs; full_report calls this only then.
    """
    mids = {pair: arc.midpoint for pair, arc in arcs.items()}
    for img, mat in zip(r.vertex_action.action.images, r.mats):
        for pair, mid in mids.items():
            target = mids.get(_image_pair(img, pair))
            if target is None:
                return False
            if not float(np.linalg.norm(mat @ mid - target)) <= PAIR_TOL:
                return False
    return True


def _interchangers(va: VertexAction) -> np.ndarray:
    """Rows of the elements with a 2-cycle on the vertices (the identity has none)."""
    imgs, ident = va.action.images, np.arange(va.m)
    swaps = (imgs != ident) & (np.take_along_axis(imgs, imgs, axis=1) == ident)
    return np.flatnonzero(swaps.any(axis=1))


def check_h4(va: VertexAction) -> bool:
    """Pair-swapping elements may fix at most two vertices.

    The vertices fixed by such an element span a complete subgraph that has
    to embed in a proper sub-arc of the element's circle, which a complete
    graph does exactly when it has at most 2 vertices.
    """
    return bool((va.action.fixed()[_interchangers(va)].sum(axis=1) <= 2).all())


def check_h5(r: Realization) -> bool:
    """Pair-swapping elements are rotations with unshared circles.  Each is
    compared with every row, its own included; no circle matches row 0."""
    planes = projectors(r.circles)
    for g in _interchangers(r.vertex_action):
        if np.count_nonzero(same_circle(planes, planes[g])) > 1:
            return False
    return True


def full_report(r: Realization, arcs: Optional[ArcAssignment] = None) -> HypothesisReport:
    """Run all five checks on an arc system, by default the one assign_arcs
    picks; any failure flips the overall verdict, with the reason recorded
    in details.  The report keeps the arcs only when they pass h2."""
    details: dict = {}
    pairs = required_pairs(r.vertex_action)  # once per report; the checks share it
    h1 = check_h1(r, pairs)
    if arcs is None and h1:
        arcs = assign_arcs(r, pairs)
    h2 = False
    if arcs is None:
        details["arc_error"] = "pair fixers disagree on circles"
    else:
        try:
            check_arcs(r, arcs, pairs)
            h2 = True
        except ArcAssignmentError as err:
            details["arc_error"] = str(err)
    h3 = h2 and check_h3(r, arcs)
    h4 = check_h4(r.vertex_action)
    h5 = check_h5(r)
    return HypothesisReport(h1, h2, h3, h4, h5, arcs if h2 else None, details)
