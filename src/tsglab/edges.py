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

The arc tests run on stacked arrays, not per arc or per pair.  The
disjointness part of h2 tests all pairs of arcs in one batch
(_verify_disjoint_interiors), and h3 is one product of every matrix with
every arc midpoint.  All pairs stay cheap: every admissible non-knotted
m below 400 pins at most 10 pairs, so there are at most 45 pairs of arcs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .actions import VertexAction
from .geometry import PrecisionError, Realization, plane_distance, projectors, same_circle, shared_lines
from .perm import is_faithful, pair_fixer_counts, pair_stabilizers

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
        return bool(_interior_holds(self.start, self.sweep, phi, margin))

    def interior_contains_point(self, p: np.ndarray, margin: float = ANGLE_EPS) -> bool:
        if not plane_distance(self.projector, p) <= PAIR_TOL:
            return False
        return self.interior_contains_angle(_angle(self.basis, p), margin)


def _interior_holds(start, sweep, phi, margin: float = ANGLE_EPS):
    """Does the interior of the arc from `start` turning by `sweep` hold the
    angle phi, at least `margin` from both ends?  Elementwise on arrays
    that broadcast."""
    rel = np.mod(phi - start, 2 * math.pi)
    rel = np.where(sweep < 0, np.mod(2 * math.pi - rel, 2 * math.pi), rel)
    return (margin < rel) & (rel < np.abs(sweep) - margin)


def _angle(basis: np.ndarray, p: np.ndarray) -> float:
    """Angle of one point in the plane basis.  assign_arcs stores it as an
    arc's start, so it stays one product per point: a stacked product may
    round differently and change certificate bytes."""
    x, y = float(basis[0] @ p), float(basis[1] @ p)
    return math.atan2(y, x)


def _angles(bases: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Angles of points (..., P, 4) in the planes of bases (..., 2, 4), as
    (..., P); the leading dimensions broadcast."""
    xy = points @ np.swapaxes(bases, -1, -2)
    return np.arctan2(xy[..., 1], xy[..., 0])


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


def check_h1(r: Realization, fixers: np.ndarray) -> bool:
    """All non-trivial fixers of each pinned pair share one fixed circle,
    the circle of the first of them.  fixers is the (pairs, |G|) mask of
    non-trivial fixers that full_report computes once."""
    planes = projectors(r.circles)
    first = planes[fixers.argmax(axis=1)]
    shared = same_circle(planes, first[:, None]) | ~fixers
    # a zero projector is no circle, which nothing can share
    return bool((first.any(axis=(1, 2)) & shared.all(axis=1)).all())


def assign_arcs(r: Realization, pairs: list[tuple[int, int]], fixers: np.ndarray) -> ArcAssignment:
    """Pick the witness arc for every pinned pair; check_arcs judges it (h2).

    The pair's two endpoints cut the circle of its first non-trivial fixer
    into two arcs; the one whose interior contains no vertex is picked (the
    shorter one when both qualify, or when neither does).

    Precondition: `r` passes h1, so the circle of the first non-trivial
    fixer of a pair (the first True in its row of `fixers`, as for
    check_h1) is the circle of all of them and is not empty.  full_report
    checks h1 and calls this only when it holds.
    """
    candidates = []
    for (u, v), fixer in zip(pairs, fixers.argmax(axis=1).tolist()):
        basis = r.circles[fixer]
        a_u, a_v = _angle(basis, r.coords[u]), _angle(basis, r.coords[v])
        ccw = (a_v - a_u) % (2 * math.pi)
        candidates += [Arc((u, v), fixer, basis, a_u, ccw),
                       Arc((u, v), fixer, basis, a_u, ccw - 2 * math.pi)]
    blocked = _vertices_inside(r, candidates).any(axis=1).tolist()
    arcs: ArcAssignment = {}
    for k in range(0, len(candidates), 2):
        _, arc = min(zip(blocked[k:k + 2], candidates[k:k + 2]),
                     key=lambda c: (c[0], abs(c[1].sweep)))
        arcs[arc.pair] = arc
    return arcs


def _vertices_inside(r: Realization, arcs: list[Arc]) -> np.ndarray:
    """inside[k, w]: vertex w, not of arc k's own pair, lies in the interior
    of arc k.  Which vertices sit on the circle is read from each fixer's
    own circle, so a slightly tilted stored basis cannot hide one."""
    inside = np.zeros((len(arcs), r.m), dtype=bool)
    if not arcs:
        return inside
    on_circle = plane_distance(projectors(r.circles[[a.fixer for a in arcs]]), r.coords) <= PAIR_TOL
    ends = np.array([a.pair for a in arcs])
    on_circle &= (np.arange(r.m) != ends[:, :1]) & (np.arange(r.m) != ends[:, 1:])
    k, w = np.nonzero(on_circle)  # angles only where needed: few vertices sit on a circle
    phi = _angles(np.array([a.basis for a in arcs])[k], r.coords[w, None])[:, 0]
    inside[k, w] = _interior_holds(np.array([a.start for a in arcs])[k],
                                   np.array([a.sweep for a in arcs])[k], phi, INSIDE_MARGIN)
    return inside


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
    required = set(pairs)
    extra, missing = sorted(set(arcs) - required), sorted(required - set(arcs))
    if extra:
        raise ArcAssignmentError(f"arc over pair {extra[0]}, which is not a pinned pair")
    if missing:
        raise ArcAssignmentError(f"pinned pair {missing[0]} has no arc")
    checked, fault = [], None
    for pair, arc in arcs.items():
        fault = _arc_fault(r, pair, arc)
        if fault:
            break
        checked.append(pair)
    # the vertex test of every arc before the first fault, in one pass
    inside = _vertices_inside(r, [arcs[pair] for pair in checked])
    for pair, row in zip(checked, inside):
        if row.any():
            raise ArcAssignmentError(f"arc of pair {pair} has vertex {np.flatnonzero(row)[0]} inside")
    if fault:
        raise ArcAssignmentError(fault)
    _verify_disjoint_interiors(r, arcs)


def _arc_fault(r: Realization, pair: tuple[int, int], arc: Arc) -> Optional[str]:
    """Why `arc` is no arc of its fixer's circle between the two vertices of
    `pair`, or None; check_arcs tests the vertices inside it."""
    u, v = pair
    action = r.vertex_action.action
    if not 0 < arc.fixer < action.group.order or tuple(action.images[arc.fixer, [u, v]]) != (u, v):
        return f"fixer of pair {pair} is not a non-trivial group element fixing both vertices"
    gram = float(np.abs(arc.basis @ arc.basis.T - np.eye(2)).max())
    if not gram <= PAIR_TOL or not same_circle(arc.projector, projectors(r.circles[arc.fixer])):
        return f"arc of pair {pair} is not on the fixed circle of its fixer"
    if not (math.isfinite(arc.start) and 0 < abs(arc.sweep) < 2 * math.pi) \
            or not _joins(arc, r.coords[u], r.coords[v]):
        return f"arc of pair {pair} does not run between its two vertices"
    return None


_ENDS_AND_MIDDLE = np.array([0.0, 1.0, 0.5])


def _verify_disjoint_interiors(r: Realization, arcs: ArcAssignment):
    """The arcs' interiors are pairwise disjoint: one batched test of all
    pairs, raising for the first bad pair in row-major order.

    Two arcs on one circle overlap when either interior holds an end or the
    midpoint of the other; each arc measures angles in its own basis of the
    plane.  Arcs on distinct circles can meet only at the 0 or 2 antipodes
    on the line their planes share (one stacked SVD over those pairs), and
    cross when both interiors hold one of them.
    """
    items = list(arcs.values())
    if len(items) < 2:
        return
    bases = np.array([a.basis for a in items])
    planes = np.array([a.projector for a in items])
    starts = np.array([a.start for a in items])
    sweeps = np.array([a.sweep for a in items])
    i, j = np.triu_indices(len(items), 1)
    same = same_circle(planes[i], planes[j])

    # ends[a, s]: the start, end and midpoint of arc a
    turns = starts[:, None] + _ENDS_AND_MIDDLE * sweeps[:, None]
    ends = np.cos(turns)[..., None] * bases[:, None, 0] + np.sin(turns)[..., None] * bases[:, None, 1]
    # holds[a, b]: the interior of arc a holds one of those points of arc b
    phi = _angles(bases, ends.reshape(1, -1, 4)).reshape(len(items), len(items), 3)
    holds = _interior_holds(starts[:, None, None], sweeps[:, None, None], phi).any(axis=2)
    overlap = same & (holds[i, j] | holds[j, i])

    a, b = i[~same], j[~same]
    lines, v = shared_lines(planes[a], planes[b])
    crossings = np.stack([v, -v], axis=1)

    def holds_crossing(k):
        on_circle = plane_distance(planes[k], crossings) <= PAIR_TOL
        return on_circle & _interior_holds(starts[k, None], sweeps[k, None],
                                           _angles(bases[k], crossings))

    cross, ambiguous = np.zeros_like(same), np.zeros_like(same)
    cross[~same] = (lines == 1) & (holds_crossing(a) & holds_crossing(b)).any(axis=1)
    ambiguous[~same] = lines > 1

    bad = np.flatnonzero(overlap | cross | ambiguous)
    if bad.size:
        k = bad[0]
        first, second = items[i[k]].pair, items[j[k]].pair
        if overlap[k]:
            raise ArcAssignmentError(f"arcs of {first} and {second} overlap on their circle")
        if cross[k]:
            raise ArcAssignmentError(
                f"arcs of {first} and {second} cross at a circle intersection")
        raise PrecisionError("distinct circles sharing a 2-plane")


def check_h3(r: Realization, arcs: ArcAssignment) -> bool:
    """Equivariance of the arc system.

    For every element f and arc A over pair P, B = arcs[f(P)] must exist
    and f must move A's midpoint onto B's.  Invariance already maps A's
    endpoints onto B's, and arcs with equal endpoints agree as point sets
    exactly when their midpoints agree, so f(A) = B.  Both tests run on
    all (element, arc) at once.

    An element fixing an interior point of A then maps A onto itself: the
    fixed point lies in the interior of f(A) = B as well, and distinct
    arcs have disjoint interiors (h2), so B = A.  Precondition: `arcs`
    pass check_arcs; full_report calls this only then.
    """
    if not arcs:
        return True
    pairs = np.array(list(arcs))
    codes = pairs[:, 0] * r.m + pairs[:, 1]
    order = np.argsort(codes)
    images = np.sort(r.vertex_action.action.images[:, pairs], axis=-1)
    image_codes = images[..., 0] * r.m + images[..., 1]
    # target[f, k]: the arc over the image of pair k under element f
    target = order[np.searchsorted(codes[order], image_codes).clip(max=len(codes) - 1)]
    if not (codes[target] == image_codes).all():
        return False
    mids = np.array([arc.midpoint for arc in arcs.values()])
    err = np.linalg.norm(np.einsum("fij,kj->fki", r.mats, mids) - mids[target], axis=-1).max()
    return bool(err <= PAIR_TOL)


def interchangers(va: VertexAction) -> np.ndarray:
    """Rows of the elements with a 2-cycle on the vertices (the identity has
    none); full_report computes them once for check_h4 and check_h5."""
    imgs, ident = va.action.images, np.arange(va.m)
    swaps = (imgs != ident) & (np.take_along_axis(imgs, imgs, axis=1) == ident)
    return np.flatnonzero(swaps.any(axis=1))


def check_h4(va: VertexAction, swappers: np.ndarray) -> bool:
    """Pair-swapping elements (rows `swappers`, from interchangers) may fix
    at most two vertices.

    The vertices fixed by such an element span a complete subgraph that has
    to embed in a proper sub-arc of the element's circle, which a complete
    graph does exactly when it has at most 2 vertices.
    """
    return bool((va.action.fixed()[swappers].sum(axis=1) <= 2).all())


def check_h5(r: Realization, swappers: np.ndarray) -> bool:
    """Pair-swapping elements (rows `swappers`, from interchangers) are
    rotations with unshared circles.  Each is compared with every row, its
    own included; no circle matches row 0."""
    planes = projectors(r.circles)
    return bool((np.count_nonzero(same_circle(planes[swappers, None], planes), axis=1) <= 1).all())


def full_report(r: Realization, arcs: Optional[ArcAssignment] = None) -> HypothesisReport:
    """Run all five checks on an arc system, by default the one assign_arcs
    picks; any failure flips the overall verdict, with the reason recorded
    in details.  The report keeps the arcs only when they pass h2."""
    details: dict = {}
    pairs = required_pairs(r.vertex_action)  # once per report; the checks share it
    fixers = pair_stabilizers(r.vertex_action.action, pairs)
    fixers[:, 0] = False  # h1 and the arcs read the non-trivial fixers
    h1 = check_h1(r, fixers)
    if arcs is None and h1:
        arcs = assign_arcs(r, pairs, fixers)
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
    swappers = interchangers(r.vertex_action)
    h4 = check_h4(r.vertex_action, swappers)
    h5 = check_h5(r, swappers)
    return HypothesisReport(h1, h2, h3, h4, h5, arcs if h2 else None, details)
