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

An arc system is one Arcs value: row-aligned arrays of pairs, fixers,
plane bases, start angles and sweeps, one row per arc.  Every arc test
runs on those rows at once, not per arc or per pair: Arcs.landmarks holds
the ends and midpoints, computed once, _interior_holds is the one
interior test, check_arcs finds faults as masks over all rows, and h3 is
one product of every matrix with every arc midpoint.  The disjointness
part of h2 runs its exact tests in one batch, on the pairs of arcs whose
caps meet only (_verify_disjoint_interiors): an arc lies within
|sweep|/2 of its midpoint, so two arcs whose midpoints lie more than
2·sin(min(π, (|sweep_a| + |sweep_b|)/2)/2) + CAP_SLACK apart cannot
meet, and CAP_SLACK covers the tolerances the exact tests meet them
within.  Distinct planes whose projectors differ by at most
SHARED_PLANE_GAP stay in wherever their arcs lie, since the SVD may find
them sharing two directions.  Which vertices lie inside the arcs is
judged exactly only on the few that one product of all coordinates with
the fixers' planes finds near a fixer's circle (_vertices_inside),
not on every row against all m.  The fixed planes are read once per
realization (Realization.planes), and no check reads a plane basis but
the stored arcs'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .actions import VertexAction
from .geometry import (CIRCLE_EQ_TOL, ERROR_TOL, SHARED_LINE_TOL, PrecisionError, Realization,
                       circles_of, plane_distance, projectors, same_circle, shared_lines)
from .perm import pair_fixer_counts

PAIR_TOL = 1e-8  # distance from an arc's circle within which a point lies on it
ANGLE_EPS = 1e-9
INSIDE_MARGIN = 1e-7  # angular margin for a vertex inside an arc's interior
# how far apart two arcs' caps may read and the arcs still meet (_verify_disjoint_interiors)
CAP_SLACK = 2 * (4 * CIRCLE_EQ_TOL + 2 * PAIR_TOL)
# largest projector gap of distinct planes that shared_lines may find sharing two directions
SHARED_PLANE_GAP = 2 * SHARED_LINE_TOL


class ArcAssignmentError(RuntimeError):
    """The gray-arc system cannot be built as specified."""


@dataclass(frozen=True, eq=False)
class Arcs:
    """A witness arc system, one row per arc: row k is an arc of the fixed
    circle of element fixers[k] between the vertices pairs[k].

    Interior angles are starts[k] + s*sweeps[k] for s in (0, 1), measured
    in the plane basis bases[k] (angle 0 at bases[k, 0], pi/2 at
    bases[k, 1]); the ends are exactly the embedded coordinates of the
    pair.  The pairs are distinct.
    """

    pairs: np.ndarray   # (k, 2) vertex pairs
    fixers: np.ndarray  # (k,) rows of non-trivial elements whose circles carry the arcs
    bases: np.ndarray   # (k, 2, 4) orthonormal rows
    starts: np.ndarray  # (k,)
    sweeps: np.ndarray  # (k,) signed turn from start to end

    def __len__(self) -> int:
        return len(self.pairs)

    @cached_property
    def projectors(self) -> np.ndarray:
        return projectors(self.bases)

    def take(self, rows) -> "Arcs":
        return Arcs(self.pairs[rows], self.fixers[rows], self.bases[rows],
                    self.starts[rows], self.sweeps[rows])

    def points(self, s) -> np.ndarray:
        """The points at parameters s (S,) of every arc, as (k, S, 4)."""
        turns = self.starts[:, None] + np.asarray(s) * self.sweeps[:, None]
        return np.cos(turns)[..., None] * self.bases[:, None, 0] \
            + np.sin(turns)[..., None] * self.bases[:, None, 1]

    @cached_property
    def landmarks(self) -> np.ndarray:
        """Start, end and midpoint of every arc, (k, 3, 4) and read-only:
        the ends _first_fault compares with the pair, the points the
        disjointness test holds against the interiors and whose midpoints
        centre its caps, and the midpoints check_h3 moves."""
        points = self.points([0.0, 1.0, 0.5])
        points.setflags(write=False)
        return points


def _interior_holds(arcs: Arcs, rows, points: np.ndarray, margin: float = ANGLE_EPS) -> np.ndarray:
    """holds[n, p]: the interior of arc rows[n] holds the angle of
    points[n, p] (points broadcast to (len(rows), P, 4)) in its own basis,
    at least `margin` from both ends.  Whether the point lies on the arc's
    circle at all is the caller's test."""
    xy = points @ np.swapaxes(arcs.bases[rows], 1, 2)
    phi = np.arctan2(xy[..., 1], xy[..., 0])
    start, sweep = arcs.starts[rows, None], arcs.sweeps[rows, None]
    rel = np.mod(phi - start, 2 * math.pi)
    rel = np.where(sweep < 0, np.mod(2 * math.pi - rel, 2 * math.pi), rel)
    return (margin < rel) & (rel < np.abs(sweep) - margin)


def _angle(basis: np.ndarray, p: np.ndarray) -> float:
    """Angle of one point in the plane basis.  assign_arcs stores it as an
    arc's start, so it stays one product per point: a stacked product may
    round differently and change certificate bytes."""
    x, y = float(basis[0] @ p), float(basis[1] @ p)
    return math.atan2(y, x)


@dataclass
class HypothesisReport:
    h1: bool
    h2: bool
    h3: bool
    h4: bool
    h5: bool
    arcs: Optional[Arcs]
    details: dict = field(default_factory=dict)

    @property
    def overall(self) -> bool:
        return self.h1 and self.h2 and self.h3 and self.h4 and self.h5


def required_pairs(va: VertexAction) -> list[tuple[int, int]]:
    """All vertex pairs pointwise fixed by some non-trivial element.

    In a complete graph every pair is adjacent, so these are exactly the
    pairs whose edge must run inside a fixed circle.  The action is
    faithful: build, or verify's `action-homomorphism` step, checked it.
    """
    pinned, counts = pair_fixer_counts(va.action)
    rows, cols = np.nonzero(np.triu(counts > 1, k=1))
    return [(int(pinned[i]), int(pinned[j])) for i, j in zip(rows, cols)]


def check_h1(r: Realization, fixers: np.ndarray) -> bool:
    """All non-trivial fixers of each pinned pair share one fixed circle,
    the circle of the first of them.  fixers is the (pairs, |G|) mask of
    non-trivial fixers that full_report computes once."""
    first = r.planes[fixers.argmax(axis=1)]
    shared = same_circle(r.planes, first[:, None]) | ~fixers
    # trace 0 is no circle (fixed_planes: within PLANE_ERROR of 0 or 2), which nothing shares
    return bool(((np.trace(first, axis1=1, axis2=2) > 1) & shared.all(axis=1)).all())


def assign_arcs(r: Realization, pairs: list[tuple[int, int]], fixers: np.ndarray) -> Arcs:
    """Pick the witness arc for every pinned pair; check_arcs judges it (h2).

    The pair's two endpoints cut the circle of its first non-trivial fixer
    into two arcs; the one whose interior contains no vertex is picked (the
    shorter one when both qualify, or when neither does).  The arc bases
    are the fixers' rows of circles_of, read off the averaged planes the
    checks read (Realization.planes), so no eigensolver runs; verify takes
    any orthonormal basis of the fixer's plane.

    Precondition: `r` passes h1, so the circle of the first non-trivial
    fixer of a pair (the first True in its row of `fixers`, as for
    check_h1) is the circle of all of them and is not empty.  full_report
    checks h1 and calls this only when it holds.
    """
    if not pairs:
        return Arcs(np.empty((0, 2), dtype=int), np.empty(0, dtype=int), np.empty((0, 2, 4)),
                    np.empty(0), np.empty(0))
    circles = circles_of(r.planes)
    rows = np.repeat(fixers.argmax(axis=1), 2)
    starts, sweeps = [], []
    for (u, v), fixer in zip(pairs, rows[::2].tolist()):
        basis = circles[fixer]
        a_u, a_v = _angle(basis, r.coords[u]), _angle(basis, r.coords[v])
        ccw = (a_v - a_u) % (2 * math.pi)
        starts += [a_u, a_u]
        sweeps += [ccw, ccw - 2 * math.pi]
    candidates = Arcs(np.repeat(pairs, 2, axis=0), rows, circles[rows],
                      np.array(starts), np.array(sweeps))
    blocked = _vertices_inside(r, candidates).any(axis=1).reshape(-1, 2)
    size = np.abs(candidates.sweeps).reshape(-1, 2)
    # the key (blocked, |sweep|); the first candidate wins a tie
    second = (blocked[:, 1] < blocked[:, 0]) \
        | ((blocked[:, 1] == blocked[:, 0]) & (size[:, 1] < size[:, 0]))
    return candidates.take(2 * np.arange(len(pairs)) + second)


def _vertices_inside(r: Realization, arcs: Arcs) -> np.ndarray:
    """inside[k, w]: vertex w, not of arc k's own pair, lies in the interior
    of arc k.  Which vertices sit on the circle is read from each fixer's
    own circle, so a slightly tilted stored basis cannot hide one.  Every
    row names a group element: check_arcs passes the rows before its
    first fault only.

    The exact tests (not an end of the pair, plane_distance to the
    fixer's circle at most PAIR_TOL, _interior_holds) run on candidates
    only: the (vertex, fixer) entries whose pᵀ(I − P)p = |p|² − pᵀPp,
    from one product of all coordinates with I − P for the distinct
    fixers' planes P, is at most PAIR_TOL.  No vertex the exact test
    keeps is lost: the value is |p − Pᵀp|² − pᵀ(PPᵀ − P)p, and
    PPᵀ − P = P(Pᵀ − P) + (P² − P) has entries below 3·PLANE_ERROR
    (fixed_planes; rows of P have ℓ1 norm about 2), so within PAIR_TOL of
    the plane it is at most PAIR_TOL² + 12·PLANE_ERROR·|p|² plus
    rounding, below PAIR_TOL for |p| up to about 10; invariance holds
    every vertex to 1 ± ERROR_TOL first.  NaN fails both tests, and a
    plane near zero leaves |p|² ≈ 1, which both exclude."""
    fixers = np.flatnonzero(np.bincount(arcs.fixers))  # the distinct fixers
    p = r.coords
    near = np.einsum("fwi,wi->fw", p @ (np.eye(4) - r.planes[fixers]), p) <= PAIR_TOL
    f, w = np.nonzero(near)  # few vertices sit near a circle
    k, n = np.nonzero(arcs.fixers[:, None] == fixers[f])  # each candidate at its fixer's rows
    w = w[n]
    other = (w != arcs.pairs[k, 0]) & (w != arcs.pairs[k, 1])
    k, w = k[other], w[other]
    inside = np.zeros((len(arcs), r.m), dtype=bool)
    if not k.size:  # the usual case: near the circles sit only the pairs' own vertices
        return inside
    on_circle = plane_distance(r.planes[arcs.fixers[k]], p[w, None])[:, 0] <= PAIR_TOL
    k, w = k[on_circle], w[on_circle]
    inside[k, w] = _interior_holds(arcs, k, p[w, None], INSIDE_MARGIN)[:, 0]
    return inside


def check_arcs(r: Realization, arcs: Arcs, pairs: list[tuple[int, int]]) -> None:
    """h2 on any arc system, picked by assign_arcs or read from a file.

    Raises ArcAssignmentError naming the first offending pair.  The pair
    set is checked first, so every later coordinate lookup goes through a
    pinned pair.  Then the first row with a fault decides (_first_fault),
    unless a vertex lies inside an arc of a row before it; disjointness
    comes last.  Every tolerance test fails on NaN.
    """
    given = list(map(tuple, arcs.pairs.tolist()))
    required = set(pairs)
    extra, missing = sorted(set(given) - required), sorted(required - set(given))
    if extra:
        raise ArcAssignmentError(f"arc over pair {extra[0]}, which is not a pinned pair")
    if missing:
        raise ArcAssignmentError(f"pinned pair {missing[0]} has no arc")
    if not pairs:
        return
    row, fault = _first_fault(r, arcs)
    k, w = np.nonzero(_vertices_inside(r, arcs.take(slice(row))))
    if k.size:
        raise ArcAssignmentError(f"arc of pair {given[k[0]]} has vertex {w[0]} inside")
    if fault:
        raise ArcAssignmentError(fault)
    _verify_disjoint_interiors(arcs)


def _first_fault(r: Realization, arcs: Arcs) -> tuple[int, Optional[str]]:
    """The first row that is no arc of its fixer's circle between the two
    vertices of its pair, and why, or (len(arcs), None).  A row's first
    fault in the order fixer, circle, ends names it.  Rows must be pinned
    pairs.  NaN or infinite fields, a NaN or infinite start among them,
    give NaN points and fail every tolerance test without a warning."""
    action = r.vertex_action.action
    u, v = arcs.pairs.T
    known = (0 < arcs.fixers) & (arcs.fixers < action.group.order)
    fixer = np.where(known, arcs.fixers, 0)
    with np.errstate(invalid="ignore", over="ignore"):
        gram = np.abs(arcs.bases @ np.swapaxes(arcs.bases, 1, 2) - np.eye(2)).max(axis=(1, 2))
        vertices = np.stack([r.coords[u], r.coords[v]], axis=1)
        ends = arcs.landmarks[:, :2]
        gap = np.minimum(*(np.linalg.norm(ends - e, axis=2).max(axis=1)
                           for e in (vertices, vertices[:, ::-1])))
        faults = [
            (~known | (action.image(fixer, u) != u) | (action.image(fixer, v) != v),
             "fixer of pair {} is not a non-trivial group element fixing both vertices"),
            (~(gram <= ERROR_TOL) | ~same_circle(arcs.projectors, r.planes[fixer]),
             "arc of pair {} is not on the fixed circle of its fixer"),
            (~(np.isfinite(arcs.starts) & (0 < np.abs(arcs.sweeps))
               & (np.abs(arcs.sweeps) < 2 * math.pi) & (gap <= ERROR_TOL)),
             "arc of pair {} does not run between its two vertices"),
        ]
    bad = np.any([mask for mask, _ in faults], axis=0)
    if not bad.any():
        return len(arcs), None
    row = int(bad.argmax())
    message = next(text for mask, text in faults if mask[row])
    return row, message.format(tuple(arcs.pairs[row].tolist()))


def _verify_disjoint_interiors(arcs: Arcs):
    """The arcs' interiors are pairwise disjoint, raising for the first bad
    pair in row-major order.

    Two arcs on one circle overlap when either interior holds an end or the
    midpoint of the other; each arc measures angles in its own basis of the
    plane.  Arcs on distinct circles can meet only at the 0 or 2 antipodes
    on the line their planes share (one stacked SVD over those pairs), and
    cross when both interiors hold one of them.

    Those exact tests run only on the pairs whose caps meet.  Every point of
    an arc lies within the angle |sweep|/2 of its midpoint, so the midpoints
    of two arcs with a common point lie at most (|sweep_a| + |sweep_b|)/2
    apart in angle, and at most 2·sin(min(π, that)/2) apart as a chord
    (the chord is 1-Lipschitz and monotone in the angle).  The exact tests
    find a common point only to within their tolerances.  An overlap holds
    in a's interior the angle of an end or midpoint y of b; the projectors
    agree to CIRCLE_EQ_TOL per entry, so to 4·CIRCLE_EQ_TOL in norm, and y
    lies that close to a's plane and to the point of a at its angle.  A
    crossing lies within PAIR_TOL of both planes, so the points of a and b
    at its angles lie within 2·PAIR_TOL of each other.  The bases have
    passed _first_fault, orthonormal to ERROR_TOL, which moves norms and
    angles by a few ERROR_TOL, and rounding adds about 1e-15.  CAP_SLACK,
    twice 4·CIRCLE_EQ_TOL + 2·PAIR_TOL, covers all of it, so a pair whose
    midpoints lie further apart than that chord plus CAP_SLACK is dropped:
    no exact test could flag it.  Chords are compared, not the arccos of a
    dot product, which near 0 turns a norm error of ERROR_TOL into about
    1e-6 rad.

    The SVD raises for distinct planes that share two directions wherever
    the arcs lie, so such pairs are kept too.  Along a principal angle θ of
    two planes, [I - P1; I - P2] has singular values √2·sin(θ/2) and
    √2·cos(θ/2).  Two below SHARED_LINE_TOL put both angles at
    sin θ <= 2·sin(θ/2) < √2·SHARED_LINE_TOL, and the projectors differ by
    the sine of the larger angle in norm, so by less than that per entry:
    every pair whose projectors differ by more than CIRCLE_EQ_TOL and at
    most SHARED_PLANE_GAP = 2·SHARED_LINE_TOL is kept.  NaN keeps a pair.
    """
    if len(arcs) < 2:
        return
    planes, mids, turn = arcs.projectors, arcs.landmarks[:, 2], np.abs(arcs.sweeps)
    # every (a, b) at once; the pairs a < b that are kept, in row-major order
    apart = np.linalg.norm(mids[:, None] - mids, axis=2) \
        > 2 * np.sin(np.minimum(math.pi, (turn[:, None] + turn) / 2) / 2) + CAP_SLACK
    gap = np.abs(planes[:, None] - planes).max(axis=(2, 3))
    rows = np.arange(len(arcs))
    i, j = np.nonzero((rows[:, None] < rows)
                      & (~apart | ((CIRCLE_EQ_TOL < gap) & (gap <= SHARED_PLANE_GAP))))
    if not i.size:  # no two caps meet
        return
    same = same_circle(planes[i], planes[j])

    # either interior holds the start, end or midpoint of the other arc
    a, b = i[same], j[same]
    holds = _interior_holds(arcs, np.concatenate([a, b]), arcs.landmarks[np.concatenate([b, a])])
    overlap = np.zeros_like(same)
    overlap[same] = holds.any(axis=1).reshape(2, -1).any(axis=0)

    a, b = i[~same], j[~same]
    lines, v = shared_lines(planes[a], planes[b])
    crossings = np.stack([v, -v], axis=1)

    def holds_crossing(k):
        on_circle = plane_distance(planes[k], crossings) <= PAIR_TOL
        return on_circle & _interior_holds(arcs, k, crossings)

    cross, ambiguous = np.zeros_like(same), np.zeros_like(same)
    cross[~same] = (lines == 1) & (holds_crossing(a) & holds_crossing(b)).any(axis=1)
    ambiguous[~same] = lines > 1

    bad = np.flatnonzero(overlap | cross | ambiguous)
    if bad.size:
        k = bad[0]
        first, second = (tuple(arcs.pairs[x].tolist()) for x in (i[k], j[k]))
        if overlap[k]:
            raise ArcAssignmentError(f"arcs of {first} and {second} overlap on their circle")
        if cross[k]:
            raise ArcAssignmentError(
                f"arcs of {first} and {second} cross at a circle intersection")
        raise PrecisionError("distinct circles sharing a 2-plane")


def check_h3(r: Realization, arcs: Arcs) -> bool:
    """Equivariance of the arc system.

    For every element f and arc A over pair P, the arc B over f(P) must
    exist and f must move A's midpoint onto B's.  Invariance already maps A's
    endpoints onto B's, and arcs with equal endpoints agree as point sets
    exactly when their midpoints agree, so f(A) = B.  Both tests run on
    all (element, arc) at once.

    An element fixing an interior point of A then maps A onto itself: the
    fixed point lies in the interior of f(A) = B as well, and distinct
    arcs have disjoint interiors (h2), so B = A.  Precondition: `arcs`
    pass check_arcs; full_report calls this only then.
    """
    if not len(arcs):
        return True
    codes = arcs.pairs[:, 0] * r.m + arcs.pairs[:, 1]
    order = np.argsort(codes)
    action = r.vertex_action.action
    images = np.sort(action.image(np.arange(action.group.order)[:, None, None], arcs.pairs), axis=-1)
    image_codes = images[..., 0] * r.m + images[..., 1]
    # target[f, k]: the arc over the image of pair k under element f
    target = order[np.searchsorted(codes[order], image_codes).clip(max=len(codes) - 1)]
    if not (codes[target] == image_codes).all():
        return False
    mids = arcs.landmarks[:, 2]
    err = np.linalg.norm(np.einsum("fij,kj->fki", r.mats, mids) - mids[target], axis=-1).max()
    return bool(err <= ERROR_TOL)


def interchangers(va: VertexAction) -> np.ndarray:
    """Rows of the elements with a 2-cycle on the vertices (the identity has
    none); full_report computes them once for check_h4 and check_h5.

    Read off the action's fixed-point table, no image at all: row x swaps a
    pinned vertex w when it moves w and its square x * x fixes w.  A row x
    swaps a vertex of trivial stabilizer exactly when x * x = e ≠ x, so
    whenever some vertex is unpinned every involution swaps one."""
    g, fixers = va.action.group, va.action.fixed_points.fixers
    swaps = ~fixers & fixers[np.diagonal(g.cayley)]
    return np.flatnonzero(swaps.any(axis=1) | (fixers.shape[1] < va.m) & (g.orders == 2))


def check_h4(va: VertexAction, swappers: np.ndarray) -> bool:
    """Pair-swapping elements (rows `swappers`, from interchangers) may fix
    at most two vertices.

    The vertices fixed by such an element span a complete subgraph that has
    to embed in a proper sub-arc of the element's circle, which a complete
    graph does exactly when it has at most 2 vertices.
    """
    return bool((va.action.fixed_points.counts[swappers] <= 2).all())


def check_h5(r: Realization, swappers: np.ndarray) -> bool:
    """Pair-swapping elements (rows `swappers`, from interchangers) are
    rotations with unshared circles.  Each is compared with every row, its
    own included; no circle matches row 0."""
    return bool((np.count_nonzero(same_circle(r.planes[swappers, None], r.planes), axis=1) <= 1).all())


def full_report(r: Realization, arcs: Optional[Arcs] = None) -> HypothesisReport:
    """Run all five checks on an arc system, by default the one assign_arcs
    picks; any failure flips the overall verdict, with the reason recorded
    in details.  The report keeps the arcs only when they pass h2."""
    details: dict = {}
    pairs = required_pairs(r.vertex_action)  # once per report; the checks share it
    pinned, table, _ = r.vertex_action.action.fixed_points  # both ends of each pair are pinned
    fixers = table[:, np.searchsorted(pinned, np.reshape(pairs, (-1, 2)))].all(axis=2).T
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
