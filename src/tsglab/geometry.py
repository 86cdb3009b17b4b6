"""Matrix models on the unit 3-sphere for the planned vertex actions.

Four models, all inside SO(4):

    TETRA_ROT   A4 as rotations of a tetrahedron in the equatorial 3-space,
                last axis untouched: every element pointwise fixes a circle
                through the two poles.
    TETRA_FULL  S4 via the 3-dimensional standard representation plus the
                parity character on the last axis.  Odd elements flip the
                poles; order-4 elements act freely (no fixed points).
    DODECA_ROT  A5 as the rotation group of an icosahedron/dodecahedron in
                the equatorial 3-space, last axis untouched.  Every element
                is a rotation about a circle through the poles.
    SIMPLEX4    A5 permuting the five vertices of a regular 4-simplex, i.e.
                the sum-zero subspace of 5-space.  Order-5 elements are
                glide rotations with empty fixed sets.

Each model is one stacked product over the permutation matrices P of the
elements.  The tetrahedral models take the block B4·P·B4ᵀ (B4 a basis of
the sum-zero subspace of 4-space) with last diagonal entry 1 or the parity
sign; SIMPLEX4 takes B5·P·B5ᵀ.  DODECA_ROT is the action A -> R·A·Rᵀ of
those SIMPLEX4 matrices on the self-dual 2-forms (e01+e23, e02-e13,
e03+e12)/√2, faithful because A5 is simple and not inside SU(2).  It is
written in the frame of the half-turn axes of (0 1)(2 3), (0 2)(1 3) and
(0 3)(1 2), the first two read off a column of I + H = 2·a·aᵀ (H the
half-turn) and the third their cross product, so no eigensolver picks a
sign.  The icosahedron then
sits at the cyclic shifts of (0, ±1, ±φ): every entry is exactly one of 0,
±1/2, ±φ/2, ±1/(2φ), ±1, and the computed entries are snapped to them.

A non-identity special-orthogonal 4x4 matrix either fixes a geodesic
circle of the sphere pointwise (its +1 eigenplane) or fixes nothing; the
realizer leans on that dichotomy throughout.

The checks read each element's fixed plane as one (|G|, 4, 4) array of
projectors in element row order (fixed_planes): the average of M over the
cyclic group <g>, one product with a cached operator per group and no
eigensolver.  Near zero is "no circle": at each element that fixes
nothing, and exactly zero at the identity, whose circle no check asks
for.  It acts as "no circle" must: every unit point lies about 1 from its
plane, so it holds no vertex, and within CIRCLE_EQ_TOL it equals only
another such projector (a rank-2 projector has an entry >= 1/2).
Placement keeps clear of the same planes, and assign_arcs writes arc
bases read off them (circles_of), so a fixed circle has this one
representation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .actions import Model, OrbitPlan, VertexAction, measured_profile, restricted_group
from .perm import Orbits, PermGroup, from_cycles, matrices_from_generators, standard_group
from .profiles import FixedVertexProfile

ERROR_TOL = 1e-12  # rounding error allowed in an identity that holds exactly
# what `invariance` implies for every vertex, not only for the representatives
# it compares: 3·ERROR_TOL and the rounding of orbit_coords (_check_invariance)
ACTION_ERROR = 3 * ERROR_TOL + 1e-14
# what `homomorphism` implies for the averaged fixed planes (fixed_planes)
PLANE_ERROR = 6 * ERROR_TOL + 1e-14
ON_CIRCLE_TOL = 1e-9
CIRCLE_EQ_TOL = 1e-8
SHARED_LINE_TOL = CIRCLE_EQ_TOL * 10  # singular values of a line two circles share
MIN_VERTEX_SEP = 1e-6
FREE_CIRCLE_CLEARANCE = 0.05
FREE_ORBIT_SEP = 1e-3
_CELL_MARGIN = 2.0 ** -20  # relative widening of a cell over the search radius
_CELL_SPAN = 2 ** 14  # most cells across the points' range on one axis
_PAIR_CHUNK = 2 ** 20  # most candidate pairs measured at once
_HOM_CHUNK = 2 ** 9  # most (row, matrix) products per homomorphism chunk: 64 KB
# cell offsets on the first three axes, in ascending code order; CellGrid.runs
_NEIGHBOURS = np.array(list(itertools.product((-1, 0, 1), repeat=3)))


class PrecisionError(RuntimeError):
    """A fixed plane whose trace is not within PLANE_ERROR of 0 or 2
    (fixed_planes), or two distinct circles that seem to share a 2-plane
    (edges): the numbers cannot name a fixed circle reliably."""


class UnsupportedGeometryError(RuntimeError):
    """Raised for plans whose edges need knotting; no matrix model applies."""


class PlacementError(RuntimeError):
    """Free-orbit base point sampling failed the separation requirements."""


@dataclass(frozen=True)
class ModelConfig:
    """Geometry knobs: twin-tetra latitude, edge-point parameter, rng seed."""

    theta: float = math.pi / 6
    t: float = 1.0 / 3.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.theta < math.pi / 2:
            raise ValueError(f"theta must lie strictly between 0 and pi/2, got {self.theta}")
        if not 0.0 < self.t < 0.5:
            raise ValueError(
                f"edge parameter t must lie strictly between 0 and 1/2, got {self.t}; "
                "t = 1/2 would land on edge midpoints, which edge-reversing involutions fix")
        if not 0 <= self.seed < 2 ** 63:
            raise ValueError(f"seed must lie in 0 <= seed < 2**63, got {self.seed}")


def projectors(bases: np.ndarray) -> np.ndarray:
    """Orthogonal projectors Bᵀ·B onto the planes of (..., 2, 4) bases, as
    (..., 4, 4); a zero basis (no circle) gives the zero projector."""
    return np.swapaxes(bases, -1, -2) @ bases


def plane_distance(projector: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Distance of each point from the plane of each projector (both may be
    stacks that broadcast).  A unit point lies 1 from the zero projector."""
    return np.linalg.norm(points - points @ projector, axis=-1)


def same_circle(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Do the projectors p and q (stacks that broadcast) agree entrywise?"""
    return np.abs(p - q).max(axis=(-2, -1)) <= CIRCLE_EQ_TOL


def shared_lines(p1: np.ndarray, p2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For projectors onto distinct planes (stacks of one shape), from one
    stacked SVD of [I - P1; I - P2]: how many directions the planes share
    (singular values below SHARED_LINE_TOL), and a unit vector along the
    shared line, which means something only where that count is 1."""
    stack = np.concatenate([np.eye(4) - p1, np.eye(4) - p2], axis=-2)
    _, s, vt = np.linalg.svd(stack)
    line = vt[..., -1, :]  # singular values come in descending order
    return np.count_nonzero(s < SHARED_LINE_TOL, axis=-1), \
        line / np.linalg.norm(line, axis=-1, keepdims=True)


# ------------------------------------------------------------------ bases


def _sumzero_basis(n: int) -> np.ndarray:
    rows = []
    for k in range(1, n):
        v = np.array([1.0] * k + [-float(k)] + [0.0] * (n - k - 1))
        rows.append(v / np.linalg.norm(v))
    return np.array(rows)


_B4 = _sumzero_basis(4)  # 3 x 4
_B5 = _sumzero_basis(5)  # 4 x 5


def tetra_corner(i: int) -> np.ndarray:
    """Corner of the regular tetrahedron, embedded in the equator x4 = 0."""
    v = _B4 @ (np.eye(4)[i] - 0.25)
    v /= np.linalg.norm(v)
    return np.concatenate([v, [0.0]])


def simplex_corner(i: int) -> np.ndarray:
    v = _B5 @ (np.eye(5)[i] - 0.2)
    return v / np.linalg.norm(v)


POLE = np.array([0.0, 0.0, 0.0, 1.0])


# --------------------------------------------------------- representations


# the self-dual 2-forms e01+e23, e02-e13, e03+e12 as antisymmetric matrices
_SELF_DUAL = np.zeros((3, 4, 4))
_SELF_DUAL[[0, 0, 1, 1, 2, 2], [0, 2, 0, 1, 0, 1], [1, 3, 2, 3, 3, 2]] = 1, 1, 1, -1, 1, 1
_SELF_DUAL -= _SELF_DUAL.transpose(0, 2, 1)

_PHI = (1 + math.sqrt(5)) / 2
_ICOSA_ENTRIES = np.array([-1, -_PHI / 2, -0.5, -0.5 / _PHI, 0, 0.5 / _PHI, 0.5, _PHI / 2, 1])

# two of the three involutions fixing letter 4; their product is the third
_KLEIN_INVOLUTIONS = [from_cycles(5, (0, 1), (2, 3)), from_cycles(5, (0, 2), (1, 3))]


def _self_dual_action(simplex: np.ndarray) -> np.ndarray:
    """so3[n, k, l]: the coefficient of 2-form k in R·S_l·Rᵀ, for R the
    matrix simplex[n] and S_l the self-dual 2-forms (each has squared norm
    4 as a matrix).  One stacked product, then one contraction."""
    conjugated = simplex[:, None] @ _SELF_DUAL @ np.swapaxes(simplex, 1, 2)[:, None]
    return np.tensordot(conjugated, _SELF_DUAL, axes=([2, 3], [1, 2])).transpose(0, 2, 1) / 4


def _icosahedral(group: PermGroup, simplex: np.ndarray) -> np.ndarray:
    """The SO(3) action A -> R·A·Rᵀ of the SIMPLEX4 matrices R on self-dual
    2-forms, in the frame of the Klein involutions' axes, snapped to the
    nine exact entries of an icosahedral rotation in that frame."""
    rows = group.rows(_KLEIN_INVOLUTIONS)
    if (rows < 0).any():
        raise ValueError(f"{Model.DODECA_ROT.value} needs the involutions (0 1)(2 3) and "
                         "(0 2)(1 3) among the group elements")
    so3 = _self_dual_action(simplex)
    halves = np.eye(3) + so3[rows]  # 2·a·aᵀ for a half-turn about the unit axis a
    cols = halves[[0, 1], :, halves.diagonal(axis1=1, axis2=2).argmax(axis=1)]
    a, b = cols / np.linalg.norm(cols, axis=1, keepdims=True)
    frame = np.column_stack([a, b, np.cross(a, b)])
    r3 = frame.T @ so3 @ frame
    return _ICOSA_ENTRIES[np.abs(r3[..., None] - _ICOSA_ENTRIES).argmin(axis=-1)]


_MODEL_DEGREE = {Model.TETRA_ROT: 4, Model.TETRA_FULL: 4,
                 Model.DODECA_ROT: 5, Model.SIMPLEX4: 5}


def representation(group: PermGroup, model: Model) -> np.ndarray:
    """Faithful SO(4) matrices for the model: a (|G|, 4, 4) array whose row i
    is the matrix of group.elements[i], the row order of group.cayley."""
    if group.degree != _MODEL_DEGREE[model]:
        raise ValueError(f"{model.value} needs degree-{_MODEL_DEGREE[model]} permutations, "
                         f"got degree {group.degree}")
    if model is not Model.TETRA_FULL and not group.even.all():
        raise ValueError(f"{model.value} represents even permutations only")
    perms = np.eye(group.degree)[group.elements].transpose(0, 2, 1)  # P[e[j], j] = 1
    if model is Model.SIMPLEX4:
        return _B5 @ perms @ _B5.T
    mats = np.zeros((group.order, 4, 4))
    if model is Model.DODECA_ROT:
        mats[:, :3, :3] = _icosahedral(group, _B5 @ perms @ _B5.T)
    else:
        mats[:, :3, :3] = _B4 @ perms @ _B4.T
    mats[:, 3, 3] = np.where(group.even, 1.0, -1.0)
    return mats


def circles_of(planes: np.ndarray) -> np.ndarray:
    """Fixed circle of every element as (|G|, 2, 4) orthonormal plane bases,
    read off the averaged planes (fixed_planes, same row order) with no
    eigensolver; zero where the trace is at most 1, at the identity and at
    the elements that fix nothing.  assign_arcs writes them as arc bases.

    With S = (P + Pᵀ)/2, row 0 is S's largest column, normalized, and row 1
    the largest column of S - a·aᵀS (a row 0), made orthogonal to row 0 and
    normalized.  S lies within PLANE_ERROR of a rank-2 projector Π, whose
    columns' squared norms Π_jj sum to 2, so those columns have norms of
    about 1/√2 and 1/2 at least: the basis is well conditioned for every
    plane.  Entries of S within PLANE_ERROR of zero read as exactly 0 first,
    so an axis-aligned circle gets exact zeros, not rounding noise.  That is
    safe: it moves the plane by at most PLANE_ERROR per entry, far within
    CIRCLE_EQ_TOL, and verify takes the Gram matrix and same_circle of the
    rows as written."""
    s = (planes + np.swapaxes(planes, 1, 2)) / 2
    s[np.abs(s) <= PLANE_ERROR] = 0.0
    circle = np.trace(s, axis1=1, axis2=2) > 1
    s = s[circle]
    rows = np.arange(len(s))
    a = s[rows, :, np.linalg.norm(s, axis=1).argmax(axis=1)]
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    rest = s - a[:, :, None] * (a[:, None] @ s)
    b = rest[rows, :, np.linalg.norm(rest, axis=1).argmax(axis=1)]
    b -= (b * a).sum(axis=1, keepdims=True) * a
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    bases = np.zeros((len(planes), 2, 4))
    bases[circle] = np.stack([a, b], axis=1)
    return bases


def fixed_planes(group: PermGroup, mats: np.ndarray) -> np.ndarray:
    """The fixed plane of every element g as the average P(g) of M(h) over
    h in <g>, (|G|, 4, 4) in row order and zero at the identity: one
    product with the group's cached PermGroup.cyclic_means.  For an exact representation P(g) is the
    orthogonal projector onto g's +1 eigenspace, and its trace is that
    space's dimension, 0 or 2 for g ≠ e in SO(4).  A trace further than
    PLANE_ERROR from both raises PrecisionError at the first such row.

    Why PLANE_ERROR bounds it.  Once `homomorphism` passes, the entries of
    M(a)M(b) - M(ab) and M(a)ᵀM(a) - I are at most ε = ERROR_TOL, and M(e)
    is exactly I (matrices_from_generators).  Write M_k = M(g^k), g of
    order n <= 5, indices mod n, so P = (1/n)·Σ M_k; the terms of a sum
    below with a factor M_0 vanish exactly.
      invariant   M_1·P - P = (1/n)·Σ (M_1·M_k - M_(k+1)): entries at most
                  (n-1)/n·ε <= 0.8ε.  P·M_1 likewise.
      idempotent  P² - P = (1/n²)·Σ_(j,k) (M_j·M_k - M_(j+k)): at most 0.64ε.
      symmetric   P - Pᵀ = (1/n)·Σ (M_(n-k) - M_kᵀ).  With A = M_k and
                  B = M_(n-k), (B - Aᵀ)·A = (BA - I) - (AᵀA - I) has rows of
                  norm at most 4ε, and A⁻¹ norm at most 1/√(1 - 4ε), so
                  entries of P - Pᵀ are at most 0.8·4ε(1 + 3ε) = 3.2ε(1 + 3ε).
      trace       S = (P + Pᵀ)/2 and K = (P - Pᵀ)/2 give S² - S =
                  sym(P² - P) - K², as SK + KS is antisymmetric: Frobenius
                  norm at most 4·(0.64ε + 4·(1.6ε)²) = 2.56ε(1 + 16ε).  So
                  each eigenvalue λ of S lies within |λ² - λ|(1 + 4ε) of 0
                  or 1.  With Π the orthogonal projector onto those near 1,
                  of rank r, S - Π has Frobenius norm at most about 2.56ε:
                  entries of P - Π are at most 1.6ε + 2.56ε = 4.16ε, and
                  |tr P - r| <= √4·2.56ε = 5.12ε, up to terms in ε².
    Rounding, in the checks' products and in this one (an entry of P sums
    at most five terms below 1 + ε), adds a few units of 2⁻⁵³ per entry,
    which the 1e-14 covers.  So PLANE_ERROR = 6ε + 1e-14 bounds every entry
    above and the trace's distance from r, and a trace within it of 0 or 2
    names r.  geometric_profile and the edge checks argue from these
    entries.  NaN fails."""
    n = len(mats)
    planes = group.cyclic_means @ mats.reshape(n, 16)
    trace = planes[:, ::5].sum(axis=1)  # the diagonal of each row-major 4x4
    off = np.abs(np.abs(trace - 1) - 1)  # distance from the nearer of 0 and 2
    if not off.max() <= PLANE_ERROR:
        row = int(np.argmax(~(off <= PLANE_ERROR)))
        e = tuple(group.elements[row].tolist())
        raise PrecisionError(f"fixed plane of element {e} has trace {trace[row]}, "
                             "not within PLANE_ERROR of 0 or 2")
    return planes.reshape(n, 4, 4)


# ----------------------------------------------------------- orbit coords


def _part_base_point(kind: str, config: ModelConfig) -> np.ndarray:
    """The point at a special part's first vertex: the identity coset, or
    letter 0 of a natural part."""
    if kind == "tetra_corners":
        return tetra_corner(0)
    if kind == "simplex_corners":
        return simplex_corner(0)
    if kind == "center":
        return POLE
    if kind == "twin_tetra":
        c = tetra_corner(3)[:3]
        return np.concatenate([math.cos(config.theta) * c, [math.sin(config.theta)]])
    if kind not in ("tetra_edge", "simplex_edge"):
        raise ValueError(f"part kind {kind!r} has no base point")
    a, b = ((tetra_corner(2), tetra_corner(3)) if kind == "tetra_edge"
            else (simplex_corner(3), simplex_corner(4)))
    p = (1 - config.t) * a + config.t * b
    return p / np.linalg.norm(p)


def orbit_coords(orbits: Orbits, mats: np.ndarray, base: np.ndarray) -> np.ndarray:
    """All m coordinates from one point per orbit, for realize and verify
    alike, read off the orbit table (GroupAction.orbits): a representative v
    keeps base[v] exactly, and every other vertex w of v's orbit gets
    mats[t] @ base[v], t its carrier row, the first row that carries v to w."""
    reps, index, carrier, _ = orbits
    with np.errstate(invalid="ignore", over="ignore"):  # NaN fails at invariance
        coords = np.einsum("wij,wj->wi", mats[carrier], base[reps][index])
    coords[reps] = base[reps]
    return coords


def free_orbit_coords(mats: np.ndarray, planes: np.ndarray, n: int = 1,
                      config: ModelConfig | None = None,
                      avoid: Optional[np.ndarray] = None) -> list[np.ndarray]:
    """n regular orbits of the group with matrices mats, from base points
    sampled clear of every fixed plane in planes (as fixed_planes gives them).

    Each base point lies at least FREE_CIRCLE_CLEARANCE (0.05) from each
    plane (plane_distance), and all produced points stay pairwise >=
    FREE_ORBIT_SEP (1e-3) apart and that far from `avoid`.  How close the points of `avoid` sit to each
    other is the `separation` check's question, not placement's.
    Orbit row i is the image of the base point under mats[i].
    Deterministic for a fixed seed.

    `avoid` must be a union of orbits of the group (the special parts are).
    The placed points then stay invariant, and since every matrix is an
    isometry, a candidate orbit clears them exactly when its base point
    does.  Candidates come in batches, drawn as single draws give them,
    and a batch is tested at once: plane clearance, then one CellGrid
    lookup of radius FREE_ORBIT_SEP of each base point among the placed
    points and the batch's orbits.  A scan in draw order accepts
    each candidate that passed and is not close to an orbit it accepted
    before, as trying the candidates one at a time would.
    """
    if n < 1:
        raise ValueError("need n >= 1 free orbits")
    config = config or ModelConfig()
    sep, size = FREE_ORBIT_SEP, len(mats)
    rng = np.random.default_rng(config.seed)
    avoid = np.empty((0, 4)) if avoid is None else np.asarray(avoid, dtype=float)
    # every orbit point is a unit vector: the box holds it up to rounding
    grid = CellGrid(sep, min(-1.0, avoid.min(initial=0.0)), max(1.0, avoid.max(initial=0.0)))
    orbits, refused = [], 0
    while len(orbits) < n:
        p = rng.standard_normal(((n - len(orbits)) * 5 // 4 + 1, 4))
        p /= np.sqrt(p[:, None] @ p[..., None])[:, 0]  # each row's np.linalg.norm, bitwise
        batch = np.einsum("gij,bj->bgi", mats, p)  # bitwise mats @ row, for each row
        clear = plane_distance(planes, p).min(axis=0) >= FREE_CIRCLE_CLEARANCE
        first = len(avoid) + size * len(orbits)  # row (first + size * j) is candidate j's base
        points = np.concatenate([avoid, *orbits, batch.reshape(-1, 4)])
        close = {}  # candidate -> candidates within sep of it (negative: placed points)
        for row, other in grid.near(points, np.arange(first, len(points), size)):
            d = points[other] - points[row]
            hit = (np.sqrt((d * d).sum(axis=1)) < sep) & (other != row)  # np.linalg.norm's sum
            pairs = ((np.array([row, other])[:, hit] - first) // size).T.tolist() if hit.any() else ()
            for j, i in pairs:
                close.setdefault(j, []).append(i)
        taken = [False] * len(p)
        for j, good in enumerate(clear.tolist()):
            if good and not any(i < 0 or i == j or (i < j and taken[i]) for i in close.get(j, ())):
                taken[j], refused = True, 0
                orbits.append(batch[j])
                if len(orbits) == n:
                    break
            else:
                refused += 1
                if refused == 400:
                    raise PlacementError(f"could not place free orbit after 400 attempts (n={n})")
    return orbits


class CellGrid:
    """Cubic cells of R^4 for exact search within a radius h: every pair of
    points closer than h lies in neighbouring cells, the 3^4 = 81 around
    either point's own cell (itself included).

    A cell is w >= h·(1 + 2^-20) wide, so such a pair is less than
    1 - 2^-21 widths apart on each axis.  Rounding in (p - origin) / w costs
    a few units of 2^-53 on values below 2^15, far less than the 2^-21
    to spare, so it cannot push the pair two cells apart.  w is also at
    least (hi - lo) / 2^14: each cell coordinate of a point in [lo, hi] then
    lies in 1..2^14 + 1 (one cell of rim below), and the int64 code,
    row-major in that base plus 3, stays below 2^57 for any h.  The codes
    are linear in the cell coordinates, so the 81 neighbours of a cell are
    27 runs of three consecutive codes (last axis fastest), each centred
    at the cell's code plus one of the ascending offsets `runs`.
    """

    def __init__(self, h: float, lo: float, hi: float):
        self.width = max(h * (1 + _CELL_MARGIN), (hi - lo) / _CELL_SPAN)
        self.origin = lo - self.width
        base = int((hi - lo) / self.width) + 3
        self.place = np.array([base ** 3, base ** 2, base, 1])
        self.runs = _NEIGHBOURS @ self.place[:3]

    def codes(self, points: np.ndarray) -> np.ndarray:
        """The int64 code of each point's cell (finite points only)."""
        return np.floor((points - self.origin) / self.width).astype(np.int64) @ self.place

    def near(self, points: np.ndarray, rows: np.ndarray):
        """Yield (row, other) index arrays, at most about _PAIR_CHUNK pairs
        at a time: every point `other` in the 81 cells around each of `rows`
        (itself included).  The rows' runs of neighbouring cells are looked
        up in the sorted codes of all points, all rows at once."""
        codes = self.codes(points)
        order = codes.argsort()
        rows = rows[codes[rows].argsort()]  # ascending needles search faster
        # (2, row, run): first and one-past-last rank of each run's codes centre - 1..centre + 1
        start, stop = codes[order].searchsorted(codes[rows, None] + self.runs + [[[-1]], [[2]]])
        count = stop - start
        per_row = count.sum(axis=1)
        step = max(1, _PAIR_CHUNK // max(int(per_row.max()), 1))  # bounded memory on crowded input
        for first in range(0, len(rows), step):
            s, c = start[first:first + step].ravel(), count[first:first + step].ravel()
            row = rows[first:first + step].repeat(per_row[first:first + step])
            yield row, order[(s - c.cumsum() + c).repeat(c) + np.arange(len(row))]


def _closest_pair(points: np.ndarray, rows: np.ndarray, partners: np.ndarray) -> float:
    """Smallest distance from a point of `rows` to any other point, exact.

    h, the smallest distance over the pairs (rows[j], partners[i, j]) and
    (rows[j], the next row cyclically) that are not self-pairs, is the
    distance of an actual pair; the next row makes sure there is one when
    any pair exists.  So the answer is min(h, d) over the pairs closer than
    h, and a CellGrid of radius h finds each of those in the 81 cells
    around its row (CellGrid.near); only those pairs are measured.  NaN for
    non-finite input, inf when there is no pair.
    """
    if not np.isfinite(points).all():
        return math.nan
    if len(points) < 2 or len(rows) == 0:
        return math.inf
    partners = np.concatenate([partners, ((rows + 1) % len(points))[None]])
    d = np.linalg.norm(points[partners] - points[rows], axis=-1)
    h = float(d[partners != rows].min(initial=np.inf))
    if h == 0:
        return h
    for row, other in CellGrid(h, points.min(), points.max()).near(points, rows):
        d = np.linalg.norm(points[other] - points[row], axis=1)
        h = min(h, float(d[other != row].min(initial=np.inf)))
    return h


# ------------------------------------------------------------ realization


@dataclass
class Realization:
    """A vertex action made concrete: matrices plus one point per vertex
    orbit, from which every coordinate is derived."""

    vertex_action: VertexAction
    model: Model
    config: ModelConfig
    mats: np.ndarray  # (|G|, 4, 4), acting (possibly restricted) group; row i is elements[i]
    base: np.ndarray  # (m, 4), read only at the orbit minima: one point per orbit

    @property
    def group(self) -> PermGroup:
        return self.vertex_action.action.group

    @property
    def m(self) -> int:
        return self.vertex_action.m

    @cached_property
    def coords(self) -> np.ndarray:
        """All m coordinates, (m, 4) and read-only: orbit_coords of base at
        the orbit minima, as verify derives them from a file.  Computed on
        first use, so mats and base are read then."""
        coords = orbit_coords(self.vertex_action.action.orbits, self.mats, self.base)
        coords.setflags(write=False)
        return coords

    @cached_property
    def planes(self) -> np.ndarray:
        """fixed_planes(group, mats), (|G|, 4, 4) and read-only: the fixed
        planes the profile and the edge hypotheses compare, computed once,
        for realize and verify alike."""
        planes = fixed_planes(self.group, self.mats)
        planes.setflags(write=False)
        return planes


def require_at_most(value: float, bound: float, message: str) -> None:
    """The one tolerance test of the realization and certificate checks.
    Written as `not (value <= bound)` so that a NaN anywhere fails it."""
    if not value <= bound:
        raise AssertionError(message)


def _max_hom_error(group: PermGroup, mats: np.ndarray) -> float:
    """Largest entry of |mats[a] @ mats[b] - mats[a * b]| over every pair
    (a, b), not only generator pairs: errors add up along words.  A chunk
    of k rows is one (4k, 4) @ (4, 4|G|) product, whose block (a, b) is
    mats[a] @ mats[b]; k is about _HOM_CHUNK // |G|, so each temporary
    stays near 64 KB.  NaN anywhere gives NaN."""
    n = len(mats)
    right = mats.transpose(1, 0, 2).reshape(4, 4 * n)
    step = max(1, _HOM_CHUNK // n)
    worst = np.float64(0.0)
    for first in range(0, n, step):
        rows = slice(first, first + step)
        prod = mats[rows].reshape(-1, 4) @ right
        blocks = prod.reshape(-1, 4, n, 4)
        blocks -= mats[group.cayley[rows]].transpose(0, 2, 1, 3)
        worst = np.maximum(worst, np.abs(prod, out=prod).max())  # NaN stays NaN
    return float(worst)


def _check_matrices(r: Realization) -> None:
    ortho = float(np.abs(r.mats.transpose(0, 2, 1) @ r.mats - np.eye(4)).max())
    require_at_most(ortho, ERROR_TOL, f"matrices not orthogonal to tolerance: {ortho}")
    det = float(np.abs(np.linalg.det(r.mats) - 1).max())
    require_at_most(det, ERROR_TOL, f"matrices must have determinant +1, off by {det}")
    hom = _max_hom_error(r.group, r.mats)
    require_at_most(hom, ERROR_TOL, f"matrix homomorphism error {hom}")


def _orbit_errors(r: Realization) -> np.ndarray:
    """For each element g, the largest coordinate of M(g)·p(v) - p(g·v) over
    the orbit representatives v: one stacked product of |G|·#orbits
    vectors.  NaN anywhere gives NaN."""
    reps, _, _, block = r.vertex_action.action.orbits
    with np.errstate(invalid="ignore", over="ignore"):
        moved = r.coords[reps] @ r.mats.transpose(0, 2, 1)  # row g: M(g)·p(v), each v
        moved -= r.coords[block]
        return np.abs(moved, out=moved).max(axis=(1, 2))


def _check_invariance(r: Realization) -> None:
    """Every vertex within ERROR_TOL of the unit sphere, and each coordinate
    of M(g)·p(v) - p(g·v) within ERROR_TOL for every element g at every
    orbit representative v (_orbit_errors); the first element off its
    images fails the check.

    That bounds the whole action, since every coordinate is derived:
    p(w) = M(t)·p(v) with t·v = w (orbit_coords).  Once `homomorphism`
    passes, and the images form an action (`action-homomorphism` in
    verify), g·t carries v to g·w, so M(g)·p(w) - p(g·w) is
    (M(g)M(t) - M(g·t))·p(v), at most 2·ERROR_TOL per coordinate as
    ||p(v)||_1 <= 2, plus g·t's error at v, at most ERROR_TOL, plus the
    rounding of the product that made p(w), carried by M(g).  ACTION_ERROR
    bounds the sum."""
    # non-finite coordinates give a NaN error, which fails quietly below
    with np.errstate(invalid="ignore", over="ignore"):
        radius = float(np.abs(np.linalg.norm(r.coords, axis=1) - 1).max())
    require_at_most(radius, ERROR_TOL, f"vertices lie off the unit sphere by {radius}")
    errors = _orbit_errors(r)
    bad = np.flatnonzero(~(errors <= ERROR_TOL))
    if bad.size:
        e, err = r.group.elements[bad[0]], float(errors[bad[0]])
        raise AssertionError(f"element {tuple(e.tolist())} moves vertices off their images by {err}")


def _min_separation(r: Realization) -> float:
    """Closest pair, measured from one representative per vertex orbit.

    The smallest vertex of each orbit represents it.  For a pair (g.v, w)
    with v a representative, |g.v - w| = |v - g^-1.w| once the coordinates
    are invariant, so the representatives' distances to all m points cover
    every pair.  The search radius h of the cell index is the smallest
    distance from a representative to the rest of its own orbit, |G|
    distances per representative: an actual pair, and no larger than the
    spacing of any orbit's own points, so each representative's
    neighbouring cells hold few points and the cost stays about linear in
    m (see _closest_pair).
    """
    reps, _, _, block = r.vertex_action.action.orbits
    return _closest_pair(r.coords, reps, block)


def _check_separation(r: Realization) -> None:
    # Sound only after `invariance` (and, on a certificate, the action
    # checks) have passed: the images must form a group action, and each
    # vertex may sit off its image by at most ACTION_ERROR per coordinate.
    # The two vertex errors in a pair then move a distance by at most
    # 2*ACTION_ERROR per coordinate (1.2e-11 in length), plus a relative
    # 2*ERROR_TOL from the matrices: far below MIN_VERTEX_SEP (1e-6).
    # This is the one test of how close two vertices sit, special or free.
    closest = _min_separation(r)
    require_at_most(MIN_VERTEX_SEP, closest, f"vertices only {closest} apart")


def _check_profile(r: Realization) -> None:
    combinatorial = measured_profile(r.vertex_action).key()
    geometric = geometric_profile(r).key()
    if combinatorial != geometric:
        raise AssertionError(f"combinatorial {combinatorial} != geometric {geometric}")


# The invariants every realization must satisfy, in order.  realize() runs
# them through validate_realization; certificate verification runs the same
# list on the objects it rebuilds from a file.  The order matters:
# separation relies on invariance having passed.
REALIZATION_CHECKS = (
    ("homomorphism", _check_matrices),
    ("invariance", _check_invariance),
    ("separation", _check_separation),
    ("profile", _check_profile),
)


def validate_realization(r: Realization) -> None:
    """Run REALIZATION_CHECKS; the first failure raises, naming its check."""
    for name, check in REALIZATION_CHECKS:
        try:
            check(r)
        except AssertionError as err:
            raise AssertionError(f"{name}: {err}") from err


def realize(p: OrbitPlan, va: Optional[VertexAction] = None,
            config: ModelConfig | None = None) -> Realization:
    """Assemble matrices and coordinates for a plan (and its built action)."""
    from .actions import build

    if p.knotted:
        raise UnsupportedGeometryError(
            f"K_{p.m} with group {p.group} needs knotted edges; no matrix model is provided")
    config = config or ModelConfig()
    va = va or build(p)
    parent = standard_group(p.building_group)
    mats = matrices_from_generators(parent, representation(parent, p.model)[list(parent.generators)])
    orbits = (va.parent or va.action).orbits  # one orbit per part, from its first vertex
    frees = [b.start for b in va.parts if b.kind == "free"]
    base, planes = np.zeros((p.m, 4)), None
    for b in va.parts:
        if b.kind != "free":
            base[b.start] = _part_base_point(b.kind, config)
    if frees:
        avoid = orbit_coords(orbits, mats, base)[~np.isin(orbits.reps, frees)[orbits.index]]
        planes = fixed_planes(parent, mats)
        planes.setflags(write=False)
        placed = free_orbit_coords(mats, planes, len(frees), config, avoid)
        base[frees] = [orbit[0] for orbit in placed]
    sub = restricted_group(p.restriction)
    if sub is not None:  # the A4 orbit minima read the parent's coordinates, and the
        base = orbit_coords(orbits, mats, base)  # A4 rows are derived as verify derives them
        mats = matrices_from_generators(sub, mats[parent.rows(sub.elements)[list(sub.generators)]])
    r = Realization(va, p.model, config, mats, base)
    if planes is not None and sub is None:
        r.planes = planes  # the parent's group and matrices: placement's planes are the checks'
    validate_realization(r)
    return r


# --------------------------------------------------------------- profiles


def geometric_profile(r: Realization) -> FixedVertexProfile:
    """Count the vertices on the fixed circle of one element per class (its
    first row); the profile check compares them with the measured profile.

    A vertex p lies d = |p - Pᵀp| from g's plane P = (1/n)·Σ M(g^k)
    (fixed_planes).  Once `invariance` and `separation` pass, every vertex
    sits off its image by at most ACTION_ERROR per coordinate.  If g fixes
    p, so does each g^(n-k), and M(g^k)ᵀ lies within 4.1·ERROR_TOL per
    entry of M(g^(n-k)), so d <= 1.6·(ACTION_ERROR + 8.2·ERROR_TOL) ≈ 2e-11.
    If g moves p, |M(g)·p - p| >= MIN_VERTEX_SEP - 4·ACTION_ERROR is at
    most 2d(1 + ERROR_TOL) plus about 1e-10, as M(g)·Pᵀ lies within a few
    PLANE_ERROR of Pᵀ.  ON_CIRCLE_TOL lies between, so the count is g's
    fixed-vertex count, shared by conjugates and by the generators of one
    cyclic subgroup (A4 n3 holds g and g⁻¹, A5 n5 g and g²), which make up
    every class.  An element with no circle fixes no vertex, and its P is
    within PLANE_ERROR of zero, so every unit point lies about 1 from it."""
    names = [name for name in r.group.classes if name != "n1"]
    planes = r.planes[[r.group.classes[name][0] for name in names]]
    counts = np.count_nonzero(plane_distance(planes, r.coords) <= ON_CIRCLE_TOL, axis=1)
    return FixedVertexProfile(r.group.name, **dict(zip(names, counts.tolist())))
