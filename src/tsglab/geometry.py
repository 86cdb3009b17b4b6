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

A non-identity special-orthogonal 4x4 matrix either fixes a geodesic
circle of the sphere pointwise (its +1 eigenplane) or fixes nothing; the
realizer leans on that dichotomy throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .actions import BuiltPart, Model, OrbitPlan, VertexAction, measured_profile, restricted_group
from .perm import PermGroup, standard_group
from .profiles import FixedVertexProfile

ORTHO_TOL = 1e-9
DET_TOL = ORTHO_TOL * 10
HOM_TOL = 1e-8
INVARIANCE_TOL = 1e-9
ON_CIRCLE_TOL = 1e-9
CIRCLE_EQ_TOL = 1e-8
SHARED_LINE_TOL = CIRCLE_EQ_TOL * 10  # singular values of a line two circles share
MIN_VERTEX_SEP = 1e-6
FREE_CIRCLE_CLEARANCE = 0.05
FREE_ORBIT_SEP = 1e-3
_SV_ZERO = 1e-7
_SV_AMBIGUOUS = 1e-6
_DISTANCE_BLOCK = 32  # rows per block in closest_distance


class PrecisionError(RuntimeError):
    """Numerically ambiguous eigenstructure; results would be unreliable."""


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


@dataclass(frozen=True)
class FixedCircle:
    """The pointwise-fixed set of an isometry: a geodesic circle stored as an
    orthonormal basis of its plane, or the EMPTY marker (basis None)."""

    basis: Optional[np.ndarray]  # shape (2, 4), orthonormal rows

    @property
    def empty(self) -> bool:
        return self.basis is None

    @cached_property
    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the circle's plane, built once per circle."""
        if self.empty:
            raise ValueError("empty fixed set has no plane")
        return self.basis.T @ self.basis

    def residual(self, p: np.ndarray) -> float:
        return float(np.linalg.norm(p - self.projector @ p))

    def contains(self, p: np.ndarray, tol: float = ON_CIRCLE_TOL) -> bool:
        return not self.empty and self.residual(p) <= tol

    def on_circle(self, coords: np.ndarray, tol: float = ON_CIRCLE_TOL) -> np.ndarray:
        """Boolean mask of the rows of coords lying on the circle (none if empty)."""
        if self.empty:
            return np.zeros(len(coords), dtype=bool)
        return np.linalg.norm(coords - coords @ self.projector, axis=1) <= tol

    def angle_of(self, p: np.ndarray) -> float:
        x, y = float(self.basis[0] @ p), float(self.basis[1] @ p)
        return math.atan2(y, x)

    def point_at(self, angle: float) -> np.ndarray:
        return math.cos(angle) * self.basis[0] + math.sin(angle) * self.basis[1]

    def same_circle(self, other: "FixedCircle", tol: float = CIRCLE_EQ_TOL) -> bool:
        if self.empty or other.empty:
            return self.empty and other.empty
        return float(np.abs(self.projector - other.projector).max()) <= tol


def circles_intersection(c1: FixedCircle, c2: FixedCircle) -> np.ndarray:
    """Intersection points of two distinct fixed circles: 0 or 2 antipodes."""
    if c1.same_circle(c2):
        raise ValueError("circles coincide")
    # shared directions = eigenvectors of P1 @ P2 restricted to both planes
    stack = np.vstack([np.eye(4) - c1.projector, np.eye(4) - c2.projector])
    _, s, vt = np.linalg.svd(stack)
    line = vt[s < SHARED_LINE_TOL]
    if line.shape[0] == 0:
        return np.empty((0, 4))
    if line.shape[0] > 1:
        raise PrecisionError("distinct circles sharing a 2-plane")
    v = line[0] / np.linalg.norm(line[0])
    return np.vstack([v, -v])


def _canonical_rows(rows: np.ndarray) -> np.ndarray:
    out = []
    for r in rows:
        k = int(np.argmax(np.abs(r)))
        out.append(-r if r[k] < 0 else r)
    return np.array(sorted(out, key=lambda r: tuple(np.round(r, 9))))


def fixed_set(matrix: np.ndarray) -> FixedCircle:
    """+1 eigenplane of a special-orthogonal matrix, via the kernel of M - I.

    The identity is rejected (it fixes the whole sphere, not a circle), and
    singular values falling in the ambiguous band raise PrecisionError
    rather than guessing a dimension.
    """
    m = np.asarray(matrix, dtype=float)
    if m.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    _, s, vt = np.linalg.svd(m - np.eye(4))
    if np.any((s >= _SV_ZERO) & (s < _SV_AMBIGUOUS)):
        raise PrecisionError(f"singular values too close to zero to classify: {s}")
    dim = int(np.sum(s < _SV_ZERO))
    if dim == 4:
        raise ValueError("identity matrix fixes the whole sphere; not a circle")
    if dim == 0:
        return FixedCircle(None)
    if dim != 2:
        raise PrecisionError(f"fixed subspace of dimension {dim}; SO(4) allows only 0, 2 or 4")
    return FixedCircle(_canonical_rows(vt[-2:]))


# ------------------------------------------------------------------ bases


def _sumzero_basis(n: int) -> np.ndarray:
    rows = []
    for k in range(1, n):
        v = np.array([1.0] * k + [-float(k)] + [0.0] * (n - k - 1))
        rows.append(v / np.linalg.norm(v))
    return np.array(rows)


_B4 = _sumzero_basis(4)  # 3 x 4
_B5 = _sumzero_basis(5)  # 4 x 5


def _perm_matrix(p: np.ndarray) -> np.ndarray:
    mat = np.zeros((len(p), len(p)))
    mat[p, np.arange(len(p))] = 1.0
    return mat


def _tetra_std(p: np.ndarray) -> np.ndarray:
    return _B4 @ _perm_matrix(p) @ _B4.T


def tetra_corner(i: int) -> np.ndarray:
    """Corner of the regular tetrahedron, embedded in the equator x4 = 0."""
    v = _B4 @ (np.eye(4)[i] - 0.25)
    v /= np.linalg.norm(v)
    return np.concatenate([v, [0.0]])


def simplex_corner(i: int) -> np.ndarray:
    v = _B5 @ (np.eye(5)[i] - 0.2)
    return v / np.linalg.norm(v)


POLE = np.array([0.0, 0.0, 0.0, 1.0])


# --------------------------------------------------------- icosahedral A5


@lru_cache(maxsize=None)
def _icosahedral_table() -> dict[tuple[int, ...], np.ndarray]:
    """The 60 rotations of an icosahedron, keyed by the even permutation
    they induce on the five triples of mutually orthogonal 2-fold axes."""
    phi = (1 + math.sqrt(5)) / 2
    verts = []
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            v = np.array([0.0, s1, s2 * phi])
            for _ in range(3):
                v = np.array([v[1], v[2], v[0]])
                verts.append(v.copy())
    verts = np.array(verts)
    verts /= np.linalg.norm(verts[0])
    dots = verts @ verts.T
    edges = [(i, j) for i in range(12) for j in range(12) if i != j and dots[i, j] > 0.3]
    assert len(edges) == 60

    def frame(i: int, j: int) -> np.ndarray:
        u = verts[i]
        w = verts[j] - float(verts[j] @ u) * u
        w /= np.linalg.norm(w)
        return np.column_stack([u, w, np.cross(u, w)])

    f0_inv = frame(*edges[0]).T
    mats, seen = [], set()
    for i, j in edges:
        rot = frame(i, j) @ f0_inv
        key = tuple(np.round(rot, 8).ravel())
        if key not in seen:
            seen.add(key)
            mats.append(rot)
    assert len(mats) == 60

    def canon_axis(v: np.ndarray) -> np.ndarray:
        k = int(np.argmax(np.abs(v)))
        return -v if v[k] < 0 else v

    axis_vecs: list[np.ndarray] = []
    for rot in mats:
        if abs(np.trace(rot) + 1) < 1e-8:  # rotation by pi; involutions are symmetric
            w, vecs = np.linalg.eigh(rot)
            a = canon_axis(vecs[:, int(np.argmax(w))])
            if all(abs(float(a @ b)) < 1 - 1e-6 for b in axis_vecs):
                axis_vecs.append(a)
    assert len(axis_vecs) == 15
    axis_vecs.sort(key=lambda a: tuple(np.round(a, 8)))

    def nearest_axis(v: np.ndarray) -> int:
        dots = [abs(float(v @ a)) for a in axis_vecs]
        k = int(np.argmax(dots))
        assert dots[k] > 1 - 1e-6, "rotated axis matches no stored axis"
        return k

    triple_of = [-1] * 15
    triples: list[list[int]] = []
    for i in range(15):
        if triple_of[i] >= 0:
            continue
        members = [i] + [j for j in range(15) if j != i
                         and abs(float(axis_vecs[i] @ axis_vecs[j])) < 1e-6]
        assert len(members) == 3
        for k in members:
            triple_of[k] = len(triples)
        triples.append(members)
    assert len(triples) == 5

    table: dict[tuple[int, ...], np.ndarray] = {}
    for rot in mats:
        images = tuple(triple_of[nearest_axis(rot @ axis_vecs[triple[0]])]
                       for triple in triples)
        table[images] = rot
    assert len(table) == 60
    # spot-check the labeling is a homomorphism
    for a in list(table)[:6]:
        for b in list(table)[:6]:
            prod = tuple(a[j] for j in b)
            err = np.abs(table[prod] - table[a] @ table[b]).max()
            assert err < 1e-9, "triple labeling is not multiplicative"
    return table


# --------------------------------------------------------- representations


def _block(r3: np.ndarray, last: float) -> np.ndarray:
    out = np.zeros((4, 4))
    out[:3, :3] = r3
    out[3, 3] = last
    return out


_MODEL_DEGREE = {Model.TETRA_ROT: 4, Model.TETRA_FULL: 4,
                 Model.DODECA_ROT: 5, Model.SIMPLEX4: 5}


def representation(group: PermGroup, model: Model) -> np.ndarray:
    """Faithful SO(4) matrices for the model: a (|G|, 4, 4) array whose row i
    is the matrix of group.elements[i], the row order of group.cayley and
    of a GroupAction's images."""
    if group.degree != _MODEL_DEGREE[model]:
        raise ValueError(f"{model.value} needs degree-{_MODEL_DEGREE[model]} permutations, "
                         f"got degree {group.degree}")
    if model is not Model.TETRA_FULL and not group.even.all():
        raise ValueError(f"{model.value} represents even permutations only")
    mats = np.empty((group.order, 4, 4))
    for i, (e, even) in enumerate(zip(group.elements, group.even)):
        if model is Model.TETRA_ROT:
            mats[i] = _block(_tetra_std(e), 1.0)
        elif model is Model.TETRA_FULL:
            mats[i] = _block(_tetra_std(e), 1.0 if even else -1.0)
        elif model is Model.DODECA_ROT:
            mats[i] = _block(_icosahedral_table()[tuple(e.tolist())], 1.0)
        else:
            mats[i] = _B5 @ _perm_matrix(e) @ _B5.T
    return mats


def circles_of(mats: np.ndarray) -> tuple[Optional[FixedCircle], ...]:
    """Fixed circle of every element, in the row order of mats as
    representation returns them; None at row 0, the identity, which fixes
    the whole sphere."""
    return (None,) + tuple(fixed_set(m) for m in mats[1:])


# ----------------------------------------------------------- orbit coords


_PART_BASE_EDGE = {"tetra_edge": (2, 3), "simplex_edge": (3, 4)}


def _edge_point(corner_a: np.ndarray, corner_b: np.ndarray, t: float) -> np.ndarray:
    p = (1 - t) * corner_a + t * corner_b
    return p / np.linalg.norm(p)


def _part_base_point(model: Model, kind: str, config: ModelConfig) -> np.ndarray:
    if kind == "twin_tetra":
        c = tetra_corner(3)[:3]
        return np.concatenate([math.cos(config.theta) * c, [math.sin(config.theta)]])
    if kind == "tetra_edge":
        i, j = _PART_BASE_EDGE[kind]
        return _edge_point(tetra_corner(i), tetra_corner(j), config.t)
    if kind == "simplex_edge":
        i, j = _PART_BASE_EDGE[kind]
        return _edge_point(simplex_corner(i), simplex_corner(j), config.t)
    raise ValueError(f"part kind {kind!r} has no base point")


def _natural_corner(model: Model, i: int) -> np.ndarray:
    if model in (Model.TETRA_FULL, Model.TETRA_ROT):
        return tetra_corner(i)
    return simplex_corner(i)


def part_coords(model: Model, part: BuiltPart, mats: np.ndarray, config: ModelConfig) -> np.ndarray:
    """Coordinates for one built orbit block, aligned with its indexing."""
    if part.kind in ("tetra_corners", "knotted_k4", "simplex_corners"):
        n = 4 if part.kind != "simplex_corners" else 5
        return np.array([_natural_corner(model, i) for i in range(n)])
    if part.kind == "center":
        return POLE.reshape(1, 4).copy()
    base = _part_base_point(model, part.kind, config)
    return mats[list(part.reps)] @ base


def free_orbit_coords(mats: np.ndarray, circles: tuple[Optional[FixedCircle], ...], n: int = 1,
                      config: ModelConfig | None = None,
                      avoid: Optional[np.ndarray] = None) -> list[np.ndarray]:
    """n regular orbits of the group with matrices mats, from base points
    sampled clear of every fixed circle in circles (as circles_of gives them).

    Each base point keeps distance >= 0.05 from all fixed-point circles, and
    all produced points stay pairwise >= 1e-3 apart (also from `avoid`,
    whose own points must already be that far apart).  Orbit row i is the
    image of the base point under mats[i].  Deterministic for a fixed seed.

    `avoid` must be a union of orbits of the group (the special parts are).
    The placed points then stay invariant, and since every matrix is an
    isometry, a candidate orbit clears them exactly when its base point
    does: one distance per placed point and attempt, not |G| of them.
    """
    if n < 1:
        raise ValueError("need n >= 1 free orbits")
    config = config or ModelConfig()
    circles = [c for c in circles[1:] if not c.empty]
    rng = np.random.default_rng(config.seed)
    placed = np.empty((0, 4)) if avoid is None else np.asarray(avoid)
    closest = closest_distance(placed)
    if closest < FREE_ORBIT_SEP:
        raise PlacementError(f"special-part vertices are only {closest} apart")
    orbits = []
    for _ in range(n):
        for attempt in range(400):
            p = rng.standard_normal(4)
            p /= np.linalg.norm(p)
            if circles and min(c.residual(p) for c in circles) < FREE_CIRCLE_CLEARANCE:
                continue
            orbit = mats @ p
            # any row of an invariant orbit can serve as the base point
            base, others = orbit[0], orbit[1:]
            own = float(np.linalg.norm(others - base, axis=1).min())
            if min(own, closest_distance(base[None], placed)) < FREE_ORBIT_SEP:
                continue
            orbits.append(orbit)
            placed = np.vstack([placed, orbit])
            break
        else:
            raise PlacementError(f"could not place free orbit after 400 attempts (n={n})")
    return orbits


def closest_distance(a: np.ndarray, b: Optional[np.ndarray] = None,
                     rows: Optional[np.ndarray] = None) -> float:
    """Smallest distance from a row of a to a row of b, or to another row of
    a when b is None (inf when there is no such pair).  `rows` restricts
    the first point to those rows of a (all by default).  Works through
    them in blocks, so memory stays linear in len(b); a NaN gives NaN."""
    same = b is None
    b = a if same else b
    rows = np.arange(len(a)) if rows is None else np.asarray(rows)
    mins = [np.inf]
    for start in range(0, len(rows) if len(b) else 0, _DISTANCE_BLOCK):
        block = rows[start:start + _DISTANCE_BLOCK]
        d = np.linalg.norm(a[block, None, :] - b[None, :, :], axis=2)
        if same:
            d[np.arange(len(block)), block] = np.inf
        mins.append(d.min())
    return float(np.min(mins))


# ------------------------------------------------------------ realization


@dataclass
class Realization:
    """A vertex action made concrete: matrices plus coordinates on the sphere."""

    plan: OrbitPlan
    vertex_action: VertexAction
    model: Model
    config: ModelConfig
    mats: np.ndarray    # (|G|, 4, 4), acting (possibly restricted) group; row i is elements[i]
    coords: np.ndarray  # (m, 4)

    @property
    def group(self) -> PermGroup:
        return self.vertex_action.action.group

    @property
    def m(self) -> int:
        return self.vertex_action.m

    @cached_property
    def circles(self) -> tuple[Optional[FixedCircle], ...]:
        """Fixed circle of each element in row order (None at row 0).
        realize sets it; a realization rebuilt from a file computes it on
        first use."""
        return circles_of(self.mats)


def require_at_most(value: float, bound: float, message: str) -> None:
    """The one tolerance test of the realization and certificate checks.
    Written as `not (value <= bound)` so that a NaN anywhere fails it."""
    if not value <= bound:
        raise AssertionError(message)


def _max_hom_error(group: PermGroup, mats: np.ndarray) -> float:
    row_errors = [np.abs(mats[i] @ mats - mats[group.cayley[i]]).max() for i in range(group.order)]
    return float(np.max(row_errors))


def _check_matrices(r: Realization) -> None:
    ortho = float(np.abs(r.mats.transpose(0, 2, 1) @ r.mats - np.eye(4)).max())
    require_at_most(ortho, ORTHO_TOL, f"matrices not orthogonal to tolerance: {ortho}")
    det = float(np.abs(np.linalg.det(r.mats) - 1).max())
    require_at_most(det, DET_TOL, f"matrices must have determinant +1, off by {det}")
    hom = _max_hom_error(r.group, r.mats)
    require_at_most(hom, HOM_TOL, f"matrix homomorphism error {hom}")


def _check_invariance(r: Realization) -> None:
    act = r.vertex_action.action
    # non-finite coordinates give a NaN error, which fails quietly below
    with np.errstate(invalid="ignore", over="ignore"):
        for e, mat, img in zip(r.group.elements, r.mats, act.images):
            moved = r.coords @ mat.T
            err = float(np.abs(moved - r.coords[img]).max())
            require_at_most(err, INVARIANCE_TOL,
                            f"element {tuple(e.tolist())} moves vertices off their images by {err}")


def _min_separation(r: Realization) -> float:
    """Closest pair, measured from one representative per vertex orbit.

    The smallest vertex of each orbit represents it.  For a pair (g.v, w)
    with v a representative, |g.v - w| = |v - g^-1.w| once the coordinates
    are invariant, so the representatives' distances to all m points cover
    every pair: (#orbits)*m distances instead of m^2/2.
    """
    images = r.vertex_action.action.images
    representatives = np.flatnonzero(images.min(axis=0) == np.arange(r.m))
    return closest_distance(r.coords, rows=representatives)


def _check_separation(r: Realization) -> None:
    # Sound only after `invariance` (and, on a certificate, the action
    # checks) have passed: the images must form a group action, and each
    # vertex may sit off its image by at most INVARIANCE_TOL per coordinate.
    # The two vertex errors in a pair then move a distance by at most
    # 2*INVARIANCE_TOL per coordinate (4e-9 in length), plus a relative
    # 2*ORTHO_TOL from the matrices: far below MIN_VERTEX_SEP (1e-6).
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
    mats = representation(parent, p.model)
    circles = circles_of(mats)

    specials = [part_coords(p.model, b, mats, config)
                for b in va.parts if b.kind != "free"]
    n_free = len(va.parts) - len(specials)
    avoid = np.vstack(specials) if specials else None
    frees = iter(free_orbit_coords(mats, circles, n_free, config, avoid) if n_free else ())
    blocks = iter(specials)
    coords = np.vstack([next(frees if b.kind == "free" else blocks) for b in va.parts])

    sub = restricted_group(p)
    if sub is not None:
        rows = parent.rows(sub.elements)
        mats, circles = mats[rows], tuple(circles[i] for i in rows)
    r = Realization(p, va, p.model, config, mats, coords)
    r.circles = circles
    validate_realization(r)
    return r


# --------------------------------------------------------------- profiles


def geometric_profile(r: Realization) -> FixedVertexProfile:
    """Count vertices on each element's fixed circle; the count must be
    constant on every class (the profile check compares it with the
    combinatorial measured profile)."""
    counts = {}
    for name, rows in r.group.classes.items():
        if name == "n1":
            continue
        vals = {int(r.circles[i].on_circle(r.coords).sum()) for i in rows}
        if len(vals) != 1:
            raise AssertionError(f"geometric counts differ within class {name}: {vals}")
        counts[name] = vals.pop()
    return FixedVertexProfile.from_counts(r.group.name, counts)
