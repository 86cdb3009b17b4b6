"""Shared fixtures: the 14 reference cases, realized once per session."""

import copy

import numpy as np
import pytest

from tsglab.actions import RESTRICT_EVEN_S4, RESTRICT_STAB_A5, build, plan
from tsglab.edges import INSIDE_MARGIN, PAIR_TOL, _interior_holds
from tsglab.geometry import PrecisionError, Realization, plane_distance, projectors, realize
from tsglab.perm import (GroupAction, InconsistentActionError, Orbits, from_cycles, generated,
                         left_cosets, standard_group)
from tsglab.profiles import profile_rules

REFERENCES = ([("S4", m) for m in (24, 4, 8, 12, 20, 28)]
              + [("A5", m) for m in (60, 61, 5, 20, 80)]
              + [("A4", m) for m in (16, 13, 17)])


@pytest.fixture(scope="session")
def realized():
    """(group, m) -> (vertex action, realization) at the default seed.
    Shared by every test module, so no test may mutate them."""
    out = {}
    for g, m in REFERENCES:
        p = plan(g, m)
        va = build(p)
        out[(g, m)] = (va, realize(p, va))
    return out


def close_free_orbits():
    """S4 m=48 with the representative of its second free orbit moved to a
    point 1e-7 from the first orbit's: invariant, each orbit well spread,
    yet two vertices 1e-7 apart."""
    p = plan("S4", 48)
    r = realize(p, build(p))
    first, second = (b for b in r.vertex_action.parts if b.kind == "free")
    point = r.base[first.start]
    nudge = np.array([1.0, -1.0, 0.5, 0.25])
    nudge -= (nudge @ point) * point
    moved = point + 1e-7 * nudge / np.linalg.norm(nudge)
    base = r.base.copy()
    base[second.start] = moved / np.linalg.norm(moved)
    return Realization(r.vertex_action, r.model, r.config, r.mats, base)


def action_table(a):
    """All |G|·m images of an action, worked out here from its generator
    rows along tree_table: the whole-table reference the tests compare
    the orbit-local reads with.  For a homomorphism it is the action."""
    return tree_table(a.group, a.group.generators, a.gen_images)


def all_column_homomorphism(a):
    """act(x * s) == act(x) after act(s) for every row x, each generator s
    and all m columns of action_table: the reference for
    check_homomorphism, which reads the orbit representatives' images
    only."""
    imgs, g = action_table(a), a.group
    for s in g.generators:
        bad = np.flatnonzero((imgs[g.cayley[:, s]] != imgs[:, imgs[s]]).any(axis=1))
        if len(bad):
            e1, e2 = g.elements[bad[0]].tolist(), g.elements[s].tolist()
            raise InconsistentActionError(f"act({e1} * {e2}) != act({e1}) * act({e2})")


def all_column_orbits(a):
    """Who is where, worked out from all |G|·m images of action_table:
    the reference for GroupAction.orbits.  Each vertex's orbit minimum is
    the smallest of its images; the representatives are the distinct
    minima, the carrier of w is the first row that takes its minimum to
    w, and the block is the table's columns at the representatives."""
    imgs = action_table(a)
    low = imgs.min(axis=0)
    reps, index = np.unique(low, return_inverse=True)
    carrier = (imgs[:, low] == np.arange(a.m)).argmax(axis=0)
    return Orbits(reps, index, carrier, imgs[:, reps])


def pair_stabilizers(a, pairs):
    """Boolean (len(pairs), |G|) mask: row k marks the elements fixing both
    vertices of pairs[k] pointwise, the identity (column 0) included, read
    off the images of both vertices under every element: the reference
    for the pair fixers full_report reads off the fixed-point table."""
    ends = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    if (ends[:, 0] == ends[:, 1]).any() or not ((0 <= ends) & (ends < a.m)).all():
        raise ValueError(f"need two distinct vertices below m={a.m}")
    return (action_table(a)[:, ends] == ends).all(axis=2).T


def all_column_fixed(a):
    """Who fixes what, worked out from all |G|·m images of action_table:
    the reference for GroupAction.fixed_points and edges.interchangers,
    which read the orbit table's block only.  The (|G|, m) mask of the rows fixing
    each vertex, its row sums, the vertices fixed by more than the
    identity ("pinned"), how many rows fix each pair of those, and the
    rows that swap some pair of vertices."""
    imgs, ident = action_table(a), np.arange(a.m)
    fixed = imgs == ident
    pinned = np.flatnonzero(fixed.sum(axis=0) > 1)
    f = fixed[:, pinned].astype(np.int64)
    swaps = (imgs != ident) & (np.take_along_axis(imgs, imgs, axis=1) == ident)
    return {"fixed": fixed, "counts": fixed.sum(axis=1), "pinned": pinned, "pairs": f.T @ f,
            "swappers": np.flatnonzero(swaps.any(axis=1))}


# the fixed-set SVD's decision band: a singular value of M - I is zero below
# SV_ZERO (at most 4.3e-16 on a fixed plane, at least 2·sin(π/5) ≈ 1.18 off
# it), and one in [SV_ZERO, SV_AMBIGUOUS) raises PrecisionError
SV_ZERO = 1e-7
SV_AMBIGUOUS = 1e-6


def canonical_rows(rows):
    """Stacked (..., 2, 4) plane bases in one canonical form: each row
    signed so its largest entry in magnitude (the first on a tie) is
    positive, then the two rows ordered by their entries rounded to 9
    decimals (kept in place when those agree)."""
    top = np.take_along_axis(rows, np.abs(rows).argmax(axis=-1)[..., None], axis=-1)
    signed = np.where(top < 0, -rows, rows)
    key = np.round(signed, 9)
    differ = key[..., 0, :] != key[..., 1, :]
    first = differ.argmax(axis=-1)[..., None]
    swap = np.take_along_axis(key[..., 1, :], first, -1) < np.take_along_axis(key[..., 0, :], first, -1)
    return np.where(swap[..., None], signed[..., ::-1, :], signed)


def fixed_set(mats):
    """+1 eigenplanes of a (..., 4, 4) stack of special-orthogonal matrices,
    from one SVD of M - I: (..., 2, 4) orthonormal bases in canonical form,
    zero where a matrix fixes nothing.  The identity is rejected (it fixes
    the whole sphere, not a circle), and singular values in the ambiguous
    band raise PrecisionError rather than guessing a dimension; the first
    offending matrix decides the error.  An eigensolver reference for the
    averaged planes (geometry.fixed_planes) and the bases read off them
    (geometry.circles_of), which take no SVD."""
    m = np.asarray(mats, dtype=float)
    if m.shape[-2:] != (4, 4):
        raise ValueError("expected 4x4 matrices")
    _, sv, vt = np.linalg.svd(m.reshape(-1, 4, 4) - np.eye(4))
    dim = np.count_nonzero(sv < SV_ZERO, axis=1)
    ambiguous = ((sv >= SV_ZERO) & (sv < SV_AMBIGUOUS)).any(axis=1)
    offending = np.flatnonzero(ambiguous | ((dim != 0) & (dim != 2)))
    if offending.size:
        i = offending[0]
        if ambiguous[i]:
            raise PrecisionError(f"singular values too close to zero to classify: {sv[i]}")
        if dim[i] == 4:
            raise ValueError("identity matrix fixes the whole sphere; not a circle")
        raise PrecisionError(f"fixed subspace of dimension {dim[i]}; SO(4) allows only 0, 2 or 4")
    bases = np.where((dim == 2)[:, None, None], canonical_rows(vt[:, -2:]), 0.0)
    return bases.reshape(m.shape[:-2] + (2, 4))


def svd_circles(mats):
    """fixed_set of every element of a (|G|, 4, 4) stack in row order, zero
    at row 0, the identity, as at the elements that fix nothing."""
    return np.concatenate([np.zeros((1, 2, 4)), fixed_set(mats[1:])])


def svd_planes(mats):
    """projectors(svd_circles(mats)): each element's fixed plane from one SVD
    of M - I, the reference for geometry.fixed_planes, which averages M
    over the cyclic group of each element instead."""
    return projectors(svd_circles(mats))


def all_vertex_inside(r, arcs):
    """inside[k, w] with every arc row measured against all m vertices,
    one stacked (rows, m, 4) product: the reference for
    edges._vertices_inside, which runs the exact tests only on the
    vertices one product with the fixers' bases finds near a circle."""
    on_circle = plane_distance(svd_planes(r.mats)[arcs.fixers], r.coords) <= PAIR_TOL
    on_circle &= (np.arange(r.m) != arcs.pairs[:, :1]) & (np.arange(r.m) != arcs.pairs[:, 1:])
    k, w = np.nonzero(on_circle)
    inside = np.zeros_like(on_circle)
    inside[k, w] = _interior_holds(arcs, k, r.coords[w, None], INSIDE_MARGIN)[:, 0]
    return inside


def orbit_partition(a):
    """Orbits by union-find over every element's image row; the independent
    cross-check for Burnside counting."""
    parent = list(range(a.m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for img in action_table(a).tolist():
        for v in range(a.m):
            ra, rb = find(v), find(img[v])
            if ra != rb:
                parent[rb] = ra
    orbits: dict[int, list[int]] = {}
    for v in range(a.m):
        orbits.setdefault(find(v), []).append(v)
    return sorted(orbits.values())


# orbits one part instance contributes, by restriction: a restriction to
# A4 splits a free S4 orbit in 2 and a free A5 orbit in 5, twin tetrahedra
# into the two tetrahedra, the 5 simplex corners into 4 + 1 and the 20
# simplex edge points into 4 + 4 + 12; knotted_k5 is corners plus a center
ORBITS_PER_PART = {
    None: {"free": 1, "tetra_corners": 1, "twin_tetra": 1, "tetra_edge": 1,
           "simplex_corners": 1, "simplex_edge": 1, "center": 1,
           "knotted_k4": 1, "knotted_k5": 2},
    RESTRICT_EVEN_S4: {"free": 2, "tetra_corners": 1, "twin_tetra": 2, "tetra_edge": 1},
    RESTRICT_STAB_A5: {"free": 5, "simplex_corners": 2, "simplex_edge": 3, "center": 1},
}


def expected_orbit_count(p):
    """The orbit count of the action a plan builds, from ORBITS_PER_PART:
    the reference the Burnside counts are compared with."""
    table = ORBITS_PER_PART[p.restriction]
    return sum(table[s.kind] * s.count for s in p.parts)


def direct_sum(actions):
    """Disjoint union of actions of one group: their generator rows side
    by side, each offset to its part's start."""
    offsets = np.cumsum([0] + [a.m for a in actions[:-1]])
    return GroupAction(actions[0].group,
                       np.hstack([a.gen_images + off for a, off in zip(actions, offsets)]))


def table_sum(tables):
    """Whole (|G|, m) tables of one group side by side, each offset to its
    block's start: the table of the disjoint union of their actions."""
    offsets = np.cumsum([0] + [t.shape[1] for t in tables[:-1]])
    return np.hstack([t + off for t, off in zip(tables, offsets)])


def coset_table(g, h):
    """All |G| rows of the left-multiplication action on the left cosets
    of the rows h: row x sends the coset of r to that of x * r."""
    reps, coset_of = left_cosets(g, h)
    return coset_of[g.cayley[:, reps]]


def stacked_table(p):
    """The whole (|G|, m) action table of a plan's building group, stacked
    from one complete table per block: a coset action (free orbits on the
    trivial subgroup, twin tetrahedra and simplex edge points on a
    3-cycle's, tetrahedron edge points on a transposition's), the natural
    action on the letters, or one fixed point.  The reference for build,
    which lays down generator rows only."""
    g = standard_group(p.building_group)
    cosets = {"free": (0,), **{kind: generated(g, g.rows([cycle])) for kind, cycle in (
        ("twin_tetra", from_cycles(4, (0, 1, 2))), ("tetra_edge", from_cycles(4, (0, 1))),
        ("simplex_edge", from_cycles(5, (0, 1, 2))))}}
    natural, center = g.elements, np.zeros((g.order, 1), dtype=int)
    pieces = []
    for spec in p.parts:
        if spec.kind in cosets:
            pieces += [coset_table(g, cosets[spec.kind])] * spec.count
        elif spec.kind == "center":
            pieces.append(center)
        elif spec.kind == "knotted_k5":
            pieces += [natural, center]
        else:  # tetra_corners, simplex_corners, knotted_k4
            pieces.append(natural)
    return table_sum(pieces)


def tree_table(g, gens, gen_images):
    """The table a pair of rows gens and their image rows give along a
    breadth-first tree from the identity over the Cayley table: row x * s
    gets act(x) after act(s), and a generator's images are never
    overwritten.  Any pair, not only PermGroup.generators: the walk
    certificate._rebuild would take over a forged pair."""
    gens = list(gens)
    images = np.empty((g.order, len(gen_images[0])), dtype=int)
    images[0], images[gens] = np.arange(images.shape[1]), gen_images
    queue, seen = [0], {0}
    for x in queue:
        for s in gens:
            y = int(g.cayley[x, s])
            if y not in seen:
                seen.add(y)
                queue.append(y)
                if y not in gens:
                    images[y] = images[x][images[s]]
    return images


def passes_profile_rules(group, p, drop=()):
    return all(r.check(p) for r in profile_rules(group, drop))


def expand_certificate(data):
    """The image row and the matrix of every element, keyed by its
    permutation, and all m coordinates of a certificate, worked out here
    from products of the stored generators and not through the verifier."""
    m = data["m"]
    gens = [(tuple(g["perm"]), np.array(g["vertex_images"]), np.array(g["matrix"]).reshape(4, 4))
            for g in data["generators"]]
    identity = tuple(range(len(gens[0][0])))
    images, mats, frontier = {identity: np.arange(m)}, {identity: np.eye(4)}, [identity]
    while frontier:
        x = frontier.pop()
        for perm, img, mat in gens:
            y = tuple(x[k] for k in perm)  # x * perm: perm first
            if y not in images:
                images[y], mats[y] = images[x][img], mats[x] @ mat
                frontier.append(y)
    coords = np.empty((m, 4))
    for v in data["vertices"]:
        for e, img in images.items():
            coords[img[v["id"]]] = mats[e] @ np.array(v["coords"])
    return images, mats, coords


def relabel_vertices(data, new, reverse_arcs):
    """A copy of a certificate with vertex v renamed new[v], for a
    permutation new of 0..m-1: the generator images conjugated by it, each
    vertex record moved to its orbit's smallest new label with the
    coordinates expand_certificate gives that vertex (records keep their
    places, so the ids are in no set order), and each arc re-keyed with its
    pair ascending.  An arc whose pair order flips is reversed if
    reverse_arcs, so that it still starts at the pair's first vertex, and
    otherwise keeps its angles, so that it is written from its other
    endpoint."""
    old = np.argsort(new)
    images, _, coords = expand_certificate(data)
    out = copy.deepcopy(data)
    for gen in out["generators"]:
        gen["vertex_images"] = new[np.asarray(gen["vertex_images"])[old]].tolist()
    for rec in out["vertices"]:
        rec["id"] = int(min(new[img[rec["id"]]] for img in images.values()))
        rec["coords"] = coords[old[rec["id"]]].tolist()
    for arc in out["arcs"]:
        u, v = new[arc["pair"]].tolist()
        if u > v:
            u, v = v, u
            if reverse_arcs:
                arc["start"], arc["sweep"] = arc["start"] + arc["sweep"], -arc["sweep"]
        arc["pair"] = [u, v]
    return out
