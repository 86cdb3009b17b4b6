import dataclasses
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsglab.actions import Model, measured_profile, plan
from tsglab.geometry import (
    POLE,
    REALIZATION_CHECKS,
    ModelConfig,
    PlacementError,
    PrecisionError,
    Realization,
    UnsupportedGeometryError,
    circles_of,
    fixed_planes,
    free_orbit_coords,
    geometric_profile,
    plane_distance,
    projectors,
    realize,
    representation,
    same_circle,
    shared_lines,
    simplex_corner,
    tetra_corner,
    validate_realization,
)
from tsglab import edges, geometry
from tsglab.edges import full_report
from tsglab.geometry import CellGrid, _closest_pair, _max_hom_error, _min_separation
from tsglab.perm import (
    GroupAction,
    PermGroup,
    check_homomorphism,
    from_cycles,
    standard_group,
)

from .conftest import (REFERENCES, action_table, canonical_rows, close_free_orbits, fixed_set,
                       svd_circles, svd_planes)

S4 = standard_group("S4")
A4 = standard_group("A4")
A5 = standard_group("A5")


GROUP_OF = {Model.TETRA_FULL: S4, Model.TETRA_ROT: A4, Model.DODECA_ROT: A5, Model.SIMPLEX4: A5}


@pytest.fixture(scope="module")
def reps():
    """model -> {image tuple: matrix}, for looking matrices up by element."""
    return {model: dict(zip(map(tuple, g.elements.tolist()), representation(g, model)))
            for model, g in GROUP_OF.items()}


# --------------------------------------------------------- representations


def test_identity_maps_to_identity(reps):
    for model, rep in reps.items():
        g = A4 if model is Model.TETRA_ROT else (S4 if model is Model.TETRA_FULL else A5)
        assert np.abs(rep[from_cycles(g.degree)] - np.eye(4)).max() < 1e-12


def test_matrices_special_orthogonal(reps):
    for rep in reps.values():
        for mat in rep.values():
            assert np.abs(mat.T @ mat - np.eye(4)).max() < 1e-9
            assert abs(np.linalg.det(mat) - 1) < 1e-9


def test_homomorphism_error_tiny():
    assert _max_hom_error(S4, representation(S4, Model.TETRA_FULL)) < 1e-12
    assert _max_hom_error(A5, representation(A5, Model.DODECA_ROT)) < 1e-12
    assert _max_hom_error(A5, representation(A5, Model.SIMPLEX4)) < 1e-12
    assert _max_hom_error(A4, representation(A4, Model.TETRA_ROT)) < 1e-12


def test_representations_faithful(reps):
    for rep in reps.values():
        keys = {tuple(np.round(m, 6).ravel()) for m in rep.values()}
        assert len(keys) == len(rep)


def test_incompatible_pairs_rejected():
    with pytest.raises(ValueError):
        representation(S4, Model.SIMPLEX4)
    with pytest.raises(ValueError):
        representation(S4, Model.TETRA_ROT)  # odd elements have no rotation image
    # an A4 on five letters that moves letter 4 lacks (0 1)(2 3) and (0 2)(1 3)
    a4_fixing_3 = PermGroup("A4", A5.elements[A5.elements[:, 3] == 3])
    with pytest.raises(ValueError, match="involutions"):
        representation(a4_fixing_3, Model.DODECA_ROT)


def test_self_dual_action_equals_the_four_operand_contraction():
    """The SO(3) stack _icosahedral snaps, one stacked product then one
    contraction, equals the direct four-operand contraction within 1e-12
    before snapping: on the SIMPLEX4 matrices of A5 and on random 4×4
    matrices."""
    perms = np.eye(5)[A5.elements].transpose(0, 2, 1)
    random = np.random.default_rng(0).normal(size=(50, 4, 4))
    for stack in (geometry._B5 @ perms @ geometry._B5.T, random):
        reference = np.einsum("kij,nia,lab,njb->nkl", geometry._SELF_DUAL, stack,
                              geometry._SELF_DUAL, stack) / 4
        assert np.abs(geometry._self_dual_action(stack) - reference).max() <= 1e-12


def test_dodeca_rot_is_icosahedral_in_the_klein_frame(reps):
    """Every entry is exactly one of the nine icosahedral values, the Klein
    involutions fixing letter 4 are diagonal, and the traces are the
    icosahedral character: 3, -1, 0 on n1, n2, n3, and phi on one 5-cycle
    class and -1/phi on the other (x and x^2 lie in different classes)."""
    rep = reps[Model.DODECA_ROT]
    phi = (1 + math.sqrt(5)) / 2
    values = {0.0, 0.5, phi / 2, 1 / (2 * phi), 1.0}
    values |= {-x for x in values}
    mats = np.array(list(rep.values()))  # in A5 row order
    block = mats[:, :3, :3]
    assert set(block.ravel().tolist()) <= values
    assert (mats[:, 3] == POLE).all() and (mats[:, :, 3] == POLE).all()
    for cycles in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
        mat = rep[from_cycles(5, *cycles)]
        assert (mat == np.diag(np.diag(mat))).all(), cycles
    expect = {"n1": {3.0}, "n2": {-1.0}, "n3": {0.0}}
    for name, rows in A5.classes.items():
        rows = list(rows)
        traces = np.trace(block[rows], axis1=1, axis2=2)
        if name in expect:
            assert set(np.round(traces, 12).tolist()) == expect[name], name
        else:
            squares = np.trace(block[A5.cayley[rows, rows]], axis1=1, axis2=2)
            for pair in zip(traces, squares):
                assert sorted(pair) == pytest.approx([-1 / phi, phi], abs=1e-12)


# ------------------------------------------------------------- fixed sets


def test_4cycle_is_fixed_point_free(reps):
    assert not fixed_set(reps[Model.TETRA_FULL][from_cycles(4, (0, 1, 2, 3))]).any()


def test_5cycle_glides_in_simplex_but_rotates_in_dodeca(reps):
    five = from_cycles(5, (0, 1, 2, 3, 4))
    assert not fixed_set(reps[Model.SIMPLEX4][five]).any()
    assert fixed_set(reps[Model.DODECA_ROT][five]).any()


def test_identity_rejected_by_fixed_set():
    with pytest.raises(ValueError):
        fixed_set(np.eye(4))


def test_dichotomy_by_model(reps):
    # no circle (a zero basis) exactly on order-4 elements of the twisted
    # tetra model and on order-5 elements of the simplex model; never in
    # the rotation-only models; otherwise an orthonormal basis
    expect_empty = {Model.TETRA_FULL: 4, Model.SIMPLEX4: 5}
    for model, rep in reps.items():
        g = GROUP_OF[model]
        for e, mat in rep.items():
            i = g.rows([e])[0]
            if i == 0:  # the identity
                continue
            fc = fixed_set(mat)
            assert fc.shape == (2, 4)
            empty = not fc.any()
            assert empty == (g.orders[i] == expect_empty.get(model)), (model, e)
            if not empty:
                assert np.abs(fc @ fc.T - np.eye(2)).max() < 1e-12


def test_circles_of_rows_equal_lone_fixed_sets():
    """The test-local SVD reference: its one stacked SVD gives each row
    bitwise what fixed_set gives for that matrix alone."""
    for model, g in GROUP_OF.items():
        mats = representation(g, model)
        circles = svd_circles(mats)
        assert circles.shape == (g.order, 2, 4)
        for i in range(1, g.order):
            assert np.array_equal(circles[i], fixed_set(mats[i])), (model, i)


def test_circles_of_zero_rows_are_the_identity_and_the_fixed_point_free():
    empty_class = {Model.TETRA_FULL: "n4", Model.SIMPLEX4: "n5"}
    for model, g in GROUP_OF.items():
        circles = circles_of(fixed_planes(g, representation(g, model)))
        zero = np.flatnonzero(~circles.any(axis=(1, 2)))
        expect = [0] + (list(g.classes[empty_class[model]]) if model in empty_class else [])
        assert zero.tolist() == expect, model


def test_circles_of_reads_orthonormal_bases_of_the_svd_planes():
    """On every non-identity element of the four models, the bases read off
    the averaged planes are orthonormal within ERROR_TOL and span the plane
    the SVD reference finds (projectors within CIRCLE_EQ_TOL), and they
    are exactly zero where the element fixes nothing."""
    for model, g in GROUP_OF.items():
        mats = representation(g, model)
        bases = circles_of(fixed_planes(g, mats))[1:]
        reference = svd_planes(mats)[1:]
        circle = reference.any(axis=(1, 2))
        assert circle.any() and not bases[~circle].any(), model
        gram = bases[circle] @ bases[circle].transpose(0, 2, 1)
        assert np.abs(gram - np.eye(2)).max() <= geometry.ERROR_TOL, model
        assert same_circle(projectors(bases), reference).all(), model


def test_no_circle_is_on_nothing_and_equals_only_no_circle():
    planes = projectors(circles_of(fixed_planes(A4, representation(A4, Model.TETRA_ROT))))
    zero, circle = planes[0], planes[1]
    assert np.abs(plane_distance(zero, np.vstack([POLE, tetra_corner(0)])) - 1).max() < 1e-12
    assert same_circle(zero, np.zeros((4, 4)))
    assert not same_circle(zero, planes[1:]).any()
    assert plane_distance(circle, POLE) < 1e-12 and not same_circle(circle, zero)


def test_fixed_set_stack_raises_at_first_offending_matrix(reps):
    rotation = reps[Model.TETRA_ROT][from_cycles(4, (0, 1, 2))]
    reflection = np.diag([-1.0, 1.0, 1.0, 1.0])  # fixes a 3-space
    with pytest.raises(ValueError, match="identity"):
        fixed_set(np.stack([rotation, np.eye(4), reflection]))
    with pytest.raises(PrecisionError, match="dimension 3"):
        fixed_set(np.stack([rotation, reflection, np.eye(4)]))


def _canonical_rows_loop(rows):
    """The per-basis loop that the stacked canonical_rows replaced."""
    out = []
    for r in rows:
        k = int(np.argmax(np.abs(r)))
        out.append(-r if r[k] < 0 else r)
    return np.array(sorted(out, key=lambda r: tuple(np.round(r, 9))))


def test_canonical_rows_match_the_per_basis_loop():
    """Bitwise, on the raw SVD bases of every non-identity element of the
    four models, on random in-plane rotations and sign flips of them, and
    on rows whose rounded keys tie or whose largest entries tie."""
    rng = np.random.default_rng(0)
    raw = np.concatenate([np.linalg.svd(representation(g, model)[1:] - np.eye(4))[2][:, -2:]
                          for model, g in GROUP_OF.items()])
    turn = rng.uniform(0, 2 * np.pi, len(raw))
    c, s = np.cos(turn)[:, None], np.sin(turn)[:, None]
    turned = np.stack([c * raw[:, 0] + s * raw[:, 1], c * raw[:, 1] - s * raw[:, 0]], axis=1)
    flipped = turned * rng.choice([-1.0, 1.0], size=(len(raw), 2, 1))
    row = np.array([0.6, -0.8, 0.0, 0.0])
    ties = np.array([[row, row + 1e-12], [row + 1e-12, row], [-row, row],
                     [[0.5, -0.5, 0.5, -0.5], [-0.5, 0.5, -0.5, 0.5]]])
    for bases in (raw, turned, flipped, ties):
        stacked = canonical_rows(bases)
        for got, basis in zip(stacked, bases):
            assert got.tobytes() == _canonical_rows_loop(basis).tobytes(), basis


def test_fixed_set_ambiguous_singular_values_raise_at_first_offending_matrix(reps):
    rotation = reps[Model.TETRA_ROT][from_cycles(4, (0, 1, 2))]
    tiny = np.eye(4)
    tiny[:2, :2] = [[math.cos(5e-7), -math.sin(5e-7)], [math.sin(5e-7), math.cos(5e-7)]]
    with pytest.raises(PrecisionError, match="too close to zero"):
        fixed_set(np.stack([rotation, tiny, np.eye(4)]))
    with pytest.raises(ValueError, match="identity"):
        fixed_set(np.stack([rotation, np.eye(4), tiny]))


def test_fixed_planes_trace_off_zero_or_two_raises_at_first_offending_row():
    """In A4 each involution's cyclic group is itself and the identity, so
    adding d·I to its matrix moves its plane's trace, 2, by 2d and no
    other row's.  Past PLANE_ERROR the first such row raises, naming its
    element; within it nothing does.  Matrices that are all I put trace 4
    at row 1."""
    mats = representation(A4, Model.TETRA_ROT)
    late, early = A4.classes["n2"][2], A4.classes["n2"][0]
    beyond, within = mats.copy(), mats.copy()
    beyond[[late, early]] += np.eye(4) * geometry.PLANE_ERROR
    within[[late, early]] += np.eye(4) * geometry.PLANE_ERROR / 4
    def element(row):
        return re.escape(str(tuple(A4.elements[row].tolist())))

    with pytest.raises(PrecisionError, match=rf"element {element(early)} has trace 2\.0000000000"):
        fixed_planes(A4, beyond)
    assert np.abs(fixed_planes(A4, within) - fixed_planes(A4, mats)).max() <= geometry.PLANE_ERROR
    with pytest.raises(PrecisionError, match=rf"element {element(1)} has trace 4\.0"):
        fixed_planes(A4, np.broadcast_to(np.eye(4), mats.shape))
    nan = mats.copy()
    nan[late, 0, 0] = np.nan
    with pytest.raises(PrecisionError, match="trace nan"):
        fixed_planes(A4, nan)


def test_double_transposition_circle_in_simplex(reps):
    # fix((01)(23)) is the plane x0 = x1, x2 = x3 inside the sum-zero space
    fc = fixed_set(reps[Model.SIMPLEX4][from_cycles(5, (0, 1), (2, 3))])
    from tsglab.geometry import _B5

    w = _B5 @ np.array([3.0, 3.0, -2.0, -2.0, -2.0])
    w /= np.linalg.norm(w)
    assert plane_distance(projectors(fc), w) <= 1e-9


def test_3cycle_circle_contains_complementary_simplex_vertices(reps):
    from tsglab.geometry import simplex_corner

    fc = fixed_set(reps[Model.SIMPLEX4][from_cycles(5, (0, 1, 2))])
    corners = np.vstack([simplex_corner(3), simplex_corner(4)])
    assert (plane_distance(projectors(fc), corners) <= 1e-9).all()


def test_circle_pairs_intersect_in_0_or_2_points():
    for model in (Model.TETRA_FULL, Model.SIMPLEX4):
        g = GROUP_OF[model]
        circles = [c for c in svd_planes(representation(g, model)) if c.any()]
        distinct = []
        for c in circles:
            if all(not same_circle(c, d) for d in distinct):
                distinct.append(c)
        for i, c in enumerate(distinct):
            for d in distinct[i + 1:]:
                count, v = shared_lines(c, d)
                assert count in (0, 1)  # no point, or the antipodes on one line
                for p in (v, -v)[:2 * count]:
                    assert plane_distance(c, p) <= 1e-8 and plane_distance(d, p) <= 1e-8


# ------------------------------------------------------------ part coords


def _part_block(r, kind):
    part = next(b for b in r.vertex_action.parts if b.kind == kind)
    block = r.coords[part.start:part.start + part.size]
    assert np.abs(np.linalg.norm(block, axis=1) - 1).max() < 1e-9
    return block


def _stabilizer_sizes(r, block):
    return {sum(1 for mat in r.mats if np.linalg.norm(mat @ p - p) < 1e-9)
            for p in block}


def test_tetra_corners_natural_permutation():
    r = realize(plan("S4", 4))
    coords = _part_block(r, "tetra_corners")
    for mat, e in zip(r.mats, S4.elements):
        for i in range(4):
            assert np.linalg.norm(mat @ coords[i] - coords[e[i]]) < 1e-9


def test_twin_tetra_has_order3_stabilizers():
    r = realize(plan("S4", 8))
    coords = _part_block(r, "twin_tetra")
    assert coords.shape == (8, 4)
    assert _stabilizer_sizes(r, coords) == {3}


def test_simplex_edge_points_have_order3_stabilizers():
    r = realize(plan("A5", 20))
    coords = _part_block(r, "simplex_edge")
    assert coords.shape == (20, 4)
    assert _stabilizer_sizes(r, coords) == {3}


def test_center_fixed_by_all_tetra_rotations(reps):
    for mat in reps[Model.TETRA_ROT].values():
        assert np.linalg.norm(mat @ POLE - POLE) < 1e-12


def test_midpoint_parameter_rejected():
    with pytest.raises(ValueError, match="midpoint"):
        ModelConfig(t=0.5)
    with pytest.raises(ValueError):
        ModelConfig(t=0.0)
    with pytest.raises(ValueError):
        ModelConfig(theta=0.0)


# ------------------------------------------------------------ free orbits


def _matrices_and_planes(g, model):
    mats = representation(g, model)
    return mats, fixed_planes(g, mats)


def test_free_orbit_sizes():
    orbits = free_orbit_coords(*_matrices_and_planes(A4, Model.TETRA_ROT), 1)
    assert len(orbits) == 1 and orbits[0].shape == (12, 4)
    orbits = free_orbit_coords(*_matrices_and_planes(A5, Model.SIMPLEX4), 2)
    assert sum(o.shape[0] for o in orbits) == 120
    pool = np.vstack(orbits)
    diff = np.linalg.norm(pool[:, None] - pool[None, :], axis=2)
    np.fill_diagonal(diff, np.inf)
    assert diff.min() >= 1e-3


def test_free_orbits_clear_of_circles():
    mats, planes = _matrices_and_planes(A4, Model.TETRA_ROT)
    orbits = free_orbit_coords(mats, planes, 1, ModelConfig(seed=3))
    base = orbits[0][0]
    assert min(np.linalg.norm(base - b.T @ (b @ base)) for b in svd_circles(mats)[1:]) >= 0.05


def test_free_orbit_determinism():
    a = free_orbit_coords(*_matrices_and_planes(A5, Model.DODECA_ROT), 1, ModelConfig(seed=11))[0]
    b = free_orbit_coords(*_matrices_and_planes(A5, Model.DODECA_ROT), 1, ModelConfig(seed=11))[0]
    assert np.array_equal(a, b)


def _all_pairs_placement(mats, n, config, avoid):
    """free_orbit_coords with the all-pairs distance tests: every point of
    a candidate orbit against every other point and every placed point,
    and the circle clearance measured from the SVD plane bases (svd_circles)
    rather than the averaged planes.  Returns the orbits and the number of
    candidates the distances refused."""
    circles = [b for b in svd_circles(mats) if b.any()]
    rng = np.random.default_rng(config.seed)
    placed = np.empty((0, 4)) if avoid is None else avoid
    orbits, refused = [], 0
    for _ in range(n):
        for _attempt in range(400):
            p = rng.standard_normal(4)
            p /= np.linalg.norm(p)
            if min(np.linalg.norm(p - b.T @ (b @ p)) for b in circles) \
                    < geometry.FREE_CIRCLE_CLEARANCE:
                continue
            orbit = mats @ p
            own = np.linalg.norm(orbit[:, None] - orbit[None, :], axis=2)
            np.fill_diagonal(own, np.inf)
            cross = np.linalg.norm(orbit[:, None] - placed[None, :], axis=2)
            if min(own.min(), cross.min(initial=np.inf)) < geometry.FREE_ORBIT_SEP:
                refused += 1
                continue
            orbits.append(orbit)
            placed = np.vstack([placed, orbit])
            break
        else:
            raise PlacementError("no orbit placed")
    return orbits, refused


# special parts each model's group leaves invariant
_INVARIANT_AVOID = {
    Model.TETRA_ROT: np.vstack([tetra_corner(i) for i in range(4)] + [POLE]),
    Model.TETRA_FULL: np.vstack([tetra_corner(i) for i in range(4)]),
    Model.DODECA_ROT: POLE[None],
    Model.SIMPLEX4: np.vstack([simplex_corner(i) for i in range(5)]),
}


@pytest.mark.parametrize("crowded", [False, True], ids=["default", "crowded"])
@pytest.mark.parametrize("model", list(GROUP_OF), ids=lambda m: m.value)
@pytest.mark.parametrize("seed", range(5))
def test_free_orbit_placement_matches_all_pairs_checks(monkeypatch, model, seed, crowded):
    """Testing base points only accepts exactly the orbits the all-pairs
    checks accept, on the same random stream (20 orbits, so every n <= 20
    is a prefix of this run).  Crowded placement drops the circle clearance
    and asks for 0.15 between points, so that candidates close to another
    point of their own orbit or of a placed one do get refused."""
    if crowded:
        monkeypatch.setattr(geometry, "FREE_CIRCLE_CLEARANCE", 0.0)
        monkeypatch.setattr(geometry, "FREE_ORBIT_SEP", 0.15)
    mats, planes = _matrices_and_planes(GROUP_OF[model], model)
    cfg = ModelConfig(seed=seed)
    refused = 0
    for avoid in (None, _INVARIANT_AVOID[model]):
        fast = free_orbit_coords(mats, planes, 20, cfg, avoid)
        slow, count = _all_pairs_placement(mats, 20, cfg, avoid)
        refused += count
        assert len(fast) == len(slow) == 20
        assert all(np.array_equal(a, b) for a, b in zip(fast, slow))
    assert refused > 0 or not crowded


@pytest.mark.parametrize("crowded", [False, True], ids=["default", "crowded"])
def test_free_orbit_placement_matches_all_pairs_checks_over_batches(monkeypatch, crowded):
    """101 orbits of TETRA_ROT around A4's special parts, as many as A4
    m=1213 places.  Candidates are tested a batch at a time, and crowded
    placement refuses more candidates than the first batch has to spare
    (101 // 4 + 1), so it draws further batches."""
    if crowded:
        monkeypatch.setattr(geometry, "FREE_CIRCLE_CLEARANCE", 0.0)
        monkeypatch.setattr(geometry, "FREE_ORBIT_SEP", 0.15)
    mats, planes = _matrices_and_planes(A4, Model.TETRA_ROT)
    avoid, cfg = _INVARIANT_AVOID[Model.TETRA_ROT], ModelConfig(seed=0)
    fast = free_orbit_coords(mats, planes, 101, cfg, avoid)
    slow, refused = _all_pairs_placement(mats, 101, cfg, avoid)
    assert len(fast) == len(slow) == 101
    assert all(np.array_equal(a, b) for a, b in zip(fast, slow))
    assert refused > 101 // 4 + 1 or not crowded


def test_unmeetable_separation_fails_both_placements(monkeypatch):
    """No two points of the sphere are 2.1 apart, so every candidate is too
    close to its own orbit: both placements give up with PlacementError."""
    monkeypatch.setattr(geometry, "FREE_ORBIT_SEP", 2.1)
    mats, planes = _matrices_and_planes(A4, Model.TETRA_ROT)
    with pytest.raises(PlacementError, match="after 400 attempts"):
        free_orbit_coords(mats, planes, 2, ModelConfig(seed=0))
    with pytest.raises(PlacementError):
        _all_pairs_placement(mats, 2, ModelConfig(seed=0), None)


# ------------------------------------------------------------ realization


@pytest.mark.parametrize("group,m", REFERENCES)
def test_reference_realizations(realized, group, m):
    va, r = realized[(group, m)]
    assert geometric_profile(r).key() == measured_profile(va).key()


def test_a5_61_only_center_touches_circles():
    p = plan("A5", 61)
    r = realize(p)
    center_idx = r.vertex_action.labels.index("center")
    for c in svd_planes(r.mats)[1:]:
        assert np.flatnonzero(plane_distance(c, r.coords) <= 1e-9).tolist() == [center_idx]


def test_s4_12_each_transposition_circle_holds_two_vertices():
    r = realize(plan("S4", 12))
    circles = svd_planes(r.mats)
    for i in S4.classes["n2p"]:  # the transpositions
        assert (plane_distance(circles[i], r.coords) <= 1e-9).sum() == 2


def test_a4_13_pole_vertex_fixed_by_all():
    r = realize(plan("A4", 13))
    pole = _part_block(r, "center")[0]
    assert np.array_equal(pole, [0.0, 0.0, 0.0, 1.0])
    assert len(r.mats) == 12 and r.model is Model.TETRA_ROT
    for mat in r.mats:
        assert np.linalg.norm(mat @ pole - pole) < 1e-12


def test_restricted_realizations_validate():
    for m in (12, 24, 61, 65):
        p = plan("A4", m)
        assert p.restriction is not None
        r = realize(p)
        assert r.group.name == "A4"
        assert geometric_profile(r).key() == measured_profile(r.vertex_action).key()


# the ids name the two plans an older form of this test counted fixed-set SVD
# rows on; one covers the reference cases, the other the restricted and
# large-orbit plans
@pytest.mark.parametrize("cases", [
    [("A4", 24), ("A4", 61), ("A4", 1213), ("S4", 1204), ("A5", 1205)], REFERENCES,
], ids=["A4-61-59", "S4-28-23"])
def test_realize_computes_each_fixed_circle_once(monkeypatch, cases):
    """realize and full_report take no SVD but shared_lines', which decides
    whether arcs on distinct circles cross: placement and the checks read
    the averaged planes, and assign_arcs reads its arc bases off them
    (circles_of).  numpy's own callers of svd are watched too."""
    callers = []
    real_svd = np.linalg.svd

    def recording(*args, **kwargs):
        frame = sys._getframe(1)
        callers.append((frame.f_globals.get("__name__"), frame.f_code.co_name))
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    monkeypatch.setattr(np.linalg._linalg, "svd", recording)
    for group, m in cases:
        assert full_report(realize(plan(group, m))).overall, (group, m)
    assert set(callers) == {("tsglab.geometry", "shared_lines")}


@pytest.mark.parametrize("group,m,planes", [
    ("S4", 28, ["S4"]), ("A4", 1213, ["A4"]), ("A5", 1205, ["A5"]), ("A4", 61, ["A5", "A4"]),
], ids=["S4-28", "A4-1213", "A5-1205", "A4-61"])
def test_realize_computes_the_fixed_planes_once(monkeypatch, group, m, planes):
    """realize computes the averaged fixed planes once: placement's planes
    are the checks' when the realization acts by the parent's group and
    matrices.  The restricted A4 m=61 needs two, A5's for placement and
    A4's for the checks."""
    groups = []
    real_fixed_planes = geometry.fixed_planes

    def counting(g, mats):
        groups.append(g.name)
        return real_fixed_planes(g, mats)

    p = plan(group, m)
    monkeypatch.setattr(geometry, "fixed_planes", counting)
    r = realize(p)
    assert groups == planes
    assert np.array_equal(r.planes, real_fixed_planes(r.group, r.mats))
    assert not r.planes.flags.writeable


@pytest.mark.parametrize("m", [24, 61, 65, 1205])
def test_restricted_realization_keeps_the_circles_verify_computes(m):
    """A restricted plan's A4 matrices are derived from its generators, and
    the arc bases written for it are read off exactly the averaged planes
    of those matrices that the checks read (circles_of)."""
    p = plan("A4", m)
    r = realize(p)
    assert p.restriction is not None
    arcs = full_report(r).arcs
    assert np.array_equal(arcs.bases, circles_of(r.planes)[arcs.fixers])


@pytest.mark.parametrize("group,m", [("A4", 1213), ("S4", 1204), ("A5", 1205)])
def test_free_orbit_vertices_clear_every_fixed_plane(group, m):
    """Every vertex of every free orbit, not only each orbit's base point,
    lies at least FREE_CIRCLE_CLEARANCE from the fixed plane of every
    non-identity element (Realization.planes)."""
    r = realize(plan(group, m))
    free = np.concatenate([np.arange(b.start, b.start + b.size)
                           for b in r.vertex_action.parts if b.kind == "free"])
    assert len(free) >= 20 * r.group.order
    distances = plane_distance(r.planes[1:], r.coords[free])
    assert distances.min() >= geometry.FREE_CIRCLE_CLEARANCE


def test_knotted_plans_refused():
    with pytest.raises(UnsupportedGeometryError):
        realize(plan("A4", 4))
    with pytest.raises(UnsupportedGeometryError):
        realize(plan("A4", 5))


@settings(max_examples=8, deadline=None)
@given(st.floats(min_value=0.15, max_value=1.4), st.floats(min_value=0.08, max_value=0.45))
def test_parameters_robust(theta, t):
    cfg = ModelConfig(theta=theta, t=t, seed=5)
    r = realize(plan("S4", 20), config=cfg)
    assert geometric_profile(r).key() == (0, 2, 2, 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validate_rejects_non_finite_coordinate(bad):
    r = _copy(realize(plan("S4", 24), config=ModelConfig(seed=1)))
    r.base[0, 1] = bad
    with pytest.raises(AssertionError, match="^invariance: "):
        validate_realization(r)


def test_free_orbit_profile_all_zero():
    r = realize(plan("A5", 60))
    assert all(v == 0 for v in geometric_profile(r).named_counts().values())


# ------------------------------------------------------------- separation


def test_separation_runs_after_invariance():
    """The separation check measures from one vertex per orbit, which is
    sound only once invariance has passed."""
    names = [name for name, _ in REALIZATION_CHECKS]
    assert names.index("homomorphism") < names.index("invariance") < names.index("separation")


def test_close_free_orbits_fail_separation():
    r = close_free_orbits()
    assert 0.9e-7 < closest_distance(r.coords) < 1.1e-7
    with pytest.raises(AssertionError, match="^separation: "):
        validate_realization(r)


@pytest.fixture(scope="module")
def large_orbit_realizations():
    return {(g, m): realize(plan(g, m)) for g, m in (("A4", 1213), ("S4", 1204), ("A5", 1205))}


@pytest.mark.parametrize("group,m", REFERENCES + [("A4", 1213), ("S4", 1204), ("A5", 1205)])
def test_separation_matches_all_pairs(realized, large_orbit_realizations, group, m):
    r = realized[(group, m)][1] if (group, m) in realized else large_orbit_realizations[(group, m)]
    assert abs(_min_separation(r) - closest_distance(r.coords)) <= 1e-12


def closest_distance(a, rows=None):
    """Smallest distance from a row of a (one of `rows`, all by default) to
    another row of a, through the cell index of _closest_pair alone."""
    a = np.asarray(a, dtype=float)
    rows = np.arange(len(a)) if rows is None else np.asarray(rows)
    return _closest_pair(a, rows, np.empty((0, len(rows)), dtype=int))


def _brute_closest(points, rows=None):
    """Every pair (row, other point), one row at a time: the norm of the
    difference, as the cell index measures it, but with no index."""
    best = np.inf
    for i in range(len(points)) if rows is None else rows:
        d = np.linalg.norm(points - points[i], axis=1)
        d[i] = np.inf
        best = min(best, d.min())
    return best


@pytest.mark.parametrize("group,m", REFERENCES + [("A4", 1213), ("S4", 1204), ("A5", 1205)])
def test_cell_index_equals_brute_force(realized, large_orbit_realizations, group, m):
    r = realized[(group, m)][1] if (group, m) in realized else large_orbit_realizations[(group, m)]
    reps = r.vertex_action.action.orbits.reps
    assert _min_separation(r) == _brute_closest(r.coords, reps)
    assert closest_distance(r.coords) == _brute_closest(r.coords)


def test_cell_index_close_free_orbits_pair():
    """The 1e-7 pair: far below the search radius, found exactly."""
    r = close_free_orbits()
    reps = r.vertex_action.action.orbits.reps
    assert _min_separation(r) == _brute_closest(r.coords, reps) < 1.1e-7
    assert closest_distance(r.coords) == _brute_closest(r.coords)


def test_cell_codes_stay_below_2_62():
    """A radius of 1e-7 over a spread of 2e6 would need 2e13 cells per axis;
    the width floor of spread / 2^14 keeps the codes in range."""
    grid = CellGrid(1e-7, -1e6, 1e6)
    corners = np.array([[-1e6] * 4, [1e6] * 4])
    assert (grid.codes(corners) + grid.runs.max() + 1).max() < 2 ** 62
    points = np.array([[1e6, 0, 0, 0], [0.0, 0, 0, 0], [-1e6, 0, 0, 0], [1e-7, 0, 0, 0]])
    assert closest_distance(points) == _brute_closest(points) == 1e-7


def test_cell_index_coincident_points():
    points = np.random.default_rng(0).standard_normal((40, 4))
    points[31] = points[7]
    assert closest_distance(points) == _brute_closest(points) == 0.0
    assert closest_distance(points, rows=[7]) == 0.0
    assert closest_distance(points, rows=[6, 8]) == _brute_closest(points, [6, 8]) > 0


def test_cell_index_pair_exactly_h_apart():
    """Partners give h = 0.5 (rows 0 and 1); rows 0 and 2 are exactly h
    apart, and rows 0 and 3 one unit in the last place closer."""
    points = np.array([[-3.0, -3, -3, -3], [-3, -2.5, -3, -3], [-2.5, -3, -3, -3],
                       [-3, -3, -3, np.nextafter(-2.5, -3)], [-9.0, -9, -9, -9]])
    rows, partners = np.array([0]), np.array([[1]])
    assert _closest_pair(points[:3], rows, partners) == _brute_closest(points[:3], rows) == 0.5
    assert _closest_pair(points, rows, partners) == _brute_closest(points, rows) < 0.5


def test_cell_index_pair_straddling_negative_boundary():
    """Rows 0 and 3, 2e-3 apart on either side of a cell boundary at
    x0 < 0; the partners and the next rows give h = 0.5 (rows 1 and 2)."""
    points = np.array([[0.0, 0, 0, 0], [-3, -3, -3, -3], [-3, -2.5, -3, -3], [0, 0, 0, 0]])
    grid = CellGrid(0.5, -3.0, 0.0)
    boundary = grid.origin + 4 * grid.width
    assert boundary < 0
    points[0, 0], points[3, 0] = boundary - 1e-3, boundary + 1e-3
    assert grid.codes(points[0]) != grid.codes(points[3])
    rows = np.array([0, 1])
    assert _closest_pair(points, rows, np.array([[0, 2]])) == _brute_closest(points, rows) < 2.1e-3


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(1e-6, 10), st.integers(2, 60))
def test_cell_index_random_clusters(seed, scale, m):
    """Clustered points at negative and positive coordinates, some
    snapped to a coarse lattice so that pairs sit on cell boundaries."""
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((m, 4)) * scale - scale
    points[::3] = np.round(points[::3] / scale * 4) * scale / 4
    rows = rng.choice(m, size=max(1, m // 4), replace=False)
    assert closest_distance(points) == _brute_closest(points)
    assert closest_distance(points, rows=rows) == _brute_closest(points, rows)


def test_cell_index_in_small_chunks(monkeypatch, large_orbit_realizations):
    """Crowded input is measured a few rows at a time; the answer is the same."""
    r = large_orbit_realizations[("A4", 1213)]
    reps = r.vertex_action.action.orbits.reps
    crowded = np.random.default_rng(2).standard_normal((300, 4)) * 1e-3
    monkeypatch.setattr(geometry, "_PAIR_CHUNK", 5)
    assert _min_separation(r) == _brute_closest(r.coords, reps)
    assert closest_distance(crowded) == _brute_closest(crowded)


def test_cell_index_one_point_and_no_rows():
    assert closest_distance(np.zeros((1, 4))) == np.inf
    assert closest_distance(np.zeros((0, 4))) == np.inf
    assert closest_distance(np.eye(4), rows=[]) == np.inf


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_closest_distance_non_finite_is_nan(bad):
    points = np.random.default_rng(1).standard_normal((12, 4))
    points[5, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(closest_distance(points))
        assert math.isnan(closest_distance(points, rows=[0]))


# ------------------------------------- stacked realization checks vs loops

STACKED_CASES = REFERENCES + [("A4", 24), ("A4", 61), ("A4", 1213), ("S4", 1204), ("A5", 1205)]


@pytest.fixture(scope="module")
def stacked_cases(realized, large_orbit_realizations):
    out = {key: r for key, (_, r) in realized.items()}
    out.update(large_orbit_realizations)
    out.update({(g, m): realize(plan(g, m)) for g, m in (("A4", 24), ("A4", 61))})
    return out


def test_averaged_planes_lie_within_plane_error_of_the_svd_projectors(stacked_cases):
    """On the reference-grid and large-orbits cases every averaged plane
    lies within PLANE_ERROR per entry of the SVD projector, its trace
    within PLANE_ERROR of that projector's rank (0 or 2, and 0 at the
    identity), and it is symmetric, idempotent and M(g)-invariant within
    PLANE_ERROR, as fixed_planes argues from `homomorphism`."""
    for key, r in stacked_cases.items():
        planes, reference = r.planes, svd_planes(r.mats)
        assert np.abs(planes - reference).max() <= geometry.PLANE_ERROR, key
        rank = np.einsum("gii->g", reference).round()
        assert set(rank[1:].tolist()) <= {0.0, 2.0} and rank[0] == 0 and not planes[0].any(), key
        assert np.abs(np.einsum("gii->g", planes) - rank).max() <= geometry.PLANE_ERROR, key
        for error in (planes - planes.transpose(0, 2, 1), planes @ planes - planes,
                      r.mats @ planes - planes, planes @ r.mats - planes):
            assert np.abs(error[1:]).max() <= geometry.PLANE_ERROR, key


def _loop_hom_error(group, mats):
    """One element row at a time against every matrix."""
    return float(np.max([np.abs(mats[i] @ mats - mats[group.cayley[i]]).max()
                         for i in range(group.order)]))


def _loop_invariance_errors(r):
    """One element at a time, over all m vertices: its largest coordinate
    off the image.  The whole-action reference for the orbit-local check."""
    return [float(np.abs(r.coords @ mat.T - r.coords[img]).max())
            for mat, img in zip(r.mats, action_table(r.vertex_action.action))]


def _loop_orbit_errors(r):
    """One element at a time, at the orbit representatives only."""
    reps = r.vertex_action.action.orbits.reps
    return [float(np.abs(r.coords[reps] @ mat.T - r.coords[img[reps]]).max())
            for mat, img in zip(r.mats, action_table(r.vertex_action.action))]


def _loop_invariance_message(r):
    """The message of the first element over ERROR_TOL at the
    representatives, or None."""
    for e, err in zip(r.group.elements, _loop_orbit_errors(r)):
        if not err <= geometry.ERROR_TOL:
            return f"invariance: element {tuple(e.tolist())} moves vertices off their images by {err}"
    return None


@pytest.mark.parametrize("group,m", STACKED_CASES)
def test_stacked_checks_equal_per_element_loops(stacked_cases, group, m):
    r = stacked_cases[(group, m)]
    assert _max_hom_error(r.group, r.mats) == _loop_hom_error(r.group, r.mats)
    assert geometry._orbit_errors(r).tolist() == _loop_orbit_errors(r)
    assert max(_loop_invariance_errors(r)) <= geometry.ACTION_ERROR


def test_orbit_local_checks_read_only_the_representatives_columns(stacked_cases, monkeypatch):
    """A5 m=80 and m=1205: the realization checks, check_homomorphism, the
    fixed-point table and the interchangers read the orbit table alone,
    |G|·#orbits images: on a fresh copy of the action, none of them calls
    GroupAction.image, the one read of an image off the representatives,
    and every result is the one the built action gives."""
    def refused(self, x, w):
        raise AssertionError("GroupAction.image called")

    for m in (80, 1205):
        r = stacked_cases[("A5", m)]
        act = r.vertex_action.action
        errors, fixed, swappers = (geometry._orbit_errors(r), act.fixed_points,
                                   edges.interchangers(r.vertex_action))
        with monkeypatch.context() as patch:
            patch.setattr(GroupAction, "image", refused)
            fresh = GroupAction(r.group, act.gen_images)
            va = dataclasses.replace(r.vertex_action, action=fresh)
            s = Realization(va, r.model, r.config, r.mats, r.base)
            validate_realization(s)
            check_homomorphism(fresh)
            assert np.array_equal(s.coords, r.coords), m
            assert np.array_equal(geometry._orbit_errors(s), errors), m
            for part, kept in zip(fresh.fixed_points, fixed):
                assert np.array_equal(part, kept), m
            assert np.array_equal(edges.interchangers(va), swappers), m


def _copy(r, mats=None, base=None):
    return Realization(r.vertex_action, r.model, r.config,
                       r.mats.copy() if mats is None else mats,
                       r.base.copy() if base is None else base)


@pytest.mark.parametrize("group,m", [("A4", 13), ("S4", 28), ("A5", 80), ("A5", 1205)])
@pytest.mark.parametrize("row", [1, -1])
def test_corrupt_matrix_entry_fails_homomorphism_as_the_loop(stacked_cases, group, m, row):
    r = _copy(stacked_cases[(group, m)])
    r.mats[row, 1, 2] += 2e-8
    hom = _max_hom_error(r.group, r.mats)
    assert hom == _loop_hom_error(r.group, r.mats) > geometry.ERROR_TOL
    with pytest.raises(AssertionError, match="^homomorphism: "):
        validate_realization(r)


@pytest.mark.parametrize("group,m", [("A4", 13), ("S4", 28), ("A5", 80), ("A5", 1205)])
@pytest.mark.parametrize("vertex", [0, -1])
def test_moved_vertex_fails_invariance_as_the_loop(stacked_cases, group, m, vertex):
    """Move the representative of vertex's orbit, the one point a file
    stores for it, by about 1e-6.  Vertex 0 is a free orbit's
    representative: its orbit moves along, still invariant, so every check
    passes and the whole-action loop stays within ACTION_ERROR.  Vertex -1
    lies in a special part, whose stabilizer no longer fixes the moved
    point: invariance names the first element off its images at the
    representatives, and the whole-action loop sees that element off too."""
    r = _copy(stacked_cases[(group, m)])
    reps, index, _, _ = r.vertex_action.action.orbits
    v = reps[index[vertex]]
    p = r.base[v] + 1e-6 * np.array([1.0, -2.0, 0.5, 1.5])
    r.base[v] = p / np.linalg.norm(p)
    assert geometry._orbit_errors(r).tolist() == _loop_orbit_errors(r)
    expected, whole = _loop_invariance_message(r), _loop_invariance_errors(r)
    if vertex == 0:
        assert expected is None and max(whole) <= geometry.ACTION_ERROR
        validate_realization(r)
        return
    assert expected is not None
    with pytest.raises(AssertionError) as err:
        validate_realization(r)
    assert str(err.value) == expected
    named = int(np.flatnonzero(np.array(_loop_orbit_errors(r)) > geometry.ERROR_TOL)[0])
    assert whole[named] >= _loop_orbit_errors(r)[named]


def _tilted(r, row, axes):
    """r with the matrix of one row turned by 1e-6 in the plane of two axes."""
    tilt = np.eye(4)
    (a, b), c, s = axes, math.cos(1e-6), math.sin(1e-6)
    tilt[[a, a, b, b], [a, b, a, b]] = c, -s, s, c
    t = _copy(r)
    t.mats[row] = t.mats[row] @ tilt
    return t


@pytest.mark.parametrize("row", [7, 30, 59])
def test_first_bad_element_in_a_later_chunk_is_named(stacked_cases, row):
    """A5 m=80: a rotation tilted on one row only, early, in the middle or
    last, fails `homomorphism`, which runs first.  The derived coordinates
    carry the tilt wherever that row is the first to reach a vertex, so
    invariance alone sees it only at the special part's representative v,
    whose stabilizer moves it: tilted in the plane of axes 2 and 3, the
    check names the first element off its images at the representatives,
    one of the row's coset (an element taking v where the row does), and
    the whole-action loop sees that element off too.  Tilted in the plane
    of axes 0 and 1, which p(v) = (0, 0, ., .) is orthogonal to,
    invariance alone passes, while the whole-action loop does not: the
    bound on the whole action rests on `homomorphism` as well."""
    base = stacked_cases[("A5", 80)]
    images = action_table(base.vertex_action.action)
    reps, index, _, _ = base.vertex_action.action.orbits
    v = reps[index[-1]]
    r = _tilted(base, row, (2, 3))
    with pytest.raises(AssertionError, match="^homomorphism: "):
        validate_realization(r)
    expected = _loop_invariance_message(r)
    assert expected is not None
    with pytest.raises(AssertionError) as err:
        geometry._check_invariance(r)
    assert "invariance: " + str(err.value) == expected
    named = int(np.flatnonzero(np.array(_loop_orbit_errors(r)) > geometry.ERROR_TOL)[0])
    assert images[named, v] == images[row, v]
    assert _loop_invariance_errors(r)[named] > geometry.ERROR_TOL

    r = _tilted(base, row, (0, 1))
    assert np.array_equal(r.coords[v, :2], [0.0, 0.0])
    with pytest.raises(AssertionError, match="^homomorphism: "):
        validate_realization(r)
    assert _loop_invariance_message(r) is None
    geometry._check_invariance(r)
    assert max(_loop_invariance_errors(r)) > geometry.ACTION_ERROR


@pytest.mark.parametrize("group,m", [("S4", 28), ("A5", 80)])
@pytest.mark.parametrize("row", [0, 3, -1])
def test_nan_matrix_entry_gives_nan_hom_error(stacked_cases, group, m, row):
    """The builtin max(0.0, nan) would give 0.0, which passes ERROR_TOL."""
    r = _copy(stacked_cases[(group, m)])
    r.mats[row, 2, 1] = np.nan
    assert math.isnan(_max_hom_error(r.group, r.mats))


# ------------------------------------------- one error bound, then decisions

# every decision threshold: each decides a question whose answer is no
# identity (the last two steer placement only)
DECISION_THRESHOLDS = [
    (geometry, "ON_CIRCLE_TOL"), (geometry, "CIRCLE_EQ_TOL"), (geometry, "SHARED_LINE_TOL"),
    (geometry, "MIN_VERTEX_SEP"),
    (edges, "PAIR_TOL"), (edges, "ANGLE_EPS"), (edges, "INSIDE_MARGIN"),
    (geometry, "FREE_CIRCLE_CLEARANCE"), (geometry, "FREE_ORBIT_SEP"),
]


def _identity_errors(r):
    """The largest error realize leaves in each identity that holds exactly
    in exact arithmetic, and the nearest vertex off any element's circle."""
    circle_distances = plane_distance(svd_planes(r.mats)[1:], r.coords)
    on_circle = circle_distances <= geometry.ON_CIRCLE_TOL
    errors = {
        "orthogonality": np.abs(r.mats.transpose(0, 2, 1) @ r.mats - np.eye(4)).max(),
        "determinant": np.abs(np.linalg.det(r.mats) - 1).max(),
        "homomorphism": _max_hom_error(r.group, r.mats),
        "sphere": np.abs(np.linalg.norm(r.coords, axis=1) - 1).max(),
        "invariance": geometry._orbit_errors(r).max(),
        "whole action": max(_loop_invariance_errors(r)),
        "on-circle": circle_distances[on_circle].max(initial=0.0),
    }
    arcs = full_report(r).arcs
    if len(arcs):  # assign_arcs starts each arc at the first vertex of its pair
        index = {pair: k for k, pair in enumerate(map(tuple, arcs.pairs.tolist()))}
        images = np.sort(action_table(r.vertex_action.action)[:, arcs.pairs], axis=-1)
        target = np.array([[index[tuple(pair)] for pair in row] for row in images.tolist()])
        mids = arcs.points([0.5])[:, 0]
        errors.update({
            "arc gram": np.abs(arcs.bases @ arcs.bases.transpose(0, 2, 1) - np.eye(2)).max(),
            "arc ends": np.linalg.norm(arcs.points([0.0, 1.0]) - r.coords[arcs.pairs], axis=2).max(),
            "arc midpoints": np.linalg.norm(np.einsum("fij,kj->fki", r.mats, mids) - mids[target],
                                            axis=2).max(),
        })
    return {name: float(err) for name, err in errors.items()}, float(circle_distances[~on_circle].min())


def test_error_bound_sits_between_realized_errors_and_every_decision(stacked_cases):
    """ERROR_TOL is at least 100 times the worst error realize leaves in
    an exact identity on the reference-grid and large-orbits cases, the
    whole action's error among them; ACTION_ERROR, what invariance at the
    representatives implies for every vertex, is 3·ERROR_TOL and a
    rounding allowance, and PLANE_ERROR, what it implies for the averaged
    fixed planes, 6·ERROR_TOL and one; every decision threshold is at
    least 100 times both, and ON_CIRCLE_TOL is at most a hundredth of
    MIN_VERTEX_SEP (see geometric_profile).  A numpy build whose rounding
    errors grow fails here first."""
    worst, nearest_off_circle = {}, np.inf
    for r in stacked_cases.values():
        errors, off_circle = _identity_errors(r)
        nearest_off_circle = min(nearest_off_circle, off_circle)
        for name, err in errors.items():
            worst[name] = max(worst.get(name, 0.0), err)
    assert len(worst) == 10 and 100 * max(worst.values()) <= geometry.ERROR_TOL, worst
    assert nearest_off_circle >= 100 * geometry.ON_CIRCLE_TOL
    assert geometry.ACTION_ERROR == 3 * geometry.ERROR_TOL + 1e-14
    assert geometry.PLANE_ERROR == 6 * geometry.ERROR_TOL + 1e-14
    for module, name in DECISION_THRESHOLDS:
        assert getattr(module, name) >= 100 * geometry.ACTION_ERROR, name
        assert getattr(module, name) >= 100 * geometry.PLANE_ERROR, name
    assert 100 * geometry.ON_CIRCLE_TOL <= geometry.MIN_VERTEX_SEP
    tolerances = {name for module in (geometry, edges) for name in vars(module) if name.endswith("_TOL")}
    assert tolerances - {"ERROR_TOL"} <= {name for _, name in DECISION_THRESHOLDS}
