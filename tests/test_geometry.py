import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsglab.actions import Model, measured_profile, plan
from tsglab.geometry import (
    POLE,
    REALIZATION_CHECKS,
    FixedCircle,
    ModelConfig,
    PlacementError,
    PrecisionError,
    UnsupportedGeometryError,
    circles_intersection,
    circles_of,
    closest_distance,
    fixed_set,
    free_orbit_coords,
    geometric_profile,
    realize,
    representation,
    simplex_corner,
    tetra_corner,
    validate_realization,
)
from tsglab import geometry
from tsglab.geometry import _max_hom_error, _min_separation
from tsglab.perm import a4_inside_a5, from_cycles, standard_group

from .conftest import REFERENCES, close_free_orbits

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


# ------------------------------------------------------------- fixed sets


def test_4cycle_is_fixed_point_free(reps):
    assert fixed_set(reps[Model.TETRA_FULL][from_cycles(4, (0, 1, 2, 3))]).empty


def test_5cycle_glides_in_simplex_but_rotates_in_dodeca(reps):
    five = from_cycles(5, (0, 1, 2, 3, 4))
    assert fixed_set(reps[Model.SIMPLEX4][five]).empty
    assert not fixed_set(reps[Model.DODECA_ROT][five]).empty


def test_identity_rejected_by_fixed_set():
    with pytest.raises(ValueError):
        fixed_set(np.eye(4))


def test_dichotomy_by_model(reps):
    # EMPTY exactly on order-4 elements of the twisted tetra model and on
    # order-5 elements of the simplex model; rotation-only models never
    expect_empty = {Model.TETRA_FULL: 4, Model.SIMPLEX4: 5}
    for model, rep in reps.items():
        g = GROUP_OF[model]
        for e, mat in rep.items():
            i = g.rows([e])[0]
            if i == 0:  # the identity
                continue
            fc = fixed_set(mat)
            if model in expect_empty:
                assert fc.empty == (g.orders[i] == expect_empty[model]), (model, e)
            else:
                assert not fc.empty
            if not fc.empty:
                assert fc.basis.shape == (2, 4)


def test_double_transposition_circle_in_simplex(reps):
    # fix((01)(23)) is the plane x0 = x1, x2 = x3 inside the sum-zero space
    fc = fixed_set(reps[Model.SIMPLEX4][from_cycles(5, (0, 1), (2, 3))])
    from tsglab.geometry import _B5

    w = _B5 @ np.array([3.0, 3.0, -2.0, -2.0, -2.0])
    w /= np.linalg.norm(w)
    assert fc.contains(w, tol=1e-9)


def test_3cycle_circle_contains_complementary_simplex_vertices(reps):
    from tsglab.geometry import simplex_corner

    fc = fixed_set(reps[Model.SIMPLEX4][from_cycles(5, (0, 1, 2))])
    assert fc.contains(simplex_corner(3)) and fc.contains(simplex_corner(4))


def test_circle_pairs_intersect_in_0_or_2_points():
    for model in (Model.TETRA_FULL, Model.SIMPLEX4):
        g = GROUP_OF[model]
        circles = [c for c in circles_of(representation(g, model))[1:] if not c.empty]
        distinct = []
        for c in circles:
            if all(not c.same_circle(d) for d in distinct):
                distinct.append(c)
        for i, c in enumerate(distinct):
            for d in distinct[i + 1:]:
                pts = circles_intersection(c, d)
                assert pts.shape[0] in (0, 2)
                for p in pts:
                    assert c.contains(p, 1e-8) and d.contains(p, 1e-8)


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


def _matrices_and_circles(g, model):
    mats = representation(g, model)
    return mats, circles_of(mats)


def test_free_orbit_sizes():
    orbits = free_orbit_coords(*_matrices_and_circles(A4, Model.TETRA_ROT), 1)
    assert len(orbits) == 1 and orbits[0].shape == (12, 4)
    orbits = free_orbit_coords(*_matrices_and_circles(A5, Model.SIMPLEX4), 2)
    assert sum(o.shape[0] for o in orbits) == 120
    pool = np.vstack(orbits)
    diff = np.linalg.norm(pool[:, None] - pool[None, :], axis=2)
    np.fill_diagonal(diff, np.inf)
    assert diff.min() >= 1e-3


def test_free_orbits_clear_of_circles():
    mats, by_row = _matrices_and_circles(A4, Model.TETRA_ROT)
    circles = [c for c in by_row[1:] if not c.empty]
    orbits = free_orbit_coords(mats, by_row, 1, ModelConfig(seed=3))
    base = orbits[0][0]
    assert min(c.residual(base) for c in circles) >= 0.05


def test_free_orbit_determinism():
    a = free_orbit_coords(*_matrices_and_circles(A5, Model.DODECA_ROT), 1, ModelConfig(seed=11))[0]
    b = free_orbit_coords(*_matrices_and_circles(A5, Model.DODECA_ROT), 1, ModelConfig(seed=11))[0]
    assert np.array_equal(a, b)


def _all_pairs_placement(mats, circles, n, config, avoid):
    """free_orbit_coords with the all-pairs distance tests: every point of
    a candidate orbit against every other point and every placed point.
    Returns the orbits and the number of candidates the distances refused."""
    circles = [c for c in circles[1:] if not c.empty]
    rng = np.random.default_rng(config.seed)
    placed = np.empty((0, 4)) if avoid is None else avoid
    orbits, refused = [], 0
    for _ in range(n):
        for _attempt in range(400):
            p = rng.standard_normal(4)
            p /= np.linalg.norm(p)
            if min(c.residual(p) for c in circles) < geometry.FREE_CIRCLE_CLEARANCE:
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
    mats, circles = _matrices_and_circles(GROUP_OF[model], model)
    cfg = ModelConfig(seed=seed)
    refused = 0
    for avoid in (None, _INVARIANT_AVOID[model]):
        fast = free_orbit_coords(mats, circles, 20, cfg, avoid)
        slow, count = _all_pairs_placement(mats, circles, 20, cfg, avoid)
        refused += count
        assert len(fast) == len(slow) == 20
        assert all(np.array_equal(a, b) for a, b in zip(fast, slow))
    assert refused > 0 or not crowded


# ------------------------------------------------------------ realization


@pytest.mark.parametrize("group,m", REFERENCES)
def test_reference_realizations(realized, group, m):
    va, r = realized[(group, m)]
    assert geometric_profile(r).key() == measured_profile(va).key()


def test_a5_61_only_center_touches_circles():
    p = plan("A5", 61)
    r = realize(p)
    center_idx = r.vertex_action.labels.index("center")
    for c in circles_of(r.mats)[1:]:
        on = [v for v in range(r.m) if c.contains(r.coords[v])]
        assert on == [center_idx]


def test_s4_12_each_transposition_circle_holds_two_vertices():
    r = realize(plan("S4", 12))
    for i in S4.classes["n2p"]:  # the transpositions
        c = r.circles[i]
        assert sum(1 for p in r.coords if c.contains(p)) == 2


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


@pytest.mark.parametrize("group,m,calls", [("A4", 61, 59), ("S4", 28, 23)])
def test_realize_computes_each_fixed_circle_once(monkeypatch, group, m, calls):
    """realize builds the building group's circles once, for placement and
    for the realization alike: one fixed_set per non-identity element of
    the building group (A5 for the restricted A4 m=61, S4 for S4 m=28)."""
    count = 0
    real_fixed_set = geometry.fixed_set

    def counting(matrix):
        nonlocal count
        count += 1
        return real_fixed_set(matrix)

    p = plan(group, m)
    monkeypatch.setattr(geometry, "fixed_set", counting)
    realize(p)
    assert count == calls


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validate_rejects_non_finite_coordinate(bad):
    r = realize(plan("S4", 24), config=ModelConfig(seed=1))
    r.coords[0, 1] = bad
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
