import hashlib
import itertools
import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsglab import perm
from tsglab.actions import VertexAction, build, plan
from tsglab.edges import interchangers
from tsglab.perm import (
    GroupAction,
    InconsistentActionError,
    NotASubgroupError,
    PermGroup,
    burnside_orbit_count,
    check_homomorphism,
    coset_action,
    from_cycles,
    generated,
    is_faithful,
    kernel,
    left_cosets,
    pair_fixer_counts,
    restrict_action,
    standard_group,
    a4_inside_a5,
    subgroups_up_to_conjugacy,
)
from tsglab.profiles import admissible_residues

from .conftest import (action_table, all_column_fixed, all_column_homomorphism, all_column_orbits,
                       coset_table, direct_sum, orbit_partition, pair_stabilizers, plan_orbits,
                       stacked_table, table_sum)

GROUPS = ("A4", "S4", "A5")
GOLDEN = Path(__file__).parent / "golden"


def natural_action(g):
    return GroupAction(g, g.elements[list(g.generators)])


def mul(p, q):
    """Product of image tuples, applying q first."""
    return tuple(p[j] for j in q)


def inverse(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def row(g, p):
    return int(g.rows([p])[0])


def generated_by(g, *perms):
    """Rows of the subgroup of g generated by the given image tuples."""
    return generated(g, g.rows(list(perms)))


def perms_of(g, rows):
    """The image tuples of the given rows, as a set."""
    return {tuple(p) for p in g.elements[list(rows)].tolist()}


def fixed_count(a, p):
    """Vertices fixed by the element with image tuple p, read from the
    action's fixed-point table."""
    return int(a.fixed_points.counts[row(a.group, p)])


# ---------------------------------------------------------------- groups


@pytest.mark.parametrize("name,order", [("A4", 12), ("S4", 24), ("A5", 60)])
def test_group_orders(name, order):
    assert len(standard_group(name)) == order


@pytest.mark.parametrize("make", [
    lambda: standard_group("A4"), lambda: standard_group("S4"), lambda: standard_group("A5"),
    a4_inside_a5,
], ids=["A4", "S4", "A5", "a4_inside_a5"])
def test_cyclic_means_average_over_each_cyclic_group(make):
    """Row x of cyclic_means is 1/ord(x) on the rows of <x>, as generated
    finds them, and zero elsewhere; the identity's row is zero, and the
    operator is cached and read-only."""
    g = make()
    means = g.cyclic_means
    assert means is g.cyclic_means and not means.flags.writeable
    assert not means[0].any()
    for x in range(1, g.order):
        expect = np.zeros(g.order)
        expect[list(generated(g, [x]))] = 1 / g.orders[x]
        assert np.array_equal(means[x], expect), x


def test_s4_class_sizes():
    g = standard_group("S4")
    sizes = {name: len(rows) for name, rows in g.classes.items()}
    assert sizes == {"n1": 1, "n2": 3, "n2p": 6, "n3": 8, "n4": 6}
    assert list(sizes) == ["n1", "n2", "n2p", "n3", "n4"]  # key() order


def test_a4_has_8_order3_elements():
    assert len(standard_group("A4").classes["n3"]) == 8


def test_a5_has_24_order5_elements():
    assert len(standard_group("A5").classes["n5"]) == 24


@pytest.mark.parametrize("name", GROUPS)
def test_group_closed_under_product_and_inverse(name):
    g = standard_group(name)
    elements = perms_of(g, range(g.order))
    for a in elements:
        assert inverse(a) in elements
        for b in elements:
            assert mul(a, b) in elements


def test_class_label_rejects_odd_order_odd_parity():
    # odd-order elements are always even permutations, so no class pairs
    # an odd order with odd parity
    for make in (standard_group("A4"), standard_group("S4"), standard_group("A5"),
                 a4_inside_a5()):
        assert make.even[make.orders % 2 == 1].all()


def test_a4_inside_a5_is_point_stabilizer():
    h = a4_inside_a5()
    assert h.name == "A4" and h.degree == 5 and len(h) == 12
    assert (h.elements[:, 4] == 4).all()


def _shuffled_a5():
    perms = standard_group("A5").elements.tolist()
    random.Random(5).shuffle(perms)
    return PermGroup("A5", perms)


@pytest.mark.parametrize("make", [
    lambda: standard_group("A4"), lambda: standard_group("S4"), lambda: standard_group("A5"),
    a4_inside_a5, _shuffled_a5,
], ids=["A4", "S4", "A5", "a4_inside_a5", "shuffled-A5"])
def test_rows_put_identity_first_and_classes_agree_with_class_of(make):
    g = make()
    assert g.elements.shape == (g.order, g.degree)
    assert g.elements[0].tolist() == list(range(g.degree)) and g.orders[0] == 1
    assert g.elements.tolist() == sorted(g.elements.tolist())
    assert g.rows(g.elements).tolist() == list(range(g.order))
    assert sorted(i for rows in g.classes.values() for i in rows) == list(range(g.order))
    for name, rows in g.classes.items():
        assert list(rows) == sorted(rows)
        for i in rows:
            p = tuple(g.elements[i].tolist())
            order = next(k for k in range(1, 7) if _power(p, k) == tuple(range(g.degree)))
            assert g.orders[i] == order
            assert name == ("n2p" if order == 2 and not g.even[i] else f"n{order}")


def _power(p, k):
    out = tuple(range(len(p)))
    for _ in range(k):
        out = mul(p, out)
    return out


def _corrupt_rows():
    a5 = standard_group("A5").elements.tolist()
    return {
        "other-degree": [p + [5] for p in a5[:-1]] + [a5[-1]],
        "not-a-bijection": a5[:-1] + [[0, 0, 1, 2, 3]],
        "too-large": a5[:-1] + [[0, 1, 2, 3, 2 ** 70]],
        "repeat": a5[:-1] + [a5[1]],
        "no-identity": a5[1:] + [[1, 0, 2, 3, 4]],
    }


@pytest.mark.parametrize("case,message", [
    ("other-degree", "equal-length"), ("not-a-bijection", "bijection"),
    ("too-large", "integers"), ("repeat", "repeated"), ("no-identity", "identity"),
])
def test_group_rejects_bad_rows(case, message):
    with pytest.raises(ValueError, match=message):
        PermGroup("A5", _corrupt_rows()[case])


def _a4_on_letters_0_and_last_three(degree):
    """A4 moving letters 0, degree-3, degree-2, degree-1 and fixing the rest."""
    letters = [0, degree - 3, degree - 2, degree - 1]
    rows = np.tile(np.arange(degree), (12, 1))
    rows[:, letters] = np.array(letters)[standard_group("A4").elements]
    return rows


def test_group_accepts_degree_15():
    g = PermGroup("A4", _a4_on_letters_0_and_last_three(15))
    assert g.degree == 15 and (g.rows(g.elements) == np.arange(12)).all()


@pytest.mark.parametrize("degree", [16, 17])
def test_group_rejects_degrees_above_15(degree):
    with pytest.raises(ValueError, match=f"degree {degree} exceeds the limit of 15 letters"):
        PermGroup("A4", _a4_on_letters_0_and_last_three(degree))


def test_rows_match_entry_for_entry():
    """rows() finds a query only if it equals an element: a list that is no
    permutation but has an element's base-degree code gets -1."""
    s4 = standard_group("S4")
    p = list(from_cycles(4, (0, 1)))
    fake = [p[0] - 1, p[1] + 4, p[2], p[3]]  # [0, 4, 2, 3]: the same code, 75
    weights = 4 ** np.arange(3, -1, -1)
    assert np.dot(fake, weights) == np.dot(p, weights) == 75
    assert s4.rows([p, fake, [0, 1, 2, 3]]).tolist() == [row(s4, p), -1, 0]
    assert s4.rows([[0, 1, 2]]).tolist() == [-1]
    assert s4.rows([[0, 1, 2, 2 ** 70]]).tolist() == [-1]


# ------------------------------------------------------------- subgroups


def test_a4_subgroup_orders():
    subs = subgroups_up_to_conjugacy("A4")
    assert sorted({len(h) for h in subs}) == [1, 2, 3, 4, 12]


def test_s4_has_two_classes_of_order2_subgroups():
    subs = subgroups_up_to_conjugacy("S4")
    assert sum(1 for h in subs if len(h) == 2) == 2


def test_a5_contains_an_a4_representative():
    subs = subgroups_up_to_conjugacy("A5")
    twelves = [h for h in subs if len(h) == 12]
    assert len(twelves) == 1
    # all order-12 subgroups of A5 are alternating, no elements of order > 3
    assert set(standard_group("A5").orders[list(twelves[0])].tolist()) == {1, 2, 3}


@pytest.mark.parametrize("name", GROUPS)
def test_subgroup_reps_are_closed(name):
    g = standard_group(name)
    for h in subgroups_up_to_conjugacy(name):
        assert 0 in h  # the identity row
        assert all(g.cayley[a, b] in h for a in h for b in h)


@pytest.mark.parametrize("name", GROUPS)
def test_subgroup_reps_match_golden(name):
    """Same representatives in the same order as recorded in
    golden/subgroup_reps.json before the enumeration moved to the Cayley table."""
    perm.subgroups_up_to_conjugacy.cache_clear()
    g = standard_group(name)
    rows = [[len(h), sorted(g.elements[list(h)].tolist())] for h in subgroups_up_to_conjugacy(name)]
    blob = json.dumps(rows, separators=(",", ":")).encode()
    golden = json.loads((GOLDEN / "subgroup_reps.json").read_text())[name]
    assert len(rows) == golden["classes"]
    assert hashlib.sha256(blob).hexdigest() == golden["sha256"]


@pytest.mark.parametrize("name,classes,subgroups", [("A4", 5, 10), ("S4", 11, 30), ("A5", 9, 59)])
def test_subgroup_class_and_total_counts(name, classes, subgroups):
    g = standard_group(name)
    reps = subgroups_up_to_conjugacy(name)
    elements = perms_of(g, range(g.order))
    class_sizes = [len({frozenset(mul(mul(x, p), inverse(x)) for p in perms_of(g, h))
                        for x in elements})
                   for h in reps]
    assert len(reps) == classes and sum(class_sizes) == subgroups


# ---------------------------------------------------------- coset actions


def test_coset_action_by_point_stabilizer_is_natural():
    s4 = standard_group("S4")
    s3 = np.flatnonzero(s4.elements[:, 3] == 3)
    a = coset_action(s4, s3)
    assert a.m == 4
    assert burnside_orbit_count(a) == 1
    assert is_faithful(a)


def test_coset_action_degrees():
    s4 = standard_group("S4")
    assert coset_action(s4, generated_by(s4, from_cycles(4, (0, 1, 2)))).m == 8
    a5 = standard_group("A5")
    assert coset_action(a5, generated_by(a5, from_cycles(5, (0, 1, 2)))).m == 20


def test_coset_action_rejects_non_subgroup():
    s4 = standard_group("S4")
    with pytest.raises(NotASubgroupError):
        coset_action(s4, [row(s4, from_cycles(4, (0, 1)))])


@pytest.mark.parametrize("name,h", [
    ("S4", [from_cycles(4), from_cycles(4, (0, 1)), from_cycles(4, (1, 2))]),
    ("A4", [from_cycles(4), from_cycles(4, (0, 1))]),  # a subgroup of S4 only
    ("S4", [from_cycles(5), from_cycles(5, (0, 1), (2, 3))]),
    ("S4", []),
], ids=["not-closed", "outside-g", "other-degree", "empty"])
def test_coset_transversal_rejects_non_subgroup(name, h):
    # coset_action finds the transversal first, and that is where h is judged;
    # an image list that is no element of g has row -1
    g = standard_group(name)
    with pytest.raises(NotASubgroupError):
        coset_action(g, [row(g, p) for p in h])


def test_coset_action_rejects_rows_outside_the_group():
    s4 = standard_group("S4")
    for h in ([0, 24], [0, -1]):
        with pytest.raises(NotASubgroupError):
            coset_action(s4, h)


def test_group_rejects_set_not_closed_under_product():
    # swap the 3-cycle (0 1 2) of A4 <= A5 for (0 1 4): same order, parity
    # and class sizes, no repeats, but products leave the set
    swap = {from_cycles(5, (0, 1, 2)): from_cycles(5, (0, 1, 4))}
    elements = [swap.get(e, e) for e in map(tuple, a4_inside_a5().elements.tolist())]
    with pytest.raises(ValueError, match="not closed under product"):
        PermGroup("A4", elements)


def test_transversal_covers_group():
    s4 = standard_group("S4")
    h = generated_by(s4, from_cycles(4, (0, 1)))
    reps = perms_of(s4, left_cosets(s4, h)[0])
    assert len(reps) == 12
    assert len({mul(r, hh) for r in reps for hh in perms_of(s4, h)}) == 24


# ------------------------------------------------------------ fixed counts


def test_transposition_fixes_two_letters():
    s4 = standard_group("S4")
    assert fixed_count(natural_action(s4), from_cycles(4, (0, 1))) == 2


def test_identity_fixes_everything():
    a5 = standard_group("A5")
    a = coset_action(a5, generated_by(a5, from_cycles(5, (0, 1, 2))))
    assert fixed_count(a, from_cycles(5)) == a.m == 20


def test_3cycle_fixes_two_cosets_in_degree8_action():
    s4 = standard_group("S4")
    a = coset_action(s4, generated_by(s4, from_cycles(4, (0, 1, 2))))
    assert fixed_count(a, from_cycles(4, (0, 1, 2))) == 2


# --------------------------------------------------------------- burnside


def test_transitive_actions_have_one_orbit():
    a5 = standard_group("A5")
    assert burnside_orbit_count(natural_action(a5)) == 1
    a = coset_action(a5, generated_by(a5, from_cycles(5, (0, 1, 2))))
    assert burnside_orbit_count(a) == 1
    assert sum(fixed_count(a, e) for e in perms_of(a5, range(60))) == 60


def test_two_regular_orbits_count_two():
    s4 = standard_group("S4")
    reg = coset_action(s4, [0])
    both = direct_sum([reg, reg])
    assert both.m == 48
    assert burnside_orbit_count(both) == 2
    assert len(orbit_partition(both)) == 2


def test_burnside_flags_corrupt_action():
    s4 = standard_group("S4")
    bad = natural_action(s4).gen_images.copy()
    assert bad[0].tolist() == list(from_cycles(4, (2, 3)))  # the first generator, a transposition
    bad[0] = from_cycles(4)  # breaks the class-sum divisibility
    with pytest.raises(InconsistentActionError, match="fixed-point sum 54 not divisible"):
        burnside_orbit_count(GroupAction(s4, bad))


def _drop_row(images, g):
    return images[:-1]


def _float_images(images, g):
    return images.astype(float)


def _repeat_a_vertex(images, g):
    images[-1] = (0, 0, 1, 2)
    return images


def _vertex_out_of_range(images, g):
    images[-1] = (0, 1, 2, 4)
    return images


def _negative_vertex(images, g):
    images[-1] = (-1, 0, 1, 2)
    return images


@pytest.mark.parametrize("corrupt,message", [
    (_drop_row, "shape"), (_float_images, "integers"),
    (_repeat_a_vertex, "bijection"), (_vertex_out_of_range, "bijection"),
    (_negative_vertex, "bijection"),
])
def test_group_action_rejects_bad_images(corrupt, message):
    """Generator rows of the natural S4 action, one dropped, made floats,
    or the second no bijection."""
    s4 = standard_group("S4")
    images = natural_action(s4).gen_images.copy()
    with pytest.raises(ValueError, match=message):
        GroupAction(s4, corrupt(images, s4))


def test_group_action_images_are_read_only():
    a = coset_action(standard_group("A4"), (0,))
    with pytest.raises(ValueError, match="read-only"):
        a.gen_images[1, 0] = 0
    for part in a.orbits:
        with pytest.raises(ValueError, match="read-only"):
            part[0] = 1


def test_group_action_leaves_the_callers_array_writable():
    s4 = standard_group("S4")
    images = s4.elements[list(s4.generators)]
    a = GroupAction(s4, images)
    assert images.flags.writeable and not a.gen_images.flags.writeable
    assert np.shares_memory(images, a.gen_images)


def test_orbit_minima_cached_per_action(monkeypatch):
    calls, original = [], perm._orbit_minima

    def counted(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(perm, "_orbit_minima", counted)
    g = standard_group("S4")
    a = direct_sum([coset_action(g, h) for h in subgroups_up_to_conjugacy("S4")[:3]])
    first = a.orbits
    assert a.orbits is first
    kernel(a)  # the fixed-point table and the homomorphism check read the cached table
    check_homomorphism(a)
    assert np.array_equal(first.reps[first.index], action_table(a).min(axis=0))
    assert len(calls) == 1
    GroupAction(g, a.gen_images).orbits  # a new action computes its own
    assert len(calls) == 2


# ------------------------------------------------------------ faithfulness


def test_regular_action_is_faithful():
    a4 = standard_group("A4")
    assert is_faithful(coset_action(a4, [0]))


def test_quotient_by_d4_cosets_is_unfaithful():
    s4 = standard_group("S4")
    d4 = generated_by(s4, from_cycles(4, (0, 1, 2, 3)), from_cycles(4, (0, 2)))
    a = coset_action(s4, d4)
    assert a.m == 3
    assert not is_faithful(a)
    # kernel is the normal Klein four-group
    assert len(kernel(a)) == 4


def test_natural_a4_is_faithful():
    assert is_faithful(natural_action(standard_group("A4")))


# ---------------------------------------------------------- pair stabilizers


def pair_stabilizer(a, u, v):
    """Ascending rows of the elements fixing both u and v."""
    return tuple(np.flatnonzero(pair_stabilizers(a, [(u, v)])[0]).tolist())


def test_regular_pair_stabilizer_trivial():
    a4 = standard_group("A4")
    reg = coset_action(a4, [0])
    assert pair_stabilizer(reg, 0, 5) == (0,)  # the identity's row


def test_degree8_axis_pair_has_order3_stabilizer():
    s4 = standard_group("S4")
    tc = from_cycles(4, (0, 1, 2))
    a = coset_action(s4, generated_by(s4, tc))
    u, v = [w for w in range(a.m) if a.image(row(s4, tc), w) == w]
    stab = pair_stabilizer(a, u, v)
    assert len(stab) == 3
    assert stab == generated_by(s4, tc)


def test_natural_a5_pair_34_stabilized_by_3cycle():
    a5 = standard_group("A5")
    stab = pair_stabilizer(natural_action(a5), 3, 4)
    assert stab == generated_by(a5, from_cycles(5, (0, 1, 2)))


def test_pair_stabilizer_rejects_equal_vertices():
    with pytest.raises(ValueError):
        pair_stabilizer(natural_action(standard_group("A4")), 1, 1)


# ------------------------------------------------------- properties


@settings(max_examples=60)
@given(st.sampled_from(GROUPS), st.data())
def test_action_is_homomorphism(name, data):
    g = standard_group(name)
    subs = subgroups_up_to_conjugacy(name)
    h = data.draw(st.sampled_from(subs))
    a = coset_action(g, h)
    e1 = data.draw(st.sampled_from(sorted(perms_of(g, range(g.order)))))
    e2 = data.draw(st.sampled_from(sorted(perms_of(g, range(g.order)))))
    w = np.arange(a.m)
    assert (a.image(row(g, mul(e1, e2)), w) == a.image(row(g, e1), a.image(row(g, e2), w))).all()


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(GROUPS), st.data())
def test_burnside_equals_union_find(name, data):
    g = standard_group(name)
    subs = subgroups_up_to_conjugacy(name)
    picks = data.draw(st.lists(st.sampled_from(subs), min_size=1, max_size=3))
    a = direct_sum([coset_action(g, h) for h in picks])
    assert burnside_orbit_count(a) == len(orbit_partition(a))


@settings(max_examples=40)
@given(st.sampled_from(GROUPS), st.data())
def test_coset_action_faithful_iff_trivial_core(name, data):
    g = standard_group(name)
    h = data.draw(st.sampled_from(subgroups_up_to_conjugacy(name)))
    a = coset_action(g, h)
    core = kernel(a)
    assert is_faithful(a) == (len(core) == 1)
    # the kernel is exactly the intersection of the conjugates of h
    elements = perms_of(g, range(g.order))
    inter = set(elements)
    for x in elements:
        inter &= {mul(mul(x, hh), inverse(x)) for hh in perms_of(g, h)}
    assert perms_of(g, core) == inter


def test_restrict_action_to_even_subgroup():
    s4 = standard_group("S4")
    a4 = standard_group("A4")
    a = natural_action(s4)
    r = restrict_action(a, a4)
    assert r.group.name == "A4" and is_faithful(r)
    check_homomorphism(r)


def test_parity_multiplicative():
    for name in GROUPS:
        g = standard_group(name)
        assert (g.even[g.cayley] == (g.even[:, None] == g.even[None, :])).all()
    assert not standard_group("S4").even.all()


# -------------------------------------------------------------- generators

_ALL_GROUPS = [lambda n=n: standard_group(n) for n in GROUPS] + [a4_inside_a5]


@pytest.mark.parametrize("make", _ALL_GROUPS)
def test_generators_are_the_first_generating_pair(make):
    g = make()
    a, b = g.generators
    pairs = [(i, j) for i in range(g.order) for j in range(i + 1, g.order)]
    first = next(p for p in pairs if len(generated(g, p)) == g.order)
    assert (a, b) == first


@pytest.mark.parametrize("name", GROUPS)
def test_check_homomorphism_catches_any_corrupt_row(name):
    """Only the generators' edges at the representative, vertex 0, are
    tested, yet a generator row of the regular action whose images of
    vertex 0 and of any other vertex are swapped is caught, as the
    all-column reference catches it."""
    g = standard_group(name)
    a = coset_action(g, (0,))  # regular
    for k in range(2):
        for d in range(1, g.order):
            bad = a.gen_images.copy()
            bad[k, [0, d]] = bad[k, [d, 0]]
            for check in (check_homomorphism, all_column_homomorphism):
                with pytest.raises(InconsistentActionError, match=r"^act\("):
                    check(GroupAction(g, bad))


@pytest.mark.parametrize("name", GROUPS)
@pytest.mark.parametrize("gen", [0, 1])
@pytest.mark.parametrize("column", ["representative", "other"])
def test_check_homomorphism_agrees_with_the_all_column_reference(name, gen, column):
    """On generator rows, the form verify reads, the orbit-local check and
    the all-column reference reject the same actions: one generator's images of a representative (or of another
    vertex) and of a second vertex swapped, in either generator, and
    nothing swapped when the two are one.  The action has a regular
    orbit, one with a stabilizer of order 2 and a fixed vertex."""
    g = standard_group(name)
    subs = subgroups_up_to_conjugacy(name)
    a = direct_sum([coset_action(g, h) for h in (subs[0], subs[1], subs[-1])])
    reps = a.orbits.reps
    others = np.setdiff1d(np.arange(a.m), reps)
    columns = reps if column == "representative" else others[::len(others) // 4]
    verdicts = []
    for c in columns.tolist():
        for d in range(a.m):
            images = a.gen_images.copy()
            images[gen, [c, d]] = images[gen, [d, c]]
            table = GroupAction(g, images)
            outcomes = []
            for check in (check_homomorphism, all_column_homomorphism):
                try:
                    check(table)
                    outcomes.append(True)
                except InconsistentActionError as err:
                    assert str(err).startswith("act(")
                    outcomes.append(False)
            assert outcomes[0] == outcomes[1], (c, d)
            verdicts.append(outcomes[0])
    assert set(verdicts) == {True, False}


def _built_actions(group, ms):
    """The action build makes for each admissible m in ms, and its parent
    when the plan is a restriction.  The building action (the parent, or
    the action itself) comes with the orbit minima the plan's parts give,
    each part's first vertex repeated over the part (conftest.plan_orbits);
    None otherwise."""
    for m in ms:
        if m in admissible_residues(group):
            p = plan(group, m)
            va = build(p)
            sizes = [size for _, size in plan_orbits(p)]
            parts = np.repeat(list(itertools.accumulate(sizes[:-1], initial=0)), sizes)
            yield f"{group} m={m}", va.action, parts if va.parent is None else None
            if va.parent is not None:
                yield f"{group} m={m} parent", va.parent, parts


def _coset_actions(group):
    g = standard_group(group)
    return [(f"{group}/H{i}", coset_action(g, h))
            for i, h in enumerate(subgroups_up_to_conjugacy(group))]


TABLE_CASES = {
    "plans": lambda: (case for group in GROUPS for case in _built_actions(group, range(4, 400))),
    "cosets": lambda: ((*case, None) for group in GROUPS for case in _coset_actions(group)),
    "sums": lambda: ((f"{x} + {y}", direct_sum([a, b]), None) for group in GROUPS
                     for (x, a), (y, b) in itertools.combinations_with_replacement(
                         _coset_actions(group), 2)),
    # the large-orbits workload, and A4 m=1205, a restriction of A5
    "large-orbits": lambda: itertools.chain(_built_actions("A4", [1205, 1213]),
                                            _built_actions("S4", [1204]), _built_actions("A5", [1205])),
}


@pytest.mark.parametrize("kind", TABLE_CASES)
def test_fixed_points_equal_the_all_column_reference(kind):
    """The orbit table and the fixed-point table, read off the
    representatives' images, and everything read from them (kernel, pair
    fixer counts, interchangers) equal the all-column references: on
    every admissible plan's action below m=400 and its parent, on every
    coset action of A4, S4 and A5 (unfaithful ones included), on every
    direct sum of two of those, and on the large-orbits actions and A4
    m=1205 with its parent.  On a building action, the part starts the
    plan gives are the orbit minima."""
    checked = 0
    for name, a, parts in TABLE_CASES[kind]():
        orbits = all_column_orbits(a)
        for part, expected in zip(a.orbits, orbits):
            assert np.array_equal(part, expected), name
        if parts is not None:
            assert np.array_equal(parts, orbits.reps[orbits.index]), name
        ref = all_column_fixed(a)
        pinned, fixers, counts = a.fixed_points
        assert np.array_equal(pinned, ref["pinned"]), name
        assert np.array_equal(fixers, ref["fixed"][:, pinned]), name
        assert np.array_equal(counts, ref["counts"]), name
        assert np.array_equal(pair_fixer_counts(a)[1], ref["pairs"]), name
        assert kernel(a) == tuple(np.flatnonzero(ref["fixed"].all(axis=1)).tolist()), name
        assert np.array_equal(interchangers(VertexAction(a, ())), ref["swappers"]), name
        checked += 1
    assert checked >= {"plans": 300, "cosets": 25, "sums": 126, "large-orbits": 5}[kind]


def _reference_tables():
    """(name, action, reference table) for every admissible plan's action
    below m=400 and its parent, the large-orbits actions and A4 m=1205
    with its parent, and every coset action of A4, S4 and A5: each
    reference is a whole table made without generator rows, stacked_table
    and its rows at the subgroup for a plan, coset_table for a coset."""
    plans = [(group, m) for group in GROUPS for m in range(4, 400) if m in admissible_residues(group)]
    for group, m in plans + [("A4", 1205), ("A4", 1213), ("S4", 1204), ("A5", 1205)]:
        p = plan(group, m)
        va, ref = build(p), stacked_table(p)
        if va.parent is None:
            yield f"{group} m={m}", va.action, ref
        else:
            yield f"{group} m={m} parent", va.parent, ref
            yield f"{group} m={m}", va.action, ref[va.parent.group.rows(va.action.group.elements)]
    for group in GROUPS:
        g = standard_group(group)
        for i, h in enumerate(subgroups_up_to_conjugacy(group)):
            yield f"{group}/H{i}", coset_action(g, h), coset_table(g, h)


def test_orbit_block_and_image_equal_the_reference_table():
    """The orbit table's block, walked from the generator rows, is the
    reference table's columns at the orbit minima, each carrier is the
    first row taking the minimum to its vertex, and GroupAction.image over
    every (row, vertex) is the whole reference table."""
    checked = 0
    for name, a, ref in _reference_tables():
        reps, index, carrier, block = a.orbits
        low = ref.min(axis=0)
        assert np.array_equal(reps[index], low), name
        assert np.array_equal(block, ref[:, reps]), name
        assert np.array_equal(carrier, (ref[:, low] == np.arange(a.m)).argmax(axis=0)), name
        assert np.array_equal(a.image(np.arange(a.group.order)[:, None], np.arange(a.m)), ref), name
        checked += 1
    assert checked >= 300 + 5 + 25


def test_fixed_points_are_read_only():
    a = coset_action(standard_group("S4"), (0, 1))
    for part in a.fixed_points:
        with pytest.raises(ValueError):
            part[...] = 0


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(GROUPS), st.data())
def test_action_from_generators_rebuilds_every_action(name, data):
    """The generator rows of a direct sum of coset actions give, through
    GroupAction.image, every row of the sum of the whole coset tables,
    and its orbit minima are those union-find finds."""
    g = standard_group(name)
    picks = data.draw(st.lists(st.sampled_from(subgroups_up_to_conjugacy(name)),
                               min_size=1, max_size=3))
    a = direct_sum([coset_action(g, h) for h in picks])
    whole = table_sum([coset_table(g, h) for h in picks])
    assert (a.image(np.arange(g.order)[:, None], np.arange(a.m)) == whole).all()
    reps, index, _, _ = a.orbits
    assert (reps[index] == whole.min(axis=0)).all()
    assert reps.tolist() == [orbit[0] for orbit in orbit_partition(a)]


def test_action_from_generators_keeps_inconsistent_generator_rows():
    """Generator rows that break a relation still give an action, with the
    stored rows in place; check_homomorphism rejects it."""
    g = standard_group("S4")
    swapped = natural_action(g).gen_images[::-1]
    a = GroupAction(g, swapped)
    assert (a.gen_images == swapped).all()
    with pytest.raises(InconsistentActionError):
        check_homomorphism(a)


# explicit ids keep the names these cases have long been listed and selected by
@pytest.mark.parametrize("images,message", [
    pytest.param([[0, 1, 2, 3]], "equal-length lists", id="gens3-images3-equal-length lists"),
    pytest.param([[0, 1, 2, 2], [0, 1, 2, 3]], "bijection", id="gens4-images4-bijection"),
    pytest.param([[0.0, 1.0, 3.0, 2.0], [1.0, 2.0, 0.0, 3.0]], "integers",
                 id="gens5-images5-integers"),
])
def test_action_from_generators_rejects(images, message):
    with pytest.raises(ValueError, match=message):
        GroupAction(standard_group("S4"), images)
