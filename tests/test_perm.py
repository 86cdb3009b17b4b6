import hashlib
import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsglab import perm
from tsglab.perm import (
    ClassLabel,
    GroupAction,
    InconsistentActionError,
    NotASubgroupError,
    PermGroup,
    Permutation,
    burnside_orbit_count,
    check_homomorphism,
    closure,
    coset_action,
    direct_sum,
    from_cycles,
    identity,
    is_faithful,
    kernel,
    left_cosets,
    pair_stabilizer,
    restrict_action,
    standard_group,
    a4_inside_a5,
    subgroups_up_to_conjugacy,
)

from .conftest import orbit_partition

GROUPS = ("A4", "S4", "A5")
GOLDEN = Path(__file__).parent / "golden"


def natural_action(g):
    return GroupAction(g, [e.images for e in g.elements])


def inverse(p):
    inv = [0] * p.degree
    for i, j in enumerate(p.images):
        inv[j] = i
    return Permutation(tuple(inv))


def fixed_count(a, e):
    """Vertices fixed by element e, read from its row."""
    return int(a.fixed()[a.group.index[e]].sum())


# ---------------------------------------------------------------- groups


@pytest.mark.parametrize("name,order", [("A4", 12), ("S4", 24), ("A5", 60)])
def test_group_orders(name, order):
    assert len(standard_group(name)) == order


def test_s4_class_sizes():
    g = standard_group("S4")
    sizes = {lab: len(es) for lab, es in g.classes.items()}
    assert sizes == {
        ClassLabel(1, True): 1,
        ClassLabel(2, True): 3,
        ClassLabel(2, False): 6,
        ClassLabel(3, True): 8,
        ClassLabel(4, False): 6,
    }


def test_a4_has_8_order3_elements():
    assert len(standard_group("A4").classes[ClassLabel(3, True)]) == 8


def test_a5_has_24_order5_elements():
    assert len(standard_group("A5").classes[ClassLabel(5, True)]) == 24


@pytest.mark.parametrize("name", GROUPS)
def test_group_closed_under_product_and_inverse(name):
    g = standard_group(name)
    for a in g.elements:
        assert inverse(a) in g.element_set
    for a in g.generators:
        for b in g.elements:
            assert a * b in g.element_set


def test_class_label_rejects_odd_order_odd_parity():
    with pytest.raises(ValueError):
        ClassLabel(3, False)


def test_a4_inside_a5_is_point_stabilizer():
    h = a4_inside_a5()
    assert h.name == "A4" and h.degree == 5 and len(h) == 12
    assert all(e.images[4] == 4 for e in h.elements)


def _shuffled_a5():
    perms = list(standard_group("A5").elements)
    random.Random(5).shuffle(perms)
    return PermGroup("A5", 5, perms, [])


@pytest.mark.parametrize("make", [
    lambda: standard_group("A4"), lambda: standard_group("S4"), lambda: standard_group("A5"),
    a4_inside_a5, _shuffled_a5,
], ids=["A4", "S4", "A5", "a4_inside_a5", "shuffled-A5"])
def test_rows_put_identity_first_and_classes_agree_with_class_of(make):
    g = make()
    assert g.elements[0] == g.identity and g.index[g.identity] == 0
    assert list(g.elements) == sorted(g.elements)
    assert sorted(i for rows in g.classes.values() for i in rows) == list(range(g.order))
    for label, rows in g.classes.items():
        assert list(rows) == sorted(rows)
        assert all(g.class_of[g.elements[i]] == label for i in rows)


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
    assert {e.order() for e in twelves[0]} == {1, 2, 3}


@pytest.mark.parametrize("name", GROUPS)
def test_subgroup_reps_are_closed(name):
    g = standard_group(name)
    for h in subgroups_up_to_conjugacy(name):
        assert g.identity in h
        assert all(a * b in h for a in h for b in h)


@pytest.mark.parametrize("name", GROUPS)
def test_subgroup_reps_match_golden(name):
    """Same representatives in the same order as recorded in
    golden/subgroup_reps.json before the enumeration moved to the Cayley table."""
    perm._subgroups_up_to_conjugacy.cache_clear()
    rows = [[len(h), sorted(p.images for p in h)] for h in subgroups_up_to_conjugacy(name)]
    blob = json.dumps(rows, separators=(",", ":")).encode()
    golden = json.loads((GOLDEN / "subgroup_reps.json").read_text())[name]
    assert len(rows) == golden["classes"]
    assert hashlib.sha256(blob).hexdigest() == golden["sha256"]


@pytest.mark.parametrize("name,classes,subgroups", [("A4", 5, 10), ("S4", 11, 30), ("A5", 9, 59)])
def test_subgroup_class_and_total_counts(name, classes, subgroups):
    g = standard_group(name)
    reps = subgroups_up_to_conjugacy(name)
    class_sizes = [len({frozenset(x * p * inverse(x) for p in h) for x in g.elements})
                   for h in reps]
    assert len(reps) == classes and sum(class_sizes) == subgroups


# ---------------------------------------------------------- coset actions


def test_coset_action_by_point_stabilizer_is_natural():
    s4 = standard_group("S4")
    s3 = frozenset(e for e in s4.elements if e.images[3] == 3)
    a = coset_action(s4, s3)
    assert a.m == 4
    assert burnside_orbit_count(a) == 1
    assert is_faithful(a)


def test_coset_action_degrees():
    s4 = standard_group("S4")
    assert coset_action(s4, closure((from_cycles(4, (0, 1, 2)),), 4)).m == 8
    a5 = standard_group("A5")
    assert coset_action(a5, closure((from_cycles(5, (0, 1, 2)),), 5)).m == 20


def test_coset_action_rejects_non_subgroup():
    s4 = standard_group("S4")
    with pytest.raises(NotASubgroupError):
        coset_action(s4, frozenset([from_cycles(4, (0, 1))]))


@pytest.mark.parametrize("name,h", [
    ("S4", frozenset([identity(4), from_cycles(4, (0, 1)), from_cycles(4, (1, 2))])),
    ("A4", frozenset([identity(4), from_cycles(4, (0, 1))])),  # a subgroup of S4 only
    ("S4", frozenset([identity(5), from_cycles(5, (0, 1), (2, 3))])),
    ("S4", frozenset()),
], ids=["not-closed", "outside-g", "other-degree", "empty"])
def test_coset_transversal_rejects_non_subgroup(name, h):
    # coset_action finds the transversal first, and that is where h is judged
    with pytest.raises(NotASubgroupError):
        coset_action(standard_group(name), h)


def test_group_rejects_set_not_closed_under_product():
    # swap the 3-cycle (0 1 2) of A4 <= A5 for (0 1 4): same order, parity
    # and class sizes, no repeats, but products leave the set
    swap = {from_cycles(5, (0, 1, 2)): from_cycles(5, (0, 1, 4))}
    elements = [swap.get(e, e) for e in a4_inside_a5().elements]
    with pytest.raises(ValueError, match="not closed under product"):
        PermGroup("A4", 5, elements, [])


def test_transversal_covers_group():
    s4 = standard_group("S4")
    h = closure((from_cycles(4, (0, 1)),), 4)
    reps = [s4.elements[r] for r in left_cosets(s4, h)[0]]
    assert len(reps) == 12
    assert len({r * hh for r in reps for hh in h}) == 24


# ------------------------------------------------------------ fixed counts


def test_transposition_fixes_two_letters():
    s4 = standard_group("S4")
    assert fixed_count(natural_action(s4), from_cycles(4, (0, 1))) == 2


def test_identity_fixes_everything():
    a5 = standard_group("A5")
    a = coset_action(a5, closure((from_cycles(5, (0, 1, 2)),), 5))
    assert fixed_count(a, a5.identity) == a.m == 20


def test_3cycle_fixes_two_cosets_in_degree8_action():
    s4 = standard_group("S4")
    a = coset_action(s4, closure((from_cycles(4, (0, 1, 2)),), 4))
    assert fixed_count(a, from_cycles(4, (0, 1, 2))) == 2


# --------------------------------------------------------------- burnside


def test_transitive_actions_have_one_orbit():
    a5 = standard_group("A5")
    assert burnside_orbit_count(natural_action(a5)) == 1
    a = coset_action(a5, closure((from_cycles(5, (0, 1, 2)),), 5))
    assert burnside_orbit_count(a) == 1
    assert sum(fixed_count(a, e) for e in a5.elements) == 60


def test_two_regular_orbits_count_two():
    s4 = standard_group("S4")
    reg = coset_action(s4, frozenset([s4.identity]))
    both = direct_sum([reg, reg])
    assert both.m == 48
    assert burnside_orbit_count(both) == 2
    assert len(orbit_partition(both)) == 2


def test_burnside_flags_corrupt_action():
    s4 = standard_group("S4")
    a = natural_action(s4)
    bad = a.images.copy()
    t = from_cycles(4, (0, 1))
    bad[s4.index[t]] = identity(4).images  # breaks the class-sum divisibility
    with pytest.raises(InconsistentActionError):
        burnside_orbit_count(GroupAction(s4, bad))


def _drop_row(images, g):
    return images[:-1]


def _float_images(images, g):
    return images.astype(float)


def _repeat_a_vertex(images, g):
    images[-1] = (0, 0, 1, 2)
    return images


def _move_identity(images, g):
    images[g.index[g.identity]] = from_cycles(4, (0, 1)).images
    return images


@pytest.mark.parametrize("corrupt,message", [
    (_drop_row, "shape"), (_float_images, "integers"),
    (_repeat_a_vertex, "bijection"), (_move_identity, "identity"),
])
def test_group_action_rejects_bad_images(corrupt, message):
    s4 = standard_group("S4")
    images = np.array([e.images for e in s4.elements])
    with pytest.raises(ValueError, match=message):
        GroupAction(s4, corrupt(images, s4))


# ------------------------------------------------------------ faithfulness


def test_regular_action_is_faithful():
    a4 = standard_group("A4")
    assert is_faithful(coset_action(a4, frozenset([a4.identity])))


def test_quotient_by_d4_cosets_is_unfaithful():
    s4 = standard_group("S4")
    d4 = closure((from_cycles(4, (0, 1, 2, 3)), from_cycles(4, (0, 2))), 4)
    a = coset_action(s4, d4)
    assert a.m == 3
    assert not is_faithful(a)
    # kernel is the normal Klein four-group
    assert len(kernel(a)) == 4


def test_natural_a4_is_faithful():
    assert is_faithful(natural_action(standard_group("A4")))


# ---------------------------------------------------------- pair stabilizers


def test_regular_pair_stabilizer_trivial():
    a4 = standard_group("A4")
    reg = coset_action(a4, frozenset([a4.identity]))
    assert pair_stabilizer(reg, 0, 5) == (0,)  # the identity's row


def test_degree8_axis_pair_has_order3_stabilizer():
    s4 = standard_group("S4")
    tc = from_cycles(4, (0, 1, 2))
    a = coset_action(s4, closure((tc,), 4))
    u, v = [w for w in range(a.m) if a.images[s4.index[tc]][w] == w]
    stab = pair_stabilizer(a, u, v)
    assert len(stab) == 3
    assert frozenset(s4.elements[i] for i in stab) == closure((tc,), 4)


def test_natural_a5_pair_34_stabilized_by_3cycle():
    a5 = standard_group("A5")
    stab = pair_stabilizer(natural_action(a5), 3, 4)
    assert frozenset(a5.elements[i] for i in stab) == closure((from_cycles(5, (0, 1, 2)),), 5)


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
    e1 = data.draw(st.sampled_from(g.elements))
    e2 = data.draw(st.sampled_from(g.elements))
    row = g.index
    assert (a.images[row[e1 * e2]] == a.images[row[e1]][a.images[row[e2]]]).all()


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
    inter = frozenset(g.elements)
    for x in g.elements:
        xinv = inverse(x)
        inter &= frozenset(x * hh * xinv for hh in h)
    assert core == inter


def test_restrict_action_to_even_subgroup():
    s4 = standard_group("S4")
    a4 = standard_group("A4")
    a = natural_action(s4)
    r = restrict_action(a, a4)
    assert r.group.name == "A4" and is_faithful(r)
    check_homomorphism(r)


@settings(max_examples=40)
@given(st.permutations(list(range(5))), st.permutations(list(range(5))))
def test_parity_multiplicative(p, q):
    a, b = Permutation(tuple(p)), Permutation(tuple(q))
    assert (a * b).is_even() == (a.is_even() == b.is_even())
