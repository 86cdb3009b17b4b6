from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsglab.profiles import (
    CLASS_WEIGHTS,
    MAX_FIX,
    CongruenceSet,
    DomainError,
    FixedVertexProfile,
    S4_WITNESSES,
    Verdict,
    admissible_residues,
    enumerate_profiles,
    m_rules,
    necessity_check,
    profile_rules,
    residues_from_profile,
    rule_abiding_profiles,
    rule_set,
)
from tsglab.actions import plan

from .conftest import passes_profile_rules

# The classification targets, one congruence set per group.
A4_SET = {0, 1, 4, 5, 8}
A5_SET = {0, 1, 5, 20}
S4_SET = {0, 4, 8, 12, 20}


# ------------------------------------------------------------------ rules


def test_a4_has_two_caps_and_three_derived_rules():
    rules = rule_set("A4")
    assert len(rules) == 5
    assert [r.id for r in rules[:2]] == ["fix_le_3", "inv_fix_le_2"]


def test_a5_rules_include_n5_ne_2():
    assert "n5ne2" in [r.id for r in rule_set("A5")]


def test_s4_rules_include_n4_zero_and_congruences():
    ids = [r.id for r in rule_set("S4")]
    assert "n4_zero" in ids
    assert ids[-3:] == ["m_mod_4", "m_mod_12_tetra", "m_ne_16_mod_24"]


def test_every_rule_has_statement_text():
    for g in ("A4", "S4", "A5"):
        for r in rule_set(g):
            assert r.text.strip()


_CAPS = [
    ("fix_le_3", "no non-trivial element fixes more than 3 vertices"),
    ("inv_fix_le_2", "no order 2 element fixes more than 2 vertices"),
]
_INV_LE_1 = ("inv_fix_le_1", "no order 2 element of the even subgroup fixes more than 1 vertex")
_N3_ZERO = ("n3_zero_forces_n2_zero",
            "a vertex fixed by an involution is fixed by every element, so n3 = 0 forces n2 = 0")
_INV_N3 = ("inv_vertex_excludes_n3_eq_3",
           "if an involution fixes a vertex then no element fixes 3 vertices")
RULE_SETS = {
    "A4": _CAPS + [_INV_LE_1, _N3_ZERO, _INV_N3],
    "S4": _CAPS + [_INV_LE_1, _N3_ZERO, _INV_N3,
                   ("n4_zero", "every order 4 element has empty fixed point set, so n4 = 0"),
                   ("m_mod_4", "m ≡ 0 (mod 4)"),
                   ("m_mod_12_tetra",
                    "m mod 12 must lie in {0, 1, 4, 5, 8} (even-subgroup constraint)"),
                   ("m_ne_16_mod_24", "m ≢ 16 (mod 24)")],
    "A5": _CAPS + [("fix_le_2", "no element fixes 3 vertices"), _INV_LE_1, _N3_ZERO,
                   ("single_fix_couples", "n3 = 1 or n5 = 1 forces n2 = n3 = n5 = 1"),
                   ("n5ne2", "n5 != 2: two vertices fixed by an order 5 rotation would force "
                             "edges crossing at the dodecahedral center")],
}
M_RULE_IDS = {"A4": [], "S4": ["m_mod_4", "m_mod_12_tetra", "m_ne_16_mod_24"], "A5": []}


@pytest.mark.parametrize("group", ["A4", "S4", "A5"])
def test_rule_set_ids_and_texts_in_order(group):
    assert [(r.id, r.text) for r in rule_set(group)] == RULE_SETS[group]


@pytest.mark.parametrize("group", ["A4", "S4", "A5"])
def test_profile_and_m_rules_split_the_rule_set(group):
    ids = [rid for rid, _ in RULE_SETS[group]]
    assert [r.id for r in m_rules(group)] == M_RULE_IDS[group]
    assert [r.id for r in profile_rules(group)] == [i for i in ids if i not in M_RULE_IDS[group]]
    assert {r.kind for r in m_rules(group)} <= {"m"}
    assert {r.kind for r in profile_rules(group)} == {"profile"}


@pytest.mark.parametrize("group,rid,text,residues", [
    ("A4", "residues_mod_12",
     "Burnside integrality over the allowed profiles forces m ≡ 0, 1, 4, 5, 8 (mod 12)", A4_SET),
    ("A5", "residues_mod_60",
     "Burnside integrality over the allowed profiles forces m ≡ 0, 1, 5, 20 (mod 60)", A5_SET),
], ids=["A4", "A5"])
def test_residue_rules(group, rid, text, residues):
    order = admissible_residues(group).modulus
    rule = necessity_check(group, order + 2).violated_rule
    assert (rule.id, rule.text, rule.kind) == (rid, text, "m")
    assert {m for m in range(order, 2 * order) if rule.check(m)} == {order + r for r in residues}


# ----------------------------------------------------------------- tables


def test_a4_table_has_six_profiles_five_residues():
    ps = enumerate_profiles("A4")
    assert [(p.n2, p.n3) for p in ps] == [(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2)]
    assert {residues_from_profile("A4", p) for p in ps} == A4_SET


def test_a4_residue_column():
    expected = {(0, 0): 0, (0, 3): 0, (0, 1): 4, (0, 2): 8, (1, 1): 1, (1, 2): 5}
    for p in enumerate_profiles("A4"):
        assert residues_from_profile("A4", p) == expected[(p.n2, p.n3)]


def test_a5_table_rows_and_residues():
    ps = enumerate_profiles("A5")
    rows = {(p.n2, p.n3, p.n5): residues_from_profile("A5", p) for p in ps}
    assert rows == {(0, 0, 0): 0, (0, 2, 0): 20, (1, 1, 1): 1, (1, 2, 0): 5}


def test_a5_excludes_lone_n3():
    keys = {(p.n2, p.n3, p.n5) for p in enumerate_profiles("A5")}
    assert (0, 1, 0) not in keys


def test_s4_has_no_profile_table():
    with pytest.raises(ValueError, match="necessity_check"):
        enumerate_profiles("S4")


def test_trivial_profile_residue_zero():
    assert residues_from_profile("A4", FixedVertexProfile("A4")) == 0


# ------------------------------------------------------ rule soundness


@pytest.mark.parametrize("group", ["A4", "A5"])
def test_enumerated_profiles_pass_all_rules(group):
    for p in enumerate_profiles(group):
        assert passes_profile_rules(group, p)


def test_box_profiles_failing_a_rule_are_absent():
    kept = set(enumerate_profiles("A4"))
    for n2 in range(4):
        for n3 in range(4):
            p = FixedVertexProfile("A4", n2=n2, n3=n3)
            assert (p in kept) == passes_profile_rules("A4", p)
    kept5 = set(enumerate_profiles("A5"))
    for n2 in range(4):
        for n3 in range(4):
            for n5 in range(4):
                p = FixedVertexProfile("A5", n2=n2, n3=n3, n5=n5)
                assert (p in kept5) == passes_profile_rules("A5", p)


# -------------------------------------------------------- residue sets


def test_admissible_residue_sets():
    assert admissible_residues("A4").residues == frozenset(A4_SET)
    assert admissible_residues("A4").modulus == 12
    assert admissible_residues("A5").residues == frozenset(A5_SET)
    assert admissible_residues("A5").modulus == 60
    assert admissible_residues("S4").residues == frozenset(S4_SET)
    assert admissible_residues("S4").modulus == 24


def test_s4_set_is_lifted_a4_set_minus_16():
    lifted = {r for r in range(24) if r % 4 == 0 and r % 12 in A4_SET}
    assert lifted - {16} == S4_SET


def test_a5_set_embeds_in_a4_set():
    for r in A5_SET:
        assert r % 12 in A4_SET


# ------------------------------------------------------------ verdicts


def test_s4_16_cites_the_mod24_rule():
    v = necessity_check("S4", 16)
    assert not v.admissible
    assert v.violated_rule.id == "m_ne_16_mod_24"
    assert "16" in v.violated_rule.text


def test_s4_odd_m_fails_mod4_first():
    for m in (7, 21):
        v = necessity_check("S4", m)
        assert not v.admissible and v.violated_rule.id == "m_mod_4"


def test_a4_16_admissible_with_witness():
    v = necessity_check("A4", 16)
    assert v.admissible
    assert [(w.n2, w.n3) for w in v.witnesses] == [(0, 1)]


def test_a5_65_witness_row():
    v = necessity_check("A5", 65)
    assert v.admissible
    assert [(w.n2, w.n3, w.n5) for w in v.witnesses] == [(1, 2, 0)]


def test_a4_7_and_11_inadmissible():
    for m in (7, 11):
        v = necessity_check("A4", m)
        assert not v.admissible
        assert v.violated_rule.id == "residues_mod_12"


def test_a5_25_inadmissible():
    v = necessity_check("A5", 25)
    assert not v.admissible
    assert v.violated_rule.id == "residues_mod_60"


def test_residue_zero_witnesses_include_both_table_rows():
    v = necessity_check("A4", 12)
    assert {(w.n2, w.n3) for w in v.witnesses} == {(0, 0), (0, 3)}


def test_small_m_is_domain_error():
    with pytest.raises(DomainError):
        necessity_check("A4", 3)


def test_knotted_cases_carry_note():
    assert "knotted" in necessity_check("A4", 4).note
    assert "knotted" in necessity_check("A4", 5).note
    assert necessity_check("A4", 16).note == ""


def test_verdict_population_invariant():
    with pytest.raises(ValueError):
        Verdict("A4", 7, False, (), None)


# ------------------------------------------------------- consistency


def test_plan_and_necessity_check_reuse_the_cached_walk():
    def calls():
        plan("A5", 80)
        for group, m in (("A4", 13), ("A4", 7), ("S4", 28), ("A5", 65), ("A5", 25)):
            necessity_check(group, m)

    calls()
    before = rule_abiding_profiles.cache_info()
    for _ in range(3):
        calls()
    after = rule_abiding_profiles.cache_info()
    assert after.misses == before.misses
    assert after.hits > before.hits


@pytest.mark.parametrize("group", ["A4", "S4", "A5"])
def test_walk_is_the_rule_filtered_box_in_key_order(group):
    labels = list(CLASS_WEIGHTS[group])
    box = [FixedVertexProfile(group, **dict(zip(labels, values)))
           for values in product(range(MAX_FIX + 1), repeat=len(labels))]
    for drop in [()] + [(r.id,) for r in profile_rules(group)]:
        expect = sorted((p for p in box if passes_profile_rules(group, p, drop)),
                        key=FixedVertexProfile.key)
        assert list(rule_abiding_profiles(group, drop)) == expect, drop


@pytest.mark.parametrize("group", ["A4", "S4", "A5"])
def test_necessity_matches_residue_set_on_two_periods(group):
    cs = admissible_residues(group)
    for m in range(4, 4 + 2 * cs.modulus):
        assert necessity_check(group, m).admissible == (m in cs)


def test_s4_witnesses_match_burnside():
    for residue, p in S4_WITNESSES.items():
        assert residues_from_profile("S4", p) == residue


@settings(max_examples=50)
@given(st.sampled_from(["A4", "A5"]), st.integers(min_value=4, max_value=10_000))
def test_verdict_depends_only_on_residue(group, m):
    cs = admissible_residues(group)
    v = necessity_check(group, m)
    w = necessity_check(group, (m % cs.modulus) + cs.modulus)
    assert v.admissible == w.admissible
    if v.admissible:
        assert {p.key() for p in v.witnesses} == {p.key() for p in w.witnesses}


# --------------------------------------------------------- profile type


def test_profile_field_presence_per_group():
    with pytest.raises(ValueError):
        FixedVertexProfile("A4", n4=1)
    with pytest.raises(ValueError):
        FixedVertexProfile("A5", n2p=1)
    with pytest.raises(ValueError):
        FixedVertexProfile("S4", n5=1)
    with pytest.raises(ValueError):
        FixedVertexProfile("A4", n2=-1)


def test_congruence_set_guards():
    with pytest.raises(ValueError):
        CongruenceSet(7, frozenset({0}))
    with pytest.raises(ValueError):
        CongruenceSet(12, frozenset({12}))
