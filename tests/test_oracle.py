import gc
import hashlib
import importlib.util
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsglab import oracle
from tsglab.perm import (
    GROUP_ORDER,
    GroupAction,
    burnside_orbit_count,
    class_fixed_counts,
    coset_action,
    is_faithful,
    kernel,
    standard_group,
    subgroups_up_to_conjugacy,
)
from tsglab.oracle import (
    OracleInconsistencyError,
    OrbitMultiset,
    TransitiveType,
    admissible_types,
    class_caps,
    feasible_mask,
    feasible_multisets,
    feasible_sweep,
    oracle_residues,
    transitive_types,
)
from tsglab.profiles import (
    FixedVertexProfile,
    admissible_residues,
    m_rules,
    profile_rules,
    rule_abiding_profiles,
)

from .conftest import direct_sum, orbit_partition, passes_profile_rules

GROUPS = ("A4", "S4", "A5")
GOLDEN = Path(__file__).parent / "golden"

INV, TRANSP, ORD3, ORD4, ORD5 = "n2", "n2p", "n3", "n4", "n5"


# ------------------------------------------------------------ type tables


def test_s4_natural_type_fix_vector():
    t = next(t for t in transitive_types("S4") if t.degree == 4)
    assert t.fix(TRANSP) == 2 and t.fix(ORD3) == 1 and t.fix(ORD4) == 0 and t.fix(INV) == 0


def test_a5_degree20_type_fix_vector():
    t = next(t for t in transitive_types("A5") if t.degree == 20)
    assert t.fix(ORD3) == 2 and t.fix(INV) == 0 and t.fix(ORD5) == 0


@pytest.mark.parametrize("group", GROUPS)
def test_regular_type_fixes_nothing(group):
    from tsglab.perm import GROUP_ORDER

    reg = next(t for t in transitive_types(group) if t.degree == GROUP_ORDER[group])
    assert all(f == 0 for _, f in reg.fix_vector)


@pytest.mark.parametrize("group", GROUPS)
def test_transitive_burnside_identity(group):
    # weighted fixed-coset counts over a transitive action sum to |G|
    from tsglab.perm import GROUP_ORDER, standard_group

    g = standard_group(group)
    for t in transitive_types(group):
        weighted = sum(len(g.classes[lab]) * f for lab, f in t.fix_vector)
        # identity fixes all cosets; non-identity contributions are in fix_vector
        assert t.degree + weighted == GROUP_ORDER[group]


def _coset_action_types(group):
    """The type table from explicit coset actions: each subgroup
    representative's left-coset action, its class fixed counts, its
    Burnside orbit count and its kernel, by degree, largest first."""
    g = standard_group(group)
    types = []
    for idx, h in enumerate(subgroups_up_to_conjugacy(group)):
        act = coset_action(g, h)
        assert burnside_orbit_count(act) == 1
        vec = class_fixed_counts(act)
        types.append(TransitiveType(group, idx, act.m, tuple(sorted(vec.items())), kernel(act)))
    return tuple(sorted(types, key=lambda t: -t.degree))


@pytest.mark.parametrize("group", GROUPS)
def test_transitive_types_equal_the_coset_actions(group):
    """The conjugation count gives the types the coset actions give, in the
    same order, fix vectors and kernels included."""
    assert transitive_types(group) == _coset_action_types(group)


@pytest.mark.parametrize("rows,message", [
    ((0, 1, 3), "orbit count"),  # counts that do not sum to |G|
    ((0, 1, 5), "varies within class n3"),  # two conjugate 3-cycles, not their inverses
])
def test_transitive_types_reject_counts_of_no_subgroup(monkeypatch, rows, message):
    """Rows that are no A4 subgroup give fixed-coset counts no transitive
    action has, and the type table refuses them."""
    monkeypatch.setattr(oracle, "subgroups_up_to_conjugacy", lambda group: (rows,))
    with pytest.raises(OracleInconsistencyError, match=message):
        transitive_types.__wrapped__("A4")


def test_admissible_degrees():
    assert [t.degree for t in admissible_types("S4")] == [24, 12, 8, 4]
    assert [t.degree for t in admissible_types("A5")] == [60, 20, 5, 1]
    assert [t.degree for t in admissible_types("A4")] == [12, 4, 1]


def test_surviving_s4_degree12_is_the_transposition_one():
    t = next(t for t in admissible_types("S4") if t.degree == 12)
    assert t.fix(TRANSP) == 2 and t.fix(INV) == 0


# -------------------------------------------------------------- multisets


def test_a5_20_has_unique_multiset():
    out = feasible_multisets("A5", 20)
    assert len(out) == 1
    (t, c), = [(t, c) for t, c in out[0].counts if c]
    assert (t.degree, c) == (20, 1)
    assert out[0].profile.key() == (0, 2, 0)


def test_s4_16_infeasible():
    assert feasible_multisets("S4", 16) == []


def test_a4_1_is_a_lone_fixed_point():
    out = feasible_multisets("A4", 1)
    assert len(out) == 1
    assert out[0].profile.key() == (1, 1)
    assert not out[0].faithful  # below the K_m domain, kept for periodicity


def test_a4_9_blocked_by_coupling_rule():
    # 9 = 2*4 + 1 is the only decomposition and (n2, n3) = (1, 3) is barred
    assert feasible_multisets("A4", 9) == []


def test_feasible_multisets_on_domain_are_faithful():
    for group in GROUPS:
        for m in range(4, 40):
            for ms in feasible_multisets(group, m):
                assert ms.faithful


# ------------------------------------------------------------- residues


@pytest.mark.parametrize("group", GROUPS)
def test_oracle_matches_engine(group):
    assert oracle_residues(group) == admissible_residues(group)


def test_s4_oracle_ignores_m_rules_entirely():
    # the congruence chain is reproduced from profile caps alone
    engine = admissible_residues("S4")
    assert oracle_residues("S4") == engine
    for m in range(0, 72):
        with_m = bool(all(r.check(m) for r in m_rules("S4")) and feasible_multisets("S4", m))
        without = bool(feasible_multisets("S4", m))
        assert with_m == without


def test_dropping_n5ne2_changes_a5_set():
    wrong = oracle_residues("A5", drop_rules=("n5ne2",))
    right = admissible_residues("A5")
    assert wrong != right
    gained = wrong.residues - right.residues
    assert 12 in gained  # the lone degree-12 orbit becomes feasible


# -------------------------------------------------- witness soundness


def materialize(ms: OrbitMultiset) -> GroupAction:
    """Assemble the multiset as an explicit direct-sum action."""
    g = standard_group(ms.group)
    subs = subgroups_up_to_conjugacy(ms.group)
    actions = []
    for t, c in ms.counts:
        for _ in range(c):
            actions.append(coset_action(g, subs[t.subgroup_index]))
    if not actions:
        raise ValueError("empty multiset has no action to materialize")
    return direct_sum(actions)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(GROUPS), st.integers(min_value=4, max_value=100))
def test_multisets_materialize_faithfully(group, m):
    for ms in feasible_multisets(group, m)[:3]:
        act = materialize(ms)
        assert act.m == m
        assert is_faithful(act)
        measured = FixedVertexProfile(ms.group, **class_fixed_counts(act))
        assert measured.key() == ms.profile.key()
        n_orbits = sum(c for _, c in ms.counts)
        assert burnside_orbit_count(act) == n_orbits == len(orbit_partition(act))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(GROUPS), st.integers(min_value=0, max_value=120))
def test_monotone_periodicity(group, m):
    from tsglab.perm import GROUP_ORDER

    if feasible_multisets(group, m):
        assert feasible_multisets(group, m + GROUP_ORDER[group])


# ------------------------------------------------ caps and pruned search


def test_derived_caps_equal_the_hand_tables():
    # the per-class ceilings the profile rules imply, as formerly tabulated
    assert dict(class_caps("A4")) == {INV: 1, ORD3: 3}
    assert dict(class_caps("S4")) == {INV: 1, TRANSP: 2, ORD3: 3, ORD4: 0}
    assert dict(class_caps("A5")) == {INV: 1, ORD3: 2, ORD5: 1}
    assert dict(class_caps("A5", ("n5ne2",))) == {INV: 1, ORD3: 2, ORD5: 2}
    # n5ne2 is no A4 or S4 rule, so dropping it there changes nothing
    assert class_caps("A4", ("n5ne2",)) == class_caps("A4")
    assert class_caps("S4", ("n5ne2",)) == class_caps("S4")


def _multiset_rows(multisets):
    return [[[[t.degree, c] for t, c in ms.counts], list(ms.profile.key()), ms.faithful]
            for ms in multisets]


@pytest.mark.parametrize("group", GROUPS)
@pytest.mark.parametrize("drop", [(), ("n5ne2",)], ids=["default", "n5ne2"])
def test_feasible_multisets_match_golden(group, drop):
    """Every feasible_multisets list for m < 3|G| keeps the (degree, count)
    lists, profile keys and faithfulness flags, in order, recorded in
    golden/oracle_multisets.json before the search was pruned."""
    rows = [_multiset_rows(feasible_multisets(group, m, drop_rules=drop))
            for m in range(3 * GROUP_ORDER[group])]
    blob = json.dumps(rows, separators=(",", ":")).encode()
    golden = json.loads((GOLDEN / "oracle_multisets.json").read_text())
    expect = golden[group]["default" if not drop else "n5ne2"]
    assert sum(map(len, rows)) == expect["multisets"]
    assert hashlib.sha256(blob).hexdigest() == expect["sha256"]


def _brute_force_multisets(group, m, drop):
    """Every multiset over all transitive types, each checked only at the
    leaf: no type filter, no cap pruning."""
    types = transitive_types(group)
    rows = frozenset(range(GROUP_ORDER[group]))
    out = []

    def dfs(i, remaining, chosen):
        if remaining == 0:
            counts = {}
            ker = rows
            for t, c in chosen:
                ker &= frozenset(t.core)
                for name, f in t.fix_vector:
                    counts[name] = counts.get(name, 0) + c * f
            profile = FixedVertexProfile(group, **counts)
            faithful = len(ker) == 1
            if (max(profile.key()) <= 3 and passes_profile_rules(group, profile, drop)
                    and (faithful or m < 4)):
                out.append((tuple((t.subgroup_index, c) for t, c in chosen), profile, faithful))
            return
        if i == len(types):
            return
        t = types[i]
        for c in range(remaining // t.degree, -1, -1):
            dfs(i + 1, remaining - c * t.degree, chosen + [(t, c)] if c else chosen)

    dfs(0, m, [])
    return out


@pytest.mark.parametrize("group,bound", [("A4", 36), ("S4", 25), ("A5", 36)])
def test_pruned_search_equals_brute_force(group, bound):
    drops = [()] + [(r.id,) for r in profile_rules(group)]
    for drop in drops:
        for m in range(bound):
            pruned = [(tuple((t.subgroup_index, c) for t, c in ms.counts), ms.profile, ms.faithful)
                      for ms in feasible_multisets(group, m, drop_rules=drop)]
            assert pruned == _brute_force_multisets(group, m, drop), (group, m, drop)


def _per_m_reference(group, m, drop):
    """The search as it ran once per m before one sweep served the whole
    window: a depth-first walk pruned at degree sum m, a leaf where the
    remaining degree reaches 0."""
    caps = class_caps(group, drop)
    names = [name for name, _ in caps]
    types = admissible_types(group, drop)
    fixes = [[t.fix(name) for name in names] for t in types]
    rules = profile_rules(group, drop)
    out = []

    def leaf(agg, chosen):
        profile = FixedVertexProfile(group, **dict(zip(names, agg)))
        if not all(r.check(profile) for r in rules):
            return
        ker = set(range(GROUP_ORDER[group]))
        for t, _ in chosen:
            ker.intersection_update(t.core)
        faithful = ker == {0}
        if faithful or m < 4:
            out.append(OrbitMultiset(group, tuple(chosen), m, profile, faithful))

    def dfs(i, remaining, agg, chosen):
        if remaining == 0:
            leaf(agg, chosen)
            return
        if i == len(types):
            return
        t, fix = types[i], fixes[i]
        top = min([remaining // t.degree]
                  + [(cap - a) // f for (_, cap), a, f in zip(caps, agg, fix) if f])
        for c in range(top, 0, -1):
            dfs(i + 1, remaining - c * t.degree, [a + c * f for a, f in zip(agg, fix)],
                chosen + [(t, c)])
        dfs(i + 1, remaining, agg, chosen)

    dfs(0, m, [0] * len(names), [])
    return out


@pytest.mark.parametrize("group", GROUPS)
def test_sweep_buckets_equal_per_m_search(group):
    """Each bucket of one 3|G| sweep is the per-m search's list, in order,
    with all rules on and with each profile rule dropped in turn."""
    order = GROUP_ORDER[group]
    for drop in [()] + [(r.id,) for r in profile_rules(group)]:
        sweep = feasible_sweep(group, 3 * order, drop_rules=drop)
        assert len(sweep) == 3 * order
        for m, bucket in enumerate(sweep):
            assert bucket == _per_m_reference(group, m, drop), (group, m, drop)
            assert feasible_multisets(group, m, drop_rules=drop) == bucket


@pytest.mark.parametrize("group", GROUPS)
def test_sweep_builds_no_profile(monkeypatch, group):
    """Once the box walk is cached, a 3|G| sweep, with all rules on or one
    profile rule dropped, constructs no FixedVertexProfile: each verdict is
    a lookup.  Its buckets are still the per-m search's."""
    order = GROUP_ORDER[group]
    drops = [()] + [(r.id,) for r in profile_rules(group)]
    for drop in drops:
        feasible_sweep(group, 3 * order, drop_rules=drop)  # warm the walk caches
    built = []
    real_post_init = FixedVertexProfile.__post_init__

    def counting(self):
        built.append(self)
        real_post_init(self)

    monkeypatch.setattr(FixedVertexProfile, "__post_init__", counting)
    sweeps = {drop: feasible_sweep(group, 3 * order, drop_rules=drop) for drop in drops}
    assert built == []
    monkeypatch.undo()
    for drop, sweep in sweeps.items():
        assert sweep == [_per_m_reference(group, m, drop) for m in range(3 * order)], drop


@pytest.mark.parametrize("group,consumer",
                         [(g, feasible_sweep) for g in GROUPS] + [(g, feasible_mask) for g in GROUPS],
                         ids=[*GROUPS, *(f"{g}-mask" for g in GROUPS)])
def test_sweep_leaves_no_cyclic_garbage(group, consumer):
    """The walk's recursive closure is unbound when the walk returns, so
    its results are freed by reference counting, not left to the cycle
    collector."""
    consumer(group, 3 * GROUP_ORDER[group])  # warm the rule caches
    gc.collect()
    gc.disable()
    try:
        consumer(group, 3 * GROUP_ORDER[group])
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("group", GROUPS)
def test_mask_marks_the_nonempty_sweep_buckets(group):
    """feasible_mask marks exactly the m whose sweep bucket is non-empty,
    with all rules on and with each profile rule dropped in turn, at the
    residues' bound 3|G| and at a --max-m bound of 601."""
    for drop in [()] + [(r.id,) for r in profile_rules(group)]:
        for bound in (3 * GROUP_ORDER[group], 601):
            mask = feasible_mask(group, bound, drop_rules=drop)
            sweep = feasible_sweep(group, bound, drop_rules=drop)
            assert list(map(bool, mask)) == [bool(b) for b in sweep], (drop, bound)


def test_residues_and_max_m_build_no_multiset(monkeypatch, capsys):
    """Once the caches are warm, the residues and the CLI's --max-m read
    the walk's mask and construct no OrbitMultiset."""
    from tsglab.cli import main

    assert main(["oracle", "--max-m", "180"]) == 0  # warm the walk caches
    built = []
    real_init = OrbitMultiset.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(OrbitMultiset, "__init__", counting)
    for group in GROUPS:
        oracle_residues(group)
    assert main(["oracle", "--max-m", "180"]) == 0
    assert built == []
    feasible_sweep("A4", 2)  # the patched constructor is the one the sweep calls
    assert len(built) == 2


def test_sweep_below_zero_is_empty(capsys):
    from tsglab.cli import main

    assert feasible_sweep("A4", 0) == [] and feasible_sweep("A5", -3) == []
    with pytest.raises(ValueError):
        feasible_multisets("A4", -1)
    assert main(["oracle", "--group", "A4", "--max-m", "-1"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "  feasible m <= -1: []"


def test_cli_max_m_200_lists_the_per_m_search(capsys):
    from tsglab.cli import main

    assert main(["oracle", "--group", "A5", "--max-m", "200"]) == 0
    out = capsys.readouterr().out
    expect = [m for m in range(201) if _per_m_reference("A5", m, ())]
    assert out.splitlines()[1] == f"  feasible m <= 200: {expect}"


def test_crosscheck_script_output_matches_golden():
    """scripts/crosscheck_oracle.py prints the caps, the surviving types and
    the residues gained for every single profile-rule drop of every group;
    golden/crosscheck_oracle.txt is its output before the caps and residue
    sets were derived from one shared walk of the profile box."""
    script = Path(__file__).parents[1] / "scripts" / "crosscheck_oracle.py"
    spec = importlib.util.spec_from_file_location("crosscheck_oracle", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = io.StringIO()
    with redirect_stdout(out):
        assert module.main() == 0
    assert out.getvalue() == (GOLDEN / "crosscheck_oracle.txt").read_text()


def _subgroup_burnside_residues(group, drop):
    """Residues r mod |G| for which some rule-abiding box profile makes the
    Burnside orbit count of every subgroup representative H an integer:
    (r + sum over h in H, h != 1, of n_class(h)) / |H|."""
    g = standard_group(group)
    name_of = {i: name for name, rows in g.classes.items() for i in rows}
    subgroups = [[name_of[h] for h in sub if h != 0]  # row 0 is the identity
                 for sub in subgroups_up_to_conjugacy(group)]
    residues = set()
    for p in rule_abiding_profiles(group, drop):
        counts = p.named_counts()
        for r in range(g.order):
            if all((r + sum(counts[name] for name in names)) % (len(names) + 1) == 0
                   for names in subgroups):
                residues.add(r)
    return residues


@pytest.mark.parametrize("group", GROUPS)
def test_oracle_residues_pass_subgroup_burnside(group):
    """Restricting a feasible action to any subgroup H still gives a whole
    number of H-orbits, so the oracle can only find residues that pass
    Burnside for every subgroup; with all rules on, that alone gives the
    A4 and A5 tables, and for S4 only m_ne_16_mod_24 removes 16."""
    for drop in [()] + [(r.id,) for r in profile_rules(group)]:
        allowed = _subgroup_burnside_residues(group, drop)
        assert oracle_residues(group, drop_rules=drop).residues <= allowed, drop
    allowed = _subgroup_burnside_residues(group, ())
    if group == "S4":
        assert allowed == {0, 4, 8, 12, 16, 20}
    else:
        assert allowed == admissible_residues(group).residues
