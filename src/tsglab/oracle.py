"""Brute-force feasibility oracle, independent of the congruence derivation.

Any action on the vertices of K_m splits into transitive pieces, and every
transitive piece is a coset action.  So: enumerate the coset-action types
of each group with their exact per-class fixed-coset counts, discard types
whose counts alone bust a cap, then solve the integer knapsack asking
which m are a non-negative combination of the surviving degrees with a
rule-abiding aggregate profile.  The residue sets this produces must equal
the ones the profile engine derives; for S4 they must fall out of the
profile caps alone, with the two m-congruence rules switched off.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .perm import (
    ClassLabel,
    GroupAction,
    GROUP_ORDER,
    class_fixed_counts,
    coset_action,
    direct_sum,
    kernel,
    standard_group,
    subgroups_up_to_conjugacy,
)
from .profiles import CongruenceSet, FixedVertexProfile, passes_profile_rules, m_rules

# Per-class ceilings implied by the profile rules.  A type whose own fix
# vector exceeds a ceiling can never sit inside a feasible multiset because
# aggregate counts only grow.  The order-5 ceiling is 1: the value 2 is
# banned outright and 3 exceeds the global cap.
_CLASS_CAPS = {
    "A4": {ClassLabel(2, True): 1, ClassLabel(3, True): 3},
    "S4": {
        ClassLabel(2, True): 1,
        ClassLabel(2, False): 2,
        ClassLabel(3, True): 3,
        ClassLabel(4, False): 0,
    },
    "A5": {ClassLabel(2, True): 1, ClassLabel(3, True): 2, ClassLabel(5, True): 1},
}

# cap relaxations matching droppable rules (oracle test mode)
_CAP_RELAXATIONS = {"n5ne2": ("A5", ClassLabel(5, True), 2)}


class OracleInconsistencyError(RuntimeError):
    """Raised when feasibility fails to be periodic with period |G|."""


@dataclass(frozen=True)
class TransitiveType:
    """One conjugacy class of transitive actions: a coset-action shape."""

    group: str
    subgroup_index: int
    degree: int
    fix_vector: tuple[tuple[ClassLabel, int], ...]
    core: frozenset  # kernel of the coset action

    def fix(self, label: ClassLabel) -> int:
        return dict(self.fix_vector).get(label, 0)


@dataclass(frozen=True)
class OrbitMultiset:
    """A choice of orbit types with multiplicities and its aggregate profile."""

    group: str
    counts: tuple[tuple[TransitiveType, int], ...]
    m: int
    profile: FixedVertexProfile
    faithful: bool


@lru_cache(maxsize=None)
def transitive_types(group: str) -> tuple[TransitiveType, ...]:
    """One type per subgroup conjugacy class, with exact fix vectors."""
    g = standard_group(group)
    types = []
    for idx, h in enumerate(subgroups_up_to_conjugacy(group)):
        act = coset_action(g, h)
        vec = class_fixed_counts(act)
        # Burnside on a transitive action: fixed points sum to |G|
        if act.fixed().sum() != g.order:
            raise OracleInconsistencyError("transitive action with orbit count != 1")
        types.append(TransitiveType(group, idx, act.m, tuple(sorted(vec.items())), kernel(act)))
    return tuple(sorted(types, key=lambda t: -t.degree))


def admissible_types(group: str, drop_rules: tuple[str, ...] = ()) -> tuple[TransitiveType, ...]:
    """Types that any feasible multiset could contain at all."""
    caps = dict(_CLASS_CAPS[group])
    for rid in drop_rules:
        relax = _CAP_RELAXATIONS.get(rid)
        if relax and relax[0] == group:
            caps[relax[1]] = max(caps[relax[1]], relax[2])
    return tuple(
        t for t in transitive_types(group)
        if all(t.fix(lab) <= cap for lab, cap in caps.items())
    )


def feasible_multisets(group: str, m: int, *, use_m_rules: bool = False,
                       drop_rules: tuple[str, ...] = ()) -> list[OrbitMultiset]:
    """Every multiset of admissible orbit types summing to m whose aggregate
    profile passes the rules.

    Faithfulness of the assembled action is required on the K_m domain
    (m >= 4); below it the values only feed the periodicity scan, where
    the empty and single-fixed-point actions must count as feasible.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    types = admissible_types(group, drop_rules)
    ident = frozenset([standard_group(group).identity])
    out: list[OrbitMultiset] = []

    def dfs(i: int, remaining: int, chosen: list[tuple[TransitiveType, int]]):
        if remaining == 0:
            label_counts: dict[ClassLabel, int] = {}
            for t, c in chosen:
                for lab, f in t.fix_vector:
                    label_counts[lab] = label_counts.get(lab, 0) + c * f
            profile = FixedVertexProfile.from_counts(group, label_counts, m)
            if profile.max_count() > 3:
                return
            if not passes_profile_rules(group, profile, drop_rules):
                return
            if use_m_rules and not all(r.holds_for_m(m) for r in m_rules(group)):
                return
            ker = frozenset(standard_group(group).elements)
            for t, c in chosen:
                if c:
                    ker &= t.core
            faithful = ker == ident
            if faithful or m < 4:
                out.append(OrbitMultiset(group, tuple(chosen), m, profile, faithful))
            return
        if i == len(types):
            return
        t = types[i]
        for c in range(remaining // t.degree, -1, -1):
            dfs(i + 1, remaining - c * t.degree, chosen + [(t, c)] if c else chosen)

    dfs(0, m, [])
    return out


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


def measured_multiset_profile(ms: OrbitMultiset) -> FixedVertexProfile:
    act = materialize(ms)
    return FixedVertexProfile.from_counts(ms.group, class_fixed_counts(act), act.m)


def oracle_residues(group: str, *, drop_rules: tuple[str, ...] = ()) -> CongruenceSet:
    """Residues r with feasible multisets at r, r + |G| and r + 2|G|.

    Appending a regular orbit shifts any witness up by |G|, so feasibility
    must be |G|-periodic over the scanned window; any aperiodicity is a bug
    and is reported instead of smoothed over.
    """
    order = GROUP_ORDER[group]
    feas = [bool(feasible_multisets(group, m, drop_rules=drop_rules))
            for m in range(3 * order)]
    for m in range(2 * order):
        if feas[m] != feas[m + order]:
            raise OracleInconsistencyError(
                f"feasibility not {order}-periodic at m={m} for {group}")
    residues = frozenset(r for r in range(order) if feas[r] and feas[r + order] and feas[r + 2 * order])
    return CongruenceSet(order, residues)
