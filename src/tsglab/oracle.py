"""Brute-force feasibility oracle, independent of the congruence derivation.

Any action on the vertices of K_m splits into transitive pieces, and every
transitive piece is a coset action.  So: enumerate the coset-action types
of each group with their exact per-class fixed-coset counts, derive from
the active profile rules a cap on each class's count, then solve the
integer knapsack asking which m are a non-negative combination of the
surviving degrees with a rule-abiding aggregate profile.  One depth-first
sweep answers every m below a bound (3|G| for the residues) at once, with
its multisets bucketed by degree sum.  Aggregate counts only grow as orbits
are added, so the sweep never adds a copy of a type that would bust a cap
or the bound.  The residue sets this produces must equal the ones
the profile engine derives; for S4 they must fall out of the profile caps
alone, since the oracle never reads the m-congruence rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .perm import (
    GROUP_ORDER,
    burnside_orbit_count,
    class_fixed_counts,
    coset_action,
    kernel,
    standard_group,
    subgroups_up_to_conjugacy,
)
from .profiles import (
    CLASS_WEIGHTS,
    CongruenceSet,
    FixedVertexProfile,
    profile_rules,
    rule_abiding_profiles,
)


class OracleInconsistencyError(RuntimeError):
    """Raised when feasibility fails to be periodic with period |G|."""


@dataclass(frozen=True)
class TransitiveType:
    """One conjugacy class of transitive actions: a coset-action shape."""

    group: str
    subgroup_index: int
    degree: int
    fix_vector: tuple[tuple[str, int], ...]  # fixed cosets by class name
    core: tuple[int, ...]  # rows of the kernel of the coset action

    def fix(self, name: str) -> int:
        return dict(self.fix_vector).get(name, 0)


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
        if burnside_orbit_count(act) != 1:
            raise OracleInconsistencyError("transitive action with orbit count != 1")
        types.append(TransitiveType(group, idx, act.m, tuple(sorted(vec.items())), kernel(act)))
    return tuple(sorted(types, key=lambda t: -t.degree))


@lru_cache(maxsize=None)
def class_caps(group: str, drop_rules: tuple[str, ...] = ()) -> tuple[tuple[str, int], ...]:
    """Cap on each non-identity class's fixed-vertex count under the rules
    left after dropping `drop_rules`: the largest count the class takes over
    the rule-abiding profiles of the box {0..MAX_FIX}^classes.  A profile
    outside the box fails the max-count test regardless."""
    profiles = rule_abiding_profiles(group, drop_rules)
    return tuple((name, max(p.named_counts()[name] for p in profiles))
                 for name in CLASS_WEIGHTS[group])


def admissible_types(group: str, drop_rules: tuple[str, ...] = ()) -> tuple[TransitiveType, ...]:
    """Types that any feasible multiset could contain at all."""
    caps = class_caps(group, drop_rules)
    return tuple(
        t for t in transitive_types(group)
        if all(t.fix(name) <= cap for name, cap in caps)
    )


def feasible_sweep(group: str, bound: int, *,
                   drop_rules: tuple[str, ...] = ()) -> list[list[OrbitMultiset]]:
    """Every multiset of admissible orbit types with degree sum m < bound
    whose aggregate profile passes the rules, bucketed by m.

    One depth-first walk serves the whole window: a node's degree sum is
    its m, so each node is checked as a leaf when the walk reaches it and
    then grows by copies of later types.  Bucket m lists its multisets in
    the order a walk pruned at degree sum m would find them.

    Faithfulness of the assembled action is required on the K_m domain
    (m >= 4); below it the values only feed the periodicity scan, where
    the empty and single-fixed-point actions must count as feasible.
    """
    caps = class_caps(group, drop_rules)
    names = [name for name, _ in caps]
    types = admissible_types(group, drop_rules)
    fixes = [[t.fix(name) for name in names] for t in types]
    cores = [frozenset(t.core) for t in types]
    rules = profile_rules(group, drop_rules)
    out: list[list[OrbitMultiset]] = [[] for _ in range(bound)]

    def visit(start: int, m: int, agg: list[int], ker: frozenset[int],
              chosen: list[tuple[TransitiveType, int]]):
        faithful = ker == {0}  # only the identity row
        if faithful or m < 4:
            # no max-count test: the search keeps aggregates within caps <= MAX_FIX
            profile = FixedVertexProfile(group, **dict(zip(names, agg)))
            if all(r.check(profile) for r in rules):
                out[m].append(OrbitMultiset(group, tuple(chosen), m, profile, faithful))
        for i in range(start, len(types)):
            t, fix = types[i], fixes[i]
            # more copies of t than this would bust the bound or a class cap
            top = min([(bound - 1 - m) // t.degree]
                      + [(cap - a) // f for (_, cap), a, f in zip(caps, agg, fix) if f])
            for c in range(top, 0, -1):
                visit(i + 1, m + c * t.degree, [a + c * f for a, f in zip(agg, fix)],
                      ker & cores[i], chosen + [(t, c)])

    if bound > 0:
        visit(0, 0, [0] * len(names), frozenset(range(GROUP_ORDER[group])), [])
    del visit  # it refers to itself: unbound, the walk is freed now, not by a later collection
    return out


def feasible_multisets(group: str, m: int, *, drop_rules: tuple[str, ...] = ()) -> list[OrbitMultiset]:
    """The feasible multisets with degree sum exactly m: one sweep's last bucket."""
    if m < 0:
        raise ValueError("m must be non-negative")
    return feasible_sweep(group, m + 1, drop_rules=drop_rules)[m]


def oracle_residues(group: str, *, drop_rules: tuple[str, ...] = ()) -> CongruenceSet:
    """Residues r with feasible multisets at r, r + |G| and r + 2|G|.

    Appending a regular orbit shifts any witness up by |G|, so feasibility
    must be |G|-periodic over the scanned window; any aperiodicity is a bug
    and is reported instead of smoothed over.
    """
    order = GROUP_ORDER[group]
    feas = [bool(found) for found in feasible_sweep(group, 3 * order, drop_rules=drop_rules)]
    for m in range(2 * order):
        if feas[m] != feas[m + order]:
            raise OracleInconsistencyError(
                f"feasibility not {order}-periodic at m={m} for {group}")
    residues = frozenset(r for r in range(order) if feas[r] and feas[r + order] and feas[r + 2 * order])
    return CongruenceSet(order, residues)
