"""Brute-force feasibility oracle, independent of the congruence derivation.

Any action on the vertices of K_m splits into transitive pieces, and every
transitive piece is a coset action.  So: enumerate the coset-action types
of each group with their exact per-class fixed-coset counts, derive from
the active profile rules a cap on each class's count, then solve the
integer knapsack asking which m are a non-negative combination of the
surviving degrees with a rule-abiding aggregate profile.  One depth-first
walk (`_walk`) answers every m below a bound at once, and it has two
consumers: `feasible_sweep` builds the feasible multisets, bucketed by
degree sum (`feasible_multisets` reads one bucket), and `feasible_mask`
only marks the m that have one, which is all that `oracle_residues`
(bound 3|G|) and the CLI's `--max-m N` (bound N+1) ask.  The residue
sets this produces must equal the ones the profile engine derives; for S4
they must fall out of the profile caps alone, since the oracle never reads
the m-congruence rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .perm import GROUP_ORDER, standard_group, subgroups_up_to_conjugacy
from .profiles import CLASS_WEIGHTS, CongruenceSet, FixedVertexProfile, rule_abiding_profiles


class OracleInconsistencyError(RuntimeError):
    """Raised when feasibility fails to be periodic with period |G|, or
    when a type's fixed-coset counts are no transitive action's."""


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
    """One type per subgroup conjugacy class, with exact fix vectors, by
    degree, largest first.

    g fixes the coset xH exactly when x⁻¹gx lies in H, and each coset has
    |H| such x, so one count of the x with x⁻¹gx in H, over the Cayley
    table for every subgroup representative H and row g, gives each
    type's fixed-coset counts: its degree at the identity, its fix vector
    on the classes and its kernel, the rows that fix every coset.  The
    counts must sum to |G| (one orbit, by Burnside) and be constant on each
    class; either failure raises OracleInconsistencyError."""
    g = standard_group(group)
    subgroups = subgroups_up_to_conjugacy(group)
    rows = np.arange(g.order)
    inv = (g.cayley == 0).argmax(axis=1)  # the identity is row 0
    conj = g.cayley[g.cayley[inv], rows[:, None]]  # conj[x, y]: row of x⁻¹ * y * x
    member = np.array([np.isin(rows, h) for h in subgroups])
    # fixed[H, y]: cosets of H that y fixes
    fixed = member[:, conj].sum(axis=1) // member.sum(axis=1, keepdims=True)
    if (fixed.sum(axis=1) != g.order).any():
        raise OracleInconsistencyError("transitive action with orbit count != 1")
    for name, members in g.classes.items():
        if (fixed[:, members] != fixed[:, members[:1]]).any():
            raise OracleInconsistencyError(f"fixed-coset count varies within class {name}")
    firsts = sorted((name, members[0]) for name, members in g.classes.items() if name != "n1")
    types = [TransitiveType(group, idx, counts[0], tuple((name, counts[i]) for name, i in firsts),
                            tuple(i for i, c in enumerate(counts) if c == counts[0]))
             for idx, counts in enumerate(fixed.tolist())]
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


@lru_cache(maxsize=None)
def _walk_inputs(group: str, drop_rules: tuple[str, ...]):
    """What every walk under these rules reads, built once: the class caps,
    the admissible types, each type's fix row and kernel, and the verdict
    lookup from a box point's counts (key() order) to its rule-abiding
    profile, which holds exactly the box points that pass the rules."""
    caps = tuple(cap for _, cap in class_caps(group, drop_rules))
    types = admissible_types(group, drop_rules)
    fixes = tuple(tuple(t.fix(name) for name in CLASS_WEIGHTS[group]) for t in types)
    cores = tuple(frozenset(t.core) for t in types)
    verdicts = {p.key(): p for p in rule_abiding_profiles(group, drop_rules)}
    return caps, types, fixes, cores, verdicts


def _walk(group: str, bound: int, drop_rules: tuple[str, ...], found) -> None:
    """The one search, with two consumers (feasible_sweep, feasible_mask):
    call found(m, chain, profile, faithful) at every multiset of admissible
    orbit types with degree sum m < bound whose aggregate profile passes
    the rules.

    A node's degree sum is its m, so one depth-first walk serves the whole
    window: each node is checked as a leaf when the walk reaches it and
    then grows by copies of later types.  The nodes of one m are found in
    the order a walk pruned at degree sum m would find them.  chain holds
    the chosen (type, count) pairs as a cons chain, (parent chain, last
    pair), None at the root, so no list is copied along an edge.

    Aggregate counts only grow as orbits are added, so the walk never adds
    a copy of a type that would bust a cap or the bound.  A node's verdict
    is then one dict lookup of its aggregate counts in the cached walk of
    the box {0..MAX_FIX}^classes (rule_abiding_profiles): the caps are
    maxima over that walk, so at most MAX_FIX, and every aggregate lies in
    the box, where a point passes the rules exactly when the box walk
    holds it.  The profile passed to found is that walk's own.

    Faithfulness of the assembled action is required on the K_m domain
    (m >= 4); below it the values only feed the periodicity scan, where
    the empty and single-fixed-point actions must count as feasible.  The
    kernel is the intersection of the orbits' kernels, and every kernel
    holds the identity row 0, so the action is faithful exactly when one
    row is left.
    """
    caps, types, fixes, cores, verdicts = _walk_inputs(group, drop_rules)

    def visit(start: int, m: int, agg: tuple[int, ...], ker: frozenset[int], chain):
        faithful = len(ker) == 1
        if faithful or m < 4:
            profile = verdicts.get(agg)
            if profile is not None:
                found(m, chain, profile, faithful)
        for i in range(start, len(types)):
            t, fix = types[i], fixes[i]
            # more copies of t than top would bust the bound or a class cap
            top = (bound - 1 - m) // t.degree
            for cap, a, f in zip(caps, agg, fix):
                if f and (cap - a) // f < top:
                    top = (cap - a) // f
            for c in range(top, 0, -1):
                visit(i + 1, m + c * t.degree, tuple([a + c * f for a, f in zip(agg, fix)]),
                      ker & cores[i], (chain, (t, c)))

    if bound > 0:
        visit(0, 0, (0,) * len(caps), frozenset(range(GROUP_ORDER[group])), None)
    del visit  # it refers to itself: unbound, the walk is freed now, not by a later collection


def feasible_sweep(group: str, bound: int, *,
                   drop_rules: tuple[str, ...] = ()) -> list[list[OrbitMultiset]]:
    """The walk's multisets, bucketed by m < bound: bucket m lists every
    feasible multiset with degree sum m, in the walk's order.  The walk's
    other consumer, feasible_mask, answers the same question without them."""
    out: list[list[OrbitMultiset]] = [[] for _ in range(bound)]

    def record(m, chain, profile, faithful):
        counts = []
        while chain is not None:
            chain, pair = chain
            counts.append(pair)
        out[m].append(OrbitMultiset(group, tuple(reversed(counts)), m, profile, faithful))

    _walk(group, bound, drop_rules, record)
    return out


def feasible_mask(group: str, bound: int, *, drop_rules: tuple[str, ...] = ()) -> bytearray:
    """The walk's answer without its multisets: byte m < bound is 1 when
    some feasible multiset has degree sum m, else 0, so it marks exactly
    the non-empty buckets of the walk's other consumer, feasible_sweep."""
    mask = bytearray(max(bound, 0))

    def mark(m, chain, profile, faithful):
        mask[m] = 1

    _walk(group, bound, drop_rules, mark)
    return mask


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
    feas = feasible_mask(group, 3 * order, drop_rules=drop_rules)
    for m in range(2 * order):
        if feas[m] != feas[m + order]:
            raise OracleInconsistencyError(
                f"feasibility not {order}-periodic at m={m} for {group}")
    residues = frozenset(r for r in range(order) if feas[r] and feas[r + order] and feas[r + 2 * order])
    return CongruenceSet(order, residues)
