"""Exact permutation kernel for the polyhedral groups A4, S4 and A5.

Groups are stored fully enumerated (at most 60 elements), elements are
image tuples, and every operation is a pure function.  Elements are
classified by (order, parity): that partition is coarser than true
conjugacy for A4 and A5, but it is exactly the granularity at which
fixed-vertex counts are constant on the actions this package builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations as _all_permutations

GROUP_NAMES = ("A4", "S4", "A5")

GROUP_ORDER = {"A4": 12, "S4": 24, "A5": 60}


class NotASubgroupError(ValueError):
    """Raised when a coset action is requested for a non-subgroup."""


class InconsistentActionError(RuntimeError):
    """Raised when an action table contradicts the group structure: a broken
    homomorphism, a Burnside sum not divisible by the group order, or a
    fixed-vertex count that varies within an element class."""


@dataclass(frozen=True, order=True)
class Permutation:
    """A permutation of {0..degree-1} stored as its image tuple."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a bijection on 0..{len(self.images) - 1}: {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (p * q)(i) = p(q(i)): apply q first.
        return Permutation(tuple(self.images[j] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))

    def order(self) -> int:
        n = 1
        p = self
        ident = identity(self.degree)
        while p != ident:
            p = p * self
            n += 1
        return n

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def is_even(self) -> bool:
        seen = [False] * self.degree
        parity = 0
        for i in range(self.degree):
            if seen[i]:
                continue
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = self.images[j]
                length += 1
            parity ^= (length - 1) & 1
        return parity == 0

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        seen = [False] * self.degree
        out = []
        for i in range(self.degree):
            if seen[i]:
                continue
            cyc = []
            j = i
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = self.images[j]
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return out


def identity(degree: int) -> Permutation:
    return Permutation(tuple(range(degree)))


def from_cycles(degree: int, *cycles: tuple[int, ...]) -> Permutation:
    images = list(range(degree))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a] = b
    return Permutation(tuple(images))


@dataclass(frozen=True, order=True)
class ClassLabel:
    """Element class: order plus membership in the even (index-2) subgroup.

    For A4 and A5 every element is even, so classes are just orders; in S4
    the flag splits the two involution types (double transpositions vs
    plain transpositions).
    """

    order: int
    in_even_subgroup: bool

    def __post_init__(self):
        if self.order not in (1, 2, 3, 4, 5):
            raise ValueError(f"unsupported element order {self.order}")
        if self.order % 2 == 1 and not self.in_even_subgroup:
            raise ValueError("odd-order elements are always even permutations")


def class_label(p: Permutation) -> ClassLabel:
    return ClassLabel(p.order(), p.is_even())


# class sizes {label: count}, fixed by the group structure
EXPECTED_CLASSES = {
    "A4": {ClassLabel(1, True): 1, ClassLabel(2, True): 3, ClassLabel(3, True): 8},
    "S4": {
        ClassLabel(1, True): 1,
        ClassLabel(2, True): 3,
        ClassLabel(2, False): 6,
        ClassLabel(3, True): 8,
        ClassLabel(4, False): 6,
    },
    "A5": {
        ClassLabel(1, True): 1,
        ClassLabel(2, True): 15,
        ClassLabel(3, True): 20,
        ClassLabel(5, True): 24,
    },
}


class PermGroup:
    """One of A4, S4, A5 (or an isomorphic copy inside a larger symmetric
    group), fully enumerated, with the (order, parity) class partition."""

    def __init__(self, name: str, degree: int, elements, generators):
        if name not in GROUP_NAMES:
            raise ValueError(f"unknown group name {name!r}")
        elements = tuple(sorted(elements))
        self.name = name
        self.degree = degree
        self.elements = elements
        self.generators = tuple(generators)
        self.identity = identity(degree)
        self.order = len(elements)
        self.element_set = frozenset(elements)
        self.class_of = {e: class_label(e) for e in elements}
        classes: dict[ClassLabel, list[Permutation]] = {}
        for e in elements:
            classes.setdefault(self.class_of[e], []).append(e)
        self.classes = {lab: tuple(es) for lab, es in classes.items()}
        self._check()

    def _check(self):
        if self.order != GROUP_ORDER[self.name]:
            raise ValueError(f"{self.name} must have {GROUP_ORDER[self.name]} elements, got {self.order}")
        if self.identity not in self.element_set:
            raise ValueError("missing identity")
        for g in self.generators:
            if g not in self.element_set:
                raise ValueError("generator outside element set")
        sizes = {lab: len(es) for lab, es in self.classes.items()}
        if sizes != EXPECTED_CLASSES[self.name]:
            raise ValueError(f"{self.name} class sizes {sizes} do not match {EXPECTED_CLASSES[self.name]}")

    def __len__(self) -> int:
        return self.order

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, p: Permutation) -> bool:
        return p in self.element_set

    def __repr__(self) -> str:
        return f"PermGroup({self.name}, degree={self.degree})"

    def nontrivial(self) -> tuple[Permutation, ...]:
        return tuple(e for e in self.elements if not e.is_identity())


def closure(generators, degree: int) -> frozenset[Permutation]:
    """Multiplicative closure of a generator set (small groups only)."""
    if not generators:
        return frozenset([identity(degree)])
    els = {identity(degree)} | set(generators)
    frontier = list(els)
    while frontier:
        fresh = []
        for a in generators:
            for b in frontier:
                c = a * b
                if c not in els:
                    els.add(c)
                    fresh.append(c)
        frontier = fresh
    return frozenset(els)


@lru_cache(maxsize=None)
def standard_group(name: str) -> PermGroup:
    """Canonical copies: A4/S4 on 4 letters, A5 on 5 letters."""
    if name == "S4":
        elements = [Permutation(p) for p in _all_permutations(range(4))]
        gens = [from_cycles(4, (0, 1)), from_cycles(4, (0, 1, 2, 3))]
    elif name == "A4":
        elements = [Permutation(p) for p in _all_permutations(range(4)) if Permutation(p).is_even()]
        gens = [from_cycles(4, (0, 1), (2, 3)), from_cycles(4, (0, 1, 2))]
    elif name == "A5":
        elements = [Permutation(p) for p in _all_permutations(range(5)) if Permutation(p).is_even()]
        gens = [from_cycles(5, (0, 1), (2, 3)), from_cycles(5, (0, 1, 2, 3, 4))]
    else:
        raise ValueError(f"unknown group name {name!r}")
    return PermGroup(name, elements[0].degree, elements, gens)


@lru_cache(maxsize=None)
def a4_inside_a5() -> PermGroup:
    """The fixed representative A4 <= A5: even permutations fixing letter 4,
    generated by a double transposition and a 3-cycle."""
    gens = (from_cycles(5, (0, 1), (2, 3)), from_cycles(5, (0, 1, 2)))
    return PermGroup("A4", 5, closure(gens, 5), gens)


def _is_subgroup(elements: frozenset[Permutation], degree: int) -> bool:
    if identity(degree) not in elements:
        return False
    return all(a * b in elements for a in elements for b in elements)


def conjugate_subgroup(g: Permutation, h: frozenset[Permutation]) -> frozenset[Permutation]:
    ginv = g.inverse()
    return frozenset(g * x * ginv for x in h)


def _canonical_subgroup_key(h: frozenset[Permutation]):
    return (len(h), tuple(sorted(p.images for p in h)))


def subgroups_up_to_conjugacy(group) -> tuple[frozenset[Permutation], ...]:
    """One representative per conjugacy class of subgroups.

    Exhaustive closure over all 1- and 2-generated subsets; every subgroup
    of A4, S4 and A5 is generated by at most two elements, so this finds
    everything without classification tables.  Accepts a group or its name.
    """
    return _subgroups_up_to_conjugacy(group if isinstance(group, str) else group.name)


@lru_cache(maxsize=None)
def _subgroups_up_to_conjugacy(name: str) -> tuple[frozenset[Permutation], ...]:
    g = standard_group(name)
    subgroups: set[frozenset[Permutation]] = {frozenset([g.identity])}
    els = g.elements
    for a in els:
        subgroups.add(closure((a,), g.degree))
    for i, a in enumerate(els):
        for b in els[i + 1:]:
            subgroups.add(closure((a, b), g.degree))
    # partition into conjugacy classes, keep the lexicographically least rep
    remaining = set(subgroups)
    reps = []
    while remaining:
        h = min(remaining, key=_canonical_subgroup_key)
        orbit = {conjugate_subgroup(x, h) for x in els}
        remaining -= orbit
        reps.append(h)
    return tuple(sorted(reps, key=_canonical_subgroup_key))


@dataclass
class GroupAction:
    """An action of a PermGroup on {0..m-1}: a homomorphism element -> Permutation."""

    group: PermGroup
    m: int
    act: dict[Permutation, Permutation]

    def __post_init__(self):
        if set(self.act) != set(self.group.elements):
            raise ValueError("action must be defined on exactly the group elements")
        if not self.act[self.group.identity].is_identity():
            raise ValueError("identity must act as the identity")

    def apply(self, e: Permutation, v: int) -> int:
        return self.act[e].images[v]


def check_homomorphism(a: GroupAction) -> None:
    for e1 in a.group.elements:
        for e2 in a.group.elements:
            if a.act[e1 * e2] != a.act[e1] * a.act[e2]:
                raise InconsistentActionError(f"act({e1} * {e2}) != act({e1}) * act({e2})")


def coset_transversal(g: PermGroup, h: frozenset[Permutation]) -> list[Permutation]:
    """Deterministic left-coset representatives of h in g (first element of
    each coset in sorted group order)."""
    if not h <= g.element_set or not _is_subgroup(frozenset(h), g.degree):
        raise NotASubgroupError("h is not a subgroup of g")
    seen: set[Permutation] = set()
    reps = []
    for x in g.elements:
        if x in seen:
            continue
        reps.append(x)
        seen.update(x * hh for hh in h)
    return reps


def coset_action(g: PermGroup, h: frozenset[Permutation]) -> GroupAction:
    """Left-multiplication action of g on the left cosets of h."""
    reps = coset_transversal(g, h)
    member_index: dict[Permutation, int] = {}
    for i, r in enumerate(reps):
        for hh in h:
            member_index[r * hh] = i
    n = len(reps)
    act = {}
    for e in g.elements:
        act[e] = Permutation(tuple(member_index[e * reps[i]] for i in range(n)))
    return GroupAction(g, n, act)


def fixed_count(a: GroupAction, e: Permutation) -> int:
    img = a.act[e].images
    return sum(1 for v in range(a.m) if img[v] == v)


def class_fixed_counts(a: GroupAction) -> dict[ClassLabel, int]:
    """Fixed-vertex count of each non-identity element class.

    The count must be constant on every class (it is for every action this
    package builds); a class on which it varies raises InconsistentActionError.
    """
    out = {}
    for label, members in a.group.classes.items():
        if label.order == 1:
            continue
        vals = {fixed_count(a, e) for e in members}
        if len(vals) != 1:
            raise InconsistentActionError(f"class {label} fixes {sorted(vals)} vertices")
        out[label] = vals.pop()
    return out


def burnside_orbit_count(a: GroupAction) -> int:
    """Number of orbits as (1/|G|) * sum of fixed-point counts.

    The sum is exact integer arithmetic; a non-integral average means the
    action table is corrupt, which is reported rather than rounded away.
    """
    total = sum(fixed_count(a, e) for e in a.group.elements)
    if total % a.group.order:
        raise InconsistentActionError(
            f"fixed-point sum {total} not divisible by group order {a.group.order}")
    return total // a.group.order


def orbit_partition(a: GroupAction) -> list[list[int]]:
    """Orbits by union-find; the independent cross-check for Burnside counting."""
    parent = list(range(a.m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in a.group.generators if a.group.generators else a.group.elements:
        img = a.act[e].images
        for v in range(a.m):
            ra, rb = find(v), find(img[v])
            if ra != rb:
                parent[rb] = ra
    orbits: dict[int, list[int]] = {}
    for v in range(a.m):
        orbits.setdefault(find(v), []).append(v)
    return sorted(orbits.values())


def is_faithful(a: GroupAction) -> bool:
    return len({a.act[e] for e in a.group.elements}) == a.group.order


def kernel(a: GroupAction) -> frozenset[Permutation]:
    ident = identity(a.m)
    return frozenset(e for e in a.group.elements if a.act[e] == ident)


def pair_stabilizer(a: GroupAction, u: int, v: int) -> tuple[Permutation, ...]:
    """All elements fixing both u and v (pointwise)."""
    if u == v or not (0 <= u < a.m and 0 <= v < a.m):
        raise ValueError(f"need two distinct vertices below m={a.m}")
    return tuple(e for e in a.group.elements
                 if a.act[e].images[u] == u and a.act[e].images[v] == v)


def vertex_stabilizers(a: GroupAction) -> list[frozenset[Permutation]]:
    stabs: list[set[Permutation]] = [set() for _ in range(a.m)]
    for e in a.group.elements:
        img = a.act[e].images
        for v in range(a.m):
            if img[v] == v:
                stabs[v].add(e)
    return [frozenset(s) for s in stabs]


def direct_sum(actions: list[GroupAction]) -> GroupAction:
    """Disjoint union of actions of the same group."""
    if not actions:
        raise ValueError("need at least one action")
    g = actions[0].group
    if any(a.group is not g and a.group.element_set != g.element_set for a in actions):
        raise ValueError("all actions must share one group")
    m = sum(a.m for a in actions)
    act = {}
    for e in g.elements:
        images = []
        off = 0
        for a in actions:
            images.extend(off + j for j in a.act[e].images)
            off += a.m
        act[e] = Permutation(tuple(images))
    return GroupAction(g, m, act)


def restrict_action(a: GroupAction, sub: PermGroup) -> GroupAction:
    """Restriction to a subgroup whose elements are drawn from a.group."""
    if not sub.element_set <= a.group.element_set:
        raise ValueError("subgroup elements must belong to the acting group")
    return GroupAction(sub, a.m, {e: a.act[e] for e in sub.elements})
