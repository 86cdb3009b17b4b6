"""Exact permutation kernel for the polyhedral groups A4, S4 and A5.

Groups are stored fully enumerated (at most 60 elements) with their
Cayley table, and elements are image tuples sorted once.  Below PermGroup
an element is its row in that order: the identity is always row 0, a
vertex action is an integer array with one row of vertex images per
element, and the matrices, fixed circles, arc fixers, pair stabilizers,
classes and coset representatives of the other modules are rows too.
Permutations appear only where a group is defined and where a certificate
is read or written.  Elements are classified by (order, parity): that
partition is coarser than true conjugacy for A4 and A5, but it is exactly
the granularity at which fixed-vertex counts are constant on the actions
this package builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations as _all_permutations

import numpy as np

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

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (p * q)(i) = p(q(i)): apply q first.
        return Permutation(tuple(self.images[j] for j in other.images))

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
    group), fully enumerated, with the (order, parity) class partition.

    `index` maps an element to its row in the sorted element order (the
    identity sorts first, at row 0), `classes` maps each class label to its
    rows, and `cayley[i, j]` is the row of elements[i] * elements[j].
    Building the table fails unless the elements are closed under product,
    and a finite set closed under product is a group.
    """

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
        classes: dict[ClassLabel, list[int]] = {}
        for i, e in enumerate(elements):
            classes.setdefault(self.class_of[e], []).append(i)
        self.classes = {lab: tuple(rows) for lab, rows in classes.items()}
        self._check()
        self.index = {e: i for i, e in enumerate(elements)}
        self.cayley = _cayley_table(elements)

    def _check(self):
        if self.order != GROUP_ORDER[self.name]:
            raise ValueError(f"{self.name} must have {GROUP_ORDER[self.name]} elements, got {self.order}")
        if len(self.element_set) != self.order:
            raise ValueError("repeated group elements")
        if self.elements[0] != self.identity:
            raise ValueError("missing identity")
        for g in self.generators:
            if g not in self.element_set:
                raise ValueError("generator outside element set")
        sizes = {lab: len(rows) for lab, rows in self.classes.items()}
        if sizes != EXPECTED_CLASSES[self.name]:
            raise ValueError(f"{self.name} class sizes {sizes} do not match {EXPECTED_CLASSES[self.name]}")

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"PermGroup({self.name}, degree={self.degree})"


def _cayley_table(elements: tuple[Permutation, ...]) -> np.ndarray:
    # Encode each image tuple as a base-degree number; sorted tuples give
    # sorted codes, so a product is located by binary search.
    perms = np.array([e.images for e in elements])
    weights = perms.shape[1] ** np.arange(perms.shape[1] - 1, -1, -1)
    codes = perms @ weights
    products = perms[:, perms] @ weights  # [i, j]: code of elements[i] * elements[j]
    table = np.minimum(np.searchsorted(codes, products), len(codes) - 1)
    if not (codes[table] == products).all():
        raise ValueError("group elements are not closed under product")
    return table


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


def subgroups_up_to_conjugacy(group) -> tuple[frozenset[Permutation], ...]:
    """One representative per conjugacy class of subgroups.

    Exhaustive closure over all 1- and 2-generated subsets on the Cayley
    table; every subgroup of A4, S4 and A5 is generated by at most two
    elements, so this finds everything without classification tables.
    Accepts a group or its name.
    """
    return _subgroups_up_to_conjugacy(group if isinstance(group, str) else group.name)


@lru_cache(maxsize=None)
def _subgroups_up_to_conjugacy(name: str) -> tuple[frozenset[Permutation], ...]:
    # Works on Cayley-table rows: an element is its row index, a subgroup the
    # bitmask of its rows.  Row order is the sorted element order, so sorting
    # by (order, sorted rows) sorts by (order, sorted image tuples), and each
    # class is represented by its lexicographically least member.
    g = standard_group(name)
    table = g.cayley.tolist()
    inv = (g.cayley == 0).argmax(axis=1)  # the identity is row 0
    conj = g.cayley[g.cayley, inv[:, None]].tolist()  # conj[x][i]: row of x * i * x^-1

    def generated(gens) -> int:
        # breadth-first from the identity, multiplying by each generator row
        mask, frontier = 1, [0]
        while frontier:
            fresh = []
            for x in frontier:
                for s in gens:
                    y = table[s][x]
                    if not mask >> y & 1:
                        mask |= 1 << y
                        fresh.append(y)
            frontier = fresh
        return mask

    # <a, b> is the join of <a> and <b>: close one pair of cyclic subgroups
    # at a time, skipping pairs where one already contains the other
    cyclic: dict[int, int] = {}
    for a in range(g.order):
        cyclic.setdefault(generated((a,)), a)
    subgroups = set(cyclic)
    pairs = list(cyclic.items())
    for i, (ha, a) in enumerate(pairs):
        for hb, b in pairs[i + 1:]:
            if ha & hb not in (ha, hb):
                subgroups.add(generated((a, b)))

    rows = {h: [i for i in range(g.order) if h >> i & 1] for h in subgroups}
    reps, seen = [], set()
    for h in sorted(subgroups, key=lambda h: (len(rows[h]), rows[h])):
        if h not in seen:
            reps.append(h)
            seen.update(sum(1 << c[i] for i in rows[h]) for c in conj)
    return tuple(frozenset(g.elements[i] for i in rows[h]) for h in reps)


class GroupAction:
    """An action of a PermGroup on {0..m-1}: images[i] is the vertex
    permutation of group.elements[i], as an integer image array."""

    def __init__(self, group: PermGroup, images):
        images = np.asarray(images)
        if images.ndim != 2 or images.shape[0] != group.order:
            raise ValueError(f"action images need shape ({group.order}, m), got {images.shape}")
        if not np.issubdtype(images.dtype, np.integer):
            raise ValueError(f"action images must be integers, not {images.dtype}")
        ident = np.arange(images.shape[1])
        if not (np.sort(images, axis=1) == ident).all():
            raise ValueError(f"every row of the action must be a bijection on 0..{len(ident) - 1}")
        if not (images[0] == ident).all():
            raise ValueError("identity must act as the identity")
        self.group = group
        self.images = images

    @property
    def m(self) -> int:
        return self.images.shape[1]

    def fixed(self) -> np.ndarray:
        """Boolean (|G|, m) mask: element i fixes vertex v."""
        return self.images == np.arange(self.m)


def natural_action(g: PermGroup) -> GroupAction:
    """g acting on its own letters."""
    return GroupAction(g, [e.images for e in g.elements])


def check_homomorphism(a: GroupAction) -> None:
    imgs = a.images
    for i, e1 in enumerate(a.group.elements):
        # row j compares act(e1 * e2) with act(e1) after act(e2), e2 = elements[j]
        bad = np.flatnonzero((imgs[a.group.cayley[i]] != imgs[i][imgs]).any(axis=1))
        if len(bad):
            e2 = a.group.elements[bad[0]]
            raise InconsistentActionError(f"act({e1} * {e2}) != act({e1}) * act({e2})")


def left_cosets(g: PermGroup, h: frozenset[Permutation]) -> tuple[list[int], np.ndarray]:
    """Rows of the left-coset representatives of h in g (first row of each
    coset) and the coset number of every row of g.  h must be a non-empty
    subset of g closed under product, which makes it a subgroup."""
    rows = np.array([g.index.get(p, -1) for p in h], dtype=np.intp)
    if not len(rows) or (rows < 0).any() or not np.isin(g.cayley[np.ix_(rows, rows)], rows).all():
        raise NotASubgroupError("h is not a subgroup of g")
    coset_of = np.full(g.order, -1, dtype=np.intp)
    reps = []
    for x in range(g.order):
        if coset_of[x] < 0:
            coset_of[g.cayley[x, rows]] = len(reps)  # the coset x * h
            reps.append(x)
    return reps, coset_of


def coset_action(g: PermGroup, h: frozenset[Permutation]) -> GroupAction:
    """Left-multiplication action of g on the left cosets of h."""
    reps, coset_of = left_cosets(g, h)
    return GroupAction(g, coset_of[g.cayley[:, reps]])


def class_fixed_counts(a: GroupAction) -> dict[ClassLabel, int]:
    """Fixed-vertex count of each non-identity element class.

    The count must be constant on every class (it is for every action this
    package builds); a class on which it varies raises InconsistentActionError.
    """
    counts = a.fixed().sum(axis=1)
    out = {}
    for label, rows in a.group.classes.items():
        if label.order == 1:
            continue
        vals = set(counts[list(rows)].tolist())
        if len(vals) != 1:
            raise InconsistentActionError(f"class {label} fixes {sorted(vals)} vertices")
        out[label] = vals.pop()
    return out


def burnside_orbit_count(a: GroupAction) -> int:
    """Number of orbits as (1/|G|) * sum of fixed-point counts.

    The sum is exact integer arithmetic; a non-integral average means the
    action table is corrupt, which is reported rather than rounded away.
    """
    total = int(a.fixed().sum())
    if total % a.group.order:
        raise InconsistentActionError(
            f"fixed-point sum {total} not divisible by group order {a.group.order}")
    return total // a.group.order


def kernel(a: GroupAction) -> frozenset[Permutation]:
    return frozenset(e for e, k in zip(a.group.elements, a.fixed().all(axis=1)) if k)


def is_faithful(a: GroupAction) -> bool:
    """Trivial kernel; for a homomorphism, the same as all rows distinct."""
    return len(kernel(a)) == 1


def pair_stabilizer(a: GroupAction, u: int, v: int) -> tuple[int, ...]:
    """Rows of all elements fixing both u and v (pointwise), ascending, so
    the identity comes first."""
    if u == v or not (0 <= u < a.m and 0 <= v < a.m):
        raise ValueError(f"need two distinct vertices below m={a.m}")
    fixes = (a.images[:, u] == u) & (a.images[:, v] == v)
    return tuple(np.flatnonzero(fixes).tolist())


def pair_fixer_counts(a: GroupAction) -> tuple[np.ndarray, np.ndarray]:
    """The vertices some non-trivial element fixes ("pinned", ascending) and,
    for each pair of them, how many elements fix both, the identity included.
    Every other vertex has a trivial stabilizer."""
    fixed = a.fixed()
    pinned = np.flatnonzero(fixed.sum(axis=0) > 1)
    f = fixed[:, pinned].astype(np.int64)
    return pinned, f.T @ f


def direct_sum(actions: list[GroupAction]) -> GroupAction:
    """Disjoint union of actions of the same group."""
    if not actions:
        raise ValueError("need at least one action")
    g = actions[0].group
    if any(a.group is not g and a.group.element_set != g.element_set for a in actions):
        raise ValueError("all actions must share one group")
    offsets = np.cumsum([0] + [a.m for a in actions[:-1]])
    return GroupAction(g, np.hstack([a.images + off for a, off in zip(actions, offsets)]))


def restrict_action(a: GroupAction, sub: PermGroup) -> GroupAction:
    """Restriction to a subgroup whose elements are drawn from a.group."""
    if not sub.element_set <= a.group.element_set:
        raise ValueError("subgroup elements must belong to the acting group")
    return GroupAction(sub, a.images[[a.group.index[e] for e in sub.elements]])
