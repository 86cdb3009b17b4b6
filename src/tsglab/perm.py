"""Exact permutation kernel for the polyhedral groups A4, S4 and A5.

A group is one integer array of image rows, `PermGroup.elements`, shape
(|G|, degree), sorted once: row i lists the images of the letters
0..degree-1 under element i, and the identity always sorts first, at
row 0.  Everywhere else an element is its row: a vertex action is an
integer array with one row of vertex images per element, and the
matrices, fixed circles, arc fixers, pair stabilizers, subgroups, kernels
and coset representatives of the other modules are rows too.
`PermGroup.rows` turns image lists back into rows; a permutation appears
only where a group is defined and where a certificate is read or written.

Elements are classified by (order, parity) and the classes carry the
profile field names: n1 (the identity), n2 (involutions in the even
subgroup), n2p (odd involutions, S4 only), n3, n4 and n5 (elements of
that order).  That partition is coarser than true conjugacy for A4 and
A5, but it is exactly the granularity at which fixed-vertex counts are
constant on the actions this package builds.
"""

from __future__ import annotations

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


def from_cycles(degree: int, *cycles: tuple[int, ...]) -> tuple[int, ...]:
    """Image tuple of the product of disjoint cycles."""
    images = list(range(degree))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a] = b
    return tuple(images)


# class sizes by class name, fixed by the group structure, in key() order
EXPECTED_CLASSES = {
    "A4": {"n1": 1, "n2": 3, "n3": 8},
    "S4": {"n1": 1, "n2": 3, "n2p": 6, "n3": 8, "n4": 6},
    "A5": {"n1": 1, "n2": 15, "n3": 20, "n5": 24},
}


def _even(perms: np.ndarray) -> np.ndarray:
    """True for each row with an even number of inversions."""
    d = perms.shape[1]
    inversions = (perms[:, :, None] > perms[:, None, :]) & np.triu(np.ones((d, d), bool), 1)
    return inversions.sum(axis=(1, 2)) % 2 == 0


class PermGroup:
    """One of A4, S4, A5 (or an isomorphic copy inside a larger symmetric
    group), fully enumerated as the sorted image rows `elements`.

    `cayley[i, j]` is the row of elements[i] * elements[j], the product
    applying elements[j] first; building it fails unless the rows are
    closed under product, and a finite set closed under product is a
    group.  `even` and `orders` give each row's parity and order, and
    `classes` maps each class name to its ascending rows.
    """

    def __init__(self, name: str, perms):
        if name not in GROUP_NAMES:
            raise ValueError(f"unknown group name {name!r}")
        try:
            perms = np.asarray(perms)
        except ValueError:  # numpy refuses lists of unequal length
            perms = np.empty(0)
        if perms.ndim != 2 or not np.issubdtype(perms.dtype, np.integer):
            raise ValueError("group elements must be equal-length lists of integers")
        n, d = perms.shape
        if n != GROUP_ORDER[name]:
            raise ValueError(f"{name} must have {GROUP_ORDER[name]} elements, got {n}")
        if not (np.sort(perms, axis=1) == np.arange(d)).all():
            raise ValueError(f"every group element must be a bijection on 0..{d - 1}")
        perms = perms[np.lexsort(perms.T[::-1])]
        if not np.diff(perms, axis=0).any(axis=1).all():
            raise ValueError("repeated group elements")
        if (perms[0] != np.arange(d)).any():
            raise ValueError("missing identity")
        perms.setflags(write=False)  # shared by every action and cached group
        self.name, self.elements, self.order, self.degree = name, perms, n, d
        # base-degree codes: sorted rows give sorted codes, found by binary search
        self._weights = d ** np.arange(d - 1, -1, -1)
        self._codes = perms @ self._weights
        self.cayley = self.rows(perms[:, perms].reshape(-1, d)).reshape(n, n)
        if (self.cayley < 0).any():
            raise ValueError("group elements are not closed under product")
        self.even = _even(perms)
        self.orders = np.zeros(n, dtype=int)
        power, k = np.arange(n), 1
        while not self.orders.all():
            self.orders[(power == 0) & (self.orders == 0)] = k
            power, k = self.cayley[power, np.arange(n)], k + 1
        names = ["n2p" if o == 2 and not e else f"n{o}"
                 for o, e in zip(self.orders.tolist(), self.even.tolist())]
        sizes = {c: names.count(c) for c in set(names)}
        if sizes != EXPECTED_CLASSES[name]:
            raise ValueError(f"{name} class sizes {sizes} do not match {EXPECTED_CLASSES[name]}")
        self.classes = {c: tuple(i for i, x in enumerate(names) if x == c)
                        for c in EXPECTED_CLASSES[name]}

    def rows(self, perms) -> np.ndarray:
        """Row of each image list in perms, or -1 for one that is no element.
        A row counts only if it equals the query entry for entry: the
        base-degree code of a list that is not a permutation can collide
        with an element's."""
        perms = np.asarray(perms)
        if perms.ndim != 2 or perms.shape[1] != self.degree \
                or not np.issubdtype(perms.dtype, np.integer):
            return np.full(len(perms), -1)
        found = np.minimum(np.searchsorted(self._codes, perms @ self._weights), self.order - 1)
        return np.where((self.elements[found] == perms).all(axis=1), found, -1)

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"PermGroup({self.name}, degree={self.degree})"


@lru_cache(maxsize=None)
def standard_group(name: str) -> PermGroup:
    """Canonical copies: S4 on 4 letters, A4 its even rows, A5 the even
    permutations of 5 letters."""
    perms = np.array(list(_all_permutations(range(5 if name == "A5" else 4))))
    return PermGroup(name, perms if name == "S4" else perms[_even(perms)])


@lru_cache(maxsize=None)
def a4_inside_a5() -> PermGroup:
    """The fixed representative A4 <= A5: the rows of A5 fixing letter 4."""
    a5 = standard_group("A5").elements
    return PermGroup("A4", a5[a5[:, 4] == 4])


def _closure(table: list[list[int]], gens) -> int:
    """Bitmask of the rows generated by the rows gens: breadth-first from
    the identity, multiplying by each generator row of the Cayley table."""
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


def _mask_rows(mask: int, order: int) -> tuple[int, ...]:
    return tuple(i for i in range(order) if mask >> i & 1)


def generated(g: PermGroup, gens) -> tuple[int, ...]:
    """Ascending rows of the subgroup of g generated by the rows gens."""
    return _mask_rows(_closure(g.cayley.tolist(), gens), g.order)


def subgroups_up_to_conjugacy(group) -> tuple[tuple[int, ...], ...]:
    """One representative per conjugacy class of subgroups, each as its
    ascending rows.

    Exhaustive closure over all 1- and 2-generated subsets on the Cayley
    table; every subgroup of A4, S4 and A5 is generated by at most two
    elements, so this finds everything without classification tables.
    Accepts a group or its name.
    """
    return _subgroups_up_to_conjugacy(group if isinstance(group, str) else group.name)


@lru_cache(maxsize=None)
def _subgroups_up_to_conjugacy(name: str) -> tuple[tuple[int, ...], ...]:
    # A subgroup is the bitmask of its rows.  Row order is the sorted
    # element order, so sorting by (order, sorted rows) sorts by (order,
    # sorted image rows), and each class is represented by its
    # lexicographically least member.
    g = standard_group(name)
    table = g.cayley.tolist()
    inv = (g.cayley == 0).argmax(axis=1)  # the identity is row 0
    conj = g.cayley[g.cayley, inv[:, None]].tolist()  # conj[x][i]: row of x * i * x^-1

    # <a, b> is the join of <a> and <b>: close one pair of cyclic subgroups
    # at a time, skipping pairs where one already contains the other
    cyclic: dict[int, int] = {}
    for a in range(g.order):
        cyclic.setdefault(_closure(table, (a,)), a)
    subgroups = set(cyclic)
    pairs = list(cyclic.items())
    for i, (ha, a) in enumerate(pairs):
        for hb, b in pairs[i + 1:]:
            if ha & hb not in (ha, hb):
                subgroups.add(_closure(table, (a, b)))

    rows = {h: _mask_rows(h, g.order) for h in subgroups}
    reps, seen = [], set()
    for h in sorted(subgroups, key=lambda h: (len(rows[h]), rows[h])):
        if h not in seen:
            reps.append(rows[h])
            seen.update(sum(1 << c[i] for i in rows[h]) for c in conj)
    return tuple(reps)


class GroupAction:
    """An action of a PermGroup on {0..m-1}: images[i] is the vertex
    permutation of row i, as an integer image array."""

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
    return GroupAction(g, g.elements)


def check_homomorphism(a: GroupAction) -> None:
    imgs, elements = a.images, a.group.elements
    for i in range(a.group.order):
        # row j compares act(i * j) with act(i) after act(j)
        bad = np.flatnonzero((imgs[a.group.cayley[i]] != imgs[i][imgs]).any(axis=1))
        if len(bad):
            e1, e2 = elements[i].tolist(), elements[bad[0]].tolist()
            raise InconsistentActionError(f"act({e1} * {e2}) != act({e1}) * act({e2})")


def left_cosets(g: PermGroup, h) -> tuple[list[int], np.ndarray]:
    """Rows of the left-coset representatives of the rows h in g (first row
    of each coset) and the coset number of every row of g.  h must be a
    non-empty set of rows of g closed under product, which makes it a
    subgroup."""
    rows = np.asarray(h, dtype=np.intp)
    if not len(rows) or not np.isin(rows, np.arange(g.order)).all() \
            or not np.isin(g.cayley[np.ix_(rows, rows)], rows).all():
        raise NotASubgroupError("h is not a subgroup of g")
    coset_of = np.full(g.order, -1, dtype=np.intp)
    reps = []
    for x in range(g.order):
        if coset_of[x] < 0:
            coset_of[g.cayley[x, rows]] = len(reps)  # the coset x * h
            reps.append(x)
    return reps, coset_of


def coset_action(g: PermGroup, h) -> GroupAction:
    """Left-multiplication action of g on the left cosets of the rows h."""
    reps, coset_of = left_cosets(g, h)
    return GroupAction(g, coset_of[g.cayley[:, reps]])


def class_fixed_counts(a: GroupAction) -> dict[str, int]:
    """Fixed-vertex count of each non-identity element class, by name.

    The count must be constant on every class (it is for every action this
    package builds); a class on which it varies raises InconsistentActionError.
    """
    counts = a.fixed().sum(axis=1)
    out = {}
    for name, rows in a.group.classes.items():
        if name == "n1":
            continue
        vals = set(counts[list(rows)].tolist())
        if len(vals) != 1:
            raise InconsistentActionError(f"class {name} fixes {sorted(vals)} vertices")
        out[name] = vals.pop()
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


def kernel(a: GroupAction) -> tuple[int, ...]:
    """Ascending rows of the elements that fix every vertex."""
    return tuple(np.flatnonzero(a.fixed().all(axis=1)).tolist())


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
    if any(not np.array_equal(a.group.elements, g.elements) for a in actions):
        raise ValueError("all actions must share one group")
    offsets = np.cumsum([0] + [a.m for a in actions[:-1]])
    return GroupAction(g, np.hstack([a.images + off for a, off in zip(actions, offsets)]))


def restrict_action(a: GroupAction, sub: PermGroup) -> GroupAction:
    """Restriction to a subgroup whose elements are drawn from a.group."""
    rows = a.group.rows(sub.elements)
    if (rows < 0).any():
        raise ValueError("subgroup elements must belong to the acting group")
    return GroupAction(sub, a.images[rows])
