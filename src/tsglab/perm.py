"""Exact permutation kernel for the polyhedral groups A4, S4 and A5.

A group is one integer array of image rows, `PermGroup.elements`, shape
(|G|, degree), sorted once: row i lists the images of the letters
0..degree-1 under element i, and the identity always sorts first, at
row 0.  Everywhere else an element is its row: the matrices, fixed
circles, arc fixers, pair stabilizers, subgroups, kernels and coset
representatives of the other modules are rows.  `PermGroup.rows` turns
image lists back into rows; a permutation appears only where a group is
defined and where a certificate is read or written.

A vertex action has one form, `GroupAction`: the images of the group's
two generator rows, `PermGroup.generators`, as built (`actions.build`)
or read from a certificate (`certificate._rebuild`).  Every other row acts
as a word in those two, and no table of all |G|·m images is ever made.

Elements are classified by (order, parity) and the classes carry the
profile field names: n1 (the identity), n2 (involutions in the even
subgroup), n2p (odd involutions, S4 only), n3, n4 and n5 (elements of
that order).  That partition is coarser than true conjugacy for A4 and
A5, but it is exactly the granularity at which fixed-vertex counts are
constant on the actions this package builds.

Who is where is decided once per action, by `GroupAction.orbits`: the
orbit minima, each vertex's orbit, the images of the minima under every
row (|G| per orbit, walked from the generator rows) and the first row
that carries its orbit's minimum to each vertex.  Any other image is one
entry of that table (`GroupAction.image`).  Who fixes what is decided
once too, by `GroupAction.fixed_points`: the vertices with a non-trivial
stabilizer and the rows that fix each of them.  Kernel, faithfulness,
class counts, Burnside's count, the pair fixers and the homomorphism
check all read those two tables.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache
from itertools import permutations as _all_permutations

import numpy as np

GROUP_NAMES = ("A4", "S4", "A5")

GROUP_ORDER = {"A4": 12, "S4": 24, "A5": 60}

Orbits = namedtuple("Orbits", "reps index carrier block")  # GroupAction.orbits
FixedPoints = namedtuple("FixedPoints", "pinned fixers counts")  # GroupAction.fixed_points

# rows are found by base-degree codes in int64; the largest code, d**d - 1,
# fits for d <= 15 and wraps from d = 16 on
MAX_DEGREE = 15


class NotASubgroupError(ValueError):
    """Raised when a coset action is requested for a non-subgroup."""


class InconsistentActionError(RuntimeError):
    """Raised when an action contradicts the group structure: a broken
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


def _bijections(rows: np.ndarray) -> bool:
    """Is every row of the integer array a bijection on 0..d-1 (d its row
    length)?  A range check, then one flat boolean scatter: row i's values
    mark cells i·d..i·d+d-1, and every cell is marked exactly when no row
    repeats a value."""
    n, d = rows.shape
    if rows.size and (rows.min() < 0 or rows.max() >= d):
        return False
    seen = np.zeros(n * d, dtype=bool)
    seen[(rows.astype(np.intp, copy=False) + d * np.arange(n)[:, None]).ravel()] = True
    return bool(seen.all())


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
        if d > MAX_DEGREE:
            raise ValueError(f"degree {d} exceeds the limit of {MAX_DEGREE} letters")
        if n != GROUP_ORDER[name]:
            raise ValueError(f"{name} must have {GROUP_ORDER[name]} elements, got {n}")
        if not _bijections(perms):
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

    @cached_property
    def cyclic_means(self) -> np.ndarray:
        """(|G|, |G|), read-only: row x holds 1/ord(x) at each power x^k
        (k < ord x), so it averages over the cyclic group <x>; row 0, the
        identity, is zero (geometry.fixed_planes)."""
        rows = np.arange(self.order)
        means, power = np.zeros((self.order, self.order)), rows
        for _ in range(self.orders.max()):  # past ord(x), the powers of x repeat
            means[rows, power] = 1 / self.orders
            power = self.cayley[power, rows]
        means[0] = 0.0
        means.setflags(write=False)
        return means

    @cached_property
    def generators(self) -> tuple[int, int]:
        """The first pair of rows, in row order, that generates the whole
        group: the rows a certificate stores as its generator records."""
        table, whole = self.cayley.tolist(), (1 << self.order) - 1
        return next((a, b) for a in range(1, self.order) for b in range(a + 1, self.order)
                    if _closure(table, (a, b)) == whole)

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


@lru_cache(maxsize=None)
def subgroups_up_to_conjugacy(name: str) -> tuple[tuple[int, ...], ...]:
    """One representative per conjugacy class of subgroups of the standard
    copy of the named group, each as its ascending rows.

    Exhaustive closure over all 1- and 2-generated subsets on the Cayley
    table; every subgroup of A4, S4 and A5 is generated by at most two
    elements, so this finds everything without classification tables.
    """
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
    """An action of a PermGroup on {0..m-1}, stored as the images of the
    group's two generator rows (`PermGroup.generators`): gen_images[k] is
    the vertex permutation of generators[k], as an integer image array,
    and every other row acts as a word in those two.

    The rows are bijection-checked and kept as a read-only view (the
    caller's array stays writable); whether they respect the group's
    relations is check_homomorphism's question.  The orbit table and the
    fixed-point table, each computed on first use, are cached on the
    action, and every other image is read off the first (`image`)."""

    def __init__(self, group: PermGroup, gen_images):
        gen_images = np.asarray(gen_images)
        if gen_images.ndim != 2 or len(gen_images) != len(group.generators):
            raise ValueError(f"generator images must be equal-length lists, shape "
                             f"({len(group.generators)}, m), got {gen_images.shape}")
        if not np.issubdtype(gen_images.dtype, np.integer):
            raise ValueError(f"generator images must be integers, not {gen_images.dtype}")
        if not _bijections(gen_images):
            raise ValueError(f"every generator image row must be a bijection on "
                             f"0..{gen_images.shape[1] - 1}")
        self.group = group
        self.gen_images = gen_images.view()
        self.gen_images.setflags(write=False)

    @property
    def m(self) -> int:
        return self.gen_images.shape[1]

    @cached_property
    def orbits(self) -> Orbits:
        """Who is where, as four read-only arrays: `reps`, the ascending
        orbit minima; `index`, each vertex's orbit, its minimum's place in
        reps; `block`, the (|G|, #orbits) images block[x, o] = φ_v(x),
        v = reps[o]; and `carrier`, for each vertex w the first row t with
        φ_v(t) = w, v its orbit's minimum.

        The minima are the smallest vertices the generator rows join each
        vertex to, found by passing labels along those rows until none
        changes, so the orbits stay those of the permutations the rows
        generate whatever the relations.  The block is walked breadth-first
        from φ_v(e) = v over left multiplication, φ_v(s * x) = act(s)(φ_v(x))
        for each generator s, so every entry lies in v's own orbit and the
        carriers are scattered from it.  Where no row reaches w the carrier
        is row 0: such rows are no homomorphism, which check_homomorphism
        reports."""
        g, low = self.group, _orbit_minima(self)
        reps = np.flatnonzero(low == np.arange(self.m))
        block = np.empty((g.order, len(reps)), dtype=np.intp)
        block[0] = reps
        left = g.cayley[list(g.generators)].tolist()  # left[k][x]: row of s_k * x
        queue, seen = [0], [True] + [False] * (g.order - 1)
        for x in queue:  # breadth-first: the queue grows while it is read
            for row, img in zip(left, self.gen_images):
                y = row[x]
                if not seen[y]:
                    seen[y] = True
                    queue.append(y)
                    block[y] = img[block[x]]
        carrier = np.full(self.m, g.order)
        np.minimum.at(carrier, block, np.arange(g.order)[:, None])
        carrier[carrier == g.order] = 0
        table = Orbits(reps, np.searchsorted(reps, low), carrier, block)
        for part in table:
            part.setflags(write=False)
        return table

    def image(self, x, w) -> np.ndarray:
        """act(x)(w) for rows x and vertices w, broadcasting: with v the
        minimum of w's orbit and t its carrier, w = φ_v(t), so act(x)(w) =
        φ_v(x * t), one entry of the orbit table's block.  That holds for a
        homomorphism, which check_homomorphism decides."""
        _, index, carrier, block = self.orbits
        return block[self.group.cayley[x, carrier[w]], index[w]]

    @cached_property
    def fixed_points(self) -> FixedPoints:
        """Which rows fix which vertices, as three read-only arrays: `pinned`,
        the ascending vertices that some non-trivial row fixes; `fixers`,
        the (|G|, len(pinned)) mask of the rows that fix each of them; and
        `counts`, how many vertices each row fixes.  Read off the orbit
        table's block: |G|·#orbits images and a |G|·#pinned gather.

        Let v be the representative of w's orbit and t its carrier row,
        t·v = w.  Stabilizers along an orbit are conjugate, Stab(w) =
        t Stab(v) t⁻¹: row x fixes w exactly when t⁻¹ * x * t fixes v, and
        w is pinned exactly when v is.  Every other vertex is fixed by the
        identity alone, so the identity fixes all m vertices and any other
        row only pinned ones.  The counts then sum to the orbit sizes times
        their stabilizer orders, |G| per orbit, which is Burnside's count.

        That holds for a genuine action: every coset_action, every action
        build makes and its restrictions, and verify's, read here only
        after check_homomorphism has passed it (`action-homomorphism`)."""
        (reps, orbit, carrier, block), c = self.orbits, self.group.cayley
        stab = block == reps  # stab[h, o]: row h fixes v
        pinned = np.flatnonzero((stab.sum(axis=0) > 1)[orbit])
        t = carrier[pinned]
        fixers = stab[c[(c == 0).argmax(axis=1)[t], c[:, t]], orbit[pinned]]  # t⁻¹ * x * t fixes v
        table = FixedPoints(pinned, fixers, np.concatenate(([self.m], fixers[1:].sum(axis=1))))
        for part in table:
            part.setflags(write=False)
        return table


def check_homomorphism(a: GroupAction) -> None:
    """act(s)(φ_v(x)) == φ_v(s * x) for each of the group's generators s,
    every row x and every orbit representative v, on the orbit table's
    block: 2·|G| image comparisons per orbit.

    That is complete.  The block is walked from φ_v(e) = v along one tree
    of these edges, so the tree edges agree by construction and the other
    edges are the test.  When every edge agrees, the set {φ_v(x)} is
    closed under the generator rows, so it is v's whole orbit, and
    φ_v(x * y) = W_x(φ_v(y)) for any word W_x in the generator rows that
    spells x.  So W_x is the same on the orbit for every word spelling x,
    the group's relations hold there, and it is act(x), which `image`
    reads as φ_v(x * t) at φ_v(t): act(x) after act(z) is act(x * z) on
    every vertex."""
    block, g = a.orbits.block, a.group
    for s, img in zip(g.generators, a.gen_images):
        # row x compares act(s)(φ_v(x)) with φ_v(s * x)
        bad = np.flatnonzero((img[block] != block[g.cayley[s]]).any(axis=1))
        if len(bad):
            e1, e2 = g.elements[s].tolist(), g.elements[bad[0]].tolist()
            raise InconsistentActionError(f"act({e1} * {e2}) != act({e1}) * act({e2})")


def matrices_from_generators(g: PermGroup, gen_mats) -> np.ndarray:
    """The (|G|, 4, 4) matrices that give the group's generator rows the
    matrices gen_mats: breadth-first from the identity over the Cayley
    table, row x * s gets M(x) @ M(s), the identity's is exactly I, and a
    generator's matrix is never overwritten.  Whether they form a
    homomorphism is geometry's homomorphism check."""
    gens = list(g.generators)
    mats = np.empty((g.order, 4, 4))
    mats[0], mats[gens] = np.eye(4), gen_mats
    steps = list(zip(gens, g.cayley.T[gens].tolist()))  # each generator with its Cayley column
    queue, seen = [0], [True] + [False] * (g.order - 1)
    for x in queue:  # breadth-first: the queue grows while it is read
        for s, column in steps:
            y = column[x]
            if not seen[y]:
                seen[y] = True
                queue.append(y)
                if y not in gens:
                    mats[y] = mats[x] @ mats[s]
    return mats


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
    """Left-multiplication action of g on the left cosets of the rows h:
    generator s sends the coset of x to that of s * x."""
    reps, coset_of = left_cosets(g, h)
    return GroupAction(g, coset_of[g.cayley[np.ix_(g.generators, reps)]])


def class_fixed_counts(a: GroupAction) -> dict[str, int]:
    """Fixed-vertex count of each non-identity element class, by name.

    The count must be constant on every class (it is for every action this
    package builds); a class on which it varies raises InconsistentActionError.
    """
    out = {}
    for name, rows in a.group.classes.items():
        if name == "n1":
            continue
        vals = set(a.fixed_points.counts[list(rows)].tolist())
        if len(vals) != 1:
            raise InconsistentActionError(f"class {name} fixes {sorted(vals)} vertices")
        out[name] = vals.pop()
    return out


def burnside_orbit_count(a: GroupAction) -> int:
    """Number of orbits as (1/|G|) * sum of fixed-point counts.

    The sum is exact integer arithmetic; a non-integral average means the
    action is corrupt, which is reported rather than rounded away.
    """
    total = int(a.fixed_points.counts.sum())
    if total % a.group.order:
        raise InconsistentActionError(
            f"fixed-point sum {total} not divisible by group order {a.group.order}")
    return total // a.group.order


def _orbit_minima(a: GroupAction) -> np.ndarray:
    low = np.arange(a.m)
    while True:
        before = low
        for img in a.gen_images:
            low = np.minimum(low, low[img])     # v takes the label of s.v
            low[img] = np.minimum(low[img], low)  # s.v takes the label of v
        if (low == before).all():
            return low


def kernel(a: GroupAction) -> tuple[int, ...]:
    """Ascending rows of the elements that fix every vertex."""
    return tuple(np.flatnonzero(a.fixed_points.counts == a.m).tolist())


def is_faithful(a: GroupAction) -> bool:
    """Trivial kernel; for a homomorphism, the same as all rows distinct."""
    return len(kernel(a)) == 1


def pair_fixer_counts(a: GroupAction) -> tuple[np.ndarray, np.ndarray]:
    """The vertices some non-trivial element fixes ("pinned", ascending) and,
    for each pair of them, how many elements fix both, the identity included.
    Every other vertex has a trivial stabilizer."""
    f = a.fixed_points.fixers.astype(np.int64)
    return a.fixed_points.pinned, f.T @ f


def restrict_action(a: GroupAction, sub: PermGroup) -> GroupAction:
    """Restriction to a subgroup whose elements are drawn from a.group."""
    rows = a.group.rows(sub.elements)
    if (rows < 0).any():
        raise ValueError("subgroup elements must belong to the acting group")
    return GroupAction(sub, a.image(rows[list(sub.generators), None], np.arange(a.m)))
