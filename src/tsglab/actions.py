"""Explicit vertex actions for every admissible (group, m).

A plan names the orbits to lay down: free (regular) orbits plus at most a
couple of special ones tied to a polyhedron.  Part kinds and their sizes:

    free             one regular orbit, |G| points
    tetra_corners    the 4 corners of a tetrahedron (natural action)
    twin_tetra       corners of two nested tetrahedra, 8 points
                     (cosets of a 3-cycle subgroup of S4)
    tetra_edge       2 points per tetrahedron edge, 12 points
                     (cosets of a transposition subgroup of S4)
    simplex_corners  the 5 vertices of a regular 4-simplex (natural A5)
    simplex_edge     2 points per 4-simplex edge, 20 points
                     (cosets of a 3-cycle subgroup of A5)
    center           a single point fixed by the whole group
    knotted_k4/k5    the two small cases that need knotted edges; their
                     combinatorial actions are recorded, geometry is not

build lays down only the two generator rows of each part's action, the
one form of a vertex action (perm.GroupAction), as verify reads it from
a file.

For A4 most residues are reached by building the S4 or A5 action on the
same vertices and restricting to an A4 subgroup; the re-embedding argument
that cuts the symmetry group down needs an edge no non-trivial element
fixes pointwise.  has_free_edge looks for one; the acceptance walk checks
it for every restricted plan, and no certificate carries it yet.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .perm import (
    GROUP_ORDER,
    GroupAction,
    PermGroup,
    a4_inside_a5,
    class_fixed_counts,
    coset_action,
    from_cycles,
    generated,
    is_faithful,
    pair_fixer_counts,
    restrict_action,
    standard_group,
)
from .profiles import KNOTTED_CASES, FixedVertexProfile, NotAdmissibleError, necessity_check


class Model(str, Enum):
    """Geometric model carrying a plan (consumed by the realizer)."""

    TETRA_ROT = "tetra_rot"        # A4 rotations of a tetrahedron, poles fixed
    TETRA_FULL = "tetra_full"      # S4 on a tetrahedron, parity twist on the 4th axis
    DODECA_ROT = "dodeca_rot"      # A5 rotations of a dodecahedron, poles fixed
    SIMPLEX4 = "simplex4"          # A5 permuting the vertices of a regular 4-simplex


PART_SIZES = {
    "tetra_corners": 4,
    "twin_tetra": 8,
    "tetra_edge": 12,
    "simplex_corners": 5,
    "simplex_edge": 20,
    "center": 1,
    "knotted_k4": 4,
    "knotted_k5": 5,
}

RESTRICT_EVEN_S4 = "a4_in_s4"   # even elements of S4
RESTRICT_STAB_A5 = "a4_in_a5"   # even permutations fixing letter 4

# the group whose orbits a restricted plan lays down
RESTRICTION_PARENT = {RESTRICT_EVEN_S4: "S4", RESTRICT_STAB_A5: "A5"}

# every (group, restriction, model tag) that plan() produces
PLAN_HEADERS = (
    ("A4", None, Model.TETRA_ROT.value),
    ("A4", RESTRICT_EVEN_S4, Model.TETRA_FULL.value),
    ("A4", RESTRICT_STAB_A5, Model.DODECA_ROT.value),
    ("A4", RESTRICT_STAB_A5, Model.SIMPLEX4.value),
    ("S4", None, Model.TETRA_FULL.value),
    ("A5", None, Model.SIMPLEX4.value),
    ("A5", None, Model.DODECA_ROT.value),
)

@dataclass(frozen=True)
class PartSpec:
    kind: str
    count: int = 1  # only free parts repeat

    def __post_init__(self):
        if self.kind != "free" and self.kind not in PART_SIZES:
            raise ValueError(f"unknown part kind {self.kind!r}")
        if self.count < 1:
            raise ValueError("part count must be positive")
        if self.kind != "free" and self.count != 1:
            raise ValueError("only free parts carry a multiplicity")


@dataclass(frozen=True)
class OrbitPlan:
    group: str                      # the group the action realizes
    m: int
    parts: tuple[PartSpec, ...]
    model: Model
    restriction: Optional[str] = None
    knotted: bool = False

    @property
    def building_group(self) -> str:
        """Group whose orbits are laid down (the parent for restrictions)."""
        return RESTRICTION_PARENT.get(self.restriction, self.group)

    def part_size(self, spec: PartSpec) -> int:
        if spec.kind == "free":
            return GROUP_ORDER[self.building_group] * spec.count
        return PART_SIZES[spec.kind]

    def __post_init__(self):
        total = sum(self.part_size(s) for s in self.parts)
        if total != self.m:
            raise ValueError(f"part sizes sum to {total}, expected m={self.m}")


def plan(group: str, m: int) -> OrbitPlan:
    """The construction recipe for an admissible (group, m)."""
    verdict = necessity_check(group, m)
    if not verdict.admissible:
        raise NotAdmissibleError(
            f"K_{m} admits no embedding with symmetry group {group}: {verdict.violated_rule.text}")

    if group == "S4":
        n_free, k = divmod(m, 24)
        extras = {0: [], 4: ["tetra_corners"], 8: ["twin_tetra"],
                  12: ["tetra_edge"], 20: ["twin_tetra", "tetra_edge"]}[k]
        model = Model.TETRA_FULL
    elif group == "A5":
        n_free, k = divmod(m, 60)
        extras = {0: [], 1: ["center"], 5: ["simplex_corners"], 20: ["simplex_edge"]}[k]
        model = Model.DODECA_ROT if k in (0, 1) else Model.SIMPLEX4
    elif (group, m) in KNOTTED_CASES:
        return OrbitPlan("A4", m, (PartSpec(f"knotted_k{m}"),), Model.TETRA_ROT, knotted=True)
    elif m % 12 in (0, 4, 8) and m % 24 != 16:
        sub = plan("S4", m)
        return OrbitPlan("A4", m, sub.parts, sub.model, restriction=RESTRICT_EVEN_S4)
    elif m % 60 in (1, 5):
        sub = plan("A5", m)
        return OrbitPlan("A4", m, sub.parts, sub.model, restriction=RESTRICT_STAB_A5)
    else:
        # free A4 orbits plus corners (m = 12(2n+1) + 4), a center, or both
        n_free, k = divmod(m, 12)
        extras = {4: ["tetra_corners"], 1: ["center"], 5: ["tetra_corners", "center"]}[k]
        model = Model.TETRA_ROT
    parts = [PartSpec("free", n_free)] if n_free else []
    return OrbitPlan(group, m, tuple(parts + [PartSpec(e) for e in extras]), model)


# generator of the subgroup whose cosets realize each special part
_PART_GENERATOR = {
    "twin_tetra": from_cycles(4, (0, 1, 2)),
    "tetra_edge": from_cycles(4, (0, 1)),
    "simplex_edge": from_cycles(5, (0, 1, 2)),
}

_NATURAL_PARTS = {"tetra_corners", "simplex_corners", "knotted_k4"}


@dataclass(frozen=True)
class BuiltPart:
    """One realized orbit block; its first vertex is the identity coset."""

    kind: str
    label: str
    start: int
    size: int


@dataclass
class VertexAction:
    """A faithful action on m labeled vertices, with part bookkeeping."""

    action: GroupAction
    labels: tuple[str, ...]
    parts: tuple[BuiltPart, ...]
    parent: Optional[GroupAction] = None  # unrestricted action, when restricted

    @property
    def m(self) -> int:
        return self.action.m


def restricted_group(restriction: Optional[str]) -> Optional[PermGroup]:
    """The subgroup of the parent group that a restriction tag keeps, or None."""
    if restriction == RESTRICT_EVEN_S4:
        return standard_group("A4")
    if restriction == RESTRICT_STAB_A5:
        return a4_inside_a5()
    return None


def build(p: OrbitPlan) -> VertexAction:
    """Materialize a plan as an explicit faithful permutation action.  Each
    block contributes the two generator rows of its coset, natural or
    one-point action, offset to the block's start; those rows are the
    action, as verify reads it from a file."""
    g = standard_group(p.building_group)
    gens = list(g.generators)
    blocks: list[BuiltPart] = []
    rows: list[np.ndarray] = []
    center = np.zeros((len(gens), 1), dtype=np.intp)

    def add(kind: str, gen_rows: np.ndarray, label=None):
        start = blocks[-1].start + blocks[-1].size if blocks else 0
        blocks.append(BuiltPart(kind, label or kind, start, gen_rows.shape[1]))
        rows.append(gen_rows + start)

    for spec in p.parts:
        if spec.kind == "free":
            for j in range(spec.count):
                add("free", g.cayley[gens], f"free{j}")
        elif spec.kind in _PART_GENERATOR:
            h = generated(g, g.rows([_PART_GENERATOR[spec.kind]]))
            add(spec.kind, coset_action(g, h).gen_images)
        elif spec.kind in _NATURAL_PARTS:
            add(spec.kind, g.elements[gens])
        elif spec.kind == "center":
            add("center", center)
        else:  # knotted_k5
            add("knotted_k4", g.elements[gens])
            add("center", center)

    full = GroupAction(g, np.hstack(rows))
    if full.m != p.m:
        raise AssertionError(f"built {full.m} vertices, plan says {p.m}")
    labels = tuple(b.label for b in blocks for _ in range(b.size))

    sub = restricted_group(p.restriction)
    if sub is None:
        va = VertexAction(full, labels, tuple(blocks))
    else:
        va = VertexAction(restrict_action(full, sub), labels, tuple(blocks), parent=full)
    if not is_faithful(va.action):
        raise AssertionError("built action is not faithful")
    return va


def measured_profile(va: VertexAction) -> FixedVertexProfile:
    """Count fixed vertices per element class (constant on classes for any
    action this module builds; perm.class_fixed_counts raises otherwise)."""
    a = va.action
    return FixedVertexProfile(a.group.name, **class_fixed_counts(a))


def has_free_edge(va: VertexAction, in_parent: bool = False) -> bool:
    """Does some vertex pair have trivial pointwise stabilizer?

    Searches every pair rather than trusting a designated one.  With
    in_parent=True the test runs against the unrestricted action (the
    stronger condition the re-embedding argument actually needs).
    """
    a = va.parent if (in_parent and va.parent is not None) else va.action
    if a.m < 2:
        raise ValueError("need at least two vertices")
    # a vertex with trivial stabilizer makes a free edge with any other one
    pinned, counts = pair_fixer_counts(a)
    return len(pinned) < a.m or bool((counts == 1).any())

