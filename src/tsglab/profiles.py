"""Fixed-vertex profiles and the congruence classification.

A profile records how many vertices each non-identity element class fixes
(n2, n3, ...).  When one of A4, S4, A5 acts on the vertices of K_m through
orientation-preserving isometries of the 3-sphere, the fixed set of every
non-trivial isometry is a circle or empty, which caps the profiles hard;
Burnside's orbit-count identity

    # orbits = (1/|G|) * sum over g of |fix(g)|

then pins m modulo |G| for each surviving profile.  This module encodes
the caps as an ordered rule list and walks the box {0..MAX_FIX}^classes
once per (group, dropped rules), in rule_abiding_profiles (cached).  That
one walk gives the A4 (mod 12) and A5 (mod 60) residue sets, the verdict
witnesses and the oracle's per-class caps.  S4 gives no standalone profile
table; its verdict follows a chain of congruences (n4 = 0 forces m even,
the even-subgroup constraint forces m ≡ 0 mod 4, and a parity count kills
m ≡ 16 mod 24).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable, Optional

from .perm import EXPECTED_CLASSES, GROUP_NAMES, GROUP_ORDER

# Burnside weights: size of each non-identity class, by field name in key() order
CLASS_WEIGHTS = {
    group: {name: size for name, size in sizes.items() if name != "n1"}
    for group, sizes in EXPECTED_CLASSES.items()
}

# no non-trivial element fixes more vertices than this, whichever rules are
# dropped: the bound of the box every profile walk runs over
MAX_FIX = 3


class NotAdmissibleError(ValueError):
    """Raised when a construction is requested for an inadmissible m."""


class DomainError(ValueError):
    """Raised for m outside the complete-graph domain (m < 4)."""


@dataclass(frozen=True)
class FixedVertexProfile:
    """Per-class fixed-vertex counts.

    n2 counts involutions inside the even subgroup (all involutions for A4
    and A5), n2p the S4 involutions outside it, n4/n5 the order-4/order-5
    classes where they exist.
    """

    group: str
    n2: int = 0
    n3: int = 0
    n2p: Optional[int] = None
    n4: Optional[int] = None
    n5: Optional[int] = None

    def __post_init__(self):
        if self.group not in GROUP_NAMES:
            raise ValueError(f"unknown group {self.group!r}")
        if self.group == "S4":
            object.__setattr__(self, "n2p", 0 if self.n2p is None else self.n2p)
            object.__setattr__(self, "n4", 0 if self.n4 is None else self.n4)
            if self.n5 is not None:
                raise ValueError("n5 is not an S4 class")
        elif self.group == "A5":
            object.__setattr__(self, "n5", 0 if self.n5 is None else self.n5)
            if self.n2p is not None or self.n4 is not None:
                raise ValueError("n2p/n4 are not A5 classes")
        else:
            if self.n2p is not None or self.n4 is not None or self.n5 is not None:
                raise ValueError("n2p/n4/n5 are not A4 classes")
        for v in self.named_counts().values():
            if v < 0:
                raise ValueError("fixed-vertex counts must be non-negative")

    @classmethod
    def from_counts(cls, group: str, counts: dict[str, int]) -> "FixedVertexProfile":
        """Profile from per-class counts by field name; classes left out count 0."""
        return cls(group, **counts)

    def named_counts(self) -> dict[str, int]:
        """Counts of the group's classes by field name, in key() order."""
        return {name: n for name in ("n2", "n2p", "n3", "n4", "n5")
                if (n := getattr(self, name)) is not None}

    def key(self) -> tuple:
        """Comparison key: the counts in field order (used for witness matching)."""
        return tuple(self.named_counts().values())

    def max_count(self) -> int:
        return max(self.named_counts().values())


@dataclass(frozen=True)
class Rule:
    """One constraint in the derivation chain.

    kind "profile" rules test a FixedVertexProfile; kind "m" rules test the
    vertex count directly (only S4 and the terminal residue rules).
    """

    id: str
    text: str
    kind: str
    check: Callable

    def holds_for_profile(self, p: FixedVertexProfile) -> bool:
        if self.kind != "profile":
            raise ValueError(f"rule {self.id} does not apply to profiles")
        return self.check(p)

    def holds_for_m(self, m: int) -> bool:
        if self.kind != "m":
            raise ValueError(f"rule {self.id} does not apply to m")
        return self.check(m)


@dataclass(frozen=True)
class CongruenceSet:
    modulus: int
    residues: frozenset[int]

    def __post_init__(self):
        if self.modulus not in (12, 24, 60):
            raise ValueError("modulus must be a polyhedral group order")
        if not self.residues or any(r < 0 or r >= self.modulus for r in self.residues):
            raise ValueError("residues must be non-empty and lie below the modulus")

    def __contains__(self, m: int) -> bool:
        return m % self.modulus in self.residues

    def sorted(self) -> list[int]:
        return sorted(self.residues)


@dataclass(frozen=True)
class Verdict:
    group: str
    m: int
    admissible: bool
    witnesses: tuple[FixedVertexProfile, ...]
    violated_rule: Optional[Rule]
    note: str = ""

    def __post_init__(self):
        if self.admissible != bool(self.witnesses) or self.admissible != (self.violated_rule is None):
            raise ValueError("exactly one of witnesses / violated_rule must be populated")


def _cap_all(bound):
    return lambda p: p.max_count() <= bound


def _cap_involutions(bound):
    return lambda p: p.n2 <= bound and (p.n2p is None or p.n2p <= bound)


_RULES = {
    "fix_le_3": Rule(
        "fix_le_3",
        "no non-trivial element fixes more than 3 vertices",
        "profile",
        _cap_all(3),
    ),
    "inv_fix_le_2": Rule(
        "inv_fix_le_2",
        "no order 2 element fixes more than 2 vertices",
        "profile",
        _cap_involutions(2),
    ),
    "inv_fix_le_1": Rule(
        "inv_fix_le_1",
        "no order 2 element of the even subgroup fixes more than 1 vertex",
        "profile",
        lambda p: p.n2 <= 1,
    ),
    "n3_zero_forces_n2_zero": Rule(
        "n3_zero_forces_n2_zero",
        "a vertex fixed by an involution is fixed by every element, so n3 = 0 forces n2 = 0",
        "profile",
        lambda p: p.n2 == 0 or p.n3 >= 1,
    ),
    "inv_vertex_excludes_n3_eq_3": Rule(
        "inv_vertex_excludes_n3_eq_3",
        "if an involution fixes a vertex then no element fixes 3 vertices",
        "profile",
        lambda p: not (p.n2 == 1 and p.n3 == 3),
    ),
    "fix_le_2": Rule(
        "fix_le_2",
        "no element fixes 3 vertices",
        "profile",
        _cap_all(2),
    ),
    "single_fix_couples": Rule(
        "single_fix_couples",
        "n3 = 1 or n5 = 1 forces n2 = n3 = n5 = 1",
        "profile",
        lambda p: (p.n3 != 1 and p.n5 != 1) or (p.n2 == 1 and p.n3 == 1 and p.n5 == 1),
    ),
    "n5ne2": Rule(
        "n5ne2",
        "n5 != 2: two vertices fixed by an order 5 rotation would force edges crossing at the dodecahedral center",
        "profile",
        lambda p: p.n5 != 2,
    ),
    "n4_zero": Rule(
        "n4_zero",
        "every order 4 element has empty fixed point set, so n4 = 0",
        "profile",
        lambda p: p.n4 == 0,
    ),
    "m_mod_4": Rule(
        "m_mod_4",
        "m ≡ 0 (mod 4)",
        "m",
        lambda m: m % 4 == 0,
    ),
    "m_mod_12_tetra": Rule(
        "m_mod_12_tetra",
        "m mod 12 must lie in {0, 1, 4, 5, 8} (even-subgroup constraint)",
        "m",
        lambda m: m in admissible_residues("A4"),
    ),
    "m_ne_16_mod_24": Rule(
        "m_ne_16_mod_24",
        "m ≢ 16 (mod 24)",
        "m",
        lambda m: m % 24 != 16,
    ),
}

# terminal residue rules cited by verdicts for A4/A5
_RESIDUE_RULES = {
    "A4": Rule(
        "residues_mod_12",
        "Burnside integrality over the allowed profiles forces m ≡ 0, 1, 4, 5, 8 (mod 12)",
        "m",
        lambda m: m in admissible_residues("A4"),
    ),
    "A5": Rule(
        "residues_mod_60",
        "Burnside integrality over the allowed profiles forces m ≡ 0, 1, 5, 20 (mod 60)",
        "m",
        lambda m: m in admissible_residues("A5"),
    ),
}

_RULE_IDS_BY_GROUP = {
    "A4": (
        "fix_le_3",
        "inv_fix_le_2",
        "inv_fix_le_1",
        "n3_zero_forces_n2_zero",
        "inv_vertex_excludes_n3_eq_3",
    ),
    "A5": (
        "fix_le_3",
        "inv_fix_le_2",
        "fix_le_2",
        "inv_fix_le_1",
        "n3_zero_forces_n2_zero",
        "single_fix_couples",
        "n5ne2",
    ),
    "S4": (
        "fix_le_3",
        "inv_fix_le_2",
        "inv_fix_le_1",
        "n3_zero_forces_n2_zero",
        "inv_vertex_excludes_n3_eq_3",
        "n4_zero",
        "m_mod_4",
        "m_mod_12_tetra",
        "m_ne_16_mod_24",
    ),
}


def rule_set(group: str) -> tuple[Rule, ...]:
    """The constraints for one group, in derivation order."""
    return tuple(_RULES[i] for i in _RULE_IDS_BY_GROUP[group])


def profile_rules(group: str, drop: tuple[str, ...] = ()) -> tuple[Rule, ...]:
    """The group's profile rules minus the dropped ids; an id that names no
    rule at all is an error, not a silent no-op."""
    unknown = [rid for rid in drop if rid not in _RULES]
    if unknown:
        raise ValueError(f"unknown rule id {unknown[0]!r}; known ids: {', '.join(_RULES)}")
    return tuple(r for r in rule_set(group) if r.kind == "profile" and r.id not in drop)


def m_rules(group: str) -> tuple[Rule, ...]:
    return tuple(r for r in rule_set(group) if r.kind == "m")


@lru_cache(maxsize=None)
def rule_abiding_profiles(group: str, drop: tuple[str, ...] = ()) -> tuple[FixedVertexProfile, ...]:
    """Every profile in the box {0..MAX_FIX}^classes that passes the group's
    profile rules minus the dropped ones, in key() order.  The one walk of
    the box: residue sets, witnesses and oracle caps all read it."""
    names = tuple(CLASS_WEIGHTS[group])
    rules = profile_rules(group, drop)
    box = (FixedVertexProfile.from_counts(group, dict(zip(names, values)))
           for values in product(range(MAX_FIX + 1), repeat=len(names)))
    kept = (p for p in box if all(r.holds_for_profile(p) for r in rules))
    return tuple(sorted(kept, key=FixedVertexProfile.key))


def enumerate_profiles(group: str) -> tuple[FixedVertexProfile, ...]:
    """All profiles in the cap box that survive every rule.

    A4 has 6 (two of them share residue 0), A5 has 4.  S4 is classified by
    its congruence chain, not a profile table, so it is rejected here.
    """
    if group == "S4":
        raise ValueError("S4 has no profile table; use necessity_check, which walks the congruence chain")
    return rule_abiding_profiles(group)


def residues_from_profile(group: str, p: FixedVertexProfile) -> int:
    """The unique residue of m mod |G| making the Burnside average integral."""
    order = GROUP_ORDER[group]
    weighted = sum(CLASS_WEIGHTS[group][name] * n for name, n in p.named_counts().items())
    return (-weighted) % order


# Realizable S4 profiles, one per admissible residue mod 24.  There is no
# printed table to mirror; these are the aggregates of the explicit orbit
# constructions and the tests cross-check them against both the orbit
# oracle and the measured profiles of built actions.
S4_WITNESSES = {
    0: FixedVertexProfile("S4"),
    4: FixedVertexProfile("S4", n2=0, n2p=2, n3=1, n4=0),
    8: FixedVertexProfile("S4", n2=0, n2p=0, n3=2, n4=0),
    12: FixedVertexProfile("S4", n2=0, n2p=2, n3=0, n4=0),
    20: FixedVertexProfile("S4", n2=0, n2p=2, n3=2, n4=0),
}


@lru_cache(maxsize=None)
def admissible_residues(group: str) -> CongruenceSet:
    """A4 and A5: the Burnside residues of the profile table.  S4: the
    residues that pass its congruence chain."""
    order = GROUP_ORDER[group]
    if group == "S4":
        chain = m_rules(group)
        return CongruenceSet(order, frozenset(
            r for r in range(order) if all(rule.holds_for_m(r) for rule in chain)))
    return CongruenceSet(order, frozenset(
        residues_from_profile(group, p) for p in enumerate_profiles(group)))


def necessity_check(group: str, m: int) -> Verdict:
    """Is an embedding of K_m with symmetry group `group` possible at all?

    Admissible verdicts carry the profile witnesses matching the residue;
    inadmissible ones cite the first violated rule in derivation order.
    """
    if group not in GROUP_NAMES:
        raise ValueError(f"unknown group {group!r}")
    if m < 4:
        raise DomainError(f"K_m needs m >= 4 to support a faithful {group} action, got {m}")
    residues = admissible_residues(group)
    if group == "S4":
        if m in residues:
            witness = S4_WITNESSES[m % 24]
            return Verdict(group, m, True, (witness,), None)
        for rule in m_rules("S4"):
            if not rule.holds_for_m(m):
                return Verdict(group, m, False, (), rule)
        raise AssertionError("inadmissible S4 m must violate a chain rule")
    if m in residues:
        witnesses = tuple(
            p for p in rule_abiding_profiles(group)
            if residues_from_profile(group, p) == m % residues.modulus
        )
        note = ""
        if group == "A4" and m in (4, 5):
            note = "only the knotted-edge construction realizes this case; geometry is out of scope"
        return Verdict(group, m, True, witnesses, None, note)
    return Verdict(group, m, False, (), _RESIDUE_RULES[group])
