"""Shared fixtures: the 14 reference cases, realized once per session."""

import numpy as np
import pytest

from tsglab.actions import build, plan
from tsglab.geometry import realize
from tsglab.profiles import profile_rules

REFERENCES = ([("S4", m) for m in (24, 4, 8, 12, 20, 28)]
              + [("A5", m) for m in (60, 61, 5, 20, 80)]
              + [("A4", m) for m in (16, 13, 17)])


@pytest.fixture(scope="session")
def realized():
    """(group, m) -> (vertex action, realization) at the default seed.
    Shared by every test module, so no test may mutate them."""
    out = {}
    for g, m in REFERENCES:
        p = plan(g, m)
        va = build(p)
        out[(g, m)] = (va, realize(p, va))
    return out


def close_free_orbits():
    """S4 m=48 with its second free orbit moved to the orbit of a point
    1e-7 from the first orbit's base point: exactly invariant, each orbit
    well spread, yet two vertices 1e-7 apart."""
    p = plan("S4", 48)
    r = realize(p, build(p))
    first, second = (b for b in r.vertex_action.parts if b.kind == "free")
    base = r.coords[first.start]
    nudge = np.array([1.0, -1.0, 0.5, 0.25])
    nudge -= (nudge @ base) * base
    moved = base + 1e-7 * nudge / np.linalg.norm(nudge)
    r.coords[second.start:second.start + second.size] = r.mats @ (moved / np.linalg.norm(moved))
    return r


def orbit_partition(a):
    """Orbits by union-find over every element's image row; the independent
    cross-check for Burnside counting."""
    parent = list(range(a.m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for img in a.images.tolist():
        for v in range(a.m):
            ra, rb = find(v), find(img[v])
            if ra != rb:
                parent[rb] = ra
    orbits: dict[int, list[int]] = {}
    for v in range(a.m):
        orbits.setdefault(find(v), []).append(v)
    return sorted(orbits.values())


def passes_profile_rules(group, p, drop=()):
    return all(r.holds_for_profile(p) for r in profile_rules(group, drop))
