"""Shared fixtures: the 14 reference cases, realized once per session."""

import pytest

from tsglab.actions import build, plan
from tsglab.geometry import realize

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
