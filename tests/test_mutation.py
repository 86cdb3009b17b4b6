"""Leaf-mutation sweep: every JSON leaf of three certificates is changed
once, and the verifier must reject each mutant unless an allowlist entry
explains why that file is still a valid certificate.

A leaf changes by kind: an integer by +1 and -1, a float by +0.25 and
by negation, a boolean flipped, a string suffixed.  A negated float within
1e-12 of zero is its own kind, `negate~0`.  A mutant is named by its path,
with a vertex record shown by its part label, and its kind, such as
`vertices.[free0].coords.2 negate` or `model.seed +1`."""

import copy
import json
import re

import pytest

from tsglab.actions import build, plan
from tsglab.certificate import SchemaError, _check_schema, certificate_dict, verify_certificate
from tsglab.edges import full_report
from tsglab.geometry import realize

CASES = [("A4", 13), ("S4", 28), ("A4", 61)]

# (pattern over the mutant's name, why the mutant is still a valid file)
ALLOWED = [
    (r"model\.seed [+-]1", "the seed is provenance: checking it would mean replaying placement"),
    (r"model\.theta \+0\.25", "no check reads theta yet; it only sets where the special parts sit"),
    (r"(generators\.\d+\.matrix|arcs\.\d+\.basis\.\d|vertices\.\[\w+\]\.coords)\.\d+ negate~0",
     "the sign of an entry within 1e-12 of zero is below every tolerance"),
    (r"vertices\.\[free\d+\]\.coords\.\d negate",
     "a free orbit's representative reflected in a coordinate hyperplane is another generic "
     "point, so the file is another valid realization"),
    (r"vertices\.\[center\]\.coords\.3 negate",
     "the antipodal pole is fixed by every element too"),
]


def _leaves(node, path=()):
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _leaves(child, path + (key,))
    else:
        yield path, node


def _changes(value):
    """(kind, new value) for each mutation of one leaf; None has none."""
    if isinstance(value, bool):
        yield "flip", not value
    elif isinstance(value, int):
        yield from (("+1", value + 1), ("-1", value - 1))
    elif isinstance(value, float):
        yield "+0.25", value + 0.25
        yield "negate~0" if abs(value) < 1e-12 else "negate", -value
    elif isinstance(value, str):
        yield "suffix", value + "x"


def _name(data, path, kind):
    shown = [f"[{data['vertices'][key]['part']}]" if i == 1 and path[0] == "vertices" else str(key)
             for i, key in enumerate(path)]
    return ".".join(shown) + " " + kind


def _accepts(data) -> bool:
    try:
        _check_schema(data)
    except SchemaError:
        return False
    return all(check.ok for check in verify_certificate(data))


@pytest.fixture(scope="module")
def certificates():
    """Each case's certificate at seed 0, as the JSON text of a file reads back."""
    out = {}
    for group, m in CASES:
        p = plan(group, m)
        r = realize(p, build(p))
        out[(group, m)] = json.loads(json.dumps(certificate_dict(r, full_report(r))))
    return out


def test_only_allowlisted_leaf_mutants_verify(certificates):
    unexplained, used = [], set()
    for case, data in certificates.items():
        assert _accepts(data), case
        count = 0
        for path, value in _leaves(data):
            for kind, new in _changes(value):
                count += 1
                mutant = copy.deepcopy(data)
                *parents, last = path
                node = mutant
                for key in parents:
                    node = node[key]
                node[last] = new
                if not _accepts(mutant):
                    continue
                name = _name(data, path, kind)
                reasons = [i for i, (pattern, _) in enumerate(ALLOWED) if re.fullmatch(pattern, name)]
                if reasons:
                    used.add(reasons[0])
                else:
                    unexplained.append(f"{case[0]} m={case[1]}: {name}")
        assert count > 100, case
    assert not unexplained, "mutants that verify: " + "; ".join(unexplained)
    stale = [ALLOWED[i][0] for i in range(len(ALLOWED)) if i not in used]
    assert not stale, f"allowlist entries no mutant needs: {stale}"
