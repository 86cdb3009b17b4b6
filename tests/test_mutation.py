"""Leaf-mutation sweep: every JSON leaf of three certificates is changed
once, and the verifier must reject each mutant unless an allowlist entry
explains why that file is still a valid certificate.

A leaf changes by kind: an integer by +1 and -1, a float by +0.25 and
by negation, a boolean flipped, a string suffixed.  A negated float within
ERROR_TOL / 2 of zero, which moves by less than ERROR_TOL, is its own kind,
`negate~0`.  A mutant is named by its path,
with a vertex record shown by its part label, and its kind, such as
`vertices.[free0].coords.2 negate` or `model.seed +1`.

Structural sweep: every key of three more certificates is deleted, every
node is replaced by each JSON kind (`=null`, `=true`, `=0`, `=-1`,
`=1.5`, `=2**70`, `=string`, `=[]`, `={}`), and every list is duplicated
at its head and truncated; of a list longer than 4 only the first two,
the middle and the last entry are visited.  A replacement that moves a
number by less than ERROR_TOL / 2 is marked `~`, such as `=0~`.  Each
mutant must exit as `tsglab verify` would with a rejection, 2 for a
schema error or 5 for a failed step, or match its own allowlist, and
never raise out of the verifier or fault inside it.

A mutant that flips the sign of one arc basis row is not allowlisted by
name: it passes only when the test confirms its arc has the original's
points (_writes_the_same_arc).

Metamorphic relations ride along: a file seen in a rotated frame, or with
its vertices renamed, still verifies, while rotating only its matrices, or
moving one free orbit onto another, is rejected at the named check."""

import copy
import json
import re

import numpy as np
import pytest

from tsglab.actions import build, plan
from tsglab.certificate import (
    SchemaError,
    _check_schema,
    certificate_dict,
    first_failure,
    verify_certificate,
)
from tsglab.edges import PAIR_TOL, Arcs, full_report
from tsglab.geometry import ERROR_TOL, realize

from .conftest import relabel_vertices

CASES = [("A4", 13), ("S4", 28), ("A4", 61)]
RELATION_CASES = [("A4", 13), ("A4", 25), ("S4", 28), ("A5", 61)]
# relabelling also moves the records of a restricted file with arcs
RELABEL_CASES = [*RELATION_CASES, ("A4", 65)]

# (pattern over the mutant's name, why the mutant is still a valid file)
ALLOWED = [
    (r"model\.seed \+1", "the seed is provenance: checking it would mean replaying placement"),
    (r"model\.theta \+0\.25", "theta is provenance: it sets where realize puts the twin tetrahedra, "
     "and a file stores their points, which every check reads"),
    (r"(generators\.\d+\.matrix|arcs\.\d+\.basis\.\d|vertices\.\[\w+\]\.coords)\.\d+ negate~0",
     "the sign of an entry within ERROR_TOL / 2 of zero is below every tolerance"),
    (r"vertices\.\[free\d+\]\.coords\.\d negate",
     "a free orbit's representative reflected in a coordinate hyperplane is another generic "
     "point, so the file is another valid realization"),
    (r"vertices\.\[center\]\.coords\.3 negate",
     "the antipodal pole is fixed by every element too"),
]


# (pattern over a structural mutant's name, why the mutant is still a valid file)
STRUCTURAL_ALLOWED = [
    (r"model\.theta =1\.5", "theta is provenance, and 1.5 lies in its range"),
    (r"(generators\.\d+\.matrix|arcs\.\d+\.basis\.\d|vertices\.\[\w+\]\.coords)\.\d+ =(0|-1)~",
     "an entry within ERROR_TOL / 2 of the number that replaces it moves by less than ERROR_TOL"),
    (r"vertices\.\[center\]\.coords\.3 =-1", "the antipodal pole is fixed by every element too"),
]
STRUCTURAL_CASES = [("A4", 13), ("S4", 20), ("A4", 65)]
# a mutant that may flip the sign of a basis row: an entry negated, or set to -1
ROW_SIGN = re.compile(r"arcs\.\d+\.basis\.\d\.\d+ (negate|=-1)")

# the JSON kinds a node is replaced by, each with its name
JSON_KINDS = (("null", None), ("true", True), ("0", 0), ("-1", -1), ("1.5", 1.5),
              ("2**70", 2 ** 70), ("string", "x"), ("[]", []), ("{}", {}))
_DELETE = object()


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
        yield "negate~0" if abs(value) < ERROR_TOL / 2 else "negate", -value
    elif isinstance(value, str):
        yield "suffix", value + "x"


def _name(data, path, kind):
    shown = [f"[{data['vertices'][key]['part']}]" if i == 1 and path[0] == "vertices" else str(key)
             for i, key in enumerate(path)]
    return ".".join(shown) + " " + kind


def _with(data, path, new):
    """A copy of data with the node at path replaced by new, or deleted
    if new is _DELETE."""
    mutant = copy.deepcopy(data)
    *parents, last = path
    node = mutant
    for key in parents:
        node = node[key]
    if new is _DELETE:
        del node[last]
    else:
        node[last] = copy.deepcopy(new)
    return mutant


def _verdict(data):
    """verify_certificate's results, failing the test on a verifier fault:
    a mutant must be accepted or rejected, never crash a step."""
    results = verify_certificate(data)
    faults = [res for res in results if res.message.startswith("internal error")]
    assert not faults, faults
    return results


def _exit_code(data) -> int:
    """The exit code of `tsglab verify` on a file holding data: 2 for a
    schema error, 5 for a failed step, 0 for a valid file.  Any other
    exception escapes, as it would as a traceback, and a verifier fault
    fails the test in _verdict."""
    try:
        _check_schema(data)
    except SchemaError:
        return 2
    return 0 if first_failure(_verdict(data)) is None else 5


def _accepts(data) -> bool:
    return _exit_code(data) == 0


def _arc(record) -> Arcs:
    return Arcs(np.array([record["pair"]]), np.zeros(1, dtype=int), np.array([record["basis"]]),
                np.array([record["start"]]), np.array([record["sweep"]]))


def _writes_the_same_arc(data, mutant, path, name) -> bool:
    """Is the mutant a basis-row sign mutant (ROW_SIGN) whose arc has the
    original arc's points, at both ends and seven interior parameters,
    within PAIR_TOL, in order or reversed?  Then it writes the same arc
    (symmetric about the other row, 2·start + sweep = ±π, and run from its
    other end), so it is the same valid file."""
    if not ROW_SIGN.fullmatch(name):
        return False
    s = np.linspace(0.0, 1.0, 9)
    ours, theirs = (_arc(d["arcs"][path[1]]).points(s)[0] for d in (mutant, data))
    gap = min(np.linalg.norm(ours - theirs, axis=1).max(),
              np.linalg.norm(ours - theirs[::-1], axis=1).max())
    return bool(gap <= PAIR_TOL)


@pytest.fixture(scope="module")
def certificates():
    """Each leaf-sweep and relation case's certificate at seed 0, as the
    JSON text of a file reads back."""
    out = {}
    for group, m in dict.fromkeys(CASES + RELABEL_CASES + STRUCTURAL_CASES):
        p = plan(group, m)
        r = realize(p, build(p))
        out[(group, m)] = json.loads(json.dumps(certificate_dict(r, full_report(r))))
    return out


def test_only_allowlisted_leaf_mutants_verify(certificates):
    unexplained, used = [], set()
    for case in CASES:
        data = certificates[case]
        assert _accepts(data), case
        count = 0
        for path, value in _leaves(data):
            for kind, new in _changes(value):
                count += 1
                mutant = _with(data, path, new)
                if not _accepts(mutant):
                    continue
                name = _name(data, path, kind)
                if _writes_the_same_arc(data, mutant, path, name):
                    continue
                reasons = [i for i, (pattern, _) in enumerate(ALLOWED) if re.fullmatch(pattern, name)]
                if reasons:
                    used.add(reasons[0])
                else:
                    unexplained.append(f"{case[0]} m={case[1]}: {name}")
        assert count > 100, case
    assert not unexplained, "mutants that verify: " + "; ".join(unexplained)
    stale = [ALLOWED[i][0] for i in range(len(ALLOWED)) if i not in used]
    assert not stale, f"allowlist entries no mutant needs: {stale}"


def _nodes(node, path=()):
    """(path, value) of every node below node, depth first; of a list
    longer than 4 only the first two, the middle and the last entry."""
    if isinstance(node, dict):
        keys = list(node)
    else:
        keys = range(len(node)) if len(node) <= 4 else sorted({0, 1, len(node) // 2, len(node) - 1})
    for key in keys:
        yield path + (key,), node[key]
        if isinstance(node[key], (dict, list)):
            yield from _nodes(node[key], path + (key,))


def _same_number(a, b) -> bool:
    return type(a) in (int, float) and type(b) in (int, float) and a == b


def _edits(value, in_dict):
    """(kind, new value) for each structural edit of one node that changes
    the file: deleting it from its dict, each JSON kind in its place, and
    a list duplicated at its head or truncated."""
    if in_dict:
        yield "delete", _DELETE
    for label, new in JSON_KINDS:
        if json.dumps(new) == json.dumps(value) or _same_number(new, value):
            continue
        near = type(value) is float and type(new) in (int, float) and abs(value - new) < ERROR_TOL / 2
        yield "=" + label + ("~" if near else ""), new
    if isinstance(value, list) and value:
        yield "duplicate", value[:1] + value
        yield "truncate", value[:-1]


def test_only_allowlisted_structural_mutants_verify(certificates):
    unexplained, used = [], set()
    for case in STRUCTURAL_CASES:
        data = certificates[case]
        assert _exit_code(data) == 0, case
        count = 0
        for path, value in _nodes(data):
            for kind, new in _edits(value, isinstance(path[-1], str)):
                count += 1
                mutant = _with(data, path, new)
                code = _exit_code(mutant)
                if code in (2, 5):
                    continue
                name = _name(data, path, kind)
                if _writes_the_same_arc(data, mutant, path, name):
                    continue
                reasons = [i for i, (pattern, _) in enumerate(STRUCTURAL_ALLOWED)
                           if re.fullmatch(pattern, name)]
                if reasons:
                    used.add(reasons[0])
                else:
                    unexplained.append(f"{case[0]} m={case[1]}: {name} (exit {code})")
        assert count > 500, case
    assert not unexplained, "mutants that verify: " + "; ".join(unexplained)
    stale = [STRUCTURAL_ALLOWED[i][0] for i in range(len(STRUCTURAL_ALLOWED)) if i not in used]
    assert not stale, f"allowlist entries no mutant needs: {stale}"


# ------------------------------------------------------ metamorphic relations


def _random_rotation(seed: int) -> np.ndarray:
    """A random SO(4) matrix: the Q of a Gaussian matrix's QR, signs fixed."""
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(4, 4)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _conjugated(data, q, *, matrices_only=False):
    """The file seen in the frame rotated by q: every generator matrix M
    becomes q M qᵀ, every coordinate v becomes q v and every arc basis B
    becomes B qᵀ.  With `matrices_only` the points stay where they were."""
    out = copy.deepcopy(data)
    for gen in out["generators"]:
        gen["matrix"] = (q @ np.reshape(gen["matrix"], (4, 4)) @ q.T).ravel().tolist()
    if not matrices_only:
        for rec in out["vertices"]:
            rec["coords"] = (q @ rec["coords"]).tolist()
        for arc in out["arcs"]:
            arc["basis"] = (np.asarray(arc["basis"]) @ q.T).tolist()
    return out


def _failed_check(data):
    """The name of the first failed verify check, or None if the file verifies."""
    _check_schema(data)
    failed = first_failure(_verdict(data))
    return None if failed is None else failed.name


@pytest.mark.parametrize("case", RELATION_CASES, ids=lambda c: f"{c[0]}-m{c[1]}")
def test_rotated_frame_keeps_the_verdict(certificates, case):
    data = certificates[case]
    assert _failed_check(data) is None
    for seed in range(3):
        assert _failed_check(_conjugated(data, _random_rotation(seed))) is None, seed


@pytest.mark.parametrize("case", RELATION_CASES, ids=lambda c: f"{c[0]}-m{c[1]}")
def test_rotating_only_the_matrices_fails_invariance(certificates, case):
    data = certificates[case]
    rotated = _conjugated(data, _random_rotation(0), matrices_only=True)
    assert _failed_check(rotated) == "invariance"


def test_free_orbit_copied_onto_another_fails_separation(certificates):
    data = copy.deepcopy(certificates[("A4", 25)])
    by_part = {rec["part"]: rec for rec in data["vertices"]}
    by_part["free0"]["coords"] = list(by_part["free1"]["coords"])
    assert _failed_check(data) == "separation"


@pytest.mark.parametrize("case", RELABEL_CASES, ids=lambda c: f"{c[0]}-m{c[1]}")
def test_relabelled_vertices_keep_the_verdict(certificates, case):
    data = certificates[case]
    for seed in range(3):
        new = np.random.default_rng(seed).permutation(data["m"])
        relabelled = relabel_vertices(data, new, reverse_arcs=True)
        assert relabelled["vertices"] != data["vertices"], seed
        assert _failed_check(relabelled) is None, seed
