"""Orbit-form certificates: what a file fixes, and the faults only that
form can carry (generators, orbit representatives, a vertex off the
sphere)."""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tsglab import certificate, perm
from tsglab.actions import build, plan
from tsglab.certificate import (
    _rebuild,
    certificate_dict,
    first_failure,
    read_certificate,
    verify_certificate,
    write_certificate,
)
from tsglab.cli import main
from tsglab.edges import full_report
from tsglab.geometry import plane_distance, projectors, realize
from tsglab.perm import generated, standard_group

from .conftest import (REFERENCES, action_table, expand_certificate, expected_orbit_count, fixed_set,
                       tree_table)

ROOT = Path(__file__).parents[1]
GOLDEN = Path(__file__).parent / "golden"


def semantic_digest(images, mats, coords) -> str:
    """sha256 over the shapes and little-endian bytes of the action, the
    matrices and the coordinates."""
    h = hashlib.sha256()
    for arr, dtype in ((images, "<i8"), (mats, "<f8"), (coords, "<f8")):
        a = np.ascontiguousarray(arr, dtype=dtype)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def test_reference_cases_keep_their_semantics(realized, tmp_path):
    """realize gives the action, matrices and coordinates recorded in
    golden/reference_semantics.json (seed 0) for the 14 reference cases,
    and each file rebuilds to the same action, matrices and coordinates,
    bit for bit."""
    golden = json.loads((GOLDEN / "reference_semantics.json").read_text())
    assert set(golden["sha256"]) == {f"{g.lower()}_m{m}" for g, m in REFERENCES}
    same_numpy = golden["numpy"] == np.__version__
    for (group, m), (_, r) in realized.items():
        images = action_table(r.vertex_action.action)
        if same_numpy:
            expect = golden["sha256"][f"{group.lower()}_m{m}"]
            assert semantic_digest(images, r.mats, r.coords) == expect, (group, m)
        path = tmp_path / f"{group}_{m}.json"
        write_certificate(str(path), r, full_report(r))
        back = _rebuild(read_certificate(str(path)))
        assert np.array_equal(action_table(back.vertex_action.action), images), (group, m)
        assert np.array_equal(back.mats, r.mats), (group, m)
        assert np.array_equal(back.coords, r.coords), (group, m)
    if not same_numpy:
        pytest.skip(f"digests were recorded with numpy {golden['numpy']}, not {np.__version__}")


@pytest.mark.parametrize("group,m", [*REFERENCES, ("A4", 24), ("A4", 61), ("A4", 65),
                                     ("A4", 1212)])
def test_a_rebuilt_file_writes_back_to_itself(realized, tmp_path, group, m):
    """The reference-grid files (the 14 reference cases plus the restricted
    A4 m=24 and m=61) and the restricted A4 m=65 and m=1212, at seed 0:
    the realization _rebuild makes from a file, written again with the
    arcs full_report picks on it, is the file, restriction included."""
    if (group, m) in realized:
        r = realized[(group, m)][1]
    else:
        p = plan(group, m)
        r = realize(p, build(p))
    path = str(tmp_path / "cert.json")
    write_certificate(path, r, full_report(r))
    data = read_certificate(path)
    back = _rebuild(data)
    assert certificate_dict(back, full_report(back)) == data


def test_a_file_holds_one_vertex_record_per_orbit(realized):
    for (group, m), (va, r) in realized.items():
        data = certificate_dict(r, full_report(r))
        ids = [v["id"] for v in data["vertices"]]
        assert len(ids) == data["report"]["orbit_count"] == expected_orbit_count(plan(group, m))
        assert ids == sorted(ids) and ids[0] == 0
        gens = [g["perm"] for g in data["generators"]]
        assert gens == r.group.elements[list(r.group.generators)].tolist()


def _certificate(tmp_path, group, m):
    path = tmp_path / f"{group}_{m}.json"
    assert main(["realize", "--group", group, "--m", str(m), "--out", str(path)]) == 0
    return path, json.loads(path.read_text())


def _verify(capsys, path, data):
    path.write_text(json.dumps(data))
    capsys.readouterr()
    code = main(["verify", "--in", str(path)])
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("group,m", [("A4", 13), ("S4", 4), ("S4", 24), ("A5", 60),
                                     ("A4", 1213)])
def test_doubled_coordinates_fail_at_invariance(capsys, tmp_path, group, m):
    path, data = _certificate(tmp_path, group, m)
    for v in data["vertices"]:
        v["coords"] = [2 * x for x in v["coords"]]
    code, out, err = _verify(capsys, path, data)
    assert code == 5 and "invariance: FAILED (vertices lie off the unit sphere" in out
    assert err == "verification failed at: invariance\n"


def test_generators_that_do_not_generate_fail_at_group_closure(capsys, tmp_path):
    """The second generator is replaced by an element of a proper subgroup
    that contains the first one, with its true vertex images."""
    path, data = _certificate(tmp_path, "S4", 28)
    images, mats, _ = expand_certificate(data)
    g = standard_group("S4")
    a = data["generators"][0]["perm"]
    row_a = int(g.rows([a])[0])
    c = next(p for p in g.elements.tolist()[1:]
             if p != a and len(generated(g, (row_a, int(g.rows([p])[0])))) < g.order)
    data["generators"][1] = {"perm": c, "vertex_images": images[tuple(c)].tolist(),
                             "matrix": mats[tuple(c)].ravel().tolist()}
    code, out, err = _verify(capsys, path, data)
    assert code == 5
    assert out.startswith("group-closure: FAILED (the generator records must be the group's ")
    assert err == "verification failed at: group-closure\n"


def test_a_forged_generator_pair_fails_at_group_closure(capsys):
    """golden/forged_pair_a4_m13.json is A4 m=13 at seed 0 with its
    generator records replaced by rows 1 and 5 of A4, each with its
    genuine matrix.  Row 1 keeps its genuine images; row 5's follow the
    6-cycle 2→6→10→8→3→7→2 where the genuine row sends those vertices to
    3, 7, 2, 6, 10, 8.  Both maps square to the same permutation.  The
    table derived from these records breaks act(x·y) = act(x)·act(y) on
    84 of the 144 pairs (x, y).  Every step after group-closure passes on
    that table, since those steps read the group's own generator rows, 1
    and 3, so only the pair itself gives the file away."""
    path = GOLDEN / "forged_pair_a4_m13.json"
    data = json.loads(path.read_text())
    g = standard_group("A4")
    assert [rec["perm"] for rec in data["generators"]] == g.elements[[1, 5]].tolist()
    imgs = tree_table(g, (1, 5), [rec["vertex_images"] for rec in data["generators"]])
    composed = imgs[np.arange(g.order)[:, None, None], imgs[None]]  # [x, y]: act(x) after act(y)
    assert np.count_nonzero((imgs[g.cayley] != composed).any(axis=2)) == 84
    code = main(["verify", "--in", str(path)])
    out, err = capsys.readouterr()
    assert code == 5 and out == ("group-closure: FAILED (the generator records must be the "
                                 "group's generators [0, 2, 3, 1] and [1, 0, 3, 2], in either order)\n")
    assert err == "verification failed at: group-closure\n"


@pytest.mark.parametrize("group,m,others", [("A4", 13, 47), ("S4", 20, 107), ("A5", 61, 1139)])
def test_only_the_groups_own_generator_pair_verifies(realized, group, m, others):
    """Every generating pair of rows other than PermGroup.generators, each
    record with its genuine images and matrix, fails at group-closure;
    the group's own pair verifies in either record order, with the same
    messages."""
    r = realized[(group, m)][1]
    data = certificate_dict(r, full_report(r))
    g, images = r.group, action_table(r.vertex_action.action)

    def with_pair(rows):
        records = [{"perm": g.elements[s].tolist(), "vertex_images": images[s].tolist(),
                    "matrix": r.mats[s].ravel().tolist()} for s in rows]
        return {**data, "generators": records}

    pairs = [(a, b) for a in range(1, g.order) for b in range(a + 1, g.order)
             if len(generated(g, (a, b))) == g.order and (a, b) != g.generators]
    assert len(pairs) == others
    for a, b in pairs:
        assert [(c.name, c.ok) for c in verify_certificate(with_pair((a, b)))] \
            == [("group-closure", False)], (a, b)
    own = [verify_certificate(with_pair(rows)) for rows in (g.generators, g.generators[::-1])]
    assert own[0] == own[1] and first_failure(own[0]) is None


def test_an_inconsistent_edge_fails_at_action_homomorphism(capsys, tmp_path):
    """The second generator, of order 3, gets the vertex images of an
    element of order 5 that still generates A5 with the first one.  No
    homomorphism does that, so some edge of the orbit table's walk
    breaks.  The orbits are those of the same permutation group, so the
    fault is reported as a broken homomorphism, not as a wrong vertex
    record.  (test_perm checks the direct check_homomorphism call on a
    corrupt generator row.)"""
    path, data = _certificate(tmp_path, "A5", 80)
    images = expand_certificate(data)[0]
    g = standard_group("A5")
    a, b = (int(g.rows([gen["perm"]])[0]) for gen in data["generators"])
    assert g.orders[b] == 3
    c = next(r for r in range(g.order)
             if g.orders[r] == 5 and len(generated(g, (a, r))) == g.order)
    data["generators"][1]["vertex_images"] = images[tuple(g.elements[c].tolist())].tolist()
    code, out, err = _verify(capsys, path, data)
    assert code == 5 and "group-closure: ok" in out
    assert "action-homomorphism: FAILED (act(" in out
    assert err == "verification failed at: action-homomorphism\n"


@pytest.mark.parametrize("fault,shown", [
    (IndexError("index 7 is out of bounds for axis 0 with size 5"),
     "internal error (IndexError): index 7 is out of bounds for axis 0 with size 5"),
    (AssertionError("orbit count 3 != stored 2"), "orbit count 3 != stored 2"),
])
def test_a_verifier_fault_is_not_reported_as_a_rejection(capsys, tmp_path, monkeypatch,
                                                         fault, shown):
    """A step that raises anything but AssertionError, ValueError,
    InconsistentActionError or PrecisionError is a fault of the verifier:
    its result reads `internal error (<type>): ...`, apart from every
    rejection, yet verify still fails the step, exits 5 and prints no
    traceback.  A rejection keeps its bare message."""
    def faulty(data, real):
        raise fault

    steps = tuple((name, faulty if name == "burnside" else check)
                  for name, check in certificate.VERIFY_STEPS)
    monkeypatch.setattr(certificate, "VERIFY_STEPS", steps)
    path, data = _certificate(tmp_path, "A4", 13)
    code, out, err = _verify(capsys, path, data)
    assert code == 5 and "profile: ok\n" in out
    assert f"burnside: FAILED ({shown})\n" in out
    assert err == "verification failed at: burnside\n"


def test_representative_off_its_stabilizer_circle_fails_at_invariance(capsys, tmp_path):
    """A5 m=20 is one simplex_edge orbit: its representative is fixed by
    a 3-cycle and lies on that element's circle.  Moved off the circle but
    kept on the sphere, the stabilizer moves it."""
    path, data = _certificate(tmp_path, "A5", 20)
    (rep,) = data["vertices"]
    images = expand_certificate(data)[0]
    stabilizer = [p for p, img in images.items() if img[rep["id"]] == rep["id"]]
    assert len(stabilizer) == 3 and data["vertices"][0]["part"] == "simplex_edge"
    fixer = next(p for p in stabilizer if list(p) != sorted(p))
    plane = projectors(fixed_set(expand_certificate(data)[1][fixer]))
    p = np.array(rep["coords"])
    assert plane_distance(plane, p) <= 1e-9
    off = np.array([0.3, -0.2, 0.5, 0.1])
    off -= plane @ off
    moved = p + 1e-3 * off / np.linalg.norm(off)
    rep["coords"] = (moved / np.linalg.norm(moved)).tolist()
    code, out, err = _verify(capsys, path, data)
    assert code == 5 and "invariance: FAILED (element " in out and "moves vertices" in out
    assert err == "verification failed at: invariance\n"


def test_a_generator_matrix_that_breaks_a_relation_fails_at_homomorphism(capsys, tmp_path):
    """The first generator's matrix is turned by a further rotation: still
    special orthogonal, but the matrices derived from it no longer respect
    the relations of the group."""
    path, data = _certificate(tmp_path, "A5", 20)
    turn = np.eye(4)
    turn[:2, :2] = [[np.cos(0.1), -np.sin(0.1)], [np.sin(0.1), np.cos(0.1)]]
    gen = data["generators"][0]
    gen["matrix"] = (turn @ np.array(gen["matrix"]).reshape(4, 4)).ravel().tolist()
    code, out, err = _verify(capsys, path, data)
    assert code == 5 and "action-homomorphism: ok" in out
    assert "homomorphism: FAILED (matrix homomorphism error" in out
    assert err == "verification failed at: homomorphism\n"


def _nudge_matrix_entry(data):
    data["generators"][0]["matrix"][5] += 1e-10


def _nudge_record_coordinate(data):
    coords = data["vertices"][0]["coords"]
    coords[int(np.abs(coords).argmax())] += 1e-10


def _nudge_arc_start(data):
    data["arcs"][0]["start"] += 1e-10


@pytest.mark.parametrize("nudge,step,reason", [
    (_nudge_matrix_entry, "homomorphism", "matrices not orthogonal"),
    (_nudge_record_coordinate, "invariance", "vertices lie off the unit sphere"),
    (_nudge_arc_start, "edge-hypotheses", "arc of pair (0, 2) does not run between its two vertices"),
], ids=["matrix", "record", "arc-start"])
def test_an_error_of_1e_10_fails_its_check(capsys, tmp_path, nudge, step, reason):
    """1e-10 is a hundred times ERROR_TOL and far below every decision
    threshold: one S4 m=20 field nudged by it breaks an identity that
    holds exactly, and the check of that identity fails."""
    path, data = _certificate(tmp_path, "S4", 20)
    nudge(data)
    code, out, err = _verify(capsys, path, data)
    assert code == 5 and f"{step}: FAILED (" in out and reason in out
    assert err == f"verification failed at: {step}\n"


@pytest.mark.parametrize("group,m,perm", [
    ("A4", 24, [1, 0, 2, 3]),     # A4 in S4: an odd permutation
    ("A4", 61, [1, 2, 3, 4, 0]),  # A4 in A5: an even one that moves letter 4
], ids=["odd-in-A4", "moves-4-in-A4"])
def test_a_generator_outside_the_header_group_fails_at_group_closure(capsys, tmp_path,
                                                                     group, m, perm):
    path, data = _certificate(tmp_path, group, m)
    data["generators"][1]["perm"] = perm
    code, out, err = _verify(capsys, path, data)
    assert code == 5
    assert out.startswith("group-closure: FAILED (the generator records must be the group's ")
    assert err == "verification failed at: group-closure\n"


def test_a_record_off_the_orbit_minimum_fails_at_group_closure(capsys, tmp_path):
    path, data = _certificate(tmp_path, "S4", 28)
    data["vertices"][0]["id"] = 1
    code, out, _ = _verify(capsys, path, data)
    assert code == 5
    assert out.startswith("group-closure: FAILED (vertex record 1 is not the smallest vertex")


def _verify_old_version(version: int):
    """`python -m tsglab.cli verify` on tests/golden/v<version>_a4_m13.json,
    which the version <version> writer wrote."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    old = GOLDEN / f"v{version}_a4_m13.json"
    assert json.loads(old.read_text())["schema_version"] == version
    return subprocess.run([sys.executable, "-m", "tsglab.cli", "verify", "--in", str(old)],
                          capture_output=True, text=True, env=env, timeout=120)


def test_version_1_file_is_a_schema_error():
    """The version 1 file has every image row and every coordinate; the
    verifier names its version and exits 2."""
    proc = _verify_old_version(1)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("error: schema version 1 is not supported; "
                           "this verifier reads version 3\n")


def test_version_2_file_is_a_schema_error():
    """The version 2 file stores every element's perm and matrix; the
    verifier names its version and exits 2."""
    proc = _verify_old_version(2)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("error: schema version 2 is not supported; "
                           "this verifier reads version 3\n")


@pytest.mark.parametrize("group,m", [("S4", 28), ("A4", 61)])
def test_orbit_minima_computed_once_per_realize_write_and_per_verify(monkeypatch, tmp_path, group, m):
    """build, realize (separation) and write share the orbit table of one
    action, and verify's group-closure and separation share that of the
    rebuilt one: the orbit minima are computed once for each action, and
    for the parent too when the plan is a restriction (A4 m=61 from A5),
    since the restricted generator rows are read off the parent's table."""
    calls, original = [], perm._orbit_minima

    def counted(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(perm, "_orbit_minima", counted)
    p = plan(group, m)
    va = build(p)
    r = realize(p, va)
    path = str(tmp_path / "cert.json")
    write_certificate(path, r, full_report(r))
    built = [va.action] if va.parent is None else [va.parent, va.action]
    assert calls == built
    assert first_failure(verify_certificate(read_certificate(path))) is None
    assert len(calls) == len(built) + 1


# Construction steps a verify run must never enter: it trusts none of them.
CONSTRUCTION = {("actions", "plan"), ("actions", "build"), ("geometry", "realize"),
                ("geometry", "representation"), ("geometry", "_part_base_point"),
                ("geometry", "free_orbit_coords"), ("edges", "assign_arcs"),
                ("geometry", "circles_of")}


def _function_lines(path: Path) -> dict:
    """Lines of every function in a source file, from its first decorator
    to its last line, keyed by the line a code object starts at."""
    spans = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            spans[first] = node.end_lineno - first + 1
    return spans


# Run in a fresh interpreter, so the group caches start empty as in a new
# `tsglab verify` process: verify each path under a profiler and print the
# exit codes and the src/ code objects entered, after the imports.
_PROFILED_VERIFY = """
import json, sys
from pathlib import Path
from tsglab import cli
src, entered = Path(cli.__file__).parent, set()

def record(frame, event, arg):
    code = frame.f_code
    if event == "call" and Path(code.co_filename).parent == src:
        entered.add((Path(code.co_filename).stem, code.co_name, code.co_firstlineno))

sys.setprofile(record)
codes = [cli.main(["verify", "--in", path]) for path in sys.argv[1:]]
sys.setprofile(None)
print(json.dumps([codes, sorted(entered)]))
"""


def test_verify_trusts_no_construction_step(realized, tmp_path):
    """`tsglab verify` on each reference-grid file (the 14 reference cases
    plus the restricted A4 m=24 and m=61), in a fresh process, enters src/
    functions only off the construction path, the arc bases read off the
    fixed planes (circles_of) included: the verdict rests on the verify
    modules alone.  The named functions it enters (no <lambda> or
    comprehension), group construction included, their lines and the
    lines of src/ are the counts README's "What verify trusts" states."""
    src = Path(perm.__file__).parent
    paths = []
    for group, m in [*REFERENCES, ("A4", 24), ("A4", 61)]:
        if (group, m) in realized:
            r = realized[(group, m)][1]
        else:
            p = plan(group, m)
            r = realize(p, build(p))
        paths.append(str(tmp_path / f"{group}_{m}.json"))
        write_certificate(paths[-1], r, full_report(r))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _PROFILED_VERIFY, *paths],
                          capture_output=True, text=True, env=env, timeout=120, check=True)
    codes, entered = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * 16
    names = {(module, name) for module, name, _ in entered}
    assert ("certificate", "verify_certificate") in names
    assert {("perm", "__init__"), ("perm", "_closure"), ("perm", "generators")} <= names
    assert ("geometry", "fixed_planes") in names  # the planes, with no fixed-set SVD
    assert not names & CONSTRUCTION, sorted(names & CONSTRUCTION)

    named = [(module, first) for module, name, first in entered if not name.startswith("<")]
    spans = {module: _function_lines(src / f"{module}.py") for module, _ in named}
    lines = sum(spans[module][first] for module, first in named)
    total = sum((src / f).read_bytes().count(b"\n") for f in os.listdir(src) if f.endswith(".py"))
    readme = " ".join((src.parent.parent / "README.md").read_text().split())
    claim = (f"{len(named)} named functions, {lines} lines of function bodies with their "
             f"docstrings and decorators, of the {total} lines in `src/`")
    assert claim in readme, claim


def _arrays(value, depth=3):
    """Every array in a value: itself, inside a tuple or list, or an
    attribute of a tsglab object (cached tables included), a few levels
    down."""
    if isinstance(value, np.ndarray):
        yield value
    elif depth and isinstance(value, (tuple, list)):
        for x in value:
            yield from _arrays(x, depth - 1)
    elif depth and type(value).__module__.startswith("tsglab") and hasattr(value, "__dict__"):
        yield from _arrays(list(vars(value).values()), depth - 1)


def test_verify_builds_no_table_of_every_image():
    """verify of A5 m=1205 never holds an array with |G| rows and m
    columns: the return value and the locals of every src/ function, and
    the attributes of the objects among them, are read as each function
    returns.  The rebuilt action has no `images` table; its generator rows
    are its only images."""
    p = plan("A5", 1205)
    r = realize(p, build(p))
    data = json.loads(json.dumps(certificate_dict(r, full_report(r))))
    src, shapes, actions = str(Path(perm.__file__).parent), set(), []

    def watch(frame, event, arg):
        if event == "return" and frame.f_code.co_filename.startswith(src):
            values = [arg, *frame.f_locals.values()]
            actions.extend(v for v in values if isinstance(v, perm.GroupAction))
            shapes.update(x.shape[:2] for x in _arrays(values) if x.ndim >= 2)

    sys.setprofile(watch)
    try:
        results = verify_certificate(data)
    finally:
        sys.setprofile(None)
    assert first_failure(results) is None
    assert {(60, 4), (60, 21)} <= shapes, sorted(shapes)  # the matrices and the orbit block
    assert (60, 1205) not in shapes and (1205, 60) not in shapes
    assert actions and not any(hasattr(a, "images") for a in actions)
