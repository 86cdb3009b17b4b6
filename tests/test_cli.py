import copy
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tsglab import cli, edges, geometry
from tsglab.actions import Model, build, plan
from tsglab.certificate import read_certificate, verify_certificate, write_certificate
from tsglab.cli import main
from tsglab.edges import full_report
from tsglab.geometry import PrecisionError
from tsglab.perm import PermGroup, standard_group

from .conftest import close_free_orbits, relabel_vertices, svd_circles

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------- classify


def test_classify_s4_16_inadmissible(capsys):
    code, out, _ = run(capsys, "classify", "--group", "S4", "--m", "16")
    assert code == 3
    assert "INADMISSIBLE" in out
    assert "m_ne_16_mod_24" in out and "16" in out


def test_classify_a4_5_knotted_note(capsys):
    code, out, _ = run(capsys, "classify", "--group", "A4", "--m", "5")
    assert code == 0
    assert "ADMISSIBLE" in out and "knotted" in out


def test_classify_a5_60_zero_profile(capsys):
    code, out, _ = run(capsys, "classify", "--group", "A5", "--m", "60")
    assert code == 0
    assert "n2=0 n3=0 n5=0" in out


def test_classify_negative_cases(capsys):
    for group, m, rule in (("A4", 7, "residues_mod_12"), ("A4", 11, "residues_mod_12"),
                           ("A5", 25, "residues_mod_60"), ("S4", 7, "m_mod_4"),
                           ("S4", 21, "m_mod_4")):
        code, out, _ = run(capsys, "classify", "--group", group, "--m", str(m))
        assert code == 3
        assert rule in out


def test_classify_usage_errors(capsys):
    code, _, err = run(capsys, "classify", "--group", "A4", "--m", "3")
    assert code == 2 and "m >= 4" in err
    code, _, _ = run(capsys, "classify", "--group", "Z9", "--m", "12")
    assert code == 2
    code, _, err = run(capsys, "realize", "--group", "S4", "--m", "3", "--out", "unused.json")
    assert code == 2 and "m >= 4" in err


# ------------------------------------------------------------------- table


@pytest.mark.parametrize("group", ["A4", "A5", "S4"])
def test_tables_match_golden_files(capsys, group):
    code, out, _ = run(capsys, "table", "--group", group)
    assert code == 0
    assert out == (GOLDEN / f"table_{group.lower()}.csv").read_text()


def test_a4_table_rows(capsys):
    _, out, _ = run(capsys, "table", "--group", "A4")
    rows = out.strip().splitlines()
    assert len(rows) == 6  # header + 5 data rows
    assert rows[1] == "0,0 or 3,0"
    assert rows[-1] == "1,2,5"


def test_a5_table_four_rows(capsys):
    _, out, _ = run(capsys, "table", "--group", "A5")
    assert len(out.strip().splitlines()) == 5  # header + 4


def test_s4_chain_lists_n4_rule(capsys):
    _, out, _ = run(capsys, "table", "--group", "S4")
    assert "n4_zero" in out and "m != 16 (mod 24)" in out


# ------------------------------------------------------ realize and verify


def test_realize_verify_roundtrip(capsys, tmp_path):
    out_file = str(tmp_path / "s4_28.json")
    code, out, _ = run(capsys, "realize", "--group", "S4", "--m", "28",
                       "--out", out_file, "--seed", "5")
    assert code == 0 and "arcs=6" in out
    code, out, _ = run(capsys, "verify", "--in", out_file)
    assert code == 0
    assert "certificate valid" in out


def test_realize_knotted_exit_4(capsys, tmp_path):
    code, _, err = run(capsys, "realize", "--group", "A4", "--m", "5",
                       "--out", str(tmp_path / "x.json"))
    assert code == 4 and "knotted" in err


@pytest.mark.parametrize("m", [4, 5])
def test_verify_rejects_knotted_cases(capsys, tmp_path, m):
    """K_4 and K_5 with A4 get no certificate; a hand-built file (natural
    action on the tetrahedron corners, plus the pole for m = 5) that passes
    every check is still refused as a schema error."""
    p = plan("A4", m)
    base = np.array([geometry.tetra_corner(0)] * 4 + [geometry.POLE] * (m - 4))  # read at 0 and 4
    mats = geometry.representation(standard_group("A4"), Model.TETRA_ROT)
    r = geometry.Realization(build(p), Model.TETRA_ROT, geometry.ModelConfig(), mats, base)
    out_file = tmp_path / "knotted.json"
    write_certificate(str(out_file), r, full_report(r))
    code, out, err = run(capsys, "verify", "--in", str(out_file))
    assert code == 2 and out == ""
    assert err == f"error: K_{m} with group A4 needs knotted edges; no certificate describes it\n"


def test_realize_inadmissible_exit_3(capsys, tmp_path):
    code, _, err = run(capsys, "realize", "--group", "S4", "--m", "16",
                       "--out", str(tmp_path / "x.json"))
    assert code == 3


def test_realize_custom_t_passes_verify(capsys, tmp_path):
    out_file = str(tmp_path / "a5_20.json")
    code, _, _ = run(capsys, "realize", "--group", "A5", "--m", "20",
                     "--t", "0.25", "--out", out_file)
    assert code == 0
    code, _, _ = run(capsys, "verify", "--in", out_file)
    assert code == 0


def test_realize_deterministic_bytes(capsys, tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    run(capsys, "realize", "--group", "A4", "--m", "13", "--out", a, "--seed", "9")
    run(capsys, "realize", "--group", "A4", "--m", "13", "--out", b, "--seed", "9")
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_verify_detects_moved_coordinate(capsys, tmp_path):
    out_file = str(tmp_path / "c.json")
    run(capsys, "realize", "--group", "S4", "--m", "24", "--out", out_file, "--seed", "1")
    data = json.loads(Path(out_file).read_text())
    data["vertices"][0]["coords"][1] += 1e-3
    Path(out_file).write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--in", out_file)
    assert code == 5
    assert "invariance" in (out + err)


def test_verify_detects_swapped_permutation(capsys, tmp_path):
    out_file = str(tmp_path / "d.json")
    run(capsys, "realize", "--group", "S4", "--m", "24", "--out", out_file, "--seed", "1")
    data = json.loads(Path(out_file).read_text())
    a, b = data["generators"]
    a["vertex_images"], b["vertex_images"] = b["vertex_images"], a["vertex_images"]
    Path(out_file).write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--in", out_file)
    assert code == 5
    assert "homomorphism" in (out + err)


def test_verify_checks_part_labels_against_their_parts(capsys, tmp_path):
    """A4 m=13 is one free orbit and the center: with their labels
    swapped, 'center' spans 12 vertices, so group-closure refuses it."""
    out_file = str(tmp_path / "labels.json")
    run(capsys, "realize", "--group", "A4", "--m", "13", "--out", out_file)
    data = json.loads(Path(out_file).read_text())
    swap = {"free0": "center", "center": "free0"}
    assert sorted(v["part"] for v in data["vertices"]) == sorted(swap)
    for v in data["vertices"]:
        v["part"] = swap[v["part"]]
    Path(out_file).write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--in", out_file)
    assert code == 5
    assert "group-closure: FAILED (part 'center' spans 12 vertices instead of 1)" in out
    assert err == "verification failed at: group-closure\n"


def test_verify_detects_broken_closure(capsys, tmp_path):
    out_file = str(tmp_path / "e.json")
    run(capsys, "realize", "--group", "S4", "--m", "24", "--out", out_file, "--seed", "1")
    data = json.loads(Path(out_file).read_text())
    data["generators"][1]["perm"] = data["generators"][0]["perm"]
    Path(out_file).write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--in", out_file)
    assert code == 5
    assert "group-closure" in (out + err)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_verify_rejects_non_finite_coordinate(capsys, tmp_path, bad):
    out_file = str(tmp_path / "f.json")
    run(capsys, "realize", "--group", "S4", "--m", "24", "--out", out_file, "--seed", "1")
    data = json.loads(Path(out_file).read_text())
    data["vertices"][0]["coords"][1] = bad
    Path(out_file).write_text(json.dumps(data))
    # outside pytest a numpy warning would print on stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "verify", "--in", out_file)
    assert code == 5
    assert "invariance: FAILED" in out and err == "verification failed at: invariance\n"
    assert not caught


def _mutate_m(data):
    data["m"] = 25


def _shrink_m(data):
    data["m"] = 23


def _drop_vertex(data):
    del data["vertices"][-1]


def _renumber_vertex(data):
    data["vertices"][-1]["id"] = 24


def _short_vertex_images(data):
    data["generators"][1]["vertex_images"].pop()


@pytest.mark.parametrize("mutate", [_mutate_m, _shrink_m, _drop_vertex, _renumber_vertex,
                                    _short_vertex_images])
def test_verify_rejects_inconsistent_vertex_count(capsys, tmp_path, mutate):
    out_file = str(tmp_path / "g.json")
    run(capsys, "realize", "--group", "S4", "--m", "24", "--out", out_file, "--seed", "1")
    data = json.loads(Path(out_file).read_text())
    mutate(data)
    Path(out_file).write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--in", out_file)
    assert code == 2 and err.startswith("error: ") and out == ""


def _set(path, value, shown=None):
    def mutate(data):
        *parents, last = path
        for key in parents:
            data = data[key]
        data[last] = value
    mutate.__name__ = "_".join(map(str, path)) + f"={shown or repr(value)}"
    return mutate


def _short_generator_matrix(data):
    data["generators"][1]["matrix"].pop()


def _perm_too_large(data):
    data["generators"][1]["perm"][0] = 2 ** 70


# a value beyond int64 (integer fields) or float64 (number fields), and the
# field the schema error names
_OUT_OF_RANGE = {
    _set(("arcs", 0, "pair", 0), 10 ** 30, "10**30"): "pair",
    _set(("arcs", 0, "sweep"), 10 ** 400, "10**400"): "sweep",
    _set(("generators", 0, "vertex_images", 0), 10 ** 30, "10**30"): "vertex_images",
    _set(("vertices", 0, "coords", 0), 10 ** 400, "10**400"): "coords",
    _set(("generators", 0, "matrix", 0), 10 ** 400, "10**400"): "matrix",
    _perm_too_large: "perm",
}


def _drop_report_h2(data):
    del data["report"]["h2"]


@pytest.mark.parametrize("mutate", [
    _set(("generators", 0, "matrix"), 5),
    _set(("vertices",), 5),
    _set(("elements",), 5),  # version 2's section is an unknown key
    _set(("model",), 5),
    _set(("arcs",), {}),
    _set(("report",), []),
    _set(("vertices", 0), 5),
    _set(("vertices", 0, "coords", 1), "x"),
    _set(("vertices", 0, "part"), 3),
    _set(("generators", 1, "perm", 0), True),
    _set(("generators", 1, "perm", 0), 1.5),
    _set(("generators", 1, "vertex_images", 0), 1.0),
    _set(("generators", 1, "vertex_images", 0), True),
    _set(("generators",), {}),
    _set(("generators", 0), [1, 2]),
    _set(("generators", 0, "perm"), "x"),
    _set(("generators", 0, "vertex_images"), None),
    _set(("report", "orbit_count"), 3),
    _set(("m",), 0),
    _set(("schema_version",), 1),
    _set(("generators", 1, "matrix", 3), None),
    _set(("arcs", 0, "start"), "x"),
    _set(("arcs", 0, "sweep"), [1.0]),
    _set(("arcs", 0, "fixer"), "x"),
    _set(("arcs", 0, "basis"), [[0.0, 0.0, 0.0, 1.0]]),
    _set(("arcs", 0, "pair"), [24, 25, 24]),
    _set(("arcs", 0, "pair"), []),
    _set(("model", "seed"), "x"),
    _set(("model", "seed"), None),
    _set(("model", "theta"), "x"),
    _set(("model", "t"), None),
    _set(("model", "tag"), "bogus"),
    _set(("group",), "Z9"),
    _set(("restriction",), 5),
    _short_generator_matrix,
    _set(("model", "tag"), "simplex4"),
    _set(("restriction",), "a4_in_a5"),
    _set(("vertices", 0, "part"), "bogus"),
    _set(("report", "h1"), "x"),
    _set(("report", "h3"), 7),
    _set(("report", "h5"), 1.5),
    _set(("report", "orbit_count"), True),
    _set(("report", "profile", "n4"), False),
    _set(("report", "profile"), []),
    _set(("report", "extra"), 1),
    _drop_report_h2,
    _set(("schema_version",), True),
    _set(("model", "theta"), 0.0),
    _set(("model", "t"), 0.6),
    *_OUT_OF_RANGE,
], ids=lambda f: f.__name__)
def test_verify_rejects_mistyped_fields(capsys, tmp_path, mutate):
    out_file = str(tmp_path / "h.json")
    code, out, _ = run(capsys, "realize", "--group", "S4", "--m", "28", "--out", out_file,
                       "--seed", "1")
    assert code == 0 and "arcs=6" in out
    data = json.loads(Path(out_file).read_text())
    mutate(data)
    Path(out_file).write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--in", out_file)
    assert code == 2 and err.startswith("error: ") and out == ""
    if mutate in _OUT_OF_RANGE:
        assert f"field {_OUT_OF_RANGE[mutate]!r} has the wrong type" in err


def _duplicate_arc(data):
    data["arcs"].append(copy.deepcopy(data["arcs"][0]))


def _drop_arc(data):
    del data["arcs"][0]


def _sweep_past_full_turn(data):
    arc = data["arcs"][0]
    arc["sweep"] += math.copysign(2 * math.pi, arc["sweep"])


def _descending_pair(data):
    data["arcs"][0]["pair"].reverse()


def _basis_of_another_arc(data):
    data["arcs"][0]["basis"] = copy.deepcopy(data["arcs"][1]["basis"])


def _basis_scaled(data):
    data["arcs"][0]["basis"] = [[2 * x for x in row] for row in data["arcs"][0]["basis"]]


def _zero_basis(data):
    data["arcs"][0]["basis"] = [[0.0] * 4, [0.0] * 4]


def _complement_every_arc(data):
    """Replace each arc by the other arc of its circle between the same two
    vertices; the six arcs form one orbit, so the system stays equivariant
    and only the disjointness test can reject it."""
    for arc in data["arcs"]:
        arc["sweep"] -= math.copysign(2 * math.pi, arc["sweep"])


def _fixer_sharing_a_code(data):
    # same base-degree code as the stored fixer, but not a permutation
    fixer = data["arcs"][0]["fixer"]
    j = next(j for j, x in enumerate(fixer[:-1]) if x > 0)
    fixer[j] -= 1
    fixer[j + 1] += len(fixer)


def _s4_28(capsys, tmp_path):
    out_file = str(tmp_path / "i.json")
    code, out, _ = run(capsys, "realize", "--group", "S4", "--m", "28", "--out", out_file,
                       "--seed", "1")
    assert code == 0 and "arcs=6" in out
    return out_file, json.loads(Path(out_file).read_text())


_BAD_ARCS = [
    (_set(("arcs", 0, "fixer"), []), "not a non-trivial group element"),
    (_set(("arcs", 0, "fixer"), [0, 1, 2, 3]), "not a non-trivial group element"),
    (_set(("arcs", 0, "fixer"), [0, 0, 1, 2]), "not a non-trivial group element"),
    (_fixer_sharing_a_code, "not a non-trivial group element"),
    (_duplicate_arc, "two arc records"),
    (_drop_arc, "has no arc"),
    (_sweep_past_full_turn, "does not run between"),
    (_descending_pair, "is not a pinned pair"),
    (_set(("arcs", 0, "pair"), [-4, 25]), "is not a pinned pair"),
    (_basis_of_another_arc, "not on the fixed circle"),
    (_basis_scaled, "not on the fixed circle"),
    (_zero_basis, "not on the fixed circle"),
    (_set(("arcs", 0, "start"), float("nan")), "does not run between"),
    (_set(("arcs", 0, "start"), float("inf")), "does not run between"),
    (_complement_every_arc, "arcs of (24, 25) and (24, 26) cross at a circle intersection"),
]


@pytest.mark.parametrize("mutate,reason", _BAD_ARCS, ids=[f.__name__ for f, _ in _BAD_ARCS])
def test_verify_rejects_bad_arc_records(capsys, tmp_path, mutate, reason):
    out_file, data = _s4_28(capsys, tmp_path)
    mutate(data)
    Path(out_file).write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--in", out_file)
    assert code == 5 and "edge-hypotheses: FAILED" in out and reason in out
    assert err == "verification failed at: edge-hypotheses\n"


def _reverse_arcs(data):
    """Write every arc from its other endpoint."""
    for arc in data["arcs"]:
        arc["start"], arc["sweep"] = arc["start"] + arc["sweep"], -arc["sweep"]


def _rotate_bases(data, alpha=0.7):
    """Rotate every arc's basis within its plane by alpha, shifting start to match."""
    c, s = math.cos(alpha), math.sin(alpha)
    for arc in data["arcs"]:
        b0, b1 = np.array(arc["basis"])
        arc["basis"] = [(c * b0 + s * b1).tolist(), (c * b1 - s * b0).tolist()]
        arc["start"] -= alpha


@pytest.mark.parametrize("rewrite", [_reverse_arcs, _rotate_bases])
def test_verify_accepts_rewritten_arc_records(capsys, tmp_path, rewrite):
    """The stored arcs are a witness: any valid arc passes, whichever
    endpoint it starts from and whatever basis spans its circle."""
    out_file, data = _s4_28(capsys, tmp_path)
    rewrite(data)
    Path(out_file).write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--in", out_file)
    assert code == 0 and "certificate valid" in out, (out, err)


def test_verify_never_picks_arcs(capsys, tmp_path, monkeypatch, realized):
    """Verification checks the stored arcs and never re-runs arc picking."""
    for (group, m), (_, r) in realized.items():
        write_certificate(str(tmp_path / f"{group}_{m}.json"), r, full_report(r))

    def refuse(*args, **kwargs):
        raise AssertionError("verify called assign_arcs")

    monkeypatch.setattr(edges, "assign_arcs", refuse)
    for (group, m) in realized:
        code, out, err = run(capsys, "verify", "--in", str(tmp_path / f"{group}_{m}.json"))
        assert code == 0 and "certificate valid" in out, (group, m, err)


def test_verify_rejects_close_free_orbits(capsys, tmp_path):
    """Written as a certificate, two free orbits 1e-7 apart fail at separation."""
    r = close_free_orbits()
    out_file = tmp_path / "close.json"
    write_certificate(str(out_file), r, full_report(r))
    code, out, err = run(capsys, "verify", "--in", str(out_file))
    assert code == 5
    assert "invariance: ok" in out and "separation: FAILED" in out
    assert "verification failed at: separation" in err


def test_verify_checks_the_action_before_separation(capsys, tmp_path):
    """Separation measures from one vertex per orbit; verify may run it only
    after the action and the invariance checks."""
    out_file = str(tmp_path / "s4_28.json")
    run(capsys, "realize", "--group", "S4", "--m", "28", "--out", out_file)
    names = [res.name for res in verify_certificate(read_certificate(out_file))]
    assert names.index("action-homomorphism") < names.index("invariance") \
        < names.index("separation")


def test_verify_runs_every_step_in_order(capsys, tmp_path):
    out_file = str(tmp_path / "s4_28.json")
    run(capsys, "realize", "--group", "S4", "--m", "28", "--out", out_file)
    results = verify_certificate(read_certificate(out_file))
    assert [(res.name, res.ok, res.message) for res in results] == [
        (name, True, "") for name in (
            "group-closure", "action-homomorphism", "homomorphism", "invariance",
            "separation", "profile", "burnside", "edge-hypotheses")]


@pytest.mark.parametrize("m,reason", [("36", "separation"), ("12", "separation")])
def test_realize_crowded_vertices_exit_5(capsys, tmp_path, m, reason):
    # t = 1e-7 puts two edge points next to every corner: with a free orbit
    # or without one, the separation check refuses them
    out_file = tmp_path / "x.json"
    code, out, err = run(capsys, "realize", "--group", "S4", "--m", m, "--t", "1e-7",
                         "--out", str(out_file))
    assert code == 5 and err.startswith("error: ") and reason in err and out == ""
    assert not out_file.exists()


def test_close_special_parts_beside_a_free_orbit_verify(capsys, tmp_path):
    """theta = 1e-4 puts the twin tetrahedra 2e-4 apart, closer than free
    placement keeps its own points but far above MIN_VERTEX_SEP: S4 m=32,
    which has a free orbit, realizes and verifies."""
    out_file = str(tmp_path / "x.json")
    code, out, err = run(capsys, "realize", "--group", "S4", "--m", "32", "--theta", "1e-4",
                         "--out", out_file)
    assert code == 0 and err == ""
    code, out, err = run(capsys, "verify", "--in", out_file)
    assert code == 0 and err == ""


def test_realize_ambiguous_numerics_exit_5(capsys, tmp_path, monkeypatch):
    def ambiguous(*args, **kwargs):
        raise PrecisionError("singular values too close to zero to classify")

    monkeypatch.setattr(cli, "realize", ambiguous)
    code, out, err = run(capsys, "realize", "--group", "S4", "--m", "24",
                         "--out", str(tmp_path / "x.json"))
    assert code == 5 and err == "error: singular values too close to zero to classify\n"
    assert out == ""


def _perm_of_other_degree(data):
    data["generators"][1]["perm"].append(4)


def _perm_not_a_bijection(data):
    data["generators"][1]["perm"] = [0, 0, 1, 2]


def _perms_of_degree_16(data):
    for g in data["generators"]:
        g["perm"] += list(range(4, 16))


# no such list is an element of S4, so no pair of them is its generators
_BAD_PERMS = [
    (_perm_of_other_degree, "the generator records must be the group's generators"),
    (_perm_not_a_bijection, "the generator records must be the group's generators"),
    (_perms_of_degree_16, "the generator records must be the group's generators"),
]


@pytest.mark.parametrize("mutate,reason", _BAD_PERMS, ids=[f.__name__ for f, _ in _BAD_PERMS])
def test_verify_rejects_bad_element_perms_at_group_closure(capsys, tmp_path, mutate, reason):
    out_file, data = _s4_28(capsys, tmp_path)
    mutate(data)
    Path(out_file).write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--in", out_file)
    assert code == 5 and out.startswith("group-closure: FAILED") and reason in out
    assert err == "verification failed at: group-closure\n"


def test_verify_rejects_deeply_nested_json(capsys, tmp_path):
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 200000)
    code, out, err = run(capsys, "verify", "--in", str(bad))
    assert code == 2 and out == "" and err.startswith("error: not valid JSON")


@pytest.mark.parametrize("seed,schema_error", [
    (-1, "model: seed must lie in 0 <= seed < 2**63, got -1"),
    (2 ** 63, "model field 'seed' has the wrong type, length or value"),
])
def test_out_of_range_seed_exits_2(capsys, tmp_path, seed, schema_error):
    """A seed outside 0 <= seed < 2**63 (ModelConfig's range) is a usage
    error for realize, which then writes nothing, and a schema error in a
    file; the largest seed in range realizes and verifies."""
    out_file = tmp_path / "c.json"
    code, out, err = run(capsys, "realize", "--group", "S4", "--m", "28",
                         "--out", str(out_file), "--seed", str(seed))
    assert code == 2 and out == "" and not out_file.exists()
    assert err == f"error: seed must lie in 0 <= seed < 2**63, got {seed}\n"
    code, _, _ = run(capsys, "realize", "--group", "S4", "--m", "28",
                     "--out", str(out_file), "--seed", str(2 ** 63 - 1))
    assert code == 0
    assert run(capsys, "verify", "--in", str(out_file))[0] == 0
    data = json.loads(out_file.read_text())
    data["model"]["seed"] = seed
    out_file.write_text(json.dumps(data))
    assert run(capsys, "verify", "--in", str(out_file)) == (2, "", f"error: {schema_error}\n")


def test_realize_into_missing_directory_exit_2(capsys, tmp_path):
    code, out, err = run(capsys, "realize", "--group", "S4", "--m", "24",
                         "--out", str(tmp_path / "missing" / "c.json"))
    assert code == 2 and err.startswith("error: ") and out == ""


def test_verify_rejects_schema_mismatch(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 99}))
    code, _, err = run(capsys, "verify", "--in", str(bad))
    assert code == 2
    code, _, err = run(capsys, "verify", "--in", str(tmp_path / "missing.json"))
    assert code == 2


# ------------------------------------------------------------------ oracle


def test_oracle_all_groups_match(capsys):
    code, out, _ = run(capsys, "oracle")
    assert code == 0
    assert out.count("match=yes") == 3


def test_oracle_drop_rule_detects_divergence(capsys):
    code, out, _ = run(capsys, "oracle", "--group", "A5", "--drop-rule", "n5ne2")
    assert code == 5
    assert "match=NO" in out


def test_oracle_after_a_drop_rule_run_uses_every_rule(capsys):
    """main reuses one parser: a dropped rule does not carry over to the
    next call in the process."""
    assert main(["oracle", "--group", "A5", "--drop-rule", "n5ne2"]) == 5
    capsys.readouterr()
    code, out, _ = run(capsys, "oracle")
    assert code == 0
    assert out == ("group=A4 oracle={0,1,4,5,8} engine={0,1,4,5,8} match=yes\n"
                   "group=S4 oracle={0,4,8,12,20} engine={0,4,8,12,20} match=yes\n"
                   "group=A5 oracle={0,1,5,20} engine={0,1,5,20} match=yes\n")
    assert cli.build_parser() is cli.build_parser()


def test_oracle_rejects_unknown_rule_id(capsys):
    code, out, err = run(capsys, "oracle", "--drop-rule", "bogus")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "'bogus'" in err
    assert "n5ne2" in err and "fix_le_3" in err  # lists the known ids


def test_oracle_aperiodic_search_exit_5(capsys, monkeypatch):
    import tsglab.oracle

    def aperiodic(group, bound, **kwargs):
        return bytearray(m == 7 for m in range(bound))

    monkeypatch.setattr(tsglab.oracle, "feasible_mask", aperiodic)
    code, out, err = run(capsys, "oracle", "--group", "A4")
    assert code == 5 and out == ""
    assert err == "error: feasibility not 12-periodic at m=7 for A4\n"


def test_oracle_max_m_prints_feasible_values(capsys):
    code, out, _ = run(capsys, "oracle", "--group", "A4", "--max-m", "30")
    assert code == 0
    assert "feasible m <= 30: [0, 1, 4, 5, 8, 12, 13, 16, 17, 20, 24, 25, 28, 29]" in out


ORACLE_GOLDEN = json.loads((GOLDEN / "oracle_cli.json").read_text())


@pytest.mark.parametrize("name", sorted(ORACLE_GOLDEN))
def test_oracle_max_m_output_matches_golden(capsys, name):
    """golden/oracle_cli.json names each command and its exit code, and
    the file named by its key holds the stdout, both as recorded before
    the residues and --max-m read the walk's mask instead of its buckets."""
    case = ORACLE_GOLDEN[name]
    code, out, _ = run(capsys, *case["argv"])
    assert code == case["exit"]
    assert out == (GOLDEN / name).read_text()


# --------------------------------------------------------------- round trip


def test_roundtrip_every_small_case(capsys, tmp_path):
    from tsglab.profiles import admissible_residues

    checked = 0
    for group, bound in (("A4", 72), ("S4", 84), ("A5", 120)):
        cs = admissible_residues(group)
        for m in range(4, bound + 1):
            if m not in cs or (group == "A4" and m in (4, 5)):
                continue
            out_file = str(tmp_path / f"{group}_{m}.json")
            code, _, err = run(capsys, "realize", "--group", group, "--m", str(m),
                               "--out", out_file, "--seed", "0")
            assert code == 0, (group, m, err)
            code, _, err = run(capsys, "verify", "--in", out_file)
            assert code == 0, (group, m, err)
            checked += 1
    assert checked >= 50


# ------------------------------------------------------------ mutation fuzzing


def _paths(node, path=()):
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, path + (key,))


def _at(data, path):
    for key in path:
        data = data[key]
    return data


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


_RETYPES = ("x", None, True, 7, 1.5, [], {})


@st.composite
def _mutation(draw, data):
    """A deep copy of data with one mutation, and whether that mutation moved
    a coordinate or matrix entry by at least 1e-6."""
    data = copy.deepcopy(data)
    paths = list(_paths(data))[1:]
    op = draw(st.sampled_from(("perturb", "swap", "truncate", "retype")))
    if op == "perturb":
        path = draw(st.sampled_from([p for p in paths if _is_number(_at(data, p))]))
        sign = draw(st.sampled_from((-1, 1)))
        old = _at(data, path)
        step = draw(st.integers(1, 5)) if isinstance(old, int) else draw(st.floats(1e-6, 1e3))
        _at(data, path[:-1])[path[-1]] = old + sign * step
        return data, "coords" in path or "matrix" in path
    if op in ("swap", "truncate"):
        shortest = 2 if op == "swap" else 1
        lists = [p for p in paths if isinstance(_at(data, p), list) and len(_at(data, p)) >= shortest]
        seq = _at(data, draw(st.sampled_from(lists)))
        if op == "swap":
            i, j = draw(st.lists(st.integers(0, len(seq) - 1), min_size=2, max_size=2, unique=True))
            seq[i], seq[j] = seq[j], seq[i]
        else:
            del seq[draw(st.integers(0, len(seq) - 1)):]
        return data, False
    path = draw(st.sampled_from(paths))
    old = _at(data, path)
    new = draw(st.sampled_from([v for v in _RETYPES if type(v) is not type(old)]))
    _at(data, path[:-1])[path[-1]] = new
    return data, False


@pytest.fixture(scope="module")
def s4_4_certificate(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "s4_4.json"
    assert main(["realize", "--group", "S4", "--m", "4", "--seed", "0", "--out", str(path)]) == 0
    return json.loads(path.read_text())


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_verify_survives_mutated_certificates(capsys, tmp_path, s4_4_certificate, data):
    mutated, moved_geometry = data.draw(_mutation(s4_4_certificate))
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(mutated))
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "verify", "--in", str(path))
    assert code in (0, 2, 5)
    assert not caught
    if code:
        assert len(err.splitlines()) == 1
        assert err.startswith(("error: ", "verification failed at: "))
    if moved_geometry:
        assert code != 0


# ------------------------------------------------------- metamorphic checks

_METAMORPHIC_CASES = [("A4", 13), ("A4", 24), ("A4", 61), ("S4", 4), ("S4", 28), ("S4", 36),
                      ("A5", 20), ("A5", 80)]


@pytest.fixture(scope="module")
def metamorphic_certificates(tmp_path_factory):
    out = {}
    directory = tmp_path_factory.mktemp("metamorphic")
    for group, m in _METAMORPHIC_CASES:
        path = directory / f"{group}_{m}.json"
        assert main(["realize", "--group", group, "--m", str(m), "--seed", "0",
                     "--out", str(path)]) == 0
        out[(group, m)] = json.loads(path.read_text())
    return out


def _conjugate(data, rng):
    """Move the whole picture by a random Q in SO(4): matrices M -> Q M Q^T,
    coordinates p -> Q p, arc basis rows b -> Q b."""
    q, r = np.linalg.qr(rng.standard_normal((4, 4)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    for g in data["generators"]:
        mat = q @ np.array(g["matrix"]).reshape(4, 4) @ q.T
        g["matrix"] = mat.ravel().tolist()
    for v in data["vertices"]:
        v["coords"] = (q @ np.array(v["coords"])).tolist()
    for arc in data["arcs"]:
        arc["basis"] = (np.array(arc["basis"]) @ q.T).tolist()


def _relabel(data, rng):
    """Rename vertex i to sigma(i) for a random permutation sigma, with arc
    angles left alone: an arc whose pair order flips is now written from
    its other endpoint."""
    data.update(relabel_vertices(data, rng.permutation(data["m"]), reverse_arcs=False))


@pytest.mark.parametrize("edit", [_conjugate, _relabel], ids=lambda f: f.__name__)
@pytest.mark.parametrize("case", _METAMORPHIC_CASES, ids=lambda c: f"{c[0]}_{c[1]}")
@settings(max_examples=3, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1))
def test_verify_accepts_moved_and_relabelled_certificates(capsys, tmp_path,
                                                          metamorphic_certificates,
                                                          case, edit, seed):
    data = copy.deepcopy(metamorphic_certificates[case])
    edit(data, np.random.default_rng(seed))
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--in", str(path))
    assert code == 0 and "certificate valid" in out, (case, edit.__name__, err)


def test_verify_reports_a_fixed_set_failure_at_profile(monkeypatch, metamorphic_certificates):
    """A rebuilt realization averages its fixed planes on first use, in the
    profile check, so a plane whose trace is ambiguous fails there with
    fixed_planes' PrecisionError: an averaging operator scaled by 1 + 1e-9
    moves every trace 2 by 2e-9, far beyond PLANE_ERROR, and names the
    first element that fixes a circle."""
    means = PermGroup.cyclic_means.func
    monkeypatch.setattr(PermGroup, "cyclic_means", property(lambda group: means(group) * (1 + 1e-9)))
    results = verify_certificate(copy.deepcopy(metamorphic_certificates[("S4", 28)]))
    group = standard_group("S4")
    rep = geometry.representation(group, Model.TETRA_FULL)
    first = svd_circles(rep).any(axis=(1, 2)).argmax()
    [(name, message)] = [(c.name, c.message) for c in results if not c.ok]
    assert name == "profile"
    assert message.startswith(f"fixed plane of element {tuple(group.elements[first].tolist())} "
                              "has trace 2.000000002")
    assert message.endswith("not within PLANE_ERROR of 0 or 2")


def _move_vertex(data):
    data["vertices"][0]["coords"][0] += 1e-3


@pytest.mark.parametrize("corrupt", [None, _move_vertex], ids=["valid", "moved-vertex"])
@pytest.mark.parametrize("case", _METAMORPHIC_CASES, ids=lambda c: f"{c[0]}_{c[1]}")
def test_verify_ignores_the_order_of_element_records(metamorphic_certificates, case, corrupt):
    """The element records of a file are its two generator records, the
    group's own pair.  The verifier takes them in the group's order, so
    with the two swapped it derives along the same spanning tree and every
    step passes or fails as before, with the same message."""
    data = copy.deepcopy(metamorphic_certificates[case])
    if corrupt:
        corrupt(data)
    swapped = copy.deepcopy(data)
    swapped["generators"].reverse()
    expect = [(c.name, c.ok, c.message) for c in verify_certificate(data)]
    assert [(c.name, c.ok, c.message) for c in verify_certificate(swapped)] == expect
    assert all(ok for _, ok, _ in expect) == (corrupt is None)
