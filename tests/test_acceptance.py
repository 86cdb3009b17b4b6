"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines and timings.
"""

import hashlib
import importlib.util
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from tsglab.actions import Model, VertexAction, build, has_free_edge, measured_profile, plan
from tsglab.certificate import (
    _rebuild,
    first_failure,
    read_certificate,
    verify_certificate,
    write_certificate,
)
from tsglab.cli import table_lines
from tsglab.edges import check_h4, full_report, interchangers
from tsglab.geometry import (
    ModelConfig,
    Realization,
    _max_hom_error,
    geometric_profile,
    plane_distance,
    projectors,
    realize,
)
from tsglab.oracle import feasible_multisets, oracle_residues
from tsglab.perm import (
    GROUP_ORDER,
    GroupAction,
    burnside_orbit_count,
    is_faithful,
    standard_group,
)
from tsglab.profiles import admissible_residues, m_rules, necessity_check

from .conftest import REFERENCES, action_table, expected_orbit_count, fixed_set, svd_circles

GROUPS = ("A4", "S4", "A5")
GOLDEN = Path(__file__).parent / "golden"


def _report(criterion: str, started: float, budget: float):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"{criterion} took {elapsed:.2f}s, budget {budget}s"
    print(f"\nACCEPTANCE {criterion}: PASS ({elapsed:.2f}s < {budget}s)")


def test_criterion_1_table_reproduction():
    t0 = time.monotonic()
    a4 = table_lines("A4")
    assert a4 == (GOLDEN / "table_a4.csv").read_text().splitlines()
    assert len(a4) == 6  # header + the 5 printed rows
    a5 = table_lines("A5")
    assert a5 == (GOLDEN / "table_a5.csv").read_text().splitlines()
    assert len(a5) == 5  # header + 4 rows
    assert table_lines("S4") == (GOLDEN / "table_s4.csv").read_text().splitlines()

    assert admissible_residues("A4").modulus == 12
    assert admissible_residues("A4").residues == frozenset({0, 1, 4, 5, 8})
    assert admissible_residues("A5").modulus == 60
    assert admissible_residues("A5").residues == frozenset({0, 1, 5, 20})
    assert admissible_residues("S4").modulus == 24
    assert admissible_residues("S4").residues == frozenset({0, 4, 8, 12, 20})
    _report("1 (table reproduction)", t0, 1.0)


def test_criterion_2_oracle_equivalence():
    t0 = time.monotonic()
    for group in GROUPS:
        derived = oracle_residues(group)  # exhaustive over m in [0, 3|G|)
        assert derived == admissible_residues(group), group
    # the S4 set arises from profile caps alone: the oracle never consults
    # the two m-congruence rules, and adding them changes nothing
    for m in range(0, 3 * GROUP_ORDER["S4"]):
        assert bool(feasible_multisets("S4", m)) == bool(
            all(r.check(m) for r in m_rules("S4")) and feasible_multisets("S4", m))
    _report("2 (oracle equivalence)", t0, 60.0)


# past the walk below: the large-orbits cases, with 20 to 101 free orbits
LARGE_M = {"A4": (1205, 1213), "S4": (1204,), "A5": (1205,)}


def test_criterion_3_construction_soundness(tmp_path):
    """Every admissible non-knotted m below 400, and the large cases, is
    built, realized, written, read back and verified, and the file
    rebuilds bit for bit to the action, matrices and coordinates realize
    checked."""
    t0 = time.monotonic()
    checked = 0
    path = str(tmp_path / "cert.json")
    for group in GROUPS:
        cs = admissible_residues(group)
        for m in (*range(4, 400), *LARGE_M[group]):
            if m not in cs:
                continue
            p = plan(group, m)
            if p.knotted:
                continue
            va = build(p)
            assert is_faithful(va.action), (group, m)
            prof = measured_profile(va)
            witnesses = {w.key() for w in necessity_check(group, m).witnesses}
            assert prof.key() in witnesses, (group, m, prof.key())
            assert burnside_orbit_count(va.action) == expected_orbit_count(p), (group, m)
            if p.restriction is not None:
                assert has_free_edge(va), (group, m)
                assert has_free_edge(va, in_parent=True), (group, m)
            r = realize(p, va)
            report = full_report(r)
            assert report.overall, (group, m, report.details)
            write_certificate(path, r, report)
            data = read_certificate(path)
            assert first_failure(verify_certificate(data)) is None, (group, m)
            back = _rebuild(data)
            assert np.array_equal(back.vertex_action.action.gen_images, va.action.gen_images), (group, m)
            assert np.array_equal(back.mats, r.mats), (group, m)
            assert np.array_equal(back.coords, r.coords), (group, m)
            checked += 1
    assert checked > 250
    _report(f"3 (construction soundness, {checked} cases)", t0, 30.0)


def test_criterion_4_geometric_fidelity(realized):
    t0 = time.monotonic()
    for (g, m), (va, r) in realized.items():
        group = r.group
        assert _max_hom_error(group, r.mats) <= 1e-8, (g, m)
        for img, mat in zip(action_table(va.action), r.mats):
            moved = r.coords @ mat.T
            target = r.coords[img]
            assert float(np.abs(moved - target).max()) <= 1e-9, (g, m)
        assert geometric_profile(r).key() == measured_profile(va).key(), (g, m)
        # rotation/glide dichotomy, with EMPTY exactly where the model demands
        empty_order = {Model.TETRA_FULL: 4, Model.SIMPLEX4: 5}.get(r.model)
        for i in range(1, group.order):  # row 0 is the identity
            fc = fixed_set(r.mats[i])
            expected_empty = group.orders[i] == empty_order
            assert (not fc.any()) == expected_empty, (g, m, i)
    _report("4 (geometric fidelity, 14 realizations)", t0, 10.0)


def test_criterion_5_edge_certificates(realized):
    t0 = time.monotonic()
    for (g, m), (va, r) in realized.items():
        report = full_report(r)
        assert report.overall, (g, m, report.details)

    # fixture 1: a vertex dragged onto the wrong fixed circle
    va, r = realized[("S4", 12)]
    s4 = standard_group("S4")
    base = r.base.copy()  # the edge orbit's representative moves, and its orbit with it
    circles = svd_circles(r.mats)
    other = next(i for i in s4.classes["n2p"]
                 if plane_distance(projectors(circles[i]), base[0]) > 1e-6)
    b0, b1 = circles[other]
    base[0] = math.cos(0.37) * b0 + math.sin(0.37) * b1
    corrupted = Realization(va, r.model, r.config, r.mats, base)
    assert not full_report(corrupted).overall

    # fixture 2: edge parameter forced to the midpoint is refused outright
    with pytest.raises(ValueError):
        ModelConfig(t=0.5)

    # fixture 3: an interchanger fixing three vertices breaks h4
    act = [p + [4, 5, 6] for p in s4.elements[list(s4.generators)].tolist()]
    synthetic = VertexAction(GroupAction(s4, act), ("nat",) * 4 + ("pin",) * 3, ())
    assert not check_h4(synthetic, interchangers(synthetic))
    _report("5 (edge certificates + 3 corrupted fixtures)", t0, 10.0)


def test_criterion_6_negative_classification():
    t0 = time.monotonic()
    v = necessity_check("S4", 16)
    assert not v.admissible
    assert v.violated_rule.id == "m_ne_16_mod_24"
    assert v.violated_rule.text == "m ≢ 16 (mod 24)"
    for m in (7, 11):
        v = necessity_check("A4", m)
        assert not v.admissible and v.violated_rule.id == "residues_mod_12"
    v = necessity_check("A5", 25)
    assert not v.admissible and v.violated_rule.id == "residues_mod_60"
    for group, m in (("S4", 7), ("S4", 21)):
        v = necessity_check(group, m)
        assert not v.admissible and v.violated_rule.id == "m_mod_4"
    _report("6 (negative classification)", t0, 1.0)


def _assert_digests(tmp_path, golden_file: str):
    """Every certificate named in a golden digest file keeps its recorded
    bytes.  Float formatting of the coordinates can move with numpy, so
    another numpy version skips."""
    golden = json.loads((GOLDEN / golden_file).read_text())
    if golden["numpy"] != np.__version__:
        pytest.skip(f"digests were recorded with numpy {golden['numpy']}, not {np.__version__}")
    for name, digest in golden["sha256"].items():
        group, m = name.split("_m")
        p = plan(group.upper(), int(m))
        va = build(p)
        r = realize(p, va, ModelConfig(seed=golden["seed"]))
        path = tmp_path / f"{name}.json"
        write_certificate(str(path), r, full_report(r))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, name


def test_reference_certificates_byte_identical(tmp_path):
    """The reference certificates keep the bytes recorded in
    golden/reference_digests.json (seed 0)."""
    _assert_digests(tmp_path, "reference_digests.json")


def test_restricted_certificates_byte_identical(tmp_path):
    """A4 m=24 (restricted from S4) and m=61 and 65 (restricted from A5)
    keep the bytes recorded in golden/restricted_digests.json (seed 0):
    the restricted branch of realize, which the reference cases do not
    reach."""
    golden = json.loads((GOLDEN / "restricted_digests.json").read_text())
    for name in golden["sha256"]:
        group, m = name.split("_m")
        assert plan(group.upper(), int(m)).restriction is not None, name
    _assert_digests(tmp_path, "restricted_digests.json")


def test_reference_script_writes_verified_certificates(tmp_path, monkeypatch, capsys):
    """scripts/build_reference_certificates.py realizes, writes and verifies
    the reference cases named in golden/reference_digests.json."""
    script = Path(__file__).parents[1] / "scripts" / "build_reference_certificates.py"
    spec = importlib.util.spec_from_file_location("build_reference_certificates", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    golden = json.loads((GOLDEN / "reference_digests.json").read_text())
    names = {f"{group.lower()}_m{m}" for group, m in module.REFERENCES}
    assert names == set(golden["sha256"])
    assert module.REFERENCES == REFERENCES
    monkeypatch.setattr(sys, "argv", [str(script), str(tmp_path)])
    assert module.main() == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == len(REFERENCES) and all(line.endswith("verified") for line in out)
    assert {path.stem for path in tmp_path.glob("*.json")} == names
