"""Self-contained realization files: write, read back, re-check everything.

A certificate stores the acting group's permutations, their 4x4 matrices,
the vertex coordinates with part labels, the witness arc system and the
hypothesis verdicts.  Verification reconstructs all objects from the file
alone and re-runs every invariant; nothing is trusted.  The stored arcs
are checked as a witness (edges.full_report on them): any arc system that
meets the edge hypotheses passes, not only the one realize picked.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .actions import PART_SIZES, PLAN_HEADERS, Model, VertexAction, measured_profile
from .edges import Arc, full_report
from .geometry import REALIZATION_CHECKS, FixedCircle, ModelConfig, Realization
from .perm import (
    GROUP_NAMES,
    GROUP_ORDER,
    GroupAction,
    PermGroup,
    burnside_orbit_count,
    check_homomorphism,
    is_faithful,
)

SCHEMA_VERSION = 1

_TOP_KEYS = {"schema_version", "group", "m", "model", "restriction",
             "elements", "vertices", "arcs", "report"}


class SchemaError(ValueError):
    """File shape does not match the certificate schema."""


def certificate_dict(r: Realization, report) -> dict:
    va = r.vertex_action
    act = va.action
    elements = []
    for e, mat, img in zip(act.group.elements, r.mats, act.images):
        elements.append({
            "perm": e.tolist(),
            "matrix": [float(x) for x in mat.ravel()],  # row-major
            "vertex_images": img.tolist(),
        })
    vertices = [
        {"id": i, "part": va.labels[i], "coords": [float(x) for x in r.coords[i]]}
        for i in range(r.m)
    ]
    arcs = []
    if report.arcs:
        for (u, v), arc in sorted(report.arcs.items()):
            arcs.append({
                "pair": [u, v],
                "fixer": act.group.elements[arc.fixer].tolist(),
                "basis": [[float(x) for x in row] for row in arc.circle.basis],
                "start": float(arc.start),
                "sweep": float(arc.sweep),
            })
    return {
        "schema_version": SCHEMA_VERSION,
        "group": act.group.name,
        "m": r.m,
        "model": {
            "tag": r.model.value,
            "theta": float(r.config.theta),
            "t": float(r.config.t),
            "seed": r.config.seed,
        },
        "restriction": r.plan.restriction if r.plan else None,
        "elements": elements,
        "vertices": vertices,
        "arcs": arcs,
        "report": {
            "h1": report.h1, "h2": report.h2, "h3": report.h3,
            "h4": report.h4, "h5": report.h5,
            "profile": measured_profile(va).named_counts(),
            "orbit_count": burnside_orbit_count(act),
        },
    }


def write_certificate(path: str, r: Realization, report) -> None:
    """Serialize atomically; identical inputs produce identical bytes."""
    payload = json.dumps(certificate_dict(r, report), sort_keys=True, indent=1)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(payload)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_certificate(path: str) -> dict:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as err:
            # RecursionError: arrays or objects nested too deep to parse
            raise SchemaError(f"not valid JSON: {err}") from err
    _check_schema(data)
    return data


# JSON gives int, float, bool, str, None, list or dict; exact type tests
# keep true and false out of the integers
def _is_int(x) -> bool:
    return type(x) is int


def _is_number(x) -> bool:
    return type(x) in (int, float)


def _ints(x) -> bool:
    return isinstance(x, list) and set(map(type, x)) <= {int}


def _numbers(n: int):
    return lambda x: isinstance(x, list) and len(x) == n and set(map(type, x)) <= {int, float}


def _is_part_label(x) -> bool:
    # free orbits are labelled free0, free1, ...; special parts by their kind
    return isinstance(x, str) and (x in PART_SIZES or re.fullmatch("free[0-9]+", x) is not None)


# container type of each section, and a type test for each field of its records
_SECTIONS = {"model": dict, "elements": list, "vertices": list, "arcs": list, "report": dict}
_MODEL_FIELDS = {"tag": lambda x: isinstance(x, str), "theta": _is_number, "t": _is_number,
                 "seed": _is_int}
_REPORT_FIELDS = {
    **dict.fromkeys(("h1", "h2", "h3", "h4", "h5"), lambda x: isinstance(x, bool)),
    "orbit_count": _is_int,
    "profile": lambda x: isinstance(x, dict) and all(map(_is_int, x.values())),
}
_RECORD_FIELDS = {
    "elements": {"perm": _ints, "matrix": _numbers(16), "vertex_images": _ints},
    "vertices": {"id": _is_int, "part": _is_part_label, "coords": _numbers(4)},
    "arcs": {"pair": _ints, "fixer": _ints, "start": _is_number, "sweep": _is_number,
             "basis": lambda x: isinstance(x, list) and len(x) == 2 and all(map(_numbers(4), x))},
}


def _check_record(section: str, rec, fields: dict) -> None:
    if not isinstance(rec, dict) or set(rec) != set(fields):
        raise SchemaError(f"{section} records need keys {sorted(fields)}")
    bad = [k for k, ok in fields.items() if not ok(rec[k])]
    if bad:
        raise SchemaError(f"{section} field {bad[0]!r} has the wrong type, length or value")


def _check_schema(data: dict) -> None:
    """Shapes, types and header values: every field the verifier reads has
    the JSON type it expects, group, restriction and model tag are a triple
    plan() produces, every vertex carries a part label build() gives, and
    the group has its order of element records.  NaN and inf are numbers
    here; the checks reject them."""
    if not isinstance(data, dict) or set(data) != _TOP_KEYS:
        raise SchemaError(f"top-level keys must be {sorted(_TOP_KEYS)}")
    if not _is_int(data["schema_version"]) or data["schema_version"] != SCHEMA_VERSION:
        raise SchemaError(f"schema version {data['schema_version']} != {SCHEMA_VERSION}")
    for section, kind in _SECTIONS.items():
        if not isinstance(data[section], kind):
            raise SchemaError(f"{section} must be a JSON {'object' if kind is dict else 'array'}")
    _check_record("model", data["model"], _MODEL_FIELDS)
    _check_record("report", data["report"], _REPORT_FIELDS)
    for section, fields in _RECORD_FIELDS.items():
        for rec in data[section]:
            _check_record(section, rec, fields)
    group = data["group"]
    if group not in GROUP_NAMES:
        raise SchemaError(f"group must be one of {list(GROUP_NAMES)}, got {group!r}")
    if len(data["elements"]) != GROUP_ORDER[group]:
        raise SchemaError(f"{group} needs {GROUP_ORDER[group]} element records, "
                          f"the file holds {len(data['elements'])}")
    header = (group, data["restriction"], data["model"]["tag"])
    if header not in PLAN_HEADERS:
        raise SchemaError(f"(group, restriction, model tag) = {header} is not one a plan produces")
    model = data["model"]
    try:
        ModelConfig(theta=model["theta"], t=model["t"], seed=model["seed"])
    except ValueError as err:
        raise SchemaError(f"model: {err}") from err
    m = data["m"]
    if not _is_int(m) or m != len(data["vertices"]):
        raise SchemaError(f"m = {m!r} but the file holds {len(data['vertices'])} vertex records")
    if any(len(e["vertex_images"]) != m for e in data["elements"]):
        raise SchemaError(f"every vertex_images list needs m = {m} entries")
    if sorted(v["id"] for v in data["vertices"]) != list(range(m)):
        raise SchemaError(f"vertex ids must be exactly 0..{m - 1}")


@dataclass
class CheckResult:
    name: str
    ok: bool
    message: str = ""


def _rebuild(data: dict) -> tuple[VertexAction, Realization]:
    # in row order; the group's Cayley table exists only if the stored
    # elements are closed under product
    records = sorted(data["elements"], key=lambda e: e["perm"])
    group = PermGroup(data["group"], [e["perm"] for e in records])
    ga = GroupAction(group, np.array([e["vertex_images"] for e in records]))
    mats = np.array([e["matrix"] for e in records], dtype=float).reshape(-1, 4, 4)
    vertices = sorted(data["vertices"], key=lambda v: v["id"])
    va = VertexAction(ga, tuple(v["part"] for v in vertices), ())
    coords = np.array([v["coords"] for v in vertices])
    cfg = ModelConfig(theta=data["model"]["theta"], t=data["model"]["t"],
                      seed=data["model"]["seed"])
    real = Realization(None, va, Model(data["model"]["tag"]), cfg, mats, coords)
    return va, real


def verify_certificate(data: dict) -> list[CheckResult]:
    """Re-run every check from file contents alone, in a fixed order.

    The realization invariants are geometry.REALIZATION_CHECKS, the same
    list realize() runs; the file-only steps around them check the stored
    group, action and recorded results.  Stops at the first failure so
    callers can name the broken invariant.
    """
    results: list[CheckResult] = []

    def run(name: str, *steps) -> bool:
        try:
            for step in steps:
                step()
        except Exception as err:
            results.append(CheckResult(name, False, str(err)))
            return False
        results.append(CheckResult(name, True))
        return True

    state: dict = {}

    def rebuild():
        state["va"], state["real"] = _rebuild(data)

    if not run("group-closure", rebuild):
        return results
    va: VertexAction = state["va"]
    real: Realization = state["real"]

    def check_action_hom():
        check_homomorphism(va.action)
        if not is_faithful(va.action):
            raise AssertionError("vertex action is not faithful")

    if not run("action-homomorphism", check_action_hom):
        return results

    def check_stored_profile():
        expect = measured_profile(va).named_counts()
        stored = data["report"]["profile"]
        if stored != expect:
            raise AssertionError(f"stored profile {stored} != recomputed {expect}")

    file_steps = {"profile": (check_stored_profile,)}
    for name, check in REALIZATION_CHECKS:
        if not run(name, lambda: check(real), *file_steps.get(name, ())):
            return results

    def check_orbits():
        count = burnside_orbit_count(va.action)
        if count != data["report"]["orbit_count"]:
            raise AssertionError(f"orbit count {count} != stored {data['report']['orbit_count']}")

    if not run("burnside", check_orbits):
        return results

    def check_hypotheses():
        arcs = {}
        for rec in data["arcs"]:
            pair = tuple(rec["pair"])
            if pair in arcs:
                raise AssertionError(f"two arc records for pair {rec['pair']}")
            circle = FixedCircle(np.array(rec["basis"], dtype=float))
            # a list that is no element gets row -1, which check_arcs rejects
            fixer = int(real.group.rows([rec["fixer"]])[0])
            arcs[pair] = Arc(pair, fixer, circle, rec["start"], rec["sweep"])
        report = full_report(real, arcs)
        if not report.overall:
            raise AssertionError(f"hypothesis checks failed: {report.details}")
        flags = {k: data["report"][k] for k in ("h1", "h2", "h3", "h4", "h5")}
        if not all(flags.values()):
            raise AssertionError(f"stored flags claim a failure: {flags}")

    run("edge-hypotheses", check_hypotheses)
    return results


def first_failure(results: list[CheckResult]) -> Optional[CheckResult]:
    for res in results:
        if not res.ok:
            return res
    return None
