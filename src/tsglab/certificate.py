"""Self-contained realization files: write, read back, re-check everything.

A certificate (schema version 3, compact JSON with sorted keys) stores a
realization in generator form:

    generators  `perm`, `vertex_images` and `matrix` (4x4 special
                orthogonal, row-major) of PermGroup.generators, in either order
    vertices    one record per vertex orbit: `id`, the smallest vertex of
                the orbit, with the orbit's `part` label and its `coords`
    arcs        the witness arc system
    report      the hypothesis verdicts, the profile and the orbit count

The header's `restriction`, or else its `group`, names the permutation
group, and its (group, model tag) fixes the restriction
(actions.PLAN_HEADERS).  The generator records must be that group's
pair, in either order.  The verifier takes them in the group's order:
their vertex images are the action (perm.GroupAction, the form
actions.build makes too), and the matrices follow along one spanning
tree, from the identity outward over the Cayley table: row x * s gets
M(x) @ M(s), the identity exactly I (perm.matrices_from_generators, which
geometry.realize uses too).  The vertex records must be exactly the
orbit minima of that action's orbit table (GroupAction.orbits), one per
orbit.  Every other vertex w of the orbit of a record v gets
mats[t] @ coords[v], t its carrier row, the first row that maps v to w
(geometry.orbit_coords, which realize uses too, so a file rebuilds bit
for bit to what realize checked).  A stored row, matrix or coordinate is
never overwritten, and nothing derived is trusted.  `homomorphism`
compares every pair of matrices.  `action-homomorphism` and `invariance`
compare at the orbit representatives only, |G| images per orbit, and
that bounds the whole action and all m coordinates: why is argued once,
in perm.check_homomorphism and geometry._check_invariance.
A file of any other schema version, such as a version 2 file with every
element's perm and matrix, is a schema error that names its version.

Verification reconstructs all objects from the file alone and re-runs
every invariant.  The steps, in order, stopping at the first failure:

    group-closure        the generator records are the group's pair and the
                         vertex records are the orbit minima; part labels
                         span their parts' sizes (rebuild)
    action-homomorphism  the derived vertex images are a faithful action
    homomorphism, invariance, separation, profile
                         geometry.REALIZATION_CHECKS, as realize runs
                         them; profile also compares the stored profile
    burnside             the stored orbit count
    edge-hypotheses      the stored arcs and h1..h5 flags

The stored arcs are checked as a witness (edges.full_report on them): any
arc system that meets the edge hypotheses passes, not only the one
realize picked.
"""

from __future__ import annotations

import json
import os
import re
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .actions import (
    PART_SIZES,
    PLAN_HEADERS,
    RESTRICTION_PARENT,
    Model,
    VertexAction,
    measured_profile,
    restricted_group,
)
from .edges import Arcs, full_report
from .geometry import REALIZATION_CHECKS, ModelConfig, PrecisionError, Realization
from .perm import (
    GROUP_NAMES,
    GROUP_ORDER,
    GroupAction,
    InconsistentActionError,
    burnside_orbit_count,
    check_homomorphism,
    is_faithful,
    matrices_from_generators,
    standard_group,
)
from .profiles import KNOTTED_CASES

SCHEMA_VERSION = 3

_TOP_KEYS = {"schema_version", "group", "m", "model", "restriction",
             "generators", "vertices", "arcs", "report"}


class SchemaError(ValueError):
    """File shape does not match the certificate schema."""


def certificate_dict(r: Realization, report) -> dict:
    va = r.vertex_action
    act = va.action
    group = act.group
    generators = [{"perm": group.elements[s].tolist(), "vertex_images": img.tolist(),
                   "matrix": r.mats[s].ravel().tolist()}  # matrix row-major
                  for s, img in zip(group.generators, act.gen_images)]
    vertices = [{"id": v, "part": va.labels[v], "coords": r.coords[v].tolist()}
                for v in act.orbits.reps.tolist()]
    arcs = []
    if report.arcs:
        a = report.arcs.take(np.lexsort(report.arcs.pairs.T[::-1]))  # rows sorted by pair
        arcs = [{"pair": pair, "fixer": fixer, "basis": basis, "start": start, "sweep": sweep}
                for pair, fixer, basis, start, sweep in zip(
                    a.pairs.tolist(), group.elements[a.fixers].tolist(), a.bases.tolist(),
                    a.starts.tolist(), a.sweeps.tolist())]
    return {
        "schema_version": SCHEMA_VERSION,
        "group": group.name,
        "m": r.m,
        "model": {
            "tag": r.model.value,
            "theta": float(r.config.theta),
            "t": float(r.config.t),
            "seed": r.config.seed,
        },
        # (group, model tag) fixes the restriction
        "restriction": next(res for name, res, tag in PLAN_HEADERS
                            if (name, tag) == (group.name, r.model.value)),
        "generators": generators,
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
    payload = json.dumps(certificate_dict(r, report), sort_keys=True, separators=(",", ":"))
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
# keep true and false out of the integers.  An integer must fit int64 and a
# number float64, the arrays the verifier reads them into.
def _is_int(x) -> bool:
    return type(x) is int and -2 ** 63 <= x < 2 ** 63


def _is_number(x) -> bool:
    return type(x) is float or type(x) is int and abs(x) <= sys.float_info.max


def _ints(x) -> bool:
    return isinstance(x, list) and set(map(type, x)) <= {int} \
        and _is_int(min(x, default=0)) and _is_int(max(x, default=0))


def _numbers(n: int):
    return lambda x: isinstance(x, list) and len(x) == n and all(map(_is_number, x))


def _is_part_label(x) -> bool:
    # free orbits are labelled free0, free1, ...; special parts by their kind
    return isinstance(x, str) and (x in PART_SIZES or re.fullmatch("free[0-9]+", x) is not None)


# container type of each section, and a type test for each field of its records
_SECTIONS = {"model": dict, "generators": list, "vertices": list, "arcs": list, "report": dict}
_MODEL_FIELDS = {"tag": lambda x: isinstance(x, str), "theta": _is_number, "t": _is_number,
                 "seed": _is_int}
_REPORT_FIELDS = {
    **dict.fromkeys(("h1", "h2", "h3", "h4", "h5"), lambda x: isinstance(x, bool)),
    "orbit_count": _is_int,
    "profile": lambda x: isinstance(x, dict) and all(map(_is_int, x.values())),
}
_RECORD_FIELDS = {
    "generators": {"perm": _ints, "vertex_images": _ints, "matrix": _numbers(16)},
    "vertices": {"id": _is_int, "part": _is_part_label, "coords": _numbers(4)},
    "arcs": {"pair": lambda x: _ints(x) and len(x) == 2, "fixer": _ints,
             "start": _is_number, "sweep": _is_number,
             "basis": lambda x: isinstance(x, list) and len(x) == 2 and all(map(_numbers(4), x))},
}


def _check_record(section: str, rec, fields: dict) -> None:
    if not isinstance(rec, dict) or set(rec) != set(fields):
        raise SchemaError(f"{section} records need keys {sorted(fields)}")
    bad = [k for k, ok in fields.items() if not ok(rec[k])]
    if bad:
        raise SchemaError(f"{section} field {bad[0]!r} has the wrong type, length or value")


def _check_schema(data: dict) -> None:
    """Version, shapes, types and header values: the file is schema
    version 3, every field the verifier reads has the JSON type it
    expects, within int64 for an integer and float64 for a number, group,
    restriction and model tag are a triple plan() produces, (group, m) is
    not a knotted case, every vertex record carries a part label build()
    gives, vertex ids are distinct vertices, and there is one vertex
    record per orbit the report counts.  NaN and inf are numbers here; the
    checks reject them."""
    if not isinstance(data, dict):
        raise SchemaError("a certificate is a JSON object")
    version = data.get("schema_version")
    if not _is_int(version) or version != SCHEMA_VERSION:
        raise SchemaError(f"schema version {version!r} is not supported; "
                          f"this verifier reads version {SCHEMA_VERSION}")
    if set(data) != _TOP_KEYS:
        raise SchemaError(f"top-level keys must be {sorted(_TOP_KEYS)}")
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
    header = (group, data["restriction"], data["model"]["tag"])
    if header not in PLAN_HEADERS:
        raise SchemaError(f"(group, restriction, model tag) = {header} is not one a plan produces")
    model = data["model"]
    try:
        ModelConfig(theta=model["theta"], t=model["t"], seed=model["seed"])
    except ValueError as err:
        raise SchemaError(f"model: {err}") from err
    m = data["m"]
    if not _is_int(m) or m < 1:
        raise SchemaError(f"m must be a positive integer, got {m!r}")
    if (group, m) in KNOTTED_CASES:
        raise SchemaError(f"K_{m} with group {group} needs knotted edges; "
                          "no certificate describes it")
    if any(len(g["vertex_images"]) != m for g in data["generators"]):
        raise SchemaError(f"every vertex_images list needs m = {m} entries")
    ids = [v["id"] for v in data["vertices"]]
    if len(set(ids)) != len(ids) or not all(0 <= i < m for i in ids):
        raise SchemaError(f"vertex ids must be distinct vertices 0..{m - 1}")
    if len(ids) != data["report"]["orbit_count"]:
        raise SchemaError(f"the report counts {data['report']['orbit_count']} orbits "
                          f"but the file holds {len(ids)} vertex records")


@dataclass
class CheckResult:
    name: str
    ok: bool
    message: str = ""


def _rebuild(data: dict) -> Realization:
    # _check_schema passes only headers plan() produces, so this is its group
    group = restricted_group(data["restriction"]) or standard_group(data["group"])
    pair, records = group.elements[list(group.generators)].tolist(), data["generators"]
    if [g["perm"] for g in records[::-1]] == pair:
        records = records[::-1]
    if [g["perm"] for g in records] != pair:
        raise ValueError(f"the generator records must be the group's generators "
                         f"{pair[0]} and {pair[1]}, in either order")
    ga = GroupAction(group, [g["vertex_images"] for g in records])
    mats = matrices_from_generators(group, np.array(
        [g["matrix"] for g in records], dtype=float).reshape(-1, 4, 4))
    free_size = GROUP_ORDER[RESTRICTION_PARENT.get(data["restriction"], data["group"])]
    base, labels = _orbit_records(ga, data["vertices"], free_size)
    cfg = ModelConfig(theta=data["model"]["theta"], t=data["model"]["t"],
                      seed=data["model"]["seed"])
    return Realization(VertexAction(ga, labels, ()), Model(data["model"]["tag"]), cfg, mats, base)


def _orbit_records(action: GroupAction, records: list, free_size: int) -> tuple:
    """Each record's coords at its id, in an (m, 4) array, and all m part
    labels.  The records must be the orbit minima, one per orbit, and each
    label spans its part's size (free_size for a free part)."""
    stored = {v["id"]: v for v in records}
    reps = action.orbits.reps.tolist()
    extra, missing = sorted(set(stored) - set(reps)), sorted(set(reps) - set(stored))
    if extra:
        raise ValueError(f"vertex record {extra[0]} is not the smallest vertex of its orbit")
    if missing:
        raise ValueError(f"the orbit of vertex {missing[0]} has no vertex record")
    base = np.zeros((action.m, 4))
    base[reps] = [stored[v]["coords"] for v in reps]
    parts = np.array([stored[v]["part"] for v in reps], dtype=object)
    labels = tuple(parts[action.orbits.index])
    for label, count in Counter(labels).items():
        size = PART_SIZES.get(label, free_size)
        if count != size:
            raise ValueError(f"part {label!r} spans {count} vertices instead of {size}")
    return base, labels


def _check_action(data: dict, real: Realization) -> None:
    check_homomorphism(real.vertex_action.action)
    if not is_faithful(real.vertex_action.action):
        raise AssertionError("vertex action is not faithful")


def _realization_step(name: str, check):
    """A REALIZATION_CHECKS entry as a verify step; the profile step also
    compares the profile stored in the file with the recomputed one."""
    def step(data: dict, real: Realization) -> None:
        check(real)
        if name == "profile":
            expect = measured_profile(real.vertex_action).named_counts()
            stored = data["report"]["profile"]
            if stored != expect:
                raise AssertionError(f"stored profile {stored} != recomputed {expect}")
    return name, step


def _check_orbits(data: dict, real: Realization) -> None:
    count = burnside_orbit_count(real.vertex_action.action)
    if count != data["report"]["orbit_count"]:
        raise AssertionError(f"orbit count {count} != stored {data['report']['orbit_count']}")


def _check_hypotheses(data: dict, real: Realization) -> None:
    records = data["arcs"]
    seen = set()
    for rec in records:
        if tuple(rec["pair"]) in seen:
            raise AssertionError(f"two arc records for pair {rec['pair']}")
        seen.add(tuple(rec["pair"]))
    # one query for every fixer list of the group's degree; a list that is no
    # element, of that length or another, gets row -1, which check_arcs rejects
    fixers = np.full(len(records), -1)
    formed = [k for k, rec in enumerate(records) if len(rec["fixer"]) == real.group.degree]
    if formed:
        fixers[formed] = real.group.rows(np.array([records[k]["fixer"] for k in formed], dtype=np.int64))
    arcs = Arcs(np.array([rec["pair"] for rec in records], dtype=int).reshape(-1, 2),
                fixers,
                np.array([rec["basis"] for rec in records], dtype=float).reshape(-1, 2, 4),
                np.array([rec["start"] for rec in records], dtype=float),
                np.array([rec["sweep"] for rec in records], dtype=float))
    report = full_report(real, arcs)
    if not report.overall:
        raise AssertionError(f"hypothesis checks failed: {report.details}")
    flags = {k: data["report"][k] for k in ("h1", "h2", "h3", "h4", "h5")}
    if not all(flags.values()):
        raise AssertionError(f"stored flags claim a failure: {flags}")


# run in this order after group-closure (see the module docstring)
VERIFY_STEPS = (
    ("action-homomorphism", _check_action),
    *(_realization_step(name, check) for name, check in REALIZATION_CHECKS),
    ("burnside", _check_orbits),
    ("edge-hypotheses", _check_hypotheses),
)


# the exceptions by which a step rejects a file; SchemaError is a ValueError
REJECTIONS = (AssertionError, ValueError, InconsistentActionError, PrecisionError)


def verify_certificate(data: dict) -> list[CheckResult]:
    """Re-run every check from file contents alone: group-closure rebuilds
    the realization, then VERIFY_STEPS run in order.  Stops at the first
    failure so callers can name the broken invariant.  A step that raises
    one of REJECTIONS rejects the file with the exception's message; any
    other exception is a fault of the verifier, reported as `internal
    error (<type>): <message>`, and fails the step too, so the command
    still exits with a failure and never a traceback."""
    results, name = [], "group-closure"
    try:
        real = _rebuild(data)
        results.append(CheckResult(name, True))
        for name, check in VERIFY_STEPS:
            check(data, real)
            results.append(CheckResult(name, True))
    except REJECTIONS as err:
        results.append(CheckResult(name, False, str(err)))
    except Exception as err:  # a fault of the verifier, not a verdict on the file
        results.append(CheckResult(name, False, f"internal error ({type(err).__name__}): {err}"))
    return results


def first_failure(results: list[CheckResult]) -> Optional[CheckResult]:
    return next((res for res in results if not res.ok), None)
