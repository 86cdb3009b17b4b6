"""Self-contained realization files: write, read back, re-check everything.

A certificate (schema version 4, compact JSON with sorted keys) states a
realization by its parts:

    model       {"tag": ...}, the geometric model
    generators  one {"matrix": ...} per PermGroup.generators row, in that
                order (4x4 special orthogonal, row-major)
    parts       the plan's parts as [kind, count] pairs, in plan order
    vertices    one {"coords": ...} per vertex orbit, in orbit-minimum order
    arcs        the witness arc system
    report      the profile and the orbit count

The header's `restriction`, or else its `group`, names the permutation
group, and (group, model tag) fixes the restriction (actions.PLAN_HEADERS).
The header and parts must form an actions.OrbitPlan, else the file is a
schema error.  The verifier lays that plan's action down with
actions.build, and the matrices follow along one spanning tree over the
Cayley table: row x * s gets M(x) @ M(s), the identity exactly I
(perm.matrices_from_generators).  A vertex record sits at its orbit's
minimum (GroupAction.orbits), and every other vertex w of that orbit gets
mats[t] @ coords[v], t the first row that maps v to w
(geometry.orbit_coords).  realize uses the same three, so a file rebuilds
bit for bit to what realize checked.  `action-homomorphism` and
`invariance` compare at the orbit representatives only, which bounds the
whole action and all m coordinates (perm.check_homomorphism,
geometry._check_invariance).  Another schema version is a schema error.

Why verify may share build with realize.  A certificate claims that some
faithful action of the group on m points has an invariant embedding that
meets h1..h5.  The action build lays down is the object under check, not
a premise: group-closure requires it to act through the header's group,
and the later steps check it as they checked an action read from a
version 3 file.  A faulty build can only make verify reject a good file,
or accept one whose action, whatever it is, passes every check, which is
all the claim needs.  The matrices, coordinates and arcs are the
embedding itself, so they come from the file, and no other construction
step (representation, placement, arc picking) is entered.

Verification stops at the first failed step, in this order:

    group-closure        the laid-down action acts through the header's
                         group, with one generator record per generator and
                         one vertex record per orbit (rebuild)
    action-homomorphism  the laid-down generator rows are a faithful action
    homomorphism, invariance, separation, profile
                         geometry.REALIZATION_CHECKS, as realize runs
                         them; profile also compares the stored profile
    burnside             the stored orbit count
    edge-hypotheses      the stored arcs, as a witness (edges.full_report
                         on them): any arc system that meets the edge
                         hypotheses passes, not only the one realize picked
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .actions import (
    PLAN_HEADERS,
    Model,
    OrbitPlan,
    PartSpec,
    build,
    measured_profile,
    restricted_group,
)
from .edges import Arcs, full_report
from .geometry import REALIZATION_CHECKS, PrecisionError, Realization
from .perm import (
    GROUP_NAMES,
    GROUP_ORDER,
    InconsistentActionError,
    burnside_orbit_count,
    check_homomorphism,
    is_faithful,
    matrices_from_generators,
    standard_group,
)
from .profiles import KNOTTED_CASES

SCHEMA_VERSION = 4


class SchemaError(ValueError):
    """File shape does not match the certificate schema."""


def stated_parts(labels) -> list:
    """The [kind, count] pairs of the parts whose orbit labels build gave:
    free0 starts a free part, and each later free label adds an orbit."""
    parts: list = []
    for label in labels:
        if label.startswith("free") and label != "free0":
            parts[-1][1] += 1
        else:
            parts.append(["free" if label == "free0" else label, 1])
    return parts


def certificate_dict(r: Realization, report) -> dict:
    va = r.vertex_action
    act = va.action
    group = act.group
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
        "model": {"tag": r.model.value},
        # (group, model tag) fixes the restriction
        "restriction": next(res for name, res, tag in PLAN_HEADERS
                            if (name, tag) == (group.name, r.model.value)),
        "generators": [{"matrix": r.mats[s].ravel().tolist()} for s in group.generators],
        "parts": stated_parts(va.labels),
        "vertices": [{"coords": c} for c in r.coords[act.orbits.reps].tolist()],
        "arcs": arcs,
        "report": {"profile": measured_profile(va).named_counts(),
                   "orbit_count": burnside_orbit_count(act)},
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


# container type of each section, and a type test for each field of its records
_SECTIONS = {"model": dict, "generators": list, "parts": list, "vertices": list, "arcs": list,
             "report": dict}
_TOP_KEYS = {"schema_version", "group", "m", "restriction", *_SECTIONS}
_RECORD_FIELDS = {  # model and report are one record each
    "model": {"tag": lambda x: isinstance(x, str)},
    "report": {"orbit_count": _is_int,
               "profile": lambda x: isinstance(x, dict) and all(map(_is_int, x.values()))},
    "generators": {"matrix": _numbers(16)},
    "vertices": {"coords": _numbers(4)},
    "arcs": {"pair": lambda x: _ints(x) and len(x) == 2, "fixer": _ints,
             "start": _is_number, "sweep": _is_number,
             "basis": lambda x: isinstance(x, list) and len(x) == 2 and all(map(_numbers(4), x))},
}
# a part is a [kind, count] pair
_PART_FIELDS = {"kind": lambda x: isinstance(x, str), "count": _is_int}


def _check_records(section: str, records: list, fields: dict) -> None:
    """Each record has exactly the keys of fields, each passing its test."""
    if not all(isinstance(rec, dict) and rec.keys() == fields.keys() for rec in records):
        raise SchemaError(f"{section} records need keys {sorted(fields)}")
    for key, ok in fields.items():
        if not all(ok(rec[key]) for rec in records):
            raise SchemaError(f"{section} field {key!r} has the wrong type, length or value")


def _plan(data: dict) -> OrbitPlan:
    """The plan a file's header and parts state (fields already typed)."""
    return OrbitPlan(data["group"], data["m"],
                     tuple(PartSpec(kind, count) for kind, count in data["parts"]),
                     Model(data["model"]["tag"]), data["restriction"])


def _check_schema(data: dict) -> None:
    """Version, shapes, types and header values: schema version 4, every
    field of the JSON type the verifier expects (int64, float64), a
    (group, restriction, model tag) plan() produces, no knotted case,
    parts that form an OrbitPlan, one vertex record per orbit the report
    counts, and no orbit above |G| vertices, so laying the parts down
    costs no more than the file's size.  NaN and inf pass here; the
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
    for section, fields in _RECORD_FIELDS.items():
        records = data[section]
        _check_records(section, [records] if isinstance(records, dict) else records, fields)
    if not all(isinstance(part, list) and len(part) == 2 for part in data["parts"]):
        raise SchemaError("parts must be [kind, count] pairs")
    _check_records("parts", [dict(zip(_PART_FIELDS, part)) for part in data["parts"]], _PART_FIELDS)
    group, m = data["group"], data["m"]
    if group not in GROUP_NAMES:
        raise SchemaError(f"group must be one of {list(GROUP_NAMES)}, got {group!r}")
    header = (group, data["restriction"], data["model"]["tag"])
    if header not in PLAN_HEADERS:
        raise SchemaError(f"(group, restriction, model tag) = {header} is not one a plan produces")
    if not _is_int(m) or m < 1:
        raise SchemaError(f"m must be a positive integer, got {m!r}")
    if (group, m) in KNOTTED_CASES:
        raise SchemaError(f"K_{m} with group {group} needs knotted edges; "
                          "no certificate describes it")
    try:
        p = _plan(data)
    except ValueError as err:
        raise SchemaError(f"parts: {err}") from err
    orbits = len(data["vertices"])
    if orbits != data["report"]["orbit_count"]:
        raise SchemaError(f"the report counts {data['report']['orbit_count']} orbits "
                          f"but the file holds {orbits} vertex records")
    if m > GROUP_ORDER[p.building_group] * orbits:
        raise SchemaError(f"m = {m} vertices need more than {orbits} vertex records")


@dataclass
class CheckResult:
    name: str
    ok: bool
    message: str = ""


def _rebuild(data: dict) -> Realization:
    # _check_schema passes only headers plan() produces, so this is its group
    group = restricted_group(data["restriction"]) or standard_group(data["group"])
    p = _plan(data)
    va = build(p)
    if va.action.group is not group:
        raise ValueError(f"the action laid down from the parts acts through "
                         f"{va.action.group!r}, not the header's group {group!r}")
    records = data["generators"]
    if len(records) != len(group.generators):
        raise ValueError(f"{group.name} has {len(group.generators)} generators, "
                         f"but the file holds {len(records)} generator records")
    mats = matrices_from_generators(group, np.array(
        [g["matrix"] for g in records], dtype=float).reshape(-1, 4, 4))
    reps = va.action.orbits.reps
    if len(reps) != len(data["vertices"]):
        raise ValueError(f"the action laid down from the parts has {len(reps)} orbits, "
                         f"but the file holds {len(data['vertices'])} vertex records")
    base = np.zeros((p.m, 4))
    base[reps] = [v["coords"] for v in data["vertices"]]
    return Realization(va, p.model, mats, base)


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
