"""Span tracing for the traced benchmark run, from outside the program.

`Tracer.install()` replaces each public tsglab function named in TARGETS, in
every tsglab module that binds it, with a wrapper that records a span: name,
label, case, stage, parent, start and end.  Spans stay in memory; the
per-layer metrics are computed from them after the pass.  Under the verify
and oracle stages the tracer also calls public sub-steps the CLI does not
call itself ("probes"), on the same inputs: the action-homomorphism loop on
the built action, uncached `transitive_types`, and the A5 oracle with rule
n5ne2 dropped when the workload does not run it.

tracemalloc slows allocation-heavy code several-fold (verify most), so a
timing tracer never starts it.  A separate memory tracer (`memory=True`)
wraps only the MEMORY_TARGETS and records the tracemalloc peak around each
call, with no probes.
"""

from __future__ import annotations

import sys
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import tsglab.oracle
from tsglab.oracle import transitive_types
from tsglab.perm import check_homomorphism

from session import DROP_N5NE2


def _arcs(report) -> int:
    return len(report.arcs or {})


def _residues_label(args, kwargs) -> str:
    drop = kwargs.get("drop_rules", ())
    return args[0] + "".join(f"/{rule}" for rule in drop)


def _argv_label(args, kwargs) -> str:
    return args[0][0]  # the subcommand


@dataclass(frozen=True)
class Target:
    module: str
    function: str
    span: str
    count: object = None   # result -> int, stored on the span
    label: object = None   # (args, kwargs) -> str
    memory: bool = False   # a memory tracer records its tracemalloc peak
    keep: bool = False     # remember the last result (per case)


TARGETS = (
    Target("tsglab.cli", "main", "cli.main", label=_argv_label),
    Target("tsglab.profiles", "necessity_check", "profiles.necessity_check"),
    Target("tsglab.actions", "plan", "actions.plan"),
    Target("tsglab.actions", "build", "actions.build", keep=True),
    Target("tsglab.actions", "measured_profile", "actions.measured_profile"),
    Target("tsglab.geometry", "realize", "geometry.realize", memory=True),
    Target("tsglab.geometry", "free_orbit_coords", "geometry.free_orbit_coords"),
    Target("tsglab.geometry", "validate_realization", "geometry.validate_realization"),
    Target("tsglab.geometry", "circles_of", "geometry.circles_of"),
    Target("tsglab.geometry", "geometric_profile", "geometry.geometric_profile"),
    Target("tsglab.edges", "full_report", "edges.full_report", count=_arcs),
    Target("tsglab.edges", "required_pairs", "edges.required_pairs", count=len),
    Target("tsglab.edges", "assign_arcs", "edges.assign_arcs"),
    Target("tsglab.edges", "check_h3", "edges.check_h3"),
    Target("tsglab.certificate", "write_certificate", "certificate.write"),
    Target("tsglab.certificate", "read_certificate", "certificate.read"),
    Target("tsglab.certificate", "verify_certificate", "certificate.verify_certificate",
           memory=True),
    Target("tsglab.perm", "burnside_orbit_count", "perm.burnside_orbit_count"),
    Target("tsglab.oracle", "oracle_residues", "oracle.oracle_residues", label=_residues_label),
    Target("tsglab.oracle", "feasible_multisets", "oracle.feasible_multisets",
           count=lambda r: int(bool(r))),
)
MEMORY_TARGETS = tuple(t for t in TARGETS if t.memory)


@dataclass
class Span:
    name: str
    label: str
    case: str
    stage: str
    parent: int   # index into Tracer.spans, -1 at the top
    start: float
    end: float = 0.0
    count: int | None = None
    peak_bytes: int | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._case = ""
        self._stage = ""
        self._kept: dict[tuple[str, str], object] = {}
        self._patched: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- recording

    @contextmanager
    def span(self, name: str, label: str = ""):
        parent = self._stack[-1] if self._stack else -1
        s = Span(name, label, self._case, self._stage, parent, perf_counter())
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._stack.pop()

    @contextmanager
    def stage(self, stage: str, case: str):
        """Top-level span for one operation; its descendants share the case id."""
        self._case, self._stage = case, stage
        try:
            with self.span(f"stage.{stage}", case):
                yield
        finally:
            self._case, self._stage = "", ""

    def _wrapper(self, target: Target, fn):
        def traced(*args, **kwargs):
            label = target.label(args, kwargs) if target.label else ""
            with self.span(target.span, label) as s:
                if self.memory:
                    tracemalloc.start()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    if self.memory:
                        s.peak_bytes = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
            if target.count:
                s.count = target.count(result)
            if target.keep:
                self._kept[(target.span, self._case)] = result
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every binding of each target across loaded tsglab modules."""
        modules = [m for name, m in sys.modules.items()
                   if name == "tsglab" or name.startswith("tsglab.")]
        for target in MEMORY_TARGETS if self.memory else TARGETS:
            fn = getattr(sys.modules[target.module], target.function)
            traced = self._wrapper(target, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, traced)
                        self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    # ------------------------------------------------------------- probes

    def probe_verify(self, case: str) -> None:
        built = self._kept.get(("actions.build", case))
        if built is not None and not self.memory:
            with self.span("probe"), self.span("perm.check_homomorphism"):
                check_homomorphism(built.action)

    def probe_oracle(self, workload) -> None:
        if self.memory:
            return
        groups = sorted({g for run in workload.oracle_runs for g in run.residues})
        with self.stage("probe", workload.name):
            for g in groups:
                with self.span("oracle.transitive_types", g):
                    transitive_types.__wrapped__(g)  # uncached: the set-up cost
            if DROP_N5NE2 not in workload.oracle_runs:
                tsglab.oracle.oracle_residues("A5", drop_rules=("n5ne2",))  # traced binding

    def probe_seconds(self) -> float:
        return sum(s.seconds for s in self.spans if s.name in ("probe", "stage.probe"))


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MiB"
    return "ratio" if metric.endswith("_ratio") else "count"


def memory_metrics(spans: list[Span]) -> dict[str, float]:
    """Largest tracemalloc peak per memory target over one memory pass, MiB."""
    def peak_mb(name):
        return max((s.peak_bytes for s in spans if s.name == name), default=0) / 2**20

    return {"geometry.realize.peak_mb": peak_mb("geometry.realize"),
            "certificate.verify.peak_mb": peak_mb("certificate.verify_certificate")}


def summarize(spans: list[Span]) -> dict[str, list]:
    """Span name -> [calls, inclusive seconds, self seconds], where self time
    is the span's duration minus that of its child spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.seconds
    table: dict[str, list] = {}
    for i, s in enumerate(spans):
        row = table.setdefault(s.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s.seconds
        row[2] += s.seconds - child[i]
    return table


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer values of one timing pass: inclusive and self seconds and
    counts."""
    table = summarize(spans)

    def total(name, label=None):
        if label is None:
            return table.get(name, [0, 0.0, 0.0])[1]
        return sum(s.seconds for s in spans if s.name == name and s.label == label)

    out = {}
    for name in ("geometry.free_orbit_coords", "geometry.validate_realization",
                 "geometry.circles_of", "geometry.geometric_profile", "geometry.realize",
                 "perm.check_homomorphism", "perm.burnside_orbit_count",
                 "actions.build", "actions.measured_profile", "profiles.necessity_check",
                 "edges.full_report", "edges.required_pairs", "edges.assign_arcs",
                 "edges.check_h3", "certificate.write", "certificate.read",
                 "certificate.verify_certificate", "oracle.transitive_types"):
        out[f"{name}_s"] = total(name)
    for name in ("cli.main", "geometry.realize", "certificate.verify_certificate",
                 "edges.full_report"):
        out[f"{name}.self_s"] = table.get(name, [0, 0.0, 0.0])[2]
    for command in ("realize", "verify", "oracle"):
        out[f"cli.{command}_s"] = total("cli.main", command)
    for g in ("A4", "S4", "A5"):
        out[f"oracle.oracle_residues.{g}_s"] = total("oracle.oracle_residues", g)
    out["oracle.drop_n5ne2_s"] = total("oracle.oracle_residues", "A5/n5ne2")

    # Counts come from the workload's own operations, never from probes.
    pinned: dict[str, int] = {}
    for s in spans:
        if s.stage == "certify" and s.name == "edges.required_pairs":
            pinned.setdefault(s.case, s.count)
    out["edges.pinned_pairs"] = sum(pinned.values())
    out["edges.arcs"] = sum(s.count for s in spans
                            if s.stage == "certify" and s.name == "edges.full_report")
    scans = [s.count for s in spans
             if s.stage == "oracle" and s.name == "oracle.feasible_multisets"]
    out["oracle.feasible_m"] = sum(scans)
    out["oracle.feasible_ratio"] = sum(scans) / len(scans) if scans else 0.0
    return out
