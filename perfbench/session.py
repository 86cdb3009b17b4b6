"""Workloads and the closed-loop session that drives the tsglab CLI.

One caller, one process: every operation is a call to `tsglab.cli.main`
made only after the previous one returned.  A pass certifies each case of
the workload (`tsglab realize --seed S`), verifies every certificate that
pass wrote (`tsglab verify`) and runs the workload's oracle cross-checks
(`tsglab oracle`).  Each operation is checked for the right exit code and
output; a failed check, a wrong verdict or an exception the CLI lets escape
is counted as a failed operation and never raised past the session.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from calibration import SpeedSampler
from tsglab import cli
from tsglab.actions import Model, plan
from tsglab.geometry import representation
from tsglab.oracle import feasible_multisets, transitive_types
from tsglab.perm import a4_inside_a5, standard_group, subgroups_up_to_conjugacy
from tsglab.profiles import admissible_residues

STAGES = ("certify", "verify", "oracle")

# The classification the source paper states; the oracle must reproduce it.
PAPER_RESIDUES = {
    "A4": frozenset({0, 1, 4, 5, 8}),
    "S4": frozenset({0, 4, 8, 12, 20}),
    "A5": frozenset({0, 1, 5, 20}),
}
# With rule n5ne2 dropped the A5 oracle admits these residues mod 60 instead.
DROPPED_N5NE2_A5 = frozenset({0, 1, 5, 12, 17, 20, 32})

REFERENCE_CASES = ((("S4", 24), ("S4", 4), ("S4", 8), ("S4", 12), ("S4", 20), ("S4", 28))
                   + (("A5", 60), ("A5", 61), ("A5", 5), ("A5", 20), ("A5", 80))
                   + (("A4", 16), ("A4", 13), ("A4", 17)))


@dataclass(frozen=True)
class OracleRun:
    """One `tsglab oracle` call with the exit code and residue sets it must give."""

    argv: tuple[str, ...]
    exit_code: int
    residues: dict  # group -> expected oracle residue set

    @property
    def label(self) -> str:
        return " ".join(self.argv)


CROSS_CHECK = OracleRun(("oracle",), 0, PAPER_RESIDUES)
DROP_N5NE2 = OracleRun(("oracle", "--group", "A5", "--drop-rule", "n5ne2"), 5,
                       {"A5": DROPPED_N5NE2_A5})


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple[tuple[str, int], ...]
    oracle_runs: tuple[OracleRun, ...]


WORKLOADS = {w.name: w for w in (
    # 101, 50 and 20 free orbits: placement and O(m^2) separation dominate.
    Workload("large-orbits", (("A4", 1213), ("S4", 1204), ("A5", 1205)), (CROSS_CHECK,)),
    # The 14 reference cases plus the restricted-from-S4 and -A5 paths.
    Workload("reference-grid", REFERENCE_CASES + (("A4", 24), ("A4", 61)), (CROSS_CHECK,)),
    # Oracle DFS and profile rules; one regular orbit per group is all the geometry.
    Workload("oracle-scan", (("A4", 13), ("S4", 24), ("A5", 60)), (CROSS_CHECK, DROP_N5NE2)),
    # Tiny case for the self-tests; not part of BENCHMARK.json.
    Workload("smoke", (("A4", 13),), (CROSS_CHECK,)),
)}


def warm_caches(w: Workload) -> None:
    """Fill the first-call caches the workload touches: group tables,
    subgroup classes, transitive types and (for DODECA_ROT cases) the
    icosahedral table.  A CLI user pays this on every invocation."""
    groups = {g for g, _ in w.cases}
    for run in w.oracle_runs:
        groups |= set(run.residues)
    for g in sorted(groups):
        standard_group(g)
        subgroups_up_to_conjugacy(g)
    for run in w.oracle_runs:
        for g in run.residues:
            transitive_types(g)
            feasible_multisets(g, 0)
    for g, m in w.cases:
        p = plan(g, m)
        if p.model is Model.DODECA_ROT:
            representation(standard_group("A5"), Model.DODECA_ROT)
        if p.restriction is not None:
            a4_inside_a5()


@dataclass
class CallResult:
    code: int | None  # None: an exception escaped the CLI
    out: str
    err: str
    seconds: float            # wall
    reference_seconds: float  # wall scaled to the calibration kernel's reference speed


def call_cli(argv: list[str], calibrate: bool = True) -> CallResult:
    """Run `tsglab.cli.main(argv)` in-process with captured output, timed
    in wall and (when calibrating) reference seconds."""
    out, err = io.StringIO(), io.StringIO()
    with SpeedSampler(calibrate) as timing:
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception:  # the CLI let it escape: a failure of this operation
            code = None
            err.write(traceback.format_exc())
    return CallResult(code, out.getvalue(), err.getvalue(), timing.wall, timing.reference)


def case_id(group: str, m: int) -> str:
    return f"{group}-{m}"


def check_verify_output(res: CallResult, group: str, m: int) -> str | None:
    """None when verify exited 0 with every check ok, else the reason."""
    if res.code != 0:
        return f"exit {res.code}: {res.err.strip()[-300:]}"
    lines = res.out.strip().splitlines()
    if not lines or lines[-1] != f"certificate valid: group={group} m={m}":
        return f"no validity line in {lines[-1:]}"
    bad = [ln for ln in lines[:-1] if not re.match(r"^[\w-]+: ok\b", ln)]
    if bad or len(lines) < 2:
        return f"checks not ok: {bad}"
    return None


_ORACLE_LINE = re.compile(r"^group=(\w+) oracle=\{([\d,]*)\} engine=\{([\d,]*)\} match=(\w+)")


def _residue_set(text: str) -> frozenset:
    return frozenset(int(x) for x in text.split(",") if x)


def check_oracle_output(res: CallResult, run: OracleRun) -> str | None:
    """None when the exit code and every group's residues are as expected."""
    if res.code != run.exit_code:
        return f"exit {res.code}, expected {run.exit_code}: {res.err.strip()[-300:]}"
    seen = {}
    for line in res.out.splitlines():
        hit = _ORACLE_LINE.match(line)
        if hit:
            seen[hit.group(1)] = (_residue_set(hit.group(2)), _residue_set(hit.group(3)))
    if set(seen) != set(run.residues):
        return f"groups {sorted(seen)} reported, expected {sorted(run.residues)}"
    for group, (derived, engine) in seen.items():
        if derived != run.residues[group]:
            return f"{group}: oracle residues {sorted(derived)} != {sorted(run.residues[group])}"
        if engine != PAPER_RESIDUES[group] or engine != admissible_residues(group).residues:
            return f"{group}: engine residues {sorted(engine)} differ from the classification"
    return None


@dataclass
class PassResult:
    wall_seconds: dict = field(default_factory=lambda: dict.fromkeys(STAGES, 0.0))
    reference_seconds: dict = field(default_factory=lambda: dict.fromkeys(STAGES, 0.0))
    cert_bytes: int = 0
    wall: float = 0.0

    def add(self, stage: str, res: CallResult) -> None:
        self.wall_seconds[stage] += res.seconds
        self.reference_seconds[stage] += res.reference_seconds


class Session:
    """Runs passes of one workload and keeps the correctness ledger.

    The traced run sets `calibrate` to False: calibration kernels inside an
    operation would land in whichever span they interrupt."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.calibrate = True
        self.digests: dict[str, str] = {}   # case -> sha256 from the first pass
        self.cert_sizes: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.latencies = {s: [] for s in STAGES}

    def record(self, stage: str, label: str, seconds: float, problem: str | None) -> None:
        self.attempted += 1
        self.latencies.setdefault(stage, []).append(seconds)
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{stage} {label}: {problem}")

    def cert_path(self, group: str, m: int) -> Path:
        return self.workdir / f"{group.lower()}_m{m}.json"

    def certify(self, group: str, m: int) -> tuple[CallResult, int]:
        path = self.cert_path(group, m)
        path.unlink(missing_ok=True)  # verify must see this pass's file or none
        res = call_cli(["realize", "--group", group, "--m", str(m),
                        "--out", str(path), "--seed", str(self.seed)], self.calibrate)
        problem, size = None, 0
        if res.code != 0 or not res.out.startswith(f"wrote {path}:"):
            problem = f"exit {res.code}: {res.err.strip()[-300:]}"
        else:
            blob = path.read_bytes()
            size = len(blob)
            digest = hashlib.sha256(blob).hexdigest()
            key = case_id(group, m)
            first = self.digests.setdefault(key, digest)
            self.cert_sizes.setdefault(key, size)
            if digest != first:
                problem = f"certificate bytes changed between passes ({digest[:12]} != {first[:12]})"
        self.record("certify", case_id(group, m), res.seconds, problem)
        return res, size

    def verify(self, group: str, m: int) -> CallResult:
        res = call_cli(["verify", "--in", str(self.cert_path(group, m))], self.calibrate)
        self.record("verify", case_id(group, m), res.seconds, check_verify_output(res, group, m))
        return res

    def oracle(self, run: OracleRun) -> CallResult:
        res = call_cli(list(run.argv), self.calibrate)
        self.record("oracle", run.label, res.seconds, check_oracle_output(res, run))
        return res

    def run_pass(self, tracer=None) -> PassResult:
        """One pass; with a tracer, each operation runs inside a stage span
        and the tracer's probes run after it."""
        stage = tracer.stage if tracer else (lambda *_: contextlib.nullcontext())
        result = PassResult()
        t0 = perf_counter()
        for group, m in self.workload.cases:
            with stage("certify", case_id(group, m)):
                res, size = self.certify(group, m)
            result.add("certify", res)
            result.cert_bytes += size
        for group, m in self.workload.cases:
            with stage("verify", case_id(group, m)):
                result.add("verify", self.verify(group, m))
                if tracer:
                    tracer.probe_verify(case_id(group, m))
        for run in self.workload.oracle_runs:
            with stage("oracle", run.label):
                result.add("oracle", self.oracle(run))
        if tracer:
            tracer.probe_oracle(self.workload)
        result.wall = perf_counter() - t0
        return result
