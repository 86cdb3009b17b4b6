#!/usr/bin/env python3
"""Time the certificate pipeline stage by stage over a ladder of m.

Usage: PYTHONPATH=src python3 scripts/stage_ladder.py [--groups A4,S4,A5]
           [--targets 300,1200,3000,6000]

For each group and each target, the admissible non-knotted m closest to
the target (the smaller one on a tie) is run through build, realize,
full_report, write, read and verify, `REPEATS` times in one process
after one untimed warm-up pass.  Each stage time is the median wall
second over the repeats; `end_to_end_s` is their sum.  One BLAS thread.
Every pass must write the same certificate bytes (their SHA-256 is the
row's `cert_sha256`), or the script raises: placement is deterministic.
Prints one JSON object per (group, m) line, then nothing else.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from tsglab.actions import build, plan
from tsglab.certificate import first_failure, read_certificate, verify_certificate, write_certificate
from tsglab.edges import full_report
from tsglab.geometry import ModelConfig, realize
from tsglab.profiles import necessity_check

STAGES = ("build", "realize", "full_report", "write", "read", "verify")
REPEATS = 9


def nearest_m(group: str, target: int) -> int:
    for step in range(target):
        for m in (target - step, target + step):
            if m >= 4 and necessity_check(group, m).admissible and not plan(group, m).knotted:
                return m
    raise ValueError(f"no admissible m near {target} for {group}")


def one_pass(group: str, m: int, config: ModelConfig, path: str) -> dict[str, float]:
    t0 = perf_counter()
    p = plan(group, m)
    va = build(p)
    t1 = perf_counter()
    r = realize(p, va, config)
    t2 = perf_counter()
    report = full_report(r)
    t3 = perf_counter()
    write_certificate(path, r, report)
    t4 = perf_counter()
    data = read_certificate(path)
    t5 = perf_counter()
    bad = first_failure(verify_certificate(data))
    t6 = perf_counter()
    if not report.overall or bad is not None:
        raise RuntimeError(f"{group} m={m}: certificate does not verify")
    marks = (t0, t1, t2, t3, t4, t5, t6)
    return {name: end - start for name, start, end in zip(STAGES, marks, marks[1:])}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--groups", default="A4,S4,A5")
    parser.add_argument("--targets", default="300,1200,3000,6000")
    args = parser.parse_args()
    config = ModelConfig()
    targets = [int(t) for t in args.targets.split(",")]
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "cert.json")
        for group in args.groups.split(","):
            for target in targets:
                m = nearest_m(group, target)
                runs, digests = [], set()
                for _ in range(REPEATS + 1):  # the first pass warms up
                    runs.append(one_pass(group, m, config, path))
                    digests.add(hashlib.sha256(Path(path).read_bytes()).hexdigest())
                if len(digests) != 1:
                    raise RuntimeError(f"{group} m={m}: repeated passes wrote different bytes")
                runs = runs[1:]
                row = {"group": group, "m": m, "cert_bytes": Path(path).stat().st_size,
                       "cert_sha256": digests.pop()}
                row.update({f"{s}_s": round(statistics.median(r[s] for r in runs), 4)
                            for s in STAGES})
                row["end_to_end_s"] = round(sum(row[f"{s}_s"] for s in STAGES), 4)
                print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
