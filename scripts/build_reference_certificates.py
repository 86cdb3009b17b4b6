#!/usr/bin/env python3
"""Realize the reference grid and write verified certificate files.

Usage: python scripts/build_reference_certificates.py [outdir]
"""

import sys
from pathlib import Path

from tsglab.actions import build, plan
from tsglab.certificate import first_failure, read_certificate, verify_certificate, write_certificate
from tsglab.edges import full_report
from tsglab.geometry import realize

REFERENCES = ([("S4", m) for m in (24, 4, 8, 12, 20, 28)]
              + [("A5", m) for m in (60, 61, 5, 20, 80)]
              + [("A4", m) for m in (16, 13, 17)])


def main() -> int:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("certificates")
    outdir.mkdir(parents=True, exist_ok=True)
    for group, m in REFERENCES:
        p = plan(group, m)
        va = build(p)
        r = realize(p, va)
        report = full_report(r)
        path = outdir / f"{group.lower()}_m{m}.json"
        write_certificate(str(path), r, report)
        results = verify_certificate(read_certificate(str(path)))
        bad = first_failure(results)
        state = "verified" if bad is None else f"FAILED at {bad.name}"
        arcs = len(report.arcs) if report.arcs else 0
        print(f"{path}: m={m:<3} model={r.model.value:<11} arcs={arcs:<2} {state}")
        if bad is not None:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
