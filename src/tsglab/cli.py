"""Command-line front end.

Subcommands: classify, table, realize, verify, oracle.  Exit codes:
0 success, 2 usage or schema error, 3 inadmissible m, 4 knotted case
(no geometric certificate), 5 verification or cross-check failure
(for oracle: also a search that is not |G|-periodic; for realize:
placement failure, ambiguous numerics, a failed realization check or
failed edge hypotheses).
"""

from __future__ import annotations

import argparse
import functools
import sys

from .actions import build, plan
from .certificate import (
    SchemaError,
    first_failure,
    read_certificate,
    verify_certificate,
    write_certificate,
)
from .edges import full_report
from .geometry import ModelConfig, PlacementError, PrecisionError, UnsupportedGeometryError, realize
from .oracle import OracleInconsistencyError, feasible_mask, oracle_residues
from .perm import GROUP_NAMES, GROUP_ORDER
from .profiles import (
    CLASS_WEIGHTS,
    admissible_residues,
    enumerate_profiles,
    necessity_check,
    residues_from_profile,
    rule_set,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INADMISSIBLE = 3
EXIT_KNOTTED = 4
EXIT_CHECK_FAILED = 5

def cmd_classify(args) -> int:
    verdict = necessity_check(args.group, args.m)
    modulus = admissible_residues(args.group).modulus
    if verdict.admissible:
        print(f"group={args.group} m={args.m}: ADMISSIBLE (m = {args.m % modulus} mod {modulus})")
        for w in verdict.witnesses:
            cells = " ".join(f"{name}={n}" for name, n in w.named_counts().items())
            print(f"witness profile: {cells}")
        if verdict.note:
            print(f"note: {verdict.note}")
        return EXIT_OK
    rule = verdict.violated_rule
    print(f"group={args.group} m={args.m}: INADMISSIBLE (m = {args.m % modulus} mod {modulus})")
    print(f"rule violated: {rule.id}: {rule.text}")
    return EXIT_INADMISSIBLE


def table_lines(group: str) -> list[str]:
    if group != "S4":
        # one row per residue, in profile order; profiles sharing a residue
        # differ in one class, written "a or b" (A4: n3 = 0 or 3)
        names = tuple(CLASS_WEIGHTS[group])
        by_residue: dict[int, list[tuple]] = {}
        for p in enumerate_profiles(group):
            by_residue.setdefault(residues_from_profile(group, p), []).append(p.key())
        lines = [f"{','.join(names)},m_mod_{GROUP_ORDER[group]}"]
        for residue, keys in by_residue.items():
            cells = [" or ".join(map(str, sorted(set(column)))) for column in zip(*keys)]
            assert sum(" or " in c for c in cells) <= 1, f"residue {residue}: two classes differ"
            lines.append(",".join(cells + [str(residue)]))
        return lines
    chain = [
        ("n4_zero", "order-4 elements fix no vertices (n4 = 0)"),
        ("m_mod_4", "m = 0 (mod 4)"),
        ("m_mod_12_tetra", "m mod 12 in 0 1 4 5 8"),
        ("m_ne_16_mod_24", "m != 16 (mod 24)"),
        ("conclusion", "m mod 24 in 0 4 8 12 20"),
    ]
    known = {r.id for r in rule_set("S4")}
    assert all(rid in known or rid == "conclusion" for rid, _ in chain)
    return ["step,rule,statement"] + [f"{i},{rid},{text}" for i, (rid, text) in enumerate(chain, 1)]


def cmd_table(args) -> int:
    for line in table_lines(args.group):
        print(line)
    return EXIT_OK


def cmd_realize(args) -> int:
    verdict = necessity_check(args.group, args.m)
    if not verdict.admissible:
        print(f"group={args.group} m={args.m}: INADMISSIBLE; nothing to realize", file=sys.stderr)
        return EXIT_INADMISSIBLE
    p = plan(args.group, args.m)
    config = ModelConfig(theta=args.theta, t=args.t, seed=args.seed)
    try:
        va = build(p)
        real = realize(p, va, config)
        report = full_report(real)
    except UnsupportedGeometryError as err:
        print(f"group={args.group} m={args.m}: {err}", file=sys.stderr)
        return EXIT_KNOTTED
    except (PlacementError, PrecisionError, AssertionError) as err:
        # AssertionError: a failed realization check, named in the message
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    if not report.overall:
        print(f"hypothesis checks failed: {report.details}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    try:
        write_certificate(args.out, real, report)
    except OSError as err:
        print(f"error: cannot write {args.out}: {err}", file=sys.stderr)
        return EXIT_USAGE
    arcs = len(report.arcs) if report.arcs else 0
    print(f"wrote {args.out}: group={args.group} m={args.m} model={real.model.value} arcs={arcs}")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        data = read_certificate(getattr(args, "in"))
    except (OSError, SchemaError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    results = verify_certificate(data)
    for res in results:
        state = "ok" if res.ok else f"FAILED ({res.message})"
        print(f"{res.name}: {state}")
    failed = first_failure(results)
    if failed is not None:
        print(f"verification failed at: {failed.name}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    print(f"certificate valid: group={data['group']} m={data['m']}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    groups = GROUP_NAMES if args.group is None else (args.group,)
    drop = tuple(args.drop_rule) if args.drop_rule else ()
    all_match = True
    for group in groups:
        engine = admissible_residues(group)
        try:
            derived = oracle_residues(group, drop_rules=drop)
        except OracleInconsistencyError as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_CHECK_FAILED
        match = derived == engine
        all_match &= match
        print(f"group={group} oracle={{{','.join(map(str, derived.sorted()))}}} "
              f"engine={{{','.join(map(str, engine.sorted()))}}} "
              f"match={'yes' if match else 'NO'}")
        if args.max_m is not None:
            mask = feasible_mask(group, args.max_m + 1, drop_rules=drop)
            feas = [m for m, found in enumerate(mask) if found]
            print(f"  feasible m <= {args.max_m}: {feas}")
    return EXIT_OK if all_match else EXIT_CHECK_FAILED


@functools.cache  # parse_args leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsglab",
        description="Classify and certify spatial symmetry of complete graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="admissibility verdict for (group, m)")
    c.add_argument("--group", required=True, choices=GROUP_NAMES)
    c.add_argument("--m", required=True, type=int)
    c.set_defaults(fn=cmd_classify)

    t = sub.add_parser("table", help="print the profile table / congruence chain")
    t.add_argument("--group", required=True, choices=GROUP_NAMES)
    t.set_defaults(fn=cmd_table)

    r = sub.add_parser("realize", help="build a certificate file for (group, m)")
    r.add_argument("--group", required=True, choices=GROUP_NAMES)
    r.add_argument("--m", required=True, type=int)
    r.add_argument("--out", required=True)
    r.add_argument("--seed", type=int, default=ModelConfig().seed)
    r.add_argument("--theta", type=float, default=ModelConfig().theta)
    r.add_argument("--t", type=float, default=ModelConfig().t)
    r.set_defaults(fn=cmd_realize)

    v = sub.add_parser("verify", help="re-check a certificate file")
    v.add_argument("--in", required=True)
    v.set_defaults(fn=cmd_verify)

    o = sub.add_parser("oracle", help="brute-force residues vs the rule engine")
    o.add_argument("--group", choices=GROUP_NAMES, default=None)
    o.add_argument("--drop-rule", action="append", default=None,
                   help="drop a named rule from the oracle (test mode); an unknown id exits 2")
    o.add_argument("--max-m", type=int, default=None)
    o.set_defaults(fn=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.fn(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
