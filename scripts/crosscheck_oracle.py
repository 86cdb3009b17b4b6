#!/usr/bin/env python3
"""Cross-check the brute-force orbit oracle against the rule engine, then
drop each profile rule in turn and show which residues the oracle gains:
those are the rules the classification depends on."""

import sys

from tsglab.oracle import admissible_types, class_caps, oracle_residues, transitive_types
from tsglab.profiles import admissible_residues, profile_rules


def caps_text(group: str, drop: tuple[str, ...] = ()) -> str:
    return " ".join(f"{name}<={n}" for name, n in class_caps(group, drop))


def main() -> int:
    ok = True
    for group in ("A4", "S4", "A5"):
        types = transitive_types(group)
        kept = admissible_types(group)
        engine = admissible_residues(group)
        derived = oracle_residues(group)
        match = derived == engine
        ok &= match
        print(f"{group}: class caps {caps_text(group)}")
        print(f"  {len(types)} transitive types, {len(kept)} survive caps "
              f"(degrees {[t.degree for t in kept]})")
        print(f"  oracle  -> {derived.sorted()} (mod {derived.modulus})")
        print(f"  engine  -> {engine.sorted()} (mod {engine.modulus})"
              f"  [{'match' if match else 'MISMATCH'}]")

    print("\nresidues gained with one profile rule dropped:")
    for group in ("A4", "S4", "A5"):
        engine = set(admissible_residues(group).sorted())
        for rule in profile_rules(group):
            drop = (rule.id,)
            gained = sorted(set(oracle_residues(group, drop_rules=drop).sorted()) - engine)
            print(f"  {group} without {rule.id}: gains {gained if gained else 'nothing'}"
                  f"  (caps {caps_text(group, drop)})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
