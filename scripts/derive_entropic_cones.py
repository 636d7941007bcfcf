#!/usr/bin/env python3
"""Derive the classical and independence entropic cones for the built-in
scenarios and report which classical rows are entropically stronger.

With no arguments runs the Bell and triangle scenarios; pass a graph
JSON file to analyze an arbitrary GDAG.
"""

import argparse
import json
import sys
import time

from gdag_lab.catalog import bell_gdag, triangle_gdag
from gdag_lab.cli import guarded, read_graph
from gdag_lab.cones import (
    _not_implied,
    derive_classical_cone,
    derive_independence_cone,
)


def analyze(name, g, allow_large):
    t0 = time.monotonic()
    ec = derive_classical_cone(g, allow_large=allow_large)
    ei = derive_independence_cone(g, allow_large=allow_large)
    dt = time.monotonic() - t0
    extra = _not_implied(ec, ei)
    print(f"== {name} ({dt:.1f}s)")
    print(f"  classical cone: {len(ec.rows)} rows")
    print(f"  independence cone: {len(ei.rows)} rows")
    if extra.rows:
        print(f"  {len(extra.rows)} classical rows not implied by independence:")
        for row in json.loads(extra.to_json())["ineqs"]:
            print(f"    {json.dumps(row['coeffs'])}")
    else:
        print("  cones coincide")


def analyze_all(args) -> int:
    if args.graphs:
        for path in args.graphs:
            analyze(path, read_graph(path), args.long_run)
    else:
        analyze("bell", bell_gdag(), args.long_run)
        analyze("triangle", triangle_gdag(), args.long_run)
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("graphs", nargs="*", help="graph JSON files")
    ap.add_argument("--long-run", action="store_true")
    return guarded(analyze_all, ap.parse_args())


if __name__ == "__main__":
    sys.exit(main())
