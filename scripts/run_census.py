#!/usr/bin/env python3
"""Reproduce the classification census table.

Prints one CSV row per size: n, total isomorphism classes, classes where
the sufficient condition holds, irreducible survivors.  Survivor graphs
are printed as JSON on stderr for inspection.
"""

import argparse
import sys
import time

from gdag_lab.cli import CliError, guarded
from gdag_lab.enumeration import CENSUS_MAX_N, classification_census


def census_table(args) -> int:
    if not 1 <= args.max_n <= CENSUS_MAX_N:
        raise CliError(f"census supports 1 <= n <= {CENSUS_MAX_N}")
    print("n,total,condition_holds,survivors")
    for n in range(1, args.max_n + 1):
        t0 = time.monotonic()
        report = classification_census(n)
        dt = time.monotonic() - t0
        print(report.csv_row(), flush=True)
        print(f"# n={n} took {dt:.1f}s", file=sys.stderr)
        for g in report.survivors:
            print(f"  survivor: {g.to_json()}", file=sys.stderr)
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=5)
    return guarded(census_table, ap.parse_args())


if __name__ == "__main__":
    sys.exit(main())
