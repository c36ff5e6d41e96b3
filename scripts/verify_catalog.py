#!/usr/bin/env python3
"""Re-verify every catalog entry against its recorded verdicts.

Usage: python scripts/verify_catalog.py [--kind operator|pair|lie-structure|casimir-fixture]
"""

import argparse
import sys
import time

from hamops import catalog


def main() -> int:
    entries = catalog.list_entries()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--kind",
        default=None,
        choices=sorted({kind for _, kind, _ in entries}),
        help="restrict to one entry kind",
    )
    args = parser.parse_args()

    failures = []
    started = time.perf_counter()
    for entry_id, kind, title in entries:
        if args.kind and kind != args.kind:
            continue
        t0 = time.perf_counter()
        report = catalog.verify(entry_id)
        status = "ok" if report.verdict else "MISMATCH"
        print(f"{status:9s} {entry_id:34s} {kind:16s} {time.perf_counter() - t0:6.2f}s")
        if not report.verdict:
            failures.append(entry_id)
            for cond in report.conditions:
                if not cond.passed:
                    print(f"          {cond.cid}")
    print(f"\n{len(failures)} mismatches in {time.perf_counter() - started:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
