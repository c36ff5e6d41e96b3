#!/usr/bin/env python3
"""Rewrite golden.json: the sha256 of every ``ham --json`` output the
benchmark can produce for the default seed, and of the document each call
reads.  Refuses to write when any output misses its known answer.

    python3 perfbench/capture_golden.py
"""

import json
import os
import shutil
import sys

import run
import workloads


def main():
    calls = {}
    failures = []
    for name in workloads.WORKLOADS:
        workdir = os.path.join(run.ROOT, ".bench_work", f"golden-{name}")
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        try:
            passes = workloads.set_up(name, run.Ham(), run.DEFAULT_SEED, workdir)
            for call in (c for p in passes for c in p if c.golden):
                if call.golden in calls:
                    continue
                rc, out = call.run()
                if not call.check(rc, out):
                    failures.append(call.row)
                entry = {"out": run.sha(out)}
                if call.doc_text is not None:
                    entry["doc"] = run.sha(call.doc_text)
                calls[call.golden] = entry
                print(call.golden, rc, file=sys.stderr)
        finally:
            run.remove_workdir(workdir)
    if failures:
        print("known answers missed:", ", ".join(failures), file=sys.stderr)
        return 1
    with open(os.path.join(run.HERE, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump({"seed": run.DEFAULT_SEED, "calls": calls}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
