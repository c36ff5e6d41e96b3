#!/usr/bin/env python3
"""Print one sha256 per ``--json`` report of the catalog.

Usage: python scripts/report_digest.py [entry ids...]

Runs ``ham --json check`` and ``ham --json nijenhuis`` on every operator
and Casimir fixture, ``ham --json compat``, ``bipencil`` and
``bipencil --strong`` on every pair, and ``ham --json nijenhuis --lie`` on
the exported document of every Lie structure, each in exact and numeric
mode at seeds 0 and 3.  Each line is the digest of the report (standard
output, then any error message), the exit code and the command, where a
Lie document is named ``catalog:<id>``, not by its temporary file.  Two
versions of the library print the same lines exactly when every report is
byte-identical, so one ``diff`` of the outputs compares them.  Entry ids
restrict the run to those entries.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from hamops import catalog
from hamops.cli import main as ham

COMMANDS = {
    "operator": (("check",), ("nijenhuis",)),
    "casimir-fixture": (("check",), ("nijenhuis",)),
    "pair": (("compat",), ("bipencil",), ("bipencil", "--strong")),
    "lie-structure": (("nijenhuis", "--lie"),),
}
MODES = ((), ("--numeric-only",))
SEEDS = (0, 3)


def commands(entry_ids, tmp):
    """Yield ``(argv, label)``; a Lie structure is exported to a file under
    ``tmp``, which its argv names and its label does not."""
    for entry_id, kind, _ in catalog.list_entries():
        if entry_ids and entry_id not in entry_ids:
            continue
        target = path = f"catalog:{entry_id}"
        if kind == "lie-structure":
            path = os.path.join(tmp, f"{entry_id}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(catalog.export(entry_id), fh)
        for command in COMMANDS.get(kind, ()):
            for mode in MODES:
                for seed in SEEDS:
                    argv = ["--json", *mode, "--seed", str(seed), *command]
                    yield [*argv, path], " ".join([*argv, target])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("ids", nargs="*", help="catalog entry ids (default: all)")
    args = parser.parse_args()
    known = {entry_id for entry_id, _, _ in catalog.list_entries()}
    unknown = sorted(set(args.ids) - known)
    if unknown:
        print(f"report_digest: unknown catalog ids: {', '.join(unknown)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        for argv, label in commands(set(args.ids), tmp):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = ham(argv)
            text = f"{out.getvalue()}\0{err.getvalue()}"
            digest = hashlib.sha256(text.encode()).hexdigest()
            print(f"{digest}  {code}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
