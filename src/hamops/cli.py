"""Command-line front end producing human- and machine-readable reports.

Exit codes: 0 all checks pass, 1 a check failed, 2 input or usage error.
With ``--json`` the structured report goes to standard output and is
byte-identical across re-runs with the same seed (timings are suppressed).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import ExitStack

from . import catalog
from . import expr as E
from .casimir import COLUMNS, CasimirCandidate, casimir_report
from .compatibility import check_pair
from .expr import ExprError
from .geometry import (
    affinor_from_bivector,
    affinor_from_lie,
    bi_pencil_check,
    check_nijnonhom_conditions,
    lie_from_document,
    strong_bi_pencil_check,
    torsion_report,
)
from .hamiltonian import is_hamiltonian
from .operators import load_document, operator_from_document, pair_from_document
from .reports import CheckReport, Condition


class UsageError(Exception):
    pass


def _load_operator(ref: str):
    if ref.startswith("catalog:"):
        entry = catalog.load(ref[len("catalog:"):])
        if entry.kind not in ("operator", "casimir-fixture"):
            raise UsageError(f"catalog entry {entry.entry_id!r} is not an operator")
        return entry.payload["operator"]
    return operator_from_document(load_document(ref))


def _load_pair(ref: str):
    if ref.startswith("catalog:"):
        entry = catalog.load(ref[len("catalog:"):])
        if entry.kind != "pair":
            raise UsageError(f"catalog entry {entry.entry_id!r} is not a pair")
        return entry.payload["A"], entry.payload["B"]
    return pair_from_document(load_document(ref))


def _emit(report: CheckReport, args) -> int:
    """Print ``report``; plain output times the command from ``args.started``."""
    elapsed_ms = int((time.perf_counter() - args.started) * 1000)
    if args.json:
        data = report.to_dict()
        data["timing_ms"] = None  # suppressed so reruns are byte-identical
        sys.stdout.write(json.dumps(data, indent=2, sort_keys=True) + "\n")
    else:
        for line in report.summary_lines():
            print(line)
        print(f"timing_ms: {elapsed_ms}")
    return 0 if report.verdict else 1


def _cmd_check(args) -> int:
    op = _load_operator(args.target)
    return _emit(is_hamiltonian(op), args)


def _cmd_compat(args) -> int:
    A, B = _load_pair(args.target)
    pair = check_pair(A, B)
    agree = pair.tensor.verdict == pair.oracle.verdict
    merged = pair.tensor.merged(pair.oracle.prefixed("oracle"))
    merged.conditions.append(
        Condition("oracle-agreement", (), "0" if agree else "1", agree)
    )
    return _emit(merged, args)


def _cmd_casimir(args) -> int:
    op = _load_operator(args.target)
    density = E.parse(args.density, op.ctx)
    report = casimir_report(op, CasimirCandidate(op.ctx, density), args.column)
    return _emit(report, args)


def _cmd_nijenhuis(args) -> int:
    if args.lie:
        s, eta, ctx = lie_from_document(load_document(args.lie))
        report = check_nijnonhom_conditions(s)
        if eta is not None:
            report = report.merged(torsion_report(affinor_from_lie(s, eta, ctx), ctx))
        return _emit(report, args)
    op = _load_operator(args.target)
    L = affinor_from_bivector(op.g, op.omega, op.ctx)
    return _emit(torsion_report(L, op.ctx), args)


def _cmd_bipencil(args) -> int:
    A, B = _load_pair(args.target)
    report = strong_bi_pencil_check(A, B) if args.strong else bi_pencil_check(A, B)
    return _emit(report, args)


def _cmd_catalog(args) -> int:
    action = args.action
    if action == "list":
        rows = catalog.list_entries()
        if args.json:
            data = [
                {"id": eid, "kind": kind, "title": title} for eid, kind, title in rows
            ]
            sys.stdout.write(json.dumps(data, indent=2, sort_keys=True) + "\n")
        else:
            for eid, kind, title in rows:
                print(f"{eid:32s} {kind:16s} {title}")
        return 0
    if args.id is None:
        raise UsageError(f"catalog {action} needs an entry id")
    if action == "show":
        entry = catalog.load(args.id)
        data = {
            "id": entry.entry_id,
            "kind": entry.kind,
            "title": entry.title,
            "expected": entry.expected,
        }
        if entry.notes:
            data["notes"] = entry.notes
        if args.json:
            sys.stdout.write(json.dumps(data, indent=2, sort_keys=True) + "\n")
        else:
            for key, value in data.items():
                print(f"{key}: {value}")
        return 0
    if action == "verify":
        return _emit(catalog.verify(args.id), args)
    if action == "export":
        sys.stdout.write(json.dumps(catalog.export(args.id), indent=2, sort_keys=True) + "\n")
        return 0
    raise UsageError(f"unknown catalog action {action!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ham",
        description="Exact symbolic checks for non-homogeneous hydrodynamic Hamiltonian operators.",
    )
    parser.add_argument("--json", action="store_true", help="structured report on stdout")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    parser.add_argument(
        "--numeric-only",
        action="store_true",
        help="skip exact normalization; decide residuals by seeded rational sampling",
    )
    parser.add_argument(
        "--max-degree", type=int, default=None, help="abort when expansion exceeds this total degree"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="Hamiltonianity report for an operator")
    p.add_argument("target", help="operator document path or catalog:<id>")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("compat", help="compatibility report for a pair")
    p.add_argument("target", help="pair document path or catalog:<id>")
    p.set_defaults(func=_cmd_compat)

    p = sub.add_parser("casimir", help="Casimir candidate report")
    p.add_argument("target", help="operator document path or catalog:<id>")
    p.add_argument("--density", required=True, help="candidate density expression")
    p.add_argument("--column", default="C10", choices=COLUMNS)
    p.set_defaults(func=_cmd_casimir)

    p = sub.add_parser("nijenhuis", help="torsion / algebraic-condition report")
    p.add_argument("target", nargs="?", help="operator document path or catalog:<id>")
    p.add_argument("--lie", help="Lie-structure document path")
    p.set_defaults(func=_cmd_nijenhuis)

    p = sub.add_parser("bipencil", help="bi-pencil report for a pair")
    p.add_argument("target", help="pair document path or catalog:<id>")
    p.add_argument("--strong", action="store_true")
    p.set_defaults(func=_cmd_bipencil)

    p = sub.add_parser("catalog", help="built-in verified catalog")
    p.add_argument("action", choices=("list", "show", "verify", "export"))
    p.add_argument("id", nargs="?")
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "nijenhuis" and (args.lie is None) == (args.target is None):
        print("ham: nijenhuis needs an operator target or --lie, not both", file=sys.stderr)
        return 2
    try:
        with ExitStack() as stack:
            if args.numeric_only:
                stack.enter_context(E.numeric_zero_mode(seed=args.seed, trials=12))
            if args.max_degree is not None:
                stack.enter_context(E.expansion_guard(args.max_degree))
            args.started = time.perf_counter()
            return args.func(args)
    except (
        UsageError,
        ExprError,
        OSError,
        KeyError,
        ValueError,
        RecursionError,
    ) as exc:
        msg = str(exc) or type(exc).__name__
        print(f"ham: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
