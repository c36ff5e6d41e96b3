"""Spans around the public functions of each hamops layer.

The tracer replaces a function by a timing wrapper in every hamops module
that binds it by name (``from .expr import render`` makes a second binding
in ``reports``), and a method once on its class.  ``remove`` restores every
original, so untraced passes run the unchanged program.

A span is pushed only by the outermost call of a name: a recursive call
(``Ring.to_rf`` calling itself) is counted but not timed again, and its time
stays with the enclosing span.  A span's self time is its duration minus
the part covered by its child spans.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "hamops"

# span name -> (module, attribute); "Class.method" patches the class.
TARGETS = (
    ("expr.to_rf", "expr", "Ring.to_rf"),
    ("expr.normalize", "expr", "to_canonical"),
    ("expr.normalize", "expr", "is_identically_zero"),
    ("expr.rewrite_assumptions", "expr", "rewrite_assumptions"),
    ("expr.differentiate", "expr", "differentiate"),
    ("expr.probabilistic_zero_test", "expr", "probabilistic_zero_test"),
    ("expr.parse", "expr", "parse"),
    ("expr.render", "expr", "render"),
    ("poly.pgcd", "poly", "pgcd"),
    ("hamiltonian.grinberg_conditions", "hamiltonian", "grinberg_conditions"),
    ("hamiltonian.jacobi_conditions", "hamiltonian", "jacobi_conditions"),
    ("hamiltonian.mixed_conditions", "hamiltonian", "mixed_conditions"),
    ("hamiltonian.is_hamiltonian", "hamiltonian", "is_hamiltonian"),
    ("compatibility.check_compatible", "compatibility", "check_compatible"),
    ("compatibility.pencil_hamiltonian_check", "compatibility", "pencil_hamiltonian_check"),
    ("geometry.bi_pencil_check", "geometry", "bi_pencil_check"),
    ("geometry.nijenhuis_torsion", "geometry", "nijenhuis_torsion"),
    ("geometry.check_nijnonhom_conditions", "geometry", "check_nijnonhom_conditions"),
    ("casimir.casimir_residuals", "casimir", "casimir_residuals"),
    ("reports.add", "reports", "ReportBuilder.add"),
    ("reports.build", "reports", "ReportBuilder.build"),
    ("operators.pair_from_document", "operators", "pair_from_document"),
    ("operators.pencil", "operators", "pencil"),
    ("catalog.load", "catalog", "load"),
    ("catalog.verify", "catalog", "verify"),
    ("cli.main", "cli", "main"),
)


class Stat:
    __slots__ = ("calls", "top_calls", "incl", "self_time")

    def __init__(self):
        self.calls = 0
        self.top_calls = 0
        self.incl = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.stats = defaultdict(Stat)
        self.events = defaultdict(int)
        self._stack = []  # [name, child seconds]
        self._active = defaultdict(int)
        self._undo = []

    def _hooks(self, name, mod):
        """Per-call event counters for spans that need more than timing."""
        if name == "poly.pgcd":
            def hook(args):
                a, b = args[0], args[1]
                if a and b and len(a) * len(b) > mod.GCD_SIZE_LIMIT:
                    self.events["poly.pgcd.size_guard_hits"] += 1
            return hook
        if name == "reports.add":
            zero = sys.modules[f"{PACKAGE}.expr"].ZERO

            def hook(args):
                if args[3] == zero:
                    self.events["reports.add.trivial_zero"] += 1
            return hook
        return None

    def _wrap(self, name, fn, hook, count_result):
        stats, stack, active, events = self.stats, self._stack, self._active, self.events

        def wrapper(*args, **kwargs):
            st = stats[name]
            st.calls += 1
            if hook is not None:
                hook(args)
            if active[name]:
                return fn(*args, **kwargs)
            active[name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                active[name] -= 1
                st.top_calls += 1
                st.incl += dur
                st.self_time += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if count_result:
                events["reports.build.records"] += len(result.conditions)
            return result

        return wrapper

    def install(self):
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        for name, modname, attr in TARGETS:
            mod = sys.modules[f"{PACKAGE}.{modname}"]
            hook = self._hooks(name, mod)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, original, hook, name == "reports.build"))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(name, original, hook, False)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._undo.append((m, key, original))

    def remove(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()
