"""Independent reference for the expression round trips.

The input text and the normal form hamops rendered are both translated to
sympy by the rules below (each jet atom and each function value becomes a
fresh symbol, each algebraic symbol its real value), and their difference
must be zero.  The difference is put over one denominator, which is nonzero
by construction of the inputs, and its numerator expanded: sympy reduces
powers of the radicals as it multiplies, and 1, sqrt(3), 2**(1/3), ... are
independent over the rational functions of the symbols, so the expansion is
0 exactly when the difference is.  ``sympy.cancel`` alone is not enough: it
leaves ``(c*D(phi, x, y) - phi*D(phi, x, x))/(r + 3) + y^2*x/(r - 3)`` minus
its correct normal form unreduced.  Nothing here calls hamops.
"""

from __future__ import annotations

import re

_JET = re.compile(r"D\((\w+)((?:,\s*\w+)+)\)")


def available() -> bool:
    try:
        import sympy  # noqa: F401
    except ImportError:
        return False
    return True


class Reference:
    def __init__(self, contexts):
        import sympy

        self.sympy = sympy
        self.contexts = []
        for c in contexts:
            names = {a: sympy.sympify(v) for a, v in c["sympy"].items()}
            functions = [f["name"] for f in c["doc"]["opaque_functions"]]
            apply = re.compile(r"\b(%s)\(([^()]*)\)" % "|".join(functions))
            bare = re.compile(r"\b(%s)\b(?!\()" % "|".join(functions))
            self.contexts.append((names, apply, bare))

    def _to_sympy(self, index, text):
        names, apply, bare = self.contexts[index]

        def jet(m):
            slots = sorted(s.strip() for s in m.group(2).split(",") if s.strip())
            return f"J_{m.group(1)}_{'_'.join(slots)}"

        text = _JET.sub(jet, text)
        text = apply.sub(lambda m: f"F_{m.group(1)}", text)
        text = bare.sub(lambda m: f"F_{m.group(1)}", text)
        return self.sympy.sympify(text.replace("^", "**"), locals=dict(names))

    def agrees(self, index, original, normal) -> bool:
        diff = self._to_sympy(index, original) - self._to_sympy(index, normal)
        sp = self.sympy
        return sp.expand(sp.numer(sp.together(diff))) == 0
