"""Tensor-shaped containers for (1+0) operators and metric geometry.

Operators are stored densely as nested tuples of expressions:
``g[i][j]`` for the leading coefficient, ``b[i][j][k]`` for the first-order
connection-like coefficient, ``omega[i][j]`` for the ultralocal part.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from . import expr as E
from .expr import (
    AlgebraicSymbol,
    Assumption,
    Context,
    Expr,
    ExprError,
    Func,
    OpaqueFunction,
    Param,
    Var,
    add,
    div,
    mul,
    neg,
    parse,
    render,
)

MAX_COMPONENTS = 8


class DimensionMismatch(ExprError):
    pass


class DegenerateMetric(ExprError):
    pass


def _freeze_matrix(rows, n):
    rows = tuple(tuple(r) for r in rows)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise DimensionMismatch(f"expected a {n}x{n} matrix")
    return rows


def _freeze_cube(cube, n):
    cube = tuple(tuple(tuple(layer) for layer in row) for row in cube)
    if len(cube) != n or any(
        len(row) != n or any(len(layer) != n for layer in row) for row in cube
    ):
        raise DimensionMismatch(f"expected a {n}x{n}x{n} array")
    return cube


def zeros_matrix(n):
    return tuple(tuple(E.ZERO for _ in range(n)) for _ in range(n))


def zeros_cube(n):
    return tuple(
        tuple(tuple(E.ZERO for _ in range(n)) for _ in range(n)) for _ in range(n)
    )


@dataclass(frozen=True)
class FirstOrderOperator:
    ctx: Context
    g: tuple
    b: tuple

    def __post_init__(self):
        n = self.n
        if n > MAX_COMPONENTS:
            raise DimensionMismatch(f"component count {n} exceeds {MAX_COMPONENTS}")
        object.__setattr__(self, "g", _freeze_matrix(self.g, n))
        object.__setattr__(self, "b", _freeze_cube(self.b, n))

    @property
    def n(self) -> int:
        return len(self.ctx.variables)

    def is_zero(self) -> bool:
        return all(
            E.is_identically_zero(self.g[i][j], self.ctx)
            for i in range(self.n)
            for j in range(self.n)
        ) and all(
            E.is_identically_zero(self.b[i][j][k], self.ctx)
            for i in range(self.n)
            for j in range(self.n)
            for k in range(self.n)
        )


@dataclass(frozen=True)
class UltralocalOperator:
    ctx: Context
    omega: tuple

    def __post_init__(self):
        object.__setattr__(self, "omega", _freeze_matrix(self.omega, self.n))

    @property
    def n(self) -> int:
        return len(self.ctx.variables)


@dataclass(frozen=True)
class NonHomogeneousOperator:
    first: FirstOrderOperator
    zero: UltralocalOperator

    def __post_init__(self):
        if self.first.ctx is not self.zero.ctx and self.first.ctx != self.zero.ctx:
            raise DimensionMismatch("first-order and ultralocal parts need one context")

    @property
    def ctx(self) -> Context:
        return self.first.ctx

    @property
    def n(self) -> int:
        return self.first.n

    @property
    def g(self):
        return self.first.g

    @property
    def b(self):
        return self.first.b

    @property
    def omega(self):
        return self.zero.omega


def operator(ctx: Context, g=None, b=None, omega=None) -> NonHomogeneousOperator:
    """Assemble a (1+0) operator; absent blocks default to zero."""
    n = len(ctx.variables)
    g = g if g is not None else zeros_matrix(n)
    b = b if b is not None else zeros_cube(n)
    omega = omega if omega is not None else zeros_matrix(n)
    return NonHomogeneousOperator(
        FirstOrderOperator(ctx, g, b), UltralocalOperator(ctx, omega)
    )


def pencil(
    A: NonHomogeneousOperator, B: NonHomogeneousOperator, param: str
) -> NonHomogeneousOperator:
    """Entrywise A + param*B over a context where ``param`` is declared."""
    if A.n != B.n:
        raise DimensionMismatch("pencil needs operators of equal component count")
    if A.ctx != B.ctx:
        raise DimensionMismatch("pencil needs operators over one context")
    ctx = A.ctx if param in A.ctx.parameters else A.ctx.with_parameters(param)
    lam = Param(param)
    n = A.n
    g = [[add(A.g[i][j], mul(lam, B.g[i][j])) for j in range(n)] for i in range(n)]
    b = [
        [
            [add(A.b[i][j][k], mul(lam, B.b[i][j][k])) for k in range(n)]
            for j in range(n)
        ]
        for i in range(n)
    ]
    om = [
        [add(A.omega[i][j], mul(lam, B.omega[i][j])) for j in range(n)]
        for i in range(n)
    ]
    return operator(ctx, g, b, om)


# ---------------------------------------------------------------------------
# determinants, inverses, metric geometry


def determinant(m, ctx: Context) -> Expr:
    n = len(m)
    memo: dict = {}

    def minor(rows: tuple, cols: tuple) -> Expr:
        if len(rows) == 1:
            return m[rows[0]][cols[0]]
        key = (rows, cols)
        hit = memo.get(key)
        if hit is not None:
            return hit
        i = rows[0]
        rest = rows[1:]
        terms = []
        for pos, j in enumerate(cols):
            entry = m[i][j]
            if entry == E.ZERO:
                continue
            sub = minor(rest, cols[:pos] + cols[pos + 1 :])
            term = mul(entry, sub)
            terms.append(term if pos % 2 == 0 else neg(term))
        out = add(*terms) if terms else E.ZERO
        memo[key] = out
        return out

    idx = tuple(range(n))
    return minor(idx, idx)


def adjugate(m, ctx: Context):
    n = len(m)
    if n == 1:
        return ((E.ONE,),)
    out = [[E.ZERO] * n for _ in range(n)]
    rows = tuple(range(n))
    for i in range(n):
        for j in range(n):
            sub = [
                [m[r][c] for c in rows if c != j]
                for r in rows
                if r != i
            ]
            cof = determinant(sub, ctx)
            if (i + j) % 2:
                cof = neg(cof)
            out[j][i] = cof
    return tuple(tuple(r) for r in out)


def invert_metric(g, ctx: Context):
    """Inverse as adjugate/determinant; raises DegenerateMetric when det == 0."""
    det = determinant(g, ctx)
    if E.is_identically_zero(det, ctx):
        raise DegenerateMetric("metric determinant is identically zero")
    adj = adjugate(g, ctx)
    n = len(g)
    return tuple(
        tuple(E.normalize(div(adj[i][j], det), ctx) for j in range(n)) for i in range(n)
    )


@dataclass(frozen=True)
class MetricGeometry:
    ctx: Context
    upper: tuple  # g^{ij} as supplied
    lower: tuple  # inverse metric g_{ij}
    gamma: tuple  # Christoffel symbols gamma[i][j][k] for the lower metric

    @cached_property
    def riemann(self):
        """Curvature R^i_{jkl} of the Levi-Civita connection."""
        ctx = self.ctx
        n = len(self.upper)
        names = ctx.variables
        dgamma = [
            [
                [
                    [E.differentiate(self.gamma[i][j][k], names[m], ctx) for m in range(n)]
                    for k in range(n)
                ]
                for j in range(n)
            ]
            for i in range(n)
        ]
        out = []
        for i in range(n):
            plane = []
            for j in range(n):
                row = []
                for k in range(n):
                    entries = []
                    for l in range(n):
                        terms = [dgamma[i][l][j][k], neg(dgamma[i][k][j][l])]
                        for s in range(n):
                            terms.append(mul(self.gamma[i][k][s], self.gamma[s][l][j]))
                            terms.append(neg(mul(self.gamma[i][l][s], self.gamma[s][k][j])))
                        entries.append(add(*terms))
                    row.append(tuple(entries))
                plane.append(tuple(row))
            out.append(tuple(plane))
        return tuple(out)

    def is_flat(self) -> bool:
        n = len(self.upper)
        R = self.riemann
        return all(
            E.is_identically_zero(R[i][j][k][l], self.ctx)
            for i in range(n)
            for j in range(n)
            for k in range(n)
            for l in range(n)
        )


def christoffel(g, ctx: Context) -> MetricGeometry:
    """Levi-Civita data of the contravariant metric g^{ij}."""
    n = len(g)
    lower = invert_metric(g, ctx)
    names = ctx.variables
    dlow = [
        [
            [E.differentiate(lower[i][j], names[k], ctx) for k in range(n)]
            for j in range(n)
        ]
        for i in range(n)
    ]
    gamma = []
    for i in range(n):
        plane = []
        for j in range(n):
            row = []
            for k in range(n):
                terms = []
                for s in range(n):
                    bracket = add(dlow[s][k][j], dlow[s][j][k], neg(dlow[j][k][s]))
                    terms.append(mul(E.rat(1, 2), g[i][s], bracket))
                row.append(add(*terms) if terms else E.ZERO)
            plane.append(tuple(row))
        gamma.append(tuple(plane))
    return MetricGeometry(ctx, _freeze_matrix(g, n), lower, tuple(gamma))


def is_flat(g, ctx: Context) -> bool:
    return christoffel(g, ctx).is_flat()


# ---------------------------------------------------------------------------
# operator documents (JSON)


def _require_object(doc, what: str) -> dict:
    if not isinstance(doc, dict):
        raise ExprError(f"{what} must be a JSON object, found {json.dumps(doc)[:40]}")
    return doc


def _names(names, what: str) -> tuple:
    if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
        raise ExprError(f"{what} must be a list of names")
    return tuple(names)


def _declarations(doc: dict, key: str) -> list:
    entries = doc.get(key) or []
    if not isinstance(entries, list):
        raise ExprError(f"{key} must be a list")
    return [_require_object(entry, f"an entry of {key}") for entry in entries]


def context_from_document(doc: dict) -> Context:
    variables = _names(doc.get("variables") or [], "variables")
    if not variables:
        n = int(doc.get("n", 0))
        variables = tuple(f"u{i+1}" for i in range(n))
    if "n" in doc and int(doc["n"]) != len(variables):
        raise ExprError("field n disagrees with the variable list")
    parameters = _names(doc.get("parameters") or [], "parameters")
    ctx = Context(variables, parameters)
    algebraics = []
    for entry in _declarations(doc, "algebraic_constants"):
        name = entry["name"]
        power, rhs = _parse_min_poly(name, entry["min_poly"], ctx)
        grad_ctx = Context(
            variables,
            parameters,
            tuple(algebraics) + (AlgebraicSymbol(name, power, rhs),),
        )
        gradient = tuple(
            (var, parse(text, grad_ctx))
            for var, text in sorted((entry.get("gradient") or {}).items())
        )
        algebraics.append(AlgebraicSymbol(name, power, rhs, gradient))
        ctx = Context(variables, parameters, tuple(algebraics))
    functions = tuple(
        OpaqueFunction(entry["name"], _names(entry["args"], "args"))
        for entry in _declarations(doc, "opaque_functions")
    )
    ctx = Context(variables, parameters, tuple(algebraics), functions)
    assumptions = []
    for entry in _declarations(doc, "assumptions"):
        target = parse(entry["solve_for"], ctx)
        if not isinstance(target, Func) or sum(target.orders) < 1:
            raise ExprError(f"assumption target {entry['solve_for']!r} is not a jet")
        side = entry.get("side_condition")
        assumptions.append(
            Assumption(
                target.name,
                target.orders,
                parse(entry["rhs"], ctx),
                parse(side, ctx) if side else None,
            )
        )
    return Context(variables, parameters, tuple(algebraics), functions, tuple(assumptions))


def _parse_min_poly(name: str, text: str, base: Context):
    probe = Context(
        base.variables, base.parameters + (name,), base.algebraics, base.functions
    )
    e = parse(text, probe)
    coeffs = E.coefficients_in(e, name, probe)
    power = len(coeffs) - 1
    if power < 2:
        raise ExprError(f"minimal polynomial of {name} must have degree >= 2")
    if not E.is_identically_zero(coeffs[power] - E.ONE, probe):
        raise ExprError(f"minimal polynomial of {name} must be monic")
    for mid in coeffs[1:power]:
        if not E.is_identically_zero(mid, probe):
            raise ExprError(
                f"minimal polynomial of {name} must be a pure power relation"
            )
    rhs = E.normalize(neg(coeffs[0]), probe)
    for leaf in E.walk_leaves(rhs):
        if isinstance(leaf, Param) and leaf.name == name:
            raise ExprError(f"minimal polynomial of {name} is not solvable")
    return power, rhs


def _array_from_document(entries, depth: int, ctx: Context, block: str):
    """Parse ``depth`` levels of nested lists whose leaves are expression
    strings or integers."""
    if depth == 0:
        if isinstance(entries, str):
            return parse(entries, ctx)
        if isinstance(entries, int) and not isinstance(entries, bool):
            return E.rat(entries)
        raise ExprError(
            f"entry {json.dumps(entries)} of {block} is neither an expression string nor an integer"
        )
    if not isinstance(entries, list):
        raise ExprError(f"{block} must be nested lists of entries")
    return tuple(_array_from_document(x, depth - 1, ctx, block) for x in entries)


def operator_from_document(doc: dict, ctx: Context | None = None) -> NonHomogeneousOperator:
    _require_object(doc, "an operator block")
    ctx = ctx or context_from_document(doc)
    g = _array_from_document(doc["g"], 2, ctx, "g") if doc.get("g") else None
    b = _array_from_document(doc["b"], 3, ctx, "b") if doc.get("b") else None
    om = _array_from_document(doc["omega"], 2, ctx, "omega") if doc.get("omega") else None
    return operator(ctx, g, b, om)


def pair_from_document(doc: dict):
    ctx = context_from_document(doc)
    if "A" not in doc or "B" not in doc:
        raise ExprError("pair document needs A and B blocks")
    A = operator_from_document(doc["A"], ctx)
    B = operator_from_document(doc["B"], ctx)
    return A, B


def context_to_document(ctx: Context) -> dict:
    doc: dict = {"n": len(ctx.variables), "variables": list(ctx.variables)}
    if ctx.parameters:
        doc["parameters"] = list(ctx.parameters)
    if ctx.algebraics:
        doc["algebraic_constants"] = [
            {
                "name": a.name,
                "min_poly": f"{a.name}^{a.power} - ({render(a.rhs)})",
                **(
                    {"gradient": {v: render(g) for v, g in a.gradient}}
                    if a.gradient
                    else {}
                ),
            }
            for a in ctx.algebraics
        ]
    if ctx.functions:
        doc["opaque_functions"] = [
            {"name": f.name, "args": list(f.args)} for f in ctx.functions
        ]
    if ctx.assumptions:
        doc["assumptions"] = [
            {
                "solve_for": render(Func(a.func, a.orders, tuple(Var(x) for x in ctx.function(a.func).args))),
                "rhs": render(a.rhs),
                **(
                    {"side_condition": render(a.side_condition)}
                    if a.side_condition is not None
                    else {}
                ),
            }
            for a in ctx.assumptions
        ]
    return doc


def _coeff_blocks(op: NonHomogeneousOperator) -> dict:
    n = op.n
    blocks: dict = {}
    if any(op.g[i][j] != E.ZERO for i in range(n) for j in range(n)):
        blocks["g"] = [[render(op.g[i][j]) for j in range(n)] for i in range(n)]
    if any(
        op.b[i][j][k] != E.ZERO for i in range(n) for j in range(n) for k in range(n)
    ):
        blocks["b"] = [
            [[render(op.b[i][j][k]) for k in range(n)] for j in range(n)]
            for i in range(n)
        ]
    if any(op.omega[i][j] != E.ZERO for i in range(n) for j in range(n)):
        blocks["omega"] = [
            [render(op.omega[i][j]) for j in range(n)] for i in range(n)
        ]
    return blocks


def operator_to_document(op: NonHomogeneousOperator) -> dict:
    doc = context_to_document(op.ctx)
    doc.update(_coeff_blocks(op))
    return doc


def pair_to_document(A: NonHomogeneousOperator, B: NonHomogeneousOperator) -> dict:
    doc = context_to_document(A.ctx)
    doc["A"] = _coeff_blocks(A)
    doc["B"] = _coeff_blocks(B)
    return doc


def load_document(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return _require_object(json.load(fh), "a document")
