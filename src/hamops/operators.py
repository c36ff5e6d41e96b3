"""Tensor-shaped containers for (1+0) operators and metric geometry.

Every tensor of the package is stored densely as nested tuples of
expressions: ``g[i][j]`` for the leading coefficient, ``b[i][j][k]`` for the
first-order connection-like coefficient, ``omega[i][j]`` for the ultralocal
part, and likewise every residual tensor.  The helpers ``tensor``,
``zeros``, ``entrywise``, ``derivative`` and ``entries`` build, map,
differentiate and walk that layout, ``indexed`` walks the entries of a
tensor that is never built, and ``append_product`` builds every sum of
products in a tensor entry from its nonzero products, over the indices
``support`` finds where a factor can be nonzero.  An operator builds the
derivative tensors of its blocks (``dg``, ``db``, ``dw`` and the curl of
``b``) and the Levi-Civita data of ``g`` once, on first read, and every
check reads them there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import product

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
    Rat,
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


# ---------------------------------------------------------------------------
# tensors: nested tuples T[i1]...[ir] over range(n), visited lexicographically


def tensor(n: int, rank: int, entry):
    """``T[i1]...[i_rank] = entry(i1, ..., i_rank)`` for indices in range(n);
    ``entry`` is called in lexicographic order of the index tuples."""
    if rank == 1:
        return tuple(map(entry, range(n)))
    return tuple(tensor(n, rank - 1, partial(entry, i)) for i in range(n))


def zeros(n: int, rank: int):
    T = E.ZERO
    for _ in range(rank):
        T = (T,) * n
    return T


def entrywise(fn, *Ts):
    """``fn`` applied to the corresponding entries of equally shaped tensors
    (or to the tensors themselves when they are single entries)."""
    T = Ts[0]
    if not isinstance(T, (tuple, list)):
        return fn(*Ts)
    if not T or not isinstance(T[0], (tuple, list)):
        return tuple(map(fn, *Ts))
    return tuple(entrywise(fn, *xs) for xs in zip(*Ts))


def derivative(T, ctx: Context):
    """T with one more last index s: ``d/du^s`` of every entry, through one
    walker per variable, so equal subtrees of the entries are done once."""
    flat: list = []
    entrywise(flat.append, T)
    columns = zip(*(E.differentiate(tuple(flat), s, ctx) for s in ctx.variables))
    return entrywise(lambda _: next(columns), T)


def entries(T):
    """Yield ``(index tuple, entry)`` for every entry of T, lexicographically."""
    for i, x in enumerate(T):
        if isinstance(x, (tuple, list)):
            for idx, y in entries(x):
                yield (i, *idx), y
        else:
            yield (i,), x


def indexed(n: int, rank: int, entry):
    """Yield ``(index tuple, entry(*index tuple))`` for the index tuples over
    range(n), lexicographically: the entries of ``tensor(n, rank, entry)``,
    each built only when it is reached, so a consumer that keeps none of
    them holds one at a time."""
    for idx in product(range(n), repeat=rank):
        yield idx, entry(*idx)


def _is_zero(x) -> bool:
    return type(x) is Rat and not x.value


def append_product(terms: list, x, y, negate: bool = False) -> None:
    """Append ``x*y`` (``-(x*y)`` when ``negate``) unless a factor is ``0``.

    A skipped product would have been ``0``, which ``add`` drops, so the sum
    of ``terms`` is the same tree as with every product appended.
    """
    if _is_zero(x) or _is_zero(y):
        return
    p = mul(x, y)
    terms.append(neg(p) if negate else p)


def support(n: int, *rows) -> tuple:
    """The ``s`` in range(n) at which some ``row(s)`` is not ``0``.

    A contraction over ``s`` whose every product takes one factor from
    ``rows`` appends nothing through ``append_product`` at any other ``s``,
    so looping over the support builds the same terms in the same order.
    """
    return tuple(s for s in range(n) if not all(_is_zero(row(s)) for row in rows))


def matmul(M, N):
    """The matrix product ``(MN)[i][j] = sum_s M[i][s] N[s][j]``, its products
    appended in the order of s."""
    n = len(M)

    def entry(i, j):
        terms = []
        for s in range(n):
            append_product(terms, M[i][s], N[s][j])
        return add(*terms)

    return tensor(n, 2, entry)


def _freeze(T, n: int, rank: int):
    """T as nested tuples, checked to have ``n`` entries along every index."""

    def go(x, depth):
        if not isinstance(x, (tuple, list)) or len(x) != n:
            shape = "x".join([str(n)] * rank)
            raise DimensionMismatch(
                f"expected a {shape} {'matrix' if rank == 2 else 'array'}"
            )
        if depth == rank:
            return tuple(x)
        return tuple(go(y, depth + 1) for y in x)

    return go(T, 1)


@dataclass(frozen=True)
class NonHomogeneousOperator:
    """The (1+0) operator ``g d_x + b u_x + omega`` over one context: the
    first-order part (g, b) plus the ultralocal part omega."""

    ctx: Context
    g: tuple
    b: tuple
    omega: tuple

    def __post_init__(self):
        n = self.n
        if n > MAX_COMPONENTS:
            raise DimensionMismatch(f"component count {n} exceeds {MAX_COMPONENTS}")
        for name, rank in (("g", 2), ("b", 3), ("omega", 2)):
            object.__setattr__(self, name, _freeze(getattr(self, name), n, rank))

    @property
    def n(self) -> int:
        return len(self.ctx.variables)

    @cached_property
    def dg(self):
        """``dg[i][j][s] = d_s g^{ij}``, built on first read."""
        return derivative(self.g, self.ctx)

    @cached_property
    def db(self):
        """``db[i][j][k][s] = d_s b^{ij}_k``, built on first read."""
        return derivative(self.b, self.ctx)

    @cached_property
    def dw(self):
        """``dw[i][j][s] = d_s omega^{ij}``, built on first read."""
        return derivative(self.omega, self.ctx)

    @cached_property
    def curl(self):
        """``curl[j][r][k][s] = d_k b^{jr}_s - d_s b^{jr}_k``, built on first read."""
        db = self.db
        return tensor(self.n, 4, lambda j, r, k, s: add(db[j][r][s][k], neg(db[j][r][k][s])))

    @cached_property
    def levi_civita(self) -> MetricGeometry:
        """``christoffel(g)``, built on first read; raises DegenerateMetric
        when det g is identically zero."""
        return christoffel(self.g, self.ctx)


def operator(ctx: Context, g=None, b=None, omega=None) -> NonHomogeneousOperator:
    """Assemble a (1+0) operator; absent blocks default to zero."""
    n = len(ctx.variables)
    g = g if g is not None else zeros(n, 2)
    b = b if b is not None else zeros(n, 3)
    omega = omega if omega is not None else zeros(n, 2)
    return NonHomogeneousOperator(ctx, g, b, omega)


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
    plus = lambda x, y: add(x, mul(lam, y))
    return operator(
        ctx,
        entrywise(plus, A.g, B.g),
        entrywise(plus, A.b, B.b),
        entrywise(plus, A.omega, B.omega),
    )


# ---------------------------------------------------------------------------
# determinants, inverses, metric geometry


def determinant(m) -> Expr:
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


def adjugate(m):
    n = len(m)
    if n == 1:
        return ((E.ONE,),)

    def cofactor(j, i):
        sub = [[m[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
        cof = determinant(sub)
        return neg(cof) if (i + j) % 2 else cof

    return tensor(n, 2, cofactor)


def invert_metric(g, ctx: Context):
    """Inverse as adjugate/determinant; raises DegenerateMetric when det == 0."""
    det = determinant(g)
    if E.is_identically_zero(det, ctx):
        raise DegenerateMetric("metric determinant is identically zero")
    ring = E.Ring(ctx)
    return entrywise(lambda a: E.to_canonical(div(a, det), ctx, ring=ring), adjugate(g))


@dataclass(frozen=True)
class MetricGeometry:
    ctx: Context
    upper: tuple  # g^{ij} as supplied
    lower: tuple  # inverse metric g_{ij}
    gamma: tuple  # Christoffel symbols gamma[i][j][k] for the lower metric

    @cached_property
    def riemann(self):
        """Curvature R^i_{jkl} of the Levi-Civita connection."""
        n = len(self.upper)
        gamma = self.gamma
        dgamma = derivative(gamma, self.ctx)

        def entry(i, j, k, l):
            terms = [dgamma[i][l][j][k], neg(dgamma[i][k][j][l])]
            for s in range(n):
                append_product(terms, gamma[i][k][s], gamma[s][l][j])
                append_product(terms, gamma[i][l][s], gamma[s][k][j], negate=True)
            return add(*terms)

        return tensor(n, 4, entry)

    def is_flat(self) -> bool:
        return all(E.is_identically_zero(x, self.ctx) for _, x in entries(self.riemann))


def christoffel(g, ctx: Context) -> MetricGeometry:
    """Levi-Civita data of the contravariant metric g^{ij}."""
    n = len(g)
    lower = invert_metric(g, ctx)
    dlow = derivative(lower, ctx)
    half = E.rat(1, 2)

    def entry(i, j, k):
        terms = []
        for s in range(n):
            bracket = add(dlow[s][k][j], dlow[s][j][k], neg(dlow[j][k][s]))
            append_product(terms, mul(half, g[i][s]), bracket)
        return add(*terms)

    return MetricGeometry(ctx, _freeze(g, n, 2), lower, tensor(n, 3, entry))


def is_flat(g, ctx: Context) -> bool:
    return christoffel(g, ctx).is_flat()


# ---------------------------------------------------------------------------
# operator documents (JSON)


def is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _require_object(doc, what: str) -> dict:
    if not isinstance(doc, dict):
        raise ExprError(f"{what} must be a JSON object, found {json.dumps(doc)[:40]}")
    return doc


def _names(names, what: str) -> tuple:
    if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
        raise ExprError(f"{what} must be a list of names")
    return tuple(names)


def document_field(doc: dict, key: str, absent):
    """``doc[key]``, or ``absent`` when the key is missing or null.  Any other
    value, empty or not, is returned for the caller's type and shape checks."""
    value = doc.get(key)
    return absent if value is None else value


def _declarations(doc: dict, key: str) -> list:
    entries = document_field(doc, key, [])
    if not isinstance(entries, list):
        raise ExprError(f"{key} must be a list")
    return [_require_object(entry, f"an entry of {key}") for entry in entries]


def context_from_document(doc: dict) -> Context:
    variables = _names(document_field(doc, "variables", []), "variables")
    if "n" in doc:
        n = doc["n"]
        if not is_int(n) or not 1 <= n <= MAX_COMPONENTS:
            raise ExprError(
                f"n must be an integer from 1 to {MAX_COMPONENTS}, found {json.dumps(n)[:40]}"
            )
        if not variables:
            variables = tuple(f"u{i+1}" for i in range(n))
        elif n != len(variables):
            raise ExprError("field n disagrees with the variable list")
    if not variables:
        raise ExprError("document declares no component: give n or variables")
    parameters = _names(document_field(doc, "parameters", []), "parameters")
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
        gradient = document_field(entry, "gradient", {})
        if not isinstance(gradient, dict) or not set(gradient) <= set(variables):
            raise ExprError(
                f"gradient of {name} must be an object keyed by declared variables"
            )
        gradient = tuple(
            (var, parse(text, grad_ctx)) for var, text in sorted(gradient.items())
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
                parse(side, ctx) if side is not None else None,
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


def _parse_entries(data, depth: int, ctx: Context, block: str):
    if depth == 0:
        if isinstance(data, str):
            return parse(data, ctx)
        if is_int(data):
            return E.rat(data)
        raise ExprError(
            f"entry {json.dumps(data)} of {block} is neither an expression string nor an integer"
        )
    if not isinstance(data, list):
        raise ExprError(f"{block} must be nested lists of entries")
    return tuple(_parse_entries(x, depth - 1, ctx, block) for x in data)


def array_from_document(data, n: int, rank: int, ctx: Context, block: str):
    """Parse ``block``: ``rank`` levels of nested lists of length ``n`` whose
    leaves are expression strings or integers."""
    return _freeze(_parse_entries(data, rank, ctx, block), n, rank)


def operator_from_document(doc: dict, ctx: Context | None = None) -> NonHomogeneousOperator:
    _require_object(doc, "an operator block")
    ctx = ctx or context_from_document(doc)
    n = len(ctx.variables)
    g, b, om = (
        array_from_document(doc[key], n, rank, ctx, key) if doc.get(key) is not None else None
        for key, rank in (("g", 2), ("b", 3), ("omega", 2))
    )
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
                "min_poly": f"{a.name}^{a.power} - ({render(a.rhs, ctx)})",
                **(
                    {"gradient": {v: render(g, ctx) for v, g in a.gradient}}
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
                "solve_for": render(ctx.func_expr(a.func, a.orders), ctx),
                "rhs": render(a.rhs, ctx),
                **(
                    {"side_condition": render(a.side_condition, ctx)}
                    if a.side_condition is not None
                    else {}
                ),
            }
            for a in ctx.assumptions
        ]
    return doc


def array_to_document(T, ctx: Context):
    """T as nested lists of rendered entries, as ``array_from_document`` reads them."""
    return [array_to_document(x, ctx) for x in T] if isinstance(T, tuple) else render(T, ctx)


def _coeff_blocks(op: NonHomogeneousOperator) -> dict:
    """The blocks of op with a nonzero entry, rendered as nested lists."""
    return {
        key: array_to_document(T, op.ctx)
        for key, T in (("g", op.g), ("b", op.b), ("omega", op.omega))
        if any(x != E.ZERO for _, x in entries(T))
    }


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
