"""Verification of hydrodynamic Casimir candidates.

Candidates are densities depending on the field variables only (opaque
functions of the fields are allowed).  They are verified, never derived;
the one derivation aid is a degree-bounded polynomial-ansatz solver used as
an independent oracle for the linear-Casimir statement about operators in
constant form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement

from . import expr as E
from . import poly
from .expr import Context, Expr, add, div, mul, neg
from .operators import (
    NonHomogeneousOperator,
    append_product,
    derivative,
    entries,
    operator,
    tensor,
)
from .reports import CheckReport, condition_report

COLUMNS = ("C0", "C1", "C10")


@dataclass(frozen=True)
class CasimirCandidate:
    ctx: Context
    density: Expr

    @cached_property
    def gradient(self):
        return derivative(self.density, self.ctx)

    @cached_property
    def hessian(self):
        return derivative(self.gradient, self.ctx)


def casimir_residuals(op: NonHomogeneousOperator, F: CasimirCandidate):
    """(first-order residual grid, ultralocal residual vector).

    The first-order residual at (i, k) is the coefficient of the k-th field
    derivative in the action of the first-order part on the gradient of F;
    the ultralocal residual is the plain matrix action on the gradient.
    """
    n = op.n
    grad = F.gradient
    hess = F.hessian

    def first(i, k):
        terms = []
        for j in range(n):
            append_product(terms, op.g[i][j], hess[j][k])
        for j in range(n):
            append_product(terms, op.b[i][j][k], grad[j])
        return add(*terms)

    def zero(i):
        terms = []
        for j in range(n):
            append_product(terms, op.omega[i][j], grad[j])
        return add(*terms)

    return tensor(n, 2, first), tensor(n, 1, zero)


def _families(op: NonHomogeneousOperator, F: CasimirCandidate, column: str) -> list:
    """The condition families of a column: the first-order part (C1), the
    ultralocal part (C0), or both (C10)."""
    if column not in COLUMNS:
        raise ValueError(f"column must be one of {COLUMNS}")
    first, zero = casimir_residuals(op, F)
    families = []
    if column in ("C1", "C10"):
        families.append(("casimir-first-order", entries(first)))
    if column in ("C0", "C10"):
        families.append(("casimir-ultralocal", entries(zero)))
    return families


def casimir_report(
    op: NonHomogeneousOperator, F: CasimirCandidate, column: str = "C10"
) -> CheckReport:
    """Check a candidate against the first-order part (C1), the ultralocal
    part (C0), or the full operator (C10)."""
    return condition_report(op.ctx, *_families(op, F, column))


def is_casimir(op: NonHomogeneousOperator, F: CasimirCandidate, column: str = "C10") -> bool:
    return casimir_report(op, F, column).verdict


# ---------------------------------------------------------------------------
# the degenerate three-component case analysis

C32_CASES = ("f=0", "f=g=0", "f=h=0", "g=0", "g=h=0", "h=0")


class CaseAnalysisError(ValueError):
    pass


def _closure_residual(ctx, f, g, h):
    dv = lambda x: E.differentiate(x, ctx.variables[1], ctx)
    dw = lambda x: E.differentiate(x, ctx.variables[2], ctx)
    return add(mul(f, dv(h)), neg(mul(h, dv(f))), mul(g, dw(h)), neg(mul(h, dw(g))))


def c32_operator(ctx: Context, f: Expr, g: Expr, h: Expr) -> NonHomogeneousOperator:
    """Degenerate three-component operator with a single first-order slot and
    a (v, w)-dependent ultralocal block."""
    z = E.ZERO
    gmat = ((E.ONE, z, z), (z, z, z), (z, z, z))
    om = ((z, f, g), (neg(f), z, h), (neg(g), neg(h), z))
    return operator(ctx, g=gmat, omega=om)


def degenerate_c32_casimir_case(
    case: str,
    ctx: Context,
    f: Expr,
    g: Expr,
    h: Expr,
    antiderivative: Expr | None = None,
    first_integral: Expr | None = None,
) -> CasimirCandidate:
    """Return the verified Casimir candidate for one case of the degenerate
    three-component analysis.

    The instantiation must satisfy the closure relation.  Cases eliminating
    an integral require the caller to supply the antiderivative, which is
    validated by differentiation; the final candidate is checked against the
    full operator before being returned.
    """
    if case not in C32_CASES:
        raise CaseAnalysisError(f"unknown case {case!r}")
    u, v, w = (ctx.var(nm) for nm in ctx.variables[:3])
    names = ctx.variables
    if not E.is_identically_zero(_closure_residual(ctx, f, g, h), ctx):
        raise CaseAnalysisError("instantiation violates the closure relation")

    fgh = {"f": f, "g": g, "h": h}
    for who in case.split("=")[:-1]:  # "f=g=0" -> f, then g
        if not E.is_identically_zero(fgh[who], ctx):
            raise CaseAnalysisError(f"case {case!r} requires {who} = 0")
    if case in ("f=0", "g=0"):
        # f = 0 integrates g/h along the second variable, g = 0 integrates
        # f/h along the third
        top, along, which = ("g", 1, "second") if case == "f=0" else ("f", 2, "third")
        if E.is_identically_zero(h, ctx):
            raise CaseAnalysisError(f"case {case!r} requires h != 0")
        ratio = div(fgh[top], h)
        if not E.is_identically_zero(E.differentiate(ratio, names[3 - along], ctx), ctx):
            raise CaseAnalysisError(f"{top}/h must depend on the {which} variable only")
        if antiderivative is None:
            raise CaseAnalysisError(f"supply the antiderivative of {top}/h")
        check = add(E.differentiate(antiderivative, names[along], ctx), neg(ratio))
        if not E.is_identically_zero(check, ctx):
            raise CaseAnalysisError(f"antiderivative does not differentiate to {top}/h")
        # verified orientation: for g = 0 the transport equation couples the
        # first and third slots with opposite relative sign, so the integral
        # enters with a plus (see DISCREPANCIES.md)
        density = add(u, neg(antiderivative) if case == "f=0" else antiderivative)
    elif case == "f=g=0":
        density = u
    elif case in ("f=h=0", "g=h=0"):
        density = _opaque_of(ctx, names[1 if case == "f=h=0" else 2])
    else:  # h=0
        if first_integral is None:
            raise CaseAnalysisError("supply a first integral of f*F_v + g*F_w = 0")
        resid = add(
            mul(f, E.differentiate(first_integral, names[1], ctx)),
            mul(g, E.differentiate(first_integral, names[2], ctx)),
        )
        if not E.is_identically_zero(resid, ctx):
            raise CaseAnalysisError("first integral does not solve the transport equation")
        if not E.is_identically_zero(
            E.differentiate(first_integral, names[0], ctx), ctx
        ):
            raise CaseAnalysisError("first integral must not depend on the first variable")
        density = first_integral

    candidate = CasimirCandidate(ctx, density)
    op = c32_operator(ctx, f, g, h)
    if not is_casimir(op, candidate, "C10"):
        raise CaseAnalysisError("constructed candidate failed the full-operator check")
    return candidate


def _opaque_of(ctx: Context, var: str) -> Expr:
    """phi(x) with phi opaque, declaring phi on demand if the context has it."""
    for fn in ctx.functions:
        if fn.args == (var,):
            return ctx.func_expr(fn.name)
    raise CaseAnalysisError(
        f"context needs an opaque function of ({var},) for this case"
    )


# ---------------------------------------------------------------------------
# polynomial-ansatz oracle


def _monomials_up_to(n: int, degree: int):
    """Index tuples of the monomials of degree 0..degree, by degree and then
    lexicographically."""
    return [m for d in range(degree + 1) for m in combinations_with_replacement(range(n), d)]


def polynomial_casimirs(op: NonHomogeneousOperator, max_degree: int, column: str = "C10"):
    """All polynomial Casimir densities of bounded degree, by exact linear
    algebra over monomial coefficients.  Operator entries must be polynomial.

    Returns a basis of densities (the constant density is always present).
    """
    ctx = op.ctx
    n = op.n
    monos = _monomials_up_to(n, max_degree)
    us = [ctx.var(name) for name in ctx.variables]

    rows: dict = {}
    # one ring for every residual, so that a monomial has the same atom
    # indices, and hence the same row, in every column
    ring = E.Ring(ctx)

    def accumulate(col: int, residual: Expr, slot):
        num, den = ring.to_rf(E.rewrite_assumptions(residual, ctx))
        if den != poly.const_poly(1):
            raise ValueError("polynomial-ansatz oracle needs polynomial residuals")
        for m, cval in num.items():
            row = rows.setdefault((slot, m), {})
            row[col] = row.get(col, Fraction(0)) + cval

    for col, m in enumerate(monos):
        density = mul(*[us[i] for i in m]) if m else E.ONE
        for cid, pairs in _families(op, CasimirCandidate(ctx, density), column):
            for idx, x in pairs:
                accumulate(col, x, (cid, *idx))

    ncols = len(monos)
    matrix = [[row.get(c, Fraction(0)) for c in range(ncols)] for row in rows.values()]
    basis = _nullspace(matrix, ncols)
    out = []
    for vec in basis:
        density = add(
            *[
                mul(E.rat(vec[c]), mul(*[us[i] for i in monos[c]]) if monos[c] else E.ONE)
                for c in range(ncols)
                if vec[c] != 0
            ]
        )
        out.append(E.normalize(density, ctx))
    return out


def _nullspace(matrix, ncols):
    rows = [list(r) for r in matrix]
    pivots = poly.rref(rows, ncols)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for rr, pc in enumerate(pivots):
            vec[pc] = -rows[rr][fc]
        basis.append(vec)
    return basis


def densities_are_affine(densities, ctx: Context) -> bool:
    """True when every density in the list is an affine function of the fields."""
    for density in densities:
        for name in ctx.variables:
            d1 = E.differentiate(density, name, ctx)
            for name2 in ctx.variables:
                if not E.is_identically_zero(E.differentiate(d1, name2, ctx), ctx):
                    return False
    return True


__all__ = [
    "C32_CASES",
    "COLUMNS",
    "CaseAnalysisError",
    "CasimirCandidate",
    "c32_operator",
    "casimir_report",
    "casimir_residuals",
    "degenerate_c32_casimir_case",
    "densities_are_affine",
    "is_casimir",
    "polynomial_casimirs",
]
