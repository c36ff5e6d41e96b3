"""Compatibility of pairs of (1+0) operators.

Two Hamiltonian operators are compatible when every linear combination is
Hamiltonian.  This module provides both routes to that verdict:

* the explicit obstruction tensors (the ultralocal Schouten bracket L, the
  mixed tensors P and S) together with first-order pencil conditions, and
* the formal-pencil oracle, which runs the full Hamiltonianity check on
  A + lambda*B with lambda an ordinary indeterminate of the expression ring,
  so "for all lambda" is exact coefficient vanishing.

It also builds the classified two-component families and the two- and
three-component ultralocal terms that close a pair against a constant
diagonal operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import expr as E
from .expr import AlgebraicSymbol, Context, Expr, add, mul, neg
from .geometry import covariant_derivative, cross_p_tensors
from .hamiltonian import (
    grinberg_conditions,
    is_hamiltonian,
    jacobi_conditions,
    mixed_conditions,
)
from .operators import (
    NonHomogeneousOperator,
    append_product,
    derivative,
    entries,
    entrywise,
    operator,
    pencil,
    tensor,
)
from .reports import CheckReport, Condition, ReportBuilder


# ---------------------------------------------------------------------------
# obstruction tensors


def schouten_L(A: NonHomogeneousOperator, B: NonHomogeneousOperator):
    """Mixed Schouten bracket of the ultralocal parts of A and B (six-term
    cyclic sum)."""
    n = A.n
    a, b, da, db = A.omega, B.omega, A.dw, B.dw

    def entry(i, j, k):
        terms = []
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            for p in range(n):
                append_product(terms, da[x][y][p], b[p][z])
                append_product(terms, db[x][y][p], a[p][z])
        return add(*terms)

    return tensor(n, 3, entry)


def p_tensor(A: NonHomogeneousOperator, B: NonHomogeneousOperator):
    """First mixed obstruction: the coefficient of lambda in the interaction
    symmetry condition of the pencil."""
    n = A.n
    gA, bA, wA, dgA, dwA = A.g, A.b, A.omega, A.dg, A.dw
    gB, bB, wB, dgB, dwB = B.g, B.b, B.omega, B.dg, B.dw

    def entry(i, j, k):
        terms = []
        for s in range(n):
            append_product(terms, gA[i][s], dwB[j][k][s])
            append_product(terms, dgA[i][j][s], wB[s][k], negate=True)
            append_product(terms, bA[i][k][s], wB[j][s], negate=True)
            append_product(terms, gB[i][s], dwA[j][k][s])
            append_product(terms, dgB[i][j][s], wA[s][k], negate=True)
            append_product(terms, bB[i][k][s], wA[j][s], negate=True)
            append_product(terms, gA[j][s], dwB[i][k][s])
            append_product(terms, bA[j][k][s], wB[i][s], negate=True)
            append_product(terms, gB[j][s], dwA[i][k][s])
            append_product(terms, bB[j][k][s], wA[i][s], negate=True)
        return add(*terms)

    return tensor(n, 3, entry)


def s_tensor(A: NonHomogeneousOperator, B: NonHomogeneousOperator):
    """Second mixed obstruction: the lambda-coefficient of the derivative
    coupling condition of the pencil (indices [i][j][k][r])."""
    ctx = A.ctx
    n = A.n
    gA, bA, wA, dbA, dwA, curlA = A.g, A.b, A.omega, A.db, A.dw, A.curl
    gB, bB, wB, dbB, dwB, curlB = B.g, B.b, B.omega, B.db, B.dw, B.curl
    ddwA, ddwB = derivative(dwA, ctx), derivative(dwB, ctx)

    def entry(i, j, k, r):
        terms = []
        for s in range(n):
            append_product(terms, gA[i][s], ddwB[j][k][s][r], negate=True)
            append_product(terms, gB[i][s], ddwA[j][k][s][r], negate=True)
            append_product(terms, add(bA[i][s][r], bA[s][i][r]), dwB[j][k][s], negate=True)
            append_product(terms, add(bB[i][s][r], bB[s][i][r]), dwA[j][k][s], negate=True)
            append_product(terms, bA[i][j][s], dwB[s][k][r])
            append_product(terms, bA[i][k][s], dwB[j][s][r])
            append_product(terms, bB[i][j][s], dwA[s][k][r])
            append_product(terms, bB[i][k][s], dwA[j][s][r])
            append_product(terms, dbA[i][j][s][r], wB[s][k])
            append_product(terms, dbA[i][k][s][r], wB[j][s])
            append_product(terms, dbB[i][j][s][r], wA[s][k])
            append_product(terms, dbB[i][k][s][r], wA[j][s])
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            for s in range(n):
                append_product(terms, bA[s][x][r], dwB[y][z][s])
                append_product(terms, bB[s][x][r], dwA[y][z][s])
                append_product(terms, curlA[x][y][s][r], wB[s][z])
                append_product(terms, curlB[x][y][s][r], wA[s][z])
        return add(*terms)

    return tensor(n, 4, entry)


# ---------------------------------------------------------------------------
# covariant forms (Levi-Civita route, independent of the b coefficients)


def covariant_p_tensor(A: NonHomogeneousOperator, B: NonHomogeneousOperator):
    """Symmetrized covariant derivatives of each ultralocal part along the
    other operator's Levi-Civita connection; requires non-degenerate metrics."""
    P1, P2 = cross_p_tensors(A, B)
    return entrywise(lambda p1, p2: add(p2, p1), P1, P2)


def _nabla_lower_second(G: NonHomogeneousOperator, W: NonHomogeneousOperator):
    """(nabla)_i (nabla)_r w^{jk} of W's ultralocal part w for the
    Levi-Civita connection of G's metric; returns T[j][k][i][r]."""
    n = W.n
    geom = G.levi_civita
    first = covariant_derivative(geom, W.omega, W.dw)
    dfirst = derivative(first, W.ctx)

    def entry(j, k, i, r):
        terms = [dfirst[j][k][r][i]]
        for p in range(n):
            append_product(terms, geom.gamma[j][i][p], first[p][k][r])
            append_product(terms, geom.gamma[k][i][p], first[j][p][r])
            append_product(terms, geom.gamma[p][i][r], first[j][k][p], negate=True)
        return add(*terms)

    return tensor(n, 4, entry)


def covariant_s_tensor(A: NonHomogeneousOperator, B: NonHomogeneousOperator):
    """Cross second covariant derivatives of the ultralocal parts; returns
    S[j][k][i][r]; requires non-degenerate metrics."""
    return entrywise(add, _nabla_lower_second(A, B), _nabla_lower_second(B, A))


# ---------------------------------------------------------------------------
# pencil oracle and the tensor-based compatibility check


def pencil_hamiltonian_check(
    A: NonHomogeneousOperator, B: NonHomogeneousOperator, param: str | None = None
) -> CheckReport:
    """Run the full Hamiltonianity check on A + lambda*B with formal lambda.

    Residuals are polynomials in lambda; the pair is compatible exactly when
    every residual vanishes identically in lambda.  This is the authoritative
    compatibility oracle.
    """
    if param is None:
        param, _ = A.ctx.fresh_parameter("lam")
    return is_hamiltonian(pencil(A, B, param))


@dataclass(frozen=True)
class PairReports:
    """Hamiltonianity of each operator and both compatibility routes."""

    hamiltonian_A: CheckReport
    hamiltonian_B: CheckReport
    tensor: CheckReport
    oracle: CheckReport


def check_pair(A: NonHomogeneousOperator, B: NonHomogeneousOperator) -> PairReports:
    """Both compatibility routes for one pair.

    The tensor route needs A and B Hamiltonian, then checks the first-order
    conditions of the pencil A + lambda*B and the vanishing of L, P and S.
    The oracle is the full Hamiltonianity check of that pencil.  Each
    operator's check and the pencil's first-order conditions run once and
    serve both routes.
    """
    repA = is_hamiltonian(A)
    repB = is_hamiltonian(B)
    param, _ = A.ctx.fresh_parameter("lam")
    pen = pencil(A, B, param)
    first_order = grinberg_conditions(pen)
    # is_hamiltonian(pen), with its first-order part computed once above
    oracle = first_order.merged(jacobi_conditions(pen), mixed_conditions(pen))
    failed = [name for name, rep in (("A", repA), ("B", repB)) if not rep.verdict]
    if failed:
        tensor = CheckReport(
            [
                Condition(f"precondition[{name}]:{c.cid}", c.indices, c.residual_text, False, c.side_conditions)
                for name, rep in (("A", repA), ("B", repB))
                for c in rep.failures()
            ],
            error=f"precondition failed: {' and '.join(failed)} not Hamiltonian",
        )
    else:
        tensor = first_order.prefixed("first-order-pencil").merged(_obstruction_report(A, B))
    return PairReports(repA, repB, tensor, oracle)


def _obstruction_report(A: NonHomogeneousOperator, B: NonHomogeneousOperator) -> CheckReport:
    """Residuals of the obstruction tensors L, P and S."""
    rb = ReportBuilder(A.ctx)
    P = p_tensor(A, B)
    S = s_tensor(A, B)
    for (i, j, k), x in entries(schouten_L(A, B)):
        rb.add("schouten-L", (i, j, k), x)
        rb.add("pencil-P", (i, j, k), P[i][j][k])
        for r, y in enumerate(S[i][j][k]):
            rb.add("pencil-S", (i, j, k, r), y)
    return rb.build()


def check_compatible(A: NonHomogeneousOperator, B: NonHomogeneousOperator) -> CheckReport:
    """Tensor-based compatibility: the tensor route of :func:`check_pair`."""
    return check_pair(A, B).tensor


# ---------------------------------------------------------------------------
# construction helpers for the classified families


def _potential_jets(h, ctx: Context):
    """``dh[j][s] = d_s h^j`` and ``ddh[j][s][t] = d_t d_s h^j``."""
    dh = derivative(h, ctx)
    return dh, derivative(dh, ctx)


def _potential_metric(eta, dh):
    """``g^{ij} = eta^i d_i h^j + eta^j d_j h^i``."""

    def entry(i, j):
        terms = []
        append_product(terms, eta[i], dh[j][i])
        append_product(terms, eta[j], dh[i][j])
        return add(*terms)

    return tensor(len(eta), 2, entry)


def mokhov_operator(ctx: Context, eta, h) -> NonHomogeneousOperator:
    """First-order operator (zero omega) generated by potentials against a
    constant diagonal metric.  Necessary for compatibility with eta*d_x, but
    not automatically Hamiltonian."""
    n = len(ctx.variables)
    if len(eta) != n or len(h) != n:
        raise ValueError("need one diagonal entry and one potential per component")
    eta = [E._coerce(x) for x in eta]
    for x in eta:
        if E.is_identically_zero(x, ctx):
            raise ValueError("degenerate diagonal metric")
    dh, ddh = _potential_jets(h, ctx)
    b = tensor(n, 3, lambda i, j, k: mul(eta[i], ddh[j][i][k]))
    return operator(ctx, _potential_metric(eta, dh), b)


def g_tensor(ctx: Context, eta, h):
    """Obstruction to the leading-coefficient commutation condition for a
    potential-generated operator (vanishes iff that condition holds)."""
    n = len(ctx.variables)
    eta = [E._coerce(x) for x in eta]
    dh, ddh = _potential_jets(h, ctx)
    g = _potential_metric(eta, dh)

    def entry(i, j, k):
        terms = []
        for l in range(n):
            append_product(terms, mul(g[i][l], eta[j]), ddh[k][j][l])
            append_product(terms, mul(g[j][l], eta[i]), ddh[k][i][l], negate=True)
        return add(*terms)

    return tensor(n, 3, entry)


def r_tensor(ctx: Context, eta, h):
    """Obstruction to the curvature condition for a potential-generated
    operator; indices [j][r][s][k]."""
    n = len(ctx.variables)
    eta = [E._coerce(x) for x in eta]
    _, ddh = _potential_jets(h, ctx)

    def entry(j, r, s, k):
        terms = []
        for l in range(n):
            append_product(terms, mul(ddh[j][s][l], eta[l]), ddh[r][l][k])
            append_product(terms, mul(ddh[r][s][l], eta[l]), ddh[j][l][k], negate=True)
        return add(*terms)

    return tensor(n, 4, entry)


def ultralocal_2comp(ctx: Context, h1, h2, c, c1):
    """Two-component ultralocal term omega closing a potential pair: the
    single entry is c*(trace of the potential Jacobian) + c1."""
    names = ctx.variables
    w = add(
        mul(E._coerce(c), add(E.differentiate(h1, names[0], ctx), E.differentiate(h2, names[1], ctx))),
        E._coerce(c1),
    )
    return ((E.ZERO, w), (neg(w), E.ZERO))


def ultralocal_3comp(ctx: Context, h, a, b, c, c1, c2, c3, c4, k, k1, k2, k3):
    """Three-component ultralocal term omega closing a potential pair against
    the constant diagonal operator with linear ultralocal part."""
    if a not in (1, -1) or b not in (1, -1) or c not in (1, -1):
        raise ValueError("diagonal entries must be +1 or -1")
    u, v, w = (ctx.var(nm) for nm in ctx.variables[:3])
    names = ctx.variables
    h1, h2, h3 = h
    d = lambda f, x: E.differentiate(f, x, ctx)
    A_u = add(mul(E.rat(Fraction(c, a)), E._coerce(c1), u), E._coerce(c4))
    Bv = add(E._coerce(c3), neg(mul(E.rat(Fraction(c, b)), E._coerce(c1), v)))
    Cw = add(E._coerce(c2), mul(E._coerce(c1), w))
    w1 = add(
        mul(Bv, d(h2, names[2])),
        neg(mul(A_u, d(h1, names[2]))),
        neg(mul(E._coerce(c1), h3)),
        mul(Cw, add(d(h2, names[1]), d(h1, names[0]))),
        mul(E._coerce(k), w),
        E._coerce(k1),
    )
    w2 = add(
        mul(Bv, add(d(h1, names[0]), d(h3, names[2]))),
        mul(Cw, d(h3, names[1])),
        mul(A_u, d(h1, names[1])),
        mul(E.rat(Fraction(c, b)), E._coerce(c1), h2),
        neg(mul(E.rat(Fraction(c, b)), E._coerce(k), v)),
        E._coerce(k2),
    )
    w3 = add(
        mul(Bv, d(h2, names[0])),
        neg(mul(Cw, d(h3, names[0]))),
        neg(mul(E.rat(Fraction(c, a)), E._coerce(c1), h1)),
        neg(mul(E.rat(Fraction(c, a)), E._coerce(k), u)),
        mul(A_u, add(d(h2, names[1]), d(h3, names[2]))),
        E._coerce(k3),
    )
    return (
        (E.ZERO, w1, w2),
        (neg(w1), E.ZERO, w3),
        (neg(w2), neg(w3), E.ZERO),
    )


def darboux_2comp(ctx: Context, a, b, c) -> NonHomogeneousOperator:
    g = ((E.rat(a), E.ZERO), (E.ZERO, E.rat(b)))
    om = ((E.ZERO, E._coerce(c)), (neg(E._coerce(c)), E.ZERO))
    return operator(ctx, g=g, omega=om)


def darboux_3comp(ctx: Context, a, b, c, c1, c2, c3, c4) -> NonHomogeneousOperator:
    u, v, w = (ctx.var(nm) for nm in ctx.variables[:3])
    g = ((E.rat(a), E.ZERO, E.ZERO), (E.ZERO, E.rat(b), E.ZERO), (E.ZERO, E.ZERO, E.rat(c)))
    w1 = add(mul(E._coerce(c1), w), E._coerce(c2))
    w2 = add(neg(mul(E.rat(Fraction(c, b)), E._coerce(c1), v)), E._coerce(c3))
    w3 = add(mul(E.rat(Fraction(c, a)), E._coerce(c1), u), E._coerce(c4))
    om = ((E.ZERO, w1, w2), (neg(w1), E.ZERO, w3), (neg(w2), neg(w3), E.ZERO))
    return operator(ctx, g=g, omega=om)


# ---------------------------------------------------------------------------
# the classified 2-component pair families


FAMILIES_2COMP = ("B1", "B2-laplace", "B2-wave", "B2-case2ii", "B2-case2iii")


class FamilyConstraintError(ValueError):
    pass


@dataclass(frozen=True)
class Pair2Params:
    """Configuration for the classified two-component pairs.

    ``xi1 .. xi3`` are polynomial coefficient lists (constant term first) for
    the profile functions of the nonlinear families; ``k1 .. k3`` are the
    constants of the linear family.  ``a, b`` are the diagonal entries of the
    non-degenerate operator, ``c`` its constant ultralocal entry.
    """

    a: int = 1
    b: int = 1
    c: Fraction = Fraction(0)
    k1: Fraction = Fraction(0)
    k2: Fraction = Fraction(0)
    k3: Fraction = Fraction(0)
    xi1: tuple = ()
    xi2: tuple = ()
    xi3: tuple = ()


def _poly_of(coeffs, z: Expr) -> Expr:
    terms = [mul(E.rat(c), E.pow_(z, k)) for k, c in enumerate(coeffs)]
    return add(*terms) if terms else E.ZERO


def build_pair_2comp(family: str, params: Pair2Params):
    """Construct (A, B) for one of the five classified families.

    Raises :class:`FamilyConstraintError` when the family's constraints on
    the signature or the profile functions are violated.
    """
    a, b = params.a, params.b
    if a not in (1, -1) or b not in (1, -1):
        raise FamilyConstraintError("diagonal entries must be +1 or -1")
    if family not in FAMILIES_2COMP:
        raise FamilyConstraintError(f"unknown family {family!r}")

    if family == "B2-laplace":
        if a * b < 0:
            raise FamilyConstraintError("this family needs matching signature signs")
        ctx = Context(("u", "v"), algebraics=(AlgebraicSymbol("i", 2, E.rat(-1)),))
    else:
        if family in ("B2-wave", "B2-case2ii", "B2-case2iii") and a * b > 0:
            raise FamilyConstraintError("this family needs opposite signature signs")
        ctx = Context(("u", "v"))

    A = darboux_2comp(ctx, a, b, params.c)
    u, v = ctx.var("u"), ctx.var("v")

    if family == "B1":
        k1, k2, k3 = (E.rat(params.k1), E.rat(params.k2), E.rat(params.k3))
        g = (
            (mul(E.rat(2 * a), k1), add(mul(E.rat(b), k1), mul(E.rat(a), k2))),
            (add(mul(E.rat(b), k1), mul(E.rat(a), k2)), mul(E.rat(2 * b), k2)),
        )
        w = add(mul(E.rat(params.c), add(k1, k2)), k3)
        B = operator(ctx, g=g, omega=((E.ZERO, w), (neg(w), E.ZERO)))
        return A, B

    if family == "B2-laplace":
        if len(params.xi1) > 2 and len(params.xi2) > 2:
            raise FamilyConstraintError("one profile function must be affine")
        ii = E.AlgConst("i")
        zp = add(u, mul(ii, v))
        zm = add(u, neg(mul(ii, v)))
        f1 = _poly_of(params.xi1, zp)
        f2 = _poly_of(params.xi2, zm)
        h1 = add(f1, f2)
        h2 = add(neg(mul(ii, f1)), mul(ii, f2))
    elif family == "B2-wave":
        if len(params.xi1) > 2 and len(params.xi2) > 2:
            raise FamilyConstraintError("one profile function must be affine")
        f1 = _poly_of(params.xi1, add(u, v))
        f2 = _poly_of(params.xi2, add(u, neg(v)))
        h1 = add(f1, f2)
        h2 = add(f1, neg(f2))
    elif family == "B2-case2ii":
        z = add(u, v)
        pre = add(v, neg(u))
        h1 = add(_poly_of(params.xi1, z), mul(pre, _poly_of(params.xi2, z)))
        h2 = add(_poly_of(params.xi3, z), neg(mul(pre, _poly_of(params.xi2, z))))
    else:  # B2-case2iii
        z = add(v, neg(u))
        pre = add(u, v)
        h1 = add(_poly_of(params.xi1, z), mul(pre, _poly_of(params.xi2, z)))
        h2 = add(_poly_of(params.xi3, z), mul(pre, _poly_of(params.xi2, z)))

    first = mokhov_operator(ctx, (E.rat(a), E.rat(b)), [h1, h2])
    wB = ultralocal_2comp(ctx, h1, h2, E.rat(params.c), E.ZERO)
    return A, operator(ctx, first.g, first.b, wB)


__all__ = [
    "FAMILIES_2COMP",
    "FamilyConstraintError",
    "Pair2Params",
    "PairReports",
    "build_pair_2comp",
    "check_compatible",
    "check_pair",
    "covariant_p_tensor",
    "covariant_s_tensor",
    "darboux_2comp",
    "darboux_3comp",
    "g_tensor",
    "mokhov_operator",
    "p_tensor",
    "pencil_hamiltonian_check",
    "r_tensor",
    "s_tensor",
    "schouten_L",
    "ultralocal_2comp",
    "ultralocal_3comp",
]
