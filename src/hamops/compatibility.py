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
    _dcube,
    _dmat,
    grinberg_conditions,
    is_hamiltonian,
    jacobi_conditions,
    mixed_conditions,
)
from .operators import (
    FirstOrderOperator,
    NonHomogeneousOperator,
    UltralocalOperator,
    christoffel,
    operator,
    pencil,
)
from .reports import CheckReport, Condition, ReportBuilder


# ---------------------------------------------------------------------------
# obstruction tensors


def schouten_L(wA: UltralocalOperator, wB: UltralocalOperator):
    """Mixed Schouten bracket of two ultralocal structures (six-term cyclic sum)."""
    ctx = wA.ctx
    n = wA.n
    a, b = wA.omega, wB.omega
    da, db = _dmat(a, ctx), _dmat(b, ctx)
    out = []
    for i in range(n):
        plane = []
        for j in range(n):
            row = []
            for k in range(n):
                terms = []
                for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                    for p in range(n):
                        terms.append(mul(da[x][y][p], b[p][z]))
                        terms.append(mul(db[x][y][p], a[p][z]))
                row.append(add(*terms) if terms else E.ZERO)
            plane.append(tuple(row))
        out.append(tuple(plane))
    return tuple(out)


def p_tensor(A: NonHomogeneousOperator, B: NonHomogeneousOperator):
    """First mixed obstruction: the coefficient of lambda in the interaction
    symmetry condition of the pencil."""
    ctx = A.ctx
    n = A.n
    gA, bA, wA = A.g, A.b, A.omega
    gB, bB, wB = B.g, B.b, B.omega
    dgA, dgB = _dmat(gA, ctx), _dmat(gB, ctx)
    dwA, dwB = _dmat(wA, ctx), _dmat(wB, ctx)
    out = []
    for i in range(n):
        plane = []
        for j in range(n):
            row = []
            for k in range(n):
                terms = []
                for s in range(n):
                    terms.append(mul(gA[i][s], dwB[j][k][s]))
                    terms.append(neg(mul(dgA[i][j][s], wB[s][k])))
                    terms.append(neg(mul(bA[i][k][s], wB[j][s])))
                    terms.append(mul(gB[i][s], dwA[j][k][s]))
                    terms.append(neg(mul(dgB[i][j][s], wA[s][k])))
                    terms.append(neg(mul(bB[i][k][s], wA[j][s])))
                    terms.append(mul(gA[j][s], dwB[i][k][s]))
                    terms.append(neg(mul(bA[j][k][s], wB[i][s])))
                    terms.append(mul(gB[j][s], dwA[i][k][s]))
                    terms.append(neg(mul(bB[j][k][s], wA[i][s])))
                row.append(add(*terms) if terms else E.ZERO)
            plane.append(tuple(row))
        out.append(tuple(plane))
    return tuple(out)


def s_tensor(A: NonHomogeneousOperator, B: NonHomogeneousOperator):
    """Second mixed obstruction: the lambda-coefficient of the derivative
    coupling condition of the pencil (indices [i][j][k][r])."""
    ctx = A.ctx
    n = A.n
    bA, wA = A.b, A.omega
    bB, wB = B.b, B.omega
    gA, gB = A.g, B.g
    dwA, dwB = _dmat(wA, ctx), _dmat(wB, ctx)
    dbA, dbB = _dcube(bA, ctx), _dcube(bB, ctx)
    ddwA, ddwB = _dcube(dwA, ctx), _dcube(dwB, ctx)
    out = []
    for i in range(n):
        block = []
        for j in range(n):
            plane = []
            for k in range(n):
                row = []
                for r in range(n):
                    terms = []
                    for s in range(n):
                        terms.append(neg(mul(gA[i][s], ddwB[j][k][s][r])))
                        terms.append(neg(mul(gB[i][s], ddwA[j][k][s][r])))
                        terms.append(
                            neg(mul(add(bA[i][s][r], bA[s][i][r]), dwB[j][k][s]))
                        )
                        terms.append(
                            neg(mul(add(bB[i][s][r], bB[s][i][r]), dwA[j][k][s]))
                        )
                        terms.append(mul(bA[i][j][s], dwB[s][k][r]))
                        terms.append(mul(bA[i][k][s], dwB[j][s][r]))
                        terms.append(mul(bB[i][j][s], dwA[s][k][r]))
                        terms.append(mul(bB[i][k][s], dwA[j][s][r]))
                        terms.append(mul(dbA[i][j][s][r], wB[s][k]))
                        terms.append(mul(dbA[i][k][s][r], wB[j][s]))
                        terms.append(mul(dbB[i][j][s][r], wA[s][k]))
                        terms.append(mul(dbB[i][k][s][r], wA[j][s]))
                    for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                        for s in range(n):
                            terms.append(mul(bA[s][x][r], dwB[y][z][s]))
                            terms.append(mul(bB[s][x][r], dwA[y][z][s]))
                            terms.append(
                                mul(add(dbA[x][y][r][s], neg(dbA[x][y][s][r])), wB[s][z])
                            )
                            terms.append(
                                mul(add(dbB[x][y][r][s], neg(dbB[x][y][s][r])), wA[s][z])
                            )
                    row.append(add(*terms) if terms else E.ZERO)
                plane.append(tuple(row))
            block.append(tuple(plane))
        out.append(tuple(block))
    return tuple(out)


# ---------------------------------------------------------------------------
# covariant forms (Levi-Civita route, independent of the b coefficients)


def covariant_p_tensor(A: NonHomogeneousOperator, B: NonHomogeneousOperator):
    """Symmetrized covariant derivatives of each ultralocal part along the
    other operator's Levi-Civita connection; requires non-degenerate metrics."""
    n = A.n
    P1, P2 = cross_p_tensors(A, B)
    return tuple(
        tuple(tuple(add(P2[i][j][k], P1[i][j][k]) for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _nabla_lower_second(geom, w, ctx):
    """(nabla)_i (nabla)_r w^{jk} for the Levi-Civita connection; returns
    T[j][k][i][r]."""
    n = len(w)
    names = ctx.variables
    first = covariant_derivative(geom, w, ctx)
    out = []
    for j in range(n):
        kplane = []
        for k in range(n):
            iplane = []
            for i in range(n):
                row = []
                for r in range(n):
                    terms = [E.differentiate(first[j][k][r], names[i], ctx)]
                    for p in range(n):
                        terms.append(mul(geom.gamma[j][i][p], first[p][k][r]))
                        terms.append(mul(geom.gamma[k][i][p], first[j][p][r]))
                        terms.append(neg(mul(geom.gamma[p][i][r], first[j][k][p])))
                    row.append(add(*terms))
                iplane.append(tuple(row))
            kplane.append(tuple(iplane))
        out.append(tuple(kplane))
    return out


def covariant_s_tensor(A: NonHomogeneousOperator, B: NonHomogeneousOperator):
    """Cross second covariant derivatives of the ultralocal parts; returns
    S[j][k][i][r]; requires non-degenerate metrics."""
    ctx = A.ctx
    n = A.n
    geomA = christoffel(A.g, ctx)
    geomB = christoffel(B.g, ctx)
    tA = _nabla_lower_second(geomA, B.omega, ctx)
    tB = _nabla_lower_second(geomB, A.omega, ctx)
    return tuple(
        tuple(
            tuple(
                tuple(add(tA[j][k][i][r], tB[j][k][i][r]) for r in range(n))
                for i in range(n)
            )
            for k in range(n)
        )
        for j in range(n)
    )


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
    first_order = grinberg_conditions(pen.first)
    # is_hamiltonian(pen), with its first-order part computed once above
    oracle = first_order.merged(jacobi_conditions(pen.zero), mixed_conditions(pen))
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
    n = A.n
    rb = ReportBuilder(A.ctx)
    L = schouten_L(A.zero, B.zero)
    P = p_tensor(A, B)
    S = s_tensor(A, B)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                rb.add("schouten-L", (i, j, k), L[i][j][k])
                rb.add("pencil-P", (i, j, k), P[i][j][k])
                for r in range(n):
                    rb.add("pencil-S", (i, j, k, r), S[i][j][k][r])
    return rb.build()


def check_compatible(A: NonHomogeneousOperator, B: NonHomogeneousOperator) -> CheckReport:
    """Tensor-based compatibility: the tensor route of :func:`check_pair`."""
    return check_pair(A, B).tensor


# ---------------------------------------------------------------------------
# construction helpers for the classified families


def mokhov_operator(ctx: Context, eta, h) -> FirstOrderOperator:
    """First-order operator generated by potentials against a constant
    diagonal metric.  Necessary for compatibility with eta*d_x, but not
    automatically Hamiltonian."""
    n = len(ctx.variables)
    if len(eta) != n or len(h) != n:
        raise ValueError("need one diagonal entry and one potential per component")
    eta = [E._coerce(x) for x in eta]
    for x in eta:
        if E.is_identically_zero(x, ctx):
            raise ValueError("degenerate diagonal metric")
    names = ctx.variables
    dh = [[E.differentiate(h[j], names[s], ctx) for s in range(n)] for j in range(n)]
    ddh = _dmat(dh, ctx)
    g = [
        [add(mul(eta[i], dh[j][i]), mul(eta[j], dh[i][j])) for j in range(n)]
        for i in range(n)
    ]
    b = [
        [[mul(eta[i], ddh[j][i][k]) for k in range(n)] for j in range(n)]
        for i in range(n)
    ]
    return FirstOrderOperator(ctx, g, b)


def g_tensor(ctx: Context, eta, h):
    """Obstruction to the leading-coefficient commutation condition for a
    potential-generated operator (vanishes iff that condition holds)."""
    n = len(ctx.variables)
    eta = [E._coerce(x) for x in eta]
    names = ctx.variables
    dh = [[E.differentiate(h[j], names[s], ctx) for s in range(n)] for j in range(n)]
    ddh = _dmat(dh, ctx)
    out = []
    for i in range(n):
        plane = []
        for j in range(n):
            row = []
            for k in range(n):
                terms = []
                for l in range(n):
                    first = add(mul(eta[i], dh[l][i]), mul(eta[l], dh[i][l]))
                    terms.append(mul(first, eta[j], ddh[k][j][l]))
                    second = add(mul(eta[j], dh[l][j]), mul(eta[l], dh[j][l]))
                    terms.append(neg(mul(second, eta[i], ddh[k][i][l])))
                row.append(add(*terms))
            plane.append(tuple(row))
        out.append(tuple(plane))
    return tuple(out)


def r_tensor(ctx: Context, eta, h):
    """Obstruction to the curvature condition for a potential-generated
    operator; indices [j][r][s][k]."""
    n = len(ctx.variables)
    eta = [E._coerce(x) for x in eta]
    names = ctx.variables
    dh = [[E.differentiate(h[j], names[s], ctx) for s in range(n)] for j in range(n)]
    ddh = _dmat(dh, ctx)
    out = []
    for j in range(n):
        rplane = []
        for r in range(n):
            splane = []
            for s in range(n):
                row = []
                for k in range(n):
                    terms = []
                    for l in range(n):
                        terms.append(mul(ddh[j][s][l], eta[l], ddh[r][l][k]))
                        terms.append(neg(mul(ddh[r][s][l], eta[l], ddh[j][l][k])))
                    row.append(add(*terms))
                splane.append(tuple(row))
            rplane.append(tuple(splane))
        out.append(tuple(rplane))
    return tuple(out)


def ultralocal_2comp(ctx: Context, h1, h2, c, c1) -> UltralocalOperator:
    """Two-component ultralocal term closing a potential pair: the single
    entry is c*(trace of the potential Jacobian) + c1."""
    names = ctx.variables
    w = add(
        mul(E._coerce(c), add(E.differentiate(h1, names[0], ctx), E.differentiate(h2, names[1], ctx))),
        E._coerce(c1),
    )
    return UltralocalOperator(ctx, ((E.ZERO, w), (neg(w), E.ZERO)))


def ultralocal_3comp(ctx: Context, h, a, b, c, c1, c2, c3, c4, k, k1, k2, k3) -> UltralocalOperator:
    """Three-component ultralocal term closing a potential pair against the
    constant diagonal operator with linear ultralocal part."""
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
    om = (
        (E.ZERO, w1, w2),
        (neg(w1), E.ZERO, w3),
        (neg(w2), neg(w3), E.ZERO),
    )
    return UltralocalOperator(ctx, om)


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


def _require_linear(coeffs, who: str):
    if any(Fraction(c) != 0 for c in coeffs[2:]):
        raise FamilyConstraintError(f"{who} must be affine for this family")


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
    B = NonHomogeneousOperator(first, wB)
    return A, B


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
