"""Nijenhuis torsion, Killing-Yano checks, Lie-structure conditions and
bi-pencil verdicts.

All pencil parameters are formal indeterminates of the expression ring, so
"for all mu, lambda" is exact coefficient vanishing, never sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import expr as E
from .expr import Context, Expr, add, mul, neg
from .hamiltonian import _dmat, grinberg_conditions, jacobi_conditions
from .operators import (
    DegenerateMetric,
    NonHomogeneousOperator,
    christoffel,
    determinant,
    invert_metric,
    pencil,
)
from .reports import CheckReport, ReportBuilder


# ---------------------------------------------------------------------------
# affinors and torsion


def nijenhuis_torsion(L, ctx: Context):
    """Torsion N^k_{ij} of a (1,1)-tensor L^i_j; returns N[k][i][j]."""
    n = len(L)
    names = ctx.variables
    dL = [
        [[E.differentiate(L[i][j], names[s], ctx) for s in range(n)] for j in range(n)]
        for i in range(n)
    ]
    out = []
    for k in range(n):
        plane = []
        for i in range(n):
            row = []
            for j in range(n):
                terms = []
                for s in range(n):
                    terms.append(mul(L[s][i], dL[k][j][s]))
                    terms.append(neg(mul(L[s][j], dL[k][i][s])))
                    terms.append(mul(L[k][s], dL[s][i][j]))
                    terms.append(neg(mul(L[k][s], dL[s][j][i])))
                row.append(add(*terms) if terms else E.ZERO)
            plane.append(tuple(row))
        out.append(tuple(plane))
    return tuple(out)


def torsion_vanishes(L, ctx: Context) -> bool:
    N = nijenhuis_torsion(L, ctx)
    n = len(L)
    return all(
        E.is_identically_zero(N[k][i][j], ctx)
        for k in range(n)
        for i in range(n)
        for j in range(n)
    )


def affinor_from_metrics(gA, gB, ctx: Context):
    """L^i_j = gA^{is} (gB)_{sj}; the second metric must be non-degenerate."""
    lower = invert_metric(gB, ctx)
    n = len(gA)
    return tuple(
        tuple(add(*[mul(gA[i][s], lower[s][j]) for s in range(n)]) for j in range(n))
        for i in range(n)
    )


def affinor_from_poisson(wA, wB, ctx: Context):
    """L^i_j = wA^{is} (wB)_{sj}; the second bivector must be non-degenerate."""
    return affinor_from_metrics(wA, wB, ctx)


# ---------------------------------------------------------------------------
# Lie structures


@dataclass(frozen=True)
class LieStructure:
    """Rational structure constants c^{ij}_k with a 2-cocycle f^{ij}.

    The constructor checks skew-symmetry, the Jacobi identity and the
    cocycle identity; these are the structure's own invariants, while the
    torsion conditions are checked separately.
    """

    n: int
    c: tuple  # c[i][j][k] Fractions
    f: tuple  # f[i][j] Fractions

    def __post_init__(self):
        n = self.n
        c = tuple(
            tuple(tuple(Fraction(x) for x in row) for row in plane) for plane in self.c
        )
        f = tuple(tuple(Fraction(x) for x in row) for row in self.f)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "f", f)
        for i in range(n):
            for j in range(n):
                if f[i][j] != -f[j][i]:
                    raise ValueError("cocycle must be skew-symmetric")
                for k in range(n):
                    if c[i][j][k] != -c[j][i][k]:
                        raise ValueError("structure constants must be skew in the upper pair")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        s1 = sum(c[i][j][s] * c[s][k][l] for s in range(n))
                        s2 = sum(c[j][k][s] * c[s][i][l] for s in range(n))
                        s3 = sum(c[k][i][s] * c[s][j][l] for s in range(n))
                        if s1 + s2 + s3 != 0:
                            raise ValueError("structure constants violate the Jacobi identity")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    t = sum(
                        f[i][s] * c[j][k][s]
                        + f[j][s] * c[k][i][s]
                        + f[k][s] * c[i][j][s]
                        for s in range(n)
                    )
                    if t != 0:
                        raise ValueError("f is not a 2-cocycle for c")

    @classmethod
    def from_sparse(cls, n: int, c_entries, f_entries=()):
        """Build from sparse lists [i, j, k, value] and [i, j, value] (1-based)."""
        c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        for i, j, k, val in c_entries:
            c[i - 1][j - 1][k - 1] = Fraction(val)
            c[j - 1][i - 1][k - 1] = -Fraction(val)
        f = [[Fraction(0)] * n for _ in range(n)]
        for i, j, val in f_entries:
            f[i - 1][j - 1] = Fraction(val)
            f[j - 1][i - 1] = -Fraction(val)
        return cls(n, tuple(tuple(tuple(r) for r in p) for p in c), tuple(tuple(r) for r in f))

    def omega(self, ctx: Context):
        """Linear ultralocal structure w^{ij} = c^{ij}_k u^k + f^{ij}."""
        n = self.n
        us = [ctx.var(name) for name in ctx.variables[:n]]
        return tuple(
            tuple(
                add(
                    *[mul(E.rat(self.c[i][j][k]), us[k]) for k in range(n)],
                    E.rat(self.f[i][j]),
                )
                for j in range(n)
            )
            for i in range(n)
        )

    def default_context(self) -> Context:
        return Context(tuple(f"u{i+1}" for i in range(self.n)))


def check_nijnonhom_conditions(s: LieStructure, ctx: Context | None = None) -> CheckReport:
    """Algebraic torsion-freeness conditions: 2-step nilpotency of the bracket
    and annihilation of the cocycle by the bracket."""
    ctx = ctx or s.default_context()
    rb = ReportBuilder(ctx)
    n = s.n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    val = sum(s.c[i][p][j] * s.c[k][l][p] for p in range(n))
                    rb.add("nilpotency", (i, j, k, l), E.rat(val))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                val = sum(s.f[i][p] * s.c[j][k][p] for p in range(n))
                rb.add("cocycle-action", (i, j, k), E.rat(val))
    return rb.build()


def affinor_from_lie(s: LieStructure, eta, ctx: Context):
    """L^i_j = g_{js} (c^{si}_k u^k + f^{si}) for a constant metric eta^{ij}."""
    n = s.n
    lower = invert_metric(eta, ctx)
    w = s.omega(ctx)
    return tuple(
        tuple(add(*[mul(lower[j][p], w[p][i]) for p in range(n)]) for j in range(n))
        for i in range(n)
    )


# ---------------------------------------------------------------------------
# Killing-Yano and bi-pencils


def killing_yano_residuals(g, omega, ctx: Context):
    """Residuals of the symmetrized covariant derivative of a skew bivector
    along the Levi-Civita connection of g; indexed [i][j][k]."""
    geom = christoffel(g, ctx)
    n = len(g)
    dw = _dmat(omega, ctx)

    def nabla_up(i, j, k):
        terms = []
        for ss in range(n):
            inner = [dw[j][k][ss]]
            for p in range(n):
                inner.append(mul(geom.gamma[j][ss][p], omega[p][k]))
                inner.append(mul(geom.gamma[k][ss][p], omega[j][p]))
            terms.append(mul(geom.upper[i][ss], add(*inner)))
        return add(*terms)

    return tuple(
        tuple(
            tuple(add(nabla_up(i, j, k), nabla_up(j, i, k)) for k in range(n))
            for j in range(n)
        )
        for i in range(n)
    )


def killing_yano_check(g, omega, ctx: Context) -> CheckReport:
    res = killing_yano_residuals(g, omega, ctx)
    n = len(g)
    rb = ReportBuilder(ctx)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                rb.add("killing-yano", (i, j, k), res[i][j][k])
    return rb.build()


def _degenerate_report(which: str, det_expr: Expr, ctx: Context) -> CheckReport:
    return CheckReport(
        [],
        error=f"DegenerateMetric: det(g_{which}) is identically zero",
    )


def _precondition_reports(A: NonHomogeneousOperator, B: NonHomogeneousOperator):
    ctx = A.ctx
    detA = determinant(A.g, ctx)
    if E.is_identically_zero(detA, ctx):
        return _degenerate_report("A", detA, ctx)
    detB = determinant(B.g, ctx)
    if E.is_identically_zero(detB, ctx):
        return _degenerate_report("B", detB, ctx)
    return None


def bi_pencil_check(A: NonHomogeneousOperator, B: NonHomogeneousOperator) -> CheckReport:
    """Bi-pencil conditions for a pair of non-degenerate operators.

    (i) the metric pencil satisfies the first-order conditions identically in
    the pencil parameter, (ii) the ultralocal pencil is Poisson identically,
    and (iii) the ultralocal pencil is Killing-Yano for the metric pencil.
    """
    bad = _precondition_reports(A, B)
    if bad is not None:
        return bad
    ctx = A.ctx
    mu, _ = ctx.fresh_parameter("mu")
    pen = pencil(A, B, mu)
    pctx = pen.ctx
    det_mu = determinant(pen.g, pctx)
    if E.is_identically_zero(det_mu, pctx):
        return CheckReport([], error="DegenerateMetric: det(g_A + mu*g_B) is identically zero")

    fo = grinberg_conditions(pen.first).prefixed("metric-pencil")
    ja = jacobi_conditions(pen.zero).prefixed("poisson-pencil")
    ky = killing_yano_check(pen.g, pen.omega, pctx)
    return fo.merged(ja, ky)


def strong_bi_pencil_check(A: NonHomogeneousOperator, B: NonHomogeneousOperator) -> CheckReport:
    """Strong bi-pencil: the Killing-Yano condition holds for independent
    metric and ultralocal pencil parameters (all mu, lambda)."""
    bad = _precondition_reports(A, B)
    if bad is not None:
        return bad
    base = bi_pencil_check(A, B)
    if base.error is not None:
        return base

    ctx = A.ctx
    mu, ctx2 = ctx.fresh_parameter("mu")
    lam, ctx3 = ctx2.fresh_parameter("lam")
    n = A.n
    mu_e, lam_e = E.Param(mu), E.Param(lam)
    g_mu = tuple(
        tuple(add(A.g[i][j], mul(mu_e, B.g[i][j])) for j in range(n)) for i in range(n)
    )
    w_lam = tuple(
        tuple(add(A.omega[i][j], mul(lam_e, B.omega[i][j])) for j in range(n))
        for i in range(n)
    )
    ky = killing_yano_check(g_mu, w_lam, ctx3).prefixed("two-parameter")
    return base.merged(ky)


def cross_p_tensors(A: NonHomogeneousOperator, B: NonHomogeneousOperator):
    """Symmetrized covariant derivatives of each ultralocal part along the
    other metric's connection (the two obstructions distinguishing strong
    bi-pencils); returns (P1, P2) with P1 built from B's connection acting
    on A's ultralocal part."""
    ctx = A.ctx
    n = A.n
    geomA = christoffel(A.g, ctx)
    geomB = christoffel(B.g, ctx)
    dwA, dwB = _dmat(A.omega, ctx), _dmat(B.omega, ctx)

    def nabla(geom, w, dw, i, j, k):
        terms = []
        for ss in range(n):
            inner = [dw[j][k][ss]]
            for p in range(n):
                inner.append(mul(geom.gamma[j][ss][p], w[p][k]))
                inner.append(mul(geom.gamma[k][ss][p], w[j][p]))
            terms.append(mul(geom.upper[i][ss], add(*inner)))
        return add(*terms)

    P1 = tuple(
        tuple(
            tuple(
                add(
                    nabla(geomB, A.omega, dwA, i, j, k),
                    nabla(geomB, A.omega, dwA, j, i, k),
                )
                for k in range(n)
            )
            for j in range(n)
        )
        for i in range(n)
    )
    P2 = tuple(
        tuple(
            tuple(
                add(
                    nabla(geomA, B.omega, dwB, i, j, k),
                    nabla(geomA, B.omega, dwB, j, i, k),
                )
                for k in range(n)
            )
            for j in range(n)
        )
        for i in range(n)
    )
    return P1, P2


def singularity_discriminant(gA, gB, ctx: Context) -> Expr:
    """Discriminant in the pencil parameter of det(gA + t*gB) for 2x2 metrics."""
    if len(gA) != 2 or len(gB) != 2:
        raise ValueError("the discriminant is defined for two-component metrics")
    t, ctx2 = ctx.fresh_parameter("tpen")
    te = E.Param(t)
    m = tuple(
        tuple(add(gA[i][j], mul(te, gB[i][j])) for j in range(2)) for i in range(2)
    )
    det = determinant(m, ctx2)
    coeffs = E.coefficients_in(det, t, ctx2)
    while len(coeffs) < 3:
        coeffs.append(E.ZERO)
    c0, c1, c2 = coeffs[0], coeffs[1], coeffs[2]
    return E.normalize(add(mul(c1, c1), neg(mul(E.rat(4), c2, c0))), ctx)


def mokhov_discriminant_quarter(ctx: Context, a: int, b: int, h1: Expr, h2: Expr) -> Expr:
    """Quarter-discriminant in the potential parametrization with unit
    diagonal entries: a*b*(b*h1_v + a*h2_u)^2 + (h2_v - h1_u)^2."""
    nu, nv = ctx.variables[:2]
    d = lambda f, x: E.differentiate(f, x, ctx)
    first = add(mul(E.rat(b), d(h1, nv)), mul(E.rat(a), d(h2, nu)))
    second = add(d(h2, nv), neg(d(h1, nu)))
    return E.normalize(
        add(mul(E.rat(a * b), first, first), mul(second, second)), ctx
    )


__all__ = [
    "LieStructure",
    "affinor_from_lie",
    "affinor_from_metrics",
    "affinor_from_poisson",
    "bi_pencil_check",
    "check_nijnonhom_conditions",
    "cross_p_tensors",
    "killing_yano_check",
    "killing_yano_residuals",
    "mokhov_discriminant_quarter",
    "nijenhuis_torsion",
    "singularity_discriminant",
    "strong_bi_pencil_check",
    "torsion_vanishes",
]
