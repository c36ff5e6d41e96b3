"""Hamiltonianity checks for first-order, ultralocal and (1+0) operators.

Every check walks all index tuples in lexicographic order, collects the
normalized residual of each defining condition, and reports them through
:class:`~hamops.reports.CheckReport`.  An operator is Hamiltonian exactly
when every residual is identically zero.

Residuals are assembled from the products whose factors are both nonzero
(:func:`_append_product`), and the antisymmetrised derivative of ``b`` is
built once per operator (:func:`_curl`).  Both yield the same ``Expr`` trees
as summing every product: ``mul`` gives ``0`` only for a zero rational
factor, ``add`` drops a zero constant next to any other term, and ``add()``
with no terms is ``0``.
"""

from __future__ import annotations

from . import expr as E
from .expr import Rat, add, mul, neg
from .operators import (
    DegenerateMetric,
    FirstOrderOperator,
    NonHomogeneousOperator,
    UltralocalOperator,
    christoffel,
)
from .reports import CheckReport, ReportBuilder


def _dmat(m, ctx):
    names = ctx.variables
    n = len(names)
    return [
        [[E.differentiate(m[i][j], names[k], ctx) for k in range(n)] for j in range(n)]
        for i in range(n)
    ]


def _dcube(b, ctx):
    names = ctx.variables
    n = len(names)
    return [
        [
            [
                [E.differentiate(b[i][j][k], names[m], ctx) for m in range(n)]
                for k in range(n)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]


def _curl(b, ctx):
    """``curl[j][r][k][s] = d_k b^{jr}_s - d_s b^{jr}_k``."""
    db = _dcube(b, ctx)
    n = len(ctx.variables)
    return [
        [
            [
                [add(db[j][r][s][k], neg(db[j][r][k][s])) for s in range(n)]
                for k in range(n)
            ]
            for r in range(n)
        ]
        for j in range(n)
    ]


def _append_product(terms: list, x, y, negate: bool = False) -> None:
    """Append ``x*y`` (``-(x*y)`` when ``negate``) unless a factor is ``0``.

    A skipped product would have been ``0``, which ``add`` drops, so the sum
    of ``terms`` is the same tree as with every product appended.
    """
    if (type(x) is Rat and not x.value) or (type(y) is Rat and not y.value):
        return
    p = mul(x, y)
    terms.append(neg(p) if negate else p)


def grinberg_conditions(op: FirstOrderOperator) -> CheckReport:
    """Necessary and sufficient conditions on (g, b), degenerate g allowed."""
    ctx = op.ctx
    n = op.n
    g, b = op.g, op.b
    dg = _dmat(g, ctx)
    curl = _curl(b, ctx)
    rb = ReportBuilder(ctx)

    for i in range(n):
        for j in range(n):
            rb.add("metric-symmetry", (i, j), add(g[i][j], neg(g[j][i])))

    for i in range(n):
        for j in range(n):
            for k in range(n):
                rb.add(
                    "metric-derivative-split",
                    (i, j, k),
                    add(dg[i][j][k], neg(b[i][j][k]), neg(b[j][i][k])),
                )

    for i in range(n):
        for j in range(n):
            for k in range(n):
                terms = []
                for s in range(n):
                    _append_product(terms, g[i][s], b[j][k][s])
                    _append_product(terms, g[j][s], b[i][k][s], negate=True)
                rb.add("leading-commutation", (i, j, k), add(*terms))

    for i in range(n):
        for j in range(n):
            for r in range(n):
                for k in range(n):
                    terms = []
                    for s in range(n):
                        _append_product(terms, g[i][s], curl[j][r][k][s])
                        _append_product(terms, b[i][j][s], b[s][r][k])
                        _append_product(terms, b[i][r][s], b[s][j][k], negate=True)
                    rb.add("curvature-relation", (i, j, r, k), add(*terms))

    for i in range(n):
        for j in range(n):
            for r in range(n):
                for k in range(n):
                    for q in range(n):
                        terms = []
                        for a, bb, c in ((i, j, r), (j, r, i), (r, i, j)):
                            for s in range(n):
                                _append_product(terms, b[s][a][q], curl[bb][c][s][k])
                                _append_product(terms, b[s][a][k], curl[bb][c][s][q])
                        rb.add("cyclic-closure", (i, j, r, k, q), add(*terms))

    return rb.build()


def jacobi_conditions(op: UltralocalOperator) -> CheckReport:
    """Skew-symmetry plus the finite-dimensional Jacobi identity."""
    ctx = op.ctx
    n = op.n
    w = op.omega
    dw = _dmat(w, ctx)
    rb = ReportBuilder(ctx)

    for i in range(n):
        for j in range(n):
            rb.add("skew-symmetry", (i, j), add(w[i][j], w[j][i]))

    for i in range(n):
        for j in range(n):
            for k in range(n):
                if not (i < j < k):
                    continue
                terms = []
                for s in range(n):
                    _append_product(terms, w[i][s], dw[j][k][s])
                    _append_product(terms, w[j][s], dw[k][i][s])
                    _append_product(terms, w[k][s], dw[i][j][s])
                rb.add("jacobi-cyclic", (i, j, k), add(*terms))

    return rb.build()


def phi_tensor(op: NonHomogeneousOperator):
    """Interaction tensor coupling the first-order and ultralocal parts."""
    ctx = op.ctx
    n = op.n
    g, b, w = op.g, op.b, op.omega
    dw = _dmat(w, ctx)
    out = []
    for i in range(n):
        plane = []
        for j in range(n):
            row = []
            for k in range(n):
                terms = []
                for s in range(n):
                    _append_product(terms, g[i][s], dw[j][k][s])
                    _append_product(terms, b[i][j][s], w[s][k], negate=True)
                    _append_product(terms, b[i][k][s], w[j][s], negate=True)
                row.append(add(*terms))
            plane.append(tuple(row))
        out.append(tuple(plane))
    return tuple(out)


def mixed_conditions(op: NonHomogeneousOperator) -> CheckReport:
    """Coupling conditions between the first-order and ultralocal parts."""
    ctx = op.ctx
    n = op.n
    b, w = op.b, op.omega
    names = ctx.variables
    dw = _dmat(w, ctx)
    curl = _curl(b, ctx)
    phi = phi_tensor(op)
    rb = ReportBuilder(ctx)

    for i in range(n):
        for j in range(n):
            for k in range(n):
                rb.add("phi-symmetry", (i, j, k), add(phi[i][j][k], neg(phi[k][i][j])))

    for i in range(n):
        for j in range(n):
            for k in range(n):
                for r in range(n):
                    lhs = E.differentiate(phi[i][j][k], names[r], ctx)
                    rhs_terms = []
                    for a, bb, c in ((i, j, k), (j, k, i), (k, i, j)):
                        for s in range(n):
                            _append_product(rhs_terms, b[s][a][r], dw[bb][c][s])
                            _append_product(rhs_terms, curl[a][bb][s][r], w[s][c])
                    rb.add(
                        "phi-derivative",
                        (i, j, k, r),
                        add(lhs, neg(add(*rhs_terms))),
                    )

    return rb.build()


def is_hamiltonian(op: NonHomogeneousOperator) -> CheckReport:
    """Full (1+0) Hamiltonianity: first-order, ultralocal and mixed conditions."""
    return (
        grinberg_conditions(op.first)
        .merged(jacobi_conditions(op.zero))
        .merged(mixed_conditions(op))
    )


def nondegenerate_decomposition(op: FirstOrderOperator) -> CheckReport:
    """Flat-metric route for non-degenerate leading coefficients.

    Checks b = -g * Gamma against the Levi-Civita connection of g and the
    vanishing of the curvature; equivalent to the direct conditions exactly
    on non-degenerate inputs.
    """
    ctx = op.ctx
    n = op.n
    geom = christoffel(op.g, ctx)  # raises DegenerateMetric when det g == 0
    rb = ReportBuilder(ctx)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                terms = [op.b[i][j][k]]
                for s in range(n):
                    _append_product(terms, op.g[i][s], geom.gamma[j][s][k])
                rb.add("levi-civita-match", (i, j, k), add(*terms))
    R = geom.riemann
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    rb.add("flatness", (i, j, k, l), R[i][j][k][l])
    return rb.build()


__all__ = [
    "DegenerateMetric",
    "grinberg_conditions",
    "jacobi_conditions",
    "phi_tensor",
    "mixed_conditions",
    "is_hamiltonian",
    "nondegenerate_decomposition",
]
