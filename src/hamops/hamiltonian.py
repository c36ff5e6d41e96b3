"""Hamiltonianity checks for first-order, ultralocal and (1+0) operators.

Every check walks all index tuples in lexicographic order, collects the
normalized residual of each defining condition, and reports them through
:class:`~hamops.reports.CheckReport`.  An operator is Hamiltonian exactly
when every residual is identically zero.

Tensors are built, differentiated and walked by the helpers of
:mod:`hamops.operators`.  Residuals are assembled from the products whose
factors are both nonzero (:func:`hamops.operators.append_product`), and the
antisymmetrised derivative of ``b`` is built once per operator
(:func:`_curl`).  Both yield the same ``Expr`` trees as summing every
product: ``mul`` gives ``0`` only for a zero rational factor, ``add`` drops
a zero constant next to any other term, and ``add()`` with no terms is
``0``.
"""

from __future__ import annotations

from .expr import add, neg
from .operators import (
    DegenerateMetric,
    FirstOrderOperator,
    NonHomogeneousOperator,
    UltralocalOperator,
    append_product,
    christoffel,
    derivative,
    entries,
    tensor,
)
from .reports import CheckReport, ReportBuilder


def _curl(b, ctx):
    """``curl[j][r][k][s] = d_k b^{jr}_s - d_s b^{jr}_k``."""
    db = derivative(b, ctx)
    return tensor(len(b), 4, lambda j, r, k, s: add(db[j][r][s][k], neg(db[j][r][k][s])))


def grinberg_conditions(op: FirstOrderOperator) -> CheckReport:
    """Necessary and sufficient conditions on (g, b), degenerate g allowed."""
    ctx = op.ctx
    n = op.n
    g, b = op.g, op.b
    dg = derivative(g, ctx)
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
                    append_product(terms, g[i][s], b[j][k][s])
                    append_product(terms, g[j][s], b[i][k][s], negate=True)
                rb.add("leading-commutation", (i, j, k), add(*terms))

    for i in range(n):
        for j in range(n):
            for r in range(n):
                for k in range(n):
                    terms = []
                    for s in range(n):
                        append_product(terms, g[i][s], curl[j][r][k][s])
                        append_product(terms, b[i][j][s], b[s][r][k])
                        append_product(terms, b[i][r][s], b[s][j][k], negate=True)
                    rb.add("curvature-relation", (i, j, r, k), add(*terms))

    for i in range(n):
        for j in range(n):
            for r in range(n):
                for k in range(n):
                    for q in range(n):
                        terms = []
                        for a, bb, c in ((i, j, r), (j, r, i), (r, i, j)):
                            for s in range(n):
                                append_product(terms, b[s][a][q], curl[bb][c][s][k])
                                append_product(terms, b[s][a][k], curl[bb][c][s][q])
                        rb.add("cyclic-closure", (i, j, r, k, q), add(*terms))

    return rb.build()


def jacobi_conditions(op: UltralocalOperator) -> CheckReport:
    """Skew-symmetry plus the finite-dimensional Jacobi identity."""
    ctx = op.ctx
    n = op.n
    w = op.omega
    dw = derivative(w, ctx)
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
                    append_product(terms, w[i][s], dw[j][k][s])
                    append_product(terms, w[j][s], dw[k][i][s])
                    append_product(terms, w[k][s], dw[i][j][s])
                rb.add("jacobi-cyclic", (i, j, k), add(*terms))

    return rb.build()


def phi_tensor(op: NonHomogeneousOperator):
    """Interaction tensor coupling the first-order and ultralocal parts."""
    ctx = op.ctx
    n = op.n
    g, b, w = op.g, op.b, op.omega
    dw = derivative(w, ctx)

    def entry(i, j, k):
        terms = []
        for s in range(n):
            append_product(terms, g[i][s], dw[j][k][s])
            append_product(terms, b[i][j][s], w[s][k], negate=True)
            append_product(terms, b[i][k][s], w[j][s], negate=True)
        return add(*terms)

    return tensor(n, 3, entry)


def mixed_conditions(op: NonHomogeneousOperator) -> CheckReport:
    """Coupling conditions between the first-order and ultralocal parts."""
    ctx = op.ctx
    n = op.n
    b, w = op.b, op.omega
    dw = derivative(w, ctx)
    curl = _curl(b, ctx)
    phi = phi_tensor(op)
    dphi = derivative(phi, ctx)
    rb = ReportBuilder(ctx)

    for i in range(n):
        for j in range(n):
            for k in range(n):
                rb.add("phi-symmetry", (i, j, k), add(phi[i][j][k], neg(phi[k][i][j])))

    for i in range(n):
        for j in range(n):
            for k in range(n):
                for r in range(n):
                    rhs_terms = []
                    for a, bb, c in ((i, j, k), (j, k, i), (k, i, j)):
                        for s in range(n):
                            append_product(rhs_terms, b[s][a][r], dw[bb][c][s])
                            append_product(rhs_terms, curl[a][bb][s][r], w[s][c])
                    rb.add(
                        "phi-derivative",
                        (i, j, k, r),
                        add(dphi[i][j][k][r], neg(add(*rhs_terms))),
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
                    append_product(terms, op.g[i][s], geom.gamma[j][s][k])
                rb.add("levi-civita-match", (i, j, k), add(*terms))
    for idx, x in entries(geom.riemann):
        rb.add("flatness", idx, x)
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
