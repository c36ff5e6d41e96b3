"""Hamiltonianity checks for first-order, ultralocal and (1+0) operators.

Every check builds the residuals of each defining condition over its index
tuples, in lexicographic order, and reports them through
:func:`~hamops.reports.condition_report`.  Each residual is built when it
is reported (:func:`hamops.operators.indexed`), so a report keeps alive only
what its normalisation keeps.  An operator is Hamiltonian exactly when every
residual is identically zero.

Tensors are built, differentiated and walked by the helpers of
:mod:`hamops.operators`, and every check reads the derivative tensors
``dg``, ``db``, ``dw`` and ``curl`` that each operator builds once.
Residuals are assembled from the products whose factors are both nonzero
(:func:`hamops.operators.append_product`).  Each contraction over ``s``
visits only the ``s`` at which one of a few factor rows is nonzero
(:func:`hamops.operators.support`), listed once per operator for each index
prefix the rows depend on; every product in the loop takes one factor from
those rows, so at any other ``s`` every product has a zero factor.  All this yields the same ``Expr`` trees,
in the same order, as summing every product over all ``s``: ``mul`` gives
``0`` only for a zero rational factor, ``add`` drops a zero constant next to
any other term, and ``add()`` with no terms is ``0``.
"""

from __future__ import annotations

from itertools import combinations

from .expr import add, neg
from .operators import (
    DegenerateMetric,
    NonHomogeneousOperator,
    append_product,
    derivative,
    entries,
    indexed,
    support,
    tensor,
)
from .reports import CheckReport, condition_report


def grinberg_conditions(op: NonHomogeneousOperator) -> CheckReport:
    """Necessary and sufficient conditions on (g, b), degenerate g allowed."""
    ctx = op.ctx
    n = op.n
    g, b, dg, curl = op.g, op.b, op.dg, op.curl

    def split(i, j, k):
        return add(dg[i][j][k], neg(b[i][j][k]), neg(b[j][i][k]))

    g_live = tensor(n, 2, lambda i, j: support(n, lambda s: g[i][s], lambda s: g[j][s]))
    gb_live = tensor(
        n, 3, lambda i, j, r: support(n, lambda s: g[i][s], lambda s: b[i][j][s], lambda s: b[i][r][s])
    )
    b_live = tensor(n, 3, lambda a, k, q: support(n, lambda s: b[s][a][q], lambda s: b[s][a][k]))

    def commutation(i, j, k):
        terms = []
        for s in g_live[i][j]:
            append_product(terms, g[i][s], b[j][k][s])
            append_product(terms, g[j][s], b[i][k][s], negate=True)
        return add(*terms)

    def curvature(i, j, r, k):
        terms = []
        for s in gb_live[i][j][r]:
            append_product(terms, g[i][s], curl[j][r][k][s])
            append_product(terms, b[i][j][s], b[s][r][k])
            append_product(terms, b[i][r][s], b[s][j][k], negate=True)
        return add(*terms)

    def closure(i, j, r, k, q):
        terms = []
        for a, bb, c in ((i, j, r), (j, r, i), (r, i, j)):
            for s in b_live[a][k][q]:
                append_product(terms, b[s][a][q], curl[bb][c][s][k])
                append_product(terms, b[s][a][k], curl[bb][c][s][q])
        return add(*terms)

    return condition_report(
        ctx,
        ("metric-symmetry", indexed(n, 2, lambda i, j: add(g[i][j], neg(g[j][i])))),
        ("metric-derivative-split", indexed(n, 3, split)),
        ("leading-commutation", indexed(n, 3, commutation)),
        ("curvature-relation", indexed(n, 4, curvature)),
        ("cyclic-closure", indexed(n, 5, closure)),
    )


def jacobi_families(op: NonHomogeneousOperator):
    """The ``skew-symmetry`` and ``jacobi-cyclic`` residual families of
    omega, as ``(cid, pairs)`` for :func:`condition_report`: omega is Poisson
    exactly when every residual is identically zero."""
    n = op.n
    w, dw = op.omega, op.dw

    def cyclic(i, j, k):
        terms = []
        for s in support(n, lambda s: w[i][s], lambda s: w[j][s], lambda s: w[k][s]):
            append_product(terms, w[i][s], dw[j][k][s])
            append_product(terms, w[j][s], dw[k][i][s])
            append_product(terms, w[k][s], dw[i][j][s])
        return add(*terms)

    return (
        ("skew-symmetry", indexed(n, 2, lambda i, j: add(w[i][j], w[j][i]))),
        ("jacobi-cyclic", ((idx, cyclic(*idx)) for idx in combinations(range(n), 3))),
    )


def jacobi_conditions(op: NonHomogeneousOperator) -> CheckReport:
    """Skew-symmetry of omega plus the finite-dimensional Jacobi identity."""
    return condition_report(op.ctx, *jacobi_families(op))


def phi_tensor(op: NonHomogeneousOperator):
    """Interaction tensor coupling the first-order and ultralocal parts."""
    n = op.n
    g, b, w, dw = op.g, op.b, op.omega, op.dw

    def entry(i, j, k):
        terms = []
        for s in support(n, lambda s: g[i][s], lambda s: b[i][j][s], lambda s: b[i][k][s]):
            append_product(terms, g[i][s], dw[j][k][s])
            append_product(terms, b[i][j][s], w[s][k], negate=True)
            append_product(terms, b[i][k][s], w[j][s], negate=True)
        return add(*terms)

    return tensor(n, 3, entry)


def mixed_conditions(op: NonHomogeneousOperator) -> CheckReport:
    """Coupling conditions between the first-order and ultralocal parts."""
    ctx = op.ctx
    n = op.n
    b, w, dw, curl = op.b, op.omega, op.dw, op.curl
    phi = phi_tensor(op)
    dphi = derivative(phi, ctx)

    live = tensor(
        n, 3, lambda a, bb, r: support(n, lambda s: b[s][a][r], lambda s: curl[a][bb][s][r])
    )

    def phi_derivative(i, j, k, r):
        rhs_terms = []
        for a, bb, c in ((i, j, k), (j, k, i), (k, i, j)):
            for s in live[a][bb][r]:
                append_product(rhs_terms, b[s][a][r], dw[bb][c][s])
                append_product(rhs_terms, curl[a][bb][s][r], w[s][c])
        return add(dphi[i][j][k][r], neg(add(*rhs_terms)))

    return condition_report(
        ctx,
        (
            "phi-symmetry",
            indexed(n, 3, lambda i, j, k: add(phi[i][j][k], neg(phi[k][i][j]))),
        ),
        ("phi-derivative", indexed(n, 4, phi_derivative)),
    )


def is_hamiltonian(op: NonHomogeneousOperator) -> CheckReport:
    """Full (1+0) Hamiltonianity: first-order, ultralocal and mixed conditions."""
    return grinberg_conditions(op).merged(jacobi_conditions(op), mixed_conditions(op))


def nondegenerate_decomposition(op: NonHomogeneousOperator) -> CheckReport:
    """Flat-metric route for non-degenerate leading coefficients.

    Checks b = -g * Gamma against the Levi-Civita connection of g and the
    vanishing of the curvature; equivalent to the direct conditions exactly
    on non-degenerate inputs.
    """
    ctx = op.ctx
    n = op.n
    g, b = op.g, op.b
    geom = op.levi_civita  # raises DegenerateMetric when det g == 0

    live = tensor(n, 1, lambda i: support(n, lambda s: g[i][s]))

    def match(i, j, k):
        terms = [b[i][j][k]]
        for s in live[i]:
            append_product(terms, g[i][s], geom.gamma[j][s][k])
        return add(*terms)

    return condition_report(
        ctx,
        ("levi-civita-match", indexed(n, 3, match)),
        ("flatness", entries(geom.riemann)),
    )


__all__ = [
    "DegenerateMetric",
    "grinberg_conditions",
    "jacobi_conditions",
    "jacobi_families",
    "phi_tensor",
    "mixed_conditions",
    "is_hamiltonian",
    "nondegenerate_decomposition",
]
