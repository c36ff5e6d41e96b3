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
from .hamiltonian import grinberg_conditions, jacobi_conditions, jacobi_families
from .operators import (
    MAX_COMPONENTS,
    NonHomogeneousOperator,
    append_product,
    array_from_document,
    array_to_document,
    context_from_document,
    context_to_document,
    derivative,
    determinant,
    document_field,
    entries,
    entrywise,
    indexed,
    invert_metric,
    is_int,
    matmul,
    operator,
    pencil,
    tensor,
)
from .reports import CheckReport, condition_report


# ---------------------------------------------------------------------------
# affinors and torsion


def nijenhuis_torsion(L, ctx: Context):
    """Torsion N^k_{ij} of a (1,1)-tensor L^i_j; returns N[k][i][j]."""
    n = len(L)
    dL = derivative(L, ctx)

    def entry(k, i, j):
        terms = []
        for s in range(n):
            append_product(terms, L[s][i], dL[k][j][s])
            append_product(terms, L[s][j], dL[k][i][s], negate=True)
            append_product(terms, L[k][s], dL[s][i][j])
            append_product(terms, L[k][s], dL[s][j][i], negate=True)
        return add(*terms)

    return tensor(n, 3, entry)


def torsion_report(L, ctx: Context) -> CheckReport:
    """``nijenhuis-torsion`` records of the torsion N[k][i][j] of L."""
    return condition_report(ctx, ("nijenhuis-torsion", entries(nijenhuis_torsion(L, ctx))))


def torsion_vanishes(L, ctx: Context) -> bool:
    return all(E.is_identically_zero(x, ctx) for _, x in entries(nijenhuis_torsion(L, ctx)))


def affinor_from_metrics(gA, gB, ctx: Context):
    """L^i_j = gA^{is} (gB)_{sj}; the second metric must be non-degenerate."""
    return matmul(gA, invert_metric(gB, ctx))


# ---------------------------------------------------------------------------
# Lie structures


@dataclass(frozen=True)
class LieStructure:
    """Rational structure constants c^{ij}_k with a 2-cocycle f^{ij}.

    The constructor checks the structure's own invariants, skew-symmetry and
    the Jacobi and cocycle identities, which make ``omega`` Poisson, as the
    exact residuals of :func:`~hamops.hamiltonian.jacobi_families`; the
    torsion conditions are checked separately.
    """

    n: int
    c: tuple  # c[i][j][k] Fractions
    f: tuple  # f[i][j] Fractions

    def __post_init__(self):
        object.__setattr__(self, "c", entrywise(Fraction, self.c))
        object.__setattr__(self, "f", entrywise(Fraction, self.f))
        # --max-degree bounds checks, not the validation of their input
        ctx = self.default_context()
        with E.expansion_guard(None):
            for cid, pairs in jacobi_families(operator(ctx, omega=self.omega(ctx))):
                for idx, x in pairs:
                    if not E.is_identically_zero(x, ctx):
                        raise ValueError(
                            "c must be skew and satisfy the Jacobi identity, and f be a skew"
                            f" 2-cocycle for c; {cid} fails at {tuple(i + 1 for i in idx)}"
                        )

    @classmethod
    def from_sparse(cls, n: int, c_entries, f_entries=()):
        """Build from sparse lists [i, j, k, value] and [i, j, value] (1-based).

        ``n`` must be an integer in 1..MAX_COMPONENTS, indices integers in
        1..n and values integers, Fractions or rational strings; anything
        else raises ``ValueError`` before any identity is checked.
        """
        if not is_int(n) or not 1 <= n <= MAX_COMPONENTS:
            raise ValueError(f"n must be an integer from 1 to {MAX_COMPONENTS}, found {n!r}")
        c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        for i, j, k, val in _sparse_entries(c_entries, 3, n, "c"):
            c[i - 1][j - 1][k - 1] = val
            c[j - 1][i - 1][k - 1] = -val
        f = [[Fraction(0)] * n for _ in range(n)]
        for i, j, val in _sparse_entries(f_entries, 2, n, "f"):
            f[i - 1][j - 1] = val
            f[j - 1][i - 1] = -val
        return cls(n, c, f)

    def omega(self, ctx: Context):
        """Linear ultralocal structure w^{ij} = c^{ij}_k u^k + f^{ij}."""
        n = self.n
        us = [ctx.var(name) for name in ctx.variables[:n]]

        def entry(i, j):
            terms = []
            for k in range(n):
                append_product(terms, E.rat(self.c[i][j][k]), us[k])
            return add(*terms, E.rat(self.f[i][j]))

        return tensor(n, 2, entry)

    def default_context(self) -> Context:
        return Context(tuple(f"u{i+1}" for i in range(self.n)))


def lie_from_document(doc: dict):
    """``(s, eta, ctx)`` of a Lie document: the structure of its fields ``n``,
    ``c`` and ``f``, its metric ``eta`` (None when absent) and the context of
    its operator-document fields, which ``eta`` is parsed over.  The
    structure is built first, so a malformed one is refused before any
    other field is read."""
    c, f = (document_field(doc, key, ()) for key in ("c", "f"))
    s = LieStructure.from_sparse(doc.get("n"), c, f)
    ctx = context_from_document(doc)
    eta = document_field(doc, "eta", None)
    if eta is not None:
        eta = array_from_document(eta, s.n, 2, ctx, "eta")
    return s, eta, ctx


def lie_to_document(s: LieStructure, eta=None, ctx: Context | None = None) -> dict:
    """The Lie document that ``lie_from_document`` reads back as ``(s, eta,
    ctx)``; ``ctx`` defaults to ``s.default_context()``."""
    ctx = ctx or s.default_context()
    doc = context_to_document(ctx)
    doc["c"] = [[i + 1, j + 1, k + 1, str(x)] for (i, j, k), x in entries(s.c) if i < j and x]
    doc["f"] = [[i + 1, j + 1, str(x)] for (i, j), x in entries(s.f) if i < j and x]
    if eta is not None:
        doc["eta"] = array_to_document(eta, ctx)
    return doc


def _sparse_entries(items, width: int, n: int, name: str):
    """Validated ``[index, ..., value]`` entries, the value as a Fraction.

    A value must be an int, a Fraction or a rational string; floats are
    refused, as in operator documents.
    """
    if not isinstance(items, (list, tuple)):
        raise ValueError(f"{name} must be a list of entries")
    out = []
    for entry in items:
        if not isinstance(entry, (list, tuple)) or len(entry) != width + 1:
            raise ValueError(
                f"an entry of {name} must list {width} indices and a value, found {entry!r}"
            )
        *idx, val = entry
        if not all(is_int(i) and 1 <= i <= n for i in idx):
            raise ValueError(f"indices of {name} entry {entry!r} must be integers from 1 to {n}")
        try:
            q = Fraction(val) if is_int(val) or isinstance(val, (Fraction, str)) else None
        except (ValueError, ZeroDivisionError):
            q = None
        if q is None:
            raise ValueError(
                f"value of {name} entry {entry!r} must be an integer or a rational string"
            )
        out.append((*idx, q))
    return out


def check_nijnonhom_conditions(s: LieStructure) -> CheckReport:
    """Algebraic torsion-freeness conditions: 2-step nilpotency of the bracket
    and annihilation of the cocycle by the bracket."""
    n, c, f = s.n, s.c, s.f

    def nilpotency(i, j, k, l):
        return E.rat(sum(c[i][p][j] * c[k][l][p] for p in range(n)))

    def cocycle(i, j, k):
        return E.rat(sum(f[i][p] * c[j][k][p] for p in range(n)))

    return condition_report(
        s.default_context(),
        ("nilpotency", indexed(n, 4, nilpotency)),
        ("cocycle-action", indexed(n, 3, cocycle)),
    )


def affinor_from_bivector(g, w, ctx: Context):
    """L^i_j = g_{jp} w^{pi}; the metric g^{ij} must be non-degenerate."""
    return tuple(zip(*matmul(invert_metric(g, ctx), w)))


def affinor_from_lie(s: LieStructure, eta, ctx: Context):
    """L^i_j = g_{js} (c^{si}_k u^k + f^{si}) for a constant metric eta^{ij}."""
    return affinor_from_bivector(eta, s.omega(ctx), ctx)


# ---------------------------------------------------------------------------
# Killing-Yano and bi-pencils


def covariant_derivative(geom, w, dw):
    """nabla_s w^{jk} along the Levi-Civita connection ``geom``, from
    ``dw[j][k][s] = d_s w^{jk}``; returns D[j][k][s]."""
    n = len(w)

    def entry(j, k, s):
        terms = [dw[j][k][s]]
        for p in range(n):
            append_product(terms, geom.gamma[j][s][p], w[p][k])
            append_product(terms, geom.gamma[k][s][p], w[j][p])
        return add(*terms)

    return tensor(n, 3, entry)


def killing_yano_residuals(G: NonHomogeneousOperator, W: NonHomogeneousOperator):
    """Residuals of the symmetrized covariant derivative of W's ultralocal
    part along the Levi-Civita connection of G's metric; indexed [i][j][k]."""
    geom = G.levi_civita
    n = W.n
    D = covariant_derivative(geom, W.omega, W.dw)

    def raised(i, j, k):
        terms = []
        for s in range(n):
            append_product(terms, geom.upper[i][s], D[j][k][s])
        return add(*terms)

    up = tensor(n, 3, raised)
    return tensor(n, 3, lambda i, j, k: add(up[i][j][k], up[j][i][k]))


def killing_yano_check(G: NonHomogeneousOperator, W: NonHomogeneousOperator) -> CheckReport:
    residuals = killing_yano_residuals(G, W)
    return condition_report(W.ctx, ("killing-yano", entries(residuals)))


def bi_pencil_check(A: NonHomogeneousOperator, B: NonHomogeneousOperator) -> CheckReport:
    """Bi-pencil conditions for a pair of non-degenerate operators.

    (i) the metric pencil satisfies the first-order conditions identically in
    the pencil parameter, (ii) the ultralocal pencil is Poisson identically,
    and (iii) the ultralocal pencil is Killing-Yano for the metric pencil.
    """
    return _bi_pencil(A, B)[0]


def _bi_pencil(A: NonHomogeneousOperator, B: NonHomogeneousOperator):
    """``bi_pencil_check(A, B)`` and the pencil A + mu*B it built, or None
    when a metric is degenerate."""
    ctx = A.ctx
    for which, op in (("A", A), ("B", B)):
        if E.is_identically_zero(determinant(op.g), ctx):
            error = f"DegenerateMetric: det(g_{which}) is identically zero"
            return CheckReport([], error=error), None
    mu, _ = ctx.fresh_parameter("mu")
    pen = pencil(A, B, mu)
    fo = grinberg_conditions(pen).prefixed("metric-pencil")
    ja = jacobi_conditions(pen).prefixed("poisson-pencil")
    ky = killing_yano_check(pen, pen)
    return fo.merged(ja, ky), pen


def strong_bi_pencil_check(A: NonHomogeneousOperator, B: NonHomogeneousOperator) -> CheckReport:
    """Strong bi-pencil: the Killing-Yano condition holds for independent
    metric and ultralocal pencil parameters (all mu, lambda)."""
    base, pen = _bi_pencil(A, B)
    if base.error is not None:
        return base

    lam, ctx3 = pen.ctx.fresh_parameter("lam")
    w_lam = operator(ctx3, omega=pencil(A, B, lam).omega)
    ky = killing_yano_check(pen, w_lam).prefixed("two-parameter")
    return base.merged(ky)


def cross_p_tensors(A: NonHomogeneousOperator, B: NonHomogeneousOperator):
    """Symmetrized covariant derivatives of each ultralocal part along the
    other metric's connection (the two obstructions distinguishing strong
    bi-pencils); returns (P1, P2) with P1 built from B's connection acting
    on A's ultralocal part."""
    return killing_yano_residuals(B, A), killing_yano_residuals(A, B)


def singularity_discriminant(gA, gB, ctx: Context) -> Expr:
    """Discriminant in the pencil parameter of det(gA + t*gB) for 2x2 metrics."""
    if len(gA) != 2 or len(gB) != 2:
        raise ValueError("the discriminant is defined for two-component metrics")
    t, ctx2 = ctx.fresh_parameter("tpen")
    te = E.Param(t)
    m = entrywise(lambda x, y: add(x, mul(te, y)), gA, gB)
    det = determinant(m)
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
    "affinor_from_bivector",
    "affinor_from_lie",
    "affinor_from_metrics",
    "bi_pencil_check",
    "check_nijnonhom_conditions",
    "covariant_derivative",
    "cross_p_tensors",
    "killing_yano_check",
    "killing_yano_residuals",
    "lie_from_document",
    "lie_to_document",
    "mokhov_discriminant_quarter",
    "nijenhuis_torsion",
    "singularity_discriminant",
    "strong_bi_pencil_check",
    "torsion_report",
    "torsion_vanishes",
]
