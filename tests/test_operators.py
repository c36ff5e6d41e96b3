"""Operator containers, pencils, metric geometry and document round-trips."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamops import catalog, expr as E
from hamops.expr import Context, parse
from hamops.hamiltonian import grinberg_conditions, nondegenerate_decomposition
from hamops.operators import (
    DegenerateMetric,
    DimensionMismatch,
    adjugate,
    christoffel,
    derivative,
    determinant,
    entries,
    invert_metric,
    is_flat,
    operator,
    operator_from_document,
    operator_to_document,
    pair_from_document,
    pair_to_document,
    pencil,
    tensor,
    zeros,
)

from support import expr_context, random_expr


@pytest.fixture()
def ctx2():
    return Context(("u", "v"))


class TestPencil:
    def test_pencil_with_zero_operator(self):
        A = catalog.kdv_A()
        Z = operator(A.ctx)
        pen = pencil(A, Z, "lam")
        for i in range(3):
            for j in range(3):
                assert E.equal(pen.g[i][j], A.g[i][j], pen.ctx)
                assert E.equal(pen.omega[i][j], A.omega[i][j], pen.ctx)

    def test_pencil_with_itself_scales(self):
        A = catalog.kdv_A()
        pen = pencil(A, A, "lam")
        scale = parse("1 + lam", pen.ctx)
        for i in range(3):
            for j in range(3):
                assert E.equal(pen.g[i][j], E.mul(scale, A.g[i][j]), pen.ctx)

    def test_kdv_pencil_leading_coefficient(self):
        ctx = catalog.kdv_context()
        pen = pencil(catalog.kdv_A(ctx), catalog.kdv_B(ctx), "lam")
        pctx = pen.ctx
        expect = [
            ["1 + lam/2", "0", "lam/2"],
            ["0", "-1", "0"],
            ["lam/2", "0", "-1 + lam/2"],
        ]
        for i in range(3):
            for j in range(3):
                assert E.equal(pen.g[i][j], parse(expect[i][j], pctx), pctx)

    def test_specializing_the_parameter_recovers_the_first_operator(self):
        ctx = catalog.kdv_context()
        pen = pencil(catalog.kdv_A(ctx), catalog.kdv_B(ctx), "lam")
        A = catalog.kdv_A(ctx)
        for i in range(3):
            for j in range(3):
                at_zero = E.substitute(pen.g[i][j], {"lam": E.ZERO})
                assert E.equal(at_zero, A.g[i][j], pen.ctx)

    def test_dimension_mismatch(self, ctx2):
        A = operator(ctx2)
        B = catalog.kdv_A()
        with pytest.raises(DimensionMismatch):
            pencil(A, B, "lam")


class TestInvertMetric:
    def test_constant_diagonal(self):
        ctx = Context(("u", "v", "w"))
        g = tuple(
            tuple(E.rat(x) if i == j else E.ZERO for j, x in enumerate(row))
            for i, row in enumerate([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
        )
        inv = invert_metric(g, ctx)
        for i in range(3):
            for j in range(3):
                assert E.equal(inv[i][j], g[i][j], ctx)

    def test_offdiagonal_swap(self, ctx2):
        g = ((E.ZERO, E.ONE), (E.ONE, E.ZERO))
        inv = invert_metric(g, ctx2)
        assert E.equal(inv[0][1], E.ONE, ctx2)
        assert E.equal(inv[0][0], E.ZERO, ctx2)

    def test_rank_two_leading_coefficient_is_degenerate(self):
        B = catalog.kdv_B()
        with pytest.raises(DegenerateMetric):
            invert_metric(B.g, B.ctx)

    def test_entries_share_one_ring(self):
        """Every entry normalised through the metric's one ring is the normal
        form a fresh ring gives it."""
        ctx = Context(("u", "v", "w"))
        g = tuple(tuple(parse(t, ctx) for t in row) for row in (
            ("u", "1", "v"), ("1", "v*w", "0"), ("v", "0", "u + w"),
        ))
        det, inv = determinant(g), invert_metric(g, ctx)
        for (i, j), a in entries(adjugate(g)):
            assert inv[i][j] == E.normalize(E.div(a, det), ctx)

    def test_involution_on_nondegenerate_inputs(self, ctx2):
        g = ((ctx2.var("u"), E.ONE), (E.ONE, ctx2.var("v")))
        gii = invert_metric(invert_metric(g, ctx2), ctx2)
        for i in range(2):
            for j in range(2):
                assert E.equal(gii[i][j], g[i][j], ctx2)


class TestDerivative:
    def test_equal_entries_share_one_derivative(self, ctx2):
        T = tuple(parse("u^2*v + 1/(u - v)", ctx2) for _ in range(2))
        assert T[0] is not T[1]
        dT = derivative(T, ctx2)
        assert dT[0][0] is dT[1][0] and dT[0][1] is dT[1][1]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10**6))
def test_derivative_differentiates_every_entry(seed):
    """The walker shared by a tensor's entries gives each entry the tree
    that differentiating it alone gives."""
    ctx = expr_context()
    rng = random.Random(seed)
    pool = [random_expr(rng, ctx, depth=2) for _ in range(3)]
    T = tensor(3, 2, lambda i, j: E.mul(rng.choice(pool), random_expr(rng, ctx, depth=1)))
    dT = derivative(T, ctx)
    for (i, j), x in entries(T):
        for s, name in enumerate(ctx.variables):
            assert dT[i][j][s] == E.differentiate(x, name, ctx)


class TestMetricGeometry:
    def test_constant_diagonal_is_flat_with_zero_symbols(self, ctx2):
        g = ((E.rat(3), E.ZERO), (E.ZERO, E.rat(-2)))
        geom = christoffel(g, ctx2)
        assert all(
            geom.gamma[i][j][k] == E.ZERO
            for i in range(2)
            for j in range(2)
            for k in range(2)
        )
        assert geom.is_flat()

    def test_coordinate_diagonal_metric_is_flat_with_nonzero_symbols(self, ctx2):
        g = ((ctx2.var("u"), E.ZERO), (E.ZERO, ctx2.var("v")))
        geom = christoffel(g, ctx2)
        assert not E.is_identically_zero(geom.gamma[0][0][0], ctx2)
        assert geom.is_flat()

    def test_repeated_coordinate_diagonal_is_not_flat(self, ctx2):
        # decided by the curvature checker: diag(u, u) has nonzero curvature
        g = ((ctx2.var("u"), E.ZERO), (E.ZERO, ctx2.var("u")))
        assert not is_flat(g, ctx2)

    def test_polynomial_sphere_surrogate_is_not_flat(self, ctx2):
        g = ((E.ONE, E.ZERO), (E.ZERO, parse("1 - u^2", ctx2)))
        assert not is_flat(g, ctx2)

    def test_metric_compatibility_of_the_connection(self, ctx2):
        g = ((ctx2.var("u"), E.ZERO), (E.ZERO, ctx2.var("v")))
        geom = christoffel(g, ctx2)
        names = ctx2.variables
        for k in range(2):
            for i in range(2):
                for j in range(2):
                    t = E.differentiate(geom.lower[i][j], names[k], ctx2)
                    for s in range(2):
                        t = t - geom.gamma[s][k][i] * geom.lower[s][j]
                        t = t - geom.gamma[s][k][j] * geom.lower[i][s]
                    assert E.is_identically_zero(t, ctx2)

    def test_degenerate_metric_has_no_geometry(self, ctx2):
        with pytest.raises(DegenerateMetric):
            christoffel(((E.ONE, E.ZERO), (E.ZERO, E.ZERO)), ctx2)


class TestCatalogGeometryInvariants:
    def test_nondegenerate_catalog_operators_split_through_the_connection(self):
        # b + g*Gamma == 0 and flatness for non-degenerate catalog operators
        checked = 0
        for eid in ("kdv_A", "nilpotent6_op"):
            op = catalog.load(eid).payload["operator"]
            rep = nondegenerate_decomposition(op)
            assert rep.verdict, eid
            checked += 1
        B = catalog.load("flat_pair_P").payload["B"]
        rep = nondegenerate_decomposition(B)
        assert rep.verdict
        checked += 1
        assert checked == 3

    def test_grinberg_equivalence_on_nondegenerate_fixtures(self):
        for eid, which in (("flat_pair_P", "B"), ("kdv_self", "A"), ("pair_b1", "B")):
            op = catalog.load(eid).payload[which]
            det = determinant(op.g)
            if E.is_identically_zero(det, op.ctx):
                continue
            assert (
                grinberg_conditions(op).verdict
                == nondegenerate_decomposition(op).verdict
            )


class TestDocuments:
    def test_operator_round_trip(self):
        doc = {
            "n": 3,
            "variables": ["u", "v", "w"],
            "algebraic_constants": [{"name": "sqrt2", "min_poly": "sqrt2^2 - 2"}],
            "opaque_functions": [{"name": "f", "args": ["v", "w"]}],
            "g": [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]],
            "omega": [
                ["0", "f(v,w)/u", "0"],
                ["-f(v,w)/u", "0", "0"],
                ["0", "0", "0"],
            ],
        }
        op = operator_from_document(doc)
        doc2 = operator_to_document(op)
        op2 = operator_from_document(json.loads(json.dumps(doc2)))
        for i in range(3):
            for j in range(3):
                assert E.equal(op.omega[i][j], op2.omega[i][j], op.ctx)

    def test_jets_at_other_arguments_round_trip(self):
        doc = {
            "n": 2,
            "variables": ["u", "v"],
            "opaque_functions": [{"name": "f", "args": ["v", "u"]}],
            "assumptions": [{"solve_for": "D(f, v, v)", "rhs": "D(f, x2)(u, v)"}],
            "g": [["D(f, x1)(u, v)", "0"], ["0", "1"]],
        }
        op = operator_from_document(doc)
        doc2 = operator_to_document(op)
        assert doc2["g"][0][0] == "D(f, x1)(u, v)"
        assert doc2["assumptions"][0]["rhs"] == "D(f, x2)(u, v)"
        op2 = operator_from_document(json.loads(json.dumps(doc2)))
        assert op2.g == op.g and op2.ctx.assumptions == op.ctx.assumptions

    def test_absent_blocks_mean_zero(self):
        doc = {"n": 2, "variables": ["u", "v"], "omega": [["0", "u"], ["-u", "0"]]}
        op = operator_from_document(doc)
        assert op.g == zeros(2, 2)
        doc2 = {"n": 2, "variables": ["u", "v"], "g": [["1", "0"], ["0", "1"]]}
        op2 = operator_from_document(doc2)
        assert op2.omega == zeros(2, 2)

    def test_pair_document_round_trip(self):
        entry = catalog.load("kdv_pair")
        doc = pair_to_document(entry.payload["A"], entry.payload["B"])
        A, B = pair_from_document(json.loads(json.dumps(doc)))
        for i in range(3):
            for j in range(3):
                assert E.equal(A.omega[i][j], entry.payload["A"].omega[i][j], A.ctx)
                assert E.equal(B.g[i][j], entry.payload["B"].g[i][j], B.ctx)

    def test_assumption_round_trip(self):
        doc = catalog.export("C_3_2")
        op = operator_from_document(doc)
        assert len(op.ctx.assumptions) == 1
        from hamops.hamiltonian import is_hamiltonian

        assert is_hamiltonian(op).verdict

    def test_min_poly_with_gradient_round_trip(self):
        doc = catalog.export("C_3_11")
        assert doc["algebraic_constants"] == [{"name": "s", "min_poly": "s^2 - (w)"}]
        op = operator_from_document(doc)
        alg = op.ctx.algebraic("s")
        assert alg.power == 2
        assert E.equal(alg.rhs, op.ctx.var("w"), op.ctx)
        ds = E.differentiate(parse("s", op.ctx), "w", op.ctx)
        assert E.equal(ds, parse("1/(2*s)", op.ctx), op.ctx)

    def test_bad_min_poly_rejected(self):
        doc = {
            "n": 1,
            "variables": ["u"],
            "algebraic_constants": [{"name": "s", "min_poly": "s^2 - s - 1"}],
        }
        with pytest.raises(E.ExprError):
            operator_from_document(doc)
