"""Hamiltonianity checks for first-order, ultralocal and (1+0) operators."""

import random
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamops import catalog, expr as E
from hamops.expr import Context, OpaqueFunction, add, neg, parse
from hamops.hamiltonian import (
    grinberg_conditions,
    is_hamiltonian,
    jacobi_conditions,
    mixed_conditions,
    nondegenerate_decomposition,
    phi_tensor,
)
from hamops.compatibility import Pair2Params, build_pair_2comp
from hamops.operators import append_product, derivative, indexed, operator, tensor
from hamops.reports import ReportBuilder
from support import deadline


def _mat(ctx, rows):
    return tuple(tuple(parse(x, ctx) for x in row) for row in rows)


class TestGrinberg:
    def test_constant_diagonal_passes(self):
        ctx = Context(("u", "v", "w"))
        op = operator(
            ctx,
            _mat(ctx, [["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "-1"]]),
            tuple(tuple(tuple(E.ZERO for _ in range(3)) for _ in range(3)) for _ in range(3)),
        )
        assert grinberg_conditions(op).verdict

    def test_scalar_case_forces_half_derivative(self):
        ctx = Context(("u",))
        op = operator(ctx, ((ctx.var("u"),),), (((parse("1/2", ctx),),),))
        assert grinberg_conditions(op).verdict
        bad = operator(ctx, ((ctx.var("u"),),), (((parse("1/3", ctx),),),))
        assert not grinberg_conditions(bad).verdict

    def test_first_order_part_of_scaled_operator(self):
        op = catalog.load("C_3_5").payload["operator"]
        assert grinberg_conditions(op).verdict

    def test_violating_coefficient_fails(self):
        ctx = Context(("u", "v"))
        b = [[[E.ZERO] * 2 for _ in range(2)] for _ in range(2)]
        b[0][0][0] = ctx.var("u")
        op = operator(ctx, _mat(ctx, [["1", "0"], ["0", "1"]]), b)
        rep = grinberg_conditions(op)
        assert not rep.verdict


class TestJacobi:
    def test_constant_skew_passes(self):
        ctx = Context(("u", "v", "w"))
        w = _mat(ctx, [["0", "3", "-1"], ["-3", "0", "7"], ["1", "-7", "0"]])
        assert jacobi_conditions(operator(ctx, omega=w)).verdict

    def test_closure_constrained_block(self):
        op = catalog.load("C_3_2").payload["operator"]
        assert jacobi_conditions(op).verdict

    def test_two_components_always_pass(self):
        ctx = Context(("u", "v"))
        w12 = parse("u^3", ctx)
        assert jacobi_conditions(
            operator(ctx, omega=((E.ZERO, w12), (E.neg(w12), E.ZERO)))
        ).verdict

    def test_fifty_random_two_component_structures(self):
        ctx = Context(("u", "v"))
        rng = random.Random(11)
        from support import random_expr

        for _ in range(50):
            w12 = random_expr(rng, Context(("u", "v")), depth=2)
            op = operator(ctx, omega=((E.ZERO, w12), (E.neg(w12), E.ZERO)))
            assert jacobi_conditions(op).verdict

    def test_non_skew_input_reported(self):
        ctx = Context(("u", "v"))
        op = operator(ctx, omega=((E.ZERO, ctx.var("u")), (ctx.var("u"), E.ZERO)))
        rep = jacobi_conditions(op)
        assert not rep.verdict
        assert any(c.cid == "skew-symmetry" for c in rep.failures())


class TestPhiTensor:
    def test_constant_coefficients_vanish(self):
        ctx = Context(("u", "v"))
        op = operator(
            ctx,
            g=_mat(ctx, [["1", "0"], ["0", "1"]]),
            omega=_mat(ctx, [["0", "5"], ["-5", "0"]]),
        )
        phi = phi_tensor(op)
        assert all(
            E.is_identically_zero(phi[i][j][k], ctx)
            for i in range(2)
            for j in range(2)
            for k in range(2)
        )

    def test_constant_form_gives_metric_times_structure(self):
        # diag metric with a linear ultralocal block: phi^{ijk} = eta^{ii} c^{jk}_i
        ctx = Context(("u", "v", "w"))
        eta = (2, -1, 3)
        g = tuple(
            tuple(E.rat(eta[i]) if i == j else E.ZERO for j in range(3))
            for i in range(3)
        )
        w = _mat(ctx, [["0", "w", "-v"], ["-w", "0", "2*u"], ["v", "-2*u", "0"]])
        op = operator(ctx, g=g, omega=w)
        phi = phi_tensor(op)
        names = ctx.variables
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    c_jk_i = E.differentiate(w[j][k], names[i], ctx)
                    assert E.equal(phi[i][j][k], E.mul(E.rat(eta[i]), c_jk_i), ctx)

    def test_kdv_value(self):
        A = catalog.kdv_A()
        phi = phi_tensor(A)
        # computed by direct substitution; constant and cyclic-symmetric
        assert E.equal(phi[0][1][2], E.rat(2), A.ctx)
        assert E.equal(phi[1][2][0], E.rat(2), A.ctx)
        assert E.equal(phi[2][0][1], E.rat(2), A.ctx)


class TestMixedConditions:
    def test_pure_first_order_passes(self):
        op = operator(
            Context(("u", "v")),
            g=((E.ONE, E.ZERO), (E.ZERO, E.ONE)),
        )
        assert mixed_conditions(op).verdict

    def test_kdv_first_structure_passes(self):
        assert mixed_conditions(catalog.kdv_A()).verdict

    def test_product_entry_fails_symmetry(self):
        ctx = Context(("u", "v"))
        w12 = parse("u*v", ctx)
        op = operator(
            ctx,
            g=((E.ONE, E.ZERO), (E.ZERO, E.ONE)),
            omega=((E.ZERO, w12), (E.neg(w12), E.ZERO)),
        )
        rep = mixed_conditions(op)
        assert not rep.verdict
        assert any(c.cid == "phi-symmetry" for c in rep.failures())


class TestIsHamiltonian:
    @pytest.mark.parametrize(
        "entry_id",
        [
            "C_2_1", "C_2_2", "C_3_1", "C_3_2", "C_3_3", "C_3_4", "C_3_5",
            "C_3_6", "C_3_7", "C_3_8", "C_3_9", "C_3_10", "C_3_11",
        ],
    )
    def test_classified_operators_pass(self, entry_id):
        op = catalog.load(entry_id).payload["operator"]
        assert is_hamiltonian(op).verdict

    def test_sinh_gordon(self):
        assert is_hamiltonian(catalog.load("sinh_gordon").payload["operator"]).verdict

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_generalized_kdv(self, k):
        assert is_hamiltonian(catalog.load(f"gkdv({k})").payload["operator"]).verdict


class TestNondegenerateDecomposition:
    def test_constant_diagonal_passes(self):
        ctx = Context(("u", "v"))
        op = operator(
            ctx,
            _mat(ctx, [["1", "0"], ["0", "1"]]),
            tuple(tuple(tuple(E.ZERO for _ in range(2)) for _ in range(2)) for _ in range(2)),
        )
        assert nondegenerate_decomposition(op).verdict

    def test_harmonic_potential_metric_passes_where_invertible(self):
        A, B = build_pair_2comp(
            "B2-laplace",
            Pair2Params(a=1, b=1, c=0, xi1=(0, 0, 1), xi2=(0, 1)),
        )
        # det g_B vanishes only on a hypersurface; symbolically non-degenerate
        rep = nondegenerate_decomposition(B)
        assert rep.verdict

    def test_connection_mismatch_fails(self):
        ctx = Context(("u", "v"))
        b = [[[E.ZERO] * 2 for _ in range(2)] for _ in range(2)]
        b[0][0][0] = ctx.var("u")
        op = operator(ctx, _mat(ctx, [["1", "0"], ["0", "1"]]), b)
        rep = nondegenerate_decomposition(op)
        assert not rep.verdict
        assert any(c.cid == "levi-civita-match" for c in rep.failures())

    def test_pencil_pass_specializes_to_the_first_operator(self):
        # consistency: a passing pencil check at lambda = 0 is the check for A
        from hamops.compatibility import pencil_hamiltonian_check

        ctx = catalog.kdv_context()
        A, B = catalog.kdv_A(ctx), catalog.kdv_B(ctx)
        assert pencil_hamiltonian_check(A, B).verdict
        assert is_hamiltonian(A).verdict and is_hamiltonian(B).verdict


def _dense_residuals(op):
    """``(cid, indices, residual)`` of grinberg_conditions, jacobi_conditions
    and mixed_conditions, in report order, with every contraction summed over
    all of range(n)."""
    ctx, n, g, b, w = op.ctx, op.n, op.g, op.b, op.omega
    dg, db, dw = derivative(g, ctx), derivative(b, ctx), derivative(w, ctx)
    curl = tensor(n, 4, lambda j, r, k, s: add(db[j][r][s][k], neg(db[j][r][k][s])))

    def commutation(i, j, k):
        terms = []
        for s in range(n):
            append_product(terms, g[i][s], b[j][k][s])
            append_product(terms, g[j][s], b[i][k][s], negate=True)
        return add(*terms)

    def curvature(i, j, r, k):
        terms = []
        for s in range(n):
            append_product(terms, g[i][s], curl[j][r][k][s])
            append_product(terms, b[i][j][s], b[s][r][k])
            append_product(terms, b[i][r][s], b[s][j][k], negate=True)
        return add(*terms)

    def closure(i, j, r, k, q):
        terms = []
        for a, bb, c in ((i, j, r), (j, r, i), (r, i, j)):
            for s in range(n):
                append_product(terms, b[s][a][q], curl[bb][c][s][k])
                append_product(terms, b[s][a][k], curl[bb][c][s][q])
        return add(*terms)

    def cyclic(i, j, k):
        terms = []
        for s in range(n):
            append_product(terms, w[i][s], dw[j][k][s])
            append_product(terms, w[j][s], dw[k][i][s])
            append_product(terms, w[k][s], dw[i][j][s])
        return add(*terms)

    def phi_entry(i, j, k):
        terms = []
        for s in range(n):
            append_product(terms, g[i][s], dw[j][k][s])
            append_product(terms, b[i][j][s], w[s][k], negate=True)
            append_product(terms, b[i][k][s], w[j][s], negate=True)
        return add(*terms)

    phi = tensor(n, 3, phi_entry)
    dphi = derivative(phi, ctx)

    def phi_derivative(i, j, k, r):
        rhs_terms = []
        for a, bb, c in ((i, j, k), (j, k, i), (k, i, j)):
            for s in range(n):
                append_product(rhs_terms, b[s][a][r], dw[bb][c][s])
                append_product(rhs_terms, curl[a][bb][s][r], w[s][c])
        return add(dphi[i][j][k][r], neg(add(*rhs_terms)))

    families = (
        ("metric-symmetry", indexed(n, 2, lambda i, j: add(g[i][j], neg(g[j][i])))),
        ("metric-derivative-split", indexed(
            n, 3, lambda i, j, k: add(dg[i][j][k], neg(b[i][j][k]), neg(b[j][i][k]))
        )),
        ("leading-commutation", indexed(n, 3, commutation)),
        ("curvature-relation", indexed(n, 4, curvature)),
        ("cyclic-closure", indexed(n, 5, closure)),
        ("skew-symmetry", indexed(n, 2, lambda i, j: add(w[i][j], w[j][i]))),
        ("jacobi-cyclic", ((idx, cyclic(*idx)) for idx in combinations(range(n), 3))),
        ("phi-symmetry", indexed(n, 3, lambda i, j, k: add(phi[i][j][k], neg(phi[k][i][j])))),
        ("phi-derivative", indexed(n, 4, phi_derivative)),
    )
    return [(cid, idx, x) for cid, pairs in families for idx, x in pairs]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data())
def test_sparse_assembly_builds_the_dense_trees(data):
    """The contraction loops over the support of a factor row hand
    ReportBuilder.add the trees of the dense loops over all of range(n), in
    the same order, whatever the zero pattern of g, b and omega."""
    n = data.draw(st.integers(2, 4), label="n")
    names = tuple(f"u{i + 1}" for i in range(n))
    ctx = Context(names, functions=(OpaqueFunction("f", names[:2]),))
    u = [ctx.var(x) for x in names]
    pool = (E.rat(-3, 2), *u, E.mul(u[0], u[-1]), ctx.func_expr("f"))
    rng = data.draw(st.randoms(use_true_random=False), label="rng")

    def block(rank):
        nonzero = data.draw(st.sampled_from((0.0, 0.15, 0.5, 1.0)), label="nonzero share")
        entry = lambda *_: rng.choice(pool) if rng.random() < nonzero else E.ZERO
        return tensor(n, rank, entry)

    op = operator(ctx, block(2), block(3), block(2))
    added = []
    record = lambda rb, cid, idx, x: added.append((cid, idx, x))
    with deadline(20), mock.patch.object(ReportBuilder, "add", record):
        grinberg_conditions(op)
        jacobi_conditions(op)
        mixed_conditions(op)
        assert added == _dense_residuals(op)
    # the derivative tensors the checks read are the trees of fresh derivatives
    db = derivative(op.b, ctx)
    assert (op.dg, op.db, op.dw) == (derivative(op.g, ctx), db, derivative(op.omega, ctx))
    assert op.curl == tensor(n, 4, lambda j, r, k, s: add(db[j][r][s][k], neg(db[j][r][k][s])))
