"""Hamiltonianity checks for first-order, ultralocal and (1+0) operators."""

import random

import pytest

from hamops import catalog, expr as E
from hamops.expr import Context, OpaqueFunction, parse
from hamops.hamiltonian import (
    grinberg_conditions,
    is_hamiltonian,
    jacobi_conditions,
    mixed_conditions,
    nondegenerate_decomposition,
    phi_tensor,
)
from hamops.compatibility import Pair2Params, build_pair_2comp
from hamops.operators import operator


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
