"""Pair compatibility: obstruction tensors, the pencil oracle, the classified
two-component families and the three-component closing entries."""

from collections import Counter
from fractions import Fraction

import pytest

from hamops import casimir, catalog, cli, compatibility, geometry, hamiltonian, operators, expr as E
from hamops.expr import AlgConst, AlgebraicSymbol, Context, Param, parse
from hamops.compatibility import (
    FamilyConstraintError,
    Pair2Params,
    build_pair_2comp,
    check_compatible,
    check_pair,
    covariant_p_tensor,
    covariant_s_tensor,
    darboux_2comp,
    darboux_3comp,
    g_tensor,
    mokhov_operator,
    p_tensor,
    pencil_hamiltonian_check,
    r_tensor,
    s_tensor,
    schouten_L,
    ultralocal_2comp,
    ultralocal_3comp,
)
from hamops.hamiltonian import is_hamiltonian, phi_tensor
from hamops.operators import (
    derivative,
    entries,
    operator,
    pencil,
)


def _zero3(T, ctx, n=3):
    return all(
        E.is_identically_zero(T[i][j][k], ctx)
        for i in range(n)
        for j in range(n)
        for k in range(n)
    )


class TestSchoutenL:
    def test_vanishes_against_zero(self):
        ctx = catalog.kdv_context()
        A = catalog.kdv_A(ctx)
        zero = operator(ctx)
        assert _zero3(schouten_L(A, zero), ctx)

    def test_self_bracket_of_a_poisson_structure_vanishes(self):
        ctx = catalog.kdv_context()
        A = catalog.kdv_A(ctx)
        assert _zero3(schouten_L(A, A), ctx)

    def test_kdv_pair_vanishes(self):
        ctx = catalog.kdv_context()
        assert _zero3(schouten_L(catalog.kdv_A(ctx), catalog.kdv_B(ctx)), ctx)

    def test_broken_pair_has_witness(self):
        entry = catalog.load("broken_L")
        L = schouten_L(entry.payload["A"], entry.payload["B"])
        assert not _zero3(L, entry.payload["A"].ctx)


class TestPTensor:
    def test_self_pair_vanishes_for_hamiltonian_nondegenerate_input(self):
        ctx = catalog.kdv_context()
        A = catalog.kdv_A(ctx)
        assert _zero3(p_tensor(A, A), ctx)

    def test_kdv_pair_vanishes(self):
        ctx = catalog.kdv_context()
        assert _zero3(p_tensor(catalog.kdv_A(ctx), catalog.kdv_B(ctx)), ctx)

    def test_closing_form_violation_has_112_witness(self):
        ctx = Context(("u", "v"))
        A = darboux_2comp(ctx, 1, 1, E.ONE)  # c = 1
        B = catalog.load("broken_P_linear").payload["B"]
        P = p_tensor(A, B)
        assert not E.is_identically_zero(P[0][0][1], ctx)

    def test_flat_coordinate_form_matches_for_potential_pairs(self):
        # with the first operator in constant form and the second generated by
        # potentials, the flat-coordinate interaction formula reproduces the
        # general one exactly
        ctx = Context(("u", "v"), parameters=("c1p",))
        P = lambda s: parse(s, ctx)
        a, b = 1, 1
        eta = ((E.rat(a), E.ZERO), (E.ZERO, E.rat(b)))
        A = darboux_2comp(ctx, a, b, E.rat(2))
        h = [P("u^2"), P("v^2")]
        first = mokhov_operator(ctx, (E.rat(a), E.rat(b)), h)
        B = operator(ctx, first.g, first.b, ultralocal_2comp(ctx, h[0], h[1], E.rat(2), P("c1p")))
        names = ctx.variables
        d = lambda f, x: E.differentiate(f, x, ctx)
        dh = [[d(h[j], names[s]) for s in range(2)] for j in range(2)]
        ddh = [[[d(dh[j][s], names[k]) for k in range(2)] for s in range(2)] for j in range(2)]
        dwB = derivative(B.omega, ctx)
        wA = A.omega

        def flat_P(i, j, k):
            terms = []
            for s in range(2):
                terms.append(E.mul(eta[i][s], dwB[j][k][s]))
                terms.append(E.mul(eta[j][s], dwB[i][k][s]))
                for l in range(2):
                    terms.append(E.neg(E.mul(eta[i][l], ddh[j][l][s], wA[s][k])))
                    terms.append(E.neg(E.mul(eta[i][l], ddh[k][l][s], wA[j][s])))
                    terms.append(E.neg(E.mul(eta[j][l], ddh[i][l][s], wA[s][k])))
                    terms.append(E.neg(E.mul(eta[j][l], ddh[k][l][s], wA[i][s])))
            return E.add(*terms)

        P_general = p_tensor(A, B)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    assert E.is_identically_zero(
                        E.add(flat_P(i, j, k), E.neg(P_general[i][j][k])), ctx
                    )

    def test_covariant_form_matches_on_nondegenerate_pairs(self):
        for pair_id in ("kdv_self", "flat_pair_P", "strong_2comp"):
            entry = catalog.load(pair_id)
            A, B = entry.payload["A"], entry.payload["B"]
            P = p_tensor(A, B)
            Pc = covariant_p_tensor(A, B)
            n = A.n
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        assert E.is_identically_zero(
                            E.add(P[i][j][k], E.neg(Pc[i][j][k])), A.ctx
                        ), pair_id


class TestSTensor:
    def test_constant_pair_vanishes(self):
        entry = catalog.load("strong_2comp")
        A, B = entry.payload["A"], entry.payload["B"]
        S = s_tensor(A, B)
        assert all(
            E.is_identically_zero(S[i][j][k][r], A.ctx)
            for i in range(2) for j in range(2) for k in range(2) for r in range(2)
        )

    def test_kdv_pair_vanishes(self):
        ctx = catalog.kdv_context()
        S = s_tensor(catalog.kdv_A(ctx), catalog.kdv_B(ctx))
        assert all(
            E.is_identically_zero(S[i][j][k][r], ctx)
            for i in range(3) for j in range(3) for k in range(3) for r in range(3)
        )

    def test_quadratic_perturbation_has_witness(self):
        entry = catalog.load("broken_S_quadratic")
        A, B = entry.payload["A"], entry.payload["B"]
        S = s_tensor(A, B)
        assert not E.is_identically_zero(S[0][0][1][0], A.ctx)


def _phi_derivative_residuals(op):
    """Raw residual tensor of the derivative coupling condition."""
    ctx = op.ctx
    n = op.n
    names = ctx.variables
    b, w = op.b, op.omega
    dw = derivative(w, ctx)
    db = derivative(b, ctx)
    phi = phi_tensor(op)
    out = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for r in range(n):
                    lhs = E.differentiate(phi[i][j][k], names[r], ctx)
                    rhs = []
                    for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                        for s in range(n):
                            rhs.append(E.mul(b[s][x][r], dw[y][z][s]))
                            rhs.append(
                                E.mul(E.add(db[x][y][r][s], E.neg(db[x][y][s][r])), w[s][z])
                            )
                    out[(i, j, k, r)] = E.add(lhs, E.neg(E.add(*rhs)))
    return out


class TestPencilStructure:
    def test_s_tensor_is_minus_the_linear_coefficient(self):
        # sign convention pinned by the oracle; recorded, not patched
        for pair_id in ("broken_S_quadratic", "broken_L"):
            entry = catalog.load(pair_id)
            A, B = entry.payload["A"], entry.payload["B"]
            ctx = A.ctx
            mu, _ = ctx.fresh_parameter("mu")
            pen = pencil(A, B, mu)
            S = s_tensor(A, B)
            for key, resid in _phi_derivative_residuals(pen).items():
                coeffs = E.coefficients_in(resid, mu, pen.ctx)
                lam1 = coeffs[1] if len(coeffs) > 1 else E.ZERO
                i, j, k, r = key
                assert E.is_identically_zero(E.add(lam1, S[i][j][k][r]), pen.ctx)

    def test_residual_degree_bound_and_edge_coefficients(self):
        # every pencil residual is a polynomial of degree <= 2 in the formal
        # parameter; for individually Hamiltonian operators the degree-0 and
        # degree-2 coefficients vanish
        for pair_id in ("broken_L", "broken_S_quadratic", "flat_pair_P"):
            entry = catalog.load(pair_id)
            A, B = entry.payload["A"], entry.payload["B"]
            rep = pencil_hamiltonian_check(A, B, "lam")
            pctx = pencil(A, B, "lam").ctx
            saw_linear = False
            for cond in rep.conditions:
                resid = parse(cond.residual_text, pctx)
                coeffs = E.coefficients_in(resid, "lam", pctx)
                assert len(coeffs) <= 3
                assert E.is_identically_zero(coeffs[0], pctx)
                if len(coeffs) == 3:
                    assert E.is_identically_zero(coeffs[2], pctx)
                if len(coeffs) > 1 and not E.is_identically_zero(coeffs[1], pctx):
                    saw_linear = True
            assert saw_linear, pair_id


class TestOracleEquivalence:
    @pytest.mark.parametrize(
        "pair_id",
        [eid for eid, kind, _ in catalog.list_entries() if kind == "pair"],
    )
    def test_tensor_route_agrees_with_the_pencil_oracle(self, pair_id):
        entry = catalog.load(pair_id)
        A, B = entry.payload["A"], entry.payload["B"]
        pair = check_pair(A, B)
        assert pair.tensor.verdict == pair.oracle.verdict
        # the oracle reuses the pencil's first-order report; it must still be
        # the full Hamiltonianity check of the pencil
        assert pair.oracle == pencil_hamiltonian_check(A, B)
        assert pair.hamiltonian_A == is_hamiltonian(A)
        assert pair.hamiltonian_B == is_hamiltonian(B)


def _count_calls(monkeypatch, name, modules):
    """Replace the binding of ``name`` in each module by a counting wrapper."""
    original = getattr(modules[0], name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        assert getattr(module, name) is original
        monkeypatch.setattr(module, name, counting)
    return calls


class TestSharedChecks:
    """One pass per pair: each operator's Hamiltonianity and the pencil's
    first-order conditions are checked once for both compatibility routes."""

    GRINBERG_BINDINGS = (hamiltonian, compatibility, geometry)

    def test_compat_runs_the_first_order_conditions_three_times(self, monkeypatch, capsys):
        calls = _count_calls(monkeypatch, "grinberg_conditions", self.GRINBERG_BINDINGS)
        assert cli.main(["compat", "catalog:kdv_self"]) == 0
        capsys.readouterr()
        assert len(calls) == 3  # A, B and the pencil

    def test_pair_verify_runs_the_first_order_conditions_three_times(self, monkeypatch):
        calls = _count_calls(monkeypatch, "grinberg_conditions", self.GRINBERG_BINDINGS)
        assert catalog.verify("kdv_self").verdict
        assert len(calls) == 3

    DERIVATIVE_BINDINGS = (operators, hamiltonian, compatibility, geometry, casimir, catalog)

    @staticmethod
    def _block_derivations(calls, *ops):
        """How often ``derivative`` was called on each block of each operator."""
        return [sum(args[0] is T for args in calls) for op in ops for T in (op.g, op.b, op.omega)]

    def test_check_pair_differentiates_each_block_once(self, monkeypatch):
        payload = catalog.load("pair_laplace").payload
        A, B = payload["A"], payload["B"]
        calls = _count_calls(monkeypatch, "derivative", self.DERIVATIVE_BINDINGS)
        reports = check_pair(A, B)
        assert reports.tensor.verdict and reports.tensor.error is None  # L, P and S built
        assert self._block_derivations(calls, A, B) == [1] * 6

    def test_is_hamiltonian_differentiates_each_block_once(self, monkeypatch):
        op = catalog.load("kdv_A").payload["operator"]
        calls = _count_calls(monkeypatch, "derivative", self.DERIVATIVE_BINDINGS)
        is_hamiltonian(op)
        assert self._block_derivations(calls, op) == [1] * 3

    def test_bipencil_differentiates_each_tensor_once(self, monkeypatch):
        payload = catalog.load("pair_laplace").payload
        calls = _count_calls(monkeypatch, "derivative", self.DERIVATIVE_BINDINGS)
        assert geometry.bi_pencil_check(payload["A"], payload["B"]).verdict
        # ``calls`` keeps every argument alive, so no two tensors share an id
        assert calls and max(Counter(id(args[0]) for args in calls).values()) == 1

    def test_strong_bipencil_builds_the_levi_civita_data_once(self, monkeypatch):
        payload = catalog.load("pair_laplace").payload
        calls = _count_calls(monkeypatch, "christoffel", (operators,))
        geometry.strong_bi_pencil_check(payload["A"], payload["B"])
        assert len(calls) == 1  # the metric pencil's

    def test_covariant_tensors_build_the_levi_civita_data_once_per_operator(self, monkeypatch):
        payload = catalog.load("pair_laplace").payload
        A, B = payload["A"], payload["B"]
        calls = _count_calls(monkeypatch, "christoffel", (operators,))
        covariant_p_tensor(A, B)
        covariant_s_tensor(A, B)
        assert sorted(id(args[0]) for args in calls) == sorted((id(A.g), id(B.g)))

    def test_strong_bipencil_computes_two_determinants(self, monkeypatch, capsys):
        calls = _count_calls(monkeypatch, "determinant", (geometry,))
        assert cli.main(["bipencil", "--strong", "catalog:strong_3comp"]) == 0
        capsys.readouterr()
        assert len(calls) == 2  # g_A and g_B


class TestMokhovOperator:
    def test_linear_potentials_give_constant_coefficients(self):
        ctx = Context(("u", "v"), parameters=("k1", "k2", "k3", "k4"))
        P = lambda s: parse(s, ctx)
        op = mokhov_operator(ctx, (E.ONE, E.rat(-1)), [P("k1*u + k2*v"), P("k3*u + k4*v")])
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    assert E.is_identically_zero(op.b[i][j][k], ctx)
            assert E.is_identically_zero(
                E.differentiate(op.g[i][i], "u", ctx), ctx
            )

    def test_two_component_potential_blocks(self):
        # reproduces the classified second-family coefficient matrices
        ctx = Context(
            ("u", "v"),
            parameters=("a0", "b0"),
            functions=(
                E.OpaqueFunction("h1", ("u", "v")),
                E.OpaqueFunction("h2", ("u", "v")),
            ),
        )
        P = lambda s: parse(s, ctx)
        h = [P("h1(u,v)"), P("h2(u,v)")]
        op = mokhov_operator(ctx, (P("a0"), P("b0")), h)
        assert E.equal(op.g[0][0], P("2*a0*D(h1,u)"), ctx)
        assert E.equal(op.g[0][1], P("b0*D(h1,v) + a0*D(h2,u)"), ctx)
        assert E.equal(op.g[1][1], P("2*b0*D(h2,v)"), ctx)
        assert E.equal(op.b[0][0][0], P("a0*D(h1,u,u)"), ctx)
        assert E.equal(op.b[1][0][0], P("b0*D(h1,u,v)"), ctx)
        assert E.equal(op.b[1][0][1], P("b0*D(h1,v,v)"), ctx)

    def test_split_conditions_hold_identically_for_opaque_potentials(self):
        # the derivative-split and cyclic-closure conditions hold for any
        # potentials, verified symbolically with jets
        ctx = Context(
            ("u", "v"),
            functions=(
                E.OpaqueFunction("h1", ("u", "v")),
                E.OpaqueFunction("h2", ("u", "v")),
            ),
        )
        P = lambda s: parse(s, ctx)
        op = mokhov_operator(ctx, (E.ONE, E.rat(-1)), [P("h1(u,v)"), P("h2(u,v)")])
        from hamops.hamiltonian import grinberg_conditions

        rep = grinberg_conditions(op)
        by_cid = {}
        for c in rep.conditions:
            by_cid.setdefault(c.cid, []).append(c.passed)
        assert all(by_cid["metric-derivative-split"])
        assert all(by_cid["cyclic-closure"])

    def test_kdv_reconstruction_matches_exactly(self):
        entry = catalog.load("lemma3_pair")
        B = entry.payload["B"]
        ctx = B.ctx
        P = lambda s: parse(s, ctx)
        expect_g = [["1/2", "0", "1/2"], ["0", "0", "0"], ["1/2", "0", "1/2"]]
        expect_w = [
            ["0", "u - w + 1/sqrt2", "0"],
            ["w - u - 1/sqrt2", "0", "w - u + 1/sqrt2"],
            ["0", "u - w - 1/sqrt2", "0"],
        ]
        for i in range(3):
            for j in range(3):
                assert E.equal(B.g[i][j], P(expect_g[i][j]), ctx)
                assert E.equal(B.omega[i][j], P(expect_w[i][j]), ctx)

    def test_quoted_constant_relation_fails_to_reconstruct(self):
        # with the sign-flipped constant relation the (1,3) ultralocal entry
        # picks up a spurious constant; recorded in DISCREPANCIES.md
        params = ("m1", "m2", "m4", "c2", "c3", "c4", "k1", "k2", "k3")
        ctx = Context(("u", "v", "w"), parameters=params,
                      algebraics=(AlgebraicSymbol("sqrt2", 2, E.rat(2)),))
        P = lambda s: parse(s, ctx)
        m5_quoted = P("-1/2*(k2 + c2*m4 + c4*m2)")
        h1 = P("1/4*u + (m1 - 1/2)*w + m2*v")
        h2 = P("m2*u - m4*w") + m5_quoted
        h3 = P("-1/4*w + m1*u + m4*v")
        om = ultralocal_3comp(ctx, [h1, h2, h3], 1, -1, -1,
                              P("-2"), P("c2"), P("c3"), P("c4"), 0, P("k1"), P("k2"), P("k3"))
        assert not E.is_identically_zero(om[0][2], ctx)


class TestGRTensors:
    def test_linear_potentials_annihilate_both(self):
        ctx = Context(("u", "v"), parameters=("k1", "k2", "k3", "k4"))
        P = lambda s: parse(s, ctx)
        h = [P("k1*u + k2*v"), P("k3*u + k4*v")]
        G = g_tensor(ctx, (E.ONE, E.rat(-1)), h)
        R = r_tensor(ctx, (E.ONE, E.rat(-1)), h)
        assert all(
            E.is_identically_zero(G[i][j][k], ctx)
            for i in range(2) for j in range(2) for k in range(2)
        )
        assert all(
            E.is_identically_zero(R[i][j][k][l], ctx)
            for i in range(2) for j in range(2) for k in range(2) for l in range(2)
        )

    def test_harmonic_pair_annihilates_both(self):
        ctx = Context(("u", "v"), algebraics=(AlgebraicSymbol("i", 2, E.rat(-1)),))
        u, v = ctx.var("u"), ctx.var("v")
        ii = AlgConst("i")
        zp, zm = u + ii * v, u - ii * v
        h1 = zp**3 + (2 * zm + 1)
        h2 = -ii * zp**3 + ii * (2 * zm + 1)
        G = g_tensor(ctx, (E.ONE, E.ONE), [h1, h2])
        R = r_tensor(ctx, (E.ONE, E.ONE), [h1, h2])
        assert all(
            E.is_identically_zero(G[i][j][k], ctx)
            for i in range(2) for j in range(2) for k in range(2)
        )
        assert all(
            E.is_identically_zero(R[i][j][k][l], ctx)
            for i in range(2) for j in range(2) for k in range(2) for l in range(2)
        )

    @pytest.mark.parametrize("a,b", [(1, -1), (-1, 1)])
    def test_bilinear_obstruction_value(self, a, b):
        # the bilinear trial potential leaves exactly the 2*b*k3^2 obstruction
        ctx = Context(("u", "v"), parameters=("k1", "k2", "k3", "k5", "k6"))
        P = lambda s: parse(s, ctx)
        h1 = P("k1*u + k2*v + k3*u*v")
        h2 = P(f"k3/2*v^2 - ({b}/(2*{a}))*k3*u^2 + k5*v + k6*u")
        R = r_tensor(ctx, (E.rat(a), E.rat(b)), [h1, h2])
        assert E.equal(R[0][1][0][1], P(f"2*({b})*k3^2"), ctx)


class TestUltralocalBuilders:
    def test_two_component_entry(self):
        ctx = Context(("u", "v"), parameters=("c0", "c1"))
        P = lambda s: parse(s, ctx)
        w = ultralocal_2comp(ctx, P("u^2"), P("u*v"), P("c0"), P("c1"))
        assert E.equal(w[0][1], P("c0*(2*u + u) + c1"), ctx)
        w2 = ultralocal_2comp(ctx, P("u^2"), P("u*v"), E.ZERO, P("c1"))
        assert E.equal(w2[0][1], P("c1"), ctx)

    def test_three_component_constant_reduction(self):
        ctx = Context(("u", "v", "w"), parameters=("k1", "k2", "k3"))
        P = lambda s: parse(s, ctx)
        zero = E.ZERO
        w = ultralocal_3comp(ctx, [zero, zero, zero], 1, -1, 1,
                             zero, zero, zero, zero, 0, P("k1"), P("k2"), P("k3"))
        assert E.equal(w[0][1], P("k1"), ctx)
        assert E.equal(w[0][2], P("k2"), ctx)
        assert E.equal(w[1][2], P("k3"), ctx)

    def test_closing_entry_matches_the_interaction_condition(self):
        # recompute the (1,1,2)-component of the interaction tensor for the
        # closed pair: it must vanish by construction
        entry = catalog.load("lemma3_pair")
        A, B = entry.payload["A"], entry.payload["B"]
        P = p_tensor(A, B)
        assert E.is_identically_zero(P[0][0][1], A.ctx)


class TestBuildPair2Comp:
    def test_zero_constants_give_the_zero_operator(self):
        A, B = build_pair_2comp("B1", Pair2Params(a=1, b=1, c=Fraction(0)))
        assert all(E.is_identically_zero(x, B.ctx) for T in (B.g, B.b) for _, x in entries(T))
        assert pencil_hamiltonian_check(A, B).verdict

    def test_all_families_pass_the_oracle(self):
        cases = [
            ("B1", Pair2Params(a=1, b=1, c=Fraction(3), k1=Fraction(1), k2=Fraction(2), k3=Fraction(-1))),
            ("B2-laplace", Pair2Params(a=-1, b=-1, c=Fraction(2), xi1=(0, 0, 1), xi2=(1, 2))),
            ("B2-wave", Pair2Params(a=-1, b=1, c=Fraction(1), xi1=(0, 0, 0, 2), xi2=(0, 1))),
            ("B2-case2ii", Pair2Params(a=1, b=-1, c=Fraction(2), xi1=(0, 1, 1), xi2=(2,), xi3=(1, 0, 2))),
            ("B2-case2iii", Pair2Params(a=-1, b=1, c=Fraction(1), xi1=(0, 0, 2), xi2=(0, 3), xi3=(1, 1))),
        ]
        for family, params in cases:
            A, B = build_pair_2comp(family, params)
            assert pencil_hamiltonian_check(A, B).verdict, family
            assert check_compatible(A, B).verdict, family

    def test_signature_constraints_enforced(self):
        with pytest.raises(FamilyConstraintError):
            build_pair_2comp("B2-laplace", Pair2Params(a=1, b=-1))
        with pytest.raises(FamilyConstraintError):
            build_pair_2comp("B2-wave", Pair2Params(a=1, b=1))

    def test_profile_constraint_enforced(self):
        with pytest.raises(FamilyConstraintError):
            build_pair_2comp(
                "B2-wave", Pair2Params(a=1, b=-1, xi1=(0, 0, 1), xi2=(0, 0, 1))
            )

    def test_forced_double_quadratic_fails_the_oracle(self):
        # bypass the constructor guard: both profiles curved must fail
        ctx = Context(("u", "v"))
        u, v = ctx.var("u"), ctx.var("v")
        f1 = (u + v) ** 2
        f2 = 2 * (u - v) ** 2
        h1, h2 = f1 + f2, f1 - f2
        A = darboux_2comp(ctx, 1, -1, E.ONE)
        first = mokhov_operator(ctx, (E.ONE, E.rat(-1)), [h1, h2])
        wB = ultralocal_2comp(ctx, h1, h2, E.ONE, E.ZERO)
        B = operator(ctx, first.g, first.b, wB)
        assert not pencil_hamiltonian_check(A, B).verdict

    def test_wrong_profile_sign_in_the_null_families_fails(self):
        # the two null-profile branches need opposite relative signs; using
        # the same sign in the first branch must fail the oracle
        ctx = Context(("u", "v"))
        u, v = ctx.var("u"), ctx.var("v")
        z = u + v
        pre = v - u
        xi1, xi2, xi3 = z**2, 1 + 2 * z, 3 * z + z**2
        h1 = xi1 + pre * xi2
        h2_wrong = xi3 + pre * xi2
        A = darboux_2comp(ctx, 1, -1, E.ONE)
        first = mokhov_operator(ctx, (E.ONE, E.rat(-1)), [h1, h2_wrong])
        wB = ultralocal_2comp(ctx, h1, h2_wrong, E.ONE, E.ZERO)
        B = operator(ctx, first.g, first.b, wB)
        assert not pencil_hamiltonian_check(A, B).verdict
