"""Nijenhuis torsion, Killing-Yano residuals, Lie-structure conditions,
bi-pencils and the singularity discriminant."""

import contextlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamops import catalog, expr as E
from hamops.expr import AlgConst, AlgebraicSymbol, Context, Param, parse
from hamops.compatibility import (
    Pair2Params,
    build_pair_2comp,
    check_compatible,
    p_tensor,
)
from hamops.geometry import (
    LieStructure,
    affinor_from_lie,
    affinor_from_metrics,
    bi_pencil_check,
    check_nijnonhom_conditions,
    killing_yano_check,
    killing_yano_residuals,
    lie_from_document,
    lie_to_document,
    mokhov_discriminant_quarter,
    nijenhuis_torsion,
    singularity_discriminant,
    strong_bi_pencil_check,
    torsion_vanishes,
)
from hamops.operators import DegenerateMetric, operator, pencil

from support import random_abelian, random_nilpotent6, random_sl2_scaled


class TestTorsion:
    def test_constant_affinor(self):
        ctx = Context(("u", "v"))
        L = ((E.rat(2), E.rat(3)), (E.rat(-1), E.rat(5)))
        assert torsion_vanishes(L, ctx)

    def test_coordinate_diagonal_affinor(self):
        ctx = Context(("u", "v", "w"))
        L = tuple(
            tuple(ctx.var(ctx.variables[i]) if i == j else E.ZERO for j in range(3))
            for i in range(3)
        )
        assert torsion_vanishes(L, ctx)

    def test_nilpotent_bracket_with_incompatible_metric_has_torsion(self):
        # 2-step nilpotency alone is not enough: with the identity metric
        # (which is not compatible with this bracket) the torsion survives
        s = LieStructure.from_sparse(3, [(1, 2, 3, 1)])
        ctx = s.default_context()
        eta = tuple(tuple(E.ONE if i == j else E.ZERO for j in range(3)) for i in range(3))
        L = affinor_from_lie(s, eta, ctx)
        N = nijenhuis_torsion(L, ctx)
        assert E.equal(N[0][0][2], E.neg(ctx.var("u3")), ctx)
        assert not torsion_vanishes(L, ctx)
        # while the algebraic conditions do hold
        assert check_nijnonhom_conditions(s).verdict


class TestAffinors:
    def test_equal_metrics_give_the_identity(self):
        ctx = Context(("u", "v"))
        g = ((ctx.var("u"), E.ONE), (E.ONE, ctx.var("v")))
        L = affinor_from_metrics(g, g, ctx)
        for i in range(2):
            for j in range(2):
                want = E.ONE if i == j else E.ZERO
                assert E.equal(L[i][j], want, ctx)

    def test_degenerate_second_metric_rejected(self):
        ctx = catalog.kdv_context()
        gA = catalog.kdv_A(ctx).g
        gB = catalog.kdv_B(ctx).g
        with pytest.raises(DegenerateMetric):
            affinor_from_metrics(gA, gB, ctx)

    def test_poisson_affinor(self):
        ctx = Context(("u", "v"))
        w1 = ((E.ZERO, E.ONE), (E.rat(-1), E.ZERO))
        w2 = ((E.ZERO, ctx.var("u")), (E.neg(ctx.var("u")), E.ZERO))
        L = affinor_from_metrics(w1, w2, ctx)
        assert E.equal(L[0][0], parse("1/u", ctx), ctx)

    def test_potential_pair_torsion_vanishes_only_on_shell(self):
        # generic potentials leave torsion; the classified family removes it
        ctx = Context(("u", "v"))
        gA = ((E.ONE, E.ZERO), (E.ZERO, E.ONE))
        u, v = ctx.var("u"), ctx.var("v")
        h1g, h2g = u * u * v, u + v * v  # generic potentials
        from hamops.compatibility import mokhov_operator

        off = mokhov_operator(ctx, (E.ONE, E.ONE), [h1g, h2g])
        L = affinor_from_metrics(gA, off.g, ctx)
        assert not torsion_vanishes(L, ctx)

        A, B = build_pair_2comp(
            "B2-laplace", Pair2Params(a=1, b=1, c=0, xi1=(0, 0, 1), xi2=(0, 1))
        )
        L2 = affinor_from_metrics(A.g, B.g, A.ctx)
        assert torsion_vanishes(L2, A.ctx)


class TestLieStructures:
    def test_invariants_enforced(self):
        # bracket [e1,e2] = e3, [e1,e3] = e1 violates the Jacobi identity
        with pytest.raises(ValueError):
            LieStructure.from_sparse(3, [(1, 2, 3, 1), (1, 3, 1, 1)])

    def test_cocycle_enforced(self):
        # on the filiform bracket [e1,e2] = e3, [e1,e3] = e4, d(e2* ^ e3*) = 0
        # while d(e2* ^ e4*) = -e1* ^ e2* ^ e3*
        filiform = [(1, 2, 3, 1), (1, 3, 4, 1)]
        with pytest.raises(ValueError, match=r"jacobi-cyclic fails at \(1, 2, 3\)"):
            LieStructure.from_sparse(4, filiform, [(2, 4, 1)])
        assert LieStructure.from_sparse(4, filiform, [(2, 3, 1)]).f[1][2] == 1

    def test_skew_symmetry_enforced(self):
        zero_c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
        zero_f = [[0] * 3 for _ in range(3)]
        c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
        c[0][1][2] = c[1][0][2] = 1
        f = [[0] * 3 for _ in range(3)]
        f[0][1] = f[1][0] = 1
        for bad_c, bad_f in ((c, zero_f), (zero_c, f)):
            with pytest.raises(ValueError, match=r"skew-symmetry fails at \(1, 2\)"):
                LieStructure(3, bad_c, bad_f)
        assert LieStructure(3, zero_c, zero_f).c[0][1][2] == 0

    def test_abelian_passes(self):
        s, eta, ctx = random_abelian(random.Random(0), 4)
        assert check_nijnonhom_conditions(s).verdict
        assert torsion_vanishes(affinor_from_lie(s, eta, ctx), ctx)

    def test_six_dimensional_example(self):
        entry = catalog.load("nilpotent6")
        assert catalog.verify("nilpotent6").verdict

    def test_semisimple_type_fails_both(self):
        s, eta, ctx = random_sl2_scaled(random.Random(1))
        rep = check_nijnonhom_conditions(s)
        assert not rep.verdict
        assert any(c.cid == "nilpotency" for c in rep.failures())
        assert not torsion_vanishes(affinor_from_lie(s, eta, ctx), ctx)

    @pytest.mark.parametrize("entry_id", ["heisenberg3", "nilpotent6", "sl2_like"])
    def test_document_round_trip(self, entry_id):
        payload = catalog.load(entry_id).payload
        s, eta, ctx = payload["lie"], payload.get("eta"), payload.get("ctx")
        doc = json.loads(json.dumps(lie_to_document(s, eta, ctx)))
        assert lie_from_document(doc) == (s, eta, ctx or s.default_context())

    def test_document_takes_the_context_fields(self):
        doc = {"n": 2, "variables": ["x", "y"], "parameters": ["k"], "c": [[1, 2, 1, "1"]],
               "eta": [["k", "0"], ["0", "1"]]}
        s, eta, ctx = lie_from_document(doc)
        assert ctx == Context(("x", "y"), ("k",))
        assert eta[0][0] == parse("k", ctx)
        with pytest.raises(ValueError, match="n must be an integer"):
            lie_from_document({"variables": ["x", "y"], "c": [[1, 2, 1, "1"]]})

    def test_equivalence_on_random_structures(self):
        rng = random.Random(20240)
        for _ in range(4):
            s, eta, ctx = random_nilpotent6(rng)
            conditions = check_nijnonhom_conditions(s).verdict
            torsion = torsion_vanishes(affinor_from_lie(s, eta, ctx), ctx)
            assert conditions and torsion


def _dense(n, c_entries, f_entries):
    """The c and f arrays of ``LieStructure.from_sparse``, later entries
    overwriting earlier ones."""
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, val in c_entries:
        c[i - 1][j - 1][k - 1] = Fraction(val)
        c[j - 1][i - 1][k - 1] = -Fraction(val)
    f = [[Fraction(0)] * n for _ in range(n)]
    for i, j, val in f_entries:
        f[i - 1][j - 1] = Fraction(val)
        f[j - 1][i - 1] = -Fraction(val)
    return c, f


def _reference_invariants(n, c, f) -> bool:
    """Skew-symmetry, the Jacobi identity and the cocycle identity, as
    direct loops over rational structure constants."""
    for i in range(n):
        for j in range(n):
            if f[i][j] != -f[j][i]:
                return False
            for k in range(n):
                if c[i][j][k] != -c[j][i][k]:
                    return False
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    s1 = sum(c[i][j][s] * c[s][k][l] for s in range(n))
                    s2 = sum(c[j][k][s] * c[s][i][l] for s in range(n))
                    s3 = sum(c[k][i][s] * c[s][j][l] for s in range(n))
                    if s1 + s2 + s3 != 0:
                        return False
    for i in range(n):
        for j in range(n):
            for k in range(n):
                t = sum(
                    f[i][s] * c[j][k][s] + f[j][s] * c[k][i][s] + f[k][s] * c[i][j][s]
                    for s in range(n)
                )
                if t != 0:
                    return False
    return True


def _accepts(n, c_entries, f_entries) -> bool:
    try:
        LieStructure.from_sparse(n, c_entries, f_entries)
    except ValueError:
        return False
    return True


# the filiform bracket of dimension 4 and the Heisenberg bracket of dimension 3
_BRACKETS = ((4, [(1, 2, 3, 1), (1, 3, 4, 1)]), (3, [(1, 2, 3, 1)]))


@st.composite
def _lie_inputs(draw):
    unit = st.sampled_from((-1, 0, 1))
    if draw(st.booleans()):
        n, c_entries = draw(st.sampled_from(_BRACKETS))
    else:
        n = draw(st.integers(1, 4))
        index = st.integers(1, n)
        c_entries = draw(st.lists(st.tuples(index, index, index, unit), max_size=5))
    index = st.integers(1, n)
    f_entries = draw(st.lists(st.tuples(index, index, unit), max_size=4))
    return n, c_entries, f_entries


# exact, as under --numeric-only and as under --max-degree 0
_MODES = (contextlib.nullcontext, lambda: E.numeric_zero_mode(seed=0), lambda: E.expansion_guard(0))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_lie_inputs(), st.sampled_from(_MODES))
def test_lie_validation_matches_the_reference_loops(inputs, mode):
    n, c_entries, f_entries = inputs
    expected = _reference_invariants(n, *_dense(n, c_entries, f_entries))
    with mode():
        assert _accepts(n, c_entries, f_entries) == expected


class TestKillingYano:
    def test_constant_data_passes(self):
        ctx = Context(("u", "v"))
        g = ((E.ONE, E.ZERO), (E.ZERO, E.rat(-3)))
        w = ((E.ZERO, E.rat(5)), (E.rat(-5), E.ZERO))
        assert killing_yano_check(operator(ctx, g=g), operator(ctx, omega=w)).verdict

    def test_compatible_linear_structure_passes(self):
        A = catalog.kdv_A()
        assert killing_yano_check(A, A).verdict

    def test_product_entry_fails(self):
        ctx = Context(("u", "v"))
        g = ((E.ONE, E.ZERO), (E.ZERO, E.ONE))
        w12 = parse("u*v", ctx)
        w = ((E.ZERO, w12), (E.neg(w12), E.ZERO))
        assert not killing_yano_check(operator(ctx, g=g), operator(ctx, omega=w)).verdict

    def test_degenerate_metric_rejected(self):
        ctx = Context(("u", "v"))
        g = ((E.ONE, E.ZERO), (E.ZERO, E.ZERO))
        with pytest.raises(DegenerateMetric):
            killing_yano_check(operator(ctx, g=g), operator(ctx, omega=g))


class TestBiPencil:
    def test_constant_pair_passes(self):
        entry = catalog.load("strong_2comp")
        assert bi_pencil_check(entry.payload["A"], entry.payload["B"]).verdict

    def test_self_pair_passes(self):
        ctx = catalog.kdv_context()
        A = catalog.kdv_A(ctx)
        assert bi_pencil_check(A, A).verdict

    def test_interaction_failure_shows_up_in_the_killing_yano_block(self):
        entry = catalog.load("flat_pair_P")
        rep = bi_pencil_check(entry.payload["A"], entry.payload["B"])
        assert not rep.verdict
        fails = {c.cid for c in rep.failures()}
        assert "killing-yano" in fails
        assert all(not c.cid.startswith("metric-pencil") for c in rep.failures())

    def test_degenerate_operator_reported(self):
        ctx = catalog.kdv_context()
        rep = bi_pencil_check(catalog.kdv_A(ctx), catalog.kdv_B(ctx))
        assert rep.error is not None and "DegenerateMetric" in rep.error
        rep2 = strong_bi_pencil_check(catalog.kdv_A(ctx), catalog.kdv_B(ctx))
        assert rep2.error is not None

    def test_equivalence_with_the_tensor_route_on_nondegenerate_pairs(self):
        for pair_id in ("kdv_self", "strong_2comp", "strong_3comp", "pair_b1", "flat_pair_P"):
            entry = catalog.load(pair_id)
            A, B = entry.payload["A"], entry.payload["B"]
            assert (
                bi_pencil_check(A, B).verdict == check_compatible(A, B).verdict
            ), pair_id

    def test_strong_pairs_pass_and_imply_the_plain_check(self):
        for pair_id in ("strong_2comp", "strong_3comp"):
            entry = catalog.load(pair_id)
            A, B = entry.payload["A"], entry.payload["B"]
            strong = strong_bi_pencil_check(A, B)
            assert strong.verdict
            assert bi_pencil_check(A, B).verdict

    def test_strong_is_strictly_stronger(self):
        # a compatible pair with a symbolically invertible second metric that
        # passes the single-parameter check but fails the two-parameter one
        entry = catalog.load("pair_laplace")
        A, B = entry.payload["A"], entry.payload["B"]
        assert bi_pencil_check(A, B).verdict
        rep = strong_bi_pencil_check(A, B)
        assert not rep.verdict
        assert any(c.cid.startswith("two-parameter") for c in rep.failures())

    def test_two_parameter_residual_expands_through_the_cross_tensors(self):
        from hamops.geometry import cross_p_tensors

        entry = catalog.load("pair_laplace")
        A, B = entry.payload["A"], entry.payload["B"]
        ctx = A.ctx
        mu, c2 = ctx.fresh_parameter("mu")
        lam, c3 = c2.fresh_parameter("lam")
        n = A.n
        mu_e, lam_e = Param(mu), Param(lam)
        g_mu = tuple(
            tuple(E.add(A.g[i][j], E.mul(mu_e, B.g[i][j])) for j in range(n))
            for i in range(n)
        )
        w_lam = tuple(
            tuple(E.add(A.omega[i][j], E.mul(lam_e, B.omega[i][j])) for j in range(n))
            for i in range(n)
        )
        lhs = killing_yano_residuals(operator(c3, g=g_mu), operator(c3, omega=w_lam))
        kyA = killing_yano_residuals(A, A)
        kyB = killing_yano_residuals(B, B)
        P1, P2 = cross_p_tensors(A, B)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    want = E.add(
                        kyA[i][j][k],
                        E.mul(mu_e, P1[i][j][k]),
                        E.mul(lam_e, P2[i][j][k]),
                        E.mul(mu_e, lam_e, kyB[i][j][k]),
                    )
                    assert E.is_identically_zero(
                        E.add(lhs[i][j][k], E.neg(want)), c3
                    )

    def test_killing_yano_residual_expands_through_the_pencil(self):
        # residual(g_mu, w_mu) == residual(A) + mu*P + mu^2*residual(B), exactly
        for pair_id in ("kdv_self", "flat_pair_P", "strong_2comp"):
            entry = catalog.load(pair_id)
            A, B = entry.payload["A"], entry.payload["B"]
            ctx = A.ctx
            mu, _ = ctx.fresh_parameter("mu")
            pen = pencil(A, B, mu)
            lhs = killing_yano_residuals(pen, pen)
            kyA = killing_yano_residuals(A, A)
            kyB = killing_yano_residuals(B, B)
            P = p_tensor(A, B)
            mu_e = Param(mu)
            n = A.n
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        want = E.add(
                            kyA[i][j][k],
                            E.mul(mu_e, P[i][j][k]),
                            E.mul(mu_e, mu_e, kyB[i][j][k]),
                        )
                        assert E.is_identically_zero(
                            E.add(lhs[i][j][k], E.neg(want)), pen.ctx
                        ), (pair_id, i, j, k)


class TestDiscriminant:
    def test_equal_identity_metrics(self):
        ctx = Context(("u", "v"))
        g = ((E.ONE, E.ZERO), (E.ZERO, E.ONE))
        assert E.is_identically_zero(singularity_discriminant(g, g, ctx), ctx)

    def test_potential_family_metrics_are_singular(self):
        for family, params in (
            ("B2-laplace", Pair2Params(a=1, b=1, c=0, xi1=(0, 0, 1), xi2=(0, 1))),
            ("B2-wave", Pair2Params(a=1, b=-1, c=0, xi1=(0, 0, 0, 1), xi2=(1, 1))),
        ):
            A, B = build_pair_2comp(family, params)
            disc = singularity_discriminant(A.g, B.g, A.ctx)
            assert E.is_identically_zero(disc, A.ctx), family

    def test_constant_family_quarter_discriminant_formula(self):
        # five-parameter linear potentials: Delta/4 = a*b*(b*k2 + a*k4)^2 + (k1 - k5)^2
        ctx = Context(("u", "v"), parameters=("k1", "k2", "k4", "k5"))
        P = lambda s: parse(s, ctx)
        for a, b in ((1, 1), (1, -1)):
            h1 = P("k1*u + k2*v")
            h2 = P("k4*u + k5*v")
            quarter = mokhov_discriminant_quarter(ctx, a, b, h1, h2)
            expect = P(f"({a})*({b})*(({b})*k2 + ({a})*k4)^2 + (k1 - k5)^2")
            assert E.equal(quarter, expect, ctx)
            # and it is one quarter of the raw discriminant of the pencil determinant
            from hamops.compatibility import mokhov_operator

            gB = mokhov_operator(ctx, (E.rat(a), E.rat(b)), [h1, h2]).g
            gA = ((E.rat(a), E.ZERO), (E.ZERO, E.rat(b)))
            raw = singularity_discriminant(gA, gB, ctx)
            assert E.equal(raw, E.mul(E.rat(4), quarter), ctx)
