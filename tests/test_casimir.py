"""Casimir candidate verification, the degenerate case analysis and the
polynomial-ansatz oracle."""

from fractions import Fraction

import pytest

from hamops import catalog, expr as E
from hamops.expr import Context, OpaqueFunction, parse
from hamops.casimir import (
    C32_CASES,
    CaseAnalysisError,
    CasimirCandidate,
    c32_operator,
    casimir_report,
    casimir_residuals,
    degenerate_c32_casimir_case,
    densities_are_affine,
    is_casimir,
    polynomial_casimirs,
)
from hamops.operators import operator


def case_ctx():
    return Context(
        ("u", "v", "w"),
        functions=(
            OpaqueFunction("phi", ("v",)),
            OpaqueFunction("chi", ("w",)),
            OpaqueFunction("h0", ("v", "w")),
        ),
    )


class TestResiduals:
    def test_constant_density(self):
        B = catalog.kdv_B()
        first, zero = casimir_residuals(B, CasimirCandidate(B.ctx, E.rat(7)))
        assert all(
            E.is_identically_zero(first[i][k], B.ctx) for i in range(3) for k in range(3)
        )
        assert all(E.is_identically_zero(zero[i], B.ctx) for i in range(3))

    def test_quadratic_density_closes_both_families(self):
        B = catalog.kdv_B()
        F = CasimirCandidate(B.ctx, parse("(u - w)^2 - sqrt2*(u + w)", B.ctx))
        first, zero = casimir_residuals(B, F)
        assert all(
            E.is_identically_zero(first[i][k], B.ctx) for i in range(3) for k in range(3)
        )
        assert all(E.is_identically_zero(zero[i], B.ctx) for i in range(3))

    def test_coordinate_density_fails_the_ultralocal_family(self):
        A = catalog.kdv_A()
        F = CasimirCandidate(A.ctx, A.ctx.var("u"))
        _, zero = casimir_residuals(A, F)
        # the ultralocal part applied to (1, 0, 0): rows carry 2w and -2v
        assert E.is_identically_zero(zero[0], A.ctx)
        assert E.equal(zero[1], parse("2*w", A.ctx), A.ctx)
        assert E.equal(zero[2], parse("-2*v", A.ctx), A.ctx)


class TestIsCasimir:
    def test_table_row_with_opaque_profile(self):
        op = catalog.load("cas.C_3_1.row").payload["operator"]
        F = CasimirCandidate(op.ctx, parse("phi(w)", op.ctx))
        assert is_casimir(op, F, "C10")

    def test_two_component_rows(self):
        entry = catalog.load("cas.C_2_1.row")
        op = entry.payload["operator"]
        F = CasimirCandidate(op.ctx, parse("c1*u + c2*hf(v)", op.ctx))
        assert is_casimir(op, F, "C1")
        assert not is_casimir(op, F, "C0")

    def test_generalized_kdv_fixture_resolved_by_the_oracle(self):
        # quoted density (missing the n+1 factor) fails; corrected one passes
        for k in (1, 2, 3):
            op = catalog.load(f"gkdv({k})").payload["operator"]
            coeff_ok = Fraction(3 * (k + 1), k)
            coeff_bad = Fraction(3, k)
            ok = CasimirCandidate(
                op.ctx, parse(f"w - {coeff_ok.numerator}/{coeff_ok.denominator}*u^{k}", op.ctx)
            )
            bad = CasimirCandidate(
                op.ctx, parse(f"w - {coeff_bad.numerator}/{coeff_bad.denominator}*u^{k}", op.ctx)
            )
            assert is_casimir(op, ok, "C10")
            assert not is_casimir(op, bad, "C10")

    def test_linearity_of_the_casimir_space(self):
        op = catalog.load("cas.C_3_1.row").payload["operator"]
        ctx = op.ctx
        F1 = CasimirCandidate(ctx, parse("phi(w)", ctx))
        F2 = CasimirCandidate(ctx, parse("w^2 - 3", ctx))
        assert is_casimir(op, F1, "C10") and is_casimir(op, F2, "C10")
        combo = CasimirCandidate(
            ctx,
            E.add(
                E.mul(E.rat(2, 3), F1.density), E.mul(E.rat(-5), F2.density)
            ),
        )
        assert is_casimir(op, combo, "C10")

    def test_report_columns_are_independent(self):
        entry = catalog.load("cas.C_3_6.general.C0")
        op = entry.payload["operator"]
        F = CasimirCandidate(op.ctx, parse(entry.payload["density"], op.ctx))
        rep0 = casimir_report(op, F, "C0")
        assert rep0.verdict
        assert {c.cid for c in rep0.conditions} == {"casimir-ultralocal"}
        rep1 = casimir_report(op, F, "C1")
        assert {c.cid for c in rep1.conditions} == {"casimir-first-order"}


class TestDegenerateCaseAnalysis:
    def test_case_f_zero(self):
        ctx = case_ctx()
        P = lambda s: parse(s, ctx)
        g = P("v^2*h0(v,w)")
        h = P("h0(v,w)")
        cand = degenerate_c32_casimir_case(
            "f=0", ctx, E.ZERO, g, h, antiderivative=P("v^3/3")
        )
        assert E.equal(cand.density, P("u - v^3/3"), ctx)

    def test_case_f_g_zero(self):
        ctx = case_ctx()
        cand = degenerate_c32_casimir_case(
            "f=g=0", ctx, E.ZERO, E.ZERO, parse("h0(v,w)", ctx)
        )
        assert E.equal(cand.density, ctx.var("u"), ctx)

    def test_case_f_h_zero(self):
        ctx = case_ctx()
        cand = degenerate_c32_casimir_case(
            "f=h=0", ctx, E.ZERO, parse("h0(v,w)", ctx), E.ZERO
        )
        assert cand.density == parse("phi(v)", ctx)

    def test_case_g_zero_matches_the_inverted_kdv_shape(self):
        # generalized-KdV instantiation after exchanging the outer fields:
        # f/h = -3*(n+1)*w^(n-1) with n = 3
        ctx = case_ctx()
        P = lambda s: parse(s, ctx)
        f = P("12*w^2*h0(v,w)")
        h = P("-h0(v,w)")
        cand = degenerate_c32_casimir_case(
            "g=0", ctx, f, E.ZERO, h, antiderivative=P("-4*w^3")
        )
        assert E.equal(cand.density, P("u - 4*w^3"), ctx)
        op = c32_operator(ctx, f, E.ZERO, h)
        assert is_casimir(op, cand, "C10")
        # the quoted orientation (minus the integral of f/h) fails
        quoted = CasimirCandidate(ctx, P("u + 4*w^3"))
        assert not is_casimir(op, quoted, "C10")

    def test_case_g_h_zero(self):
        ctx = case_ctx()
        cand = degenerate_c32_casimir_case(
            "g=h=0", ctx, parse("h0(v,w)", ctx), E.ZERO, E.ZERO
        )
        assert cand.density == parse("chi(w)", ctx)

    def test_case_h_zero(self):
        ctx = case_ctx()
        P = lambda s: parse(s, ctx)
        cand = degenerate_c32_casimir_case(
            "h=0", ctx, P("1"), P("1"), E.ZERO, first_integral=P("v - w")
        )
        assert E.equal(cand.density, P("v - w"), ctx)

    def test_closure_violation_rejected(self):
        ctx = case_ctx()
        P = lambda s: parse(s, ctx)
        with pytest.raises(CaseAnalysisError):
            degenerate_c32_casimir_case(
                "f=0", ctx, E.ZERO, P("v*w"), P("v + w"), antiderivative=P("v^2/2")
            )

    def test_bad_antiderivative_rejected(self):
        ctx = case_ctx()
        P = lambda s: parse(s, ctx)
        with pytest.raises(CaseAnalysisError):
            degenerate_c32_casimir_case(
                "f=0", ctx, E.ZERO, P("v^2*h0(v,w)"), P("h0(v,w)"),
                antiderivative=P("v^2"),
            )

    # every message the case analysis can reach, each at its first failing
    # check; "g/h must depend on the second variable only", its f/h twin and
    # "constructed candidate failed the full-operator check" are left out:
    # given f = 0 (g = 0) the closure residual is -h^2 times the w- (v-)
    # derivative of g/h (f/h), and a candidate that passes the earlier checks
    # is a Casimir, so only h = 0 could reach them, and h = 0 is refused first
    @pytest.mark.parametrize(
        "case, f, g, h, extra, message",
        [
            ("f=1", "0", "0", "0", {}, "unknown case 'f=1'"),
            ("f=0", "0", "v*w", "v + w", {"antiderivative": "v^2/2"},
             "instantiation violates the closure relation"),
            ("f=0", "1", "1", "1", {}, "case 'f=0' requires f = 0"),
            ("f=0", "0", "v", "0", {}, "case 'f=0' requires h != 0"),
            ("f=0", "0", "v^2*h0(v,w)", "h0(v,w)", {}, "supply the antiderivative of g/h"),
            ("f=0", "0", "v^2*h0(v,w)", "h0(v,w)", {"antiderivative": "v^2"},
             "antiderivative does not differentiate to g/h"),
            ("f=g=0", "1", "1", "1", {}, "case 'f=g=0' requires f = 0"),
            ("f=g=0", "0", "1", "1", {}, "case 'f=g=0' requires g = 0"),
            ("f=h=0", "1", "1", "1", {}, "case 'f=h=0' requires f = 0"),
            ("f=h=0", "0", "1", "1", {}, "case 'f=h=0' requires h = 0"),
            ("f=h=0", "0", "1", "0", {"bare": True},
             "context needs an opaque function of (v,) for this case"),
            ("g=0", "1", "1", "1", {}, "case 'g=0' requires g = 0"),
            ("g=0", "w", "0", "0", {}, "case 'g=0' requires h != 0"),
            ("g=0", "12*w^2*h0(v,w)", "0", "-h0(v,w)", {}, "supply the antiderivative of f/h"),
            ("g=0", "12*w^2*h0(v,w)", "0", "-h0(v,w)", {"antiderivative": "4*w^3"},
             "antiderivative does not differentiate to f/h"),
            ("g=h=0", "1", "1", "1", {}, "case 'g=h=0' requires g = 0"),
            ("g=h=0", "1", "0", "1", {}, "case 'g=h=0' requires h = 0"),
            ("g=h=0", "1", "0", "0", {"bare": True},
             "context needs an opaque function of (w,) for this case"),
            ("h=0", "1", "1", "1", {}, "case 'h=0' requires h = 0"),
            ("h=0", "1", "1", "0", {}, "supply a first integral of f*F_v + g*F_w = 0"),
            ("h=0", "1", "1", "0", {"first_integral": "v"},
             "first integral does not solve the transport equation"),
            ("h=0", "1", "1", "0", {"first_integral": "u"},
             "first integral must not depend on the first variable"),
        ],
    )
    def test_each_refusal_at_its_first_failing_check(self, case, f, g, h, extra, message):
        extra = dict(extra)
        ctx = Context(("u", "v", "w")) if extra.pop("bare", False) else case_ctx()
        kwargs = {key: parse(text, ctx) for key, text in extra.items()}
        f, g, h = (parse(x, ctx) for x in (f, g, h))
        with pytest.raises(CaseAnalysisError) as err:
            degenerate_c32_casimir_case(case, ctx, f, g, h, **kwargs)
        assert str(err.value) == message

    def test_all_six_cases_have_ids(self):
        assert len(C32_CASES) == 6


class TestPolynomialOracle:
    def test_nondegenerate_constant_form_admits_only_constants(self):
        A = catalog.kdv_A()
        basis = polynomial_casimirs(A, 3, "C10")
        assert densities_are_affine(basis, A.ctx)
        # the kernel of the full operator here is just the constants
        assert len(basis) == 1

    def test_partial_cocycle_keeps_one_linear_direction(self):
        ctx = Context(("u", "v", "w"))
        g = tuple(tuple(E.ONE if i == j else E.ZERO for j in range(3)) for i in range(3))
        w12 = E.ONE
        om = ((E.ZERO, w12, E.ZERO), (E.neg(w12), E.ZERO, E.ZERO), (E.ZERO, E.ZERO, E.ZERO))
        op = operator(ctx, g=g, omega=om)
        basis = polynomial_casimirs(op, 3, "C10")
        assert densities_are_affine(basis, ctx)
        assert len(basis) == 2  # constants and the third coordinate

    def test_first_order_kernel_of_the_constant_form_is_affine(self):
        A = catalog.kdv_A()
        basis = polynomial_casimirs(A, 3, "C1")
        assert densities_are_affine(basis, A.ctx)
        assert len(basis) == 4  # constants plus all three coordinates

    def test_so3_bracket_has_the_quadratic_casimir(self):
        # one monomial must keep one row across the columns of the ansatz
        ctx = Context(("u", "v", "w"))
        om = tuple(
            tuple(parse(x, ctx) for x in row)
            for row in (("0", "w", "-v"), ("-w", "0", "u"), ("v", "-u", "0"))
        )
        basis = polynomial_casimirs(operator(ctx, omega=om), 2, "C0")
        assert [E.render(d) for d in basis] == ["1", "u^2 + v^2 + w^2"]

    def test_unknown_column_is_refused(self):
        # an unknown column selects no residual, which would make every
        # monomial a Casimir
        with pytest.raises(ValueError, match="column must be one of"):
            polynomial_casimirs(catalog.kdv_A(), 1, "C2")
