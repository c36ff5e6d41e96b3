"""Expression-kernel tests: parsing, differentiation, normal forms, zero
tests, evaluation and the randomized fallback."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamops import expr as E, poly
from hamops.expr import (
    AlgebraicSymbol,
    Assumption,
    Context,
    ExprError,
    NonIntegerExponentError,
    OpaqueFunction,
    ParseError,
    PoleError,
    UndeclaredSymbolError,
    Var,
    ZeroDenominatorError,
    parse,
    render,
)

from support import deadline, expr_context, random_expr, random_zero_expr, shared_ring_context


@pytest.fixture()
def ctx():
    return Context(
        ("u", "v", "w"),
        parameters=("c1", "c2"),
        algebraics=(AlgebraicSymbol("sqrt2", 2, E.rat(2)),),
        functions=(
            OpaqueFunction("f", ("v", "w")),
            OpaqueFunction("g0", ("v", "w")),
            OpaqueFunction("h", ("v", "w")),
        ),
    )


def jacob1_ctx():
    fns = (
        OpaqueFunction("f", ("v", "w")),
        OpaqueFunction("g0", ("v", "w")),
        OpaqueFunction("h", ("v", "w")),
    )
    base = Context(("u", "v", "w"), functions=fns)
    rhs = parse("(h(v,w)*D(f,v) - g0(v,w)*D(h,w) + h(v,w)*D(g0,w))/f(v,w)", base)
    return Context(
        ("u", "v", "w"),
        functions=fns,
        assumptions=(Assumption("h", (1, 0), rhs, parse("f(v,w)", base)),),
    )


class TestParser:
    def test_sum_of_power_and_product(self, ctx):
        e = parse("u^2 + 2*v", ctx)
        assert isinstance(e, E.Add)
        assert E.render(e) == "u^2 + 2*v"

    def test_quadratic_density_with_algebraic_constant(self, ctx):
        e = parse("(u-w)^2 - sqrt2*(u+w)", ctx)
        n = E.normalize(e, ctx)
        expanded = parse("u^2 - 2*u*w + w^2 - sqrt2*u - sqrt2*w", ctx)
        assert E.equal(n, expanded, ctx)

    def test_jet_canonical_order(self, ctx):
        assert parse("D(f,v,w)", ctx) == parse("D(f,w,v)", ctx)

    def test_round_trip(self, ctx):
        for text in (
            "u^2 + 2*v",
            "(u-w)^2 - sqrt2*(u+w)",
            "f(v,w)/u - 3/2*c1",
            "D(h,v,w) * (u + 1/7)",
            "-w^2",
            "u^-2 + v",
        ):
            e = parse(text, ctx)
            again = parse(render(e), ctx)
            assert E.equal(e, again, ctx)

    def test_syntax_error_offset(self, ctx):
        with pytest.raises(ParseError) as err:
            parse("u + ^2", ctx)
        assert err.value.offset == 4

    def test_undeclared_identifier(self, ctx):
        with pytest.raises(ParseError):
            parse("u + zz", ctx)

    def test_non_integer_exponent(self, ctx):
        with pytest.raises(ParseError):
            parse("u^v", ctx)
        with pytest.raises(NonIntegerExponentError):
            ctx.var("u") ** 1.5

    def test_unary_minus_binds_outside_power(self, ctx):
        assert E.equal(parse("-w^2", ctx), E.neg(parse("w^2", ctx)), ctx)

    def test_bare_function_sugar(self, ctx):
        assert parse("f", ctx) == parse("f(v,w)", ctx)


class TestDifferentiate:
    def test_polynomial(self, ctx):
        e = parse("u^2 + 2*v", ctx)
        assert E.equal(E.differentiate(e, "u", ctx), parse("2*u", ctx), ctx)

    def test_jet_creation(self, ctx):
        e = parse("f(v,w)", ctx)
        assert E.differentiate(e, "v", ctx) == parse("D(f,v)", ctx)

    def test_variable_outside_arguments(self, ctx):
        e = parse("f(v,w)", ctx)
        assert E.differentiate(e, "u", ctx) == E.ZERO

    def test_linear_entry_derivative_vanishes(self, ctx):
        # entries like c1*w + c2 have no u-dependence
        e = parse("c1*w + c2", ctx)
        assert E.is_identically_zero(E.differentiate(e, "u", ctx), ctx)

    def test_undeclared_variable_raises(self, ctx):
        with pytest.raises(UndeclaredSymbolError):
            E.differentiate(parse("u", ctx), "z", ctx)

    def test_chain_rule_through_composite_argument(self):
        c = Context(("u", "v"), functions=(OpaqueFunction("phi", ("z",)),))
        e = parse("phi(u*v)", c)
        d = E.differentiate(e, "u", c)
        assert E.equal(d, E.mul(E.Func("phi", (1,), (parse("u*v", c),)), c.var("v")), c)


class TestNormalize:
    def test_binomial_cancellation(self, ctx):
        assert E.is_identically_zero(parse("(u+v)^2 - u^2 - 2*u*v - v^2", ctx), ctx)

    def test_minimal_polynomial_reduction(self, ctx):
        assert E.normalize(parse("sqrt2*sqrt2", ctx), ctx) == E.rat(2)

    def test_closure_relation_rewrite(self):
        jctx = jacob1_ctx()
        resid = parse(
            "f(v,w)*D(h,v) - h(v,w)*D(f,v) + g0(v,w)*D(h,w) - h(v,w)*D(g0,w)", jctx
        )
        assert E.is_identically_zero(resid, jctx)
        out, conds = E.normalize_with_side_conditions(resid, jctx)
        assert out == E.ZERO
        assert conds == ("f(v, w)",)

    def test_closure_relation_without_assumption(self, ctx):
        resid = parse(
            "f(v,w)*D(h,v) - h(v,w)*D(f,v) + g0(v,w)*D(h,w) - h(v,w)*D(g0,w)", ctx
        )
        assert not E.is_identically_zero(resid, ctx)

    def test_gcd_cancellation(self, ctx):
        assert E.equal(parse("(u^2-v^2)/(u-v)", ctx), parse("u+v", ctx), ctx)

    def test_zero_denominator(self, ctx):
        with pytest.raises(ZeroDenominatorError):
            E.normalize(parse("u/(v - v)", ctx), ctx)

    def test_denominator_positive_leading_coefficient(self, ctx):
        n = E.normalize(parse("u/(v - w)", ctx), ctx)
        # denominator is rendered with positive leading coefficient
        assert render(n) == "u/(v - w)"
        n2 = E.normalize(parse("u/(w - v)", ctx), ctx)
        assert render(n2) == "-u/(v - w)"

    def test_joint_content_of_numerator_and_denominator(self, ctx):
        """The shared rational content of numerator and denominator is
        divided out: (6u/5)/(9v/10) is 4u/(3v)."""
        assert render(E.normalize(parse("(6/5*u)/(9/10*v)", ctx), ctx)) == "4*u/(3*v)"
        rng = random.Random(4)
        for _ in range(50):
            coeffs = [Fraction(rng.randint(-30, 30) or 1, rng.randint(1, 30)) for _ in range(4)]
            c = poly._rat_content(coeffs)
            scaled = [x / c for x in coeffs]
            assert c > 0 and all(x.denominator == 1 for x in scaled)
            assert math.gcd(*(x.numerator for x in scaled)) == 1

    def test_rationalized_algebraic_denominator(self, ctx):
        assert E.equal(parse("1/(1+sqrt2)", ctx), parse("sqrt2 - 1", ctx), ctx)

    def test_power_over_three_algebraic_symbols_normalises_quickly(self):
        """The denominator of this normal form is 1, so no gcd needs the
        primitive PRS; before that shortcut the 10th power took about 30 s."""
        c = Context(
            ("u",),
            algebraics=(
                AlgebraicSymbol("s", 2, E.rat(2)),
                AlgebraicSymbol("t", 2, E.rat(3)),
                AlgebraicSymbol("c", 3, E.rat(2)),
            ),
        )
        start = time.perf_counter()
        n = E.normalize(parse("(s + t + c + u)^10", c), c)
        assert time.perf_counter() - start < 5
        assert E.is_identically_zero(E.add(n, E.neg(parse("(s + t + c + u)^10", c))), c)

    def test_expansion_guard(self, ctx):
        with E.expansion_guard(5):
            with pytest.raises(E.GuardExceededError):
                E.normalize(parse("(u + v + 1)^9", ctx), ctx)
        E.normalize(parse("(u + v + 1)^9", ctx), ctx)


class TestEvaluate:
    def test_product(self, ctx):
        val = E.evaluate_at(
            parse("u*v", ctx), {"u": 2, "v": Fraction(3, 2), "w": 0, "c1": 0, "c2": 0},
            None, ctx,
        )
        assert val == 3

    def test_jet_of_instantiation(self):
        c = Context(("v", "w"), functions=(OpaqueFunction("f", ("v", "w")),))
        val = E.evaluate_at(
            parse("D(f,v)", c), {"v": 1, "w": 5}, {"f": parse("v^2*w", c)}, c
        )
        assert val == 10

    def test_true_identity_evaluates_to_zero(self, ctx):
        e = parse("(u+v)^2 - u^2 - 2*u*v - v^2", ctx)
        point = {"u": Fraction(7, 3), "v": -2, "w": 1, "c1": 0, "c2": 5}
        assert E.evaluate_at(e, point, {"f": E.ZERO, "g0": E.ZERO, "h": E.ZERO}, ctx) == 0

    def test_pole_signals_resample(self, ctx):
        with pytest.raises(PoleError):
            E.evaluate_at(
                parse("1/u", ctx), {"u": 0, "v": 1, "w": 1, "c1": 0, "c2": 0},
                {"f": E.ZERO, "g0": E.ZERO, "h": E.ZERO}, ctx,
            )


class TestProbabilisticZeroTest:
    def test_trivial_zero(self, ctx):
        assert E.probabilistic_zero_test(parse("u - u", ctx), ctx, trials=4, seed=0)

    def test_separates_distinct_variables(self, ctx):
        assert not E.probabilistic_zero_test(parse("u - v", ctx), ctx, trials=8, seed=0)

    def test_deterministic_for_fixed_seed(self, ctx):
        e = parse("u*f(v,w) - v", ctx)
        runs = [E.probabilistic_zero_test(e, ctx, trials=6, seed=3) for _ in range(3)]
        assert runs == [False, False, False]

    def test_respects_assumptions(self):
        jctx = jacob1_ctx()
        resid = parse(
            "f(v,w)*D(h,v) - h(v,w)*D(f,v) + g0(v,w)*D(h,w) - h(v,w)*D(g0,w)", jctx
        )
        assert E.probabilistic_zero_test(resid, jctx, trials=6, seed=1)

    def test_algebraic_constants_sampled_exactly(self, ctx):
        assert E.probabilistic_zero_test(parse("sqrt2^2 - 2", ctx), ctx, trials=4, seed=0)
        assert not E.probabilistic_zero_test(parse("sqrt2 - 1", ctx), ctx, trials=4, seed=0)

    def test_exact_zero_fixtures_pass_for_many_seeds(self):
        jctx = jacob1_ctx()
        resid = parse(
            "f(v,w)*D(h,v) - h(v,w)*D(f,v) + g0(v,w)*D(h,w) - h(v,w)*D(g0,w)", jctx
        )
        for seed in range(6):
            assert E.probabilistic_zero_test(resid, jctx, trials=4, seed=seed)

    def test_rationalized_value_is_rational(self, ctx):
        point = {"u": 1, "v": 1, "w": 1, "c1": 0, "c2": 0}
        inst = {"f": E.ZERO, "g0": E.ZERO, "h": E.ZERO}
        assert E.evaluate_at(parse("sqrt2^2", ctx), point, inst, ctx) == 2
        assert E.evaluate_at(parse("sqrt2^2/2 + u", ctx), point, inst, ctx) == 2
        with pytest.raises(E.NotRationalError):
            E.evaluate_at(parse("sqrt2 + u", ctx), point, inst, ctx)

    def test_inverse_in_a_cubic_extension(self):
        c = Context(("u",), algebraics=(AlgebraicSymbol("c", 3, E.rat(2)),))
        # (c - 1)(c^2 + c + 1) = c^3 - 1 = 1
        assert E.probabilistic_zero_test(parse("1/(c - 1) - (c^2 + c + 1)", c), c, trials=3)
        assert not E.probabilistic_zero_test(parse("1/(c - 1) - c", c), c, trials=3)

    def test_inverse_in_a_product_of_extensions(self):
        c = Context(
            ("u",),
            algebraics=(AlgebraicSymbol("s", 2, E.rat(2)), AlgebraicSymbol("c", 3, E.rat(2))),
        )
        assert E.probabilistic_zero_test(parse("(s*c + 1)*(1/(s*c + 1)) - 1", c), c, trials=3)
        assert not E.probabilistic_zero_test(parse("1/(s*c + 1) - 1", c), c, trials=3)


def _unshared(e):
    """A copy of ``e`` in which no node object is used twice."""
    if isinstance(e, E.Add):
        return E.Add(tuple(_unshared(t) for t in e.terms))
    if isinstance(e, E.Mul):
        return E.Mul(tuple(_unshared(f) for f in e.factors))
    if isinstance(e, E.Pow):
        return E.Pow(_unshared(e.base), e.exp)
    if isinstance(e, E.Div):
        return E.Div(_unshared(e.num), _unshared(e.den))
    if isinstance(e, E.Func):
        return E.Func(e.name, e.orders, tuple(_unshared(a) for a in e.args))
    if isinstance(e, E.Rat):
        return E.Rat(e.value)
    return type(e)(e.name)


class TestEvaluationMemo:
    """Numeric evaluation memoises shared subtrees per sample point; values
    and verdicts must be those of evaluating every occurrence afresh."""

    @pytest.fixture()
    def xy(self):
        return Context(("x", "y"))

    @staticmethod
    def shared_pole(c):
        # S has a pole on x = -y, 1/(S + 1) = (x + y)/(2*x) one on x = 0
        S = parse("(x - y)/(x + y)", c)
        return S, E.add(E.mul(S, S), E.mul(3, S), E.div(1, E.add(S, 1)))

    def test_values_match_the_unshared_copy_and_plain_evaluation(self, xy):
        _, e = self.shared_pole(xy)
        copy = _unshared(e)
        points = [(2, 3), (1, -1), (0, 5), (Fraction(-7, 3), Fraction(1, 2)), (4, -4)]
        for x, y in points:
            point = {"x": x, "y": y}
            try:
                want = E._eval_plain(copy, point)
            except PoleError:
                for expr in (e, copy):
                    with pytest.raises(PoleError):
                        E.evaluate_at(expr, point, None, xy)
                continue
            assert E.evaluate_at(e, point, None, xy) == want
            assert E.evaluate_at(copy, point, None, xy) == want

    def test_pole_point_leaves_no_values_behind(self, xy, monkeypatch):
        S, _ = self.shared_pole(xy)
        x, y = parse("x", xy), parse("y", xy)
        zero = E.add(E.mul(S, E.add(x, y)), E.neg(E.add(x, E.neg(y))))
        nonzero = E.add(E.mul(S, S), E.neg(S))
        real = E._sample_fraction
        for expr, verdict in ((zero, True), (nonzero, False)):
            for candidate in (expr, _unshared(expr)):
                # the first sample point lies on the pole x = -y of S
                draws = iter([Fraction(1), Fraction(-1)])
                monkeypatch.setattr(
                    E, "_sample_fraction", lambda rng: next(draws, None) or real(rng)
                )
                assert E.probabilistic_zero_test(candidate, xy, trials=4, seed=0) is verdict

    def test_instantiated_bodies_are_evaluated_under_their_own_arguments(self):
        c = Context(("x", "y"), functions=(OpaqueFunction("f", ("x",)),))
        e = parse("f(y) - f(x) + f(x)*f(y)", c)
        inst = {"f": parse("x^2 + 1", c)}
        # (9 + 1) - (4 + 1) + 5*10
        assert E.evaluate_at(e, {"x": 2, "y": 3}, inst, c) == 55
        assert E.probabilistic_zero_test(
            E.add(e, E.neg(parse("y^2 - x^2 + (x^2 + 1)*(y^2 + 1)", c))), c, inst=inst
        )


class TestContextValidation:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ExprError):
            Context(("u", "v"), parameters=("u",))

    def test_non_triangular_assumptions_rejected(self):
        fns = (OpaqueFunction("f", ("v",)), OpaqueFunction("h", ("v",)))
        base = Context(("u", "v"), functions=fns)
        circular = Assumption("h", (1,), parse("D(h,v) + f(v)", base))
        with pytest.raises(ExprError):
            Context(("u", "v"), functions=fns, assumptions=(circular,))

    def test_double_elimination_rejected(self):
        fns = (OpaqueFunction("h", ("v",)),)
        base = Context(("u", "v"), functions=fns)
        r1 = Assumption("h", (1,), parse("u", base))
        r2 = Assumption("h", (2,), parse("v", base))
        with pytest.raises(ExprError):
            Context(("u", "v"), functions=fns, assumptions=(r1, r2))


# property-style checks (small budgets here; the acceptance suite runs the
# full randomized sweeps)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10**6))
def test_normalize_idempotent_on_random_expressions(seed):
    ctx = expr_context()
    rng = random.Random(seed)
    try:
        e = random_expr(rng, ctx)
        n1 = E.normalize(e, ctx)
    except ZeroDenominatorError:
        return
    assert E.normalize(n1, ctx) == n1


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10**6))
def test_random_zero_expressions_detected(seed):
    ctx = expr_context()
    rng = random.Random(seed)
    try:
        z = random_zero_expr(rng, ctx)
        assert E.is_identically_zero(z, ctx)
    except ZeroDenominatorError:
        pass


def test_normalize_agrees_with_exact_evaluation():
    # two independent routes: symbolic normal form vs exact rational
    # evaluation of the difference at seeded sample points
    ctx = expr_context()
    rng = random.Random(99)
    checked = 0
    for trial in range(60):
        try:
            with E.expansion_guard(18):
                e = random_expr(rng, ctx, depth=2)
                n = E.normalize(e, ctx)
            diff = E.add(e, E.neg(n))
            assert E.probabilistic_zero_test(diff, ctx, trials=1, seed=trial)
            checked += 1
        except (E.ZeroDenominatorError, E.SampleBudgetError, E.GuardExceededError):
            continue
    assert checked >= 40


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10**6))
def test_leibniz_on_random_pairs(seed):
    ctx = expr_context()
    rng = random.Random(seed)
    try:
        a = random_expr(rng, ctx, depth=2)
        b = random_expr(rng, ctx, depth=2)
        lhs = E.differentiate(E.mul(a, b), "u", ctx)
        rhs = E.add(
            E.mul(E.differentiate(a, "u", ctx), b),
            E.mul(a, E.differentiate(b, "u", ctx)),
        )
        assert E.is_identically_zero(E.add(lhs, E.neg(rhs)), ctx)
    except ZeroDenominatorError:
        pass


def _radical_context():
    return Context(
        ("u",),
        algebraics=(
            AlgebraicSymbol("s", 2, E.rat(2)),
            AlgebraicSymbol("t", 2, E.rat(3)),
            AlgebraicSymbol("c", 3, E.rat(2)),
        ),
    )


def _random_radical_expr(rng, ctx, depth):
    """Random expression over ``u``, the algebraic symbols and small rationals,
    with sums and products of them in numerators and denominators."""
    if depth == 0 or rng.random() < 0.2:
        roll = rng.random()
        if roll < 0.25:
            return E.rat(rng.randint(-3, 3) or 1, rng.randint(1, 2))
        if roll < 0.4:
            return E.Var("u")
        return E.AlgConst(rng.choice(ctx.algebraics).name)
    a = _random_radical_expr(rng, ctx, depth - 1)
    b = _random_radical_expr(rng, ctx, depth - 1)
    kind = rng.randrange(4)
    if kind == 0:
        return E.add(a, b)
    if kind == 1:
        return E.mul(a, b)
    if kind == 2:
        return E.pow_(a, rng.randint(2, 3))
    return E.div(a, E.add(b, _random_radical_expr(rng, ctx, depth - 1)))


def test_normal_form_of_a_two_symbol_denominator_keeps_its_value():
    ctx = _radical_context()
    # (t - s)(s + t) = t^2 - s^2 = 1
    assert render(E.normalize(parse("1/(s + t)", ctx), ctx)) == "-s + t"
    for text in ("1/(s + t)", "u/(s + t)", "1/(1 + s + t)"):
        e = parse(text, ctx)
        assert E.equal(e, E.normalize(e, ctx), ctx)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10**6))
def test_normal_form_equals_its_input_over_radicals(seed):
    ctx = _radical_context()
    try:
        e = _random_radical_expr(random.Random(seed), ctx, 3)
        n = E.normalize(e, ctx)
    except ZeroDenominatorError:
        return
    assert E.equal(e, n, ctx)


def test_rationalising_reduces_by_the_relation_over_canonical_atoms():
    """A relation whose right-hand side holds variables reduces the
    numerator over the canonical atom order: ``t`` is interned before ``w``
    and ``u`` but sorts after them, so the ring's atom 1 is ``w`` and the
    normal form's is ``u``."""
    base = Context(("w", "u"))
    ctx = Context(("w", "u"), algebraics=(AlgebraicSymbol("t", 2, parse("w^2 + 1", base)),))
    for text in ("t/(t + u)", "(t*u + w)/(t - u)"):
        e = parse(text, ctx)
        assert E.equal(e, E.normalize(e, ctx), ctx)
    assert render(E.normalize(parse("t/(t + u)", ctx), ctx)) == "(w^2 - u*t + 1)/(w^2 - u^2 + 1)"


def _round_trip_context():
    return Context(
        ("x", "y"),
        algebraics=(AlgebraicSymbol("c", 3, E.rat(2)), AlgebraicSymbol("r", 2, E.rat(3))),
        functions=(OpaqueFunction("phi", ("x", "y")),),
    )


# Inputs whose gcds sent the primitive PRS into a pseudo-remainder blow-up
# of minutes: two quadratic factors in one jet, a depth-3 radical draw, and
# a residual over the mixed jet D(h,v,w).
ROUND_TRIP = (
    "(3*y*D(phi, x) + 2/3*D(phi, x, y))/((D(phi, x, y)^2 + 2)*(D(phi, x) - 2))"
    " + ((-1/3)*D(phi, x, y) - x)/((D(phi, x, y)^2 + 1)*(r - 1))"
)
GCD_BLOW_UPS = [
    (_round_trip_context, ROUND_TRIP),
    (_radical_context, "(c*u)^3/(u^3/(t/(s + c) + u^3) + (u + c)^3)"),
    (shared_ring_context, "v^2 + (D(g0, w)/(D(h, v, w) + 1) - (1/2)*D(h, v))*h(v, w)"),
]


@pytest.mark.parametrize(
    "make_ctx, text", GCD_BLOW_UPS, ids=("round_trip", "radicals_depth_3", "mixed_jet")
)
def test_gcd_blow_up_inputs_normalise(make_ctx, text):
    ctx = make_ctx()
    e = parse(text, ctx)
    with deadline(5):
        assert E.equal(e, E.normalize(e, ctx), ctx)


def test_round_trip_normal_form_is_in_lowest_terms_for_sympy():
    """sympy's ``cancel``, with the jets and algebraic symbols as free
    symbols, finds nothing left to cancel in the normal form."""
    sympy = pytest.importorskip("sympy")
    ctx = _round_trip_context()
    with deadline(5):
        text = render(E.normalize(parse(ROUND_TRIP, ctx), ctx))
    replacements = {"D(phi, x, y)": "phi_xy", "D(phi, x)": "phi_x", "^": "**"}
    for old, new in replacements.items():
        text = text.replace(old, new)
    num, den = sympy.fraction(sympy.sympify(text))
    cnum, cden = sympy.fraction(sympy.cancel(num / den))
    assert sympy.expand(num * cden - cnum * den) == 0
    gens = sympy.symbols("x y c r phi_x phi_xy")
    assert sympy.Poly(cden, *gens).total_degree() == sympy.Poly(den, *gens).total_degree()
