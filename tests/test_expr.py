"""Expression-kernel tests: parsing, differentiation, normal forms, zero
tests, evaluation and the randomized fallback."""

import gc
import itertools
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


def _eval_plain(e, env):
    """Reference value of an expression free of algebraic symbols and jets,
    evaluated tree by tree with Fractions and no memo."""
    if isinstance(e, E.Rat):
        return e.value
    if isinstance(e, (E.Var, E.Param)):
        return Fraction(env[e.name])
    if isinstance(e, E.Add):
        return sum((_eval_plain(t, env) for t in e.terms), Fraction(0))
    if isinstance(e, E.Mul):
        return math.prod((_eval_plain(f, env) for f in e.factors), start=Fraction(1))
    if isinstance(e, E.Pow):
        b = _eval_plain(e.base, env)
        if e.exp < 0 and b == 0:
            raise PoleError("pole")
        return b**e.exp
    if isinstance(e, E.Div):
        d = _eval_plain(e.den, env)
        if d == 0:
            raise PoleError("pole")
        return _eval_plain(e.num, env) / d
    raise TypeError(f"no plain value for {e!r}")


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
                want = _eval_plain(copy, point)
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


def test_dropped_walkers_leave_no_reference_cycle(ctx):
    """A walker and its memo are freed by reference counting once dropped;
    a memo that only the cycle collector can free lingers, and in a trial
    it raised the catalog-operators peak RSS from 27 to 32 MB."""
    e = parse("u^2*f(v,w)/(v + sqrt2) + u", ctx)
    gc.collect()
    gc.disable()
    try:
        E.differentiate((e, e), "u", ctx)
        E.substitute(e, {"u": parse("v", ctx)})
        E.probabilistic_zero_test(e, ctx, trials=2)
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestNegativePowers:
    """Numeric evaluation inverts the base of a negative power first."""

    @pytest.fixture()
    def x(self):
        return Context(("x",))

    def test_zero_test_reads_a_negative_power_as_a_quotient(self, x):
        assert E.probabilistic_zero_test(parse("x^-2 - 1/x^2", x), x, trials=4)
        assert not E.probabilistic_zero_test(parse("x^-2 - 1/x", x), x, trials=4)

    def test_value_of_a_negative_power(self, x):
        assert E.evaluate_at(parse("x^-2", x), {"x": 2}, None, x) == Fraction(1, 4)

    def test_negative_power_over_an_algebraic_symbol(self):
        c = Context(("x",), algebraics=(AlgebraicSymbol("s", 2, E.rat(2)),))
        # 1/s = s/2 and 1/(x*s)^2 = 1/(2*x^2) under s^2 = 2
        assert E.probabilistic_zero_test(parse("s^-1 - s/2", c), c, trials=3)
        assert not E.probabilistic_zero_test(parse("s^-1 - s", c), c, trials=3)
        assert E.evaluate_at(parse("(x*s)^-2", c), {"x": 3}, None, c) == Fraction(1, 18)


class TestResampling:
    """A point at which a relation or the residual has a pole is passed over,
    and a later point decides."""

    @staticmethod
    def draw_zeros_first(monkeypatch, k):
        real = E._sample_fraction
        count = itertools.count()
        monkeypatch.setattr(
            E, "_sample_fraction", lambda rng: Fraction(0) if next(count) < k else real(rng)
        )

    def test_a_relation_with_a_pole_makes_its_point_unusable(self, monkeypatch):
        base = Context(("w",))
        c = Context(("w",), algebraics=(AlgebraicSymbol("s", 2, parse("1/w", base)),))
        self.draw_zeros_first(monkeypatch, 1)  # w = 0 at the first point
        points = E.SamplePoints(c)
        assert E.probabilistic_zero_test(parse("w*s^2 - 1", c), c, trials=1, points=points)
        assert points[0] is None and points[1] is not None and len(points) == 2
        assert not E.probabilistic_zero_test(parse("s - 1", c), c, trials=1, points=points)
        assert len(points) == 2

    def test_a_residual_with_a_pole_moves_to_the_next_point(self, monkeypatch):
        c = Context(("x",))
        self.draw_zeros_first(monkeypatch, 1)  # x = 0 at the first point
        points = E.SamplePoints(c)
        assert E.probabilistic_zero_test(parse("x/x - 1", c), c, trials=1, points=points)
        assert points[0] is not None and len(points) == 2
        assert not E.probabilistic_zero_test(parse("1/x - 1", c), c, trials=1, points=points)
        assert len(points) == 2


# 2^61 - 1, the prime a fixed-prime numeric mode would most likely take
KNOWN_PRIME = 2**61 - 1


class TestModularImages:
    """Numeric mode evaluates each point in F_p, for a 61-bit prime p that
    each point set draws from its seed, so no literal can be chosen in
    advance to vanish or to have no inverse mod p.  ``evaluate_at`` stays
    exact over Q."""

    @pytest.fixture()
    def x(self):
        return Context(("x",))

    @pytest.mark.parametrize("seed", range(10))
    def test_a_multiple_of_a_known_prime_is_not_zero(self, x, seed):
        for text in (f"({KNOWN_PRIME})*x", f"{KNOWN_PRIME - 1}*x + x"):
            assert not E.probabilistic_zero_test(parse(text, x), x, seed=seed)

    @pytest.mark.parametrize("seed", range(10))
    def test_a_known_prime_in_a_denominator_is_no_pole(self, x, seed):
        e = parse(f"x/{KNOWN_PRIME} - x/{KNOWN_PRIME}", x)
        assert isinstance(e, E.Add)
        assert E.probabilistic_zero_test(e, x, seed=seed)

    def test_exact_evaluation_stays_over_the_rationals(self, x):
        e = parse(f"({KNOWN_PRIME})*x + 1/{KNOWN_PRIME}", x)
        want = Fraction(KNOWN_PRIME) + Fraction(1, KNOWN_PRIME)
        assert E.evaluate_at(e, {"x": 1}, None, x) == want

    def test_each_seed_draws_its_own_prime(self, x):
        sympy = pytest.importorskip("sympy")
        primes = [E.SamplePoints(x, seed).field.p for seed in range(10)]
        assert primes == [E.SamplePoints(x, seed).field.p for seed in range(10)]
        assert len(set(primes)) == 10
        assert all(2**60 < p < 2**61 and sympy.isprime(p) for p in primes)

    def test_primality_agrees_with_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(5)
        odd = [rng.getrandbits(64) | 1 << 32 | 1 for _ in range(2000)]
        # strong pseudoprimes to base 2 and to the bases 2 to 23, then two primes
        odd += [2**32 + 1, 3825123056546413051, KNOWN_PRIME, 2**64 - 59]
        assert [poly._is_prime(n) for n in odd] == [sympy.isprime(n) for n in odd]


# contexts of the homomorphism property: relations and the atoms that the
# round-trip-style expressions are written in
IMAGE_CONTEXTS = {
    "s^2 = 2": ((("s", 2, "2"),), ("u", "v", "s", "f(v, w)", "D(f, v)")),
    "c^3 = 2, r^2 = 3": ((("c", 3, "2"), ("r", 2, "3")), ("u", "w", "c", "r", "D(f, w)")),
    "s^2 = w": ((("s", 2, "w"),), ("u", "w", "s", "f(v, w)", "D(f, v, w)")),
}


def _image_context(relations):
    fns = (OpaqueFunction("f", ("v", "w")),)
    base = Context(("u", "v", "w"), functions=fns)
    algs = tuple(AlgebraicSymbol(n, d, parse(r, base)) for n, d, r in relations)
    return Context(("u", "v", "w"), algebraics=algs, functions=fns)


def _round_trip_style(rng, atoms):
    """One or two quotients of small polynomials in ``atoms`` over products
    of ``(atom +- q)``, shaped as the expression round trips of
    ``perfbench/workloads.round_trip_text``."""

    def monomial():
        q = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))
        factors = [f"{a}^2" if rng.random() < 0.2 else a for a in rng.choices(atoms, k=rng.randint(1, 2))]
        return "*".join([f"({q})"] + factors)

    def denominator():
        return "*".join(
            f"({rng.choice(atoms)} {rng.choice('+-')} {rng.randint(1, 4)})"
            for _ in range(rng.randint(1, 2))
        )

    terms = []
    for _ in range(rng.randint(1, 2)):
        num = " + ".join(monomial() for _ in range(rng.randint(1, 2)))
        terms.append(f"({num})/({denominator()})" if rng.random() < 0.75 else f"({num})")
    return " + ".join(terms)


class _Images(dict):
    """Constant polynomials in ``field`` of the rationals in ``drawn``, one
    per key, drawn the first time either field reads the key."""

    def __init__(self, drawn, rng, field):
        super().__init__()
        self.drawn, self.rng, self.field = drawn, rng, field

    def __missing__(self, key):
        if key not in self.drawn:
            self.drawn[key] = E._sample_fraction(self.rng)
        value = self[key] = E._constant(self.field.of(self.drawn[key]))
        return value


@pytest.mark.parametrize("name", IMAGE_CONTEXTS)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10**6))
def test_evaluation_mod_p_is_the_image_of_exact_evaluation(name, seed):
    """Taking the exact value of ``_eval_ext`` over Q coefficientwise mod p
    gives its value over F_p at the same rational point, and a pole over Q
    is a pole over F_p."""
    relations, atoms = IMAGE_CONTEXTS[name]
    ctx = _image_context(relations)
    rng = random.Random(seed)
    residues = poly.Residues(poly.draw_prime(rng))
    exprs = [parse(_round_trip_style(rng, atoms), ctx) for _ in range(4)]
    drawn: dict = {}

    def walker(field):
        env, jets = _Images(drawn, rng, field), _Images(drawn, rng, field)
        return E._eval_ext(env, E._ext_rules(ctx, env, field), jets, ctx, field)

    def value(walk, e):
        try:
            return walk(e)
        except PoleError:
            return "pole"

    with deadline(10):
        exact, modular = walker(poly.QQ), walker(residues)
        for e in exprs:
            want = value(exact, e)
            if want != "pole":
                want = residues.reduced({m: residues.of(c) for m, c in want.items()})
            assert value(modular, e) == want, render(e)


class TestInstantiation:
    def test_empty_instantiation_returns_its_input(self, ctx):
        e = parse("u*f(v,w) + D(g0,v)", ctx)
        assert E.instantiate(e, {}, ctx) is e

    def test_assumptions_apply_before_the_instantiation(self):
        base = Context(("x",), functions=(OpaqueFunction("f", ("x",)),))
        c = Context(
            ("x",),
            functions=base.functions,
            assumptions=(Assumption("f", (1,), parse("f(x)", base)),),
        )
        inst = {"f": parse("x^2 + 1", c)}
        # D(f,x) becomes f(x) first, then x^2 + 1, not 2*x
        assert E.evaluate_at(parse("D(f,x)", c), {"x": 2}, inst, c) == 5
        assert E.probabilistic_zero_test(parse("D(f,x) - x^2 - 1", c), c, inst=inst)

    def test_a_jet_at_an_instantiated_argument_reads_its_value(self):
        c = Context(("x",), functions=(OpaqueFunction("f", ("x",)), OpaqueFunction("g", ("x",))))
        inst = {"f": parse("x^2 + 1", c)}
        assert E.probabilistic_zero_test(parse("g(f(x)) - g(x^2 + 1)", c), c, inst=inst)
        assert not E.probabilistic_zero_test(parse("g(f(x)) - g(x^2)", c), c, inst=inst)


class TestRenderInContext:
    """With its context, a jet applied at variables other than its declared
    arguments renders in the positional form, which parses back to it;
    without one the text stays as it was."""

    @pytest.mark.parametrize(
        "declared, var, plain, in_context",
        [
            (("v", "u"), "u", "D(f, u)", "D(f, x1)(u, v)"),
            (("u", "q"), "v", "D(f, v)", "D(f, x2)(u, v)"),
            (("u", "v"), "u", "D(f, u)", "D(f, u)"),
        ],
    )
    def test_jet_text_parses_back_to_the_jet(self, declared, var, plain, in_context):
        c = Context(("u", "v"), functions=(OpaqueFunction("f", declared),))
        jet = E.differentiate(parse("f(u,v)", c), var, c)
        assert render(jet) == str(jet) == plain
        assert render(jet, c) == in_context
        assert E.equal(parse(render(jet, c), c), jet, c)

    def test_declared_position_names_write_the_declared_slots(self):
        # the parser reads a declared name before a position, so "x1" here
        # is f's second argument
        c = Context(("x1", "x2"), functions=(OpaqueFunction("f", ("x2", "x1")),))
        jet = E.differentiate(parse("f(x1^2, x2)", c), "x1", c)
        assert render(jet) == "2*D(f, x1)(x1^2, x2)*x1"
        assert render(jet, c) == "2*D(f, x2)(x1^2, x2)*x1"
        assert E.equal(parse(render(jet, c), c), jet, c)


class TestConstantNodes:
    def test_empty_and_cancelling_sums_are_zero(self):
        assert E.add() == E.ZERO
        assert E.add(E.Rat(1), E.Rat(-1)) == E.ZERO
        assert E.mul() == E.ONE
        assert [render(e) for e in (E.add(), E.add(E.Rat(1), E.Rat(-1)), E.mul())] == ["0", "0", "1"]

    def test_constants_hold_fractions(self):
        total = E.add(Var("u"), E.Rat(2), E.rat(1, 3))
        assert isinstance(total, E.Add) and total.terms[0] == Var("u")
        constants = (E.Rat(3), E.Rat(Fraction(1, 2)), total.terms[-1])
        assert all(type(c.value) is Fraction for c in constants)
        assert [render(e) for e in (*constants, total)] == ["3", "1/2", "7/3", "u + 7/3"]


class TestNodeIdentity:
    """A node is identified by its exact class and its fields."""

    def test_symbols_of_one_name_differ_by_kind(self):
        nodes = (E.Var("u"), E.Param("u"), E.AlgConst("u"))
        for i, x in enumerate(nodes):
            for j, y in enumerate(nodes):
                assert (x == y) == (i == j), (x, y)

    def test_operation_and_exponent_distinguish_nodes(self):
        u, v = Var("u"), Var("v")
        assert E.Add((u, v)) != E.Mul((u, v))
        assert E.Pow(u, 2) != E.Pow(u, 3)

    def test_derivative_orders_distinguish_jets(self):
        v, w = Var("v"), Var("w")
        assert E.Func("f", (1, 0), (v, w)) != E.Func("f", (0, 1), (v, w))

    def test_a_constant_is_its_value(self):
        one, also_one = E.Rat(1), E.Rat(Fraction(2, 2))
        assert one == also_one and hash(one) == hash(also_one)

    def test_separately_parsed_trees_are_one_key(self, ctx):
        text = "c1*D(f,v)^2/(u + sqrt2*h(v,w)) - (v - 3/4)^3*w"
        a, b = parse(text, ctx), parse(text, ctx)
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert {a: "a"}[b] == "a"


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

    # Capelli: x^d - a factors over Q exactly when a is a p-th power for a
    # prime p | d, or 4 | d and a = -4 c^4
    @pytest.mark.parametrize(
        "power, rhs",
        [(2, 4), (2, Fraction(9, 4)), (2, 0), (3, 8), (3, -27), (4, 4), (4, -4),
         (4, Fraction(-1, 4)), (6, 8)],
    )
    def test_reducible_power_relation_rejected(self, power, rhs):
        with pytest.raises(ExprError, match="reducible"):
            Context(("u",), algebraics=(AlgebraicSymbol("s", power, E.rat(rhs)),))

    @pytest.mark.parametrize("power, rhs", [(2, 2), (2, -1), (3, 2), (4, -1), (4, 2), (6, 2)])
    def test_irreducible_power_relation_accepted(self, power, rhs):
        ctx = Context(("u",), algebraics=(AlgebraicSymbol("s", power, E.rat(rhs)),))
        assert E.is_identically_zero(parse(f"s^{power} - ({rhs})", ctx), ctx)


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


class TestKnownKernelFaults:
    """Faults of the exact kernel that are known and not yet mended, each
    pinned with the correct expectation.  A change that mends one makes its
    test pass, which a strict xfail reports as a failure: then drop the
    mark."""

    @staticmethod
    def called_zero(algebraics, text):
        """Whether ``text`` is called identically zero; a context or an
        expression that is rejected is not called zero."""
        base = Context(("u", "w"))
        try:
            ctx = Context(
                ("u", "w"),
                algebraics=tuple(AlgebraicSymbol(n, d, parse(r, base)) for n, d, r in algebraics),
            )
            return E.is_identically_zero(parse(text, ctx), ctx)
        except ExprError:
            return False

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="a denominator in a symbol of degree 3 is not rationalised")
    def test_inverse_in_a_cubic_extension_has_one_normal_form(self):
        c = Context(("u",), algebraics=(AlgebraicSymbol("c", 3, E.rat(2)),))
        assert E.normalize(parse("1/(c - 1)", c), c) == E.normalize(parse("c^2 + c + 1", c), c)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="Capelli's test covers only constant right-hand sides")
    def test_relation_with_a_square_in_the_variables_is_rejected(self):
        base = Context(("w",))
        try:
            Context(("w",), algebraics=(AlgebraicSymbol("t", 2, parse("w^2", base)),))
            rejected = False
        except ExprError:
            rejected = True
        assert rejected

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="relations irreducible one by one are accepted together")
    def test_quotient_of_jointly_reducible_relations_is_not_zero(self):
        relations = (("s", 2, "2"), ("t", 2, "8"))
        assert not self.called_zero(relations, "(t^2 - 4*s^2)/(t - 2*s)")

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="relations irreducible one by one are accepted together")
    def test_product_of_nonzero_factors_is_not_zero(self):
        relations = (("s", 2, "2"), ("t", 4, "-1"))
        assert not self.called_zero(relations, "(t^2 + s*t + 1)*(t^2 - s*t + 1)")

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="GCD_SIZE_LIMIT skips the gcd of a large fraction")
    def test_large_common_factor_cancels(self):
        c = Context(("x", "y", "z"))
        e = parse("((x+y+z+1)^6*(x-y))/((x+y+z+1)^6*(x+2*y))", c)
        assert render(E.normalize(e, c)) == "(x - y)/(x + 2*y)"

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="an expanded power of a base becomes a base of its own")
    def test_lcm_of_a_base_and_its_expanded_square_is_the_square(self):
        # D = u*w - v: the lcm of D^2, written expanded, and D is D^2
        ctx = Context(("u", "v", "w"))
        terms = ["1/(u^2*w^2 - 2*u*v*w + v^2)", "1/(u*w - v)"]
        for order in (terms, terms[::-1]):
            _, den = E.Ring(ctx).to_rf(parse(" + ".join(order), ctx))
            assert poly.pmax_degree(den) == 4, order


# factored denominators: Ring.to_rf against the product-denominator
# conversion it replaced


class _ProductRing(E.Ring):
    """``Ring.to_rf`` with one expanded denominator per subexpression: a sum
    multiplies its terms' denominators, and every step cancels a common
    monomial and folds a constant denominator into the numerator."""

    def to_rf(self, e):
        hit = self._rf.get(e)
        if hit is None:
            hit = self._rf[e] = self._product(e)
        return hit

    def _product(self, e):
        one = poly.const_poly(1)
        if isinstance(e, E.Rat):
            return poly.const_poly(e.value), one
        if isinstance(e, (E.Var, E.Param, E.AlgConst)):
            return self.reduce(poly.atom_poly(self.intern(e))), one
        if isinstance(e, E.Func):
            args = tuple(E.to_canonical(a, self.ctx, ring=self) for a in e.args)
            return poly.atom_poly(self.intern(E.Func(e.name, e.orders, args))), one
        if isinstance(e, E.Add):
            num, den = poly.const_poly(0), one
            for t in e.terms:
                tn, td = self.to_rf(t)
                if td == den:
                    num = poly.padd(num, tn)
                else:
                    num = poly.padd(self.pmul(num, td), self.pmul(tn, den))
                    den = self.pmul(den, td)
                    num, den = self._shrink(num, den)
            return num, den
        if isinstance(e, E.Mul):
            num, den = one, one
            for f in e.factors:
                fn, fd = self.to_rf(f)
                num, den = self._shrink(self.pmul(num, fn), self.pmul(den, fd))
            return num, den
        if isinstance(e, E.Pow):
            bn, bd = self.to_rf(e.base)
            k = e.exp
            if k < 0:
                if not bn:
                    raise ZeroDenominatorError("negative power of zero")
                bn, bd, k = bd, bn, -k
            return self.ppow(bn, k), self.ppow(bd, k)
        if isinstance(e, E.Div):
            nn, nd = self.to_rf(e.num)
            dn, dd = self.to_rf(e.den)
            if not dn:
                raise ZeroDenominatorError("division by zero")
            return self._shrink(self.pmul(nn, dd), self.pmul(nd, dn))
        raise TypeError(f"cannot normalize {e!r}")

    def _shrink(self, num, den):
        if not num:
            return num, poly.const_poly(1)
        num, den = poly.cancel_monomial(num, den, self.algrules)
        c = poly.as_constant(den)
        if c is not None and c != 1:
            num, den = poly.pscale(num, 1 / c), poly.const_poly(1)
        return num, den


def _denominator_context():
    base = Context(("u", "v", "w"))
    return Context(
        ("u", "v", "w"),
        algebraics=(
            AlgebraicSymbol("s", 2, E.rat(2)),
            AlgebraicSymbol("c", 3, parse("w^2 + 1", base)),
        ),
        functions=(OpaqueFunction("f", ("u", "v")),),
    )


# repeated factors of denominators; none holds c, whose denominators have no
# canonical form (see TestKnownKernelFaults), so both conversions may then
# give different fractions of one value
_FACTORS = ("u*w - v", "u", "v - 1", "u + s", "s*w + 1", "D(f, u) + v", "f(u, v)")


@st.composite
def _rational_text(draw, depth, with_c=True):
    leaves = ("u", "v", "w", "s", "f(u, v)", "D(f, v)", "2/3", "-1")
    if with_c:
        leaves += ("c", "c^2*u")
    kind = draw(st.sampled_from(("leaf", "add", "mul", "pow", "div"))) if depth else "leaf"
    if kind == "leaf":
        return draw(st.sampled_from(leaves))
    a = draw(_rational_text(depth - 1, with_c))
    if kind == "pow":
        return f"({a})^{draw(st.integers(1, 2))}"
    if kind != "div":
        b = draw(_rational_text(depth - 1, with_c))
        return f"({a}) {'+' if kind == 'add' else '*'} ({b})"
    den = f"({draw(st.sampled_from(_FACTORS))})^{draw(st.integers(1, 3))}"
    if draw(st.booleans()):
        den += f" + ({draw(_rational_text(depth - 1, False))})"
    return f"({a})/({den})"


def _canonical_on(ring, e):
    try:
        num, den, ring = E._rf(e, ring.ctx, ring=ring)
    except ZeroDenominatorError:
        return None
    if len(num) * len(den) > poly.GCD_SIZE_LIMIT:
        return "over the gcd size limit"
    return E._canonical_pair(num, den, ring)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(_rational_text(3), min_size=1, max_size=3))
def test_factored_and_product_denominators_give_one_normal_form(texts):
    ctx = _denominator_context()
    e = E.add(*(parse(t, ctx) for t in texts))
    factored = _canonical_on(E.Ring(ctx), e)
    product = _canonical_on(_ProductRing(ctx), e)
    if "over the gcd size limit" in (factored, product):
        return
    assert factored == product


def test_a_sum_over_powers_of_one_factor_takes_their_lcm():
    # D = u*w - v has degree 2: the sum of 1/D, 1/D^2 and 1/D^3 is over D^3
    # in every order of the terms, while the product of the terms'
    # denominators is D^6 in some orders
    ctx = Context(("u", "v", "w"))
    terms = ["1/(u*w - v)", "1/(u*w - v)^2", "1/(u*w - v)^3"]
    product_degrees = set()
    for order in itertools.permutations(terms):
        e = parse(" + ".join(order), ctx)
        _, den = E.Ring(ctx).to_rf(e)
        assert poly.pmax_degree(den) == 3 * 2, order
        product_degrees.add(poly.pmax_degree(_ProductRing(ctx).to_rf(e)[1]))
    assert max(product_degrees) == 6 * 2


def test_a_denominator_inside_a_divisor_cancels_by_exponent():
    # P^6 has 84 terms, so x*P^6 over y*P^6 is past the gcd size limit: the
    # factor must cancel while it is still a base, and is never expanded
    ctx = Context(("x", "y", "z"))
    e = parse("(x/(x + y + z + 1)^6)/(y/(x + y + z + 1)^6)", ctx)
    assert render(E.normalize(e, ctx)) == "x/y"
    with E.expansion_guard(5):
        assert render(E.normalize(e, ctx)) == "x/y"
    e = parse("1/((x + y + z + 1)^6/y * x/(x + y + z + 1)^6)", ctx)
    assert render(E.normalize(e, ctx)) == "y/x"


def test_constant_and_cancelled_denominators_are_one():
    ctx = _denominator_context()
    ring = E.Ring(ctx)
    for text in ("(u^2 - 1)/2", "u*v/(2*u)", "1/s^2", "u/(u*w - v) - u/(u*w - v) + 3"):
        _, den = ring.to_rf(parse(text, ctx))
        assert den == poly.const_poly(1), text


def test_a_product_of_bases_that_reduces_to_zero_is_a_zero_denominator():
    # each base is nonzero, their product t^2 - 4*s^2 is 0 (while contexts
    # with jointly reducible relations are accepted; see TestKnownKernelFaults)
    ctx = Context(("u",), algebraics=(AlgebraicSymbol("s", 2, E.rat(2)), AlgebraicSymbol("t", 2, E.rat(8))))
    with pytest.raises(ZeroDenominatorError):
        E.normalize(parse("u/(t - 2*s) * 1/(t + 2*s)", ctx), ctx)
