"""Shared fixtures and deterministic random generators for the test suite."""

from __future__ import annotations

import random
import signal
from contextlib import contextmanager
from fractions import Fraction

from hamops import expr as E
from hamops.expr import AlgebraicSymbol, Assumption, Context, OpaqueFunction, parse
from hamops.geometry import LieStructure


def expr_context() -> Context:
    return Context(
        ("u", "v", "w"),
        parameters=("p", "q"),
        functions=(OpaqueFunction("f", ("u", "v")), OpaqueFunction("g0", ("v", "w"))),
    )


def shared_ring_context() -> Context:
    """Algebraic symbols of degree 2 and 3, opaque jets, and one triangular
    assumption (eliminating D(h,v)) that carries a side condition."""
    fns = (
        OpaqueFunction("f", ("v", "w")),
        OpaqueFunction("g0", ("v", "w")),
        OpaqueFunction("h", ("v", "w")),
    )
    algs = (AlgebraicSymbol("s", 2, E.rat(2)), AlgebraicSymbol("c", 3, E.rat(2)))
    base = Context(("u", "v", "w"), parameters=("p",), algebraics=algs, functions=fns)
    rhs = parse("(h(v,w)*D(f,v) - g0(v,w)*D(h,w) + h(v,w)*D(g0,w))/f(v,w)", base)
    return Context(
        ("u", "v", "w"),
        parameters=("p",),
        algebraics=algs,
        functions=fns,
        assumptions=(Assumption("h", (1, 0), rhs, parse("f(v,w)", base)),),
    )


@contextmanager
def deadline(seconds: float):
    """Raise ``TimeoutError`` in the enclosed block once it has run for
    ``seconds`` of wall time, so that a hang fails its test instead of the
    suite.  It arms ``ITIMER_REAL``, so it works in the main thread only."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def random_expr(rng: random.Random, ctx: Context, depth: int = 3) -> E.Expr:
    """Small random expression over variables, parameters and opaque jets."""
    if depth == 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.35:
            return E.rat(rng.randint(-6, 6), rng.randint(1, 4))
        if roll < 0.75 or not (ctx.parameters or ctx.functions):
            return E.Var(rng.choice(ctx.variables))
        if ctx.parameters and (roll < 0.85 or not ctx.functions):
            return E.Param(rng.choice(ctx.parameters))
        fn = rng.choice(ctx.functions)
        return ctx.func_expr(fn.name)
    kind = rng.randrange(5)
    if kind == 0:
        return E.add(random_expr(rng, ctx, depth - 1), random_expr(rng, ctx, depth - 1))
    if kind == 1:
        return E.mul(random_expr(rng, ctx, depth - 1), random_expr(rng, ctx, depth - 1))
    if kind == 2:
        return E.pow_(random_expr(rng, ctx, depth - 1), rng.randint(1, 3))
    if kind == 3:
        den = random_expr(rng, ctx, depth - 1)
        try:
            if E.is_identically_zero(den, ctx):
                den = E.add(den, E.ONE)
        except E.ExprError:
            den = E.ONE
        return E.div(random_expr(rng, ctx, depth - 1), den)
    return E.add(
        random_expr(rng, ctx, depth - 1), E.neg(random_expr(rng, ctx, depth - 1))
    )


def random_zero_expr(rng: random.Random, ctx: Context, depth: int = 3) -> E.Expr:
    """An expression that is identically zero but not syntactically zero."""
    e = random_expr(rng, ctx, depth)
    style = rng.randrange(3)
    if style == 0:
        return E.add(e, E.neg(e))
    if style == 1:
        two = E.mul(E.rat(2), e)
        return E.add(two, E.neg(e), E.neg(e))
    square = E.mul(E.add(e, E.ONE), E.add(e, E.rat(-1)))
    return E.add(square, E.neg(E.mul(e, e)), E.ONE)


def random_nilpotent6(rng: random.Random):
    """Random 2-step nilpotent structure on six coordinates together with a
    compatible non-degenerate constant metric.

    The bracket maps the last three coordinates into the first three; the
    metric pairs the two blocks, with the pairing weights tied to the bracket
    values so that the linear ultralocal structure closes against the metric.
    """
    nz = lambda: Fraction(rng.choice([x for x in range(-5, 6) if x]), rng.randint(1, 3))
    p, q, r, x = nz(), nz(), nz(), nz()
    s = LieStructure.from_sparse(6, [(4, 5, 2, p), (4, 6, 3, q), (5, 6, 1, r)])
    ctx = Context(tuple(f"u{i+1}" for i in range(6)))
    Z = E.ZERO
    g = [[Z] * 6 for _ in range(6)]
    g[0][3] = g[3][0] = E.rat(x)
    g[1][5] = g[5][1] = E.rat(x * r / p)
    g[2][4] = g[4][2] = E.rat(-x * r / q)
    for i in range(3, 6):
        for j in range(i, 6):
            val = Fraction(rng.randint(-3, 3))
            g[i][j] = g[j][i] = E.rat(val) if val else Z
    return s, tuple(tuple(row) for row in g), ctx


def random_abelian(rng: random.Random, n: int):
    """Abelian structure with a random cocycle and a random non-degenerate
    diagonal metric (the torsion-free case with vanishing bracket)."""
    f = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            val = Fraction(rng.randint(-4, 4))
            f[i][j], f[j][i] = val, -val
    c = tuple(tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n)) for _ in range(n))
    s = LieStructure(n, c, tuple(tuple(row) for row in f))
    ctx = Context(tuple(f"u{i+1}" for i in range(n)))
    eta = tuple(
        tuple(
            E.rat(rng.choice([1, -1, 2, -2])) if i == j else E.ZERO
            for j in range(n)
        )
        for i in range(n)
    )
    return s, eta, ctx


def random_sl2_scaled(rng: random.Random):
    """Scaled semisimple-type structure with its compatible indefinite metric."""
    k = Fraction(rng.randint(1, 5))
    s = LieStructure.from_sparse(3, [(1, 2, 3, -2 * k), (1, 3, 2, 2 * k), (2, 3, 1, 2 * k)])
    ctx = Context(("u1", "u2", "u3"))
    eta = (
        (E.ONE, E.ZERO, E.ZERO),
        (E.ZERO, E.rat(-1), E.ZERO),
        (E.ZERO, E.ZERO, E.rat(-1)),
    )
    return s, eta, ctx
