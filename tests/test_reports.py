"""Report records, relabelling, and the ring and sample points a report
builder shares across its residuals."""

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamops import expr as E
from hamops import poly
from hamops.expr import parse, render
from hamops.reports import CheckReport, Condition, ReportBuilder

from support import shared_ring_context


LEAVES = (
    "u", "v", "w", "p", "s", "c", "f(v,w)", "D(f,v)", "D(g0,w)", "h(v,w)", "D(h,v)", "D(h,v,w)",
)


def _random_tree(rng, leaves, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.25:
            return E.rat(rng.randint(-3, 3), rng.randint(1, 3))
        return rng.choice(leaves)
    a = _random_tree(rng, leaves, depth - 1)
    b = _random_tree(rng, leaves, depth - 1)
    kind = rng.randrange(4)
    if kind == 0:
        return E.add(a, b)
    if kind == 1:
        return E.mul(a, b)
    if kind == 2:
        return E.pow_(a, rng.randint(1, 2))
    den = E.add(b, E.rat(rng.randint(1, 3)))
    return E.div(a, den) if den != E.ZERO else a


def _random_residuals(rng, ctx):
    """Residuals built from a small pool of subtrees, so that they share
    subexpressions the way the entries of one tensor do."""
    leaves = [parse(t, ctx) for t in LEAVES]
    pool = [_random_tree(rng, leaves, 2) for _ in range(4)]
    vanishing = parse("s^2 - 2", ctx)
    out = []
    for _ in range(rng.randint(3, 6)):
        a, b = rng.choice(pool), rng.choice(pool)
        style = rng.randrange(4)
        if style == 0:
            out.append(E.add(a, E.neg(b)))
        elif style == 1:
            out.append(E.mul(a, b))
        elif style == 2:
            out.append(E.add(a, E.mul(b, rng.choice(leaves))))
        else:  # a denominator that vanishes only after algebraic reduction
            out.append(E.add(b, E.div(a, vanishing)))
    return out


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10**6))
def test_shared_ring_matches_fresh_rings(seed):
    ctx = shared_ring_context()
    rng = random.Random(seed)
    residuals = _random_residuals(rng, ctx)
    with E.expansion_guard(16):
        rb = ReportBuilder(ctx)
        expected = []
        for i, r in enumerate(residuals):
            try:
                normal, conds = E.normalize_with_side_conditions(r, ctx)
            except (E.ZeroDenominatorError, E.GuardExceededError) as exc:
                # the shared ring fails the same way, and keeps working after it
                try:
                    rb.add(f"r{i}", (i,), r)
                except type(exc):
                    continue
                raise AssertionError(f"shared ring accepted what a fresh ring rejects: {exc}")
            expected.append((f"r{i}", (i,), render(normal), normal == E.ZERO, conds, 1))
            rb.add(f"r{i}", (i,), r)
    got = [
        (c.cid, c.indices, c.residual_text, c.passed, c.side_conditions, c.multiplicity)
        for c in rb.build().conditions
    ]
    assert got == expected


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10**6))
def test_shared_points_match_fresh_points(seed):
    """The numeric twin of the shared ring: one builder's point set gives
    each residual the verdict, text and side conditions that a fresh
    ``probabilistic_zero_test`` gives it, and that verdict is the exact one."""
    ctx = shared_ring_context()
    rng = random.Random(seed)
    residuals = _random_residuals(rng, ctx)
    point_seed, trials = seed % 5, 4
    with E.numeric_zero_mode(seed=point_seed, trials=trials):
        rb = ReportBuilder(ctx)
        expected = []
        for i, r in enumerate(residuals):
            used: set = set()
            try:
                passed = E.probabilistic_zero_test(
                    r, ctx, trials=trials, seed=point_seed, used=used
                )
            except E.SampleBudgetError:
                # the shared points fail the same way, and keep working after it
                with pytest.raises(E.ZeroDenominatorError):
                    E.is_identically_zero(r, ctx)
                with pytest.raises(E.SampleBudgetError):
                    rb.add(f"r{i}", (i,), r)
                continue
            with E.expansion_guard(16):
                assert passed == E.is_identically_zero(r, ctx)
            text = "0" if passed else render(r)
            expected.append((f"r{i}", (i,), text, passed, E.side_conditions(used), 1))
            rb.add(f"r{i}", (i,), r)
    got = [
        (c.cid, c.indices, c.residual_text, c.passed, c.side_conditions, c.multiplicity)
        for c in rb.build().conditions
    ]
    assert got == expected


def test_one_point_set_serves_every_residual():
    """Pole-free residuals never draw past the ``trials`` points of their
    set; a residual with a pole everywhere draws its 40 attempts, raises,
    and the set keeps serving the residuals after it."""
    ctx = shared_ring_context()
    leaves = [parse(t, ctx) for t in LEAVES]
    rng = random.Random(11)
    points = E.SamplePoints(ctx, seed=2)

    def decide(r):
        return E.probabilistic_zero_test(r, ctx, trials=5, seed=2, points=points)

    verdicts = []
    for _ in range(50):
        a, b = rng.choice(leaves), rng.choice(leaves)
        square = E.add(E.mul(a, a), E.mul(E.rat(2), a, b), E.mul(b, b))
        zero = E.add(E.pow_(E.add(a, b), 2), E.neg(square))
        verdicts.append(decide(zero if rng.random() < 0.5 else E.add(zero, E.mul(a, b))))
    assert True in verdicts and False in verdicts
    assert len(points) == 5
    with pytest.raises(E.SampleBudgetError):
        decide(parse("1/(s^2 - 2)", ctx))
    assert len(points) == 40
    assert decide(parse("(u + s)^2 - u^2 - 2*u*s - 2", ctx))
    assert not decide(parse("u*s - p", ctx))
    assert len(points) == 40


def test_shared_points_refuse_another_seed_or_context():
    ctx = shared_ring_context()
    points = E.SamplePoints(ctx, seed=1)
    u = parse("u", ctx)
    with pytest.raises(ValueError):
        E.probabilistic_zero_test(u, ctx, seed=2, points=points)
    with pytest.raises(ValueError):
        E.probabilistic_zero_test(u, shared_ring_context(), seed=1, points=points)
    assert not E.probabilistic_zero_test(u, ctx, seed=1, points=points)


def test_one_point_set_serves_every_instantiation():
    """Residuals are instantiated before they are sampled, so one point set
    serves residuals under different instantiations and gives each the flag
    that a private set gives it."""
    ctx = shared_ring_context()
    residuals = [
        parse(t, ctx)
        for t in (
            "D(f,v) - 2*v*w",
            "f(v,w) - v^2*w + u*s",
            "D(h,v)*f(v,w) - h(v,w)*D(f,v) + g0(v,w)*D(h,w) - h(v,w)*D(g0,w)",
        )
    ]
    insts = [
        {},
        {"f": parse("v^2*w", ctx)},
        {"f": parse("v*w", ctx), "g0": parse("v + c", ctx)},
        {"h": parse("s*w", ctx)},
    ]
    points = E.SamplePoints(ctx, seed=1)
    cases = [(r, inst) for inst in insts for r in residuals]
    shared = [
        E.probabilistic_zero_test(r, ctx, trials=4, seed=1, inst=inst, points=points)
        for r, inst in cases
    ]
    private = [E.probabilistic_zero_test(r, ctx, trials=4, seed=1, inst=inst) for r, inst in cases]
    assert shared == private
    assert shared[:3] == [False, False, True] and shared[3:6] == [True, False, True]
    assert len(points) == 4


def test_report_text_of_a_jet_parses_back_in_its_context():
    ctx = E.Context(("u", "v"), functions=(E.OpaqueFunction("f", ("v", "u")),))
    jet = E.differentiate(parse("f(u,v)", ctx), "u", ctx)
    rb = ReportBuilder(ctx)
    rb.add("r", (0,), jet)
    (record,) = rb.build().conditions
    assert record.residual_text == "D(f, x1)(u, v)"
    assert E.equal(parse(record.residual_text, ctx), jet, ctx)


def test_reduce_and_shared_normalisation_leave_memoised_results_alone():
    ctx = shared_ring_context()
    ring = E.Ring(ctx)
    s_poly, _ = ring.to_rf(parse("s", ctx))
    cube = poly.pmul(poly.pmul(s_poly, s_poly), s_poly)  # s^3, not yet reduced
    before = dict(cube)
    assert ring.reduce(cube) == poly.pmul(poly.const_poly(2), s_poly)
    assert cube == before

    shared = parse("(s*u + c^2*D(f,v))/(u - c)", ctx)
    memo = ring.to_rf(shared)
    snapshot = copy.deepcopy(memo)
    ring.reduce(memo[0])
    ring.reduce(memo[1])
    E.normalize_with_side_conditions(E.add(shared, E.mul(shared, parse("D(h,v)", ctx))), ctx, ring)
    assert ring.to_rf(shared) is memo
    assert memo == snapshot


def test_prefixed_relabels_every_condition_and_keeps_the_rest():
    report = CheckReport(
        [
            Condition("a", (0, 1), "0", True, (), 3),
            Condition("b", (2,), "u - v", False, ("f(v, w)",), 1),
        ],
        error="boom",
    )
    out = report.prefixed("tag")
    assert [c.cid for c in out.conditions] == ["tag:a", "tag:b"]
    assert [c.to_dict() | {"id": None} for c in out.conditions] == [
        c.to_dict() | {"id": None} for c in report.conditions
    ]
    assert out.error == "boom"
    assert [c.cid for c in report.conditions] == ["a", "b"]
    assert str(out).splitlines() == [
        "error: boom",
        "  ok   tag:a [x3]",
        "  FAIL tag:b @3: residual u - v (assuming f(v, w) != 0)",
        "verdict: FAIL",
    ]
