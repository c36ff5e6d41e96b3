"""Polynomial-layer tests: power reduction by relations, the inverse in a
quotient by constant relations, and the gcd."""

import copy
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hamops import poly

# atom 0: s with s^2 = 2; atom 1: c with c^3 = w^2 + 1; atom 2: w, free
S, C, W = 0, 1, 2
RULES = {
    S: (2, poly.const_poly(2)),
    C: (3, poly.padd(poly.atom_poly(W, 2), poly.const_poly(1))),
}


def _poly(terms):
    out = {}
    for exps, coeff in terms:
        m = tuple((i, e) for i, e in enumerate(exps) if e)
        out = poly.padd(out, {m: Fraction(coeff)})
    return out


polys = st.lists(
    st.tuples(
        st.tuples(*(st.integers(0, 7) for _ in range(3))),
        st.integers(-4, 4).filter(bool),
    ),
    max_size=6,
).map(_poly)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(polys, polys)
def test_reduce_powers(a, b):
    before = copy.deepcopy(a)
    red = poly.reduce_powers(a, RULES)
    assert a == before
    for m in red:
        for i, e in m:
            assert i not in RULES or e < RULES[i][0]
    assert poly.reduce_powers(red, RULES) is red
    lhs = poly.reduce_powers(poly.pmul(a, b), RULES)
    rhs = poly.reduce_powers(poly.pmul(red, poly.reduce_powers(b, RULES)), RULES)
    assert lhs == rhs


def test_reduce_powers_by_a_relation_with_a_variable():
    # c^7 = c * (c^3)^2 = c*(w^2 + 1)^2
    c7 = poly.atom_poly(C, 7)
    want = poly.pmul(poly.atom_poly(C), poly.ppow(RULES[C][1], 2))
    assert poly.reduce_powers(c7, RULES) == want


def test_inverse_modulo_constant_relations():
    rules = {0: (2, poly.const_poly(2)), 1: (3, poly.const_poly(2))}
    one = poly.const_poly(1)
    # s*c + 1 in Q[s, c]/(s^2 - 2, c^3 - 2)
    a = poly.padd(poly.pmul(poly.atom_poly(0), poly.atom_poly(1)), one)
    inv = poly.pinv(a, rules)
    assert poly.reduce_powers(poly.pmul(a, inv), rules) == one
    assert poly.pinv({}, rules) is None
    # s^2 = 4 makes s - 2 a zero divisor
    assert poly.pinv(poly.psub(poly.atom_poly(0), poly.const_poly(2)), {0: (2, poly.const_poly(4))}) is None


def test_gcd_with_a_constant_side_is_one():
    x, y = poly.atom_poly(0), poly.atom_poly(1)
    a = poly.psub(poly.pmul(x, x), poly.pmul(y, y))
    for c in (poly.const_poly(1), poly.const_poly(Fraction(-3, 7))):
        assert poly.pgcd(a, c, 2) == poly.const_poly(1)
        assert poly.pgcd(c, a, 2) == poly.const_poly(1)
        assert poly.pgcd(c, c, 2) == poly.const_poly(1)
        assert poly.pgcd({}, c, 2) == poly.const_poly(1)
    # two non-constant sides still go through the primitive PRS, and the
    # gcd has a positive leading coefficient
    assert poly.pgcd(a, poly.pscale(poly.psub(y, x), Fraction(-2)), 2) == poly.psub(x, y)
