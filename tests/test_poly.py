"""Polynomial-layer tests: power reduction by relations, the inverse in a
quotient by constant relations, the coefficient fields Q and F_p, and the
gcd."""

import ast
import copy
import random
from fractions import Fraction
from pathlib import Path

import pytest
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


F = poly.Residues(poly.draw_prime(random.Random(7)))


def _image(a):
    """The image in F of the rational polynomial ``a``."""
    return F.reduced({m: F.of(c) for m, c in a.items()})


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(-(10**30), 10**30), st.integers(1, 10**18))
def test_residue_of_a_rational(n, d):
    """``of(n/d)`` is ``n * d^-1 mod p``, and None when p divides the
    denominator (d < 2^60 < p never is a multiple of p)."""
    assert F.of(Fraction(n, d)) == n * pow(d, -1, F.p) % F.p
    if n % F.p:
        assert F.of(Fraction(n, d * F.p)) is None


def test_residue_of_a_rational_mod_seven():
    f7 = poly.Residues(7)
    assert [f7.of(Fraction(k, 3)) for k in range(4)] == [0, 5, 3, 1]
    assert f7.of(Fraction(1, 14)) is None
    assert f7.of(Fraction(7, 14)) == 4
    assert f7.of(Fraction(-7, 3)) == 0


def test_inverse_over_residues():
    rules = {0: (2, poly.const_poly(2)), 1: (3, poly.const_poly(2))}
    images = {i: (d, _image(r)) for i, (d, r) in rules.items()}
    a = poly.padd(poly.pmul(poly.atom_poly(0), poly.atom_poly(1)), poly.const_poly(Fraction(3, 2)))
    inv = poly.pinv(_image(a), images, F)
    assert F.reduced(poly.reduce_powers(poly.pmul(_image(a), inv), images)) == {poly.ONE_M: 1}
    assert inv == _image(poly.pinv(a, rules))
    assert poly.pinv(_image(poly.const_poly(Fraction(-2, 3))), images, F) == _image(
        poly.const_poly(Fraction(-3, 2))
    )
    assert poly.pinv({}, images, F) is None
    # s^2 = 4 makes s - 2 a zero divisor over F_p as over Q
    s_minus_2 = _image(poly.psub(poly.atom_poly(0), poly.const_poly(2)))
    assert poly.pinv(s_minus_2, {0: (2, _image(poly.const_poly(4)))}, F) is None


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.lists(st.integers(-5, 5), min_size=5, max_size=5), min_size=1, max_size=4))
def test_row_reduction_over_residues_matches_the_rationals(matrix):
    """Every minor of a 4 x 5 matrix with entries in [-5, 5] is smaller
    than p, so the pivots agree, and each reduced row over F_p is the image
    of the one over Q."""
    over_q = [[Fraction(x) for x in row] for row in matrix]
    over_p = [[x % F.p for x in row] for row in matrix]
    pivots = poly.rref(over_q, 4)
    assert poly.rref(over_p, 4, F) == pivots
    assert over_p == [[F.of(x) for x in row] for row in over_q]


def test_row_reduction_over_residues_on_a_rank_two_matrix():
    rows = [[2, 4, 1, 3], [1, 2, 0, 1], [3, 6, 1, 4]]
    over_q = [[Fraction(x) for x in row] for row in rows]
    assert poly.rref(over_q, 3) == poly.rref(rows, 3, F) == [0, 2]


def test_only_poly_takes_modular_powers():
    """F_p arithmetic lives in ``poly``: no other module of the library
    calls ``pow`` with a modulus."""
    src = Path(poly.__file__).parent
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        if path.name != "poly.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "pow"
        and len(node.args) + len(node.keywords) == 3
    ]
    assert calls == []


def test_gcd_with_a_constant_side_is_one():
    x, y = poly.atom_poly(0), poly.atom_poly(1)
    a = poly.psub(poly.pmul(x, x), poly.pmul(y, y))
    for c in (poly.const_poly(1), poly.const_poly(Fraction(-3, 7))):
        assert poly.pgcd(a, c, 2) == poly.const_poly(1)
        assert poly.pgcd(c, a, 2) == poly.const_poly(1)
        assert poly.pgcd(c, c, 2) == poly.const_poly(1)
        assert poly.pgcd({}, c, 2) == poly.const_poly(1)
    # with two non-constant sides the gcd is exact, primitive, and has a
    # positive leading coefficient
    assert poly.pgcd(a, poly.pscale(poly.psub(y, x), Fraction(-2)), 2) == poly.psub(x, y)


P61 = 2**61 - 1


def _random_poly(rng, atoms):
    """One to four terms over ``atoms``, exponents up to 2, small rational
    coefficients."""
    out = {}
    for _ in range(rng.randint(1, 4)):
        m = tuple((i, e) for i in atoms if (e := rng.randint(0, 2)))
        out = poly.padd(out, {m: Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 4]), rng.randint(1, 3))})
    return out or poly.const_poly(1)


def _vanishing_lead(rng, atoms):
    """A polynomial whose leading coefficient in ``atoms[0]`` is
    ``(x - k1)(x - k2)`` in ``x = atoms[1]``: it vanishes at small integers."""
    x0, x1 = poly.atom_poly(atoms[0], 2), poly.atom_poly(atoms[1])
    lead = poly.const_poly(1)
    for _ in range(2):
        lead = poly.pmul(lead, poly.psub(x1, poly.const_poly(rng.randint(-2, 2))))
    return poly.padd(poly.pmul(x0, lead), _random_poly(rng, atoms))


def _gaps_in_top(rng, atoms):
    """Two or three terms, up to degree 5 in the highest atom, so that the
    degrees of a remainder sequence in it skip."""
    out = {}
    for _ in range(rng.randint(2, 3)):
        m = tuple(
            (i, e) for i in atoms if (e := rng.randint(0, 5 if i == atoms[-1] else 1))
        )
        out = poly.padd(out, {m: Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 2))})
    return out or poly.const_poly(1)


def _gcd_draw(rng, natoms):
    """``(f*g, h*g)`` over ``natoms`` atoms.  ``style`` says whether the
    factors have vanishing leading coefficients or degree gaps, or ``g`` is
    1, or ``g`` has a coefficient with the denominator 2^61 - 1."""
    atoms = sorted(rng.sample(range(6), natoms))
    style = rng.choice(("plain", "vanishing", "gaps", "coprime", "p61"))
    draw = {"vanishing": _vanishing_lead, "gaps": _gaps_in_top}.get(style, _random_poly)
    f, g, h = (draw(rng, atoms) for _ in range(3))
    if style == "coprime":
        g = poly.const_poly(1)
    elif style == "p61":
        g = poly.padd(_vanishing_lead(rng, atoms), {((atoms[-1], 1),): Fraction(1, P61)})
    return style, poly.pmul(f, g), poly.pmul(h, g)


def test_certificate_needs_both_leading_coefficients():
    """``g = (x - rx)(y - ry) + 1`` maps to 1 in both images, so the images
    of ``g*(x + 2)*(y + 5)`` and ``g*(x + 3)*(y + 7)`` are coprime; only the
    leading coefficients, which vanish at the residues, show the gcd."""
    x, y = poly.atom_poly(0), poly.atom_poly(1)
    rx, ry = (poly.const_poly(poly._residue(i)) for i in (0, 1))
    g = poly.padd(poly.pmul(poly.psub(x, rx), poly.psub(y, ry)), poly.const_poly(1))
    a = poly.pmul(g, poly.pmul(poly.padd(x, poly.const_poly(2)), poly.padd(y, poly.const_poly(5))))
    b = poly.pmul(g, poly.pmul(poly.padd(x, poly.const_poly(3)), poly.padd(y, poly.const_poly(7))))
    assert not poly._coprime_mod_p(a, b)
    assert poly.pgcd(a, b, 2) == g


def _sympy_gcd(a, b):
    """sympy's gcd of ``a`` and ``b``, primitive with a positive leading
    coefficient."""
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("x0:6")

    def to_sympy(p):
        return sum(
            sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(gens[i] ** e for i, e in m))
            for m, c in p.items()
        )

    g = {}
    for exps, c in sympy.Poly(sympy.gcd(to_sympy(a), to_sympy(b)), *gens).terms():
        g[tuple((i, e) for i, e in enumerate(exps) if e)] = Fraction(int(c.p), int(c.q))
    return poly._positive_primitive(g, 6)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10**6))
def test_gcd_agrees_with_sympy(seed):
    """``pgcd``, its certificate and its heuristic against sympy's ``gcd``."""
    rng = random.Random(seed)
    style, a, b = _gcd_draw(rng, rng.randint(3, 5))
    want = _sympy_gcd(a, b)
    if style == "p61":
        # a denominator 0 mod p is no certificate, and g is no unit
        assert not poly._coprime_mod_p(a, b)
        assert want != poly.const_poly(1)
    if len(a) * len(b) <= poly.GCD_SIZE_LIMIT:
        assert poly.pgcd(a, b, 6) == want
    if poly._coprime_mod_p(a, b):
        assert want == poly.const_poly(1)
    heu = poly._heuristic_gcd(a, b, 6)
    if heu is not None:
        assert poly._positive_primitive(heu, 6) == want


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10**6))
def test_subresultant_gcd_agrees_with_sympy(seed):
    """The exact fallback on its own, over two or three atoms: its
    intermediate coefficients swell quickly with more."""
    rng = random.Random(seed)
    _, a, b = _gcd_draw(rng, rng.randint(2, 3))
    assert poly._positive_primitive(poly._subresultant_gcd(a, b, 6), 6) == _sympy_gcd(a, b)
