"""Sparse multivariate polynomial arithmetic over exact rationals.

A polynomial is a dict mapping monomials to nonzero ``Fraction`` coefficients.
A monomial is a tuple of ``(atom_index, exponent)`` pairs sorted by atom index
with strictly positive exponents; the empty tuple is the constant monomial.
Atom indices are assigned by the expression layer (see ``hamops.expr.Ring``).

This module is the only one that builds or takes monomials apart: besides
the ring operations it splits a polynomial by the powers of one atom
(``split``), renames atoms (``rename``), cancels a common monomial factor
(``cancel_monomial``) or gcd (``cancel``) from a fraction, reduces powers
of atoms by relations ``x^d -> r`` (``reduce_powers``) and inverts in the
finite-dimensional quotient by constant relations (``pinv``).

Everything here is exact; no floats enter at any point.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd as igcd

Mono = tuple
Poly = dict

ONE_M: Mono = ()


def const_poly(value) -> Poly:
    value = Fraction(value)
    if value == 0:
        return {}
    return {ONE_M: value}


def atom_poly(idx: int, exp: int = 1) -> Poly:
    return {((idx, exp),): Fraction(1)}


def mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        ai, ae = a[i]
        bi, be = b[j]
        if ai == bi:
            out.append((ai, ae + be))
            i += 1
            j += 1
        elif ai < bi:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


def mono_div(b: Mono, a: Mono) -> Mono:
    """b / a, assuming divisibility."""
    da = dict(a)
    out = []
    for idx, exp in b:
        rest = exp - da.get(idx, 0)
        if rest:
            out.append((idx, rest))
    return tuple(out)


def mono_gcd(a: Mono, b: Mono) -> Mono:
    da, db = dict(a), dict(b)
    out = []
    for idx in sorted(set(da) & set(db)):
        out.append((idx, min(da[idx], db[idx])))
    return tuple(out)


def mono_vec(m: Mono, width: int) -> tuple:
    vec = [0] * width
    for idx, exp in m:
        vec[idx] = exp
    return tuple(vec)


def grlex_key(m: Mono, width: int) -> tuple:
    return (mono_degree(m), mono_vec(m, width))


def padd(a: Poly, b: Poly) -> Poly:
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for m, c in b.items():
        s = out.get(m)
        if s is None:
            out[m] = c
        else:
            s = s + c
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def pneg(a: Poly) -> Poly:
    return {m: -c for m, c in a.items()}


def psub(a: Poly, b: Poly) -> Poly:
    return padd(a, pneg(b))


def pscale(a: Poly, k: Fraction) -> Poly:
    if k == 0:
        return {}
    return {m: c * k for m, c in a.items()}


def pmul(a: Poly, b: Poly, guard=None) -> Poly:
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = mono_mul(ma, mb)
            s = out.get(m)
            if s is None:
                out[m] = ca * cb
            else:
                s = s + ca * cb
                if s:
                    out[m] = s
                else:
                    del out[m]
    if guard is not None:
        guard(out)
    return out


def ppow(a: Poly, k: int, guard=None) -> Poly:
    if k < 0:
        raise ValueError("negative power at polynomial level")
    result = const_poly(1)
    base = a
    while k:
        if k & 1:
            result = pmul(result, base, guard)
        k >>= 1
        if k:
            base = pmul(base, base, guard)
    return result


def as_constant(a: Poly):
    """The coefficient of a nonzero constant polynomial; None for any other."""
    if len(a) == 1 and ONE_M in a:
        return a[ONE_M]
    return None


def _accumulate(out: Poly, m: Mono, c) -> None:
    s = out.get(m)
    if s is None:
        out[m] = c
    else:
        s = s + c
        if s:
            out[m] = s
        else:
            del out[m]


def reduce_powers(a: Poly, rules: dict, guard=None) -> Poly:
    """``a`` with every power ``x^e``, ``e >= d``, of an atom with a rule
    ``rules[x] = (d, r)`` replaced by ``x^(e mod d) * r^(e div d)``.

    One pass suffices because no right-hand side ``r`` holds a ruled atom.
    When nothing reduces, ``a`` itself is returned; it is never modified,
    since it may be a memoised ``Ring.to_rf`` result.
    """
    if not rules or not any(
        e >= rules[i][0] for m in a for i, e in m if i in rules
    ):
        return a
    out: Poly = {}
    powers: dict = {}  # (atom, q) -> r^q
    for m, c in a.items():
        rest = []
        factor = None
        for i, e in m:
            rule = rules.get(i)
            if rule is None or e < rule[0]:
                rest.append((i, e))
                continue
            q, r = divmod(e, rule[0])
            if r:
                rest.append((i, r))
            power = powers.get((i, q))
            if power is None:
                power = powers[i, q] = ppow(rule[1], q, guard)
            factor = power if factor is None else pmul(factor, power, guard)
        if factor is None:
            _accumulate(out, m, c)
            continue
        rest = tuple(rest)
        for fm, fc in factor.items():
            _accumulate(out, mono_mul(rest, fm), c * fc)
    if guard is not None:
        guard(out)
    return out


def pinv(a: Poly, rules: dict):
    """Inverse of ``a`` modulo the constant relations ``rules`` (atom ->
    (d, constant poly)), or None when ``a`` is not invertible; ``a`` must
    involve ruled atoms only."""
    if not a:
        return None
    c = as_constant(a)
    if c is not None:
        return {ONE_M: 1 / c}
    basis = [ONE_M]
    for i, (d, _) in sorted(rules.items()):
        basis = [mono_mul(m, ((i, e),)) if e else m for m in basis for e in range(d)]
    pos = {m: k for k, m in enumerate(basis)}
    n = len(basis)
    mat = [[Fraction(0)] * (n + 1) for _ in range(n)]
    for j, bm in enumerate(basis):
        for m, v in reduce_powers(pmul(a, {bm: Fraction(1)}), rules).items():
            mat[pos[m]][j] = v
    mat[pos[ONE_M]][n] = Fraction(1)
    pivots = rref(mat, n)
    if any(row[n] for row in mat[len(pivots):]):
        return None
    return {basis[k]: row[n] for k, row in zip(pivots, mat) if row[n]}


def split(a: Poly, x: int) -> dict:
    """``a`` as a polynomial in atom ``x``: degree -> coefficient, a
    polynomial free of ``x``."""
    out: dict[int, Poly] = {}
    for m, c in a.items():
        d = next((e for i, e in m if i == x), 0)
        rest = tuple(p for p in m if p[0] != x) if d else m
        out.setdefault(d, {})[rest] = c
    return out


def rename(a: Poly, remap: dict) -> Poly:
    """``a`` with atom ``i`` renamed ``remap[i]``."""
    return {tuple(sorted((remap[i], e) for i, e in m)): c for m, c in a.items()}


def cancel_monomial(num: Poly, den: Poly, keep=()):
    """``num`` and ``den`` divided by their common monomial factor, or both
    as they are when that factor is 1 or involves an atom in ``keep``."""
    g = mono_gcd(pmonomial_content(num), pmonomial_content(den))
    if not g or any(i in keep for i, _ in g):
        return num, den
    return (
        {mono_div(m, g): c for m, c in num.items()},
        {mono_div(m, g): c for m, c in den.items()},
    )


def cancel(num: Poly, den: Poly, width: int):
    """The fraction ``num/den`` with their gcd cancelled and their joint
    rational content divided out, the denominator's grlex-leading
    coefficient positive."""
    g = pgcd(num, den, width)
    if g and g != const_poly(1):
        qn = pdiv_exact(num, g, width)
        qd = pdiv_exact(den, g, width)
        if qn is not None and qd is not None:
            num, den = qn, qd
    c = _rat_content(chain(num.values(), den.values()))
    if leading(den, width)[1] < 0:
        c = -c
    return pscale(num, 1 / c), pscale(den, 1 / c)


def pmax_degree(a: Poly) -> int:
    return max((mono_degree(m) for m in a), default=0)


def leading(a: Poly, width: int):
    m = max(a, key=lambda m: grlex_key(m, width))
    return m, a[m]


def pdiv_exact(a: Poly, b: Poly, width: int):
    """Exact division a / b; returns the quotient or None when not divisible.

    The remainder's monomials wait in a heap by grlex order, so each step
    finds the leading one without a scan."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return {}
    lm, lc = leading(b, width)
    rest = [(m, c) for m, c in b.items() if m != lm]
    rem = dict(a)
    heap = [(_descending(m, width), m) for m in rem]
    heapify(heap)
    quo: Poly = {}
    while rem:
        rm = heappop(heap)[1]
        rc = rem.pop(rm, None)
        if rc is None:
            continue
        dm = dict(rm)
        if any(dm.get(i, 0) < e for i, e in lm):
            return None
        qm = mono_div(rm, lm)
        qc = rc / lc
        quo[qm] = qc
        for m, c in rest:
            m = mono_mul(qm, m)
            s = rem.get(m)
            if s is None:
                rem[m] = -qc * c
                heappush(heap, (_descending(m, width), m))
            elif s := s - qc * c:
                rem[m] = s
            else:
                del rem[m]
    return quo


def _descending(m: Mono, width: int) -> tuple:
    """A key that sorts monomials by descending grlex order."""
    return (-mono_degree(m), tuple(-e for e in mono_vec(m, width)))


def _rat_content(coeffs) -> Fraction:
    """Positive rational c such that coeffs/c are coprime integers.

    c is gcd(numerators)/lcm(denominators); given the coefficients of a
    numerator and a denominator together, it is their joint content.
    """
    num = 0
    den = 1
    for c in coeffs:
        num = igcd(num, abs(c.numerator))
        den = den * c.denominator // igcd(den, c.denominator)
    if num == 0:
        return Fraction(1)
    return Fraction(num, den)


def pmonomial_content(a: Poly) -> Mono:
    it = iter(a)
    try:
        g = next(it)
    except StopIteration:
        return ONE_M
    for m in it:
        g = mono_gcd(g, m)
        if not g:
            return ONE_M
    return g


GCD_SIZE_LIMIT = 6000


def pgcd(a: Poly, b: Poly, width: int) -> Poly:
    """Polynomial gcd over Q, primitive and with positive grlex-leading
    coefficient.

    Returns 1 at once when either input is a nonzero constant, and when
    ``len(a) * len(b)`` exceeds ``GCD_SIZE_LIMIT``; callers only use the
    result for cancellation, so a trivial gcd is always safe.  Otherwise the
    gcd is exact, found by the first of three steps that settles it: images
    mod p that prove it is 1, GCDHEU checked by division, and the
    subresultant PRS (see ``_gcd``).
    """
    if not a:
        return _positive_primitive(b, width)
    if not b:
        return _positive_primitive(a, width)
    if as_constant(a) is not None or as_constant(b) is not None:
        return const_poly(1)
    if len(a) * len(b) > GCD_SIZE_LIMIT:
        return const_poly(1)
    return _positive_primitive(_gcd(a, b, width), width)


def _positive_primitive(a: Poly, width: int) -> Poly:
    if not a:
        return {}
    c = _rat_content(a.values())
    _, lc = leading(a, width)
    if lc < 0:
        c = -c
    return pscale(a, 1 / c)


def _gcd(a: Poly, b: Poly, width: int) -> Poly:
    """A gcd of the nonzero ``a`` and ``b``, up to a rational factor."""
    if as_constant(a) is not None or as_constant(b) is not None:
        return const_poly(1)
    if _coprime_mod_p(a, b):
        return const_poly(1)
    g = _heuristic_gcd(a, b, width)
    if g is None:
        g = _subresultant_gcd(a, b, width)
    return g


# (a) coprimality certificate

_P = (1 << 61) - 1  # the Mersenne prime 2^61 - 1
_MASK64 = (1 << 64) - 1


def _residue(i: int) -> int:
    """The fixed residue of atom ``i``: ``i`` scrambled by the splitmix64
    finaliser into a nonzero value mod p, the same in every run.  It decides
    only whether a certificate is found, never what the gcd is."""
    z = (i + 1) * 0x9E3779B97F4A7C15 & _MASK64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return (z ^ (z >> 31)) % (_P - 1) + 1


def _coprime_mod_p(a: Poly, b: Poly) -> bool:
    """True when images mod p prove that gcd(a, b) = 1 (Brown, 1971); False
    when they do not settle it.

    An atom in one side only cannot occur in the gcd.  For an atom x in both,
    every other atom goes to its residue.  When both images keep their
    degree in x, the image of the gcd keeps its degree too and divides the
    gcd of the images, so images coprime in x prove that the gcd is free of
    x.
    """
    ra, rb = _residues_mod_p(a), _residues_mod_p(b)
    if ra is None or rb is None:
        return False
    common = {i for m in a for i, _ in m} & {i for m in b for i, _ in m}
    residues = {i: _residue(i) for m in chain(a, b) for i, _ in m}
    for x in common:
        fa, fb = _image_mod_p(ra, x, residues), _image_mod_p(rb, x, residues)
        if fa is None or fb is None or _gcd_degree_mod_p(fa, fb):
            return False
    return True


def _residues_mod_p(a: Poly):
    """``(monomial, coefficient mod p)`` pairs of ``a``, or None when a
    denominator is 0 mod p."""
    out = []
    for m, c in a.items():
        den = c.denominator % _P
        if not den:
            return None
        out.append((m, c.numerator * pow(den, -1, _P) % _P))
    return out


def _image_mod_p(terms, x: int, residues: dict):
    """The image in F_p[x], every atom ``i`` but ``x`` mapped to
    ``residues[i]``, as coefficients from degree 0 up; None when the leading
    coefficient in x maps to 0."""
    coeffs: dict = {}
    for m, c in terms:
        d = 0
        for i, e in m:
            if i == x:
                d = e
            else:
                c = c * pow(residues[i], e, _P) % _P
        coeffs[d] = (coeffs.get(d, 0) + c) % _P
    top = max(coeffs)
    if not coeffs[top]:
        return None
    return [coeffs.get(d, 0) for d in range(top + 1)]


def _gcd_degree_mod_p(f: list, g: list) -> int:
    """Degree of the gcd of two nonzero polynomials over F_p, each given as
    coefficients from degree 0 up with a nonzero last one."""
    while g:
        f = list(f)
        inv = pow(g[-1], -1, _P)
        while len(f) >= len(g):
            q = f[-1] * inv % _P
            shift = len(f) - len(g)
            for k, c in enumerate(g):
                f[shift + k] = (f[shift + k] - q * c) % _P
            while f and not f[-1]:
                f.pop()
        f, g = g, f
    return len(f) - 1


# (b) trial division and GCDHEU

# Evaluation points tried per variable, and the size, in bits, past which
# an evaluation point is given up: it grows as a power of the degrees at
# every level of the recursion.
_HEU_POINTS = 6
_HEU_MAX_BITS = 16384


def _heuristic_gcd(a: Poly, b: Poly, width: int):
    """gcd(a, b) when one side divides the other or GCDHEU finds it (Char,
    Geddes and Gonnet, 1989), else None.  Every candidate is checked by
    exact division of both sides."""
    if _may_divide(b, a) and pdiv_exact(a, b, width) is not None:
        return b
    if _may_divide(a, b) and pdiv_exact(b, a, width) is not None:
        return a
    return _heu(_primitive(a), _primitive(b), width)


def _may_divide(b: Poly, a: Poly) -> bool:
    """False when some atom has a higher degree in ``b`` than in ``a``."""
    da: dict = {}
    for m in a:
        for i, e in m:
            if e > da.get(i, 0):
                da[i] = e
    return all(e <= da.get(i, 0) for m in b for i, e in m)


def _primitive(a: Poly) -> Poly:
    """``a`` divided by its rational content: coprime integer coefficients."""
    return pscale(a, 1 / _rat_content(a.values()))


def _heu(a: Poly, b: Poly, width: int):
    """The gcd over Z of the integer polynomials ``a`` and ``b``, content
    included, or None.

    Evaluate one atom at xi > 2*min(|a|, |b|) + 2, take the gcd of the
    values one atom down, and read a candidate off its symmetric xi-adic
    digits.  A primitive candidate that divides both sides is the gcd.
    """
    ca, cb = _rat_content(a.values()), _rat_content(b.values())
    content = const_poly(igcd(ca.numerator, cb.numerator))
    if as_constant(a) is not None or as_constant(b) is not None:
        return content
    a, b = pscale(a, 1 / ca), pscale(b, 1 / cb)
    x = _main_var(a, b)
    norm = min(max(abs(c) for c in a.values()), max(abs(c) for c in b.values()))
    xi = 2 * int(norm) + 29
    for _ in range(_HEU_POINTS):
        if xi.bit_length() > _HEU_MAX_BITS:
            return None
        va, vb = _evaluate(a, x, xi), _evaluate(b, x, xi)
        if va and vb:
            gamma = _heu(va, vb, width)
            if gamma is None:
                return None
            h = _primitive(_xi_adic(gamma, x, xi))
            if pdiv_exact(a, h, width) is not None and pdiv_exact(b, h, width) is not None:
                return pmul(content, h)
        xi = xi * 73794 // 27011
    return None


def _evaluate(a: Poly, x: int, xi: int) -> Poly:
    """``a`` with atom ``x`` set to the integer ``xi``."""
    out: Poly = {}
    for d, coeff in split(a, x).items():
        scale = xi**d
        for m, c in coeff.items():
            _accumulate(out, m, c * scale)
    return out


def _xi_adic(gamma: Poly, x: int, xi: int) -> Poly:
    """The polynomial in ``x`` whose coefficients are the symmetric
    ``xi``-adic digits of the integer coefficients of ``gamma``."""
    out: Poly = {}
    for m, c in gamma.items():
        n, e = c.numerator, 0
        while n:
            digit = n % xi
            if 2 * digit > xi:
                digit -= xi
            if digit:
                out[mono_mul(m, ((x, e),)) if e else m] = Fraction(digit)
            n = (n - digit) // xi
            e += 1
    return out


# (c) subresultant PRS


def _main_var(a: Poly, b: Poly) -> int:
    return max((i for p in (a, b) for m in p for i, _ in m), default=-1)


def _subresultant_gcd(a: Poly, b: Poly, width: int) -> Poly:
    """gcd(a, b) by the subresultant PRS in their highest atom (Collins,
    1967; Brown and Traub, 1971), with the contents in that atom by
    ``_gcd``."""
    x = _main_var(a, b)
    ua, ub = split(a, x), split(b, x)
    if _udeg(ua) < _udeg(ub):
        ua, ub = ub, ua
    cont_a, cont_b = _gcd_list(ua.values(), width), _gcd_list(ub.values(), width)
    content = _gcd(cont_a, cont_b, width)
    if _udeg(ub) == 0:
        return content
    pa = {d: _quo(p, cont_a, width) for d, p in ua.items()}
    pb = {d: _quo(p, cont_b, width) for d, p in ub.items()}
    g = h = const_poly(1)
    while True:
        delta = _udeg(pa) - _udeg(pb)
        rem = _uprem(pa, pb)
        if not rem:
            break
        if _udeg(rem) == 0:
            return content
        scale = pmul(g, ppow(h, delta))
        pa, pb = pb, {d: _quo(p, scale, width) for d, p in rem.items()}
        g = pa[_udeg(pa)]
        if delta:
            h = _quo(ppow(g, delta), ppow(h, delta - 1), width)
    prim = _gcd_list(pb.values(), width)
    return pmul(content, _from_univar({d: _quo(p, prim, width) for d, p in pb.items()}, x))


def _gcd_list(polys, width: int) -> Poly:
    polys = iter(polys)
    g = next(polys)
    for p in polys:
        g = _gcd(g, p, width)
        if as_constant(g) is not None:
            break
    return g


def _quo(a: Poly, b: Poly, width: int) -> Poly:
    q = pdiv_exact(a, b, width)
    if q is None:
        raise ArithmeticError("inexact division in the subresultant PRS")
    return q


def _from_univar(coeffs, x: int) -> Poly:
    out: Poly = {}
    for d, poly in coeffs.items():
        for m, c in poly.items():
            out[mono_mul(m, ((x, d),)) if d else m] = c
    return out


def _udeg(coeffs) -> int:
    return max(coeffs, default=0)


def _uscale(ca, poly):
    return {d: pmul(p, poly) for d, p in ca.items()}


def _usub(ca, cb):
    out = dict(ca)
    for d, p in cb.items():
        out[d] = psub(out.get(d, {}), p)
    return {d: p for d, p in out.items() if p}


def _uprem(ua, ub):
    """Pseudo-remainder of ``ua`` by ``ub``, both in one atom over
    polynomial coefficients: the remainder of ``lc(ub)^(delta+1) * ua``,
    delta = deg ua - deg ub, as the subresultant PRS needs it."""
    db = _udeg(ub)
    lb = ub[db]
    steps = _udeg(ua) - db + 1
    rem = ua
    while rem and _udeg(rem) >= db:
        dr = _udeg(rem)
        lr = rem[dr]
        # lb * rem - lr * x^(dr-db) * ub
        rem = _usub(_uscale(rem, lb), {d + dr - db: pmul(p, lr) for d, p in ub.items()})
        steps -= 1
    if steps and rem:
        rem = _uscale(rem, ppow(lb, steps))
    return rem


def rref(rows: list, ncols: int) -> list:
    """Gauss-Jordan elimination of the ``Fraction`` rows, in place, over
    their first ``ncols`` columns; returns the pivot columns, the k-th pivot
    being the leading 1 of row k.  Later columns, such as a right-hand side,
    are carried along."""
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((rr for rr in range(r, len(rows)) if rows[rr][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for rr in range(len(rows)):
            if rr != r and rows[rr][c]:
                fct = rows[rr][c]
                rows[rr] = [a - fct * b for a, b in zip(rows[rr], rows[r])]
        pivots.append(c)
        r += 1
    return pivots
