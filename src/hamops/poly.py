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
    """Exact division a / b; returns the quotient or None when not divisible."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return {}
    lm, lc = leading(b, width)
    rem = dict(a)
    quo: Poly = {}
    while rem:
        rm, rc = leading(rem, width)
        dm = dict(rm)
        bm = dict(lm)
        ok = all(dm.get(i, 0) >= e for i, e in bm.items())
        if not ok:
            return None
        qm = mono_div(rm, lm)
        qc = rc / lc
        quo[qm] = qc
        rem = psub(rem, pmul({qm: qc}, b))
    return quo


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
    """Polynomial gcd, primitive and with positive grlex-leading coefficient.

    Returns 1 at once when either input is a nonzero constant, and when
    either exceeds the size guard; callers only use the result for
    cancellation, so a trivial gcd is always safe.
    """
    if not a:
        return _positive_primitive(b, width)
    if not b:
        return _positive_primitive(a, width)
    if as_constant(a) is not None or as_constant(b) is not None:
        return const_poly(1)
    if len(a) * len(b) > GCD_SIZE_LIMIT:
        return const_poly(1)
    g = _gcd_rec(a, b, width)
    return _positive_primitive(g, width)


def _positive_primitive(a: Poly, width: int) -> Poly:
    if not a:
        return {}
    c = _rat_content(a.values())
    _, lc = leading(a, width)
    if lc < 0:
        c = -c
    return pscale(a, 1 / c)


def _main_var(a: Poly, b: Poly):
    top = -1
    for p in (a, b):
        for m in p:
            for idx, _ in m:
                if idx > top:
                    top = idx
    return top


def _from_univar(coeffs, x: int) -> Poly:
    out: Poly = {}
    for d, poly in coeffs.items():
        for m, c in poly.items():
            if d:
                mm = mono_mul(m, ((x, d),))
            else:
                mm = m
            out[mm] = out.get(mm, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def _udeg(coeffs) -> int:
    return max(coeffs, default=0)


def _uscale(ca, poly):
    out = {}
    for d, p in ca.items():
        prod = pmul(p, poly)
        if prod:
            out[d] = prod
    return out


def _usub(ca, cb):
    out = dict(ca)
    for d, p in cb.items():
        out[d] = psub(out.get(d, {}), p)
    return {d: p for d, p in out.items() if p}


def _gcd_list(polys, width):
    g: Poly = {}
    for p in polys:
        g = _gcd_rec(g, p, width) if g else dict(p)
        if g == const_poly(1):
            return g
    return g


def _gcd_rec(a: Poly, b: Poly, width: int) -> Poly:
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    x = _main_var(a, b)
    if x < 0:
        return const_poly(1)
    ua, ub = split(a, x), split(b, x)
    if _udeg(ua) == 0 and _udeg(ub) == 0:
        # x does not actually occur with positive degree anywhere
        return _gcd_rec(ua.get(0, {}), ub.get(0, {}), width)
    cont_a = _gcd_list(ua.values(), width)
    cont_b = _gcd_list(ub.values(), width)
    cont = _gcd_rec(cont_a, cont_b, width)
    pa = {d: pdiv_exact(p, cont_a, width) for d, p in ua.items()}
    pb = {d: pdiv_exact(p, cont_b, width) for d, p in ub.items()}
    # primitive PRS
    if _udeg(pa) < _udeg(pb):
        pa, pb = pb, pa
    while True:
        if not pb:
            result = pa
            break
        rem = _uprem(pa, pb, width)
        if not rem:
            result = pb
            break
        c = _gcd_list(rem.values(), width)
        rem = {d: pdiv_exact(p, c, width) for d, p in rem.items()}
        pa, pb = pb, rem
    prim = _from_univar(result, x)
    return pmul(cont, _positive_primitive(prim, width))


def _uprem(ua, ub, width):
    """Pseudo-remainder of primitive univariate views."""
    da, db = _udeg(ua), _udeg(ub)
    lb = ub[db]
    rem = {d: dict(p) for d, p in ua.items()}
    while rem and _udeg(rem) >= db:
        dr = _udeg(rem)
        lr = rem[dr]
        # lb * rem - lr * x^(dr-db) * ub
        rem = _uscale(rem, lb)
        shift = {d + dr - db: pmul(p, lr) for d, p in ub.items()}
        rem = _usub(rem, shift)
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
