"""Exact symbolic expression kernel.

Expressions are immutable trees over field variables, formal parameters,
algebraic constants (symbols reduced modulo a declared power relation),
opaque function applications and their formal derivatives (jets), exact
rationals, sums, products, integer powers and quotients.

The kernel provides parsing, differentiation, canonical rational normal
forms, exact identity-to-zero testing and deterministic randomized zero
testing.  The normal forms and ``evaluate_at`` compute over
arbitrary-precision rationals; the randomized zero test evaluates at
points drawn in F_p, for a 61-bit prime p drawn from its seed.
No floats are used anywhere.

Polynomial arithmetic lives in ``hamops.poly``: ``Ring`` interns the atoms
of an expression as polynomial indices (and the factors of its
denominators as base polynomials), and both the normal form and
numeric evaluation, whose values are polynomials over the algebraic
symbols, reduce powers by the declared relations through
``poly.reduce_powers``.  This module never builds a monomial itself.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from operator import attrgetter

from . import poly


# ---------------------------------------------------------------------------
# errors


class ExprError(Exception):
    pass


class ParseError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UndeclaredSymbolError(ExprError):
    pass


class ZeroDenominatorError(ExprError):
    """A denominator normalized to the identically-zero polynomial."""


class NonIntegerExponentError(ExprError):
    pass


class GuardExceededError(ExprError):
    """The expansion guard (maximum total degree) was exceeded."""


class PoleError(ExprError):
    """Numeric evaluation hit a zero denominator; resample the point."""


class SampleBudgetError(ExprError):
    """All resampling attempts hit poles."""


class NotRationalError(ExprError):
    """Evaluation result carries a nonzero algebraic-constant component."""


# ---------------------------------------------------------------------------
# expression nodes


class Expr:
    """Base of the node classes.

    A node is identified by its exact class and the fields its class names
    in ``_fields``; equality and the hash, cached in ``_hash`` on first use,
    are defined here once for every node class.
    """

    __slots__ = ("_hash",)
    _fields: attrgetter

    def __eq__(self, other):
        if self is other:
            return True
        fields = self._fields
        return type(other) is type(self) and fields(self) == fields(other)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((type(self).__name__, self._fields(self)))
        return self._hash

    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return add(self, neg(_coerce(other)))

    def __rsub__(self, other):
        return add(_coerce(other), neg(self))

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __pow__(self, k):
        if not isinstance(k, int):
            raise NonIntegerExponentError(f"exponent {k!r} is not an integer")
        return pow_(self, k)

    def __neg__(self):
        return neg(self)

    def __repr__(self):
        return f"<{type(self).__name__} {render(self)}>"

    def __str__(self):
        return render(self)


class Rat(Expr):
    __slots__ = ("value",)
    _fields = attrgetter("value")

    def __init__(self, value):
        self.value = value if type(value) is Fraction else Fraction(value)
        self._hash = None


class Symbol(Expr):
    """A named atom; its subclasses differ only in kind, so ``Var("u")``,
    ``Param("u")`` and ``AlgConst("u")`` are distinct nodes."""

    __slots__ = ("name",)
    _fields = attrgetter("name")

    def __init__(self, name: str):
        self.name = name
        self._hash = None


class Var(Symbol):
    __slots__ = ()


class Param(Symbol):
    __slots__ = ()


class AlgConst(Symbol):
    __slots__ = ()


class Func(Expr):
    """Opaque function application carrying a formal derivative multi-index.

    ``orders[p]`` is the number of derivatives taken with respect to the
    p-th declared argument slot; ``args`` are the expressions the (derived)
    function is applied to.  ``orders == (0, ..., 0)`` is a plain application.
    """

    __slots__ = ("name", "orders", "args")
    _fields = attrgetter("name", "orders", "args")

    def __init__(self, name: str, orders: tuple, args: tuple):
        self.name = name
        self.orders = tuple(orders)
        self.args = tuple(args)
        self._hash = None


class Add(Expr):
    __slots__ = ("terms",)
    _fields = attrgetter("terms")

    def __init__(self, terms: tuple):
        self.terms = tuple(terms)
        self._hash = None


class Mul(Expr):
    __slots__ = ("factors",)
    _fields = attrgetter("factors")

    def __init__(self, factors: tuple):
        self.factors = tuple(factors)
        self._hash = None


class Pow(Expr):
    __slots__ = ("base", "exp")
    _fields = attrgetter("exp", "base")

    def __init__(self, base: Expr, exp: int):
        self.base = base
        self.exp = exp
        self._hash = None


class Div(Expr):
    __slots__ = ("num", "den")
    _fields = attrgetter("num", "den")

    def __init__(self, num: Expr, den: Expr):
        self.num = num
        self.den = den
        self._hash = None


ZERO = Rat(0)
ONE = Rat(1)
MINUS_ONE = Rat(-1)


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Rat(x)
    raise TypeError(f"cannot use {x!r} as an expression")


def rat(p, q=1) -> Rat:
    return Rat(Fraction(p, q))


def add(*xs) -> Expr:
    terms = []
    const = 0
    for x in xs:
        x = _coerce(x)
        if isinstance(x, Add):
            inner = x.terms
        else:
            inner = (x,)
        for t in inner:
            if isinstance(t, Rat):
                if t.value:
                    const += t.value
            else:
                terms.append(t)
    if not terms:
        return Rat(const) if const else ZERO
    if const:
        terms.append(Rat(const))
    if len(terms) == 1:
        return terms[0]
    return Add(tuple(terms))


def neg(x) -> Expr:
    x = _coerce(x)
    if isinstance(x, Rat):
        return Rat(-x.value) if x.value else ZERO
    return mul(MINUS_ONE, x)


def mul(*xs) -> Expr:
    factors = []
    const = 1
    for x in xs:
        x = _coerce(x)
        if isinstance(x, Mul):
            inner = x.factors
        else:
            inner = (x,)
        for f in inner:
            if isinstance(f, Rat):
                const *= f.value
            else:
                factors.append(f)
    if const == 0:
        return ZERO
    if const != 1 or not factors:
        factors.insert(0, Rat(const))
    if len(factors) == 1:
        return factors[0]
    return Mul(tuple(factors))


def pow_(b, k: int) -> Expr:
    b = _coerce(b)
    if not isinstance(k, int):
        raise NonIntegerExponentError(f"exponent {k!r} is not an integer")
    if k == 0:
        return ONE
    if k == 1:
        return b
    if isinstance(b, Rat):
        if k < 0 and b.value == 0:
            raise ZeroDenominatorError("0 raised to a negative power")
        return Rat(b.value**k)
    return Pow(b, k)


def div(a, b) -> Expr:
    a, b = _coerce(a), _coerce(b)
    if isinstance(b, Rat):
        if b.value == 0:
            raise ZeroDenominatorError("division by zero")
        return mul(Rat(1 / b.value), a)
    if isinstance(a, Rat) and a.value == 0:
        return ZERO
    return Div(a, b)


# ---------------------------------------------------------------------------
# context


@dataclass(frozen=True)
class AlgebraicSymbol:
    """Symbol s reduced by the power relation s**power -> rhs.

    ``rhs`` must not contain any algebraic symbol.  The relation fixes the
    derivatives of s: differentiating s**d = r gives
    ds/dx = (dr/dx) / (d * s**(d-1)), so a constant ``rhs`` such as that
    of sqrt2 makes s a constant.
    """

    name: str
    power: int
    rhs: Expr


@dataclass(frozen=True)
class OpaqueFunction:
    name: str
    args: tuple


@dataclass(frozen=True)
class Assumption:
    """Triangular rewrite eliminating one jet symbol.

    The jet of ``func`` with multi-index ``orders`` (and every higher jet in
    its derivative cone) rewrites to the corresponding derivative of ``rhs``.
    ``side_condition`` records the non-vanishing requirement under which the
    rule was solved; it is reported, never enforced.
    """

    func: str
    orders: tuple
    rhs: Expr
    side_condition: Expr | None = None


def _int_root(x: int, p: int) -> int:
    """``floor(x ** (1/p))`` for an integer ``x >= 0``, by Newton's method
    from above."""
    if x < 2:
        return x
    r = 1 << -(-x.bit_length() // p)
    while True:
        y = ((p - 1) * r + x // r ** (p - 1)) // p
        if y >= r:
            return r
        r = y


def _is_power(a: Fraction, p: int) -> bool:
    """Whether ``a = c**p`` for some rational ``c``."""
    if a < 0 and p % 2 == 0:
        return False
    return all(_int_root(x, p) ** p == x for x in (abs(a.numerator), a.denominator))


def _reducible(d: int, a: Fraction) -> bool:
    """Capelli's test: ``x**d - a`` factors over Q exactly when ``a`` is a
    p-th power for some prime ``p`` dividing ``d``, or ``4`` divides ``d`` and
    ``a = -4 c**4``.  A reducible relation has zero divisors such as
    ``s - 2`` under ``s**2 = 4``, which would make ``0/0`` read as zero."""
    primes = (p for p in range(2, d + 1) if d % p == 0 and all(p % q for q in range(2, p)))
    return any(_is_power(a, p) for p in primes) or (d % 4 == 0 and _is_power(-a / 4, 4))


@dataclass(frozen=True)
class Context:
    variables: tuple
    parameters: tuple = ()
    algebraics: tuple = ()
    functions: tuple = ()
    assumptions: tuple = ()

    def __post_init__(self):
        names = list(self.variables) + list(self.parameters)
        names += [a.name for a in self.algebraics]
        names += [f.name for f in self.functions]
        for name in names:
            if not _is_identifier(name):
                raise ExprError(f"{name!r} is not a valid identifier")
        if len(set(names)) != len(names):
            raise ExprError("duplicate identifier in context")
        for a in self.algebraics:
            if a.power < 2:
                raise ExprError(f"algebraic symbol {a.name} needs power >= 2")
            if type(a.rhs) is Rat and _reducible(a.power, a.rhs.value):
                raise ExprError(
                    f"power relation {a.name}^{a.power} = {a.rhs.value} is reducible over Q"
                )
            for leaf in walk_leaves(a.rhs):
                if isinstance(leaf, AlgConst):
                    raise ExprError(
                        f"rewrite target of {a.name} may not contain algebraic symbols"
                    )
        self._check_assumptions()

    def _check_assumptions(self):
        seen = []
        for i, rule in enumerate(self.assumptions):
            fn = self.function(rule.func)
            if len(rule.orders) != len(fn.args):
                raise ExprError(f"assumption for {rule.func}: bad multi-index")
            if sum(rule.orders) < 1:
                raise ExprError("assumptions must eliminate a derivative jet")
            for f2, o2 in seen:
                if f2 == rule.func and (
                    all(a <= b for a, b in zip(o2, rule.orders))
                    or all(b <= a for a, b in zip(o2, rule.orders))
                ):
                    raise ExprError("two assumptions eliminate the same jet symbol")
            # triangularity: rhs free of jets eliminated by rules 1..i (incl. self)
            for leaf in walk_leaves(rule.rhs):
                if isinstance(leaf, Func):
                    for f2, o2 in seen + [(rule.func, rule.orders)]:
                        if leaf.name == f2 and all(
                            a >= b for a, b in zip(leaf.orders, o2)
                        ):
                            raise ExprError(
                                "assumption system is not triangular: rule for "
                                f"{rule.func} reintroduces an eliminated jet"
                            )
            seen.append((rule.func, rule.orders))

    @cached_property
    def _vars(self):
        return {name: i for i, name in enumerate(self.variables)}

    @cached_property
    def _params(self):
        return frozenset(self.parameters)

    @cached_property
    def _algs(self):
        return {a.name: a for a in self.algebraics}

    @cached_property
    def _alg_index(self):
        return {a.name: i for i, a in enumerate(self.algebraics)}

    @cached_property
    def _funcs(self):
        return {f.name: f for f in self.functions}

    @cached_property
    def _rules(self):
        table: dict = {}
        for rule in self.assumptions:
            table.setdefault(rule.func, []).append(rule)
        return table

    def var_index(self, name: str) -> int:
        try:
            return self._vars[name]
        except KeyError:
            raise UndeclaredSymbolError(f"undeclared variable {name!r}") from None

    def is_declared(self, name: str) -> bool:
        return (
            name in self._vars
            or name in self._params
            or name in self._algs
            or name in self._funcs
        )

    def function(self, name: str) -> OpaqueFunction:
        try:
            return self._funcs[name]
        except KeyError:
            raise UndeclaredSymbolError(f"undeclared function {name!r}") from None

    def algebraic(self, name: str) -> AlgebraicSymbol:
        return self._algs[name]

    def var(self, name: str) -> Var:
        self.var_index(name)
        return Var(name)

    def param(self, name: str) -> Param:
        if name not in self._params:
            raise UndeclaredSymbolError(f"undeclared parameter {name!r}")
        return Param(name)

    def func_expr(self, name: str, orders=None) -> Func:
        fn = self.function(name)
        orders = tuple(orders) if orders is not None else (0,) * len(fn.args)
        return Func(name, orders, tuple(Var(a) for a in fn.args))

    def with_parameters(self, *names: str) -> "Context":
        fresh = tuple(n for n in names if n not in self._params)
        for n in fresh:
            if self.is_declared(n):
                raise ExprError(f"{n!r} already declared")
        return Context(
            self.variables,
            self.parameters + fresh,
            self.algebraics,
            self.functions,
            self.assumptions,
        )

    def fresh_parameter(self, stem: str) -> tuple:
        name = stem
        k = 0
        while self.is_declared(name):
            k += 1
            name = f"{stem}{k}"
        return name, self.with_parameters(name)

    def parse(self, text: str) -> Expr:
        return parse(text, self)


def walk_leaves(e: Expr):
    stack = [e]
    while stack:
        x = stack.pop()
        if isinstance(x, Add):
            stack.extend(x.terms)
        elif isinstance(x, Mul):
            stack.extend(x.factors)
        elif isinstance(x, Pow):
            stack.append(x.base)
        elif isinstance(x, Div):
            stack.append(x.num)
            stack.append(x.den)
        else:
            if isinstance(x, Func):
                stack.extend(x.args)
            yield x


# ---------------------------------------------------------------------------
# parser


_TOKEN_CHARS = set("+-*/^(),")


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_CHARS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


def _is_identifier(name) -> bool:
    """Whether the parser reads ``name`` as one identifier; ``D`` is
    reserved for jets."""
    if not isinstance(name, str) or name == "D":
        return False
    try:
        return _tokenize(name)[:-1] == [("ident", name, 0)]
    except ParseError:
        return False


class _Parser:
    def __init__(self, text: str, ctx: Context):
        self.text = text
        self.ctx = ctx
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            e = add(e, rhs if op == "+" else neg(rhs))
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            rhs = self.factor()
            e = mul(e, rhs) if op == "*" else div(e, rhs)
        return e

    def factor(self) -> Expr:
        # unary minus binds more loosely than '^': -w^2 is -(w^2)
        minus = 0
        while self.peek()[0] == "-":
            self.advance()
            minus += 1
        e = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            sign = 1
            if self.peek()[0] == "-":
                self.advance()
                sign = -1
            tok = self.advance()
            if tok[0] != "int":
                raise ParseError("non-integer exponent", tok[2])
            e = pow_(e, sign * int(tok[1]))
        return neg(e) if minus % 2 else e

    def atom(self) -> Expr:
        tok = self.advance()
        kind, value, off = tok
        if kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        if kind == "int":
            return Rat(int(value))
        if kind == "ident":
            if value == "D" and self.peek()[0] == "(":
                return self.jet(off)
            return self.identifier(value, off)
        raise ParseError(f"unexpected token {value!r}", off)

    def jet(self, off: int) -> Expr:
        self.expect("(")
        name_tok = self.expect("ident")
        fname = name_tok[1]
        fn = self.ctx._funcs.get(fname)
        if fn is None:
            raise ParseError(f"undeclared function {fname!r}", name_tok[2])
        orders = [0] * len(fn.args)
        while self.peek()[0] == ",":
            self.advance()
            arg_tok = self.expect("ident")
            slot = arg_tok[1]
            if slot in fn.args:
                orders[fn.args.index(slot)] += 1
            elif _is_position(slot) and 1 <= int(slot[1:]) <= len(fn.args):
                orders[int(slot[1:]) - 1] += 1
            else:
                raise ParseError(
                    f"{slot!r} is not an argument of {fname!r}", arg_tok[2]
                )
        self.expect(")")
        if sum(orders) == 0:
            raise ParseError("D(...) needs at least one differentiation slot", off)
        if self.peek()[0] == "(":
            args = self.call_args(fn, off)
        else:
            args = tuple(Var(a) for a in fn.args)
        return Func(fname, tuple(orders), args)

    def identifier(self, name: str, off: int) -> Expr:
        ctx = self.ctx
        if self.peek()[0] == "(":
            fn = ctx._funcs.get(name)
            if fn is None:
                raise ParseError(f"undeclared function {name!r}", off)
            return Func(name, (0,) * len(fn.args), self.call_args(fn, off))
        if name in ctx._vars:
            return Var(name)
        if name in ctx._params:
            return Param(name)
        if name in ctx._algs:
            return AlgConst(name)
        fn = ctx._funcs.get(name)
        if fn is not None:
            # bare function name: application to its declared arguments
            return Func(name, (0,) * len(fn.args), tuple(Var(a) for a in fn.args))
        raise ParseError(f"undeclared identifier {name!r}", off)

    def call_args(self, fn: OpaqueFunction, off: int) -> tuple:
        """The parenthesised arguments of an application of ``fn``."""
        self.expect("(")
        args = [self.expr()]
        while self.peek()[0] == ",":
            self.advance()
            args.append(self.expr())
        self.expect(")")
        if len(args) != len(fn.args):
            raise ParseError(f"wrong argument count for {fn.name!r}", off)
        return tuple(args)


def parse(text: str, ctx: Context) -> Expr:
    if not isinstance(text, str):
        raise ExprError(f"expected an expression string, found {text!r}")
    return _Parser(text, ctx).parse()


# ---------------------------------------------------------------------------
# rendering


def _render_rat(v: Fraction) -> str:
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


def render(e: Expr, ctx: Context | None = None) -> str:
    """The text of ``e``.  With ``ctx`` the text parses back to ``e`` in
    ``ctx``: a jet is written ``D(f, u)`` only when it is applied at ``f``'s
    declared arguments (see ``_render_func``)."""
    return _render(e, 0, ctx)


def _render(e: Expr, prec: int, ctx: Context | None) -> str:
    if isinstance(e, Rat):
        s = _render_rat(e.value)
        if (e.value < 0 or e.value.denominator != 1) and prec >= 20:
            return f"({s})"
        if e.value < 0 and prec >= 10:
            return f"({s})"
        return s
    if isinstance(e, (Var, Param, AlgConst)):
        return e.name
    if isinstance(e, Func):
        return _render_func(e, ctx)
    if isinstance(e, Add):
        parts = []
        for i, t in enumerate(e.terms):
            s = _render(t, 5 if i else 10, ctx)
            if i and s.startswith("-"):
                parts.append(f" - {s[1:]}")
            elif i:
                parts.append(f" + {s}")
            else:
                parts.append(s)
        s = "".join(parts)
        return f"({s})" if prec > 10 else s
    if isinstance(e, Mul):
        parts = []
        negate = False
        for i, f in enumerate(e.factors):
            if i == 0 and isinstance(f, Rat):
                if f.value == -1:
                    negate = True
                    continue
                if f.value < 0:
                    negate = True
                    parts.append(_render(Rat(-f.value), 20, ctx))
                    continue
            parts.append(_render(f, 20, ctx))
        s = "*".join(parts) if parts else "1"
        if negate:
            s = f"-{s}"
        return f"({s})" if prec > 20 or (negate and prec > 10) else s
    if isinstance(e, Div):
        num = e.num
        sign = ""
        if isinstance(num, Mul) and isinstance(num.factors[0], Rat) and num.factors[0].value < 0:
            sign = "-"
            num = mul(Rat(-num.factors[0].value), *num.factors[1:])
        elif isinstance(num, Rat) and num.value < 0:
            sign = "-"
            num = Rat(-num.value)
        s = f"{sign}{_render(num, 20, ctx)}/{_render(e.den, 25, ctx)}"
        return f"({s})" if prec > 20 or (sign and prec > 10) else s
    if isinstance(e, Pow):
        base = _render(e.base, 30, ctx)
        return f"{base}^{e.exp}"
    raise TypeError(f"cannot render {e!r}")


def _render_func(e: Func, ctx: Context | None) -> str:
    args = ", ".join(_render(a, 0, ctx) for a in e.args)
    if sum(e.orders) == 0:
        return f"{e.name}({args})"
    fn = None if ctx is None else ctx._funcs.get(e.name)
    if ctx is None:
        named = all(isinstance(a, Var) for a in e.args)
    else:
        named = fn is not None and e.args == tuple(Var(a) for a in fn.args)
    if named:
        slots = []
        for a, k in zip(e.args, e.orders):
            slots.extend([a.name] * k)
        return f"D({e.name}, {', '.join(slots)})"
    # jet at other arguments: D-form by position, then the application; a
    # declared argument named like a position is read as that argument, so
    # then the slots are the declared names
    names = [f"x{pos + 1}" for pos in range(len(e.orders))]
    if fn is not None and any(_is_position(a) for a in fn.args):
        names = list(fn.args)
    slots = []
    for name, k in zip(names, e.orders):
        slots.extend([name] * k)
    return f"D({e.name}, {', '.join(slots)})({args})"


def _is_position(name: str) -> bool:
    return name.startswith("x") and name[1:].isdigit()


# ---------------------------------------------------------------------------
# one memoised walker: differentiation, substitution, instantiation,
# assumption rewriting and numeric evaluation


def _rebuild(x: Expr, go) -> Expr:
    """``x`` with every child ``c`` replaced by ``go(c)``; leaves are kept."""
    if isinstance(x, Func):
        return Func(x.name, x.orders, tuple(go(a) for a in x.args))
    if isinstance(x, Add):
        return add(*[go(t) for t in x.terms])
    if isinstance(x, Mul):
        return mul(*[go(f) for f in x.factors])
    if isinstance(x, Pow):
        return pow_(go(x.base), x.exp)
    if isinstance(x, Div):
        return div(go(x.num), go(x.den))
    return x


class _Walk(dict):
    """The memo of one walk, keyed by node equality; see ``_walk``."""

    __slots__ = ("visit",)

    def __missing__(self, x: Expr):
        out = self[x] = self.visit(x, self.__getitem__)
        return out


def _walk(visit):
    """``go`` of a memoised walk: ``go(x)`` is ``visit(x, go)``, which calls
    ``go`` for the image of a subtree.  Each distinct subtree is visited
    once while ``go`` lives, also across several expressions given to it,
    and a visit that raises leaves no entry.  The memo holds no reference
    cycle, so a dropped walker is freed at once."""
    walk = _Walk()
    walk.visit = visit
    return walk.__getitem__


def differentiate(e, var: str, ctx: Context):
    """d/d``var`` of ``e``, or of each expression of the tuple ``e``: one
    walker serves the whole tuple, so a subtree that several of them share
    is differentiated once."""
    ctx.var_index(var)

    def visit(x, go):
        if isinstance(x, Var):
            return ONE if x.name == var else ZERO
        if isinstance(x, AlgConst):
            a = ctx.algebraic(x.name)
            dr = go(a.rhs)
            return ZERO if dr == ZERO else div(dr, mul(Rat(a.power), pow_(x, a.power - 1)))
        if isinstance(x, (Rat, Param)):
            return ZERO
        parts = []
        if isinstance(x, Func):
            for p, arg in enumerate(x.args):
                darg = go(arg)
                if darg != ZERO:
                    orders = list(x.orders)
                    orders[p] += 1
                    parts.append(mul(Func(x.name, tuple(orders), x.args), darg))
        elif isinstance(x, Add):
            parts = map(go, x.terms)
        elif isinstance(x, Mul):
            for i, f in enumerate(x.factors):
                df = go(f)
                if df != ZERO:
                    parts.append(mul(df, *x.factors[:i], *x.factors[i + 1 :]))
        elif isinstance(x, Pow):
            db = go(x.base)
            return ZERO if db == ZERO else mul(Rat(x.exp), pow_(x.base, x.exp - 1), db)
        elif isinstance(x, Div):
            dn, dd = go(x.num), go(x.den)
            if dd == ZERO:
                return div(dn, x.den)
            return div(add(mul(dn, x.den), neg(mul(x.num, dd))), pow_(x.den, 2))
        else:
            raise TypeError(f"cannot differentiate {x!r}")
        return add(*parts)

    go = _walk(visit)
    return tuple(map(go, e)) if isinstance(e, tuple) else go(e)


def _jet_body(fn: OpaqueFunction, body: Expr, orders, ctx: Context) -> Expr:
    """``body``, an expression in ``fn``'s declared arguments, differentiated
    ``orders[p]`` times along the p-th of them."""
    for slot, k in zip(fn.args, orders):
        for _ in range(k):
            body = differentiate(body, slot, ctx)
    return body


def substitute(e: Expr, mapping: dict) -> Expr:
    """Replace variables/parameters (by name) with expressions."""

    def visit(x, go):
        if isinstance(x, (Var, Param)):
            return mapping.get(x.name, x)
        return _rebuild(x, go)

    return _walk(visit)(e)


def instantiate(e: Expr, inst: dict | None, ctx: Context) -> Expr:
    """Replace opaque functions with concrete expressions.

    ``inst`` maps a function name to an expression in the function's declared
    arguments.  Jets become honest derivatives of the instantiation, and the
    application arguments are substituted in afterwards.  An empty map (or
    None) returns ``e`` itself.
    """
    if not inst:
        return e

    def visit(x, go):
        if isinstance(x, Func) and x.name in inst:
            fn = ctx.function(x.name)
            body = _jet_body(fn, inst[x.name], x.orders, ctx)
            return substitute(body, {a: go(arg) for a, arg in zip(fn.args, x.args)})
        return _rebuild(x, go)

    return _walk(visit)(e)


def rewrite_assumptions(e: Expr, ctx: Context, used=None) -> Expr:
    """Apply the context's triangular substitution rules to fixpoint."""
    if not ctx.assumptions:
        return e

    def visit(x, go):
        out = _rebuild(x, go)
        rule = _matching_rule(out, ctx) if isinstance(x, Func) else None
        if rule is None:
            return out
        if used is not None:
            used.add(rule)
        fn = ctx.function(rule.func)
        extra = tuple(a - b for a, b in zip(out.orders, rule.orders))
        body = _jet_body(fn, rule.rhs, extra, ctx)
        if out.args != tuple(Var(a) for a in fn.args):
            body = substitute(body, dict(zip(fn.args, out.args)))
        return go(body)

    return _walk(visit)(e)


def _matching_rule(atom: Func, ctx: Context):
    for rule in ctx._rules.get(atom.name, ()):
        if all(a >= b for a, b in zip(atom.orders, rule.orders)):
            return rule
    return None


# ---------------------------------------------------------------------------
# the polynomial ring over interned atoms

_MAX_DEGREE: ContextVar = ContextVar("hamops_max_degree", default=None)


@contextmanager
def expansion_guard(max_degree: int):
    """Abort normalization when any monomial exceeds ``max_degree``."""
    token = _MAX_DEGREE.set(max_degree)
    try:
        yield
    finally:
        _MAX_DEGREE.reset(token)


class Ring:
    """Interning table mapping leaf atoms to polynomial indices.

    ``to_rf`` memoises its result for every expression it is called on, and
    the factored conversion behind it memoises every subexpression, so a
    ring shared by many residuals reduces each common subtree once.  The
    memos live as long as the ring.

    Intermediate denominators stay factored: a map ``{base: exponent}`` over
    the base polynomials ``bases``, interned here like the atoms.  A sum
    takes the exponentwise maximum of its terms' maps (their lcm), a product
    adds them.  A new denominator is split along its products and powers,
    and each polynomial factor into atom bases (its monomial content), known
    bases (by exact trial division) and one new base (the cofactor);
    constants go to the numerator.  Only ``to_rf`` expands a denominator,
    through a memo of expanded base powers.  The ``expansion_guard``
    therefore sees smaller intermediates than a product of denominators
    would give, and on some inputs it fires later or not at all.

    ``_frac`` and ``_inverse`` keep their own memos, not ``_walk``: in a
    trial on the walker, the frames it adds per nested application took 150
    of them past the default recursion limit (``TestDeepInput``, in
    ``tests/test_cli.py``).
    """

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.atoms: list[Expr] = []
        self.index: dict[Expr, int] = {}
        self.sort_keys: list[tuple] = []  # _atom_sort_key of atoms[:len(sort_keys)]
        self.algrules: dict[int, tuple] = {}  # idx -> (power, rhs poly)
        self.bases: list[poly.Poly] = []  # primitive, grlex-leading coefficient > 0
        self._base_ids: dict[frozenset, int] = {}
        self._leads: dict[int, tuple] = {}  # trial divisors: base -> leading monomial
        self._plain_atoms: dict[int, int] = {}  # base -> atom, non-algebraic atoms
        self._powers: dict[tuple, poly.Poly] = {}  # (base, k) -> reduced base^k
        self._rf: dict[Expr, tuple] = {}
        self._factored: dict[Expr, tuple] = {}
        self._inverses: dict[Expr, tuple] = {}
        limit = _MAX_DEGREE.get()
        if limit is None:
            self.guard = None
        else:

            def guard(p, _limit=limit):
                if poly.pmax_degree(p) > _limit:
                    raise GuardExceededError(
                        f"expansion exceeded --max-degree {_limit}"
                    )

            self.guard = guard

    @property
    def width(self) -> int:
        return len(self.atoms)

    def intern(self, leaf: Expr) -> int:
        idx = self.index.get(leaf)
        if idx is not None:
            return idx
        idx = len(self.atoms)
        self.atoms.append(leaf)
        self.index[leaf] = idx
        if isinstance(leaf, AlgConst):
            sym = self.ctx.algebraic(leaf.name)
            rhs_num, rhs_den = self.to_rf(sym.rhs)
            if rhs_den != poly.const_poly(1):
                raise ExprError(
                    f"rewrite target of {sym.name} must be polynomial"
                )
            self.algrules[idx] = (sym.power, rhs_num)
        return idx

    def reduce(self, p: poly.Poly) -> poly.Poly:
        """Reduce powers of algebraic symbols modulo their declared relations."""
        return poly.reduce_powers(p, self.algrules, self.guard)

    def pmul(self, a, b):
        return self.reduce(poly.pmul(a, b, self.guard))

    def ppow(self, a, k):
        return self.reduce(poly.ppow(a, k, self.guard))

    def to_rf(self, e: Expr):
        """Convert to a (numerator, denominator) pair of reduced polynomials.

        A constant denominator is 1.  The pair may be shared with earlier
        callers: do not mutate it.  A conversion that raises leaves no entry
        behind.
        """
        hit = self._rf.get(e)
        if hit is None:
            num, den = self._frac(e)
            den = self._expand(den)
            c = poly.as_constant(den)
            if c is not None and c != 1:
                num, den = poly.pscale(num, 1 / c), poly.const_poly(1)
            hit = self._rf[e] = (num, den)
        return hit

    def _frac(self, e: Expr):
        """``(num, den)``: a reduced numerator over a factored denominator."""
        hit = self._factored.get(e)
        if hit is None:
            hit = self._factored[e] = self._convert(e)
        return hit

    def _convert(self, e: Expr):
        if isinstance(e, Rat):
            return poly.const_poly(e.value), {}
        if isinstance(e, (Var, Param, AlgConst)):
            idx = self.intern(e)
            return self.reduce(poly.atom_poly(idx)), {}
        if isinstance(e, Func):
            args = tuple(to_canonical(a, self.ctx, ring=self) for a in e.args)
            idx = self.intern(Func(e.name, e.orders, args))
            return poly.atom_poly(idx), {}
        if isinstance(e, Add):
            groups: dict = {}  # denominator -> (summed numerators, denominator)
            for t in e.terms:
                tn, td = self._frac(t)
                key = frozenset(td.items()) if td else ()
                hit = groups.get(key)
                groups[key] = (tn, td) if hit is None else (poly.padd(hit[0], tn), td)
            parts = [g for g in groups.values() if g[0]]
            if len(parts) <= 1:
                return self._settle(*parts[0]) if parts else ({}, {})
            den = {}
            for _, td in parts:
                for b, k in td.items():
                    if k > den.get(b, 0):
                        den[b] = k
            num = poly.const_poly(0)
            for tn, td in parts:
                lack = {b: k - td.get(b, 0) for b, k in den.items() if k > td.get(b, 0)}
                num = poly.padd(num, self.pmul(tn, self._expand(lack)) if lack else tn)
            return self._settle(num, den)
        if isinstance(e, Mul):
            num, den = poly.const_poly(1), {}
            for f in e.factors:
                fn, fd = self._frac(f)
                num = self.pmul(num, fn)
                den = _add_exponents(den, fd)
            return self._settle(num, den)
        if isinstance(e, Pow):
            k = e.exp
            if k < 0:
                if not self._frac(e.base)[0]:
                    raise ZeroDenominatorError(
                        "negative power of an identically-zero expression"
                    )
                num, den = self._inverse(e.base)
                return self._settle(self.ppow(num, -k), _scale(den, -k))
            bn, bd = self._frac(e.base)
            return self.ppow(bn, k), (_scale(bd, k) if bn else {})
        if isinstance(e, Div):
            nn, nd = self._frac(e.num)
            num, den = self._inverse(e.den)
            if not nn:
                return nn, {}
            return self._settle(self.pmul(nn, num), _add_exponents(nd, den))
        raise TypeError(f"cannot normalize {e!r}")

    def _inverse(self, e: Expr):
        """``(num, den)`` with ``1/e = num / den``, shaped as ``_frac`` but with
        the denominator of ``e`` at negative exponents in ``den``.  Products and
        powers are inverted factor by factor, so ``D^3`` gives the base ``D``."""
        hit = self._inverses.get(e)
        if hit is None:
            hit = self._inverses[e] = self._invert(e)
        return hit

    def _invert(self, e: Expr):
        if isinstance(e, Pow) and e.exp > 0:
            num, den = self._inverse(e.base)
            return self.ppow(num, e.exp), _scale(den, e.exp)
        if isinstance(e, Mul):
            num, den = poly.const_poly(1), {}
            for f in e.factors:
                fn, fd = self._inverse(f)
                num = self.pmul(num, fn)
                den = _add_exponents(den, fd)
            return num, den
        dn, dd = self._frac(e)
        if not dn:
            raise ZeroDenominatorError("division by an identically-zero expression")
        c, split = self._split(dn)
        return poly.const_poly(1 / c), _add_exponents(split, _scale(dd, -1))

    def _settle(self, num, den: dict):
        """``(num, den)`` with the common factors of plain atoms cancelled; a
        zero numerator has the empty denominator.  Atoms with a power
        relation are not plain units, so they are kept.  Negative exponents,
        from ``_inverse``, are multiplied into ``num``."""
        if not num:
            return num, {}
        if up := {b: -k for b, k in den.items() if k < 0}:
            num = self.pmul(num, self._expand(up))
            den = {b: k for b, k in den.items() if k > 0}
        plain = [(b, i) for b in den if (i := self._plain_atoms.get(b)) is not None]
        if not plain:
            return num, den
        have = poly.atom_content(num)
        cut = {b: j for b, i in plain if (j := min(den[b], have.get(i, 0)))}
        if not cut:
            return num, den
        num = poly.divide_atoms(num, {self._plain_atoms[b]: j for b, j in cut.items()})
        return num, {b: k - cut.get(b, 0) for b, k in den.items() if k > cut.get(b, 0)}

    def _split(self, p):
        """``(c, den)`` with ``p = c * prod(bases[b]^k for b, k in den)``
        exactly in Q[atoms], for a nonzero reduced ``p``: its monomial content
        gives atom bases, exact division takes out known bases, and the
        cofactor, if it is not constant, becomes a new base."""
        content = poly.atom_content(p)
        den = {self._base(poly.atom_poly(i), i): k for i, k in content.items()}
        if content:
            p = poly.divide_atoms(p, content)
        c = poly.as_constant(p)
        if c is not None:
            return c, den
        width = self.width
        lead = poly.leading(p, width)[0]
        for b, blead in self._leads.items():
            while poly.mono_divides(blead, lead):
                q = poly.pdiv_exact(p, self.bases[b], width)
                if q is None:
                    break
                p, lead = q, poly.leading(q, width)[0]
                den[b] = den.get(b, 0) + 1
        c = poly.as_constant(p)
        if c is None:
            c, p = poly.primitive(p, width)
            den[self._base(p)] = 1
        return c, den

    def _base(self, p, atom: int | None = None) -> int:
        """The index of the base polynomial ``p``, interned on first use;
        ``atom`` names the atom when ``p`` is one."""
        key = frozenset(p.items())
        b = self._base_ids.get(key)
        if b is None:
            b = self._base_ids[key] = len(self.bases)
            self.bases.append(p)
            if atom is None:
                self._leads[b] = poly.leading(p, self.width)[0]
            elif atom not in self.algrules:
                self._plain_atoms[b] = atom
        return b

    def _power(self, b: int, k: int):
        """``bases[b]^k`` reduced, memoised."""
        if k == 1:
            return self.bases[b]
        hit = self._powers.get((b, k))
        if hit is None:
            hit = self._powers[b, k] = self.pmul(self._power(b, k - 1), self.bases[b])
        return hit

    def _expand(self, den: dict):
        """The reduced product of a factored denominator."""
        out = None
        for b, k in den.items():
            p = self._power(b, k)
            out = p if out is None else self.pmul(out, p)
        return poly.const_poly(1) if out is None else out


def _scale(den: dict, k: int) -> dict:
    """The k-th power of a factored denominator."""
    return {b: j * k for b, j in den.items()} if k else {}


def _add_exponents(a: dict, b: dict) -> dict:
    """The product of two factored denominators, without cancelled bases."""
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    for base, k in b.items():
        out[base] = out.get(base, 0) + k
    return {base: k for base, k in out.items() if k}


# ---------------------------------------------------------------------------
# normal form


def _canonical_pair(num, den, ring: Ring):
    """Order atoms canonically and fully reduce the fraction."""
    keys = ring.sort_keys
    keys.extend(_atom_sort_key(leaf, ring.ctx) for leaf in ring.atoms[len(keys):])
    order = sorted(range(ring.width), key=keys.__getitem__)
    remap = {old: new for new, old in enumerate(order)}
    atoms = [ring.atoms[i] for i in order]
    if not num:
        return {}, poly.const_poly(1), atoms
    num, den = poly.rename(num, remap), poly.rename(den, remap)
    rules = {remap[i]: (d, poly.rename(rhs, remap)) for i, (d, rhs) in ring.algrules.items()}

    # rationalize degree-2 algebraic symbols out of the denominator: with
    # den = a + b*s, multiply through by a - b*s, leaving a^2 - b^2*s^2
    for idx, (d, rhs) in sorted(rules.items()):
        parts = poly.split(den, idx) if d == 2 else {}
        if 1 not in parts:
            continue
        a, b = parts.get(0, {}), parts[1]
        new_den = poly.psub(poly.pmul(a, a), poly.pmul(poly.pmul(b, b), rhs))
        new_den = poly.reduce_powers(new_den, rules)
        if not new_den:
            continue
        conj = poly.psub(a, poly.pmul(b, poly.atom_poly(idx)))
        num = poly.reduce_powers(poly.pmul(num, conj), rules)
        den = new_den
    if not num:
        return {}, poly.const_poly(1), atoms
    return (*poly.cancel(num, den, len(atoms)), atoms)


def _atom_sort_key(leaf: Expr, ctx: Context):
    if isinstance(leaf, Var):
        return (0, ctx.var_index(leaf.name), "")
    if isinstance(leaf, Param):
        return (1, 0, leaf.name)
    if isinstance(leaf, AlgConst):
        return (2, 0, leaf.name)
    if isinstance(leaf, Func):
        return (3, 0, leaf.name, leaf.orders, tuple(render(a) for a in leaf.args))
    raise TypeError(f"not an atom: {leaf!r}")


def _poly_to_expr(p, atoms) -> Expr:
    if not p:
        return ZERO
    width = len(atoms)
    terms = []
    for m in sorted(p, key=lambda m: poly.grlex_key(m, width), reverse=True):
        c = p[m]
        factors = [Rat(c)]
        for idx, exp in m:
            factors.append(pow_(atoms[idx], exp))
        terms.append(mul(*factors))
    return add(*terms)


def _fraction(num, den, atoms) -> Expr:
    """The expression ``num/den`` of a polynomial pair over ``atoms``."""
    num_e = _poly_to_expr(num, atoms)
    if den == poly.const_poly(1):
        return num_e
    return div(num_e, _poly_to_expr(den, atoms))


def _rf(e: Expr, ctx: Context, used=None, ring: Ring | None = None):
    """``(num, den, ring)``: ``e`` rewritten by the assumptions and converted
    in ``ring``, a fresh one by default."""
    rw = rewrite_assumptions(e, ctx, used)
    if ring is None:
        ring = Ring(ctx)
    num, den = ring.to_rf(rw)
    if not den:
        raise ZeroDenominatorError("denominator is identically zero")
    return num, den, ring


def to_canonical(e: Expr, ctx: Context, used=None, ring: Ring | None = None) -> Expr:
    """Canonical form of ``e``; pass ``ring`` to share its ``to_rf`` memo."""
    num, den, ring = _rf(e, ctx, used, ring)
    return _fraction(*_canonical_pair(num, den, ring))


def normalize(e: Expr, ctx: Context) -> Expr:
    """Canonical rational normal form (see module docstring)."""
    return to_canonical(e, ctx)


def side_conditions(used) -> tuple:
    """The rendered side conditions of the assumptions in ``used``, sorted."""
    conds = sorted(render(r.side_condition) for r in used if r.side_condition is not None)
    return tuple(conds)


def normalize_with_side_conditions(e: Expr, ctx: Context, ring: Ring | None = None):
    used: set = set()
    out = to_canonical(e, ctx, used, ring)
    return out, side_conditions(used)


def is_identically_zero(e: Expr, ctx: Context, used=None) -> bool:
    num, _, _ = _rf(e, ctx, used)
    return not num


def equal(e1: Expr, e2: Expr, ctx: Context) -> bool:
    return is_identically_zero(add(e1, neg(e2)), ctx)


def coefficients_in(e: Expr, param: str, ctx: Context) -> list:
    """Coefficients of powers of a formal parameter, constant term first:
    the parts of the normal form's numerator by powers of the parameter,
    each reduced over its denominator, which must not involve the parameter.
    """
    num, den, atoms = _canonical_pair(*_rf(e, ctx))
    if Param(param) not in atoms:
        return [_fraction(num, den, atoms)]
    idx = atoms.index(Param(param))
    if max(poly.split(den, idx)):
        raise ExprError(f"denominator depends on parameter {param!r}")
    parts = poly.split(num, idx)
    return [
        _fraction(*poly.cancel(parts.get(k, {}), den, len(atoms)), atoms)
        for k in range(max(parts, default=0) + 1)
    ]


# ---------------------------------------------------------------------------
# exact evaluation and randomized zero testing


def _constant(c) -> dict:
    if c is None:  # a rational with no image mod p
        raise PoleError("denominator is 0 mod p; resample")
    return {poly.ONE_M: c} if c else {}


def _ext_rules(ctx: Context, env, field) -> dict:
    """The relations of the algebraic symbols at the sample point ``env``:
    the i-th symbol of ``ctx`` is atom i of the extension ring's
    polynomials, and its right-hand side, which names no algebraic symbol
    and no jet, is a constant."""
    dim = 1
    for a in ctx.algebraics:
        dim *= a.power
    if dim > 256:
        raise ExprError("algebraic extension too large for evaluation")
    value = _eval_ext(env, {}, {}, ctx, field)
    return {i: (a.power, value(a.rhs)) for i, a in enumerate(ctx.algebraics)}


def _eval_ext(env, rules: dict, jets, ctx: Context, field):
    """The numeric walker at the sample point ``env``: ``go(e)`` is the value
    of ``e``, a polynomial over the algebraic symbols reduced by their
    relations ``rules`` (see ``_ext_rules``), with coefficients in
    ``field``: ``poly.QQ`` for ``evaluate_at``, a ``poly.Residues`` for
    ``SamplePoints``.  Each step maps to F_p as it does to Q, so the F_p
    value is the exact value with every coefficient taken mod p.  A value
    that has no inverse, or a rational whose denominator is 0 mod p, is a
    pole (``PoleError``).

    ``env`` maps each variable and parameter name, and ``jets`` each jet
    with canonical arguments, to a constant polynomial; either may draw a
    value the first time it is read (see ``SamplePoints``).  Opaque
    functions are not instantiated here: callers instantiate ``e`` first.
    The walker keeps the value of every node it evaluated, so a jet and its
    canonical key are worked out once per point and a shared subtree is
    evaluated once; in numeric mode each point of one report's
    ``SamplePoints`` keeps one walker for every residual of that report.
    Values are never mutated once computed.  Two constants, the only values
    in a context with no algebraic symbol, multiply as coefficients.
    """
    of, times, reduced = field.of, field.times, field.reduced
    one = _constant(field.one)

    def product(a, b):
        if not a or not b:
            return {}
        if len(a) == len(b) == 1 and poly.ONE_M in a and poly.ONE_M in b:
            return {poly.ONE_M: times(a[poly.ONE_M], b[poly.ONE_M])}
        return reduced(poly.reduce_powers(poly.pmul(a, b), rules))

    def inverse(a):
        out = poly.pinv(a, rules, field)
        if out is None:
            raise PoleError("non-invertible value during evaluation; resample")
        return out

    def visit(x, go):
        if isinstance(x, Rat):
            return _constant(of(x.value))
        if isinstance(x, (Var, Param)):
            try:
                return env[x.name]
            except KeyError:
                raise ExprError(f"no value supplied for {x.name!r}") from None
        if isinstance(x, AlgConst):
            return poly.atom_poly(ctx._alg_index[x.name], 1, field.one)
        if isinstance(x, Func):
            key = Func(x.name, x.orders, tuple(to_canonical(a, ctx) for a in x.args))
            try:
                return jets[key]
            except KeyError:
                raise ExprError(f"no sample value for jet {render(x)}") from None
        if isinstance(x, Add):
            total: dict = {}
            for t in x.terms:
                for m, c in go(t).items():
                    total[m] = total.get(m, 0) + c
            return reduced(total)
        if isinstance(x, Mul):
            return reduce(product, map(go, x.factors), one)
        if isinstance(x, Pow):
            b = go(x.base)
            if x.exp < 0:
                b = inverse(b)
            return reduced(poly.reduce_powers(poly.ppow(b, abs(x.exp)), rules))
        if isinstance(x, Div):
            return product(go(x.num), inverse(go(x.den)))
        raise TypeError(f"cannot evaluate {x!r}")

    return _walk(visit)


def evaluate_at(e: Expr, point: dict, inst: dict | None, ctx: Context) -> Fraction:
    """Exact rational value of ``e`` at a sample point.

    ``point`` assigns Fractions to variables and parameters.  The context's
    assumptions are applied first, and then ``inst``, which supplies concrete
    expressions for opaque functions (jets are differentiated from the
    instantiation); a jet left over has no value.  The value is computed
    over Q, with no reduction mod a prime.  Raises :class:`PoleError` when a
    denominator hits 0.
    """
    rw = instantiate(rewrite_assumptions(e, ctx), inst, ctx)
    env = {k: poly.const_poly(v) for k, v in point.items()}
    out = _eval_ext(env, _ext_rules(ctx, env, poly.QQ), {}, ctx, poly.QQ)(rw)
    if not out:
        return Fraction(0)
    value = poly.as_constant(out)
    if value is not None:
        return value
    raise NotRationalError(
        "value involves algebraic constants and is not rational"
    )


class _Draws(dict):
    """Constant polynomials drawn from ``rng`` the first time a key is read,
    each a uniform element of F_p."""

    def __init__(self, rng: random.Random, p: int):
        super().__init__()
        self._rng = rng
        self._p = p

    def __missing__(self, key):
        value = self[key] = _constant(self._rng.randrange(self._p))
        return value


class SamplePoints:
    """The sample points that the residuals of one report share.

    The set draws a 61-bit prime p from its seed, and every value it draws
    at its points is a uniform element of F_p.  A residual that is not
    zero, with numerator N over the integers, vanishes at a point only if p
    divides every coefficient of N, as at most log2(max coefficient)/60 of
    the about 2^54.6 primes of 61 bits do, or if the point is a root of N
    mod p, which has probability at most deg(N)/p (Schwartz, 1980; Zippel,
    1979).  The prime is drawn, not fixed, so that no literal is known in
    advance to vanish or to have no inverse mod p.  Point k holds the
    values of the variables and parameters (``env``), the relations of the
    algebraic symbols at those values (``rules``), the values of the opaque
    jets and one ``_eval_ext`` walker over them.  A value is drawn the first time an evaluation asks
    for it, from a generator of the point's own, so that a residual reads
    the values an earlier residual drew and the values its walker keeps.
    The names in the relations' right-hand sides are drawn when the point is
    made; a point at which a relation has a pole is ``None`` and unusable.
    No value is carried from one point to the next.

    Residuals are instantiated before they are evaluated, so one set serves
    residuals under any instantiation.
    """

    def __init__(self, ctx: Context, seed: int = 0):
        self.ctx = ctx
        self.seed = seed
        self._rng = random.Random(seed)
        self.field = poly.Residues(poly.draw_prime(self._rng))
        self._points: list = []

    def __len__(self) -> int:
        return len(self._points)

    def __getitem__(self, k: int):
        """The ``_eval_ext`` walker of point k, or None if it is unusable."""
        while len(self._points) <= k:
            rng = random.Random(self._rng.getrandbits(64))
            env = _Draws(rng, self.field.p)
            try:
                rules = _ext_rules(self.ctx, env, self.field)
            except PoleError:
                self._points.append(None)
                continue
            self._points.append(_eval_ext(env, rules, _Draws(rng, self.field.p), self.ctx, self.field))
        return self._points[k]


def probabilistic_zero_test(
    e: Expr,
    ctx: Context,
    trials: int = 12,
    seed: int = 0,
    inst: dict | None = None,
    used=None,
    points: SamplePoints | None = None,
) -> bool:
    """Deterministic randomized zero test at sample points in F_p, for the
    prime of ``points`` (see ``SamplePoints``).

    The context's assumptions are applied to ``e`` first, and then ``inst``
    (concrete expressions for opaque functions); the assumptions that
    rewrote ``e`` are added to ``used``.  Opaque jets left over are treated
    as independent indeterminates, matching the exact semantics.  Each trial
    takes the next usable point of ``points`` at which ``e`` has no pole,
    trying at most 40; ``points`` defaults to a private set, and a shared
    one must have been made for the same ``ctx`` and ``seed``.
    """
    if points is None:
        points = SamplePoints(ctx, seed)
    elif points.ctx is not ctx or points.seed != seed:
        raise ValueError("sample points were drawn for another context or seed")
    rw = instantiate(rewrite_assumptions(e, ctx, used), inst, ctx)
    k = 0
    for _ in range(max(1, trials)):
        for _attempt in range(40):
            value_at = points[k]
            k += 1
            if value_at is None:
                continue
            try:
                value = value_at(rw)
            except PoleError:
                continue
            if value:
                return False
            break
        else:
            raise SampleBudgetError("all sample points hit poles")
    return True


# ---------------------------------------------------------------------------
# zero-decision strategy (exact by default, numeric with --numeric-only)

_ZERO_MODE: ContextVar = ContextVar("hamops_zero_mode", default=None)


@contextmanager
def numeric_zero_mode(seed: int = 0, trials: int = 12):
    token = _ZERO_MODE.set((seed, trials))
    try:
        yield
    finally:
        _ZERO_MODE.reset(token)


def zero_mode():
    """``(seed, trials)`` of the active numeric mode, or None in exact mode."""
    return _ZERO_MODE.get()
