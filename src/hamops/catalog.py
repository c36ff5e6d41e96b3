"""Built-in, machine-verified library of operators, pairs, Lie structures,
Casimir fixtures and the quasilinear-system data used across the suite.

Every entry is declared once, by its registration: the id, kind, title,
notes and the verdicts its checks are expected to reproduce.  The function
under a registration only builds the entry's objects, and ``load`` defers
that until the payload is read, so listing and showing entries build
nothing.  ``verify`` re-runs the checks and compares.  Deliberately broken
pairs are part of the catalog: their expected verdict is failure with a
recorded witness family.

Corrections to a handful of closed forms that fail exact verification are
listed in DISCREPANCIES.md at the repository root; the catalog always stores
the verified version and, where useful, keeps the quoted variant as an
explicit negative fixture.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable

from . import expr as E
from .expr import (
    AlgebraicSymbol,
    Assumption,
    Context,
    OpaqueFunction,
    Var,
    parse,
)
from .operators import (
    NonHomogeneousOperator,
    adjugate,
    append_product,
    derivative,
    determinant,
    entrywise,
    matmul,
    operator,
    operator_to_document,
    pair_to_document,
    tensor,
)
from .hamiltonian import is_hamiltonian
from .compatibility import (
    Pair2Params,
    build_pair_2comp,
    check_pair,
    darboux_2comp,
    darboux_3comp,
    mokhov_operator,
    ultralocal_3comp,
)
from .casimir import CasimirCandidate, is_casimir
from .geometry import (
    LieStructure,
    affinor_from_lie,
    check_nijnonhom_conditions,
    lie_to_document,
    torsion_vanishes,
)
from .reports import CheckReport, Condition


@dataclass
class CatalogEntry:
    """An entry as registered.  ``payload`` holds the objects the checks run
    on and is built from ``build`` when first read."""

    entry_id: str
    kind: str  # operator | pair | lie-structure | casimir-fixture
    title: str
    expected: dict
    build: Callable[[], dict] = field(repr=False)
    notes: str = ""

    @cached_property
    def payload(self) -> dict:
        return self.build()

    def run_checks(self) -> dict:
        return _CHECKS[self.kind](self.payload)


class UnknownEntryError(KeyError):
    pass


_ENTRIES: dict[str, CatalogEntry] = {}


def _register(entry_id, kind, title, expected, notes="", wrap=lambda built: built):
    """Decorator declaring entry ``entry_id``; the decorated function builds
    its objects, and ``wrap`` turns them into the payload."""

    def decorate(build):
        _ENTRIES[entry_id] = CatalogEntry(
            entry_id, kind, title, expected, lambda: wrap(build()), notes
        )
        return build

    return decorate


def list_entries():
    return [(e.entry_id, e.kind, e.title) for _, e in sorted(_ENTRIES.items())]


def load(entry_id: str) -> CatalogEntry:
    """A fresh copy of the registered entry; its payload is built when first read."""
    try:
        entry = _ENTRIES[entry_id]
    except KeyError:
        raise UnknownEntryError(f"unknown catalog id {entry_id!r}") from None
    return replace(entry)


def verify(entry_id: str) -> CheckReport:
    """Re-run an entry's checks and compare with its recorded verdicts."""
    entry = load(entry_id)
    observed = entry.run_checks()
    conditions = []
    for name, expected in sorted(entry.expected.items()):
        obs = observed.get(name)
        ok = obs == expected
        conditions.append(
            Condition(
                f"expected:{name}={'pass' if expected else 'fail'}",
                (),
                "0" if ok else "1",
                ok,
            )
        )
    return CheckReport(conditions)


def export(entry_id: str) -> dict:
    entry = load(entry_id)
    if entry.kind == "operator":
        return operator_to_document(entry.payload["operator"])
    if entry.kind == "pair":
        return pair_to_document(entry.payload["A"], entry.payload["B"])
    if entry.kind == "casimir-fixture":
        return {
            "operator": entry.payload["operator_ref"],
            "density": entry.payload["density"],
            "expect": entry.payload["expect"],
        }
    payload = entry.payload
    return lie_to_document(payload["lie"], payload.get("eta"), payload.get("ctx"))


# ---------------------------------------------------------------------------
# one registration helper per kind


def _operator(entry_id, title, profile=None, notes=""):
    """An operator, expected to be Hamiltonian; so is its instantiation by
    the numeric ``profile`` (function name -> expression) when one is given."""
    expected = {"hamiltonian": True}
    extra = {}
    if profile:
        expected["numeric-profile"] = True
        extra["numeric_profile"] = profile
    return _register(entry_id, "operator", title, expected, notes, lambda op: {"operator": op, **extra})


def _pair(entry_id, title, compatible=True, notes=""):
    """A pair ``(A, B)`` of Hamiltonian operators on which the tensor route
    and the pencil oracle agree that the pair is ``compatible`` or not."""
    expected = {
        "hamiltonian-A": True,
        "hamiltonian-B": True,
        "tensor-compatible": compatible,
        "pencil-oracle": compatible,
        "oracle-agreement": True,
    }
    return _register(entry_id, "pair", title, expected, notes, lambda AB: {"A": AB[0], "B": AB[1]})


def _lie(entry_id, title, expected, notes=""):
    """A Lie structure; the decorated function returns ``{"lie": s}``, plus
    ``"eta"`` and its ``"ctx"`` when the entry carries a metric."""
    return _register(entry_id, "lie-structure", title, expected, notes)


def _casimir(entry_id, title, density, expect, base, inst=None, fns=(), params=(), czero=False, notes=""):
    """A Casimir fixture: ``density`` passes the columns of ``expect`` marked
    true and fails the others.  Its operator is that of operator entry
    ``base`` (or what the function ``base`` builds), instantiated by ``inst``,
    over a context extended by the functions ``fns`` and parameters
    ``params``, with ``c = 0`` substituted when ``czero``.  Its export names
    the fixture itself, ``catalog:<entry_id>``, which carries all of that."""

    def build():
        op = _ENTRIES[base].build()["operator"] if isinstance(base, str) else base()
        if inst:
            op = _instantiated(op, inst)
        op = _with_functions(op, *fns, params=params)
        if czero:
            op = _substituted(op, {"c": E.ZERO})
        return op

    payload = lambda op: {
        "operator": op,
        "density": density,
        "expect": expect,
        "operator_ref": f"catalog:{entry_id}",
    }
    _register(entry_id, "casimir-fixture", title, dict(expect), notes, payload)(build)


# ---------------------------------------------------------------------------
# check runners


def _instantiated(op: NonHomogeneousOperator, inst: dict) -> NonHomogeneousOperator:
    bare = replace(op.ctx, assumptions=())
    parsed = {name: parse(text, bare) for name, text in inst.items()}
    sub = lambda x: E.instantiate(x, parsed, bare)
    return operator(bare, *(entrywise(sub, T) for T in (op.g, op.b, op.omega)))


def _with_functions(op: NonHomogeneousOperator, *fns: OpaqueFunction, params=()):
    """Clone an operator over a context extended with density helper symbols."""
    ctx = op.ctx
    new = replace(ctx, parameters=ctx.parameters + tuple(params), functions=ctx.functions + tuple(fns))
    return operator(new, op.g, op.b, op.omega)


def _substituted(op: NonHomogeneousOperator, mapping) -> NonHomogeneousOperator:
    sub = lambda x: E.substitute(x, mapping)
    return operator(op.ctx, *(entrywise(sub, T) for T in (op.g, op.b, op.omega)))


def _run_operator_checks(payload) -> dict:
    op = payload["operator"]
    out = {"hamiltonian": is_hamiltonian(op).verdict}
    inst = payload.get("numeric_profile")
    if inst:
        numeric = _instantiated(op, inst)
        with E.numeric_zero_mode(seed=7, trials=6):
            out["numeric-profile"] = is_hamiltonian(numeric).verdict
    return out


def _run_pair_checks(payload) -> dict:
    pair = check_pair(payload["A"], payload["B"])
    return {
        "hamiltonian-A": pair.hamiltonian_A.verdict,
        "hamiltonian-B": pair.hamiltonian_B.verdict,
        "tensor-compatible": pair.tensor.verdict,
        "pencil-oracle": pair.oracle.verdict,
        "oracle-agreement": pair.tensor.verdict == pair.oracle.verdict,
    }


def _run_lie_checks(payload) -> dict:
    s = payload["lie"]
    out = {"torsion-conditions": check_nijnonhom_conditions(s).verdict}
    if "eta" in payload:
        ctx = payload["ctx"]
        L = affinor_from_lie(s, payload["eta"], ctx)
        out["torsion-vanishes"] = torsion_vanishes(L, ctx)
    return out


def _run_casimir_checks(payload) -> dict:
    op = payload["operator"]
    F = CasimirCandidate(op.ctx, parse(payload["density"], op.ctx))
    return {
        column: is_casimir(op, F, column) for column in payload["expect"]
    }


_CHECKS = {
    "operator": _run_operator_checks,
    "pair": _run_pair_checks,
    "lie-structure": _run_lie_checks,
    "casimir-fixture": _run_casimir_checks,
}


# ---------------------------------------------------------------------------
# shared contexts and small helpers


def _ctx(variables, parameters=(), algebraics=(), functions=(), assumptions=()):
    return Context(tuple(variables), tuple(parameters), tuple(algebraics), tuple(functions), tuple(assumptions))


def _mat(ctx, rows):
    return entrywise(lambda x: parse(x, ctx) if isinstance(x, str) else E.rat(x), rows)


def _sqrt2():
    return AlgebraicSymbol("sqrt2", 2, E.rat(2))


def _sqrt_w():
    return AlgebraicSymbol("s", 2, Var("w"))


def _sqrt_1ww():
    return AlgebraicSymbol("t", 2, parse("1 + w^2", Context(("u", "v", "w"))))


def _b_entries(ctx, entries):
    parsed = {idx: parse(text, ctx) for idx, text in entries.items()}
    return tensor(len(ctx.variables), 3, lambda *idx: parsed.get(idx, E.ZERO))


def _skew(ctx, w12="0", w13=None, w23=None):
    if w13 is None:
        w12e = parse(w12, ctx)
        return ((E.ZERO, w12e), (E.neg(w12e), E.ZERO))
    a, b, c = parse(w12, ctx), parse(w13, ctx), parse(w23, ctx)
    return (
        (E.ZERO, a, b),
        (E.neg(a), E.ZERO, c),
        (E.neg(b), E.neg(c), E.ZERO),
    )


def _jacob1_context(extra_params=(), extra_functions=()):
    fns = (
        OpaqueFunction("f", ("v", "w")),
        OpaqueFunction("g0", ("v", "w")),
        OpaqueFunction("h", ("v", "w")),
    ) + tuple(extra_functions)
    base = _ctx(("u", "v", "w"), extra_params, (), fns)
    rhs = parse("(h(v,w)*D(f,v) - g0(v,w)*D(h,w) + h(v,w)*D(g0,w))/f(v,w)", base)
    side = parse("f(v,w)", base)
    return _ctx(
        ("u", "v", "w"),
        extra_params,
        (),
        fns,
        (Assumption("h", (1, 0), rhs, side),),
    )


# ---------------------------------------------------------------------------
# two-component degenerate operators


@_operator(
    "C_2_1",
    "two-component degenerate operator, constant leading block, f(v) ultralocal entry",
    profile={"f": "1 + v^2"},
)
def _c21():
    ctx = _ctx(("u", "v"), functions=(OpaqueFunction("f", ("v",)),))
    return operator(ctx, g=_mat(ctx, [["1", "0"], ["0", "0"]]), omega=_skew(ctx, "f(v)"))


@_operator(
    "C_2_2",
    "two-component degenerate operator with 1/u connection terms",
    profile={"f": "v^3 - 2"},
)
def _c22():
    ctx = _ctx(("u", "v"), functions=(OpaqueFunction("f", ("v",)),))
    b = _b_entries(ctx, {(0, 1, 1): "-1/u", (1, 0, 1): "1/u"})
    return operator(ctx, g=_mat(ctx, [["1", "0"], ["0", "0"]]), b=b, omega=_skew(ctx, "f(v)/u"))


# ---------------------------------------------------------------------------
# three-component degenerate operators


@_operator(
    "C_3_1",
    "three-component operator with zero leading coefficient",
    profile={"f": "u*v + w^2"},
)
def _c31():
    ctx = _ctx(("u", "v", "w"), functions=(OpaqueFunction("f", ("u", "v", "w")),))
    b = _b_entries(ctx, {(0, 1, 2): "1", (1, 0, 2): "-1"})
    return operator(ctx, b=b, omega=_skew(ctx, "f(u,v,w)", "0", "0"))


@_operator(
    "C_3_2",
    "rank-one leading block with a full (v,w)-dependent ultralocal block under the closure relation",
    profile={"f": "2*v", "g0": "-2*w", "h": "5"},
)
def _c32():
    ctx = _jacob1_context()
    return operator(
        ctx,
        g=_mat(ctx, [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]),
        omega=_skew(ctx, "f(v,w)", "g0(v,w)", "h(v,w)"),
    )


@_operator(
    "C_3_3",
    "rank-one leading block with a single derivative coupling",
    profile={"f": "v^2 + w"},
)
def _c33():
    ctx = _ctx(("u", "v", "w"), functions=(OpaqueFunction("f", ("v", "w")),))
    b = _b_entries(ctx, {(0, 1, 2): "1", (1, 0, 2): "-1"})
    return operator(
        ctx,
        g=_mat(ctx, [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]),
        b=b,
        omega=_skew(ctx, "f(v,w)", "0", "0"),
    )


@_operator(
    "C_3_4",
    "rank-one leading block with 1/u connection and ultralocal entries",
    profile={"f": "v*w"},
)
def _c34():
    ctx = _ctx(("u", "v", "w"), functions=(OpaqueFunction("f", ("v", "w")),))
    b = _b_entries(ctx, {(0, 2, 2): "-1/u", (2, 0, 2): "1/u"})
    return operator(
        ctx,
        g=_mat(ctx, [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]),
        b=b,
        omega=_skew(ctx, "0", "f(v,w)/u", "0"),
    )


@_operator(
    "C_3_5",
    "1/u-scaled variant of the closure-constrained three-component operator",
    profile={"f": "2*v", "g0": "-2*w", "h": "5"},
)
def _c35():
    ctx = _jacob1_context()
    b = _b_entries(ctx, {(0, 1, 1): "-1/u", (0, 2, 2): "-1/u", (1, 0, 1): "1/u", (2, 0, 2): "1/u"})
    return operator(
        ctx,
        g=_mat(ctx, [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]),
        b=b,
        omega=_skew(ctx, "f(v,w)/u", "g0(v,w)/u", "h(v,w)/u"),
    )


@_operator(
    "C_3_6",
    "rank-two constant leading block with proportional ultralocal entries",
    profile={"f": "3*w^2", "g0": "1 + w"},
)
def _c36():
    ctx = _ctx(
        ("u", "v", "w"),
        parameters=("c",),
        functions=(OpaqueFunction("f", ("w",)), OpaqueFunction("g0", ("w",))),
    )
    return operator(
        ctx,
        g=_mat(ctx, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]]),
        omega=_skew(ctx, "f(w)", "g0(w)", "c*g0(w)"),
    )


@_operator(
    "C_3_7",
    "rank-two leading block with 1/v connection terms",
    profile={"f": "w^3"},
)
def _c37():
    ctx = _ctx(("u", "v", "w"), parameters=("c",), functions=(OpaqueFunction("f", ("w",)),))
    b = _b_entries(ctx, {(1, 2, 2): "-1/v", (2, 1, 2): "1/v"})
    return operator(
        ctx,
        g=_mat(ctx, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]]),
        b=b,
        omega=_skew(ctx, "0", "c*f(w)", "(1 - c*u)*f(w)/v"),
    )


@_operator(
    "C_3_8",
    "rank-two leading block with sqrt(1+w^2) in the ultralocal entries",
    profile={"f": "w - 2"},
)
def _c38():
    ctx = _ctx(
        ("u", "v", "w"),
        parameters=("c",),
        algebraics=(_sqrt_1ww(),),
        functions=(OpaqueFunction("f", ("w",)),),
    )
    b = _b_entries(
        ctx,
        {
            (0, 2, 2): "-w/(u*w - v)",
            (1, 2, 2): "1/(u*w - v)",
            (2, 0, 2): "w/(u*w - v)",
            (2, 1, 2): "-1/(u*w - v)",
        },
    )
    return operator(
        ctx,
        g=_mat(ctx, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]]),
        b=b,
        omega=_skew(
            ctx,
            "f(w)",
            "(1 + w^2)*f(w)*(w - c*v*t)/(u*w - v)",
            "-(1 + w^2)*f(w)*(1 - c*u*t)/(u*w - v)",
        ),
    )


@_operator(
    "C_3_9",
    "off-diagonal constant leading block with proportional ultralocal entries",
    profile={"f": "w^2", "g0": "w"},
)
def _c39():
    ctx = _ctx(
        ("u", "v", "w"),
        parameters=("c",),
        functions=(OpaqueFunction("f", ("w",)), OpaqueFunction("g0", ("w",))),
    )
    return operator(
        ctx,
        g=_mat(ctx, [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "0"]]),
        omega=_skew(ctx, "f(w)", "c*g0(w)", "g0(w)"),
    )


@_operator(
    "C_3_10",
    "off-diagonal leading block; the ultralocal functions satisfy a first-order closure relation",
    profile={"f": "2*w", "g0": "1", "h": "-w^2"},
)
def _c310():
    fns = (
        OpaqueFunction("f", ("w",)),
        OpaqueFunction("g0", ("w",)),
        OpaqueFunction("h", ("w",)),
    )
    base = _ctx(("u", "v", "w"), (), (), fns)
    rhs = parse("(h(w)*D(g0,w) - f(w)*g0(w))/g0(w)", base)
    ctx = _ctx(
        ("u", "v", "w"),
        (),
        (),
        fns,
        (Assumption("h", (1,), rhs, parse("g0(w)", base)),),
    )
    b = _b_entries(ctx, {(0, 2, 2): "-1/v", (2, 0, 2): "1/v"})
    return operator(
        ctx,
        g=_mat(ctx, [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "0"]]),
        b=b,
        omega=_skew(ctx, "f(w)", "(h(w) - u*g0(w))/v", "g0(w)"),
    )


@_operator(
    "C_3_11",
    "off-diagonal leading block with sqrt(w) in the ultralocal entries",
    profile={"f": "1 + w"},
)
def _c311():
    ctx = _ctx(
        ("u", "v", "w"),
        parameters=("c",),
        algebraics=(_sqrt_w(),),
        functions=(OpaqueFunction("f", ("w",)),),
    )
    b = _b_entries(
        ctx,
        {
            (0, 2, 2): "1/(u*w - v)",
            (1, 2, 2): "-w/(u*w - v)",
            (2, 0, 2): "-1/(u*w - v)",
            (2, 1, 2): "w/(u*w - v)",
        },
    )
    return operator(
        ctx,
        g=_mat(ctx, [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "0"]]),
        b=b,
        omega=_skew(
            ctx,
            "f(w)*c/s",
            "f(w)*(u*w - 2*c*s)/(u*w - v)",
            "-f(w)*w*(v - 2*c*s)/(u*w - v)",
        ),
    )


# ---------------------------------------------------------------------------
# named example operators


@_operator("sinh_gordon", "two-component quasilinear light-cone system operator")
def _sinh_gordon():
    ctx = _ctx(("u", "v"))
    return operator(
        ctx,
        g=_mat(ctx, [["0", "0"], ["0", "1"]]),
        omega=_skew(ctx, "u/2"),
    )


def _gkdv_operator(npow: int):
    ctx = _ctx(("u", "v", "w"))
    coeff = 3 * (npow + 1)
    w23 = f"-{coeff}*u^{npow - 1}" if npow > 1 else f"-{coeff}"
    return operator(
        ctx,
        g=_mat(ctx, [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "1"]]),
        omega=_skew(ctx, "1", "0", w23),
    )


_GKDV_NOTES = "the verified full-operator Casimir density is c1*(w - 3*(n+1)*u^n/n) + c2"
_operator("gkdv(1)", "inverted generalized KdV operator, power 1", notes=_GKDV_NOTES)(partial(_gkdv_operator, 1))
_operator("gkdv(2)", "inverted generalized KdV operator, power 2", notes=_GKDV_NOTES)(partial(_gkdv_operator, 2))
_operator("gkdv(3)", "inverted generalized KdV operator, power 3", notes=_GKDV_NOTES)(partial(_gkdv_operator, 3))


def kdv_context() -> Context:
    return _ctx(("u", "v", "w"), algebraics=(_sqrt2(),))


@_operator("kdv_A", "first structure of the inverted KdV system (non-degenerate)")
def kdv_A(ctx: Context | None = None) -> NonHomogeneousOperator:
    ctx = ctx or kdv_context()
    return operator(
        ctx,
        g=_mat(ctx, [["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "-1"]]),
        omega=_skew(ctx, "-2*w", "2*v", "2*u"),
    )


@_operator("kdv_B", "second structure of the inverted KdV system (leading coefficient of rank 2)")
def kdv_B(ctx: Context | None = None) -> NonHomogeneousOperator:
    ctx = ctx or kdv_context()
    return operator(
        ctx,
        g=_mat(ctx, [["1/2", "0", "1/2"], ["0", "0", "0"], ["1/2", "0", "1/2"]]),
        omega=_skew(ctx, "u - w + 1/sqrt2", "0", "w - u + 1/sqrt2"),
    )


NIL6_PARAMS = ("al", "be", "ga", "de", "ep", "la0", "mu0")


def nil6_metric(ctx: Context):
    P = lambda s: parse(s, ctx)
    Z = E.ZERO
    g = [[Z] * 6 for _ in range(6)]
    al = P("al")
    g[0][3] = g[3][0] = al
    g[1][5] = g[5][1] = al
    g[2][4] = g[4][2] = E.neg(al)
    g[3][3] = P("be")
    g[3][4] = g[4][3] = P("ga")
    g[3][5] = g[5][3] = P("de")
    g[4][4] = P("la0")
    g[4][5] = g[5][4] = P("ep")
    g[5][5] = P("mu0")
    return tuple(tuple(r) for r in g)


@_operator("nilpotent6_op", "six-component constant-form operator built on a 2-step nilpotent bracket")
def _nil6_op():
    ctx = _ctx(tuple(f"u{i+1}" for i in range(6)), parameters=NIL6_PARAMS)
    P = lambda s: parse(s, ctx)
    Z = E.ZERO
    om = [[Z] * 6 for _ in range(6)]
    om[3][4], om[4][3] = P("u2"), P("-u2")
    om[3][5], om[5][3] = P("u3"), P("-u3")
    om[4][5], om[5][4] = P("u1"), P("-u1")
    return operator(ctx, g=nil6_metric(ctx), omega=om)


# ---------------------------------------------------------------------------
# pairs


@_pair("kdv_pair", "bi-Hamiltonian pair of the inverted KdV system")
def _kdv_pair():
    ctx = kdv_context()
    return kdv_A(ctx), kdv_B(ctx)


@_pair("kdv_self", "first KdV structure paired with itself (non-degenerate on both sides)")
def _kdv_self():
    ctx = kdv_context()
    return kdv_A(ctx), kdv_A(ctx)


_pair("pair_b1", "two-component linear family instance")(partial(
    build_pair_2comp,
    "B1",
    Pair2Params(a=1, b=-1, c=Fraction(2), k1=Fraction(3), k2=Fraction(-1), k3=Fraction(5)),
))
_pair("pair_laplace", "two-component harmonic-potential family instance")(partial(
    build_pair_2comp,
    "B2-laplace",
    Pair2Params(a=1, b=1, c=Fraction(1), xi1=(0, 0, 1), xi2=(0, 1)),
))
_pair("pair_wave", "two-component wave-potential family instance")(partial(
    build_pair_2comp,
    "B2-wave",
    Pair2Params(a=1, b=-1, c=Fraction(1), xi1=(0, 0, 0, 1), xi2=(2, 3)),
))
_pair("pair_case2ii", "two-component null-profile family, first branch")(partial(
    build_pair_2comp,
    "B2-case2ii",
    Pair2Params(a=1, b=-1, c=Fraction(1), xi1=(0, 0, 1), xi2=(1, 2), xi3=(0, 3, 1)),
))
_pair("pair_case2iii", "two-component null-profile family, second branch")(partial(
    build_pair_2comp,
    "B2-case2iii",
    Pair2Params(a=1, b=-1, c=Fraction(1), xi1=(0, 0, 1), xi2=(1, 2), xi3=(0, 3, 1)),
))


@_pair("strong_2comp", "two-component pair of constant operators (strong two-parameter family)")
def _strong_2comp():
    ctx = _ctx(("u", "v"), parameters=("k1", "k2", "k3", "k4", "cc"))
    P = lambda s: parse(s, ctx)
    A = darboux_2comp(ctx, 1, -1, P("cc"))
    B = operator(
        ctx,
        g=_mat(ctx, [["k1", "k2"], ["k2", "k3"]]),
        omega=_skew(ctx, "k4"),
    )
    return A, B


@_pair("strong_3comp", "three-component pair of constant operators (strong two-parameter family)")
def _strong_3comp():
    ctx = _ctx(
        ("u", "v", "w"),
        parameters=("c1", "c2", "c3", "k1", "k2", "k3", "k4", "k5", "k6", "k7", "k8", "k9"),
    )
    A = operator(
        ctx,
        g=_mat(ctx, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "-1"]]),
        omega=_skew(ctx, "c1", "c2", "c3"),
    )
    B = operator(
        ctx,
        g=_mat(ctx, [["k1", "k2", "k3"], ["k2", "k4", "k5"], ["k3", "k5", "k6"]]),
        omega=_skew(ctx, "k7", "k8", "k9"),
    )
    return A, B


@_pair(
    "lemma3_pair",
    "three-component pair closed by the derived ultralocal entries, free constants kept symbolic",
    notes="with the stated constant relations this pair specializes to the KdV pair exactly",
)
def _lemma3_pair():
    params = ("m1", "m2", "m4", "c2", "c3", "c4", "k1", "k2", "k3")
    ctx = _ctx(("u", "v", "w"), parameters=params, algebraics=(_sqrt2(),))
    P = lambda s: parse(s, ctx)
    m3 = P("1/2*(k3 - 1/4*c4 - c2*m1 + c3*m2) - sqrt2/4")
    m5 = P("1/2*(k2 + c2*m4 + c4*m2)")
    m6 = P("-1/2*(c2/4 + k1 + c4*(1/2 - m1) - c3*m4) + sqrt2/4")
    h1 = P("1/4*u + (m1 - 1/2)*w + m2*v") + m3
    h2 = P("m2*u - m4*w") + m5
    h3 = P("-1/4*w + m1*u + m4*v") + m6
    a, b, c = 1, -1, -1
    first = mokhov_operator(ctx, (E.rat(a), E.rat(b), E.rat(c)), [h1, h2, h3])
    om = ultralocal_3comp(
        ctx, [h1, h2, h3], a, b, c, P("-2"), P("c2"), P("c3"), P("c4"), 0, P("k1"), P("k2"), P("k3")
    )
    A = darboux_3comp(ctx, a, b, c, P("-2"), P("c2"), P("c3"), P("c4"))
    return A, operator(ctx, first.g, first.b, om)


@_pair(
    "flat_pair_P",
    "non-degenerate flat pair whose interaction obstruction does not vanish",
    compatible=False,
)
def _flat_pair_p():
    ctx = _ctx(("u", "v"))
    A = operator(
        ctx,
        g=_mat(ctx, [["1", "0"], ["0", "1"]]),
        omega=_skew(ctx, "1"),
    )
    b = _b_entries(ctx, {(0, 0, 0): "1/2", (1, 1, 1): "1/2"})
    return A, operator(ctx, g=_mat(ctx, [["u", "0"], ["0", "v"]]), b=b)


@_pair(
    "broken_L",
    "perturbed pair failing with an ultralocal Schouten-bracket witness",
    compatible=False,
    notes="expected witness family: schouten-L",
)
def _broken_l():
    ctx = kdv_context()
    return kdv_A(ctx), operator(ctx, omega=_skew(ctx, "u", "0", "0"))


@_pair(
    "broken_P_trace",
    "harmonic-potential pair with the trace term dropped from the ultralocal entry",
    compatible=False,
    notes="expected witness family: pencil-P",
)
def _broken_p_trace():
    ctx = _ctx(("u", "v"), algebraics=(AlgebraicSymbol("i", 2, E.rat(-1)),))
    u, v = ctx.var("u"), ctx.var("v")
    ii = E.AlgConst("i")
    zp, zm = E.add(u, E.mul(ii, v)), E.add(u, E.neg(E.mul(ii, v)))
    f1 = E.pow_(zp, 2)
    f2 = zm
    h1 = E.add(f1, f2)
    h2 = E.add(E.neg(E.mul(ii, f1)), E.mul(ii, f2))
    A = darboux_2comp(ctx, 1, 1, E.ONE)
    return A, mokhov_operator(ctx, (E.ONE, E.ONE), [h1, h2])


@_pair(
    "broken_P_linear",
    "pair violating the closing form of the ultralocal entry",
    compatible=False,
    notes="expected witness family: pencil-P",
)
def _broken_p_linear():
    ctx = _ctx(("u", "v"))
    A = darboux_2comp(ctx, 1, 1, E.ONE)
    return A, operator(ctx, g=_mat(ctx, [["0", "0"], ["0", "1"]]), omega=_skew(ctx, "u"))


@_pair(
    "broken_S_quadratic",
    "pair with a quadratic ultralocal perturbation (second-derivative witness)",
    compatible=False,
    notes="expected witness families: pencil-P and pencil-S",
)
def _broken_s_quadratic():
    ctx = _ctx(("u", "v"))
    A = darboux_2comp(ctx, 1, 1, E.ONE)
    return A, operator(ctx, g=_mat(ctx, [["0", "0"], ["0", "1"]]), omega=_skew(ctx, "u^2"))


# ---------------------------------------------------------------------------
# Lie structures


@_lie(
    "nilpotent6",
    "six-dimensional 2-step nilpotent structure with its compatible metric",
    {"torsion-conditions": True, "torsion-vanishes": True},
)
def _nilpotent6():
    s = LieStructure.from_sparse(6, [(4, 5, 2, 1), (4, 6, 3, 1), (5, 6, 1, 1)])
    ctx = _ctx(tuple(f"u{i+1}" for i in range(6)), parameters=NIL6_PARAMS)
    return {"lie": s, "eta": nil6_metric(ctx), "ctx": ctx}


@_lie(
    "sl2_like",
    "semisimple-type structure: torsion conditions fail and the torsion is nonzero",
    {"torsion-conditions": False, "torsion-vanishes": False},
)
def _sl2_like():
    s = LieStructure.from_sparse(3, [(1, 2, 3, -2), (1, 3, 2, 2), (2, 3, 1, 2)])
    ctx = _ctx(("u1", "u2", "u3"))
    eta = _mat(ctx, [["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "-1"]])
    return {"lie": s, "eta": eta, "ctx": ctx}


@_lie(
    "heisenberg3",
    "three-dimensional 2-step nilpotent structure (no compatible non-degenerate metric exists)",
    {"torsion-conditions": True},
    notes="with an incompatible metric such as the identity the torsion does not vanish",
)
def _heisenberg3():
    return {"lie": LieStructure.from_sparse(3, [(1, 2, 3, 1)])}


# ---------------------------------------------------------------------------
# Casimir fixtures

PHI_W = OpaqueFunction("phi", ("w",))
PHI_V = OpaqueFunction("phi", ("v",))
PHI_U = OpaqueFunction("phi", ("u",))
PHI_Z = OpaqueFunction("phi", ("z",))
CHI_W = OpaqueFunction("chi", ("w",))
THETA_Z = OpaqueFunction("theta", ("z",))

_casimir(
    "cas.C_2_1.row",
    "two-component table row: first-order density with an arbitrary profile",
    "c1*u + c2*hf(v)",
    {"C1": True, "C0": False},
    "C_2_1",
    fns=(OpaqueFunction("hf", ("v",)),),
    params=("c1", "c2"),
)
_casimir(
    "cas.C_2_1.constant",
    "two-component table row: constants are the only full Casimirs",
    "c1",
    {"C0": True, "C1": True, "C10": True},
    "C_2_1",
    params=("c1",),
)
_casimir(
    "cas.C_2_2.constant",
    "two-component table row with 1/u terms: constants only",
    "c1",
    {"C0": True, "C1": True, "C10": True},
    "C_2_2",
    params=("c1",),
)
_casimir(
    "cas.C_3_1.row",
    "zero-leading-coefficient row: any profile of the third field",
    "phi(w)",
    {"C0": True, "C1": True, "C10": True},
    "C_3_1",
    fns=(PHI_W,),
)
_casimir(
    "cas.C_3_3.row",
    "single-coupling row: any profile of the third field",
    "phi(w)",
    {"C0": True, "C1": True, "C10": True},
    "C_3_3",
    fns=(PHI_W,),
)
_casimir(
    "cas.C_3_4.row",
    "1/u-coupling row: any profile of the second field",
    "phi(v)",
    {"C0": True, "C1": True, "C10": True},
    "C_3_4",
    fns=(PHI_V,),
)
_casimir(
    "cas.C_3_6.gzero.C0",
    "proportional-entries row, vanishing second profile",
    "phi(w)",
    {"C0": True, "C10": True},
    "C_3_6",
    inst={"g0": "0"},
    fns=(PHI_W,),
)
_casimir(
    "cas.C_3_6.gzero.C1",
    "proportional-entries row, first-order column",
    "c1*u + c2*v + chi(w)",
    {"C1": True},
    "C_3_6",
    inst={"g0": "0"},
    fns=(CHI_W,),
    params=("c1", "c2"),
)
_casimir(
    "cas.C_3_6.general.C0",
    "proportional-entries row, generic case (verified orientation)",
    "phi(c*u - v + w^2)",
    {"C0": True, "C10": False},
    "C_3_6",
    inst={"f": "2*w", "g0": "1"},
    fns=(PHI_Z,),
    notes="the quoted form phi(c*v - w^2 - u) only passes when c^2 = 1; see DISCREPANCIES.md",
)
_casimir(
    "cas.C_3_6.general.C0.quoted",
    "proportional-entries row, generic case, quoted orientation (negative fixture)",
    "phi(c*v - w^2 - u)",
    {"C0": False},
    "C_3_6",
    inst={"f": "2*w", "g0": "1"},
    fns=(PHI_Z,),
)
_casimir(
    "cas.C_3_6.general.C10",
    "proportional-entries row, generic case, full-operator column",
    "c*u - v + w^2",
    {"C10": True},
    "C_3_6",
    inst={"f": "2*w", "g0": "1"},
)
_casimir(
    "cas.C_3_7.czero",
    "1/v-coupling row at vanishing coupling constant",
    "phi(u)",
    {"C0": True},
    "C_3_7",
    fns=(PHI_U,),
    czero=True,
)
_casimir(
    "cas.C_3_7.czero.full",
    "1/v-coupling row at vanishing coupling constant, full column",
    "u",
    {"C1": True, "C10": True},
    "C_3_7",
    czero=True,
)
_casimir(
    "cas.C_3_7.general",
    "1/v-coupling row, generic coupling constant",
    "phi((c*(u^2 + v^2) - 2*u)/c)",
    {"C0": True},
    "C_3_7",
    fns=(PHI_Z,),
)
_casimir(
    "cas.C_3_7.general.full",
    "1/v-coupling row, generic coupling constant, full column",
    "c2",
    {"C10": True},
    "C_3_7",
    params=("c2",),
)
_casimir(
    "cas.C_3_8.czero",
    "sqrt(1+w^2) row at vanishing coupling constant",
    "phi((v*w + u)/t)",
    {"C0": True},
    "C_3_8",
    fns=(PHI_Z,),
    params=("c1", "c2"),
    czero=True,
)
_casimir(
    "cas.C_3_8.czero.C1",
    "sqrt(1+w^2) row, first-order column",
    "(c1*(v*w + u) + c2*t)/t",
    {"C1": True, "C10": True},
    "C_3_8",
    params=("c1", "c2"),
    czero=True,
)
_casimir(
    "cas.C_3_8.general",
    "sqrt(1+w^2) row, generic coupling constant",
    "phi(2*(v*w + u)/t - c*(u^2 + v^2))",
    {"C0": True},
    "C_3_8",
    fns=(PHI_Z,),
    params=("c1", "c2"),
)
_casimir(
    "cas.C_3_8.general.C1",
    "sqrt(1+w^2) row, generic coupling, first-order and full columns",
    "(c1*(v*w + u) + c2*t)/t",
    {"C1": True},
    "C_3_8",
    params=("c1", "c2", "c3"),
)
_casimir(
    "cas.C_3_8.general.full",
    "sqrt(1+w^2) row, generic coupling, full column is constant",
    "c3",
    {"C10": True},
    "C_3_8",
    params=("c3",),
)
_casimir(
    "cas.C_3_9.gzero.C0",
    "off-diagonal-leading row, vanishing second profile",
    "phi(w)",
    {"C0": True, "C10": True},
    "C_3_9",
    inst={"g0": "0"},
    fns=(PHI_W,),
)
_casimir(
    "cas.C_3_9.gzero.C1",
    "off-diagonal-leading row, first-order column",
    "c1*u + c2*v + chi(w)",
    {"C1": True},
    "C_3_9",
    inst={"g0": "0"},
    fns=(CHI_W,),
    params=("c1", "c2"),
)
_casimir(
    "cas.C_3_9.general.C0",
    "off-diagonal-leading row, generic case",
    "phi(c*v - w^2 - u)",
    {"C0": True},
    "C_3_9",
    inst={"f": "2*w", "g0": "1"},
    fns=(PHI_Z,),
)
_casimir(
    "cas.C_3_9.general.C10",
    "off-diagonal-leading row, generic case, full column",
    "c*v - w^2 - u",
    {"C10": True},
    "C_3_9",
    inst={"f": "2*w", "g0": "1"},
)
_casimir(
    "cas.C_3_10.fg_zero",
    "closure row with both transverse profiles vanishing",
    "phi(v)",
    {"C0": True},
    "C_3_10",
    inst={"f": "0", "g0": "0"},
    fns=(PHI_V,),
)
_casimir(
    "cas.C_3_10.fg_zero.full",
    "closure row with both transverse profiles vanishing, full column",
    "v",
    {"C10": True},
    "C_3_10",
    inst={"f": "0", "g0": "0"},
)
_casimir(
    "cas.C_3_10.fh_zero",
    "closure row with the first and third profiles vanishing",
    "phi(u*v)",
    {"C0": True},
    "C_3_10",
    inst={"f": "0", "h": "0"},
    fns=(PHI_Z,),
)
_casimir(
    "cas.C_3_10.gh_zero",
    "closure row with the second and third profiles vanishing",
    "phi(w)",
    {"C0": True},
    "C_3_10",
    inst={"g0": "0", "h": "0"},
    fns=(PHI_W,),
)


def _c310_g_zero():
    # exponential-type first integral: Ef' = -(f/h) Ef, supplied as a rule
    fns = (
        OpaqueFunction("f", ("w",)),
        OpaqueFunction("h", ("w",)),
        OpaqueFunction("Ef", ("w",)),
        PHI_Z,
    )
    base = _ctx(("u", "v", "w"), (), (), fns)
    rule = Assumption(
        "Ef", (1,), parse("-(f(w)/h(w))*Ef(w)", base), parse("h(w)", base)
    )
    ctx = _ctx(("u", "v", "w"), (), (), fns, (rule,))
    b = _b_entries(ctx, {(0, 2, 2): "-1/v", (2, 0, 2): "1/v"})
    return operator(
        ctx,
        g=_mat(ctx, [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "0"]]),
        b=b,
        omega=_skew(ctx, "f(w)", "h(w)/v", "0"),
    )


_casimir(
    "cas.C_3_10.g_zero",
    "closure row with the second profile vanishing; integrating-factor density",
    "phi(v*Ef(w))",
    {"C0": True},
    _c310_g_zero,
)
_casimir(
    "cas.C_3_10.general",
    "closure row, generic case",
    "phi(v*(u + w^2))",
    {"C0": True},
    "C_3_10",
    inst={"f": "2*w", "g0": "1", "h": "-w^2"},
    fns=(PHI_Z,),
)
_casimir(
    "cas.C_3_10.C1",
    "closure row, first-order column",
    "v*chi(w)",
    {"C1": True},
    "C_3_10",
    inst={"f": "2*w", "g0": "1", "h": "-w^2"},
    fns=(CHI_W,),
)
_casimir(
    "cas.C_3_11.row",
    "sqrt(w) row: zero-order and first-order columns",
    "phi(2*c*u*s + 2*v*c/s - u*v)",
    {"C0": True},
    "C_3_11",
    fns=(PHI_Z,),
    params=("c1",),
)
_casimir(
    "cas.C_3_11.C1",
    "sqrt(w) row, first-order column",
    "c1*v/s + s*c1*u",
    {"C1": True},
    "C_3_11",
    params=("c1",),
)
_casimir(
    "cas.kdv_B.full",
    "quadratic full-operator Casimir of the degenerate KdV structure",
    "(u - w)^2 - sqrt2*(u + w)",
    {"C10": True},
    "kdv_B",
)
_casimir(
    "cas.kdv_B.C1",
    "first-order Casimirs of the degenerate KdV structure",
    "c1*(u + v) + phi(v) + psi(v, u - w)",
    {"C1": True},
    "kdv_B",
    fns=(PHI_V, OpaqueFunction("psi", ("v", "z"))),
    params=("c1",),
)
_casimir(
    "cas.kdv_B.C0",
    "zero-order Casimirs of the degenerate KdV structure",
    "theta((u - w)^2 - sqrt2*(u + w))",
    {"C0": True},
    "kdv_B",
    fns=(THETA_Z,),
)
_casimir(
    "cas.kdv_A.C1",
    "affine first-order Casimirs of the non-degenerate KdV structure",
    "c1*u + c2*v + c3*w + c4",
    {"C1": True},
    "kdv_A",
    params=("c1", "c2", "c3", "c4"),
)
_casimir(
    "cas.kdv_A.C0",
    "zero-order Casimirs of the non-degenerate KdV structure (verified invariant)",
    "theta(v^2 + w^2 - u^2)",
    {"C0": True},
    "kdv_A",
    fns=(THETA_Z,),
    notes="the quoted invariant u*w + v^2 fails the zero-order residuals; see DISCREPANCIES.md",
)
_casimir(
    "cas.kdv_A.C0.quoted",
    "zero-order invariant of the non-degenerate KdV structure, quoted variant (negative fixture)",
    "theta(u*w + v^2)",
    {"C0": False},
    "kdv_A",
    fns=(THETA_Z,),
)
# gkdv(3): the density with the (n+1) factor of the gkdv notes, and the
# quoted one without it
_casimir(
    "cas.gkdv3.full",
    "generalized-KdV full-operator Casimir (oracle-resolved coefficient)",
    "c1*(w - 4/1*u^3) + c2",
    {"C10": True},
    "gkdv(3)",
    params=("c1", "c2"),
    notes="the quoted density without the (n+1) factor fails; see DISCREPANCIES.md",
)
_casimir(
    "cas.gkdv3.quoted",
    "generalized-KdV quoted density (negative fixture)",
    "c1*(w - 1/1*u^3) + c2",
    {"C10": False},
    "gkdv(3)",
    params=("c1", "c2"),
)


# ---------------------------------------------------------------------------
# the inverted-KdV quasilinear systems and the quadratic unimodular change


def kdv_systems():
    """Both presentations of the inverted KdV system plus the quadratic
    unimodular substitution connecting them.

    Returns (ctx, V_first, W_first, substitution, V_second, W_second) where
    the substitution expresses the first presentation's fields in terms of
    the second's.  The x-derivative sign of the transformed system follows
    the machine-verified orientation (see DISCREPANCIES.md).
    """
    ctx = _ctx(("u", "v", "w"), algebraics=(_sqrt2(),))
    P = lambda s: parse(s, ctx)
    V1 = _mat(ctx, [["0", "0", "0"], ["0", "0", "0"], ["1", "0", "0"]])
    W1 = (P("v"), P("w"), P("6*u*v"))
    substitution = (
        P("(u - w)/sqrt2"),
        P("v"),
        P("(u + w)/sqrt2 + (u - w)^2"),
    )
    half = "1/2"
    V2 = _mat(
        ctx,
        [
            [half, "0", f"-{half}"],
            ["0", "0", "0"],
            [half, "0", f"-{half}"],
        ],
    )
    W2 = (
        P("v*(u - w) + v/sqrt2"),
        P("(u - w)^2 + (u + w)/sqrt2"),
        P("v*(u - w) - v/sqrt2"),
    )
    return ctx, V1, W1, substitution, V2, W2


def transform_system(ctx, V, W, substitution):
    """Push a quasilinear system through a change of dependent variables.

    ``substitution`` lists the old fields as expressions in the new ones;
    returns (V', W') for the induced system on the new fields.
    """
    n = len(substitution)
    J = derivative(tuple(substitution), ctx)
    det = determinant(J)
    if E.is_identically_zero(det, ctx):
        raise ValueError("substitution is not invertible")
    Jinv = entrywise(lambda a: E.div(a, det), adjugate(J))
    sub = lambda x: E.substitute(x, dict(zip(ctx.variables, substitution)))
    Vsub, Wsub = entrywise(sub, V), entrywise(sub, W)

    def image(i):
        terms = []
        for s in range(n):
            append_product(terms, Jinv[i][s], Wsub[s])
        return E.add(*terms)

    return matmul(Jinv, matmul(Vsub, J)), tensor(n, 1, image)


__all__ = [
    "CatalogEntry",
    "UnknownEntryError",
    "export",
    "kdv_A",
    "kdv_B",
    "kdv_context",
    "kdv_systems",
    "list_entries",
    "load",
    "nil6_metric",
    "transform_system",
    "verify",
]
