"""Inputs and known answers for the three benchmark workloads.

Each workload is a list of passes; a pass is a list of :class:`Call` records.
A call is one closed-loop request: a ``ham`` invocation through
``hamops.cli.main`` (stdout captured) or one library round trip.  Every call
carries its known answer, which never comes from the code under test:

* catalog entries: the verdicts recorded in the entry (``expected``);
* family draws: the families are compatible by construction, so both the
  tensor route and the pencil oracle must pass;
* ``bipencil`` on a catalog pair: the pair's recorded ``tensor-compatible``;
* small operators: exit codes pinned by hand below;
* expression round trips: ``equal`` must hold, and the rendered normal form
  is checked against sympy after the run (see ``reference``).
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

WORKLOADS = ("pencils", "catalog-operators", "small-calls")

# Passes prepared at set-up, several times what a run uses today.  Later
# passes reuse them cyclically, so a run never waits on input generation.
# The pencils pool is a power of two, for the stratified order below.
POOL_PASSES = {"pencils": 32, "catalog-operators": 24, "small-calls": 64}

FAMILIES = ("B1", "B2-laplace", "B2-wave", "B2-case2ii", "B2-case2iii")

# Catalog pairs whose leading terms are non-degenerate: `ham bipencil`
# decides them instead of stopping at the precondition.
BIPENCIL_PAIRS = (
    "broken_P_trace",
    "flat_pair_P",
    "kdv_self",
    "pair_b1",
    "pair_case2ii",
    "pair_case2iii",
    "pair_laplace",
    "pair_wave",
    "strong_2comp",
    "strong_3comp",
)

# `ham check` exits 0 on all of these (each is Hamiltonian).  `ham nijenhuis`
# exits 2 on the seven with a degenerate metric and 1 on kdv_A, whose
# torsion is nonzero.
SMALL_OPERATORS = {
    "C_2_1": 2,
    "C_2_2": 2,
    "sinh_gordon": 2,
    "kdv_A": 1,
    "kdv_B": 2,
    "gkdv(1)": 2,
    "gkdv(2)": 2,
    "gkdv(3)": 2,
}

ROUND_TRIPS_PER_PASS = 40

# Contexts of the round trips, as operator-document context blocks: opaque
# functions give jet atoms, algebraic symbols of degree 2 and 3 give
# reductions.  `sympy` holds the value each algebraic symbol stands for.
ROUND_TRIP_CONTEXTS = (
    {
        "doc": {
            "variables": ["u", "v", "w"],
            "parameters": ["k"],
            "algebraic_constants": [{"name": "s", "min_poly": "s^2 - 2"}],
            "opaque_functions": [
                {"name": "f", "args": ["v", "w"]},
                {"name": "g", "args": ["w"]},
            ],
        },
        "atoms": ("u", "v", "w", "k", "s", "f", "g", "D(f, v)", "D(f, w)",
                  "D(f, v, w)", "D(g, w)", "D(g, w, w)"),
        "sympy": {"s": "sqrt(2)"},
    },
    {
        "doc": {
            "variables": ["x", "y"],
            "algebraic_constants": [
                {"name": "c", "min_poly": "c^3 - 2"},
                {"name": "r", "min_poly": "r^2 - 3"},
            ],
            "opaque_functions": [{"name": "phi", "args": ["x", "y"]}],
        },
        "atoms": ("x", "y", "c", "r", "phi", "D(phi, x)", "D(phi, y)",
                  "D(phi, x, y)", "D(phi, x, x)"),
        "sympy": {"c": "2**Rational(1, 3)", "r": "sqrt(3)"},
    },
)


@dataclass
class Call:
    """One request.  ``run`` returns ``(exit code, output text)``."""

    row: str
    run: Callable[[], tuple]
    check: Callable[[int, str], bool]
    golden: str | None = None  # key into golden.json, default seed only
    doc_text: str | None = None  # input document the call reads
    round_trip: tuple | None = None  # (context index, input text)


def ham_call(ham, argv):
    """Run ``ham <argv>`` in-process; ``cli.main`` is looked up per call."""

    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = ham.cli.main(list(argv))
        return rc, out.getvalue()

    return run


def _report(out):
    try:
        return json.loads(out)
    except ValueError:
        return None


def _verify_check(expected):
    want = [f"expected:{name}={'pass' if v else 'fail'}" for name, v in sorted(expected.items())]

    def check(rc, out):
        rep = _report(out)
        return (
            rc == 0
            and rep is not None
            and rep["verdict"] == "pass"
            and [c["id"] for c in rep["conditions"]] == want
            and all(c["pass"] for c in rep["conditions"])
        )

    return check


def _exit_check(code):
    def check(rc, out):
        if rc != code:
            return False
        if code == 2:
            return out == ""
        rep = _report(out)
        return rep is not None and rep["verdict"] == ("pass" if code == 0 else "fail")

    return check


def _compat_check(rc, out):
    rep = _report(out)
    if rc != 0 or rep is None or rep["verdict"] != "pass":
        return False
    conds = rep["conditions"]
    tensor = [c for c in conds if not c["id"].startswith("oracle")]
    oracle = [c for c in conds if c["id"].startswith("oracle:")]
    return bool(tensor) and bool(oracle) and all(c["pass"] for c in conds)


def _verify(ham, eid):
    expected = ham.catalog.load(eid).expected
    return Call(
        f"verify:{eid}",
        ham_call(ham, ("--json", "catalog", "verify", eid)),
        _verify_check(expected),
        golden=f"verify:{eid}",
    )


# ---------------------------------------------------------------------------
# family draws, as scripts/family_survey.py draws them


def _profile(rng, degree, affine=False):
    top = 1 if affine else degree
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(top + 1)]
    if all(c == 0 for c in coeffs):
        coeffs[-1] = Fraction(1)
    return tuple(coeffs)


def draw_params(ham, rng, family):
    P = ham.compatibility.Pair2Params
    c = Fraction(rng.randint(-3, 3))
    if family == "B1":
        a, b = rng.choice([(1, 1), (1, -1), (-1, 1), (-1, -1)])
        return P(a=a, b=b, c=c, k1=Fraction(rng.randint(-4, 4)),
                 k2=Fraction(rng.randint(-4, 4)), k3=Fraction(rng.randint(-4, 4)))
    if family in ("B2-laplace", "B2-wave"):
        a, b = rng.choice([(1, 1), (-1, -1)] if family == "B2-laplace" else [(1, -1), (-1, 1)])
        flip = rng.random() < 0.5
        return P(a=a, b=b, c=c, xi1=_profile(rng, 3, affine=flip),
                 xi2=_profile(rng, 3, affine=not flip))
    a, b = rng.choice([(1, -1), (-1, 1)])
    return P(a=a, b=b, c=c, xi1=_profile(rng, 3), xi2=_profile(rng, 2), xi3=_profile(rng, 3))


def stratified_order(n, offset):
    """Pass j takes rank ``(bit-reversed j + offset) mod n``, n a power of two.

    The first k passes of a run then take ranks spread evenly over all n,
    whatever k is, and with a random offset each pass takes every rank with
    the same chance.  Each draw still comes from its family's distribution;
    only which pass it lands in depends on its size.
    """
    bits = n.bit_length() - 1
    return [(int(format(j, f"0{bits}b")[::-1], 2) + offset) % n for j in range(n)]


def _pencils(ham, seed, workdir):
    rng = random.Random(seed)
    n = POOL_PASSES["pencils"]
    bipencil = []
    for eid in BIPENCIL_PAIRS:
        code = 0 if ham.catalog.load(eid).expected["tensor-compatible"] else 1
        bipencil.append(
            Call(f"bipencil:{eid}", ham_call(ham, ("--json", "bipencil", f"catalog:{eid}")),
                 _exit_check(code), golden=f"bipencil:{eid}")
        )
    passes = [list(bipencil) for _ in range(n)]
    for family in FAMILIES:
        draws = []
        for _ in range(n):
            A, B = ham.compatibility.build_pair_2comp(family, draw_params(ham, rng, family))
            draws.append(json.dumps(ham.operators.pair_to_document(A, B), sort_keys=True))
        # Time to a verdict grows with the size of the pair, so a run that
        # makes only a few passes still sees small and large draws in their
        # proportions, which keeps seeds from differing by chance alone.
        draws.sort(key=lambda text: (len(text), text))
        for p, rank in enumerate(stratified_order(n, rng.randrange(n))):
            text = draws[rank]
            path = os.path.join(workdir, f"{family}-{rank}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            passes[p].append(
                Call(f"compat:{family}#{rank}", ham_call(ham, ("--json", "compat", path)),
                     _compat_check, golden=f"compat:seed{seed}:{family}#{rank}", doc_text=text)
            )
    for calls in passes:
        rng.shuffle(calls)
    return passes


def _catalog_operators(ham, seed, workdir):
    rng = random.Random(seed)
    ids = [eid for eid, kind, _ in ham.catalog.list_entries() if kind == "operator"]
    calls = [_verify(ham, eid) for eid in ids]
    passes = []
    for _ in range(POOL_PASSES["catalog-operators"]):
        order = list(calls)
        rng.shuffle(order)
        passes.append(order)
    return passes


# ---------------------------------------------------------------------------
# small calls


def _coeff(rng):
    q = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))
    return f"({q})" if q < 0 else str(q)


def _monomial(rng, atoms):
    factors = []
    for _ in range(rng.randint(1, 2)):
        atom = rng.choice(atoms)
        factors.append(f"{atom}^2" if rng.random() < 0.2 else atom)
    return "*".join([_coeff(rng)] + factors)


def _denominator(rng, atoms):
    # (atom + q) with q != 0 is nonzero for every atom, algebraic symbols
    # included, so no input divides by zero.  Quadratic factors are left out:
    # two of them in one atom, such as (D(phi, x, y)^2 + 2)*(D(phi, x, y)^2 + 1)
    # over two terms, send poly.pgcd into a pseudo-remainder blow-up of
    # seconds to minutes, which is no millisecond call.
    factors = []
    for _ in range(1 if rng.random() < 0.8 else 2):
        factors.append(f"({rng.choice(atoms)} {rng.choice('+-')} {rng.randint(1, 4)})")
    return "*".join(factors)


def round_trip_text(rng, atoms):
    terms = []
    for _ in range(rng.randint(1, 2)):
        num = " + ".join(_monomial(rng, atoms) for _ in range(rng.randint(1, 2)))
        if rng.random() < 0.75:
            terms.append(f"({num})/({_denominator(rng, atoms)})")
        else:
            terms.append(f"({num})")
    return " + ".join(terms)


def round_trip_call(ham, ctx, index, text):
    E = ham.expr

    def run():
        e = E.parse(text, ctx)
        normal = E.render(E.normalize(e, ctx))
        back = E.parse(normal, ctx)
        return (0 if E.equal(e, back, ctx) else 1), normal

    return Call(f"roundtrip:context{index}", run, lambda rc, out: rc == 0, round_trip=(index, text))


def _small_calls(ham, seed, workdir):
    rng = random.Random(seed)
    fixed = [
        _verify(ham, eid)
        for eid, kind, _ in ham.catalog.list_entries()
        if kind in ("casimir-fixture", "lie-structure")
    ]
    for eid, nij_code in SMALL_OPERATORS.items():
        fixed.append(Call(f"check:{eid}", ham_call(ham, ("--json", "check", f"catalog:{eid}")),
                          _exit_check(0), golden=f"check:{eid}"))
        fixed.append(Call(f"nijenhuis:{eid}", ham_call(ham, ("--json", "nijenhuis", f"catalog:{eid}")),
                          _exit_check(nij_code), golden=f"nijenhuis:{eid}"))
    contexts = [ham.operators.context_from_document(c["doc"]) for c in ROUND_TRIP_CONTEXTS]
    passes = []
    for p in range(POOL_PASSES["small-calls"]):
        calls = list(fixed)
        for t in range(ROUND_TRIPS_PER_PASS):
            index = t % len(contexts)
            text = round_trip_text(rng, ROUND_TRIP_CONTEXTS[index]["atoms"])
            calls.append(round_trip_call(ham, contexts[index], index, text))
        rng.shuffle(calls)
        passes.append(calls)
    return passes


def set_up(name, ham, seed, workdir):
    """Load the catalog entries a workload needs and write its documents."""
    builder = {
        "pencils": _pencils,
        "catalog-operators": _catalog_operators,
        "small-calls": _small_calls,
    }[name]
    return builder(ham, seed, workdir)
