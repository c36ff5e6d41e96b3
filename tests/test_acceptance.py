"""Acceptance suite.

One test per criterion; each prints a single pass/fail line (visible with
pytest -rA or -s) and asserts the criterion at its stated tolerance.  All
tolerances are exact: a condition passes only when its residual normalizes
to zero in the expression ring.
"""

import pathlib
import random
from fractions import Fraction

import pytest

from hamops import catalog, expr as E
from hamops.expr import Context, Param, parse
from hamops.casimir import (
    CasimirCandidate,
    degenerate_c32_casimir_case,
    is_casimir,
)
from hamops.compatibility import (
    Pair2Params,
    build_pair_2comp,
    check_compatible,
    covariant_p_tensor,
    covariant_s_tensor,
    mokhov_operator,
    p_tensor,
    pencil_hamiltonian_check,
    s_tensor,
    ultralocal_2comp,
)
from hamops.geometry import (
    affinor_from_lie,
    bi_pencil_check,
    check_nijnonhom_conditions,
    killing_yano_residuals,
    torsion_vanishes,
)
from hamops.hamiltonian import is_hamiltonian
from hamops.operators import (
    determinant,
    operator,
    pencil,
)

from support import (
    expr_context,
    random_abelian,
    random_expr,
    random_nilpotent6,
    random_sl2_scaled,
    random_zero_expr,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _report(num: int, name: str, ok: bool):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {name}"


def test_criterion_1_hamiltonian_suite():
    operators = [
        "C_2_1", "C_2_2", "C_3_1", "C_3_2", "C_3_3", "C_3_4", "C_3_5",
        "C_3_6", "C_3_7", "C_3_8", "C_3_9", "C_3_10", "C_3_11",
        "sinh_gordon", "gkdv(1)", "gkdv(2)", "gkdv(3)", "kdv_A", "kdv_B",
    ]
    ok = True
    for entry_id in operators:
        op = catalog.load(entry_id).payload["operator"]
        rep = is_hamiltonian(op)
        if not rep.verdict:
            ok = False
            print(f"  {entry_id}: FAILED {[c.cid for c in rep.failures()]}")
    _report(1, "Hamiltonianity suite (exact residuals)", ok)


def test_criterion_2_compatibility_suite():
    pair_ids = [eid for eid, kind, _ in catalog.list_entries() if kind == "pair"]
    assert len(pair_ids) >= 12
    ok = True

    ctx = catalog.kdv_context()
    A, B = catalog.kdv_A(ctx), catalog.kdv_B(ctx)
    ok &= check_compatible(A, B).verdict
    ok &= pencil_hamiltonian_check(A, B).verdict

    witness_families = set()
    for pid in pair_ids:
        entry = catalog.load(pid)
        Ap, Bp = entry.payload["A"], entry.payload["B"]
        tensor = check_compatible(Ap, Bp)
        oracle = pencil_hamiltonian_check(Ap, Bp)
        if tensor.verdict != oracle.verdict:
            ok = False
            print(f"  {pid}: verdicts disagree")
        if not tensor.verdict:
            for c in tensor.failures():
                if c.cid in ("schouten-L", "pencil-P", "pencil-S") and c.residual_text != "0":
                    witness_families.add(c.cid)
    ok &= {"schouten-L", "pencil-P", "pencil-S"} <= witness_families
    _report(2, f"compatibility suite ({len(pair_ids)} pairs, oracle agreement)", ok)


def _random_profile(rng, degree, affine=False):
    top = 1 if affine else degree
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(top + 1)]
    if all(c == 0 for c in coeffs):
        coeffs[-1] = Fraction(1)
    return tuple(coeffs)


def test_criterion_3_two_component_families():
    rng = random.Random(424242)
    ok = True
    for family in ("B1", "B2-laplace", "B2-wave", "B2-case2ii", "B2-case2iii"):
        for _ in range(3):
            if family == "B1":
                a, b = rng.choice([(1, 1), (1, -1), (-1, 1), (-1, -1)])
                params = Pair2Params(
                    a=a, b=b, c=Fraction(rng.randint(-3, 3)),
                    k1=Fraction(rng.randint(-4, 4)), k2=Fraction(rng.randint(-4, 4)),
                    k3=Fraction(rng.randint(-4, 4)),
                )
            elif family == "B2-laplace":
                a, b = rng.choice([(1, 1), (-1, -1)])
                flip = rng.random() < 0.5
                params = Pair2Params(
                    a=a, b=b, c=Fraction(rng.randint(-2, 3)),
                    xi1=_random_profile(rng, 3, affine=flip),
                    xi2=_random_profile(rng, 3, affine=not flip),
                )
            else:
                a, b = rng.choice([(1, -1), (-1, 1)])
                if family == "B2-wave":
                    flip = rng.random() < 0.5
                    params = Pair2Params(
                        a=a, b=b, c=Fraction(rng.randint(-2, 3)),
                        xi1=_random_profile(rng, 3, affine=flip),
                        xi2=_random_profile(rng, 3, affine=not flip),
                    )
                else:
                    params = Pair2Params(
                        a=a, b=b, c=Fraction(rng.randint(-2, 3)),
                        xi1=_random_profile(rng, 3),
                        xi2=_random_profile(rng, 2),
                        xi3=_random_profile(rng, 3),
                    )
            Af, Bf = build_pair_2comp(family, params)
            if not pencil_hamiltonian_check(Af, Bf).verdict:
                ok = False
                print(f"  {family} {params}: oracle failed")

    # perturbations must fail with nonzero witnesses
    ctx = Context(("u", "v"))
    u, v = ctx.var("u"), ctx.var("v")
    from hamops.compatibility import darboux_2comp

    # both wave profiles curved
    f1, f2 = (u + v) ** 2, 3 * (u - v) ** 2
    h1, h2 = f1 + f2, f1 - f2
    A = darboux_2comp(ctx, 1, -1, E.ONE)
    first = mokhov_operator(ctx, (E.ONE, E.rat(-1)), [h1, h2])
    Bb = operator(ctx, first.g, first.b, ultralocal_2comp(ctx, h1, h2, E.ONE, E.ZERO))
    bad1 = pencil_hamiltonian_check(A, Bb)
    ok &= not bad1.verdict

    # trace term dropped from the closing entry
    entry = catalog.load("broken_P_trace")
    rep = check_compatible(entry.payload["A"], entry.payload["B"])
    ok &= not rep.verdict
    ok &= any(
        c.cid == "pencil-P" and c.residual_text != "0" for c in rep.failures()
    )
    _report(3, "two-component family reproduction (5 families x 3 random draws)", ok)


def test_criterion_4_casimir_tables():
    ok = True
    # every stored table row/sub-case fixture reproduces its column verdicts
    fixtures = [eid for eid, kind, _ in catalog.list_entries() if kind == "casimir-fixture"]
    for fid in fixtures:
        if not catalog.verify(fid).verdict:
            ok = False
            print(f"  {fid}: column verdicts not reproduced")

    # the degenerate three-component case analysis, all six cases
    from hamops.expr import OpaqueFunction

    cctx = Context(
        ("u", "v", "w"),
        functions=(
            OpaqueFunction("phi", ("v",)),
            OpaqueFunction("chi", ("w",)),
            OpaqueFunction("h0", ("v", "w")),
        ),
    )
    P = lambda s: parse(s, cctx)
    cases = [
        ("f=0", dict(f=E.ZERO, g=P("v^2*h0(v,w)"), h=P("h0(v,w)"), antiderivative=P("v^3/3"))),
        ("f=g=0", dict(f=E.ZERO, g=E.ZERO, h=P("h0(v,w)"))),
        ("f=h=0", dict(f=E.ZERO, g=P("h0(v,w)"), h=E.ZERO)),
        ("g=0", dict(f=P("12*w^2*h0(v,w)"), g=E.ZERO, h=P("-h0(v,w)"), antiderivative=P("-4*w^3"))),
        ("g=h=0", dict(f=P("h0(v,w)"), g=E.ZERO, h=E.ZERO)),
        ("h=0", dict(f=P("1"), g=P("1"), h=E.ZERO, first_integral=P("v - w"))),
    ]
    for case, kwargs in cases:
        try:
            degenerate_c32_casimir_case(case, cctx, **kwargs)
        except Exception as exc:  # pragma: no cover - failure path
            ok = False
            print(f"  case {case}: {exc}")

    # the quadratic full-operator density of the degenerate KdV structure
    B = catalog.kdv_B()
    ok &= is_casimir(B, CasimirCandidate(B.ctx, parse("(u-w)^2 - sqrt2*(u+w)", B.ctx)), "C10")

    # the generalized-KdV fixture is pinned by the oracle and any deviation
    # from the quoted formula is recorded in the repository's discrepancy log
    ok &= catalog.verify("cas.gkdv3.full").verdict
    ok &= catalog.verify("cas.gkdv3.quoted").verdict
    log = (REPO_ROOT / "DISCREPANCIES.md").read_text(encoding="utf-8")
    ok &= "gkdv" in log
    _report(4, "Casimir tables, case analysis and discrepancy log", ok)


def test_criterion_5_nijenhuis_equivalence():
    rng = random.Random(77)
    ok = True
    checked = 0
    for _ in range(7):
        s, eta, ctx = random_nilpotent6(rng)
        conds = check_nijnonhom_conditions(s).verdict
        tors = torsion_vanishes(affinor_from_lie(s, eta, ctx), ctx)
        if not (conds and tors):
            ok = False
            print("  random 2-step structure broke the equivalence")
        checked += 1
    for n in (2, 4, 5):
        s, eta, ctx = random_abelian(rng, n)
        conds = check_nijnonhom_conditions(s).verdict
        tors = torsion_vanishes(affinor_from_lie(s, eta, ctx), ctx)
        ok &= conds and tors
        checked += 1
    assert checked >= 10

    ok &= catalog.verify("nilpotent6").verdict
    s, eta, ctx = random_sl2_scaled(rng)
    conds = check_nijnonhom_conditions(s).verdict
    tors = torsion_vanishes(affinor_from_lie(s, eta, ctx), ctx)
    ok &= (not conds) and (not tors)
    _report(5, f"torsion <=> algebraic conditions ({checked} random structures)", ok)


def _nondegenerate_pairs():
    out = []
    for eid, kind, _ in catalog.list_entries():
        if kind != "pair":
            continue
        entry = catalog.load(eid)
        A, B = entry.payload["A"], entry.payload["B"]
        ctx = A.ctx
        if E.is_identically_zero(determinant(A.g), ctx):
            continue
        if E.is_identically_zero(determinant(B.g), ctx):
            continue
        out.append((eid, A, B))
    return out


def test_criterion_6_bi_pencil_equivalence():
    ok = True
    pairs = _nondegenerate_pairs()
    assert len(pairs) >= 4
    for eid, A, B in pairs:
        bp = bi_pencil_check(A, B).verdict
        cc = check_compatible(A, B).verdict
        if bp != cc:
            ok = False
            print(f"  {eid}: bi-pencil {bp} but tensor route {cc}")

    # the Killing-Yano residual of the pencil expands exactly as
    # (first operator part) + mu * P + mu^2 * (second operator part)
    for eid in ("kdv_self", "flat_pair_P", "strong_2comp"):
        entry = catalog.load(eid)
        A, B = entry.payload["A"], entry.payload["B"]
        ctx = A.ctx
        mu, _ = ctx.fresh_parameter("mu")
        pen = pencil(A, B, mu)
        lhs = killing_yano_residuals(pen, pen)
        kyA = killing_yano_residuals(A, A)
        kyB = killing_yano_residuals(B, B)
        P = p_tensor(A, B)
        mu_e = Param(mu)
        n = A.n
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    want = E.add(kyA[i][j][k], E.mul(mu_e, P[i][j][k]),
                                 E.mul(mu_e, mu_e, kyB[i][j][k]))
                    if not E.is_identically_zero(E.add(lhs[i][j][k], E.neg(want)), pen.ctx):
                        ok = False
    _report(6, f"bi-pencil equivalence on {len(pairs)} non-degenerate pairs", ok)


def test_criterion_7_engine_properties():
    ctx = expr_context()
    ok = True

    rng = random.Random(1001)
    for _ in range(200):
        try:
            e = random_expr(rng, ctx)
            n1 = E.normalize(e, ctx)
        except E.ZeroDenominatorError:
            continue
        if E.normalize(n1, ctx) != n1:
            ok = False
    idem = ok
    print(f"  normalize idempotence: {'PASS' if idem else 'FAIL'}")

    rng = random.Random(1002)
    step = True
    for _ in range(200):
        try:
            e = random_expr(rng, ctx)
            duv = E.differentiate(E.differentiate(e, "u", ctx), "v", ctx)
            dvu = E.differentiate(E.differentiate(e, "v", ctx), "u", ctx)
            if not E.is_identically_zero(E.add(duv, E.neg(dvu)), ctx):
                step = False
        except E.ZeroDenominatorError:
            continue
    ok &= step
    print(f"  mixed partials commute: {'PASS' if step else 'FAIL'}")

    rng = random.Random(1003)
    step = True
    for _ in range(200):
        try:
            a = random_expr(rng, ctx, depth=2)
            b = random_expr(rng, ctx, depth=2)
            lhs = E.differentiate(E.mul(a, b), "u", ctx)
            rhs = E.add(
                E.mul(E.differentiate(a, "u", ctx), b),
                E.mul(a, E.differentiate(b, "u", ctx)),
            )
            if not E.is_identically_zero(E.add(lhs, E.neg(rhs)), ctx):
                step = False
        except E.ZeroDenominatorError:
            continue
    ok &= step
    print(f"  product rule: {'PASS' if step else 'FAIL'}")

    rng = random.Random(1004)
    step = True
    for idx in range(200):
        try:
            e = random_zero_expr(rng, ctx, depth=2) if idx % 2 else random_expr(rng, ctx, depth=2)
            exact = E.is_identically_zero(e, ctx)
            sampled = E.probabilistic_zero_test(e, ctx, trials=3, seed=idx)
            if exact != sampled:
                step = False
        except (E.ZeroDenominatorError, E.SampleBudgetError):
            continue
    ok &= step
    print(f"  exact vs randomized zero test agreement: {'PASS' if step else 'FAIL'}")

    _report(7, "engine properties (4 x 200 randomized expressions)", ok)


def test_criterion_8_general_coordinates_identity():
    ok = True
    # interaction tensor: coordinate form equals the covariant form, checked
    # on non-degenerate flat fixtures including one with a nonzero tensor
    for eid in ("kdv_self", "flat_pair_P", "strong_2comp", "pair_b1"):
        entry = catalog.load(eid)
        A, B = entry.payload["A"], entry.payload["B"]
        ctx = A.ctx
        P = p_tensor(A, B)
        Pc = covariant_p_tensor(A, B)
        n = A.n
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if not E.is_identically_zero(E.add(P[i][j][k], E.neg(Pc[i][j][k])), ctx):
                        ok = False
                        print(f"  {eid}: interaction tensor mismatch at {(i, j, k)}")

    # derivative-coupling tensor: the coordinate form and the covariant
    # cross-derivative form agree exactly on non-degenerate flat fixtures
    # with constant connections (both vanish); on curved compatible pairs the
    # covariant form as printed does not reduce to the coordinate form, a
    # recorded discrepancy checked separately below
    for eid in ("kdv_self", "strong_2comp", "strong_3comp", "pair_b1"):
        entry = catalog.load(eid)
        A, B = entry.payload["A"], entry.payload["B"]
        ctx = A.ctx
        n = A.n
        S = s_tensor(A, B)
        Sg = covariant_s_tensor(A, B)
        for j in range(n):
            for k in range(n):
                for i in range(n):
                    for r in range(n):
                        if not E.is_identically_zero(
                            E.add(S[i][j][k][r], E.neg(Sg[j][k][i][r])), ctx
                        ):
                            ok = False
                            print(f"  {eid}: derivative-coupling mismatch at {(i, j, k, r)}")

    # the recorded off-constant mismatch: the coordinate form is closed on the
    # curved compatible pair while the covariant cross-derivative form is not
    entry = catalog.load("pair_laplace")
    A, B = entry.payload["A"], entry.payload["B"]
    ctx = A.ctx
    S = s_tensor(A, B)
    Sg = covariant_s_tensor(A, B)
    n = A.n
    coordinate_closed = all(
        E.is_identically_zero(S[i][j][k][r], ctx)
        for i in range(n) for j in range(n) for k in range(n) for r in range(n)
    )
    covariant_closed = all(
        E.is_identically_zero(Sg[j][k][i][r], ctx)
        for j in range(n) for k in range(n) for i in range(n) for r in range(n)
    )
    ok &= coordinate_closed and not covariant_closed
    log = (REPO_ROOT / "DISCREPANCIES.md").read_text(encoding="utf-8")
    ok &= "cross-derivative" in log
    _report(8, "general-coordinate forms of the interaction tensors", ok)
