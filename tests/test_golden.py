"""``ham --json`` reports compared byte for byte with the reports recorded in
tests/golden/, so that a change in how residuals are assembled or normalised
cannot change the text of a report, and a hash of the unnormalised residual
trees, so that it cannot change how a residual is assembled either."""

import hashlib
import json
from pathlib import Path

import pytest

from hamops import catalog
from hamops import expr as E
from hamops.cli import main
from hamops.geometry import (
    affinor_from_bivector,
    affinor_from_lie,
    strong_bi_pencil_check,
    torsion_report,
)
from hamops.hamiltonian import nondegenerate_decomposition
from hamops.operators import DegenerateMetric
from hamops.reports import ReportBuilder

GOLDEN = Path(__file__).parent / "golden"
DATA = Path(__file__).parent / "data"

# pair entry -> exit codes of (compat, bipencil); the broken_* pairs fail
# with nonzero residual texts, and bipencil exits 1 on a degenerate metric
PAIRS = {
    "broken_L": (1, 1),
    "broken_P_linear": (1, 1),
    "broken_P_trace": (1, 1),
    "broken_S_quadratic": (1, 1),
    "flat_pair_P": (1, 1),
    "kdv_pair": (0, 1),
    "kdv_self": (0, 0),
    "lemma3_pair": (0, 1),
    "pair_b1": (0, 0),
    "pair_case2ii": (0, 0),
    "pair_case2iii": (0, 0),
    "pair_laplace": (0, 0),
    "pair_wave": (0, 0),
    "strong_2comp": (0, 0),
    "strong_3comp": (0, 0),
}

OPERATORS = sorted(eid for eid, kind, _ in catalog.list_entries() if kind == "operator")


def test_every_catalog_pair_is_pinned():
    assert sorted(PAIRS) == sorted(
        eid for eid, kind, _ in catalog.list_entries() if kind == "pair"
    )


@pytest.mark.parametrize("command", ["compat", "bipencil"])
@pytest.mark.parametrize("entry", sorted(PAIRS))
def test_json_report_matches_golden(command, entry, capsys):
    code = main(["--json", command, f"catalog:{entry}"])
    out = capsys.readouterr().out
    assert code == PAIRS[entry][command == "bipencil"]
    assert out == (GOLDEN / f"{command}_{entry}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "command, golden",
    [
        (["compat"], "compat_numeric"),
        (["bipencil"], "bipencil_numeric"),
        (["bipencil", "--strong"], "bipencil_strong_numeric"),
    ],
)
@pytest.mark.parametrize("entry", ["broken_P_trace", "flat_pair_P"])
def test_numeric_pair_report_matches_golden(command, golden, entry, capsys):
    """Failing killing-yano and oracle records render the residual trees as
    assembled, so these goldens pin the term order of the covariant
    derivative and of the pencil conditions."""
    code = main(["--json", "--numeric-only", *command, f"catalog:{entry}"])
    out = capsys.readouterr().out
    assert code == 1
    assert out == (GOLDEN / f"{golden}_{entry}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "command, entry",
    [(["check"], "C_3_8"), (["check"], "C_3_11"), (["compat"], "pair_laplace")],
)
def test_numeric_algebraic_report_matches_golden(command, entry, capsys):
    """The numeric reports of the entries whose contexts declare algebraic
    symbols (``t^2 = w^2 + 1``, ``s^2 = w``, ``i^2 = -1``), so that a change in
    how sample points are drawn or shared cannot change a verdict or text."""
    code = main(["--json", "--numeric-only", *command, f"catalog:{entry}"])
    out = capsys.readouterr().out
    assert code == 0
    golden = GOLDEN / f"{command[0]}_numeric_{entry}.json"
    assert out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "flags, golden",
    [
        ([], "compat_kdv_A_perturbed_pair.json"),
        (["--numeric-only"], "compat_numeric_kdv_A_perturbed_pair.json"),
    ],
)
def test_precondition_failure_matches_golden(flags, golden, capsys):
    """A = kdv_A, B = kdv_A with b^{12}_3 = u*v*w: B is not Hamiltonian, so
    the tensor route reports the failed precondition records of B."""
    code = main(["--json", *flags, "compat", str(DATA / "kdv_A_perturbed_pair.json")])
    out = capsys.readouterr().out
    assert code == 1
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")
    assert '"error": "precondition failed: B not Hamiltonian"' in out


@pytest.mark.parametrize("entry", OPERATORS)
def test_check_report_matches_golden(entry, capsys):
    """Pins the condition ids and multiplicities of every catalog operator."""
    code = main(["--json", "check", f"catalog:{entry}"])
    out = capsys.readouterr().out
    assert code == (0 if catalog.load(entry).expected["hamiltonian"] else 1)
    assert out == (GOLDEN / f"check_{entry}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "flags, golden",
    [([], "check_kdv_A_perturbed.json"), (["--numeric-only"], "check_numeric_kdv_A_perturbed.json")],
)
def test_failing_check_matches_golden(flags, golden, capsys):
    """kdv_A with b^{12}_3 = u*v*w fails every first-order and mixed
    condition family that sums products.  In numeric mode a failing record renders the residual as
    assembled, before normalisation, so that golden pins the trees."""
    code = main(["--json", *flags, "check", str(DATA / "kdv_A_perturbed.json")])
    out = capsys.readouterr().out
    assert code == 1
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


# the Casimir fixtures and Lie structures, read off their goldens, so that a
# new entry without a golden fails test_every_verified_entry_is_pinned
VERIFIED = sorted(p.name[len("verify_"):-len(".json")] for p in GOLDEN.glob("verify_*.json"))

# Lie entry -> exit code of nijenhuis --lie on its catalog export
LIE_NIJENHUIS = {"heisenberg3": 0, "nilpotent6": 0, "sl2_like": 1}

# operator entries with a non-degenerate metric -> exit code of nijenhuis;
# every other operator is refused with exit code 2
NIJENHUIS = {"kdv_A": 1, "nilpotent6_op": 0}


def test_every_verified_entry_is_pinned():
    assert VERIFIED == sorted(
        eid
        for eid, kind, _ in catalog.list_entries()
        if kind in ("casimir-fixture", "lie-structure")
    )
    assert sorted(LIE_NIJENHUIS) == sorted(
        eid for eid, kind, _ in catalog.list_entries() if kind == "lie-structure"
    )


@pytest.mark.parametrize("entry", VERIFIED)
def test_verify_report_matches_golden(entry, capsys):
    code = main(["--json", "catalog", "verify", entry])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"verify_{entry}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("entry", sorted(LIE_NIJENHUIS))
def test_lie_nijenhuis_report_matches_golden(entry, capsys, tmp_path):
    path = tmp_path / f"{entry}.json"
    path.write_text(json.dumps(catalog.export(entry)), encoding="utf-8")
    code = main(["--json", "nijenhuis", "--lie", str(path)])
    out = capsys.readouterr().out
    assert code == LIE_NIJENHUIS[entry]
    assert out == (GOLDEN / f"nijenhuis_lie_{entry}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("entry", OPERATORS)
def test_operator_nijenhuis_report_matches_golden(entry, capsys):
    code = main(["--json", "nijenhuis", f"catalog:{entry}"])
    captured = capsys.readouterr()
    if entry in NIJENHUIS:
        assert code == NIJENHUIS[entry]
        golden = (GOLDEN / f"nijenhuis_{entry}.json").read_text(encoding="utf-8")
        assert captured.out == golden
    else:
        assert code == 2
        assert captured.out == ""
        assert captured.err == "ham: metric determinant is identically zero\n"


@pytest.mark.parametrize(
    "density, code, golden",
    [
        ("(u-w)^2 - sqrt2*(u+w)", 0, "casimir_kdv_B_accepted.json"),
        ("u/(v+1)", 1, "casimir_kdv_B_rejected.json"),
    ],
)
def test_casimir_report_matches_golden(density, code, golden, capsys):
    """The rejected density leaves quotients as residuals, so this pins the
    normal forms that ``to_canonical`` renders, denominators included."""
    assert main(["--json", "casimir", "catalog:kdv_B", "--density", density]) == code
    out = capsys.readouterr().out
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


# the catalog listing, every entry's ``catalog show``, the export of every
# operator, pair and Lie entry, and the density and columns of every
# Casimir fixture's export, each file keyed by entry id
CATALOG_SHOW = json.loads((GOLDEN / "catalog_show.json").read_text(encoding="utf-8"))
CATALOG_EXPORT = json.loads((GOLDEN / "catalog_export.json").read_text(encoding="utf-8"))
CASIMIR_EXPORT = json.loads((GOLDEN / "catalog_casimir_export.json").read_text(encoding="utf-8"))


def _dumped(data):
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def test_catalog_goldens_cover_every_entry():
    entries = catalog.list_entries()
    assert sorted(CATALOG_SHOW) == [eid for eid, _, _ in entries]
    assert sorted(CATALOG_EXPORT) == [eid for eid, kind, _ in entries if kind != "casimir-fixture"]
    assert sorted(CASIMIR_EXPORT) == [eid for eid, kind, _ in entries if kind == "casimir-fixture"]


def test_catalog_list_matches_golden(capsys):
    assert main(["--json", "catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / "catalog_list.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("entry", sorted(CATALOG_SHOW))
def test_catalog_show_matches_golden(entry, capsys):
    assert main(["--json", "catalog", "show", entry]) == 0
    assert capsys.readouterr().out == _dumped(CATALOG_SHOW[entry])


@pytest.mark.parametrize("entry", sorted(CATALOG_EXPORT))
def test_catalog_export_matches_golden(entry, capsys):
    assert main(["catalog", "export", entry]) == 0
    assert capsys.readouterr().out == _dumped(CATALOG_EXPORT[entry])


@pytest.mark.parametrize("entry", sorted(CASIMIR_EXPORT))
def test_casimir_export_matches_golden(entry, capsys):
    assert main(["catalog", "export", entry]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {"density": doc["density"], "expect": doc["expect"]} == CASIMIR_EXPORT[entry]


def _structure(e, memo):
    """Structural serialisation of an ``Expr`` tree: node kinds, leaves and
    child order, with nothing normalised."""
    hit = memo.get(id(e))
    if hit is not None:
        return hit
    kind = type(e).__name__
    if isinstance(e, E.Rat):
        out = f"Q{e.value}"
    elif isinstance(e, (E.Var, E.Param, E.AlgConst)):
        out = f"{kind[0]}{e.name}"
    elif isinstance(e, E.Func):
        args = ",".join(_structure(a, memo) for a in e.args)
        out = f"F{e.name}{list(e.orders)}({args})"
    elif isinstance(e, (E.Add, E.Mul)):
        children = e.terms if isinstance(e, E.Add) else e.factors
        out = f"{kind}(" + ",".join(_structure(c, memo) for c in children) + ")"
    elif isinstance(e, E.Pow):
        out = f"Pow({_structure(e.base, memo)},{e.exp})"
    else:
        out = f"Div({_structure(e.num, memo)},{_structure(e.den, memo)})"
    memo[id(e)] = out
    return out


def test_residual_trees_match_golden(monkeypatch):
    """Every residual tree handed to ``ReportBuilder.add`` by the catalog
    checks, the torsion reports of the operators and the strong bi-pencil
    and Levi-Civita checks of the pairs, hashed as (condition id, index
    tuple, zero mode, tree structure).  Unlike the rendered reports, which
    show normalised residuals, this pins the term order of every sum."""
    digest = hashlib.sha256()
    count = 0
    add = ReportBuilder.add

    def recording(self, cid, indices, residual):
        nonlocal count
        count += 1
        tree = _structure(residual, {})
        digest.update(f"{cid}|{tuple(indices)}|{E.zero_mode() is not None}|{tree}\n".encode())
        return add(self, cid, indices, residual)

    monkeypatch.setattr(ReportBuilder, "add", recording)
    for eid, kind, _ in catalog.list_entries():
        catalog.verify(eid)
        payload = catalog.load(eid).payload
        if kind == "operator":
            op = payload["operator"]
            try:
                torsion_report(affinor_from_bivector(op.g, op.omega, op.ctx), op.ctx)
            except DegenerateMetric:
                pass
        elif kind == "pair":
            A, B = payload["A"], payload["B"]
            strong_bi_pencil_check(A, B)
            try:
                nondegenerate_decomposition(A)
            except DegenerateMetric:
                pass
        elif kind == "lie-structure" and "eta" in payload:
            ctx = payload["ctx"]
            torsion_report(affinor_from_lie(payload["lie"], payload["eta"], ctx), ctx)
    expected = (GOLDEN / "residual_trees.sha256").read_text(encoding="utf-8").split()
    assert [str(count), digest.hexdigest()] == expected
