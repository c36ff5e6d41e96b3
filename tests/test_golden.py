"""``ham --json`` reports compared byte for byte with the reports recorded in
tests/golden/, so that a change in how residuals are assembled or normalised
cannot change the text of a report."""

from pathlib import Path

import pytest

from hamops import catalog
from hamops.cli import main

GOLDEN = Path(__file__).parent / "golden"
DATA = Path(__file__).parent / "data"

# entry -> exit code; broken_P_trace fails with nonzero residual texts
ENTRIES = {"kdv_self": 0, "pair_laplace": 0, "strong_3comp": 0, "broken_P_trace": 1}

OPERATORS = sorted(eid for eid, kind, _ in catalog.list_entries() if kind == "operator")


@pytest.mark.parametrize("command", ["compat", "bipencil"])
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_json_report_matches_golden(command, entry, capsys):
    code = main(["--json", command, f"catalog:{entry}"])
    out = capsys.readouterr().out
    assert code == ENTRIES[entry]
    assert out == (GOLDEN / f"{command}_{entry}.json").read_text(encoding="utf-8")


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
