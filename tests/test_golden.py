"""``ham --json`` reports compared byte for byte with the reports recorded in
tests/golden/, so that a change in how residuals are normalised cannot
change the text of a report."""

from pathlib import Path

import pytest

from hamops.cli import main

GOLDEN = Path(__file__).parent / "golden"

# entry -> exit code; broken_P_trace fails with nonzero residual texts
ENTRIES = {"kdv_self": 0, "pair_laplace": 0, "strong_3comp": 0, "broken_P_trace": 1}


@pytest.mark.parametrize("command", ["compat", "bipencil"])
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_json_report_matches_golden(command, entry, capsys):
    code = main(["--json", command, f"catalog:{entry}"])
    out = capsys.readouterr().out
    assert code == ENTRIES[entry]
    assert out == (GOLDEN / f"{command}_{entry}.json").read_text(encoding="utf-8")
