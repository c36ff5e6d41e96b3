"""Command-line interface: subcommands, exit codes, JSON stability."""

import json

import pytest

from hamops import catalog, cli
from hamops.cli import main
from hamops.operators import pair_to_document


@pytest.fixture()
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


class TestCheck:
    def test_catalog_operator_passes(self, run):
        code, out, _ = run("check", "catalog:C_3_2")
        assert code == 0
        assert "verdict: pass" in out

    def test_compat_kdv_pair(self, run):
        code, out, _ = run("compat", "catalog:kdv_pair")
        assert code == 0
        assert "oracle-agreement" in out

    def test_failing_pair_exits_one(self, run):
        code, out, _ = run("compat", "catalog:broken_L")
        assert code == 1
        assert "schouten-L" in out

    def test_operator_document_from_file(self, run, tmp_path):
        doc = catalog.export("C_2_1")
        path = tmp_path / "op.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run("check", str(path))
        assert code == 0

    def test_unknown_catalog_id_is_a_usage_error(self, run):
        code, _, err = run("check", "catalog:nope")
        assert code == 2
        assert "nope" in err

    def test_pair_document_from_file(self, run, tmp_path):
        doc = catalog.export("kdv_pair")
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run("compat", str(path))
        assert code == 0
        code2, out2, _ = run("bipencil", str(path))
        assert code2 == 1  # second leading coefficient has rank two


    @pytest.mark.parametrize(
        "doc, message",
        [
            ([1, 2], "JSON object"),
            ({"n": 1, "variables": ["u"], "g": [[None]]}, "entry null of g"),
            (
                {"n": 2, "g": [["1", "0"], ["0", "1"]], "b": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0"]]]},
                "expected a 2x2x2 array",
            ),
            ({"n": 2, "g": [["1", "0"], ["0"]]}, "expected a 2x2 matrix"),
            ({"n": 2.5, "g": [["1", "0"], ["0", "1"]]}, "n must be an integer from 1 to 8"),
            ({"n": "2", "variables": ["u", "v"], "g": [["1", "0"], ["0", "1"]]}, "n must be an integer"),
            ({"n": True, "g": [["1"]]}, "n must be an integer"),
        ],
    )
    def test_malformed_document_is_a_usage_error(self, run, tmp_path, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run("check", str(path))
        assert code == 2
        assert out == ""
        assert message in err


class TestCasimir:
    def test_quadratic_density(self, run):
        code, out, _ = run(
            "casimir", "catalog:kdv_B", "--density", "(u-w)^2 - sqrt2*(u+w)"
        )
        assert code == 0

    def test_failing_density(self, run):
        code, out, _ = run("casimir", "catalog:kdv_B", "--density", "u")
        assert code == 1

    def test_column_selection(self, run):
        code, out, _ = run(
            "casimir", "catalog:kdv_B", "--density", "u + v", "--column", "C1"
        )
        assert code == 0

    def test_undeclared_identifier_is_a_usage_error(self, run):
        code, _, err = run("casimir", "catalog:kdv_B", "--density", "zz + 1")
        assert code == 2


class TestNijenhuis:
    def test_operator_torsion(self, run):
        code, out, _ = run("nijenhuis", "catalog:kdv_A")
        assert code == 1  # the affinor of this structure carries torsion
        assert "nijenhuis-torsion" in out

    def test_lie_document(self, run, tmp_path):
        doc = catalog.export("nilpotent6")
        path = tmp_path / "lie.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run("nijenhuis", "--lie", str(path))
        assert code == 0
        assert "nilpotency" in out

    def test_lie_document_with_metric(self, run, tmp_path):
        doc = {
            "n": 3,
            "c": [[1, 2, 3, "1"]],
            "f": [],
            "eta": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        }
        path = tmp_path / "lie.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run("nijenhuis", "--lie", str(path))
        assert code == 1
        assert "nijenhuis-torsion" in out

    def test_missing_target_is_a_usage_error(self, run):
        code, _, err = run("nijenhuis")
        assert code == 2

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"n": 3, "c": [[1, 2, 3, None]]}, "integer or a rational string"),
            ({"n": 3, "c": [[1, 9, 3, "1"]]}, "integers from 1 to 3"),
            ({"n": 3, "c": [[0, 2, 3, "1"]]}, "integers from 1 to 3"),
            ({"n": 3, "c": [[1, 2, 3, 0.5]]}, "integer or a rational string"),
            ({"n": 3, "c": [[1, 2, 3]]}, "3 indices and a value"),
            ({"n": 3, "f": [[1, 2, "1/0"]]}, "integer or a rational string"),
            ({"n": "3", "c": [[1, 2, 3, "1"]]}, "n must be an integer"),
            ({"n": 3, "eta": [["1", "0"], ["0", "1"]]}, "expected a 3x3 matrix"),
            ({"n": 3, "eta": [[None, "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}, "of eta"),
        ],
    )
    def test_malformed_lie_document_exits_two(self, run, tmp_path, doc, message):
        path = tmp_path / "lie.json"
        path.write_text(json.dumps(doc))
        code, out, err = run("nijenhuis", "--lie", str(path))
        assert code == 2
        assert out == ""
        assert message in err

    def test_lie_dimension_is_bounded_before_checking(self, run, tmp_path, monkeypatch):
        def must_not_run(*args):
            raise AssertionError("the check ran on a rejected document")

        monkeypatch.setattr(cli, "check_nijnonhom_conditions", must_not_run)
        path = tmp_path / "lie.json"
        path.write_text(json.dumps({"n": 40}))
        code, _, err = run("nijenhuis", "--lie", str(path))
        assert code == 2
        assert "n must be an integer from 1 to 8" in err


class TestBipencil:
    def test_nondegenerate_pair(self, run):
        code, out, _ = run("bipencil", "catalog:strong_2comp")
        assert code == 0

    def test_strong_flag(self, run):
        code, out, _ = run("bipencil", "catalog:strong_3comp", "--strong")
        assert code == 0
        assert "two-parameter" in out

    def test_degenerate_pair_reports_and_fails(self, run):
        code, out, _ = run("bipencil", "catalog:kdv_pair")
        assert code == 1
        assert "DegenerateMetric" in out


class TestCatalogCommand:
    def test_list(self, run):
        code, out, _ = run("catalog", "list")
        assert code == 0
        assert "kdv_pair" in out

    def test_show(self, run):
        code, out, _ = run("catalog", "show", "kdv_B")
        assert code == 0
        assert "rank 2" in out

    def test_verify(self, run):
        code, out, _ = run("catalog", "verify", "kdv_pair")
        assert code == 0

    def test_export_parses_as_json(self, run):
        code, out, _ = run("catalog", "export", "C_2_2")
        assert code == 0
        doc = json.loads(out)
        assert doc["omega"][0][1] == "f(v)/u"

    def test_missing_id(self, run):
        code, _, err = run("catalog", "show")
        assert code == 2


class TestGlobalFlags:
    def test_json_output_is_byte_identical_across_runs(self, run):
        code1, out1, _ = run("--json", "--seed", "5", "check", "catalog:C_2_1")
        code2, out2, _ = run("--json", "--seed", "5", "check", "catalog:C_2_1")
        assert code1 == code2 == 0
        assert out1 == out2
        data = json.loads(out1)
        assert data["verdict"] == "pass"
        assert data["timing_ms"] is None
        first = data["conditions"][0]
        assert set(first) >= {"id", "indices", "residual", "pass", "side_conditions"}

    def test_numeric_only_mode(self, run):
        code, out, _ = run("--numeric-only", "--seed", "3", "check", "catalog:C_3_5")
        assert code == 0
        code2, _, _ = run("--numeric-only", "--seed", "3", "compat", "catalog:broken_L")
        assert code2 == 1

    def test_numeric_only_json_stable(self, run):
        a = run("--numeric-only", "--seed", "9", "--json", "check", "catalog:C_2_2")
        b = run("--numeric-only", "--seed", "9", "--json", "check", "catalog:C_2_2")
        assert a[0] == b[0] == 0
        assert a[1] == b[1]

    def test_max_degree_guard(self, run, tmp_path):
        doc = {
            "n": 1,
            "variables": ["u"],
            "g": [["(u + 1)^9"]],
            "b": [[["0"]]],
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, _, err = run("--max-degree", "4", "check", str(path))
        assert code == 2
        assert "max-degree" in err
        code2, _, _ = run("check", str(path))
        assert code2 == 1  # parses fine without the guard; just not Hamiltonian
