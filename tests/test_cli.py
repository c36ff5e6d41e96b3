"""Command-line interface: subcommands, exit codes, JSON stability."""

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hamops
from hamops import catalog, cli
from hamops.cli import main
from hamops.operators import pair_to_document


OMEGA_2 = [["0", "u1"], ["-u1", "0"]]


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
            # a present field is checked even when it is empty or falsy
            ({"n": 2, "g": 0, "omega": OMEGA_2}, "g must be nested lists of entries"),
            ({"n": 2, "g": "", "omega": OMEGA_2}, "g must be nested lists of entries"),
            ({"n": 2, "g": False, "omega": OMEGA_2}, "g must be nested lists of entries"),
            ({"n": 2, "g": [], "omega": OMEGA_2}, "expected a 2x2 matrix"),
            ({"n": 2, "g": {}, "omega": OMEGA_2}, "g must be nested lists of entries"),
            ({"n": 2, "variables": 0, "omega": OMEGA_2}, "variables must be a list of names"),
            ({"n": 2, "parameters": "", "omega": OMEGA_2}, "parameters must be a list of names"),
            ({"n": 2, "assumptions": 0, "omega": OMEGA_2}, "assumptions must be a list"),
            (
                {"n": 2, "algebraic_constants": [{"name": "s", "min_poly": "s^2 - 2", "gradient": "x"}]},
                "gradient of s must be an object keyed by declared variables",
            ),
            (
                {"n": 2, "algebraic_constants": [{"name": "s", "min_poly": "s^2 - 2", "gradient": {"q": "1"}}]},
                "gradient of s must be an object keyed by declared variables",
            ),
            (
                {"variables": [f"x{i}" for i in range(9)], "omega": [["0"] * 9 for _ in range(9)]},
                "component count 9 exceeds 8",
            ),
            ({}, "declares no component"),
            ({"variables": []}, "declares no component"),
            ({"n": 1, "algebraic_constants": [{"name": "s", "min_poly": "s^2 - 4"}]}, "reducible"),
        ],
    )
    def test_malformed_document_is_a_usage_error(self, run, tmp_path, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run("check", str(path))
        assert code == 2
        assert out == ""
        assert message in err

    def test_pair_document_without_components_is_a_usage_error(self, run, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"A": {}, "B": {}}))
        code, out, err = run("compat", str(path))
        assert code == 2
        assert out == ""
        assert "declares no component" in err


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

    @pytest.mark.parametrize("entry_id", ["heisenberg3", "nilpotent6", "sl2_like"])
    def test_lie_export_reproduces_the_recorded_verdicts(self, run, tmp_path, entry_id):
        """``nijenhuis --lie`` on an entry's export decides what ``catalog
        verify`` records for it: the algebraic conditions always, and the
        torsion of the exported metric when the entry has one."""
        path = tmp_path / "lie.json"
        path.write_text(json.dumps(catalog.export(entry_id)))
        code, out, _ = run("--json", "nijenhuis", "--lie", str(path))
        verdicts = {}
        for cond in json.loads(out)["conditions"]:
            assert cond["id"] in ("nilpotency", "cocycle-action", "nijenhuis-torsion")
            name = "torsion-vanishes" if cond["id"] == "nijenhuis-torsion" else "torsion-conditions"
            verdicts[name] = verdicts.get(name, True) and cond["pass"]
        expected = catalog.load(entry_id).expected
        assert verdicts == expected
        assert code == (0 if all(expected.values()) else 1)

    def test_missing_target_is_a_usage_error(self, run):
        code, _, err = run("nijenhuis")
        assert code == 2

    def test_target_with_lie_document_is_a_usage_error(self, run, tmp_path):
        path = tmp_path / "lie.json"
        path.write_text(json.dumps(catalog.export("heisenberg3")))
        code, out, err = run("nijenhuis", "catalog:kdv_A", "--lie", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("ham: ") and "not both" in err

    def test_lie_document_is_validated_without_the_degree_bound(self, run, tmp_path):
        path = tmp_path / "lie.json"
        path.write_text(json.dumps(catalog.export("heisenberg3")))
        code, out, err = run("--max-degree", "0", "nijenhuis", "--lie", str(path))
        assert code == 0, err
        assert "verdict: pass" in out

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
            ({"n": 3, "c": [[1, 2, 3, "1"]], "eta": []}, "expected a 3x3 matrix"),
            ({"n": 3, "c": 0}, "c must be a list of entries"),
            ({"n": 3, "c": [[1, 2, 3, "1"]], "f": ""}, "f must be a list of entries"),
            ({"c": [[1, 2, 3, "1"]]}, "n must be an integer"),
            ({"n": 3, "c": [[1, 2, 3, "1"], [1, 3, 1, "1"]]}, "Jacobi identity"),
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

    @pytest.mark.parametrize(
        "entry, column",
        [
            (eid, column)
            for eid, kind, _ in catalog.list_entries()
            if kind == "casimir-fixture"
            for column in catalog.load(eid).expected
        ],
    )
    def test_casimir_export_reproduces_its_verdicts(self, run, entry, column):
        """``ham casimir`` on the exported operator, density and column gives
        the verdict the fixture records."""
        _, out, _ = run("catalog", "export", entry)
        doc = json.loads(out)
        assert doc["operator"] == f"catalog:{entry}"
        code, _, _ = run("casimir", doc["operator"], "--density", doc["density"], "--column", column)
        assert code == (0 if doc["expect"][column] else 1)

    def test_listing_and_show_build_no_entry(self, run, monkeypatch):
        def refuse():
            raise AssertionError("catalog entry built")

        for eid, entry in list(catalog._ENTRIES.items()):
            monkeypatch.setitem(catalog._ENTRIES, eid, dataclasses.replace(entry, build=refuse))
        with pytest.raises(AssertionError, match="built"):
            catalog.load("C_2_1").payload
        entries = catalog.list_entries()
        assert len(entries) == len(catalog._ENTRIES)
        for eid, kind, _ in entries:
            code, out, _ = run("--json", "catalog", "show", eid)
            assert code == 0
            assert json.loads(out)["kind"] == kind


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


class TestIdentifiers:
    @pytest.mark.parametrize("name", ["D", "u v", "1x", ""])
    def test_name_the_parser_cannot_read_back_is_refused(self, run, tmp_path, name):
        """A residual that names a declared symbol must parse back, and ``D``
        is reserved for jets."""
        path = tmp_path / "op.json"
        path.write_text(json.dumps({"variables": [name, "v"], "g": [["1", "0"], ["0", "1"]]}))
        code, out, err = run("check", str(path))
        assert code == 2
        assert out == ""
        assert err == f"ham: {name!r} is not a valid identifier\n"


SRC = Path(hamops.__file__).resolve().parents[1]


def _ham_process(*argv, code=None):
    """Run ``python -m hamops.cli`` (or ``python -c code``) in a fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = ["-c", code] if code is not None else ["-m", "hamops.cli", *argv]
    return subprocess.run(
        [sys.executable, *command], capture_output=True, text=True, env=env, timeout=120
    )


class TestDeepInput:
    """Input nested beyond the interpreter's recursion limit is a usage error,
    not a crash, and importing hamops leaves that limit alone."""

    @pytest.mark.parametrize(
        "block, text, code",
        [
            ("g", "(" * 200 + "1" + ")" * 200, 0),
            ("g", "(" * 20000 + "1" + ")" * 20000, 2),
            ("omega", "f(" * 3000 + "v" + ")" * 3000, 2),
        ],
        ids=["parentheses-200", "parentheses-20000", "applications-3000"],
    )
    def test_nested_entry(self, tmp_path, block, text, code):
        doc = catalog.export("C_2_1")
        doc[block][0][0] = text
        path = tmp_path / "op.json"
        path.write_text(json.dumps(doc))
        result = _ham_process("check", str(path))
        assert result.returncode == code
        if code == 2:
            assert result.stdout == ""
            assert result.stderr.startswith("ham: ")
            assert result.stderr.count("\n") == 1

    def test_nested_applications_are_checked_in_time(self, tmp_path):
        """A ring computes each atom's sort key once, so 150 nested
        applications in omega are checked far inside two seconds; rendering
        the keys again at every ordering cost about the cube of the depth."""
        doc = catalog.export("C_2_1")
        nested = "f(" * 150 + "v" + ")" * 150
        doc["omega"][0][1], doc["omega"][1][0] = nested, f"-({nested})"
        path = tmp_path / "op.json"
        path.write_text(json.dumps(doc))
        started = time.perf_counter()
        result = _ham_process("check", str(path))
        assert result.returncode == 0, result.stderr
        assert time.perf_counter() - started < 2.0

    def test_import_leaves_the_recursion_limit_alone(self):
        result = _ham_process(
            code="import sys; a = sys.getrecursionlimit(); import hamops.cli; "
            "print(a, sys.getrecursionlimit())"
        )
        assert result.returncode == 0
        before, after = result.stdout.split()
        assert before == after


STDLIB_ONLY = """
import contextlib, io, json, sys
before = {name.partition(".")[0] for name in sys.modules}
from hamops.cli import main
for mode in ([], ["--numeric-only"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--json", *mode, "check", "catalog:C_3_8"]) == 0
loaded = {name.partition(".")[0] for name in sys.modules} - before
print(json.dumps(sorted(loaded - set(sys.stdlib_module_names) - {"hamops"})))
"""


def test_a_check_loads_only_the_standard_library():
    """The library is stdlib-only at run time, in exact and in numeric mode.
    Modules that site hooks loaded before ``import hamops`` do not count."""
    result = _ham_process(code=STDLIB_ONLY)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []


# command -> the catalog export it mutates: an operator with g, b, omega and
# f on two components, a two-component pair, and a Lie structure
FUZZ_BASES = {
    ("check",): catalog.export("C_2_2"),
    ("compat",): catalog.export("broken_P_linear"),
    ("nijenhuis", "--lie"): catalog.export("sl2_like"),
}


def _paths(node, prefix=()):
    """Every position in a JSON document: entries and declaration fields."""
    if prefix:
        yield prefix
    if isinstance(node, dict):
        children = sorted(node.items())
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-9, 9) | st.floats(-9, 9) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
EXPRESSIONS = st.text(alphabet="uvwfxD_0123456789+-*/^(), ", max_size=24)


@pytest.mark.parametrize("command", sorted(FUZZ_BASES), ids=lambda command: command[0])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_document_gets_a_report_or_a_usage_error(command, data):
    """Exit 1 comes with a rendered report and exit 2 with a ``ham:`` line,
    whatever one entry or declaration field of an operator, pair or Lie
    document is replaced by."""
    doc = json.loads(json.dumps(FUZZ_BASES[command]))
    path = data.draw(st.sampled_from(list(_paths(doc))))
    value = data.draw(JSON_VALUES | EXPRESSIONS)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "doc.json"
        target.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--max-degree", "8", *command, str(target)])
    assert code in (0, 1, 2)
    if code == 1:
        assert "\nverdict: FAIL\n" in out.getvalue()
    if code == 2:
        assert err.getvalue().startswith("ham: ")
