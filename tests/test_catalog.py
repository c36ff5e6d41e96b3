"""Catalog integrity: every entry reproduces its recorded verdicts, documents
round-trip, and the stored systems connect through the recorded substitution."""

import pytest

from hamops import catalog, expr as E
from hamops.expr import parse
from hamops.operators import operator_from_document, pair_from_document


ALL_ENTRIES = catalog.list_entries()


class TestEntries:
    @pytest.mark.parametrize("entry_id", [eid for eid, _, _ in ALL_ENTRIES])
    def test_entry_reproduces_recorded_verdicts(self, entry_id):
        assert catalog.verify(entry_id).verdict, entry_id

    def test_unknown_id(self):
        with pytest.raises(catalog.UnknownEntryError):
            catalog.load("no_such_entry")

    def test_full_appendix_coverage(self):
        ids = {eid for eid, kind, _ in ALL_ENTRIES if kind == "operator"}
        for required in (
            "C_2_1", "C_2_2", "C_3_1", "C_3_2", "C_3_3", "C_3_4", "C_3_5",
            "C_3_6", "C_3_7", "C_3_8", "C_3_9", "C_3_10", "C_3_11",
        ):
            assert required in ids

    def test_pair_fixture_roster_is_large_enough(self):
        pairs = [eid for eid, kind, _ in ALL_ENTRIES if kind == "pair"]
        assert len(pairs) >= 12
        broken = [eid for eid in pairs if eid.startswith("broken") or eid == "flat_pair_P"]
        assert len(broken) >= 3


class TestLoadedShapes:
    def test_c22_coefficients(self):
        op = catalog.load("C_2_2").payload["operator"]
        ctx = op.ctx
        assert E.equal(op.g[0][0], E.ONE, ctx)
        assert E.equal(op.g[1][1], E.ZERO, ctx)
        assert E.equal(op.b[0][1][1], parse("-1/u", ctx), ctx)
        assert E.equal(op.b[1][0][1], parse("1/u", ctx), ctx)
        assert E.equal(op.omega[0][1], parse("f(v)/u", ctx), ctx)

    def test_c35_coefficients(self):
        op = catalog.load("C_3_5").payload["operator"]
        ctx = op.ctx
        assert E.equal(op.b[0][1][1], parse("-1/u", ctx), ctx)
        assert E.equal(op.b[0][2][2], parse("-1/u", ctx), ctx)
        assert E.equal(op.b[1][0][1], parse("1/u", ctx), ctx)
        assert E.equal(op.b[2][0][2], parse("1/u", ctx), ctx)

    def test_ultralocal_blocks_of_the_scaled_pair_are_proportional(self):
        c32 = catalog.load("C_3_2").payload["operator"]
        c35 = catalog.load("C_3_5").payload["operator"]
        ctx = c35.ctx
        for i in range(3):
            for j in range(3):
                scaled = E.mul(parse("1/u", ctx), c32.omega[i][j])
                assert E.equal(c35.omega[i][j], scaled, ctx)


class TestExport:
    @pytest.mark.parametrize("entry_id", ["C_2_2", "C_3_8", "sinh_gordon", "kdv_A"])
    def test_operator_export_reloads_and_passes(self, entry_id):
        from hamops.hamiltonian import is_hamiltonian

        doc = catalog.export(entry_id)
        op = operator_from_document(doc)
        assert is_hamiltonian(op).verdict

    def test_pair_export_reloads(self):
        doc = catalog.export("kdv_pair")
        A, B = pair_from_document(doc)
        from hamops.compatibility import check_compatible

        assert check_compatible(A, B).verdict

    def test_lie_export(self):
        doc = catalog.export("nilpotent6")
        assert doc["n"] == 6
        assert sorted(tuple(row[:3]) for row in doc["c"]) == [(4, 5, 2), (4, 6, 3), (5, 6, 1)]

    def test_casimir_export(self):
        doc = catalog.export("cas.kdv_B.full")
        assert doc["expect"] == {"C10": True}


class TestSystemChange:
    def test_substitution_connects_the_two_presentations(self):
        ctx, V1, W1, sub, V2, W2 = catalog.kdv_systems()
        Vp, Wp = catalog.transform_system(ctx, V1, W1, sub)
        for i in range(3):
            assert E.equal(Wp[i], W2[i], ctx), ("W", i)
            for j in range(3):
                assert E.equal(Vp[i][j], V2[i][j], ctx), ("V", i, j)

    def test_quoted_orientation_differs_by_the_derivative_sign(self):
        # flipping the sign of the derivative block reproduces the quoted
        # presentation; the substitution itself forces the stored orientation
        ctx, V1, W1, sub, V2, W2 = catalog.kdv_systems()
        Vp, _ = catalog.transform_system(ctx, V1, W1, sub)
        for i in range(3):
            for j in range(3):
                quoted = E.neg(V2[i][j])
                if not E.is_identically_zero(V2[i][j], ctx):
                    assert not E.equal(Vp[i][j], quoted, ctx)

    def test_substitution_is_unimodular(self):
        from hamops.operators import determinant

        ctx, _, _, sub, _, _ = catalog.kdv_systems()
        J = tuple(
            tuple(E.differentiate(sub[i], ctx.variables[j], ctx) for j in range(3))
            for i in range(3)
        )
        assert E.equal(determinant(J), E.ONE, ctx)
