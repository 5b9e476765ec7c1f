import json

import pytest

from pglab.errors import BNotFixed, ParseError
from pglab.polyadic import as_table
from pglab.serialize import (
    group_from_doc,
    group_to_doc,
    load_polyadic,
    polyadic_from_doc,
    polyadic_to_doc,
)
from pglab.catalog import catalog_group


class TestGroupDocs:
    def test_roundtrip(self):
        g = catalog_group("D4")
        assert group_from_doc(group_to_doc(g)).table == g.table

    def test_rejects_wrong_kind(self):
        with pytest.raises(ParseError):
            group_from_doc({"kind": "polyadic"})

    def test_rejects_shifted_identity(self):
        doc = {"kind": "group", "order": 2, "table": [[1, 0], [0, 1]]}
        from pglab.errors import NoIdentityAtZero

        with pytest.raises(NoIdentityAtZero):
            group_from_doc(doc)


class TestPolyadicDocs:
    def test_derived_roundtrip(self, structs):
        p = structs["T9"]
        q = polyadic_from_doc(polyadic_to_doc(p))
        assert q == p

    def test_table_roundtrip(self, structs):
        p = as_table(structs["T2b"])
        q = polyadic_from_doc(polyadic_to_doc(p))
        assert q == p

    def test_flat_index_convention(self, structs):
        # last argument varies fastest
        doc = polyadic_to_doc(as_table(structs["T4inv"]))
        flat = doc["presentation"]["flat"]
        p = structs["T4inv"]
        assert flat[(1 * 4 + 2) * 4 + 3] == p.eval([1, 2, 3])

    def test_rejects_bad_constant(self, structs):
        doc = polyadic_to_doc(structs["T9"])
        doc["presentation"]["b"] = 99
        with pytest.raises(ParseError):
            polyadic_from_doc(doc)

    def test_derived_gates_run_on_load(self, structs):
        doc = polyadic_to_doc(structs["T9"])
        doc["presentation"]["b"] = 1  # inversion does not fix 1
        with pytest.raises(BNotFixed):
            polyadic_from_doc(doc)

    def test_rejects_short_table(self):
        doc = {
            "kind": "polyadic",
            "arity": 3,
            "presentation": {"type": "table", "order": 2, "flat": [0, 1]},
        }
        with pytest.raises(ParseError):
            polyadic_from_doc(doc)

    @pytest.mark.parametrize("cell", [True, False, 0.0, "0"])
    def test_rejects_non_integer_cells(self, structs, cell):
        # a JSON true or false is not the cell 1 or 0
        doc = polyadic_to_doc(as_table(structs["T2"]))
        doc["presentation"]["flat"][0] = cell
        with pytest.raises(ParseError, match="integers"):
            polyadic_from_doc(json.loads(json.dumps(doc)))


class TestFileLoading:
    def test_load(self, tmp_path, structs):
        path = tmp_path / "t3.json"
        path.write_text(json.dumps(polyadic_to_doc(structs["T3"])))
        assert load_polyadic(path) == structs["T3"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_polyadic(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_polyadic(path)
