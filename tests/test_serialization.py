"""Canonical JSON documents and DOT export."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraisse_forge import CLASS_TAGS, StructureError, validate
from fraisse_forge.presets import (antichain, chain, edgeless_graph,
                                   free_semilattice, graph_from_edges,
                                   semilattice_from_meets, simplex)
from fraisse_forge.serialization import (dumps, from_document, loads,
                                         to_document, to_dot)

SAMPLES = [
    edgeless_graph(1),
    graph_from_edges("abc", [("a", "b"), ("b", "c")]),
    antichain(3),
    chain(3),
    simplex(3, Fraction(5, 2)),
    free_semilattice(2),
    semilattice_from_meets("abc", {("a", "b"): "c", ("a", "c"): "c",
                                   ("b", "c"): "c"}),
]


class TestRoundTrip:
    @pytest.mark.parametrize("s", SAMPLES, ids=lambda s: s.class_tag)
    def test_loads_dumps_identity(self, s):
        assert loads(dumps(s)) == s

    @pytest.mark.parametrize("s", SAMPLES, ids=lambda s: s.class_tag)
    def test_serialize_parse_serialize_byte_identical(self, s):
        text = dumps(s)
        assert dumps(loads(text)) == text

    def test_canonical_shape(self):
        text = dumps(graph_from_edges("ab", [("a", "b")]))
        assert text.endswith("\n") and ": " not in text
        doc = json.loads(text)
        assert set(doc) == {"class", "carrier", "table"}
        assert doc["table"] == [[0, 1]]

    def test_metric_distances_are_exact_strings(self):
        doc = to_document(simplex(2, Fraction(1, 3)))
        assert doc["table"] == [[0, 1, "1/3"]]
        assert loads(json.dumps(doc)).dist("v0", "v1") == Fraction(1, 3)


class TestBadDocuments:
    def test_unknown_class(self):
        with pytest.raises(StructureError):
            from_document({"class": "ring", "carrier": ["a"], "table": []})

    def test_missing_key(self):
        with pytest.raises(StructureError):
            from_document({"class": "graph", "carrier": ["a"]})

    def test_duplicate_carrier(self):
        with pytest.raises(StructureError, match=r"duplicate carrier ids at \('a',\)"):
            from_document({"class": "graph", "carrier": ["a", "a"], "table": []})

    def test_graph_loop(self):
        with pytest.raises(StructureError):
            from_document({"class": "graph", "carrier": ["a"], "table": [[0, 0]]})

    def test_index_out_of_range(self):
        with pytest.raises(StructureError):
            from_document({"class": "graph", "carrier": ["a", "b"],
                           "table": [[0, 7]]})

    def test_semilattice_missing_meet(self):
        with pytest.raises(StructureError, match=r"out of range at \('a', 'b'\)"):
            from_document({"class": "semilattice", "carrier": ["a", "b"],
                           "table": []})

    def test_invalid_decoded_structure(self):
        # antisymmetry violation: a <= b and b <= a with a != b
        with pytest.raises(StructureError,
                           match=r"order not antisymmetric at \('a', 'b'\)"):
            from_document({"class": "poset", "carrier": ["a", "b"],
                           "table": [[0, 1], [1, 0]]})

    @pytest.mark.parametrize("doc", [
        {"class": "graph", "carrier": ["a"], "table": [[0]]},
        {"class": "poset", "carrier": ["a", "b"], "table": "01"},
        {"class": "metric", "carrier": ["a", "b"], "table": [[0, 1, "x"]]},
        {"class": "metric", "carrier": ["a", "b"], "table": [[0, 1, "1/0"]]},
        {"class": "metric", "carrier": ["a", "b"], "table": [[0, 1, 1]]},
        {"class": "semilattice", "carrier": ["a", "b"], "table": [[0, 1, True]]},
        {"class": "graph", "carrier": "ab", "table": []},
    ], ids=["short-row", "string-table", "distance-x", "distance-1/0",
            "distance-not-string", "bool-index", "string-carrier"])
    def test_strict_decoding(self, doc):
        with pytest.raises(StructureError):
            from_document(doc)

    def test_not_json(self):
        with pytest.raises(StructureError):
            loads("{")

    def test_metric_triangle_violation(self):
        with pytest.raises(StructureError,
                           match=r"triangle inequality violated at \('b', 'a', 'c'\)"):
            from_document({"class": "metric", "carrier": ["a", "b", "c"],
                           "table": [[0, 1, "1"], [0, 2, "1"], [1, 2, "5"]]})


FUZZ_SAMPLES = SAMPLES + [simplex(2), simplex(4, Fraction(2, 3))]
DISTANCES = ("0", "1", "2", "3", "1/2", "2/4", "5/2", "-1", "0.5", "1e0", " 1")


@st.composite
def mutated_documents(draw):
    """The canonical text of a sample's document after a few row edits and
    edits of the document around the table."""
    s = draw(st.sampled_from(FUZZ_SAMPLES))
    rows = [list(row) for row in to_document(s)["table"]]
    n = len(s.carrier)
    index = st.integers(0, n)  # n itself is out of range
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(
            ("flip", "swap", "drop", "duplicate", "entry", "distance")))
        if edit == "flip" and s.class_tag in ("graph", "poset"):
            # toggle a pair: remove its row, or add one in sorted place
            pair = [draw(index), draw(index)]
            if pair in rows:
                rows.remove(pair)
            else:
                rows = sorted(rows + [pair])
        elif rows:
            k = draw(st.integers(0, len(rows) - 1))
            if edit in ("flip", "swap"):
                rows[k][0], rows[k][1] = rows[k][1], rows[k][0]
            elif edit == "drop":
                del rows[k]
            elif edit == "duplicate":
                rows.insert(k, list(rows[k]))
            elif edit == "entry" or s.class_tag != "metric":
                rows[k][draw(st.integers(0, len(rows[k]) - 1))] = draw(index)
            else:
                rows[k][2] = draw(st.sampled_from(DISTANCES))
    doc = {"class": s.class_tag, "carrier": list(s.carrier), "table": rows}
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(("repeat-id", "non-string-id", "extra-key",
                                     "swap-class")))
        k = draw(st.integers(0, n - 1))
        if edit == "repeat-id":
            doc["carrier"][k] = doc["carrier"][draw(st.integers(0, n - 1))]
        elif edit == "non-string-id":
            doc["carrier"][k] = draw(st.sampled_from((k, None, ["v0"])))
        elif edit == "extra-key":
            doc[draw(st.sampled_from(("name", "Class", "")))] = "x"
        else:
            doc["class"] = draw(st.sampled_from(CLASS_TAGS))
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


class TestFuzzDecoding:
    @settings(max_examples=400, deadline=None)
    @given(mutated_documents())
    def test_decodes_canonically_or_refuses(self, text):
        try:
            s = loads(text)
        except StructureError:
            return
        assert validate(s).ok and dumps(s) == text

    @pytest.mark.parametrize("doc", [
        {"class": "graph", "carrier": ["a", "b"], "table": [[1, 0]]},
        {"class": "graph", "carrier": ["a", "b"], "table": [[0, 1], [0, 1]]},
        {"class": "poset", "carrier": ["a", "b"], "table": [[0, 0]]},
        {"class": "poset", "carrier": ["a", "b", "c"],
         "table": [[1, 2], [0, 1], [0, 2]]},
        {"class": "metric", "carrier": ["a", "b"], "table": [[0, 1, "2/4"]]},
        {"class": "metric", "carrier": ["a", "b"], "table": [[0, 1, "0.5"]]},
        {"class": "semilattice", "carrier": ["a", "b"],
         "table": [[0, 1, 0], [1, 0, 0]]},
        {"class": "graph", "carrier": ["a"], "table": [], "name": "g"},
    ], ids=["reversed-pair", "repeated-row", "diagonal-row", "unsorted-rows",
            "distance-2/4", "distance-0.5", "both-orders", "extra-key"])
    def test_non_canonical_refused(self, doc):
        with pytest.raises(StructureError):
            from_document(doc)


class TestDot:
    def test_edgeless_graph(self):
        dot = to_dot(edgeless_graph(2))
        assert dot.startswith("graph {")
        assert dot.count('"v0"') == 1 and dot.count('"v1"') == 1
        assert "--" not in dot

    def test_graph_edges(self):
        dot = to_dot(graph_from_edges("ab", [("a", "b")]))
        assert '"a" -- "b";' in dot

    def test_poset_hasse_skips_transitive_edge(self):
        dot = to_dot(chain(3))
        assert dot.count("->") == 2

    def test_semilattice_chain_hasse(self):
        s = semilattice_from_meets("abc", {("a", "b"): "b", ("a", "c"): "c",
                                           ("b", "c"): "c"})
        dot = to_dot(s)
        assert '"c" -> "b";' in dot and '"b" -> "a";' in dot
        assert dot.count("->") == 2

    def test_metric_refused(self):
        with pytest.raises(StructureError):
            to_dot(simplex(2))
