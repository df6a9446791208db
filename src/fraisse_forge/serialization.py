"""Canonical JSON documents and DOT export for finite structures.

The JSON document format is {"class": ..., "carrier": [names], "table": ...}
with a class-specific list of rows, which the class record writes and reads
(see `structures.RECORDS`): adjacency pairs [i, j] for graphs, strict
less-or-equal pairs [i, j] for posets, distance triples [i, j, "p/q"] for
metric spaces, and meet triples [i, j, k] for semilattices; the diagonal is
implied.  Serialization is canonical: indices i < j where the table is
symmetric, rows sorted, sorted keys, compact separators, one trailing
newline.  Decoding accepts only canonical documents (rows sorted and each
listed once, distances in lowest terms), but checks the document, not its
whitespace or key order: parse then serialize is byte-identical only for
text in `dumps` layout.
"""

from __future__ import annotations

import json

from .structures import (RECORDS, FiniteStructure, StructureError, class_record,
                         require_valid)


def to_document(s: FiniteStructure) -> dict:
    rec = RECORDS[s.class_tag]
    return {"class": s.class_tag, "carrier": list(s.carrier),
            "table": rec.rows(s.table, rec.cells(len(s.carrier)))}


def from_document(doc: dict) -> FiniteStructure:
    """Decode a structure document; any malformed document raises StructureError.

    Decoding checks what building the table needs and the canonical order;
    the gate `require_valid` checks the rest, distinct ids among it.
    """
    try:
        tag = doc["class"]
        carrier = doc["carrier"]
        rows = doc["table"]
    except (KeyError, TypeError) as e:
        raise StructureError(f"malformed structure document: {e}")
    if set(doc) != {"class", "carrier", "table"}:
        raise StructureError("structure document has keys beyond class, carrier, table")
    rec = class_record(tag)
    if not isinstance(carrier, list) or not all(isinstance(x, str) for x in carrier):
        raise StructureError("carrier must be a list of strings")
    carrier = tuple(carrier)
    n = len(carrier)
    width, indices = rec.row_shape
    if not isinstance(rows, list) or not all(
            isinstance(row, list) and len(row) == width for row in rows):
        raise StructureError(f"{tag} table must be a list of {width}-entry rows")
    for row in rows:
        for i in row[:indices]:
            # bool is an int subclass, but `true` is not a canonical index
            if type(i) is not int or not 0 <= i < n:
                raise StructureError(f"index {i!r} out of range")
    t = rec.blank(n)
    rec.read_rows(t, rows)
    # Only the rows that `to_document` writes decode, each in its place.
    pairs = [(row[0], row[1]) for row in rows]
    if any(p >= q for p, q in zip(pairs, pairs[1:])) or any(
            i == j or (rec.symmetric and i > j) for i, j in pairs):
        raise StructureError(f"{tag} table rows are not in canonical order")
    s = FiniteStructure(tag, carrier, tuple(map(tuple, t)))
    require_valid(s, "document")
    return s


def dumps(s: FiniteStructure) -> str:
    return json.dumps(to_document(s), sort_keys=True, separators=(",", ":")) + "\n"


def loads(text: str) -> FiniteStructure:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise StructureError(f"not a JSON document: {e}") from None
    return from_document(doc)


def to_dot(s: FiniteStructure) -> str:
    """DOT text: plain graph for graphs, Hasse diagram for posets.

    Semilattices export the Hasse diagram of their induced order (a poset
    view); metric spaces have no DOT form.  The class record writes the lines.
    """
    dot = RECORDS[s.class_tag].dot
    if dot is None:
        raise StructureError(f"{s.class_tag} structures have no DOT export; use json")
    return "\n".join(dot(s) + ["}"]) + "\n"
