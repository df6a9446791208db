"""Canonical JSON documents and DOT export for finite structures.

The JSON document format is {"class": ..., "carrier": [names], "table": ...}
with a class-specific table: adjacency pairs [i, j] for graphs, strict
less-or-equal pairs [i, j] for posets (reflexivity implied), distance triples
[i, j, "p/q"] for metric spaces, and meet triples [i, j, k] for semilattices
(diagonal implied).  Serialization is canonical: indices i < j, rows sorted,
sorted keys, compact separators, one trailing newline.  Decoding accepts
only canonical documents (rows sorted and each listed once, distances in
lowest terms), but checks the document, not its whitespace or key order:
parse then serialize is byte-identical only for text in `dumps` layout.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .structures import (CLASS_TAGS, GRAPH, METRIC, POSET, SEMILATTICE,
                         FiniteStructure, StructureError, require_valid)


def to_document(s: FiniteStructure) -> dict:
    n = len(s.carrier)
    if s.class_tag == GRAPH:
        table = [[i, j] for i in range(n) for j in range(i + 1, n) if s.table[i][j]]
    elif s.class_tag == POSET:
        table = [[i, j] for i in range(n) for j in range(n)
                 if i != j and s.table[i][j]]
    elif s.class_tag == METRIC:
        table = [[i, j, str(s.table[i][j])]
                 for i in range(n) for j in range(i + 1, n)]
    else:
        table = [[i, j, s.table[i][j]] for i in range(n) for j in range(i + 1, n)]
    return {"class": s.class_tag, "carrier": list(s.carrier), "table": table}


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
    if tag not in CLASS_TAGS:
        raise StructureError(f"unknown class {tag!r}")
    if not isinstance(carrier, list) or not all(isinstance(x, str) for x in carrier):
        raise StructureError("carrier must be a list of strings")
    carrier = tuple(carrier)
    n = len(carrier)
    width = 2 if tag in (GRAPH, POSET) else 3
    if not isinstance(rows, list) or not all(
            isinstance(row, list) and len(row) == width for row in rows):
        raise StructureError(f"{tag} table must be a list of {width}-entry rows")

    indices = 3 if tag == SEMILATTICE else 2
    for row in rows:
        for i in row[:indices]:
            # bool is an int subclass, but `true` is not a canonical index
            if type(i) is not int or not 0 <= i < n:
                raise StructureError(f"index {i!r} out of range")
    if tag == GRAPH:
        t = [[False] * n for _ in range(n)]
        for i, j in rows:
            t[i][j] = t[j][i] = True
    elif tag == POSET:
        t = [[i == j for j in range(n)] for i in range(n)]
        for i, j in rows:
            t[i][j] = True
    elif tag == METRIC:
        t = [[Fraction(0)] * n for _ in range(n)]
        for i, j, d in rows:
            if not isinstance(d, str):
                raise StructureError(f"distance {d!r} is not a \"p/q\" string")
            try:
                t[i][j] = t[j][i] = Fraction(d)
            except (ValueError, ZeroDivisionError):
                raise StructureError(
                    f"distance {d!r} is not a rational number") from None
            if str(t[i][j]) != d:
                raise StructureError(f"distance {d!r} is not written {str(t[i][j])!r}")
    else:
        t = [[i if i == j else None for j in range(n)] for i in range(n)]
        for i, j, k in rows:
            t[i][j] = t[j][i] = k
    # Only the rows that `to_document` writes decode, each in its place.
    pairs = [(row[0], row[1]) for row in rows]
    if any(p >= q for p, q in zip(pairs, pairs[1:])) or any(
            i == j or (tag != POSET and i > j) for i, j in pairs):
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


def _order_matrix(s: FiniteStructure) -> list[list[bool]]:
    n = len(s.carrier)
    if s.class_tag == POSET:
        return [list(row) for row in s.table]
    return [[s.table[i][j] == i for j in range(n)] for i in range(n)]


def _hasse_edges(leq) -> list[tuple[int, int]]:
    n = len(leq)
    edges = []
    for i in range(n):
        for j in range(n):
            if i == j or not leq[i][j]:
                continue
            if any(k != i and k != j and leq[i][k] and leq[k][j] for k in range(n)):
                continue
            edges.append((i, j))
    return edges


def to_dot(s: FiniteStructure) -> str:
    """DOT text: plain graph for graphs, Hasse diagram for posets.

    Semilattices export the Hasse diagram of their induced order (a poset
    view); metric spaces have no DOT form.
    """
    if s.class_tag == METRIC:
        raise StructureError("metric spaces have no DOT export; use json")
    n = len(s.carrier)
    lines = []
    if s.class_tag == GRAPH:
        lines.append("graph {")
        for x in s.carrier:
            lines.append(f'  "{x}";')
        for i in range(n):
            for j in range(i + 1, n):
                if s.table[i][j]:
                    lines.append(f'  "{s.carrier[i]}" -- "{s.carrier[j]}";')
    else:
        lines.append("digraph {")
        lines.append("  rankdir=BT;")
        for x in s.carrier:
            lines.append(f'  "{x}";')
        for i, j in _hasse_edges(_order_matrix(s)):
            lines.append(f'  "{s.carrier[i]}" -> "{s.carrier[j]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
