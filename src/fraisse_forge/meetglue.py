"""Gluing semilattices along shared subalgebras.

The glued object is computed in exact normal form: every element corresponds to
a *closed up-set* of the ground poset (the union of the spoke carriers with
the transitive closure of their orders).  A set of ground elements is closed if
it is upward closed and closed under meets taken inside any single spoke.
The meet of two elements is the closure of the union of their up-sets; the
canonical name of an element is the antichain of minimal ground elements of its
up-set.  Up-sets are represented as bitmasks over the ground.
"""

from __future__ import annotations

from dataclasses import dataclass

from .structures import (SEMILATTICE, FiniteStructure, InternalConsistencyError,
                         StructureError)


class SizeCeilingExceeded(StructureError):
    def __init__(self, ceiling: int, reached: int):
        super().__init__(f"free amalgam exceeds {ceiling} elements "
                         f"(at least {reached} found)")
        self.ceiling = ceiling
        self.reached = reached


@dataclass(frozen=True)
class GlueResult:
    structure: FiniteStructure
    # canonical decomposition: carrier id -> minimal ground elements whose meet it is
    parts: dict[str, tuple[str, ...]]


def _members(mask: int) -> list[int]:
    """Positions of the set bits of `mask`, lowest first."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def glue(spokes: list[tuple[FiniteStructure, tuple[str, ...]]],
         ground_order: list[str], max_elements: int | None = None) -> GlueResult:
    """Free meet-semilattice generated by the spokes over the glued ground.

    Each spoke is `(structure, ids)`, a semilattice whose element i is the
    ground element `ids[i]`; `free_amalgam` passes its hub first, as
    `(hub, hub.carrier)`.  `ground_order` fixes the carrier position of the
    ground elements; composite elements follow, sorted by their canonical id.
    The enumeration records the meet of each pair of elements when it closes
    that pair, and the meet table is filled once from those records.
    """
    n = len(ground_order)
    pos = {g: i for i, g in enumerate(ground_order)}
    if len(pos) != n:
        raise InternalConsistencyError("ground ids are not distinct")

    # Ground order as up-set bitmasks: union of the spoke orders, then
    # transitively closed (Warshall's rule on bitmasks).
    up = [1 << i for i in range(n)]
    spoke_meets: list[tuple[int, dict[tuple[int, int], int]]] = []
    for s, ids in spokes:
        gi = [pos[g] for g in ids]
        meets = {}
        for i, a in enumerate(gi):
            for j, b in enumerate(gi):
                w = meets[(a, b)] = gi[s.table[i][j]]
                if w == a:
                    up[a] |= 1 << b
        spoke_meets.append((sum(1 << a for a in set(gi)), meets))
    for k in range(n):
        bit, above = 1 << k, up[k]
        for i in range(n):
            if up[i] & bit:
                up[i] |= above
    for i in range(n):
        for j in _members(up[i] & ~((2 << i) - 1)):  # every j > i above i
            if (up[j] >> i) & 1:
                raise InternalConsistencyError(
                    f"glued ground order not antisymmetric at "
                    f"({ground_order[i]}, {ground_order[j]})")

    closure_cache: dict[int, int] = {}

    def close(mask: int) -> int:
        cached = closure_cache.get(mask)
        if cached is not None:
            return cached
        m = 0
        for g in _members(mask):
            m |= up[g]
        changed = True
        while changed:
            changed = False
            for bits, meets in spoke_meets:
                members = _members(m & bits)
                for ai in range(len(members)):
                    for bi in range(ai + 1, len(members)):
                        w = meets[(members[ai], members[bi])]
                        if not (m >> w) & 1:
                            m |= up[w]
                            changed = True
        closure_cache[mask] = m
        return m

    # Enumerate all elements: singleton closures, then close under pairwise
    # meets.  `low[i][j]` is the element index of the meet of elements i and
    # j for j <= i.
    elems = [close(1 << i) for i in range(n)]
    index_of = {m: i for i, m in enumerate(elems)}
    if len(index_of) != n:
        raise InternalConsistencyError("distinct ground elements collapsed")
    low: list[list[int]] = []
    i = 0
    while i < len(elems):
        row = []
        for j in range(i):
            m = close(elems[i] | elems[j])
            k = index_of.get(m)
            if k is None:
                if max_elements is not None and len(elems) >= max_elements:
                    raise SizeCeilingExceeded(max_elements, len(elems) + 1)
                k = index_of[m] = len(elems)
                elems.append(m)
            row.append(k)
        row.append(i)
        low.append(row)
        i += 1
    closure_cache.clear()  # dead from here on; freed before the table is built

    def minimal_antichain(mask: int) -> list[int]:
        above = 0
        for g in _members(mask):
            above |= up[g] & ~(1 << g)
        return _members(mask & ~above)

    antichains = [minimal_antichain(m) for m in elems]
    names = [ground_order[a[0]] if len(a) == 1 else
             "(" + "^".join(sorted(ground_order[g] for g in a)) + ")"
             for a in antichains]
    order = list(range(n)) + sorted(range(n, len(elems)), key=names.__getitem__)
    carrier = tuple(names[e] for e in order)
    if len(set(carrier)) != len(carrier):
        raise InternalConsistencyError("canonical element names collide")
    rank = [0] * len(elems)
    for p, e in enumerate(order):
        rank[e] = p

    # Rows in element order, so that each row of `low` is freed once read
    # for the last time and the table never sits next to all of `low`.
    rows = []
    for e in range(len(elems)):
        full = low[e] + [low[f][e] for f in range(e + 1, len(elems))]
        low[e] = []
        rows.append(tuple([rank[full[f]] for f in order]))
    structure = FiniteStructure(SEMILATTICE, carrier, tuple([rows[e] for e in order]))
    parts = {names[e]: tuple(ground_order[g] for g in antichains[e]) for e in order}
    return GlueResult(structure, parts)
