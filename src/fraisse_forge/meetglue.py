"""Gluing semilattices along shared subalgebras.

The glued object is computed in exact normal form: every element corresponds to
a *closed up-set* of the ground poset (the union of the component carriers with
the transitive closure of their orders).  A set of ground elements is closed if
it is upward closed and closed under meets taken inside any single component.
The meet of two elements is the closure of the union of their up-sets; the
canonical name of an element is the antichain of minimal ground elements of its
up-set.  Up-sets are represented as bitmasks over the ground.
"""

from __future__ import annotations

from dataclasses import dataclass

from .structures import (SEMILATTICE, FiniteStructure, InternalConsistencyError,
                         StructureError)


@dataclass(frozen=True)
class GlueComponent:
    """One semilattice participating in a glue, with carrier ids renamed to ground ids."""

    ids: tuple[str, ...]
    meet: tuple[tuple[int, ...], ...]  # component-local meet table

    @staticmethod
    def from_structure(s: FiniteStructure, ids: tuple[str, ...] | None = None
                       ) -> "GlueComponent":
        """`ids[i]` is the ground id of carrier element i (default: its own id)."""
        if s.class_tag != SEMILATTICE:
            raise InternalConsistencyError("glue components must be semilattices")
        return GlueComponent(tuple(s.carrier if ids is None else ids), s.table)


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


def glue(components: list[GlueComponent], ground_order: list[str],
         max_elements: int | None = None) -> GlueResult:
    """Free meet-semilattice generated by the components over the glued ground.

    `ground_order` fixes the carrier position of the ground elements; composite
    elements follow, sorted by their canonical id.
    """
    n = len(ground_order)
    pos = {g: i for i, g in enumerate(ground_order)}
    if len(pos) != n:
        raise InternalConsistencyError("ground ids are not distinct")

    # Ground partial order: union of component orders, transitively closed.
    leq = [[i == j for j in range(n)] for i in range(n)]
    comp_meet: list[dict[tuple[int, int], int]] = []
    comp_bits: list[int] = []
    for comp in components:
        gi = [pos[g] for g in comp.ids]
        table = {}
        bits = 0
        for a in gi:
            bits |= 1 << a
        for i, a in enumerate(gi):
            for j, b in enumerate(gi):
                w = gi[comp.meet[i][j]]
                table[(a, b)] = w
                if w == a:
                    leq[a][b] = True
        comp_meet.append(table)
        comp_bits.append(bits)
    for k in range(n):
        lk = leq[k]
        for i in range(n):
            if leq[i][k]:
                li = leq[i]
                for j in range(n):
                    if lk[j]:
                        li[j] = True
    for i in range(n):
        for j in range(i + 1, n):
            if leq[i][j] and leq[j][i]:
                raise InternalConsistencyError(
                    f"glued ground order not antisymmetric at "
                    f"({ground_order[i]}, {ground_order[j]})")

    up = [0] * n
    for i in range(n):
        for j in range(n):
            if leq[i][j]:
                up[i] |= 1 << j

    comp_pairs = []
    for bits, table in zip(comp_bits, comp_meet):
        comp_pairs.append((bits, table))

    closure_cache: dict[int, int] = {}

    def close(mask: int) -> int:
        cached = closure_cache.get(mask)
        if cached is not None:
            return cached
        m = 0
        mm = mask
        while mm:
            b = mm & -mm
            m |= up[b.bit_length() - 1]
            mm ^= b
        changed = True
        while changed:
            changed = False
            for bits, table in comp_pairs:
                sel = m & bits
                members = []
                mm = sel
                while mm:
                    b = mm & -mm
                    members.append(b.bit_length() - 1)
                    mm ^= b
                for ai in range(len(members)):
                    for bi in range(ai + 1, len(members)):
                        w = table[(members[ai], members[bi])]
                        if not (m >> w) & 1:
                            m |= up[w]
                            changed = True
        closure_cache[mask] = m
        return m

    # Enumerate all elements: singleton closures, then close under pairwise meets.
    elems: list[int] = []
    index_of: dict[int, int] = {}
    for i in range(n):
        m = close(1 << i)
        if m in index_of:
            raise InternalConsistencyError("distinct ground elements collapsed")
        index_of[m] = len(elems)
        elems.append(m)
    i = 0
    while i < len(elems):
        for j in range(i):
            m = close(elems[i] | elems[j])
            if m not in index_of:
                if max_elements is not None and len(elems) >= max_elements:
                    raise SizeCeilingExceeded(max_elements, len(elems) + 1)
                index_of[m] = len(elems)
                elems.append(m)
        i += 1

    def minimal_antichain(mask: int) -> tuple[int, ...]:
        members = []
        mm = mask
        while mm:
            b = mm & -mm
            members.append(b.bit_length() - 1)
            mm ^= b
        return tuple(g for g in members
                     if not any(h != g and leq[h][g] for h in members))

    def name(mask: int) -> str:
        anti = minimal_antichain(mask)
        if len(anti) == 1:
            return ground_order[anti[0]]
        return "(" + "^".join(sorted(ground_order[g] for g in anti)) + ")"

    names = {m: name(m) for m in elems}
    ground_masks = [close(1 << i) for i in range(n)]
    composite = sorted((m for m in elems if m not in set(ground_masks)),
                       key=lambda m: names[m])
    ordered = ground_masks + composite
    carrier = tuple(names[m] for m in ordered)
    if len(set(carrier)) != len(carrier):
        raise InternalConsistencyError("canonical element names collide")
    slot = {m: i for i, m in enumerate(ordered)}
    table = tuple(tuple(slot[close(a | b)] for b in ordered) for a in ordered)
    structure = FiniteStructure(SEMILATTICE, carrier, table)
    parts = {names[m]: tuple(ground_order[g] for g in minimal_antichain(m))
             for m in ordered}
    return GlueResult(structure, parts)
