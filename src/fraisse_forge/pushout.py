"""Pushouts of one-point-extension spans, amalgamated free sums, semilattice
congruences, and the brute-force universal-property oracle."""

from __future__ import annotations

import collections
import itertools
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction

from . import meetglue
from .structures import (DEFAULT_HOM_BOUND_BITS, GRAPH, METRIC, POSET,
                         SEMILATTICE, BoundExceeded, ExtensionCode,
                         FiniteStructure, InternalConsistencyError, Morphism,
                         StructureError, _fresh_id, _hom_violation, _morphism,
                         apply_code, classify, enumerate_homs,
                         identity_morphism, is_embedding, is_homomorphism,
                         is_surjection, require_valid, validate)


@dataclass(frozen=True)
class Span:
    """Two morphisms out of a common apex."""

    left: Morphism
    right: Morphism

    def __post_init__(self):
        if self.left.source != self.right.source:
            raise StructureError("span legs must share their source")
        if self.left.source.class_tag != self.left.target.class_tag or \
                self.right.source.class_tag != self.right.target.class_tag:
            raise StructureError("span mixes structure classes")

    @property
    def apex(self) -> FiniteStructure:
        return self.left.source


@dataclass(frozen=True)
class PushoutSquare:
    span: Span
    object: FiniteStructure
    left_leg: Morphism   # span.left.target -> object
    right_leg: Morphism  # span.right.target -> object
    witness: dict = field(compare=False)

    def __post_init__(self):
        lhs = self.left_leg.compose(self.span.left).positions
        rhs = self.right_leg.compose(self.span.right).positions
        if lhs != rhs:
            k = next(k for k, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
            raise InternalConsistencyError(f"pushout square does not commute "
                                           f"at {self.span.apex.carrier[k]!r}")


def _one_point_over(ext: FiniteStructure, base_image: tuple[str, ...]) -> str:
    extra = [x for x in ext.carrier if x not in base_image]
    if len(extra) != 1:
        raise StructureError("not a one-point extension of the embedded base")
    return extra[0]


def _check_1phep_span(span: Span) -> str:
    if not is_embedding(span.left):
        raise StructureError("left span leg must be an embedding")
    if not is_surjection(span.right):
        raise StructureError("right span leg must be a surjection")
    return _one_point_over(span.left.target, span.left.image())


def _leg_error(what: str, leg: Morphism) -> InternalConsistencyError:
    """A failed leg check, naming the leg's kind and its hom violation."""
    return InternalConsistencyError(
        f"{what}: it is {classify(leg)!r}, hom violation at {_hom_violation(leg)}")


def pushout_1phep(span: Span) -> PushoutSquare:
    """Pushout of (B -> C one-point embedding, B ->> B') within the class.

    The witnessing square has a surjective left leg C -> P and an embedding
    B' -> P; both contracts are asserted on construction.
    """
    x = _check_1phep_span(span)
    b, c, bp = span.apex, span.left.target, span.right.target
    # position in C of each base image -> its position in B'
    f = dict(zip(span.left.positions, span.right.positions))
    xi = c.index(x)
    nb = len(bp.carrier)
    ct, bt = c.table, bp.table
    others = [w for w in range(len(c.carrier)) if w != xi]

    def left_to(obj: FiniteStructure, p: int) -> Morphism:
        """C -> obj: the base as into B', the new point to position p."""
        return _morphism(c, obj, tuple([f.get(w, p) for w in range(len(c.carrier))]))

    def adjoin(code: ExtensionCode, xp: str):
        """B' with the point xp adjoined by `code`, and both legs into it."""
        obj = apply_code(bp, code, xp)
        return obj, left_to(obj, nb), _morphism(bp, obj, tuple(range(nb)))

    tag = b.class_tag
    if tag == GRAPH:
        xp = _fresh_id("x*", set(bp.carrier))
        neighbors = tuple(bp.carrier[p]
                          for p in sorted({f[w] for w in others if ct[xi][w]}))
        obj, left_leg, right_leg = adjoin(
            ExtensionCode(GRAPH, bp.carrier, neighbors), xp)
        witness = {"case": "adjoin", "new_point": xp, "neighbors": neighbors}
    elif tag == POSET:
        lower = {f[w] for w in others if ct[w][xi]}
        upper = {f[w] for w in others if ct[xi][w]}
        shared = lower & upper
        if shared:
            if len(shared) != 1:
                raise InternalConsistencyError(
                    f"collapse point between the down-set and up-set not unique: "
                    f"{[bp.carrier[p] for p in sorted(shared)]}")
            y0 = next(iter(shared))
            obj, left_leg, right_leg = bp, left_to(bp, y0), identity_morphism(bp)
            witness = {"case": "collapse", "collapse_point": bp.carrier[y0]}
        else:
            xp = _fresh_id("x*", set(bp.carrier))
            down = tuple(bp.carrier[p] for p in range(nb)
                         if any(bt[p][w] for w in lower))
            up = tuple(bp.carrier[p] for p in range(nb)
                       if any(bt[w][p] for w in upper))
            if set(down) & set(up):
                raise InternalConsistencyError(
                    f"poset insertion broke antisymmetry at "
                    f"{[y for y in down if y in set(up)]}")
            obj, left_leg, right_leg = adjoin(
                ExtensionCode(POSET, bp.carrier, (down, up)), xp)
            witness = {"case": "insert", "new_point": xp}
    elif tag == METRIC:
        xp = _fresh_id("y*", set(bp.carrier))
        vec = tuple(min(ct[xi][w] + bt[f[w]][p] for w in others) for p in range(nb))
        obj, left_leg, right_leg = adjoin(
            ExtensionCode(METRIC, bp.carrier, vec), xp)
        witness = {"case": "adjoin", "new_point": xp,
                   "distances": dict(zip(bp.carrier, vec))}
    else:
        base = sorted(f)
        ker = [(c.carrier[u], c.carrier[v])
               for u in base for v in base if f[u] == f[v] and u != v]
        theta = congruence_generated(c, ker)
        obj, nu = quotient(c, theta)
        right = dict(zip(span.right.positions,
                         (nu.positions[u] for u in span.left.positions)))
        hit = set(right.values())
        if len(hit) != len(right):
            pairs = sorted((bp.carrier[k], obj.carrier[v]) for k, v in right.items())
            raise InternalConsistencyError(
                f"congruence fails to restrict to the kernel: {pairs}")
        right_leg = _morphism(bp, obj, tuple([right[k] for k in range(nb)]))
        left_leg = nu
        obj_new = [e for k, e in enumerate(obj.carrier) if k not in hit]
        witness = {"case": "quotient", "congruence": theta.blocks,
                   "new_point": obj_new[0] if obj_new else None}
    if tag != SEMILATTICE:  # `quotient` validated it
        require_valid(obj, "1PHEP pushout", constructed=True)
    if not is_surjection(left_leg):  # False for a non-homomorphism too
        raise _leg_error("1PHEP left leg is not a surjective hom", left_leg)
    if not is_embedding(right_leg):
        raise _leg_error("1PHEP right leg is not an embedding", right_leg)
    return PushoutSquare(span, obj, left_leg, right_leg, witness)


# ---------------------------------------------------------------------------
# Amalgamated free sums (strict AP)
# ---------------------------------------------------------------------------

def free_amalgam(hub: FiniteStructure, spokes, max_elements: int | None = None
                 ) -> tuple[FiniteStructure, dict[str, tuple[str, ...]] | None,
                            list[tuple[int, ...]]]:
    """Free amalgam of the spokes over their shared hub.

    Each spoke is `(structure, ids)`: `ids[i]` names spoke element i in the
    result, a hub id where the spoke meets the hub (those points must form an
    induced copy of the hub's) and a fresh id otherwise.  The carrier is the
    hub's followed by the fresh ids in spoke order.  A result over
    `max_elements` is refused with `meetglue.SizeCeilingExceeded` before any
    table is built.  Semilattices are glued by `meetglue.glue`, and `parts`
    is its ground decomposition.  Graphs, posets and metric spaces keep the
    hub's and each spoke's relations and add only those forced through the
    hub: none for graphs, order composition for posets, min-plus routing for
    metric spaces; `parts` is None for them.  The last value holds, per
    spoke, the result carrier position of each spoke element.
    """
    tag = hub.class_tag
    n = len(hub.carrier)
    pos = {x: i for i, x in enumerate(hub.carrier)}
    carrier = list(hub.carrier)
    arms = []  # per spoke: structure, result positions, base and fresh spoke indices
    for s, ids in spokes:
        if s.class_tag != tag:
            raise StructureError("spoke class differs from the hub's")
        for x in ids:
            if x not in pos:
                pos[x] = len(carrier)
                carrier.append(x)
            elif pos[x] >= n:
                raise StructureError(f"fresh id {x!r} named twice")
        at = tuple([pos[x] for x in ids])
        arms.append((s, at, [k for k, p in enumerate(at) if p < n],
                     [k for k, p in enumerate(at) if p >= n]))
    m = len(carrier)
    if max_elements is not None and m > max_elements:
        # For semilattices the ground carrier only bounds the glued size below.
        raise meetglue.SizeCeilingExceeded(max_elements, m)
    if tag == SEMILATTICE:
        glued = meetglue.glue([(hub, hub.carrier), *spokes], carrier,
                              max_elements=max_elements)
        return glued.structure, glued.parts, [arm[1] for arm in arms]
    zero = Fraction(0) if tag == METRIC else False
    t = [list(row) + [zero] * (m - n) for row in hub.table] + \
        [[zero] * m for _ in range(m - n)]
    ht = hub.table
    if tag == POSET:
        up = [sum(1 << h for h in range(n) if ht[b][h]) for b in range(n)]
        down = [sum(1 << h for h in range(n) if ht[h][b]) for b in range(n)]
        fresh = []  # (spoke number, position, hub up-set, hub down-set)
        for a, (s, at, base, new) in enumerate(arms):
            st = s.table
            for k in new:
                ux = dx = 0
                for kb in base:
                    if st[k][kb]:
                        ux |= up[at[kb]]
                    if st[kb][k]:
                        dx |= down[at[kb]]
                row = t[at[k]]
                for h in range(n):
                    row[h] = bool(ux >> h & 1)
                    t[h][at[k]] = bool(dx >> h & 1)
                fresh.append((a, at[k], ux, dx))
        for a, p, ux, _ in fresh:
            for b, q, _, dy in fresh:
                if a != b:
                    t[p][q] = bool(ux & dy)
    elif tag == METRIC:
        fresh = []  # (spoke number, position, (hub position, distance) per base point)
        for a, (s, at, base, new) in enumerate(arms):
            st = s.table
            for k in new:
                via = [(at[kb], st[k][kb]) for kb in base]
                row = t[at[k]]
                for h in range(n):
                    row[h] = t[h][at[k]] = min(d + ht[q][h] for q, d in via)
                fresh.append((a, at[k], via))
        for i, (a, p, _) in enumerate(fresh):
            row = t[p]
            for b, q, via in fresh[i + 1:]:
                if a != b:
                    row[q] = t[q][p] = min(row[r] + d for r, d in via)
    for s, at, _, new in arms:
        st = s.table
        for k in new:
            for j, q in enumerate(at):
                t[at[k]][q] = st[k][j]
                t[q][at[k]] = st[j][k]
    if tag == POSET:
        for p in range(n, m):
            for q in range(p):
                if t[p][q] and t[q][p]:
                    raise InternalConsistencyError(
                        f"free poset amalgam broke antisymmetry at "
                        f"({carrier[q]}, {carrier[p]})")
    return (FiniteStructure(tag, tuple(carrier), tuple(map(tuple, t))), None,
            [arm[1] for arm in arms])


def amalgamated_sum(span: Span) -> PushoutSquare:
    """Free amalgamated sum of two embeddings out of a common base.

    The right leg's target is the hub of a `free_amalgam` and keeps its
    carrier ids in the result; fresh elements coming from the left target are
    renamed only on collision.  Both result legs are embeddings (asserted).
    """
    if not is_embedding(span.left) or not is_embedding(span.right):
        raise StructureError("amalgamated sum needs two embeddings")
    y, z = span.left.target, span.right.target
    into_z = dict(zip(span.left.positions, span.right.positions))
    taken = set(z.carrier)
    ids = []
    for k, e in enumerate(y.carrier):
        if k in into_z:
            ids.append(z.carrier[into_z[k]])
        else:
            ids.append(_fresh_id(e, taken))
            taken.add(ids[-1])
    obj, parts, (at,) = free_amalgam(z, [(y, tuple(ids))])
    left_leg = _morphism(y, obj, at)
    right_leg = _morphism(z, obj, tuple(range(len(z.carrier))))
    require_valid(obj, "amalgamated sum", constructed=True)
    for side, leg in (("left", left_leg), ("right", right_leg)):
        if not is_embedding(leg):
            raise _leg_error(f"amalgamated sum {side} leg is not an embedding", leg)
    return PushoutSquare(span, obj, left_leg, right_leg,
                         {"case": "glue", "parts": parts})


# ---------------------------------------------------------------------------
# Semilattice congruences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Congruence:
    structure: FiniteStructure
    blocks: tuple[tuple[str, ...], ...]


def congruence_generated(s: FiniteStructure, pairs) -> Congruence:
    """Least meet-compatible partition of `s` containing all given pairs.

    Union-find plus the closure rule a~b => a^c ~ b^c, iterated to fixpoint.
    """
    if s.class_tag != SEMILATTICE:
        raise StructureError("congruences are defined for semilattices")
    n = len(s.carrier)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j) -> bool:
        ri, rj = find(i), find(j)
        if ri == rj:
            return False
        parent[max(ri, rj)] = min(ri, rj)
        return True

    for u, v in pairs:
        union(s.index(u), s.index(v))
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(i + 1, n):
                if find(i) == find(j):
                    for c in range(n):
                        if union(s.table[i][c], s.table[j][c]):
                            changed = True
    groups: dict[int, list[str]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(s.carrier[i])
    blocks = tuple(tuple(groups[r]) for r in sorted(groups))
    return Congruence(s, blocks)


def quotient(s: FiniteStructure, c: Congruence) -> tuple[FiniteStructure, Morphism]:
    """Blockwise quotient semilattice and the natural surjection onto it.

    Each block is named after its earliest member in carrier order.  The
    table is read off `s` in one pass, which also checks that every choice of
    members gives the same block.
    """
    if c.structure != s:
        raise StructureError("congruence does not belong to this structure")
    block_ix = {x: k for k, b in enumerate(c.blocks) for x in b}
    if not all(c.blocks) or sum(map(len, c.blocks)) != len(s.carrier) \
            or block_ix.keys() != set(s.carrier):
        raise StructureError("congruence blocks do not partition the carrier")
    block = [block_ix[x] for x in s.carrier]
    n = len(c.blocks)
    table: list[list[int | None]] = [[None] * n for _ in range(n)]
    for i, row in enumerate(s.table):
        out = table[block[i]]
        for j, w in enumerate(row):
            k, have = block[w], out[block[j]]
            if have is None:
                out[block[j]] = k
            elif have != k:
                raise InternalConsistencyError(
                    f"blockwise meet ill-defined at ({s.carrier[i]}, {s.carrier[j]})")
    obj = FiniteStructure(SEMILATTICE, tuple([b[0] for b in c.blocks]),
                          tuple(map(tuple, table)))
    require_valid(obj, "quotient", constructed=True)
    return obj, _morphism(s, obj, tuple(block))


# ---------------------------------------------------------------------------
# Universal-property oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleReport:
    passed: bool
    objects_tested: int
    cocones_checked: int
    failures: tuple = ()
    skipped: tuple = ()

    def __bool__(self):
        return self.passed


def _forced_mediating(sq: PushoutSquare, j1: Morphism, j2: Morphism) -> Morphism | None:
    """The unique candidate u with u.left_leg = j1, u.right_leg = j2, if the
    legs cover the pushout carrier; None if some value stays unforced or the
    legs disagree.  It only names a failed cocone."""
    values: list[int | None] = [None] * len(sq.object.carrier)
    for leg, j in ((sq.left_leg, j1), (sq.right_leg, j2)):
        for p, want in zip(leg.positions, j.positions):
            have = values[p]
            if have is None:
                values[p] = want
            elif have != want:
                return None
    if None in values:
        return None
    return _morphism(sq.object, j1.target, tuple(values))


@lru_cache(maxsize=65536)
def _homs_cached(x: FiniteStructure, y: FiniteStructure,
                 bound_bits: int) -> tuple[Morphism, ...]:
    return tuple(enumerate_homs(x, y, bound_bits))


def _picker(idx):
    """The entries of a tuple at positions `idx`, as a tuple."""
    if len(idx) > 1:
        return operator.itemgetter(*idx)
    # itemgetter of a single position returns the entry, not a tuple
    return lambda t: tuple([t[i] for i in idx])


def verify_universal_property(sq: PushoutSquare, test_objects,
                              bound_bits: int = DEFAULT_HOM_BOUND_BITS) -> OracleReport:
    """Check the pushout's universal property against each test object.

    For every commuting cocone (j1, j2) there must exist exactly one mediating
    morphism u, found among the enumerated homomorphisms out of the pushout
    object by its restrictions along the two legs; the count alone decides.
    Where the legs cover the carrier a mediator is the map they force, so a
    failure is labelled "forced/enumerated mismatch" when that forced map is
    a homomorphism, and by its count of mediating morphisms otherwise.
    """
    c = sq.left_leg.source
    bp = sq.right_leg.source
    on_left = _picker(sq.left_leg.positions)
    on_right = _picker(sq.right_leg.positions)
    apex_of_c = _picker(sq.span.left.positions)
    apex_of_bp = _picker(sq.span.right.positions)
    cocones = 0
    failures = []
    skipped = []
    tested = 0
    for q in test_objects:
        try:
            homs_c = _homs_cached(c, q, bound_bits)
            homs_bp = _homs_cached(bp, q, bound_bits)
            homs_p = _homs_cached(sq.object, q, bound_bits)
        except BoundExceeded as e:
            skipped.append((q.carrier, str(e)))
            continue
        tested += 1
        # Count the candidate mediators by their leg restrictions and index
        # the cocone halves by their apex restriction, all as position tuples
        # in q: the cocone scan is then a pair of dictionary lookups.
        mediating = collections.Counter(
            [(on_left(u.positions), on_right(u.positions)) for u in homs_p])
        bp_by_apex: dict[tuple, list[Morphism]] = {}
        for j2 in homs_bp:
            bp_by_apex.setdefault(apex_of_bp(j2.positions), []).append(j2)
        for j1 in homs_c:
            jp = j1.positions
            for j2 in bp_by_apex.get(apex_of_c(jp), ()):
                cocones += 1
                count = mediating[jp, j2.positions]
                if count != 1:
                    forced = _forced_mediating(sq, j1, j2)
                    label = ("forced/enumerated mismatch"
                             if forced is not None and is_homomorphism(forced)
                             else f"{count} mediating morphisms")
                    failures.append((q.carrier, j1.mapping, j2.mapping, label))
    return OracleReport(not failures, tested, cocones,
                        tuple(failures), tuple(skipped))


# ---------------------------------------------------------------------------
# Test-object catalogs for the oracle
# ---------------------------------------------------------------------------

def all_structures(class_tag: str, max_size: int,
                   grid: tuple[Fraction, ...] | None = None) -> list[FiniteStructure]:
    """Every structure of the class on canonical carriers q0..q{k-1}, k <= max_size.

    Metric structures draw their distances from `grid`.  Deterministic order.
    """
    out: list[FiniteStructure] = []
    for n in range(1, max_size + 1):
        carrier = tuple(f"q{i}" for i in range(n))
        pairs = list(itertools.combinations(range(n), 2))
        if class_tag == GRAPH:
            for mask in itertools.product((False, True), repeat=len(pairs)):
                t = [[False] * n for _ in range(n)]
                for (i, j), m in zip(pairs, mask):
                    t[i][j] = t[j][i] = m
                out.append(FiniteStructure(GRAPH, carrier, tuple(map(tuple, t))))
        elif class_tag == POSET:
            cells = [(i, j) for i in range(n) for j in range(n) if i != j]
            for mask in itertools.product((False, True), repeat=len(cells)):
                t = [[i == j for j in range(n)] for i in range(n)]
                for (i, j), m in zip(cells, mask):
                    t[i][j] = m
                s = FiniteStructure(POSET, carrier, tuple(map(tuple, t)))
                if validate(s).ok:
                    out.append(s)
        elif class_tag == METRIC:
            if not grid:
                raise StructureError("metric test objects require a grid")
            gvals = tuple(sorted(Fraction(g) for g in grid))
            for vals in itertools.product(gvals, repeat=len(pairs)):
                t = [[Fraction(0)] * n for _ in range(n)]
                for (i, j), v in zip(pairs, vals):
                    t[i][j] = t[j][i] = v
                s = FiniteStructure(METRIC, carrier, tuple(map(tuple, t)))
                if validate(s).ok:
                    out.append(s)
        else:
            for vals in itertools.product(range(n), repeat=len(pairs)):
                t = [[0] * n for _ in range(n)]
                for i in range(n):
                    t[i][i] = i
                for (i, j), v in zip(pairs, vals):
                    t[i][j] = t[j][i] = v
                s = FiniteStructure(SEMILATTICE, carrier, tuple(map(tuple, t)))
                if validate(s).ok:
                    out.append(s)
    return out
