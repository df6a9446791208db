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
                         StructureError, _fresh_id, _grid, _hom_violation,
                         _morphism, apply_code, class_record, classify,
                         enumerate_homs, identity_morphism, is_embedding,
                         is_homomorphism, is_surjection, require_valid,
                         validate)


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
    B' -> P; both contracts are asserted on construction.  The class's push
    builds P and validates it.
    """
    x = _check_1phep_span(span)
    c = span.left.target
    # position in C of each base image -> its position in B'
    f = dict(zip(span.left.positions, span.right.positions))
    obj, left_leg, right_leg, witness = _PUSHES[c.class_tag](
        c, span.right.target, f, c.index(x))
    if not is_surjection(left_leg):  # False for a non-homomorphism too
        raise _leg_error("1PHEP left leg is not a surjective hom", left_leg)
    if not is_embedding(right_leg):
        raise _leg_error("1PHEP right leg is not an embedding", right_leg)
    return PushoutSquare(span, obj, left_leg, right_leg, witness)


def _left_to(c: FiniteStructure, obj: FiniteStructure, f: dict, p: int) -> Morphism:
    """C -> obj: the base as into B', the new point to position p."""
    return _morphism(c, obj, tuple([f.get(w, p) for w in range(len(c.carrier))]))


def _adjoin(c: FiniteStructure, bp: FiniteStructure, f: dict,
            code: ExtensionCode, xp: str):
    """B' with the point xp adjoined by `code`, validated, and both legs into it."""
    obj = apply_code(bp, code, xp)
    require_valid(obj, "1PHEP pushout", constructed=True)
    nb = len(bp.carrier)
    return obj, _left_to(c, obj, f, nb), _morphism(bp, obj, tuple(range(nb)))


# Each push takes C, B', the map f from C's base positions to B' and the
# position xi of C's new point, and returns the pushout object, both legs and
# the witness.  f's keys are every position of C but xi.

def _push_graph(c, bp, f, xi):
    xp = _fresh_id("x*", set(bp.carrier))
    neighbors = tuple(bp.carrier[p]
                      for p in sorted({f[w] for w in f if c.table[xi][w]}))
    return (*_adjoin(c, bp, f, ExtensionCode(GRAPH, bp.carrier, neighbors), xp),
            {"case": "adjoin", "new_point": xp, "neighbors": neighbors})


def _push_poset(c, bp, f, xi):
    ct, bt, nb = c.table, bp.table, len(bp.carrier)
    lower = {f[w] for w in f if ct[w][xi]}
    upper = {f[w] for w in f if ct[xi][w]}
    shared = lower & upper
    if shared:
        if len(shared) != 1:
            raise InternalConsistencyError(
                f"collapse point between the down-set and up-set not unique: "
                f"{[bp.carrier[p] for p in sorted(shared)]}")
        y0 = next(iter(shared))
        require_valid(bp, "1PHEP pushout", constructed=True)
        return (bp, _left_to(c, bp, f, y0), identity_morphism(bp),
                {"case": "collapse", "collapse_point": bp.carrier[y0]})
    xp = _fresh_id("x*", set(bp.carrier))
    down = tuple(bp.carrier[p] for p in range(nb) if any(bt[p][w] for w in lower))
    up = tuple(bp.carrier[p] for p in range(nb) if any(bt[w][p] for w in upper))
    if set(down) & set(up):
        raise InternalConsistencyError(
            f"poset insertion broke antisymmetry at "
            f"{[y for y in down if y in set(up)]}")
    return (*_adjoin(c, bp, f, ExtensionCode(POSET, bp.carrier, (down, up)), xp),
            {"case": "insert", "new_point": xp})


def _push_metric(c, bp, f, xi):
    ct, bt = c.table, bp.table
    xp = _fresh_id("y*", set(bp.carrier))
    vec = tuple(min(ct[xi][w] + bt[f[w]][p] for w in f) for p in range(len(bp.carrier)))
    return (*_adjoin(c, bp, f, ExtensionCode(METRIC, bp.carrier, vec), xp),
            {"case": "adjoin", "new_point": xp, "distances": dict(zip(bp.carrier, vec))})


def _push_semilattice(c, bp, f, xi):
    """C modulo the congruence its base kernel generates; `quotient` validates."""
    base = sorted(f)
    ker = [(c.carrier[u], c.carrier[v])
           for u in base for v in base if f[u] == f[v] and u != v]
    theta = congruence_generated(c, ker)
    obj, nu = quotient(c, theta)
    right = {k: nu.positions[u] for u, k in f.items()}
    hit = set(right.values())
    if len(hit) != len(right):
        pairs = sorted((bp.carrier[k], obj.carrier[v]) for k, v in right.items())
        raise InternalConsistencyError(
            f"congruence fails to restrict to the kernel: {pairs}")
    right_leg = _morphism(bp, obj, tuple([right[k] for k in range(len(bp.carrier))]))
    obj_new = [e for k, e in enumerate(obj.carrier) if k not in hit]
    return obj, nu, right_leg, {"case": "quotient", "congruence": theta.blocks,
                                "new_point": obj_new[0] if obj_new else None}


_PUSHES = {GRAPH: _push_graph, POSET: _push_poset, METRIC: _push_metric,
           SEMILATTICE: _push_semilattice}


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
    table is built.  The class's fill builds the table: semilattices are
    glued by `meetglue.glue`, and `parts` is its ground decomposition;
    graphs, posets and metric spaces keep the hub's and each spoke's
    relations and add only those forced through the hub, and `parts` is None
    for them.  The last value holds, per spoke, the result carrier position
    of each spoke element.
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
    structure, parts = _FILLS[tag](hub, spokes, carrier, arms, max_elements)
    return structure, parts, [arm[1] for arm in arms]


# Each fill takes the hub, the spokes, the result carrier, the arms (spoke
# structure, result positions, base and fresh spoke indices) and the size
# ceiling, and returns the amalgam and its ground parts, or None.

def _fill_semilattice(hub, spokes, carrier, arms, max_elements):
    glued = meetglue.glue([(hub, hub.carrier), *spokes], carrier,
                          max_elements=max_elements)
    return glued.structure, glued.parts


def _hub_table(hub: FiniteStructure, m: int) -> list[list]:
    """The m x m blank table of the class, the hub's table in its corner."""
    t = class_record(hub.class_tag).blank(m)
    for i, row in enumerate(hub.table):
        t[i][:len(row)] = row
    return t


def _with_spokes(hub, carrier, t, arms) -> FiniteStructure:
    """The table `t` with each spoke's own relations written in."""
    for s, at, _, new in arms:
        st = s.table
        for k in new:
            for j, q in enumerate(at):
                t[at[k]][q] = st[k][j]
                t[q][at[k]] = st[j][k]
    return FiniteStructure(hub.class_tag, tuple(carrier), tuple(map(tuple, t)))


def _fill_graph(hub, spokes, carrier, arms, max_elements):
    """No edge is forced through the hub."""
    return _with_spokes(hub, carrier, _hub_table(hub, len(carrier)), arms), None


def _fill_poset(hub, spokes, carrier, arms, max_elements):
    """Order composition through the hub."""
    n, ht = len(hub.carrier), hub.table
    t = _hub_table(hub, len(carrier))
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
    obj = _with_spokes(hub, carrier, t, arms)
    for p in range(n, len(carrier)):
        for q in range(p):
            if t[p][q] and t[q][p]:
                raise InternalConsistencyError(
                    f"free poset amalgam broke antisymmetry at "
                    f"({carrier[q]}, {carrier[p]})")
    return obj, None


def _fill_metric(hub, spokes, carrier, arms, max_elements):
    """Min-plus routing through the hub."""
    n, ht = len(hub.carrier), hub.table
    t = _hub_table(hub, len(carrier))
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
    return _with_spokes(hub, carrier, t, arms), None


_FILLS = {GRAPH: _fill_graph, POSET: _fill_poset, METRIC: _fill_metric,
          SEMILATTICE: _fill_semilattice}


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

    A square whose leg is not a homomorphism fails first, with one failure
    naming the leg and the pair it does not preserve, and nothing is
    enumerated.  `PushoutSquare` has already checked that the square commutes.
    """
    for side, leg in (("left leg", sq.left_leg), ("right leg", sq.right_leg)):
        violation = _hom_violation(leg)
        if violation is not None:
            return OracleReport(False, 0, 0, ((side, violation, "not a homomorphism"),))
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

    Each cell of the class's table takes each of its record's test values.
    Metric structures draw their distances from `grid`, which the other
    classes ignore.  Deterministic order.
    """
    rec = class_record(class_tag)
    grid = _grid(rec, grid)
    out: list[FiniteStructure] = []
    for n in range(1, max_size + 1):
        carrier = tuple(f"q{i}" for i in range(n))
        cells = list(rec.cells(n))
        for vals in itertools.product(rec.test_values(n, grid), repeat=len(cells)):
            t = rec.blank(n)
            for (i, j), v in zip(cells, vals):
                t[i][j] = v
                if rec.symmetric:
                    t[j][i] = v
            s = FiniteStructure(class_tag, carrier, tuple(map(tuple, t)))
            if not rec.tests_screened or validate(s).ok:
                out.append(s)
    return out
