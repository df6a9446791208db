"""Exact finite structures: graphs, posets, rational metric spaces, meet-semilattices.

Carriers are ordered tuples of string ids; every enumeration and canonical code
follows carrier order, so all operations are deterministic.  Metric distances
are `fractions.Fraction` throughout -- no floats anywhere.  What each class
means is stated once, in its `ClassRecord`; the operations below look the
record up by class tag and never branch on the tag.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

GRAPH = "graph"
POSET = "poset"
METRIC = "metric"
SEMILATTICE = "semilattice"

# Morphism kinds, weakest to strongest.
NOT_HOM = "not-hom"
HOM = "hom"
SURJECTION = "surjection"
EMBEDDING = "embedding"
ISOMORPHISM = "isomorphism"

DEFAULT_HOM_BOUND_BITS = 24


class StructureError(Exception):
    """Malformed input to a structure operation."""


class BoundExceeded(StructureError):
    """A brute-force enumeration would exceed the configured bound."""


class InternalConsistencyError(AssertionError):
    """A property the constructions guarantee failed to hold."""


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    error: str | None = None
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


_PASS = ValidationReport(True)

_set = object.__setattr__


@dataclass(frozen=True)
class FiniteStructure:
    """A finite structure of one of the four supported classes.

    `table` is a square tuple of tuples over the carrier; what its entries
    mean is class specific and described at the class's record in `RECORDS`.
    """

    class_tag: str
    carrier: tuple[str, ...]
    table: tuple[tuple, ...]

    def __post_init__(self):
        if self.class_tag not in RECORDS:
            raise StructureError(f"unknown class tag {self.class_tag!r}")

    def __hash__(self):
        # Hashed once: the oracle's hom cache looks structures up by value.
        try:
            return self._hash
        except AttributeError:
            _set(self, "_hash", hash((self.class_tag, self.carrier, self.table)))
            return self._hash

    def __reduce__(self):
        # String hashes differ between processes, so the cached hash is not
        # pickled.
        return FiniteStructure, (self.class_tag, self.carrier, self.table)

    @property
    def size(self) -> int:
        return len(self.carrier)

    def index(self, x: str) -> int:
        """Carrier position of the id `x`: the one lookup from id to position."""
        try:
            return self.carrier.index(x)
        except ValueError:
            raise StructureError(f"{x!r} is not in the structure") from None

    # -- relational / algebraic accessors by element id --------------------

    def adjacent(self, u: str, v: str) -> bool:
        return self.table[self.index(u)][self.index(v)]

    def leq(self, u: str, v: str) -> bool:
        order = RECORDS[self.class_tag].order
        if order is None:
            raise StructureError(f"leq undefined for class {self.class_tag}")
        return order(self.table)[self.index(u)][self.index(v)]

    def dist(self, u: str, v: str) -> Fraction:
        return self.table[self.index(u)][self.index(v)]

    def meet(self, u: str, v: str) -> str:
        return self.carrier[self.table[self.index(u)][self.index(v)]]


def class_record(tag: str) -> ClassRecord:
    """The record of the class `tag`; an unknown tag is a StructureError."""
    try:
        return RECORDS[tag]
    except KeyError:
        raise StructureError(f"unknown class tag {tag!r}") from None


def _shape_check(s: FiniteStructure) -> ValidationReport:
    n = len(s.carrier)
    if n == 0:
        return ValidationReport(False, "empty carrier")
    if len(set(s.carrier)) != n:
        count = collections.Counter(s.carrier)
        return ValidationReport(False, "duplicate carrier ids",
                                witness=(next(x for x in s.carrier if count[x] > 1),))
    if len(s.table) != n or any(len(row) != n for row in s.table):
        return ValidationReport(False, "table dimensions do not match carrier")
    return _PASS


@functools.lru_cache(maxsize=64)
def _bits(n: int) -> tuple[int, ...]:
    return tuple([1 << k for k in range(n)])


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def validate(s: FiniteStructure) -> ValidationReport:
    """Check every axiom of the structure's class; report the first violation.

    After the shape of the table, the class record checks its entries and
    axioms.  Posets and semilattices take near-quadratic time through
    bitmasks of up- and down-sets; the metric triangle check scans each pair
    of points once, on distances scaled to exact integers.
    """
    rep = _shape_check(s)
    if not rep.ok:
        return rep
    return RECORDS[s.class_tag].axioms(s)


def require_valid(s: FiniteStructure, what: str, constructed: bool = False) -> None:
    """The one gate: raise, naming the violated axiom and its witness, unless
    `s` satisfies its class's axioms.  An input raises StructureError, a
    `constructed` object InternalConsistencyError."""
    rep = validate(s)
    if not rep.ok:
        if constructed:
            raise InternalConsistencyError(
                f"constructed {what} fails validation: {rep.error} at {rep.witness}")
        raise StructureError(f"invalid {what}: {rep.error} at {rep.witness}")


# ---------------------------------------------------------------------------
# Morphisms
# ---------------------------------------------------------------------------

class Morphism:
    """A total map between carriers, stored as target positions.

    `positions[i]` is the carrier position in `target` of the image of
    `source.carrier[i]`; `mapping` derives the images as ids.  Morphisms are
    immutable, and equal when source, target and map agree.
    """

    __slots__ = ("source", "target", "positions")

    def __init__(self, source: FiniteStructure, target: FiniteStructure,
                 mapping: tuple[str, ...]):
        if len(mapping) != len(source.carrier):
            raise StructureError("mapping is not total over the source carrier")
        positions = tuple([target.index(y) for y in mapping])
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "positions", positions)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return _morphism, (self.source, self.target, self.positions)

    def __eq__(self, other):
        if other.__class__ is not Morphism:
            return NotImplemented
        return (self.positions == other.positions and self.source == other.source
                and self.target == other.target)

    def __hash__(self):
        return hash((self.source, self.target, self.positions))

    def __repr__(self):
        return (f"Morphism(source={self.source!r}, target={self.target!r}, "
                f"mapping={self.mapping!r})")

    @property
    def mapping(self) -> tuple[str, ...]:
        """The images as target ids, in source carrier order."""
        carrier = self.target.carrier
        return tuple([carrier[i] for i in self.positions])

    def __call__(self, x: str) -> str:
        return self.target.carrier[self.positions[self.source.index(x)]]

    def image(self) -> tuple[str, ...]:
        carrier = self.target.carrier
        return tuple([carrier[i] for i in sorted(set(self.positions))])

    def compose(self, other: "Morphism") -> "Morphism":
        """self after other (right-to-left composition)."""
        if other.target is not self.source and other.target != self.source:
            raise StructureError("composition mismatch")
        p = self.positions
        return _morphism(other.source, self.target,
                         tuple([p[i] for i in other.positions]))


def _morphism(source: FiniteStructure, target: FiniteStructure,
              positions: tuple[int, ...]) -> Morphism:
    """A morphism from target positions the caller already holds (unchecked)."""
    m = object.__new__(Morphism)
    _set(m, "source", source)
    _set(m, "target", target)
    _set(m, "positions", positions)
    return m


def identity_morphism(s: FiniteStructure) -> Morphism:
    return _morphism(s, s, tuple(range(len(s.carrier))))


def morphism_from_dict(source: FiniteStructure, target: FiniteStructure,
                       d: dict[str, str]) -> Morphism:
    try:
        return Morphism(source, target, tuple([d[x] for x in source.carrier]))
    except KeyError as e:
        raise StructureError(f"map has no image for {e.args[0]!r}") from None


def _hom_violation(m: Morphism) -> tuple | None:
    s, t = m.source, m.target
    if s.class_tag != t.class_tag:
        return ("class mismatch",)
    return RECORDS[s.class_tag].violation(s, t, m.positions)


def is_homomorphism(m: Morphism) -> bool:
    return _hom_violation(m) is None


def _reflects(m: Morphism) -> bool:
    """Embedding condition beyond injectivity: image is an induced copy."""
    rec = RECORDS[m.source.class_tag]
    if not rec.reflects:
        return True
    f = m.positions
    st, tt = m.source.table, m.target.table
    return all(st[i][j] == tt[f[i]][f[j]] for i, j in rec.cells(len(f)))


def classify(m: Morphism) -> str:
    """Classify a morphism as not-hom / hom / surjection / embedding / isomorphism."""
    if _hom_violation(m) is not None:
        return NOT_HOM
    hit = len(set(m.positions))
    injective = hit == len(m.positions)
    surjective = hit == len(m.target.carrier)
    embedding = injective and _reflects(m)
    if embedding and surjective:
        return ISOMORPHISM
    if embedding:
        return EMBEDDING
    if surjective:
        return SURJECTION
    return HOM


def is_embedding(m: Morphism) -> bool:
    return classify(m) in (EMBEDDING, ISOMORPHISM)


def is_surjection(m: Morphism) -> bool:
    return classify(m) in (SURJECTION, ISOMORPHISM)


# ---------------------------------------------------------------------------
# Substructures
# ---------------------------------------------------------------------------

def _subset_indices(s: FiniteStructure, subset) -> list[int]:
    idx = [s.index(x) for x in subset]
    if not idx:
        raise StructureError("subset must be non-empty")
    if len(set(idx)) != len(idx):
        raise StructureError("subset has repeated elements")
    return sorted(idx)


def induced_substructure(s: FiniteStructure, subset) -> FiniteStructure:
    """Restriction of the tables to `subset` (carrier order preserved)."""
    idx = _subset_indices(s, subset)
    table = RECORDS[s.class_tag].restrict(s.table, idx)
    return FiniteStructure(s.class_tag, tuple(s.carrier[i] for i in idx), table)


def generate(s: FiniteStructure, subset) -> FiniteStructure:
    """Smallest substructure holding `subset` (its meet closure for semilattices)."""
    closed = RECORDS[s.class_tag].closure(s.table, set(_subset_indices(s, subset)))
    return induced_substructure(s, [s.carrier[i] for i in sorted(closed)])


def meet_closed_subsets(s: FiniteStructure, max_size: int):
    """All non-empty subsets admissible as substructure carriers, size-bounded.

    For semilattices this means meet-closed subsets; for the other classes every
    non-empty subset qualifies.  Yields tuples of ids in carrier order.
    """
    n = len(s.carrier)
    closure = RECORDS[s.class_tag].closure
    for size in range(1, min(max_size, n) + 1):
        for idx in itertools.combinations(range(n), size):
            if closure(s.table, set(idx)) == set(idx):
                yield tuple(s.carrier[i] for i in idx)


# ---------------------------------------------------------------------------
# Homomorphism enumeration (the oracle backend)
# ---------------------------------------------------------------------------

def _hom_constraints(x: FiniteStructure, y: FiniteStructure):
    """What the earlier source positions ask of the image of each position k.

    `unary[k]` holds pairs (i, masks), i < k: the image of k lies in
    masks[f(i)].  `binary[k]` (semilattices only) holds triples (i, j, masks):
    it lies in masks[f(i)][f(j)].  Masks are bitmasks over the carrier
    positions of y.  Each condition of a homomorphism is listed once, at the
    last position it involves, so a partial map meets all of them among
    positions 0..k exactly when it meets those listed up to k.  The class
    record lists them.
    """
    n = len(x.carrier)
    unary: list[list] = [[] for _ in range(n)]
    binary: list[list] = [[] for _ in range(n)]
    if n > 1:  # no condition otherwise, and no call for the |y|^2 tables
        RECORDS[x.class_tag].constraints(x.table, y.table, unary, binary)
    return unary, binary


def _masks(rows, m: int) -> list[int]:
    """Each boolean row over m target positions as a bitmask."""
    bits = _bits(m)
    return [sum(itertools.compress(bits, row)) for row in rows]


def enumerate_homs(x: FiniteStructure, y: FiniteStructure,
                   bound_bits: int = DEFAULT_HOM_BOUND_BITS) -> list[Morphism]:
    """All homomorphisms x -> y in lexicographic order of their map tables.

    Backtracking over carrier positions: the candidates for each position are
    the AND of the bitmasks its constraints on earlier positions select,
    walked lowest bit first.  Refuses (never truncates) if |x| * log2|y|
    exceeds `bound_bits`.
    """
    if x.class_tag != y.class_tag:
        raise StructureError("class mismatch")
    require_valid(x, "source")
    require_valid(y, "target")
    if len(y.carrier) > 1 and len(x.carrier) * math.log2(len(y.carrier)) > bound_bits:
        raise BoundExceeded(
            f"{len(y.carrier)}^{len(x.carrier)} exceeds the 2^{bound_bits} bound")
    n = len(x.carrier)
    unary, binary = _hom_constraints(x, y)
    every = (1 << len(y.carrier)) - 1
    assign = [0] * n
    out: list[Morphism] = []

    def rec(k: int) -> None:
        if k == n:
            out.append(_morphism(x, y, tuple(assign)))
            return
        mask = every
        for i, masks in unary[k]:
            mask &= masks[assign[i]]
        for i, j, masks in binary[k]:
            mask &= masks[assign[i]][assign[j]]
        while mask:
            low = mask & -mask
            assign[k] = low.bit_length() - 1
            rec(k + 1)
            mask ^= low

    rec(0)
    return out


def enumerate_isomorphisms_over_base(c1: FiniteStructure, c2: FiniteStructure,
                                     base: tuple[str, ...]) -> list[Morphism]:
    """All isomorphisms c1 -> c2 restricting to the identity on `base`."""
    if len(c1.carrier) != len(c2.carrier):
        return []
    fixed = {b: b for b in base}
    free = [x for x in c1.carrier if x not in fixed]
    targets = [y for y in c2.carrier if y not in fixed]
    out = []
    for perm in itertools.permutations(targets, len(free)):
        d = dict(fixed)
        d.update(zip(free, perm))
        m = morphism_from_dict(c1, c2, d)
        if classify(m) == ISOMORPHISM:
            out.append(m)
    return out


# ---------------------------------------------------------------------------
# One-point extension codes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtensionCode:
    """Canonical datum of a one-point extension over a fixed base carrier.

    Two one-point extensions of the same base are isomorphic over the base iff
    their codes are equal.  The code is expressed in base carrier order, in
    the form the class's record describes.
    """

    class_tag: str
    base_carrier: tuple[str, ...]
    code: tuple


def _read_codes(s: FiniteStructure, base: tuple[str, ...], points) -> list[tuple]:
    """Raw code tuples over `base` of the points at the given positions of `s`;
    `extension_code` and `point_codes` both go through it."""
    return RECORDS[s.class_tag].read_codes(s, tuple((b, s.index(b)) for b in base), points)


def extension_code(s: FiniteStructure, base: tuple[str, ...], z: str) -> ExtensionCode:
    """Code of the point `z` of `s` over `base`, both inside `s`.

    `s` may hold points beyond `base` and `z`.  For semilattices a meet that
    leaves `base` and `z` shows up as its own id, so such a code matches no
    code that `enumerate_codes` produces.
    """
    if z in base:
        raise StructureError(f"{z!r} lies in the base")
    return ExtensionCode(s.class_tag, tuple(base), _read_codes(s, base, [s.index(z)])[0])


def point_codes(s: FiniteStructure, base: tuple[str, ...]) -> list[tuple]:
    """Raw code tuple of every point of `s` outside `base`, in carrier order."""
    skip = set(base)
    return _read_codes(s, base, [z for z, x in enumerate(s.carrier) if x not in skip])


def _base_or_empty(rec: ClassRecord, base: FiniteStructure | None) -> FiniteStructure:
    """`base`, or for None the empty base, where the class admits one."""
    if base is not None:
        return base
    if not rec.empty_base:
        raise StructureError(f"empty base is not admissible for class {rec.tag}")
    return FiniteStructure(rec.tag, (), ())


def apply_code(base: FiniteStructure | None, code: ExtensionCode,
               new_id: str) -> FiniteStructure:
    """Build the one-point extension described by `code` with the fresh id `new_id`.

    `base` is None exactly for the empty base, in the classes that admit one;
    the result is then the one-point structure.  Refused: an empty base where
    the class has none, a base of another class than the code's, a base
    whose carrier is not the code's, and a new id already in the base.
    """
    rec = class_record(code.class_tag)
    base = _base_or_empty(rec, base)
    if base.class_tag != rec.tag:
        raise StructureError(f"a {rec.tag} code cannot extend a {base.class_tag} base")
    if base.carrier != code.base_carrier:
        raise StructureError("code does not match the base carrier")
    if new_id in base.carrier:
        raise StructureError("new id collides with the base carrier")
    column, row = rec.write_code(base, code.code)
    table = tuple([r + (v,) for r, v in zip(base.table, column)]) + (row,)
    return FiniteStructure(rec.tag, base.carrier + (new_id,), table)


def katetov_admissible(base: FiniteStructure, vec: tuple[Fraction, ...]) -> bool:
    """Whether a distance vector extends the base metric to one more point."""
    n = len(base.carrier)
    if any(v <= 0 for v in vec):
        return False
    for i in range(n):
        for j in range(i + 1, n):
            d = base.table[i][j]
            if abs(vec[i] - vec[j]) > d or d > vec[i] + vec[j]:
                return False
    return True


def _grid(rec: ClassRecord, grid) -> tuple[Fraction, ...] | None:
    """The sorted distance grid of a class that draws distances from one;
    None for the others, which ignore `grid`."""
    if not rec.grid:
        return None
    if not grid:
        raise StructureError(f"{rec.tag} enumeration requires a distance grid")
    return tuple(sorted(Fraction(g) for g in grid))


def enumerate_codes(class_tag: str, base: FiniteStructure | None,
                    grid: tuple[Fraction, ...] | None = None) -> list[ExtensionCode]:
    """All admissible one-point extension codes over `base`, in canonical order.

    The metric class requires a finite distance `grid`; the others ignore it.
    For the empty base (graphs and posets) there is exactly one code: the
    unconstrained fresh point.
    """
    rec = class_record(class_tag)
    base = _base_or_empty(rec, base)
    if base.class_tag != class_tag:
        raise StructureError("base class mismatch")
    bc = base.carrier
    codes = [ExtensionCode(class_tag, bc, c) for c in rec.codes(base, _grid(rec, grid))]
    if not rec.codes_screened or not bc:  # one point is a structure of every class
        return codes
    # The candidates are screened by validating the extended table, which is
    # complete by definition.
    new = _fresh_id("x", set(bc))
    return [code for code in codes if validate(apply_code(base, code, new)).ok]


def _fresh_id(stem: str, taken: set[str]) -> str:
    if stem not in taken:
        return stem
    k = 0
    while f"{stem}_{k}" in taken:
        k += 1
    return f"{stem}_{k}"


def fresh_ids(stem: str, count: int, taken) -> list[str]:
    """Deterministic fresh ids `stem0..stem{count-1}`, renamed on collision."""
    taken = set(taken)
    out = []
    for i in range(count):
        cand = _fresh_id(f"{stem}{i}", taken)
        taken.add(cand)
        out.append(cand)
    return out


# ---------------------------------------------------------------------------
# Class records
# ---------------------------------------------------------------------------

class ClassRecord:
    """What one class of structures means: each class-specific rule, once.

    One subclass per class states its rules, and `RECORDS` holds an instance
    of each by tag; the operations of this package look the record up and
    never branch on the tag.  Every rule takes whole tables or structures.
    The rules that need a layer above this module -- the 1PHEP push, the
    free-amalgam fill and the Cayley root -- are one function per class in
    `pushout` and `lifting`, looked up by tag in the same way.

    Each subclass states, for a structure s, a table t and a size n:
      tag                     the class tag
      row_shape               (entries per document row, how many of them
                              are carrier indices)
      blank(n)                the n x n table as lists, its diagonal set
      axioms(s)               the first violated entry type or axiom of a
                              table of the right shape, as a ValidationReport
      violation(s, t, f)      the first pair of s whose relation, distance
                              or meet the positions f into t fail to
                              preserve, or None
      constraints(xt, yt, unary, binary)
                              the hom enumeration's constraints, written
                              into the two lists (see `_hom_constraints`)
      read_codes(s, cols, points)
                              the codes of the points (positions) over the
                              base columns ((id, position), ...)
      write_code(base, code)  the new point's column over the base, its row
      codes(base, grid)       the candidate codes over `base`, in order
      rows(t, cells)          the document rows
      read_rows(t, rows)      writes rows of the right shape into a blank table
      test_values(n, grid)    the values each test-object cell takes
    """

    tag: str
    row_shape: tuple[int, int]
    symmetric = True        # the cells are the pairs i < j, else all i != j
    reflects = True         # embeddings also reflect the table on the cells
    empty_base = False      # a point may be adjoined over the empty base
    grid = False            # codes and test objects draw distances from a grid
    codes_screened = True   # candidate codes are kept if their extension validates
    tests_screened = True   # test-object tables are kept if they validate
    order = None            # t -> the partial order as a boolean matrix

    def cells(self, n: int):
        """The cells of an n x n table that carry its information."""
        if self.symmetric:
            return itertools.combinations(range(n), 2)
        return itertools.permutations(range(n), 2)

    def closure(self, t, chosen: set[int]) -> set[int]:
        """The positions of the smallest substructure holding `chosen`."""
        return chosen

    def restrict(self, t, idx: list[int]) -> tuple:
        """The table induced on sorted positions closed under `closure`."""
        return tuple(tuple(t[i][j] for j in idx) for i in idx)

    def dot(self, s: FiniteStructure) -> list[str]:
        """The DOT lines of s but the closing brace: the Hasse diagram of
        its order.  None for a class with no DOT form."""
        leq, c = self.order(s.table), s.carrier
        n = len(c)
        lines = ["digraph {", "  rankdir=BT;"] + [f'  "{x}";' for x in c]
        for i in range(n):
            for j in range(n):
                if i == j or not leq[i][j]:
                    continue
                if any(k != i and k != j and leq[i][k] and leq[k][j] for k in range(n)):
                    continue
                lines.append(f'  "{c[i]}" -> "{c[j]}";')
        return lines


def _subsets(ids: tuple[str, ...]) -> list[tuple[str, ...]]:
    """Every sub-tuple of `ids`, in the order of their membership masks."""
    return [tuple(itertools.compress(ids, mask))
            for mask in itertools.product((False, True), repeat=len(ids))]


class _Graph(ClassRecord):
    """The table is the adjacency matrix, of bools.  A code is the tuple of
    neighbour ids.  A document row [i, j], i < j, is an edge."""

    tag, row_shape = GRAPH, (2, 2)
    empty_base = True
    codes_screened = tests_screened = False

    def blank(self, n):
        return [[False] * n for _ in range(n)]

    def axioms(self, s):
        n, t, c = len(s.carrier), s.table, s.carrier
        for i in range(n):
            if t[i][i]:
                return ValidationReport(False, "self-loop", witness=(c[i],))
            for j in range(i + 1, n):
                if t[i][j] != t[j][i]:
                    return ValidationReport(False, "adjacency not symmetric",
                                            witness=(c[i], c[j]))
        return _PASS

    def violation(self, s, t, f):
        st, tt = s.table, t.table
        for i, j in itertools.combinations(range(len(f)), 2):
            if st[i][j] and not tt[f[i]][f[j]]:
                return (s.carrier[i], s.carrier[j])
        return None

    def constraints(self, xt, yt, unary, binary):
        adjacent = _masks(yt, len(yt))
        for k in range(len(xt)):
            unary[k] = [(i, adjacent) for i in range(k) if xt[i][k]]

    def dot(self, s):
        t, c = s.table, s.carrier
        return (["graph {"] + [f'  "{x}";' for x in c]
                + [f'  "{c[i]}" -- "{c[j]}";' for i, j in self.cells(len(c)) if t[i][j]])

    def read_codes(self, s, cols, points):
        t = s.table
        return [tuple(b for b, i in cols if t[z][i]) for z in points]

    def write_code(self, base, code):
        neighbours = set(code)
        column = tuple(x in neighbours for x in base.carrier)
        return column, column + (False,)

    def codes(self, base, grid):
        return _subsets(base.carrier)

    def rows(self, t, cells):
        return [[i, j] for i, j in cells if t[i][j]]

    def read_rows(self, t, rows):
        for i, j in rows:
            t[i][j] = t[j][i] = True

    def test_values(self, n, grid):
        return (False, True)


class _Poset(ClassRecord):
    """The table is the full reflexive <= relation, of bools.  A code is
    (the ids strictly below, the ids strictly above).  A document row [i, j],
    i != j, is a pair i <= j."""

    tag, row_shape = POSET, (2, 2)
    symmetric = False
    empty_base = True
    rows, test_values = _Graph.rows, _Graph.test_values

    def blank(self, n):
        return [[i == j for j in range(n)] for i in range(n)]

    def axioms(self, s):
        n, t, c = len(s.carrier), s.table, s.carrier
        for i in range(n):
            if not t[i][i]:
                return ValidationReport(False, "order not reflexive", witness=(c[i],))
        for i in range(n):
            for j in range(n):
                if i != j and t[i][j] and t[j][i]:
                    return ValidationReport(False, "order not antisymmetric",
                                            witness=(c[i], c[j]))
        # up[i] holds bit k exactly when i <= k.  The order is transitive iff
        # each up-set is the union of the up-sets of its members.
        up = list(map(sum, map(itertools.compress, itertools.repeat(_bits(n)), t)))
        closed = list(map(functools.reduce, itertools.repeat(operator.or_),
                          map(itertools.compress, itertools.repeat(up), t)))
        if closed != up:
            for i in range(n):
                outside = ~up[i]
                if closed[i] & outside:
                    for j in itertools.compress(range(n), t[i]):
                        if up[j] & outside:
                            k = _lowest_bit(up[j] & outside)
                            return ValidationReport(False, "order not transitive",
                                                    witness=(c[i], c[j], c[k]))
        return _PASS

    def violation(self, s, t, f):
        st, tt = s.table, t.table
        for i, j in itertools.product(range(len(f)), repeat=2):
            if st[i][j] and not tt[f[i]][f[j]]:
                return (s.carrier[i], s.carrier[j])
        return None

    def constraints(self, xt, yt, unary, binary):
        up, down = _masks(yt, len(yt)), _masks(zip(*yt), len(yt))
        for k in range(len(xt)):
            unary[k] = [(i, up) for i in range(k) if xt[i][k]] + \
                [(i, down) for i in range(k) if xt[k][i]]

    def order(self, t):
        return t

    def read_codes(self, s, cols, points):
        t = s.table
        return [(tuple(b for b, i in cols if t[i][z]), tuple(b for b, i in cols if t[z][i]))
                for z in points]

    def write_code(self, base, code):
        below, above = map(set, code)
        return (tuple(x in below for x in base.carrier),
                tuple(x in above for x in base.carrier) + (True,))

    def codes(self, base, grid):
        subsets = _subsets(base.carrier)
        return [(below, above) for below in subsets for above in subsets]

    def read_rows(self, t, rows):
        for i, j in rows:
            t[i][j] = True


class _Metric(ClassRecord):
    """The table holds the distances, as Fractions.  A code is the Katetov
    distance vector.  A document row [i, j, "p/q"], i < j, is a distance."""

    tag, row_shape = METRIC, (3, 2)
    grid = True
    codes_screened = False  # the candidates are the Katetov vectors
    dot = None

    def blank(self, n):
        return [[Fraction(0)] * n for _ in range(n)]

    def axioms(self, s):
        n, t, c = len(s.carrier), s.table, s.carrier
        for i, row in enumerate(t):
            for j, v in enumerate(row):
                if not isinstance(v, Fraction):
                    return ValidationReport(False, "non-Fraction distance",
                                            witness=(c[i], c[j]))
        # the distances times the common denominator: exact integers
        scale = math.lcm(*[v.denominator for row in t for v in row])
        d = [[v.numerator * (scale // v.denominator) for v in row] for row in t]
        for i in range(n):
            if d[i][i] != 0:
                return ValidationReport(False, "nonzero self-distance", witness=(c[i],))
            for j in range(n):
                if i != j and d[i][j] <= 0:
                    return ValidationReport(False, "non-positive distance",
                                            witness=(c[i], c[j]))
                if d[i][j] != d[j][i]:
                    return ValidationReport(False, "distance not symmetric",
                                            witness=(c[i], c[j]))
        for i, di in enumerate(d):
            for j, dj in enumerate(d):
                # some k has d(i, k) > d(i, j) + d(j, k)
                if max(map(operator.sub, di, dj)) > di[j]:
                    for k in range(n):
                        if di[k] > di[j] + dj[k]:
                            return ValidationReport(
                                False, "triangle inequality violated",
                                witness=(c[i], c[j], c[k]))
        return _PASS

    def violation(self, s, t, f):
        st, tt = s.table, t.table
        for i, j in itertools.combinations(range(len(f)), 2):
            if tt[f[i]][f[j]] > st[i][j]:
                return (s.carrier[i], s.carrier[j])
        return None

    def constraints(self, xt, yt, unary, binary):
        # one ball {v : d(a, v) <= d} per point a of y and distance d of x
        balls: dict[Fraction, list[int]] = {}
        for k in range(len(xt)):
            for i in range(k):
                d = xt[i][k]
                if d not in balls:
                    balls[d] = _masks([[e <= d for e in row] for row in yt], len(yt))
                unary[k].append((i, balls[d]))

    def read_codes(self, s, cols, points):
        t = s.table
        return [tuple(t[z][i] for _, i in cols) for z in points]

    def write_code(self, base, code):
        return code, code + (Fraction(0),)

    def codes(self, base, grid):
        return [vec for vec in itertools.product(grid, repeat=len(base.carrier))
                if katetov_admissible(base, vec)]

    def rows(self, t, cells):
        return [[i, j, str(t[i][j])] for i, j in cells]

    def read_rows(self, t, rows):
        for i, j, d in rows:
            if not isinstance(d, str):
                raise StructureError(f"distance {d!r} is not a \"p/q\" string")
            try:
                t[i][j] = t[j][i] = Fraction(d)
            except (ValueError, ZeroDivisionError):
                raise StructureError(f"distance {d!r} is not a rational number") from None
            if str(t[i][j]) != d:
                raise StructureError(f"distance {d!r} is not written {str(t[i][j])!r}")

    def test_values(self, n, grid):
        return grid


class _Semilattice(ClassRecord):
    """The table holds the carrier position of each meet.  A code holds, per
    base id, the meet with the new point: a base id, or None for the new
    point itself.  A document row [i, j, k], i < j, is a meet.  Injective
    homomorphisms are exactly the embeddings."""

    tag, row_shape = SEMILATTICE, (3, 3)
    reflects = False

    def blank(self, n):
        return [[i if i == j else None for j in range(n)] for i in range(n)]

    def axioms(self, s):
        n, t, c = len(s.carrier), s.table, s.carrier
        for i, row in enumerate(t):
            for j, v in enumerate(row):
                if not isinstance(v, int) or not 0 <= v < n:
                    return ValidationReport(False, "meet table entry out of range",
                                            witness=(c[i], c[j]))
        # Let z <= x mean z^x == z, and down[x] hold bit z exactly when z <= x
        # (read off row x, by commutativity).
        bits, positions, down = _bits(n), range(n), []
        for i in range(n):
            if t[i][i] != i:
                return ValidationReport(False, "meet not idempotent", witness=(c[i],))
            for j in range(n):
                if t[i][j] != t[j][i]:
                    return ValidationReport(False, "meet not commutative",
                                            witness=(c[i], c[j]))
            down.append(sum(itertools.compress(bits, map(operator.eq, t[i], positions))))
        # The idempotent, commutative table is associative iff
        # down(x^y) == down(x) & down(y) for all x, y.  If so, <= is reflexive
        # (idempotence), antisymmetric (z = z^x = x^z = x) and transitive
        # (x <= y gives down(x) = down(x^y), within down(y)), and x^y lies in
        # down(x^y) = down(x) & down(y), which holds every common lower bound
        # of x and y: x^y is their greatest lower bound.  A meet satisfies the
        # condition by definition.
        for x in range(n):
            row, dx = t[x], down[x]
            for y in range(x + 1, n):
                m, both = row[y], dx & down[y]
                if down[m] == both:
                    continue
                z = _lowest_bit(down[m] ^ both)
                if both & bits[z]:
                    # z is below x and y but not below x^y
                    witness = (z, x, y)
                else:
                    # z is below x^y but not below a
                    a, o = (x, y) if not dx & bits[z] else (y, x)
                    witness = (a, a, o) if t[m][a] != m else (z, m, a)
                return ValidationReport(False, "meet not associative",
                                        witness=tuple(map(c.__getitem__, witness)))
        return _PASS

    def violation(self, s, t, f):
        st, tt = s.table, t.table
        for i, j in itertools.combinations_with_replacement(range(len(f)), 2):
            if f[st[i][j]] != tt[f[i]][f[j]]:
                return (s.carrier[i], s.carrier[j])
        return None

    def constraints(self, xt, yt, unary, binary):
        m = len(yt)
        bits = _bits(m)
        below = _masks([[b == v for v, b in enumerate(row)] for row in yt], m)  # v <= a
        solves = [[0] * m for _ in range(m)]  # solves[a][b]: v with a ^ v = b
        for a, row in enumerate(yt):
            for v, b in enumerate(row):
                solves[a][b] |= bits[v]
        meets = [[bits[b] for b in row] for row in yt]
        # the equation x_i ^ x_j = x_h, i < j
        for i in range(len(xt)):
            for j in range(i + 1, len(xt)):
                h = xt[i][j]
                if h == j:  # x_j <= x_i
                    unary[j].append((i, below))
                elif h < j:
                    binary[j].append((i, h, solves))
                else:
                    binary[h].append((i, j, meets))

    def closure(self, t, chosen):
        closed = set(chosen)
        while True:
            new = {t[i][j] for i in closed for j in closed} - closed
            if not new:
                return closed
            closed |= new

    def restrict(self, t, idx):
        at = {old: new for new, old in enumerate(idx)}
        try:
            return tuple(tuple(at[t[i][j]] for j in idx) for i in idx)
        except KeyError:
            raise StructureError(
                "subset is not meet-closed; use generate() to close it") from None

    def order(self, t):
        return [[t[i][j] == i for j in range(len(t))] for i in range(len(t))]

    def read_codes(self, s, cols, points):
        t, c = s.table, s.carrier
        return [tuple(None if t[z][i] == z else c[t[z][i]] for _, i in cols)
                for z in points]

    def write_code(self, base, code):
        n = len(base.carrier)
        meets = tuple([n if v is None else base.index(v) for v in code])
        return meets, meets + (n,)

    def codes(self, base, grid):
        return itertools.product((None,) + base.carrier, repeat=len(base.carrier))

    def rows(self, t, cells):
        return [[i, j, t[i][j]] for i, j in cells]

    def read_rows(self, t, rows):
        for i, j, k in rows:
            t[i][j] = t[j][i] = k

    def test_values(self, n, grid):
        return range(n)


RECORDS: dict[str, ClassRecord] = {
    r.tag: r for r in (_Graph(), _Poset(), _Metric(), _Semilattice())}

CLASS_TAGS = tuple(RECORDS)
