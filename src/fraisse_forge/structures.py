"""Exact finite structures: graphs, posets, rational metric spaces, meet-semilattices.

Carriers are ordered tuples of string ids; every enumeration and canonical code
follows carrier order, so all operations are deterministic.  Metric distances
are `fractions.Fraction` throughout -- no floats anywhere.
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
CLASS_TAGS = (GRAPH, POSET, METRIC, SEMILATTICE)

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

    `table` is class specific:
      graph        -- tuple of tuples of bool (adjacency)
      poset        -- tuple of tuples of bool (the full reflexive <= relation)
      metric       -- tuple of tuples of Fraction
      semilattice  -- tuple of tuples of int (carrier index of the meet)
    """

    class_tag: str
    carrier: tuple[str, ...]
    table: tuple[tuple, ...]

    def __post_init__(self):
        if self.class_tag not in CLASS_TAGS:
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
        if self.class_tag == POSET:
            return self.table[self.index(u)][self.index(v)]
        if self.class_tag == SEMILATTICE:
            i, j = self.index(u), self.index(v)
            return self.table[i][j] == i
        raise StructureError(f"leq undefined for class {self.class_tag}")

    def dist(self, u: str, v: str) -> Fraction:
        return self.table[self.index(u)][self.index(v)]

    def meet(self, u: str, v: str) -> str:
        return self.carrier[self.table[self.index(u)][self.index(v)]]


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
    if s.class_tag == SEMILATTICE:
        for i, row in enumerate(s.table):
            for j, v in enumerate(row):
                if not isinstance(v, int) or not 0 <= v < n:
                    return ValidationReport(
                        False, "meet table entry out of range",
                        witness=(s.carrier[i], s.carrier[j]))
    if s.class_tag == METRIC:
        for i, row in enumerate(s.table):
            for j, v in enumerate(row):
                if not isinstance(v, Fraction):
                    return ValidationReport(
                        False, "non-Fraction distance",
                        witness=(s.carrier[i], s.carrier[j]))
    return _PASS


@functools.lru_cache(maxsize=64)
def _bits(n: int) -> tuple[int, ...]:
    return tuple([1 << k for k in range(n)])


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _scaled(t) -> list[list[int]]:
    """The distances times the common denominator: exact integers."""
    scale = math.lcm(*[v.denominator for row in t for v in row])
    return [[v.numerator * (scale // v.denominator) for v in row] for row in t]


def validate(s: FiniteStructure) -> ValidationReport:
    """Check every axiom of the structure's class; report the first violation.

    Posets and semilattices take near-quadratic time through bitmasks of up-
    and down-sets; the metric triangle check scans each pair of points once,
    on distances scaled to exact integers.
    """
    rep = _shape_check(s)
    if not rep.ok:
        return rep
    n, t, c = len(s.carrier), s.table, s.carrier
    if s.class_tag == GRAPH:
        for i in range(n):
            if t[i][i]:
                return ValidationReport(False, "self-loop", witness=(c[i],))
            for j in range(i + 1, n):
                if t[i][j] != t[j][i]:
                    return ValidationReport(False, "adjacency not symmetric",
                                            witness=(c[i], c[j]))
    elif s.class_tag == POSET:
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
    elif s.class_tag == METRIC:
        d = _scaled(t)
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
    elif s.class_tag == SEMILATTICE:
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
    f = m.positions
    n = len(f)
    st, tt = s.table, t.table
    if s.class_tag == GRAPH:
        for i in range(n):
            for j in range(i + 1, n):
                if st[i][j] and not tt[f[i]][f[j]]:
                    return (s.carrier[i], s.carrier[j])
    elif s.class_tag == POSET:
        for i in range(n):
            for j in range(n):
                if st[i][j] and not tt[f[i]][f[j]]:
                    return (s.carrier[i], s.carrier[j])
    elif s.class_tag == METRIC:
        for i in range(n):
            for j in range(i + 1, n):
                if tt[f[i]][f[j]] > st[i][j]:
                    return (s.carrier[i], s.carrier[j])
    elif s.class_tag == SEMILATTICE:
        for i in range(n):
            for j in range(i, n):
                if f[st[i][j]] != tt[f[i]][f[j]]:
                    return (s.carrier[i], s.carrier[j])
    return None


def is_homomorphism(m: Morphism) -> bool:
    return _hom_violation(m) is None


def _reflects(m: Morphism) -> bool:
    """Embedding condition beyond injectivity: image is an induced copy."""
    s = m.source
    if s.class_tag == SEMILATTICE:
        # Injective homomorphisms are exactly the embeddings.
        return True
    f = m.positions
    n = len(f)
    st, tt = s.table, m.target.table
    if s.class_tag == POSET:
        return all(st[i][j] == tt[f[i]][f[j]]
                   for i in range(n) for j in range(n) if i != j)
    # Graph adjacency and metric distance are symmetric.
    return all(st[i][j] == tt[f[i]][f[j]]
               for i in range(n) for j in range(i + 1, n))


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
    if s.class_tag == SEMILATTICE:
        chosen = set(idx)
        for i in idx:
            for j in idx:
                if s.table[i][j] not in chosen:
                    raise StructureError(
                        "subset is not meet-closed; use generate() to close it")
        reindex = {old: new for new, old in enumerate(idx)}
        table = tuple(tuple(reindex[s.table[i][j]] for j in idx) for i in idx)
    else:
        table = tuple(tuple(s.table[i][j] for j in idx) for i in idx)
    return FiniteStructure(s.class_tag, tuple(s.carrier[i] for i in idx), table)


def generate(s: FiniteStructure, subset) -> FiniteStructure:
    """Smallest meet-closed superset of `subset`, as an induced substructure."""
    if s.class_tag != SEMILATTICE:
        return induced_substructure(s, subset)
    closed = set(_subset_indices(s, subset))
    while True:
        new = {s.table[i][j] for i in closed for j in closed} - closed
        if not new:
            break
        closed |= new
    return induced_substructure(s, [s.carrier[i] for i in sorted(closed)])


def meet_closed_subsets(s: FiniteStructure, max_size: int):
    """All non-empty subsets admissible as substructure carriers, size-bounded.

    For semilattices this means meet-closed subsets; for the other classes every
    non-empty subset qualifies.  Yields tuples of ids in carrier order.
    """
    n = len(s.carrier)
    for size in range(1, min(max_size, n) + 1):
        for idx in itertools.combinations(range(n), size):
            if s.class_tag == SEMILATTICE:
                chosen = set(idx)
                if any(s.table[i][j] not in chosen for i in idx for j in idx):
                    continue
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
    positions 0..k exactly when it meets those listed up to k.
    """
    n, m = len(x.carrier), len(y.carrier)
    xt, yt = x.table, y.table
    unary: list[list] = [[] for _ in range(n)]
    binary: list[list] = [[] for _ in range(n)]
    if n < 2:  # no condition, and no call for the |y|^2 tables
        return unary, binary
    bits = _bits(m)

    def rows(t) -> list[int]:
        return [sum(itertools.compress(bits, row)) for row in t]

    tag = x.class_tag
    if tag == GRAPH:
        adjacent = rows(yt)
        for k in range(n):
            unary[k] = [(i, adjacent) for i in range(k) if xt[i][k]]
    elif tag == POSET:
        up, down = rows(yt), rows(zip(*yt))
        for k in range(n):
            unary[k] = [(i, up) for i in range(k) if xt[i][k]] + \
                [(i, down) for i in range(k) if xt[k][i]]
    elif tag == METRIC:
        # one ball {v : d(a, v) <= d} per point a of y and distance d of x
        balls: dict[Fraction, list[int]] = {}
        for k in range(n):
            for i in range(k):
                d = xt[i][k]
                if d not in balls:
                    balls[d] = rows([[e <= d for e in row] for row in yt])
                unary[k].append((i, balls[d]))
    else:
        below = rows([[b == v for v, b in enumerate(row)] for row in yt])  # v <= a
        solves = [[0] * m for _ in range(m)]  # solves[a][b]: v with a ^ v = b
        for a, row in enumerate(yt):
            for v, b in enumerate(row):
                solves[a][b] |= bits[v]
        meets = [[bits[b] for b in row] for row in yt]
        # the equation x_i ^ x_j = x_h, i < j
        for i in range(n):
            for j in range(i + 1, n):
                h = xt[i][j]
                if h == j:  # x_j <= x_i
                    unary[j].append((i, below))
                elif h < j:
                    binary[j].append((i, h, solves))
                else:
                    binary[h].append((i, j, meets))
    return unary, binary


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
    their codes are equal.  The code is expressed in base carrier order:
      graph        -- tuple of neighbor ids
      poset        -- (tuple of strictly-below ids, tuple of strictly-above ids)
      metric       -- tuple of Fractions (the Katetov distance vector)
      semilattice  -- tuple of (base id, or None meaning the new point itself)
    """

    class_tag: str
    base_carrier: tuple[str, ...]
    code: tuple


def _code_reader(s: FiniteStructure, base: tuple[str, ...]):
    """Reader of raw code tuples over `base`: carrier position -> code.

    The one per-class rule for reading a point's extension code off the
    tables; `extension_code` and `point_codes` both go through it.
    """
    t, c = s.table, s.carrier
    cols = tuple((b, s.index(b)) for b in base)
    tag = s.class_tag
    if tag == GRAPH:
        return lambda z: tuple(b for b, i in cols if t[z][i])
    if tag == POSET:
        return lambda z: (tuple(b for b, i in cols if t[i][z]),
                          tuple(b for b, i in cols if t[z][i]))
    if tag == METRIC:
        return lambda z: tuple(t[z][i] for _, i in cols)
    return lambda z: tuple(None if t[z][i] == z else c[t[z][i]] for _, i in cols)


def extension_code(s: FiniteStructure, base: tuple[str, ...], z: str) -> ExtensionCode:
    """Code of the point `z` of `s` over `base`, both inside `s`.

    `s` may hold points beyond `base` and `z`.  For semilattices a meet that
    leaves `base` and `z` shows up as its own id, so such a code matches no
    code that `enumerate_codes` produces.
    """
    if z in base:
        raise StructureError(f"{z!r} lies in the base")
    return ExtensionCode(s.class_tag, tuple(base), _code_reader(s, base)(s.index(z)))


def point_codes(s: FiniteStructure, base: tuple[str, ...]) -> list[tuple]:
    """Raw code tuple of every point of `s` outside `base`, in carrier order."""
    read = _code_reader(s, base)
    skip = set(base)
    return [read(z) for z, x in enumerate(s.carrier) if x not in skip]


def apply_code(base: FiniteStructure | None, code: ExtensionCode,
               new_id: str) -> FiniteStructure:
    """Build the one-point extension described by `code` with the fresh id `new_id`.

    `base` is None exactly for the empty base (graphs and posets only), in which
    case the result is the one-point structure.
    """
    tag = code.class_tag
    if base is None or not code.base_carrier:
        if tag == GRAPH:
            return FiniteStructure(GRAPH, (new_id,), ((False,),))
        if tag == POSET:
            return FiniteStructure(POSET, (new_id,), ((True,),))
        raise StructureError(f"empty base is not admissible for class {tag}")
    if tuple(base.carrier) != code.base_carrier:
        raise StructureError("code does not match the base carrier")
    if new_id in base.carrier:
        raise StructureError("new id collides with the base carrier")
    n = len(base.carrier)
    carrier = base.carrier + (new_id,)
    if tag == GRAPH:
        nb = set(code.code)
        row = tuple(base.carrier[i] in nb for i in range(n))
        table = tuple(base.table[i] + (row[i],) for i in range(n)) + (row + (False,),)
    elif tag == POSET:
        lo, up = set(code.code[0]), set(code.code[1])
        below = tuple(base.carrier[i] in lo for i in range(n))
        above = tuple(base.carrier[i] in up for i in range(n))
        table = tuple(base.table[i] + (below[i],) for i in range(n)) + (above + (True,),)
    elif tag == METRIC:
        vec = code.code
        table = tuple(base.table[i] + (vec[i],) for i in range(n)) \
            + (vec + (Fraction(0),),)
    else:
        vals = [n if v is None else base.index(v) for v in code.code]
        table = tuple(base.table[i] + (vals[i],) for i in range(n)) \
            + (tuple(vals) + (n,),)
    ext = FiniteStructure(tag, carrier, table)
    return ext


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


def enumerate_codes(class_tag: str, base: FiniteStructure | None,
                    grid: tuple[Fraction, ...] | None = None) -> list[ExtensionCode]:
    """All admissible one-point extension codes over `base`, in canonical order.

    The metric class requires a finite distance `grid`.  For the empty base
    (graphs and posets) there is exactly one code: the unconstrained fresh point.
    """
    if base is None:
        if class_tag == GRAPH:
            return [ExtensionCode(GRAPH, (), ())]
        if class_tag == POSET:
            return [ExtensionCode(POSET, (), ((), ()))]
        raise StructureError(f"empty base is not admissible for class {class_tag}")
    if base.class_tag != class_tag:
        raise StructureError("base class mismatch")
    bc = base.carrier
    n = len(bc)
    out: list[ExtensionCode] = []
    if class_tag == GRAPH:
        for mask in itertools.product((False, True), repeat=n):
            out.append(ExtensionCode(GRAPH, bc,
                                     tuple(b for b, m in zip(bc, mask) if m)))
        return out
    if class_tag == METRIC:
        if not grid:
            raise StructureError("metric extension enumeration requires a distance grid")
        grid = tuple(sorted(Fraction(g) for g in grid))
        for vec in itertools.product(grid, repeat=n):
            if katetov_admissible(base, vec):
                out.append(ExtensionCode(METRIC, bc, vec))
        return out
    # Poset and semilattice: candidate codes are screened by validating the
    # extended table, which is complete by definition.
    new = _fresh_id("x", set(bc))
    if class_tag == POSET:
        for lo_mask in itertools.product((False, True), repeat=n):
            lo = tuple(b for b, m in zip(bc, lo_mask) if m)
            for up_mask in itertools.product((False, True), repeat=n):
                up = tuple(b for b, m in zip(bc, up_mask) if m)
                code = ExtensionCode(POSET, bc, (lo, up))
                if validate(apply_code(base, code, new)).ok:
                    out.append(code)
        return out
    for vals in itertools.product((None,) + bc, repeat=n):
        code = ExtensionCode(SEMILATTICE, bc, vals)
        if validate(apply_code(base, code, new)).ok:
            out.append(code)
    return out


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
