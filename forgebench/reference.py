"""Computations the benchmark makes apart from the program.

Everything here works on raw carrier tuples and tables, never on the
library's own checks, so that a fault in the library shows as a mismatch.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


class CheckFailed(Exception):
    """An output of the program disagrees with an independent computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Root structures, built from tables (the library's presets are not measured)
# ---------------------------------------------------------------------------

def edgeless_table(n: int):
    return tuple(tuple(False for _ in range(n)) for _ in range(n))


def antichain_table(n: int):
    return tuple(tuple(i == j for j in range(n)) for i in range(n))


def simplex_table(n: int, d: Fraction):
    return tuple(tuple(Fraction(0) if i == j else Fraction(d) for j in range(n))
                 for i in range(n))


def free_semilattice_spec(n: int):
    """Carrier names and meet table of the free meet-semilattice on n generators
    (non-empty generator subsets, meet = union)."""
    subsets = [s for size in range(1, n + 1)
               for s in itertools.combinations(range(n), size)]
    names = tuple(f"g{s[0]}" if len(s) == 1 else
                  "(" + "^".join(f"g{i}" for i in s) + ")" for s in subsets)
    pos = {s: k for k, s in enumerate(subsets)}
    table = tuple(tuple(pos[tuple(sorted(set(a) | set(b)))] for b in subsets)
                  for a in subsets)
    return names, table


def chain_semilattice_table(n: int):
    return tuple(tuple(min(i, j) for j in range(n)) for i in range(n))


def transformation_monoid(k: int):
    """Multiplication table of all self-maps of {0..k-1}; s*t is s then t."""
    maps = list(itertools.product(range(k), repeat=k))
    index = {m: i for i, m in enumerate(maps)}
    return tuple(tuple(index[tuple(maps[t][maps[s][x]] for x in range(k))]
                       for t in range(len(maps))) for s in range(len(maps)))


def submonoid_table(full, elements):
    """Restriction of a multiplication table to a closed subset, re-indexed."""
    ix = {e: i for i, e in enumerate(elements)}
    return tuple(tuple(ix[full[a][b]] for b in elements) for a in elements)


# ---------------------------------------------------------------------------
# Stage sizes
# ---------------------------------------------------------------------------

def graph_next_size(n: int, b: int) -> int:
    """|F_{n+1}| = |F_n| + sum_{k<=b} C(|F_n|, k) 2^k for graphs."""
    return n + sum(math.comb(n, k) * 2 ** k for k in range(0, b + 1))


def antichain_first_size(n: int, b: int) -> int:
    """|F_1| = n + 1 + sum_{1<=k<=b} C(n, k)(2^{k+1} - 1) for an antichain root."""
    return n + 1 + sum(math.comb(n, k) * (2 ** (k + 1) - 1) for k in range(1, b + 1))


def katetov_count(table, b: int, grid) -> int:
    """Number of one-point metric extension types over all bases of size 1..b,
    counted by trying every grid vector."""
    n = len(table)
    grid = tuple(Fraction(g) for g in grid)
    count = 0
    for size in range(1, b + 1):
        for base in itertools.combinations(range(n), size):
            for vec in itertools.product(grid, repeat=size):
                if all(abs(vec[p] - vec[q]) <= table[base[p]][base[q]]
                       <= vec[p] + vec[q]
                       for p in range(size) for q in range(p + 1, size)):
                    count += 1
    return count


def _meet_closed(table, idx) -> bool:
    chosen = set(idx)
    return all(table[i][j] in chosen for i in idx for j in idx)


def _semilattice_ok(t) -> bool:
    n = len(t)
    r = range(n)
    return (all(t[i][i] == i for i in r)
            and all(t[i][j] == t[j][i] for i in r for j in r)
            and all(t[t[i][j]][k] == t[i][t[j][k]] for i in r for j in r for k in r))


def semilattice_codes(table, b: int, bases=None):
    """Every one-point extension of every meet-closed base of size <= b (or of
    each base in `bases`), as (base indices, code) with code[p] = None (new
    point below base[p]) or the index of the meet of the new point with
    base[p]."""
    n = len(table)
    if bases is None:
        bases = [base for size in range(1, b + 1)
                 for base in itertools.combinations(range(n), size)
                 if _meet_closed(table, base)]
    out = []
    for base in bases:
        size = len(base)
        local = {g: p for p, g in enumerate(base)}
        sub = [[local[table[i][j]] for j in base] for i in base]
        for vals in itertools.product((None,) + base, repeat=size):
            ext = [row + [size if v is None else local[v]]
                   for row, v in zip(sub, vals)]
            ext.append([size if v is None else local[v] for v in vals] + [size])
            if _semilattice_ok(ext):
                out.append((base, vals))
    return out


def semilattice_star_size(table, b: int, bases=None) -> int:
    """Size of the free sum of a semilattice with one arm per one-point
    extension type over bases of size <= b.

    Elements are the closed sets of generators: up-sets of the generator
    order that contain the meet of any two of their members lying in one
    component (the root, or one arm).  Each is the closure of a finite set of
    generators; they are found by closing singletons under pairwise union.
    """
    n = len(table)
    arms = semilattice_codes(table, b, bases)
    g = n + len(arms)
    above = [set() for _ in range(g)]  # strict and non-strict upper bounds
    for i in range(n):
        for j in range(n):
            if table[i][j] == i:
                above[i].add(j)
    meets = []  # (members, dict pair -> meet) per component
    root_meets = {(i, j): table[i][j] for i in range(n) for j in range(n)}
    meets.append((frozenset(range(n)), root_meets))
    for k, (base, vals) in enumerate(arms):
        x = n + k
        above[x].add(x)
        comp = {(x, x): x}
        for p, v in zip(base, vals):
            if v is None:
                above[x].add(p)
                comp[(x, p)] = comp[(p, x)] = x
            else:
                comp[(x, p)] = comp[(p, x)] = v
                if v == p:
                    above[p].add(x)
        for p in base:
            for q in base:
                comp[(p, q)] = table[p][q]
        meets.append((frozenset(base) | {x}, comp))
    changed = True
    while changed:  # transitive closure of the generator order
        changed = False
        for a in range(g):
            grown = set(above[a])
            for c in above[a]:
                grown |= above[c]
            if grown != above[a]:
                above[a] = grown
                changed = True
    up = [sum(1 << c for c in above[a]) for a in range(g)]
    comps = [(sum(1 << c for c in members), comp) for members, comp in meets]

    def close(mask: int) -> int:
        m = 0
        for a in range(g):
            if mask >> a & 1:
                m |= up[a]
        grew = True
        while grew:
            grew = False
            for bits, comp in comps:
                members = []
                sel = m & bits
                while sel:
                    low = sel & -sel
                    members.append(low.bit_length() - 1)
                    sel ^= low
                for p in range(len(members)):
                    for q in range(p + 1, len(members)):
                        w = comp[(members[p], members[q])]
                        if not m >> w & 1:
                            m |= up[w]
                            grew = True
        return m

    elements = []
    seen = set()
    for a in range(g):
        m = close(1 << a)
        if m not in seen:
            seen.add(m)
            elements.append(m)
    i = 0
    while i < len(elements):
        for j in range(i):
            m = close(elements[i] | elements[j])
            if m not in seen:
                seen.add(m)
                elements.append(m)
        i += 1
    return len(elements)


# ---------------------------------------------------------------------------
# Homomorphisms on raw tables
# ---------------------------------------------------------------------------

def is_hom(tag: str, src_table, dst_table, f) -> bool:
    """Whether the index map f (list) is a homomorphism between raw tables."""
    n = len(f)
    s, t = src_table, dst_table
    if tag == "graph":
        return all(not s[i][j] or t[f[i]][f[j]]
                   for i in range(n) for j in range(i + 1, n))
    if tag == "poset":
        return all(not s[i][j] or t[f[i]][f[j]] for i in range(n) for j in range(n))
    if tag == "metric":
        return all(t[f[i]][f[j]] <= s[i][j] for i in range(n) for j in range(i + 1, n))
    return all(t[f[i]][f[j]] == f[s[i][j]] for i in range(n) for j in range(i, n))


def is_induced_embedding(tag: str, src_table, dst_table, f) -> bool:
    n = len(f)
    if len(set(f)) != n:
        return False
    if tag == "semilattice":
        return is_hom(tag, src_table, dst_table, f)
    return all(src_table[i][j] == dst_table[f[i]][f[j]]
               for i in range(n) for j in range(n))


def index_map(mapping, source_carrier, target_carrier):
    """Positions of a carrier map, for raw-table checks."""
    pos = {x: k for k, x in enumerate(target_carrier)}
    require(len(mapping) == len(source_carrier), "mapping is not total")
    return [pos[y] for y in mapping]


def count_cocones(tag: str, c_table, bp_table, apex_into_c, apex_into_bp, q_table) -> int:
    """Pairs (j1: C -> Q, j2: B' -> Q) of homomorphisms agreeing on the apex,
    found by trying every map."""
    m = len(q_table)
    homs_bp = {}
    for j2 in itertools.product(range(m), repeat=len(bp_table)):
        if is_hom(tag, bp_table, q_table, j2):
            key = tuple(j2[k] for k in apex_into_bp)
            homs_bp[key] = homs_bp.get(key, 0) + 1
    total = 0
    for j1 in itertools.product(range(m), repeat=len(c_table)):
        if is_hom(tag, c_table, q_table, j1):
            total += homs_bp.get(tuple(j1[k] for k in apex_into_c), 0)
    return total
