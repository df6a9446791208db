"""Constructors for the stock root structures and small builders used in tests."""

from __future__ import annotations

import itertools
from fractions import Fraction

from .structures import (GRAPH, METRIC, POSET, SEMILATTICE, FiniteStructure,
                         StructureError)


class _Positions(dict):
    """Carrier position of each id; a foreign id is refused with the message
    of `FiniteStructure.index`."""

    def __init__(self, carrier: tuple[str, ...]):
        super().__init__((x, i) for i, x in enumerate(carrier))

    def __missing__(self, x):
        raise StructureError(f"{x!r} is not in the structure")


def graph_from_edges(carrier, edges) -> FiniteStructure:
    carrier = tuple(carrier)
    idx = _Positions(carrier)
    adj = [[False] * len(carrier) for _ in carrier]
    for u, v in edges:
        adj[idx[u]][idx[v]] = adj[idx[v]][idx[u]] = True
    return FiniteStructure(GRAPH, carrier, tuple(map(tuple, adj)))


def poset_from_pairs(carrier, pairs, transitive_close: bool = False) -> FiniteStructure:
    """Build a poset from <=-pairs; reflexivity is added automatically."""
    carrier = tuple(carrier)
    idx = _Positions(carrier)
    n = len(carrier)
    leq = [[i == j for j in range(n)] for i in range(n)]
    for u, v in pairs:
        leq[idx[u]][idx[v]] = True
    if transitive_close:
        for k in range(n):
            for i in range(n):
                if leq[i][k]:
                    for j in range(n):
                        if leq[k][j]:
                            leq[i][j] = True
    return FiniteStructure(POSET, carrier, tuple(map(tuple, leq)))


def metric_from_distances(carrier, dist) -> FiniteStructure:
    """`dist` maps unordered pairs (u, v) to distances (coerced to Fraction)."""
    carrier = tuple(carrier)
    idx = _Positions(carrier)
    n = len(carrier)
    t = [[Fraction(0)] * n for _ in range(n)]
    for (u, v), d in dist.items():
        t[idx[u]][idx[v]] = t[idx[v]][idx[u]] = Fraction(d)
    return FiniteStructure(METRIC, carrier, tuple(map(tuple, t)))


def semilattice_from_meets(carrier, meets) -> FiniteStructure:
    """`meets` maps unordered pairs of distinct ids to their meet id."""
    carrier = tuple(carrier)
    idx = _Positions(carrier)
    n = len(carrier)
    t = [[0] * n for _ in range(n)]
    for i in range(n):
        t[i][i] = i
    for (u, v), w in meets.items():
        t[idx[u]][idx[v]] = t[idx[v]][idx[u]] = idx[w]
    return FiniteStructure(SEMILATTICE, carrier, tuple(map(tuple, t)))


def _names(n: int, stem: str = "v") -> tuple[str, ...]:
    return tuple(f"{stem}{i}" for i in range(n))


def edgeless_graph(n: int) -> FiniteStructure:
    return graph_from_edges(_names(n), ())


def antichain(n: int) -> FiniteStructure:
    return poset_from_pairs(_names(n), ())


def chain(n: int) -> FiniteStructure:
    names = _names(n)
    return poset_from_pairs(names, [(names[i], names[j])
                                    for i in range(n) for j in range(i + 1, n)])


def simplex(n: int, d=1) -> FiniteStructure:
    """Finite metric space with all pairwise distances equal to d."""
    names = _names(n)
    return metric_from_distances(
        names, {(names[i], names[j]): Fraction(d)
                for i in range(n) for j in range(i + 1, n)})


def free_semilattice(n_generators: int) -> FiniteStructure:
    """Free meet-semilattice on n generators: nonempty generator subsets under union.

    Element ids: generators are g0..g{n-1}; proper meets are '(gi^gj^...)'.
    """
    if n_generators < 1:
        raise StructureError("need at least one generator")
    gens = _names(n_generators, "g")
    subsets = []
    for size in range(1, n_generators + 1):
        subsets.extend(itertools.combinations(range(n_generators), size))
    ids = {s: (gens[s[0]] if len(s) == 1 else "(" + "^".join(gens[i] for i in s) + ")")
           for s in subsets}
    carrier = tuple(ids[s] for s in subsets)
    pos = {s: k for k, s in enumerate(subsets)}
    table = tuple(tuple(pos[tuple(sorted(set(a) | set(b)))] for b in subsets)
                  for a in subsets)
    return FiniteStructure(SEMILATTICE, carrier, table)


def free_semilattice_generators(n_generators: int) -> tuple[str, ...]:
    return _names(n_generators, "g")
