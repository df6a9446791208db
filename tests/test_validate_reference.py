"""`validate` against the cubic checker it replaced, kept here as a reference.

Both must give the same verdict and the same error on every structure and
mutant below, and every witness `validate` reports must violate the axiom its
error names when read off the raw table.
"""

import random
from fractions import Fraction

import pytest

from fraisse_forge import (GRAPH, METRIC, POSET, SEMILATTICE, CatalogParams,
                           FiniteStructure, ValidationReport, build_stages,
                           validate)
from fraisse_forge.presets import (antichain, edgeless_graph,
                                   free_semilattice, simplex)
from fraisse_forge.pushout import all_structures
from fraisse_forge.structures import _shape_check

GRID123 = (Fraction(1), Fraction(2), Fraction(3))


def cubic_validate(s: FiniteStructure) -> ValidationReport:
    """The checker `validate` replaced: a direct scan of every axiom."""
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
        for i in range(n):
            for j in range(n):
                if not t[i][j]:
                    continue
                for k in range(n):
                    if t[j][k] and not t[i][k]:
                        return ValidationReport(False, "order not transitive",
                                                witness=(c[i], c[j], c[k]))
    elif s.class_tag == METRIC:
        for i in range(n):
            if t[i][i] != 0:
                return ValidationReport(False, "nonzero self-distance", witness=(c[i],))
            for j in range(n):
                if i != j and t[i][j] <= 0:
                    return ValidationReport(False, "non-positive distance",
                                            witness=(c[i], c[j]))
                if t[i][j] != t[j][i]:
                    return ValidationReport(False, "distance not symmetric",
                                            witness=(c[i], c[j]))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if t[i][k] > t[i][j] + t[j][k]:
                        return ValidationReport(False, "triangle inequality violated",
                                                witness=(c[i], c[j], c[k]))
    elif s.class_tag == SEMILATTICE:
        for i in range(n):
            if t[i][i] != i:
                return ValidationReport(False, "meet not idempotent", witness=(c[i],))
            for j in range(n):
                if t[i][j] != t[j][i]:
                    return ValidationReport(False, "meet not commutative",
                                            witness=(c[i], c[j]))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if t[t[i][j]][k] != t[i][t[j][k]]:
                        return ValidationReport(False, "meet not associative",
                                                witness=(c[i], c[j], c[k]))
    return ValidationReport(True)


# error -> does the witness (as carrier positions) violate that axiom in t
VIOLATES = {
    "self-loop": lambda t, i: bool(t[i][i]),
    "adjacency not symmetric": lambda t, i, j: t[i][j] != t[j][i],
    "order not reflexive": lambda t, i: not t[i][i],
    "order not antisymmetric": lambda t, i, j: i != j and t[i][j] and t[j][i],
    "order not transitive":
        lambda t, i, j, k: t[i][j] and t[j][k] and not t[i][k],
    "nonzero self-distance": lambda t, i: t[i][i] != 0,
    "non-positive distance": lambda t, i, j: i != j and t[i][j] <= 0,
    "distance not symmetric": lambda t, i, j: t[i][j] != t[j][i],
    "triangle inequality violated":
        lambda t, i, j, k: t[i][k] > t[i][j] + t[j][k],
    "meet not idempotent": lambda t, i: t[i][i] != i,
    "meet not commutative": lambda t, i, j: t[i][j] != t[j][i],
    "meet not associative":
        lambda t, i, j, k: t[t[i][j]][k] != t[i][t[j][k]],
}


def assert_agrees(s: FiniteStructure) -> bool:
    """Compare both checkers on `s`; return the verdict."""
    got, want = validate(s), cubic_validate(s)
    assert (got.ok, got.error) == (want.ok, want.error), (s, got, want)
    if not got.ok:
        pos = [s.carrier.index(x) for x in got.witness]
        assert VIOLATES[got.error](s.table, *pos), (s, got)
    return got.ok


def values(s: FiniteStructure) -> tuple:
    """Candidate table entries for mutants, valid and invalid ones."""
    if s.class_tag in (GRAPH, POSET):
        return (False, True)
    if s.class_tag == METRIC:
        return (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1),
                Fraction(3, 2), Fraction(2), Fraction(3), Fraction(5))
    return tuple(range(len(s.carrier)))


def mutant(s: FiniteStructure, edits) -> FiniteStructure:
    t = [list(row) for row in s.table]
    for (i, j), v in edits:
        t[i][j] = v
    return FiniteStructure(s.class_tag, s.carrier, tuple(map(tuple, t)))


def all_mutants(s: FiniteStructure):
    """Every one-entry and every two-entry mutation of `s`."""
    n = len(s.carrier)
    cells = [(i, j) for i in range(n) for j in range(n)]
    vals = values(s)
    for a, p in enumerate(cells):
        for v in vals:
            if v != s.table[p[0]][p[1]]:
                yield mutant(s, [(p, v)])
                for q in cells[a + 1:]:
                    for w in vals:
                        if w != s.table[q[0]][q[1]]:
                            yield mutant(s, [(p, v), (q, w)])


def sampled_mutants(s: FiniteStructure, rng: random.Random, count: int):
    """`count` one-entry, two-entry and symmetric-pair mutations of `s`.

    Edits sit in the first rows, so that the cubic scan meets them early.
    """
    n = len(s.carrier)
    vals = values(s)
    rows = min(n, 8)

    def edit():
        i, j = rng.randrange(rows), rng.randrange(n)
        return (i, j), rng.choice(vals)

    for _ in range(count):
        (i, j), v = edit()
        yield mutant(s, [((i, j), v)])
        yield mutant(s, [((i, j), v), ((j, i), v)])
        yield mutant(s, [((i, j), v), edit()])


@pytest.mark.parametrize("tag", [GRAPH, POSET, METRIC, SEMILATTICE])
def test_small_structures_and_mutants(tag):
    grid = GRID123 if tag == METRIC else None
    verdicts = set()
    for s in all_structures(tag, 3, grid=grid):
        assert assert_agrees(s)
        for m in all_mutants(s):
            verdicts.add(assert_agrees(m))
    assert verdicts == {True, False}


# the stage chains built in tests/test_limits.py
STAGE_CHAINS = {
    GRAPH: (edgeless_graph(1), 2, CatalogParams(1)),
    POSET: (antichain(2), 2, CatalogParams(2)),
    METRIC: (simplex(2, 1), 2, CatalogParams(2, (Fraction(1), Fraction(2)))),
    SEMILATTICE: (free_semilattice(2), 1, CatalogParams(2)),
}


def stages(tag):
    root, steps, params = STAGE_CHAINS[tag]
    return build_stages(root, steps, params).stages


def assert_agrees_with_mutants(chain, count):
    rng = random.Random(7)
    for s in chain:
        assert assert_agrees(s)
        for m in sampled_mutants(s, rng, count):
            assert_agrees(m)


@pytest.mark.parametrize("tag", [GRAPH, POSET, METRIC, SEMILATTICE])
def test_stages_and_mutants(tag):
    chain = stages(tag)
    if tag in (POSET, METRIC):
        chain = chain[:-1]  # see test_large_stages
    assert_agrees_with_mutants(chain, 10)


@pytest.mark.slow
@pytest.mark.parametrize("tag", [POSET, METRIC])
def test_large_stages(tag):
    # The cubic scan of the 876-element poset stage takes seconds, and that
    # of the 171-point metric stage, in Fraction arithmetic, over ten.
    assert_agrees_with_mutants(stages(tag)[-1:], 3)
