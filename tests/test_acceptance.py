"""Acceptance gate: one test per acceptance criterion, each printing a
single pass/fail line.  All checks are exact; there are no tolerances."""

import hashlib
import itertools
import json
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from fraisse_forge import (GRAPH, METRIC, POSET, SEMILATTICE, CatalogParams,
                           Span, cli, congruence_generated, free_sum,
                           morphism_from_dict, pushout_1phep)
from fraisse_forge.pushout import all_structures, amalgamated_sum
from fraisse_forge.presets import (antichain, edgeless_graph,
                                   free_semilattice, simplex)
from fraisse_forge.limits import (build_stages,
                                  check_graph_extension_property)
from fraisse_forge.structures import (apply_code, enumerate_codes,
                                      enumerate_homs, induced_substructure,
                                      is_embedding, is_surjection,
                                      meet_closed_subsets)
from fraisse_forge.suites import (enumerate_1phep_spans, suite_cayley,
                                  suite_functoriality, suite_homogeneity,
                                  suite_pushout_oracle)
from helpers import free_sum_isomorphism, semilattice_iterated_sum

GRID12 = (Fraction(1), Fraction(2))
GRID123 = (Fraction(1), Fraction(2), Fraction(3))
ALL_TAGS = (GRAPH, POSET, METRIC, SEMILATTICE)


@contextmanager
def criterion(capsys, number, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number} ({label}): FAIL")
        raise
    with capsys.disabled():
        print(f"criterion {number} ({label}): PASS")


@pytest.mark.slow
def test_criterion_1_pushout_oracle(capsys):
    with criterion(capsys, 1, "pushout-oracle equivalence"):
        for tag in ALL_TAGS:
            report = suite_pushout_oracle(tag, 3, GRID123)
            assert report["checked"] > 0, tag
            assert not report["failures"], (tag, report["failures"])
            assert not report["skipped"], (tag, report["skipped"])


def test_criterion_2_strict_contracts(capsys):
    with criterion(capsys, 2, "strict 1PHEP and amalgamation contracts"):
        grids = {METRIC: GRID12}
        for tag in ALL_TAGS:
            grid = grids.get(tag, ())
            checked = 0
            for span in enumerate_1phep_spans(tag, 2, grid):
                sq = pushout_1phep(span)
                assert is_embedding(sq.right_leg)
                assert is_surjection(sq.left_leg)
                checked += 1
            assert checked > 0, tag
            # amalgamation squares: both legs embeddings
            checked = 0
            for b in all_structures(tag, 2, grid or None):
                if not b.carrier and tag not in (GRAPH, POSET):
                    continue
                codes = enumerate_codes(tag, b, grid=grid or None)
                for c1, c2 in itertools.islice(
                        itertools.product(codes, repeat=2), 25):
                    e1 = apply_code(b, c1, "x*")
                    e2 = apply_code(b, c2, "y*")
                    ident = {x: x for x in b.carrier}
                    sq = amalgamated_sum(Span(
                        morphism_from_dict(b, e1, ident),
                        morphism_from_dict(b, e2, ident)))
                    assert is_embedding(sq.left_leg)
                    assert is_embedding(sq.right_leg)
                    checked += 1
            assert checked > 0, tag


def test_criterion_3_congruence_restriction(capsys):
    # theta generated in C by ker f meets B x B exactly in ker f,
    # for every semilattice B of size <= 4, surjection f, one-point extension C
    with criterion(capsys, 3, "congruence restriction under extension"):
        checked = 0
        for b in all_structures(SEMILATTICE, 4):
            kernels = []
            for bp in all_structures(SEMILATTICE, len(b.carrier)):
                for f in enumerate_homs(b, bp):
                    if is_surjection(f):
                        kernels.append({(u, v) for u in b.carrier
                                        for v in b.carrier if f(u) == f(v)})
            for code in enumerate_codes(SEMILATTICE, b):
                c = apply_code(b, code, "x*")
                for ker in kernels:
                    theta = congruence_generated(
                        c, [p for p in ker if p[0] != p[1]])
                    block = {x: k for k, blk in enumerate(theta.blocks)
                             for x in blk}
                    got = {(u, v) for u in b.carrier for v in b.carrier
                           if block[u] == block[v]}
                    assert got == ker
                    checked += 1
        assert checked > 0


def arm_pool(root, grid):
    pool = []
    bases = list(meet_closed_subsets(root, len(root.carrier)))
    if root.class_tag in (GRAPH, POSET):
        bases.insert(0, ())
    for base in bases:
        sub = induced_substructure(root, base) if base else None
        for code in enumerate_codes(root.class_tag, sub, grid=grid):
            pool.append((code, "x"))
    return pool


def test_criterion_4_free_sum_coherence(capsys):
    with criterion(capsys, 4, "free-sum coherence"):
        grids = {METRIC: GRID12}
        for tag in ALL_TAGS:
            grid = grids.get(tag)
            checked = 0
            for root in all_structures(tag, 2, grid):
                pool = arm_pool(root, grid)
                for k in (2, 3):
                    for arms in itertools.combinations_with_replacement(pool, k):
                        base = free_sum(root, arms)
                        for perm in itertools.permutations(range(k)):
                            other = free_sum(root, tuple(arms[i] for i in perm))
                            inv = [0] * k
                            for j, i in enumerate(perm):
                                inv[i] = j
                            assert free_sum_isomorphism(
                                base, other, tuple(inv)) is not None
                        if tag == SEMILATTICE:
                            it = semilattice_iterated_sum(root, arms)
                            di = free_sum(root, arms)
                            assert free_sum_isomorphism(it, di) is not None
                        checked += 1
            assert checked > 0, tag


def test_criterion_5_functoriality(capsys):
    with criterion(capsys, 5, "lifting functoriality"):
        cases = [(edgeless_graph(4), CatalogParams(2), 256),
                 (antichain(4), CatalogParams(2), 256),
                 (simplex(3, 1), CatalogParams(2, GRID12), None),
                 (free_semilattice(2), CatalogParams(2), None)]
        for root, params, expected_endos in cases:
            report = suite_functoriality(root, params)
            assert report["passed"], (root.class_tag, report["failures"])
            assert not report["skipped"], root.class_tag
            if expected_endos is not None:
                assert report["endomorphisms"] == expected_endos
            assert report["checked"] == report["endomorphisms"] ** 2


def test_criterion_6_cayley(capsys):
    with criterion(capsys, 6, "Cayley embedding of T2"):
        for tag in ALL_TAGS:
            report = suite_cayley(tag)
            assert report["passed"], tag
            assert report["semigroup_size"] == 4
            assert report["checked"] == 16


def test_criterion_7_weak_homogeneity(capsys):
    with criterion(capsys, 7, "weak homogeneity of stage chains"):
        cases = [(edgeless_graph(2), CatalogParams(2)),
                 (antichain(2), CatalogParams(2)),
                 (simplex(2, 1), CatalogParams(2, GRID12))]
        for root, params in cases:
            report = suite_homogeneity(root, params, 1)
            assert report["passed"], (root.class_tag, report["failures"])
            assert report["checked"] > 0


def test_criterion_8_graph_extension_property(capsys):
    with criterion(capsys, 8, "random-graph extension property"):
        chain = build_stages(edgeless_graph(2), 1, CatalogParams(2))
        verts = chain.stages[0].carrier
        checked = 0
        for r in range(3):
            for uv in itertools.combinations(verts, r):
                for k in range(len(uv) + 1):
                    u, v = uv[:k], uv[k:]
                    rep = check_graph_extension_property(chain, u, v)
                    assert rep.passed, (u, v)
                    checked += 1
        assert checked > 0


def _tree_hashes(path):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(path).iterdir())}


def test_criterion_9_determinism(capsys, tmp_path):
    with criterion(capsys, 9, "byte-identical reruns"):
        builds = [("edgeless:2", ()), ("antichain:2", ()),
                  ("simplex:2:1", ("--grid", "1,2")),
                  ("freesemilattice:2", ())]
        for root, extra in builds:
            dirs = []
            for tag in ("a", "b"):
                out = tmp_path / f"{root.replace(':', '_')}_{tag}"
                code = cli.main(["build", "--root", root, "--stages", "1",
                                 "--out", str(out), *extra])
                assert code == 0
                dirs.append(out)
            capsys.readouterr()
            assert _tree_hashes(dirs[0]) == _tree_hashes(dirs[1])
        # verify reports are byte-identical across reruns too
        outputs = []
        for _ in range(2):
            code = cli.main(["verify", "--suite", "pushout-oracle",
                             "--class", "graph", "--max-size", "2"])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
