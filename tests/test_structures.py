"""Core structure types: validation, morphisms, hom enumeration, codes."""

import itertools
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraisse_forge import (CLASS_TAGS, GRAPH, METRIC, POSET, SEMILATTICE,
                           BoundExceeded,
                           EMBEDDING, HOM, ISOMORPHISM, NOT_HOM, SURJECTION,
                           ExtensionCode, FiniteStructure, Morphism,
                           StructureError, apply_code, classify,
                           enumerate_codes, enumerate_homs, extension_code,
                           generate, identity_morphism, induced_substructure,
                           is_embedding, is_homomorphism, katetov_admissible,
                           morphism_from_dict, validate)
from fraisse_forge.limits import CatalogParams, build_star, enumerate_extensions
from fraisse_forge.presets import (antichain, chain, edgeless_graph,
                                   free_semilattice, graph_from_edges,
                                   metric_from_distances, poset_from_pairs,
                                   semilattice_from_meets, simplex)
from fraisse_forge.pushout import all_structures, congruence_generated
from fraisse_forge.structures import (_morphism,
                                      enumerate_isomorphisms_over_base,
                                      fresh_ids, meet_closed_subsets)
from helpers import rebased


def k2():
    return graph_from_edges(("a", "b"), [("a", "b")])


class TestValidate:
    def test_valid_presets(self):
        for s in (edgeless_graph(3), antichain(3), chain(3), simplex(3),
                  free_semilattice(2), k2()):
            assert validate(s).ok

    def test_graph_loop_rejected(self):
        s = FiniteStructure(GRAPH, ("a",), ((True,),))
        rep = validate(s)
        assert not rep.ok and "a" in rep.witness

    def test_graph_asymmetry_rejected(self):
        s = FiniteStructure(GRAPH, ("a", "b"),
                            ((False, True), (False, False)))
        assert not validate(s).ok

    def test_poset_missing_reflexivity(self):
        s = FiniteStructure(POSET, ("a",), ((False,),))
        assert not validate(s).ok

    def test_poset_antisymmetry(self):
        s = FiniteStructure(POSET, ("a", "b"),
                            ((True, True), (True, True)))
        assert not validate(s).ok

    def test_poset_transitivity(self):
        s = poset_from_pairs("abc", [("a", "b"), ("b", "c")])
        assert not validate(s).ok
        assert validate(poset_from_pairs("abc", [("a", "b"), ("b", "c")],
                                         transitive_close=True)).ok

    def test_metric_triangle(self):
        s = metric_from_distances("abc", {("a", "b"): 1, ("b", "c"): 1,
                                          ("a", "c"): 3})
        rep = validate(s)
        assert not rep.ok and "triangle" in rep.error

    def test_metric_zero_off_diagonal(self):
        s = metric_from_distances("ab", {("a", "b"): 0})
        assert not validate(s).ok

    def test_metric_negative(self):
        s = metric_from_distances("ab", {("a", "b"): Fraction(-1)})
        assert not validate(s).ok

    def test_semilattice_axioms(self):
        # meet(a,b) = b but meet(b,a) = a breaks commutativity
        s = FiniteStructure(SEMILATTICE, ("a", "b"), ((0, 1), (0, 1)))
        assert not validate(s).ok

    def test_semilattice_associativity(self):
        # 3 incomparable elements pairwise meeting in a "rock-paper-scissors"
        # pattern cannot be associative
        s = semilattice_from_meets("abc", {("a", "b"): "a", ("b", "c"): "b",
                                           ("a", "c"): "c"})
        assert not validate(s).ok

    def test_single_entry_mutations_caught_or_valid(self):
        # flipping any one table entry of a valid structure is either still a
        # valid structure or is rejected by validate
        samples = [edgeless_graph(3), k2(), chain(3), antichain(3),
                   free_semilattice(2)]
        for s in samples:
            n = len(s.carrier)
            for i in range(n):
                for j in range(n):
                    t = [list(r) for r in s.table]
                    if s.class_tag == SEMILATTICE:
                        t[i][j] = (t[i][j] + 1) % n
                    else:
                        t[i][j] = not t[i][j]
                    mutant = FiniteStructure(s.class_tag, s.carrier,
                                             tuple(map(tuple, t)))
                    validate(mutant)  # must classify, never crash

    def test_duplicate_carrier_rejected(self):
        s = FiniteStructure(GRAPH, ("b", "a", "a"), ((False,) * 3,) * 3)
        rep = validate(s)
        assert not rep.ok and rep.witness == ("a",)


class TestMorphisms:
    def test_classify_kinds(self):
        g = edgeless_graph(2)
        # constant to a 2-element target is a hom but neither onto nor injective
        const = morphism_from_dict(g, g, {"v0": "v0", "v1": "v0"})
        assert classify(const) == HOM
        onto_point = morphism_from_dict(g, edgeless_graph(1),
                                        {"v0": "v0", "v1": "v0"})
        assert classify(onto_point) == SURJECTION
        incl = morphism_from_dict(edgeless_graph(1), g, {"v0": "v0"})
        assert classify(incl) == EMBEDDING

    def test_classify_on_edge(self):
        s = k2()
        swap = morphism_from_dict(s, s, {"a": "b", "b": "a"})
        assert classify(swap) == ISOMORPHISM
        const = morphism_from_dict(s, s, {"a": "a", "b": "a"})
        assert classify(const) == NOT_HOM  # edge must map to an edge

    def test_embedding_reflects(self):
        p = chain(2)
        q = antichain(2)
        inj = morphism_from_dict(q, p, {"v0": "v0", "v1": "v1"})
        # bijective hom that does not reflect the order: onto but no embedding
        assert classify(inj) == SURJECTION
        assert not is_embedding(inj)
        back = morphism_from_dict(p, q, {"v0": "v0", "v1": "v1"})
        assert classify(back) == NOT_HOM

    def test_metric_embedding_is_isometry(self):
        m = simplex(2, 1)
        target = metric_from_distances("pq", {("p", "q"): Fraction(1, 2)})
        f = morphism_from_dict(m, target, {"v0": "p", "v1": "q"})
        # bijective contraction: onto, but not isometric, so no embedding
        assert classify(f) == SURJECTION
        assert not is_embedding(f)

    def test_compose_right_to_left(self):
        a, b = edgeless_graph(2), edgeless_graph(2)
        f = morphism_from_dict(a, b, {"v0": "v1", "v1": "v1"})
        g = morphism_from_dict(b, b, {"v0": "v0", "v1": "v0"})
        assert g.compose(f).mapping == ("v0", "v0")

    def test_identity(self):
        s = free_semilattice(2)
        assert classify(identity_morphism(s)) == ISOMORPHISM


def reference_kind(x, y, ids):
    """Morphism kind read off the id accessors, independent of positions."""
    f = dict(zip(x.carrier, ids))
    pairs = list(itertools.product(x.carrier, repeat=2))
    if x.class_tag == GRAPH:
        rel_x, rel_y = x.adjacent, y.adjacent
    elif x.class_tag == METRIC:
        rel_x, rel_y = x.dist, y.dist
    else:
        rel_x, rel_y = x.leq, y.leq
    if x.class_tag == GRAPH or x.class_tag == POSET:
        hom = all(not rel_x(u, v) or rel_y(f[u], f[v]) for u, v in pairs)
    elif x.class_tag == METRIC:
        hom = all(y.dist(f[u], f[v]) <= x.dist(u, v) for u, v in pairs)
    else:
        hom = all(f[x.meet(u, v)] == y.meet(f[u], f[v]) for u, v in pairs)
    if not hom:
        return NOT_HOM
    embedding = len(set(ids)) == len(ids) and all(
        rel_x(u, v) == rel_y(f[u], f[v]) for u, v in pairs)
    surjective = set(ids) == set(y.carrier)
    if embedding:
        return ISOMORPHISM if surjective else EMBEDDING
    return SURJECTION if surjective else HOM


class TestHashing:
    def test_cached_hash_is_not_pickled(self):
        # string hashes differ between processes
        s = free_semilattice(2)
        before = pickle.dumps(s)
        h = hash(s)
        assert pickle.dumps(s) == before
        copy = pickle.loads(before)
        assert copy == s and hash(copy) == h


class TestPositionRepresentation:
    """Morphisms store target positions; every id-level reading must agree
    with plain id maps on all maps between structures of up to 2 points."""

    @staticmethod
    def maps(objs):
        return [(x, y, ids) for x in objs for y in objs
                for ids in itertools.product(y.carrier, repeat=len(x.carrier))]

    @pytest.mark.parametrize("tag", [GRAPH, POSET, METRIC, SEMILATTICE])
    def test_against_id_maps(self, tag):
        grid = (Fraction(1), Fraction(2)) if tag == METRIC else None
        objs = all_structures(tag, 2, grid)
        maps = self.maps(objs)
        ms = [Morphism(x, y, ids) for x, y, ids in maps]
        for m, (x, y, ids) in zip(ms, maps):
            assert m.mapping == ids
            assert [m(a) for a in x.carrier] == list(ids)
            assert m.image() == tuple(b for b in y.carrier if b in ids)
            assert classify(m) == reference_kind(x, y, ids)
            with pytest.raises(StructureError):
                Morphism(x, y, ids[:-1])
            with pytest.raises(StructureError):
                Morphism(x, y, ids[:-1] + ("foreign",))
            with pytest.raises(StructureError):
                morphism_from_dict(x, y, dict(zip(x.carrier[:-1], ids)))
            with pytest.raises(AttributeError):
                m.positions = ()
        for m1, (x, y, ids1) in zip(ms, maps):
            d1 = dict(zip(x.carrier, ids1))
            for m2, (y2, z, ids2) in zip(ms, maps):
                if y2 is not y:
                    if y2 != y:
                        with pytest.raises(StructureError):
                            m2.compose(m1)
                    continue
                d2 = dict(zip(y.carrier, ids2))
                want = tuple(d2[d1[a]] for a in x.carrier)
                got = m2.compose(m1)
                assert got.mapping == want
                assert got == Morphism(x, z, want)
        # equality and hashing across equal but distinct structure objects
        copies = [Morphism(x, y, ids) for x, y, ids in
                  self.maps(all_structures(tag, 2, grid))]
        for a in ms:
            key = (a.source, a.target, a.mapping)
            for b in copies:
                same = key == (b.source, b.target, b.mapping)
                assert (a == b) is same and (a != b) is not same
                if same:
                    assert hash(a) == hash(b)


class TestSubstructures:
    def test_induced_preserves_order(self):
        p = chain(3)
        sub = induced_substructure(p, ("v0", "v2"))
        assert sub.carrier == ("v0", "v2") and sub.leq("v0", "v2")

    def test_semilattice_not_meet_closed(self):
        s = free_semilattice(2)
        with pytest.raises(StructureError):
            induced_substructure(s, ("g0", "g1"))

    def test_generate_closes(self):
        s = free_semilattice(2)
        g = generate(s, ("g0", "g1"))
        assert set(g.carrier) == {"g0", "g1", "(g0^g1)"}

    def test_meet_closed_subsets(self):
        s = free_semilattice(2)
        subs = list(meet_closed_subsets(s, 2))
        # independent count: 3 singletons plus the two 2-chains through the meet
        assert len(subs) == 5
        assert ("g0", "g1") not in subs


class TestForeignIds:
    """Every operation that takes ids refuses a foreign one as
    `FiniteStructure.index` does, naming the id."""

    @pytest.mark.parametrize("call", [
        lambda s: congruence_generated(s, [("g0", "zz")]),
        lambda s: induced_substructure(s, ("g0", "zz")),
        lambda s: generate(s, ("zz",)),
        lambda s: identity_morphism(s)("zz"),
    ], ids=["congruence_generated", "induced_substructure", "generate",
            "morphism-call"])
    def test_foreign_id_named(self, call):
        with pytest.raises(StructureError, match="'zz'"):
            call(free_semilattice(2))

    @pytest.mark.parametrize("build", [
        lambda: graph_from_edges("ab", [("a", "zz")]),
        lambda: poset_from_pairs("ab", [("zz", "a")]),
        lambda: metric_from_distances("ab", {("a", "zz"): 1}),
        lambda: semilattice_from_meets("ab", {("a", "b"): "zz"}),
    ], ids=["graph_from_edges", "poset_from_pairs", "metric_from_distances",
            "semilattice_from_meets"])
    def test_preset_builder_names_foreign_id(self, build):
        with pytest.raises(StructureError, match="^'zz' is not in the structure$"):
            build()


class TestEnumerateHoms:
    def test_point_to_n(self):
        pt = edgeless_graph(1)
        assert len(enumerate_homs(pt, edgeless_graph(4))) == 4

    def test_k2_to_k2(self):
        assert len(enumerate_homs(k2(), k2())) == 2

    def test_chain_to_antichain(self):
        assert len(enumerate_homs(chain(2), antichain(2))) == 2

    def test_bound_refusal(self):
        big = edgeless_graph(13)
        with pytest.raises(BoundExceeded):
            enumerate_homs(big, edgeless_graph(4))  # 13 * 2 bits > 24

    def test_against_brute_force(self):
        # independent oracle: filter all carrier self-maps by direct axiom reads
        cases = [(k2(), k2()), (chain(2), chain(3)),
                 (free_semilattice(2), free_semilattice(2)),
                 (simplex(2, 1), simplex(3, 1))]
        for x, y in cases:
            got = {m.mapping for m in enumerate_homs(x, y)}
            want = set()
            for images in itertools.product(y.carrier, repeat=len(x.carrier)):
                m = Morphism(x, y, images)
                if classify(m) != NOT_HOM:
                    want.add(images)
            assert got == want

    @pytest.mark.parametrize("tag", [GRAPH, POSET, METRIC, SEMILATTICE])
    def test_ordered_against_all_maps(self, tag):
        # the same position lists, in the same order, as every map in
        # lexicographic order filtered by the hom check
        grid = (Fraction(1), Fraction(2), Fraction(3)) if tag == METRIC else None
        objs = all_structures(tag, 3, grid)
        if tag == SEMILATTICE:
            # a meet that lies after both its arguments in carrier order
            assert any(x.size == 3 and x.table[0][1] == 2 for x in objs)
        for x in objs:
            for y in objs:
                want = [p for p in itertools.product(range(len(y.carrier)),
                                                     repeat=len(x.carrier))
                        if is_homomorphism(_morphism(x, y, p))]
                got = [m.positions for m in enumerate_homs(x, y)]
                assert got == want, (x, y)

    @given(st.integers(0, 2**6 - 1))
    @settings(max_examples=32, deadline=None)
    def test_hom_composition_closed(self, mask):
        # composing any two enumerated endomorphisms yields an enumerated one
        bits = [(mask >> k) & 1 for k in range(6)]
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        g = graph_from_edges([f"v{i}" for i in range(4)],
                             [(f"v{i}", f"v{j}")
                              for (i, j), b in zip(pairs, bits) if b])
        homs = {m.mapping for m in enumerate_homs(g, g)}
        sample = sorted(homs)[:6]
        for m1 in sample:
            for m2 in sample:
                a = Morphism(g, g, m1)
                b = Morphism(g, g, m2)
                assert b.compose(a).mapping in homs


class TestExtensionCodes:
    def test_roundtrip_all_classes(self):
        # the record's code writer and reader are inverse on every base of
        # at most three points
        grid = (Fraction(1), Fraction(2), Fraction(3))
        for tag in CLASS_TAGS:
            for base in all_structures(tag, 3, grid):
                for code in enumerate_codes(tag, base, grid=grid):
                    ext = apply_code(base, code, "new")
                    assert validate(ext).ok
                    assert extension_code(ext, base.carrier, "new") == code

    def test_read_in_star_all_classes(self):
        # each arm's fresh point shares the star with every other arm and
        # still carries exactly its catalog code over its base
        cases = [(edgeless_graph(2), CatalogParams(2)),
                 (antichain(2), CatalogParams(2)),
                 (simplex(2, 1), CatalogParams(2, (Fraction(1), Fraction(2)))),
                 (free_semilattice(2), CatalogParams(2))]
        for root, params in cases:
            catalog = enumerate_extensions(root, params)
            star = build_star(root, catalog)
            assert len(star.object.carrier) > len(root.carrier) + 1
            for (base, code), nid in zip(catalog.entries, star.new_ids):
                assert extension_code(star.object, base, nid) == code

    def test_code_equality_iff_iso_over_base(self):
        # brute-force cross-check on a 2-element poset base
        base = antichain(2)
        codes = enumerate_codes(POSET, base)
        for c1 in codes:
            for c2 in codes:
                e1 = apply_code(base, c1, "n")
                e2 = apply_code(base, c2, "n")
                isos = enumerate_isomorphisms_over_base(e1, e2, base.carrier)
                assert (len(isos) > 0) == (c1 == c2)

    def test_katetov_iff_validate(self):
        base = metric_from_distances("ab", {("a", "b"): 2})
        grid = [Fraction(k, 2) for k in range(0, 9)]
        for vec in itertools.product(grid, repeat=2):
            ext = FiniteStructure(METRIC, ("a", "b", "x"), (
                (Fraction(0), Fraction(2), vec[0]),
                (Fraction(2), Fraction(0), vec[1]),
                (vec[0], vec[1], Fraction(0))))
            assert katetov_admissible(base, vec) == validate(ext).ok

    def test_poset_whole_base_code_count(self):
        # disjoint (L, U) with every l < u forces one side empty over an
        # antichain: 9 disjoint pairs minus the 2 mixed ones
        assert len(enumerate_codes(POSET, antichain(2))) == 7

    def test_graph_code_count(self):
        assert len(enumerate_codes(GRAPH, edgeless_graph(3))) == 8

    def test_metric_singleton_grid(self):
        base = simplex(1)
        codes = enumerate_codes(METRIC, base, grid=(Fraction(1), Fraction(2)))
        assert [c.code for c in codes] == [(Fraction(1),), (Fraction(2),)]

    def test_empty_base_only_relational(self):
        assert len(enumerate_codes(GRAPH, None)) == 1
        assert len(enumerate_codes(POSET, None)) == 1
        with pytest.raises(StructureError):
            enumerate_codes(METRIC, None, grid=(Fraction(1),))
        with pytest.raises(StructureError):
            enumerate_codes(SEMILATTICE, None)

    def test_code_of_another_class_refused(self):
        code = ExtensionCode("poset", ("v0", "v1"), (("v0",), ()))
        with pytest.raises(StructureError, match="poset code cannot extend a graph base"):
            apply_code(edgeless_graph(2), code, "x")

    def test_rebased(self):
        base = edgeless_graph(2)
        code = ExtensionCode(GRAPH, base.carrier, ("v0",))
        swapped = rebased(code, {"v0": "v1", "v1": "v0"}, base.carrier)
        assert swapped.code == ("v1",)


class TestPresets:
    def test_free_semilattice_generator_cap(self):
        assert len(free_semilattice(6).carrier) == 63
        with pytest.raises(StructureError, match="capped at 6 generators"):
            free_semilattice(7)


class TestFreshIds:
    def test_collision_renaming(self):
        assert fresh_ids("x", 3, {"x1"}) == ["x0", "x1_0", "x2"]

    def test_deterministic(self):
        assert fresh_ids("y", 2, set()) == fresh_ids("y", 2, set())
