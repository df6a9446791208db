"""Free sums of a root and its arms, and the free amalgam behind them."""

import itertools
from fractions import Fraction

import pytest

from fraisse_forge import (GRAPH, METRIC, POSET, SEMILATTICE, CatalogParams,
                           ExtensionCode, InternalConsistencyError, Span,
                           StructureError, all_structures, amalgamated_sum,
                           apply_code, enumerate_codes, enumerate_extensions,
                           enumerate_homs, free_amalgam, free_sum,
                           induced_substructure, is_embedding,
                           morphism_from_dict, validate)
from fraisse_forge import amalgam
from fraisse_forge.meetglue import SizeCeilingExceeded
from fraisse_forge.presets import (antichain, edgeless_graph,
                                   free_semilattice, semilattice_from_meets,
                                   simplex)
from fraisse_forge.structures import meet_closed_subsets
from helpers import (forced_root_isomorphism, free_sum_isomorphism,
                     semilattice_iterated_sum)


def arms_over_whole(codes, name="x"):
    return tuple((c, name) for c in codes)


class TestConstruction:
    def test_empty_pair_list_is_root(self):
        root = edgeless_graph(2)
        fs = free_sum(root, ())
        assert fs.object == root
        assert fs.root_embedding.mapping == root.carrier

    def test_graph_two_singleton_arms(self):
        # two fresh points, each adjacent to its own base vertex only
        root = edgeless_graph(2)
        fs = free_sum(root, ((ExtensionCode(GRAPH, ("v0",), ("v0",)), "x"),
                             (ExtensionCode(GRAPH, ("v1",), ("v1",)), "y")))
        g = fs.object
        edges = {(a, b) for a in g.carrier for b in g.carrier
                 if a < b and g.adjacent(a, b)}
        assert edges == {("v0", "x"), ("v1", "y")}

    def test_semilattice_two_points_below(self):
        # one-element root, two new points below it: result is the 4-element
        # semilattice {a, x, y, x^y}
        root = semilattice_from_meets("a", {})
        code = ExtensionCode(SEMILATTICE, ("a",), (None,))
        arms = ((code, "x"), (code, "y"))
        for fs in (free_sum(root, arms), semilattice_iterated_sum(root, arms)):
            s = fs.object
            assert len(s.carrier) == 4
            assert s.meet("x", "y") not in ("a", "x", "y")

    def test_one_pair_isomorphic_to_extension(self):
        root = semilattice_from_meets("a", {})
        code = ExtensionCode(SEMILATTICE, ("a",), ("a",))
        fs = free_sum(root, ((code, "x"),))
        assert set(fs.object.carrier) == {"a", "x"}

    def test_base_must_respect_carrier_order(self):
        root = edgeless_graph(2)
        code = ExtensionCode(GRAPH, ("v1", "v0"), ())
        with pytest.raises(StructureError, match="code does not match the base carrier"):
            free_sum(root, ((code, "x"),))

    def test_empty_base_rejected_for_metric_and_semilattice(self):
        with pytest.raises(StructureError,
                           match="empty base is not admissible for class metric"):
            free_sum(simplex(2), ((ExtensionCode(METRIC, (), ()), "x"),))
        with pytest.raises(StructureError,
                           match="empty base is not admissible for class semilattice"):
            free_sum(free_semilattice(1), ((ExtensionCode(SEMILATTICE, (), ()), "x"),))

    def test_arm_of_another_class_rejected(self):
        code = ExtensionCode(POSET, ("v0",), (("v0",), ()))
        with pytest.raises(StructureError, match="poset code cannot extend a graph base"):
            free_sum(edgeless_graph(2), ((code, "x"),))

    def test_legs_embed_and_agree_on_base(self):
        root = simplex(2, 1)
        codes = enumerate_codes(METRIC, root, grid=(Fraction(1), Fraction(2)))
        arms = arms_over_whole(codes[:3])
        fs = free_sum(root, arms)
        for (code, _), leg in zip(arms, fs.leg_embeddings):
            assert is_embedding(leg)
            for b in code.base_carrier:
                assert leg(b) == fs.root_embedding(b)


def all_small_amalgams(tag, grid=None, max_pairs=3):
    """Deterministic stream of (root, arms) over roots of size <= 2."""
    for root in all_structures(tag, 2, grid):
        arm_pool = []
        for base in meet_closed_subsets(root, 2):
            sub = induced_substructure(root, base)
            for code in enumerate_codes(tag, sub, grid=grid):
                arm_pool.append((code, "x"))
        for k in (2, max_pairs):
            if len(arm_pool) >= k:
                yield root, tuple(arm_pool[:k])


class TestMaps:
    @pytest.mark.parametrize("tag,grid", [
        (GRAPH, None), (POSET, None),
        (METRIC, (Fraction(1), Fraction(2))), (SEMILATTICE, None)])
    def test_root_and_legs_are_identity_on_ids(self, tag, grid):
        # the maps are built from carrier positions; their ids are the definition
        checked = 0
        for root, arms in all_small_amalgams(tag, grid):
            fs = free_sum(root, arms)
            assert fs.root_embedding.mapping == root.carrier
            for leg in fs.leg_embeddings:
                assert leg.mapping == leg.source.carrier
            checked += 1
        assert checked > 0


class TestSizeCeiling:
    @pytest.mark.parametrize("hub,code", [
        (edgeless_graph(2), ()),
        (antichain(2), ((), ())),
        (simplex(2, 1), (Fraction(1), Fraction(1)))],
        ids=[GRAPH, POSET, METRIC])
    def test_refused_at_the_exact_size(self, hub, code):
        ext = apply_code(hub, ExtensionCode(hub.class_tag, hub.carrier, code), "x")
        spokes = [(ext, hub.carrier + (x,)) for x in ("a", "b", "c")]
        with pytest.raises(SizeCeilingExceeded) as e:
            free_amalgam(hub, spokes, max_elements=4)
        assert (e.value.ceiling, e.value.reached) == (4, 5)
        assert free_amalgam(hub, spokes, max_elements=5)[0].size == 5

    def test_glue_refusal_is_a_structure_error(self):
        cat = enumerate_extensions(free_semilattice(2), CatalogParams(2))
        with pytest.raises(StructureError, match="exceeds 100 elements"):
            free_sum(cat.root, [(code, "x") for _, code in cat.entries],
                     max_elements=100)


class TestArmWitness:
    def test_arm_that_does_not_embed_is_named(self, monkeypatch):
        root = edgeless_graph(2)
        arms = ((ExtensionCode(GRAPH, ("v0",), ("v0",)), "x"),
                (ExtensionCode(GRAPH, ("v1",), ()), "y"))
        monkeypatch.setattr(amalgam, "is_embedding",
                            lambda m: m.source.carrier[-1] != "y")
        with pytest.raises(InternalConsistencyError, match="arm 1 \\(new id 'y'\\)"):
            free_sum(root, arms)


class TestCoherence:
    @pytest.mark.parametrize("tag,grid", [
        (GRAPH, None), (POSET, None),
        (METRIC, (Fraction(1), Fraction(2))), (SEMILATTICE, None)])
    def test_pair_permutation_isomorphic(self, tag, grid):
        checked = 0
        for root, arms in itertools.islice(all_small_amalgams(tag, grid), 4):
            base = free_sum(root, arms)
            k = len(arms)
            for perm in itertools.permutations(range(k)):
                other = free_sum(root, tuple(arms[i] for i in perm))
                inv = [0] * k
                for j, i in enumerate(perm):
                    inv[i] = j
                assert free_sum_isomorphism(base, other, tuple(inv)) is not None
                checked += 1
        assert checked > 0

    def test_semilattice_iterated_equals_subset_representation(self):
        checked = 0
        for root, arms in all_small_amalgams(SEMILATTICE):
            it = semilattice_iterated_sum(root, arms)
            di = free_sum(root, arms)
            assert free_sum_isomorphism(it, di) is not None
            checked += 1
        assert checked > 0

    def test_mediating_property_two_pairs(self):
        # for every cocone into a small test object there is exactly one
        # mediating morphism out of the sum
        root = antichain(1)
        codes = enumerate_codes(POSET, root)
        arms = arms_over_whole(codes[:2])
        fs = free_sum(root, arms)
        exts = [leg.source for leg in fs.leg_embeddings]
        for q in all_structures(POSET, 3):
            homs_obj = enumerate_homs(fs.object, q)
            for phi in enumerate_homs(root, q):
                for psis in itertools.product(*(enumerate_homs(e, q)
                                                for e in exts)):
                    if any(psi(b) != phi(b)
                           for (code, _), psi in zip(arms, psis)
                           for b in code.base_carrier):
                        continue
                    mediating = [
                        u for u in homs_obj
                        if all(u(fs.root_embedding(a)) == phi(a)
                               for a in root.carrier)
                        and all(u(leg(x)) == psi(x)
                                for leg, psi in zip(fs.leg_embeddings, psis)
                                for x in psi.source.carrier)]
                    assert len(mediating) == 1

    def test_forced_isomorphism_finds_iso(self):
        s1 = free_semilattice(2)
        s2 = semilattice_from_meets("abc", {("a", "b"): "c", ("a", "c"): "c",
                                            ("b", "c"): "c"})
        m = forced_root_isomorphism(s1, s2, {"g0": "a", "g1": "b"})
        assert m is not None and m("(g0^g1)") == "c"

    def test_forced_isomorphism_rejects_non_iso(self):
        s1 = free_semilattice(2)
        # 3-chain c < b < a: not isomorphic to the free semilattice
        chain3 = semilattice_from_meets("abc", {("a", "b"): "b",
                                                ("a", "c"): "c",
                                                ("b", "c"): "c"})
        assert forced_root_isomorphism(s1, chain3, {"g0": "a", "g1": "b"}) is None

    def test_metric_cross_distances_validate(self):
        root = simplex(2, 1)
        codes = enumerate_codes(METRIC, root, grid=(Fraction(1), Fraction(2)))
        fs = free_sum(root, arms_over_whole(codes))
        assert validate(fs.object).ok


def closure_of_union(obj, components):
    """The table of `obj` recomputed from its components alone.

    Each component is `(structure, ids)` with `ids[i]` the id of its element
    i in `obj`.  The union of their relations is closed here: nothing for
    graphs, Warshall transitive closure for posets, Floyd-Warshall min-plus
    for metric spaces.
    """
    tag = obj.class_tag
    pos = {x: i for i, x in enumerate(obj.carrier)}
    m = len(obj.carrier)
    if tag == METRIC:
        t = [[Fraction(0) if i == j else None for j in range(m)] for i in range(m)]
    else:
        t = [[tag == POSET and i == j for j in range(m)] for i in range(m)]
    for s, ids in components:
        at = [pos[x] for x in ids]
        for i, p in enumerate(at):
            for j, q in enumerate(at):
                v = s.table[i][j]
                if tag == METRIC:
                    t[p][q] = v if t[p][q] is None else min(t[p][q], v)
                else:
                    t[p][q] = t[p][q] or v
    if tag != GRAPH:
        for k in range(m):
            for i in range(m):
                for j in range(m):
                    if tag == POSET:
                        t[i][j] = t[i][j] or (t[i][k] and t[k][j])
                    elif t[i][k] is not None and t[k][j] is not None:
                        via = t[i][k] + t[k][j]
                        if t[i][j] is None or via < t[i][j]:
                            t[i][j] = via
    return tuple(map(tuple, t))


RELATIONAL = [(GRAPH, None), (POSET, None), (METRIC, (Fraction(1), Fraction(2)))]


class TestClosureOfUnion:
    @pytest.mark.parametrize("tag,grid", RELATIONAL)
    def test_free_sum(self, tag, grid):
        # arms over the whole root route cross distances through bases of two
        whole = ((root, arms_over_whole(enumerate_codes(tag, root, grid=grid)))
                 for root in all_structures(tag, 2, grid))
        checked = 0
        for root, arms in itertools.chain(all_small_amalgams(tag, grid), whole):
            fs = free_sum(root, arms)
            comps = [(root, root.carrier)] + [
                (leg.source, leg.mapping) for leg in fs.leg_embeddings]
            assert fs.object.table == closure_of_union(fs.object, comps)
            checked += 1
        assert checked > 0

    @pytest.mark.parametrize("tag,grid", RELATIONAL)
    def test_amalgamated_sum_two_point_left_leg(self, tag, grid):
        checked = 0
        for b in all_structures(tag, 2, grid):
            ident = {x: x for x in b.carrier}
            codes = enumerate_codes(tag, b, grid=grid)
            for c1 in codes:
                e1 = apply_code(b, c1, "x")
                for c11 in enumerate_codes(tag, e1, grid=grid):
                    y = apply_code(e1, c11, "w")
                    for c2 in codes:
                        z = apply_code(b, c2, "x")
                        sq = amalgamated_sum(Span(morphism_from_dict(b, y, ident),
                                                  morphism_from_dict(b, z, ident)))
                        comps = [(z, sq.right_leg.mapping), (y, sq.left_leg.mapping)]
                        assert sq.object.table == closure_of_union(sq.object, comps)
                        checked += 1
        assert checked > 0
