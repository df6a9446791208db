"""Pushout recipes, contracts, congruences, and the universal-property oracle."""

import itertools
import re
from fractions import Fraction

import pytest

from fraisse_forge import (GRAPH, METRIC, POSET, SEMILATTICE,
                           ExtensionCode, FiniteStructure,
                           InternalConsistencyError, PushoutSquare, Span,
                           StructureError,
                           ValidationReport, all_structures, amalgamated_sum,
                           apply_code, classify, congruence_generated,
                           enumerate_codes, enumerate_homs,
                           identity_morphism, is_embedding, is_surjection,
                           morphism_from_dict, pushout_1phep, quotient,
                           validate, verify_universal_property)
from fraisse_forge import pushout, structures
from fraisse_forge.presets import (antichain, chain, edgeless_graph,
                                   free_semilattice, graph_from_edges,
                                   metric_from_distances, poset_from_pairs,
                                   semilattice_from_meets, simplex)
from fraisse_forge.structures import Morphism, _fresh_id, meet_closed_subsets
from fraisse_forge.suites import enumerate_1phep_spans
from helpers import is_meet_compatible, reference_universal_property


def embed_into_code_extension(base, code, new="x"):
    ext = apply_code(base, code, new)
    return morphism_from_dict(base, ext, {b: b for b in base.carrier}), ext


class TestSpanContracts:
    def test_span_source_mismatch(self):
        a, b = edgeless_graph(1), edgeless_graph(2)
        with pytest.raises(StructureError):
            Span(identity_morphism(a), identity_morphism(b))

    def test_1phep_needs_embedding_left(self):
        b = chain(2)
        notemb = morphism_from_dict(antichain(2), b, {"v0": "v0", "v1": "v1"})
        with pytest.raises(StructureError):
            pushout_1phep(Span(notemb, identity_morphism(antichain(2))))

    def test_1phep_needs_surjection_right(self):
        b = edgeless_graph(1)
        incl, ext = embed_into_code_extension(b, ExtensionCode(GRAPH, b.carrier, ()))
        non_surj = morphism_from_dict(b, edgeless_graph(2), {"v0": "v0"})
        with pytest.raises(StructureError):
            pushout_1phep(Span(incl, non_surj))

    def test_1phep_needs_one_point(self):
        b = edgeless_graph(1)
        big = edgeless_graph(3)
        emb = morphism_from_dict(b, big, {"v0": "v0"})
        with pytest.raises(StructureError):
            pushout_1phep(Span(emb, identity_morphism(b)))


class TestGraphPushout:
    def test_adjoin_neighbors_follow_f(self):
        b = graph_from_edges("ab", [])
        incl, c = embed_into_code_extension(b, ExtensionCode(GRAPH, ("a", "b"), ("a",)))
        bp = edgeless_graph(1)
        f = morphism_from_dict(b, bp, {"a": "v0", "b": "v0"})
        sq = pushout_1phep(Span(incl, f))
        # new point adjacent exactly to f(a) = v0
        new = sq.left_leg("x")
        assert sq.object.adjacent(new, "v0")
        assert len(sq.object.carrier) == 2

    def test_legs_classified(self):
        for span in itertools.islice(enumerate_1phep_spans(GRAPH, 2), 50):
            sq = pushout_1phep(span)
            assert is_surjection(sq.left_leg)
            assert is_embedding(sq.right_leg)


class TestPosetPushout:
    def test_collapse_case(self):
        b = chain(2)
        incl, c = embed_into_code_extension(
            b, ExtensionCode(POSET, b.carrier, (("v0",), ("v1",))))
        bp = antichain(1)
        f = morphism_from_dict(b, bp, {"v0": "v0", "v1": "v0"})
        sq = pushout_1phep(Span(incl, f))
        assert sq.witness["case"] == "collapse"
        assert len(sq.object.carrier) == 1

    def test_insert_case_transitive(self):
        b = chain(2)
        incl, c = embed_into_code_extension(
            b, ExtensionCode(POSET, b.carrier, (("v0",), ("v1",))))
        sq = pushout_1phep(Span(incl, identity_morphism(b)))
        assert sq.witness["case"] == "insert"
        p = sq.object
        new = sq.witness["new_point"]
        assert p.leq("v0", new) and p.leq(new, "v1") and validate(p).ok


class TestMetricPushout:
    def test_min_formula(self):
        # independently recompute every new distance as the min-plus value
        b = simplex(2, 1)
        code = ExtensionCode(METRIC, b.carrier, (Fraction(1), Fraction(2)))
        incl, c = embed_into_code_extension(b, code)
        bp = metric_from_distances("pq", {("p", "q"): Fraction(1, 3)})
        f = morphism_from_dict(b, bp, {"v0": "p", "v1": "q"})
        sq = pushout_1phep(Span(incl, f))
        new = sq.witness["new_point"]
        fmap = {"v0": "p", "v1": "q"}
        for target in bp.carrier:
            want = min(c.dist("x", w) + bp.dist(fmap[w], target)
                       for w in b.carrier)
            assert sq.object.dist(new, target) == want

    def test_exact_rationals(self):
        b = metric_from_distances("ab", {("a", "b"): Fraction(1, 3)})
        code = ExtensionCode(METRIC, b.carrier, (Fraction(1, 6), Fraction(1, 2)))
        incl, c = embed_into_code_extension(b, code)
        sq = pushout_1phep(Span(incl, identity_morphism(b)))
        assert all(isinstance(d, Fraction) for row in sq.object.table for d in row)


class TestSemilatticePushout:
    def test_quotient_case(self):
        b = semilattice_from_meets("ab", {("a", "b"): "a"})
        code = ExtensionCode(SEMILATTICE, ("a", "b"), ("a", None))
        incl, c = embed_into_code_extension(b, code)
        bp = semilattice_from_meets("p", {})
        f = morphism_from_dict(b, bp, {"a": "p", "b": "p"})
        sq = pushout_1phep(Span(incl, f))
        # collapsing the chain collapses the in-between point too
        assert len(sq.object.carrier) == 1

    def test_kernel_preserved(self):
        # the congruence restricted to the base equals ker f
        b = free_semilattice(2)
        code = ExtensionCode(SEMILATTICE, b.carrier, ("g0", "(g0^g1)", "(g0^g1)"))
        incl, c = embed_into_code_extension(b, code)
        bp = semilattice_from_meets("uv", {("u", "v"): "u"})
        f = morphism_from_dict(b, bp, {"g0": "u", "g1": "v", "(g0^g1)": "u"})
        assert is_surjection(f)
        sq = pushout_1phep(Span(incl, f))
        assert is_embedding(sq.right_leg)


class TestOracle:
    def test_all_classes_small(self):
        grids = {METRIC: (Fraction(1), Fraction(2))}
        for tag in (GRAPH, POSET, METRIC, SEMILATTICE):
            objs = all_structures(tag, 2, grids.get(tag))
            count = 0
            for span in enumerate_1phep_spans(tag, 2, grids.get(tag, ())):
                sq = pushout_1phep(span)
                rep = verify_universal_property(sq, objs)
                assert rep.passed, (tag, span)
                count += 1
            assert count > 0

    def test_oracle_rejects_wrong_object(self):
        # replacing the pushout by a strictly larger cocone must fail uniqueness
        b = edgeless_graph(1)
        incl, c = embed_into_code_extension(b, ExtensionCode(GRAPH, b.carrier, ()))
        sq = pushout_1phep(Span(incl, identity_morphism(b)))
        # bogus object: add one extra isolated vertex and embed the legs
        bogus_obj = edgeless_graph(3)
        bogus = PushoutSquare(
            sq.span, bogus_obj,
            morphism_from_dict(c, bogus_obj, {"v0": "v0", "x": "v1"}),
            morphism_from_dict(b, bogus_obj, {"v0": "v0"}),
            witness={})
        rep = verify_universal_property(bogus, all_structures(GRAPH, 2))
        assert not rep.passed

    def test_oracle_checks_the_legs_it_is_given(self):
        # the new point x is adjacent to v0, but the object drops that edge:
        # the square commutes and every cocone has one mediator, yet the
        # left leg is not a homomorphism
        b = edgeless_graph(1)
        incl, c = embed_into_code_extension(b, ExtensionCode(GRAPH, b.carrier, ("v0",)))
        obj = edgeless_graph(2)
        sq = PushoutSquare(Span(incl, identity_morphism(b)), obj,
                           morphism_from_dict(c, obj, {"v0": "v0", "x": "v1"}),
                           morphism_from_dict(b, obj, {"v0": "v0"}), witness={})
        rep = verify_universal_property(sq, all_structures(GRAPH, 2))
        assert not rep.passed
        assert rep.failures == (("left leg", ("v0", "x"), "not a homomorphism"),)
        assert rep.objects_tested == rep.cocones_checked == 0

    def test_oracle_skips_beyond_bound(self):
        b = edgeless_graph(1)
        incl, c = embed_into_code_extension(b, ExtensionCode(GRAPH, b.carrier, ()))
        sq = pushout_1phep(Span(incl, identity_morphism(b)))
        rep = verify_universal_property(sq, [edgeless_graph(3)], bound_bits=1)
        assert rep.skipped and rep.objects_tested == 0


def first_non_hom(x, y):
    """The first map x -> y in lexicographic order that is not a hom."""
    for p in itertools.product(range(len(y.carrier)), repeat=len(x.carrier)):
        m = structures._morphism(x, y, p)
        if not structures.is_homomorphism(m):
            return m
    return None


# ways to corrupt the list of homs out of a pushout object
HOM_LIST_EDITS = {
    "unchanged": lambda homs, x, y: homs,
    "last dropped": lambda homs, x, y: homs[:-1],
    "first duplicated": lambda homs, x, y: homs[:1] + homs,
    "non-hom added": lambda homs, x, y: homs + tuple(
        m for m in [first_non_hom(x, y)] if m is not None),
}


def oracle_squares():
    """Every 1PHEP pushout of size <= 2 in all four classes, and the
    semilattice amalgamated sums over bases of size <= 2, each with the test
    objects of size <= 2 of its class."""
    grid = (Fraction(1), Fraction(2))
    for tag in (GRAPH, POSET, METRIC, SEMILATTICE):
        objs = all_structures(tag, 2, grid if tag == METRIC else None)
        for span in enumerate_1phep_spans(tag, 2, grid):
            yield pushout_1phep(span), objs
    objs = all_structures(SEMILATTICE, 2)
    for b in objs:
        ident = {x: x for x in b.carrier}
        codes = enumerate_codes(SEMILATTICE, b)
        for c1, c2 in itertools.product(codes, repeat=2):
            e1, e2 = apply_code(b, c1, "x*"), apply_code(b, c2, "y*")
            yield amalgamated_sum(Span(morphism_from_dict(b, e1, ident),
                                       morphism_from_dict(b, e2, ident))), objs


class TestOracleAgainstReference:
    def test_equal_reports(self, monkeypatch):
        # The count decides each cocone, as the forced-map check did.  The
        # homs out of each pushout object are also corrupted for both
        # oracles, so that every kind of failure is compared.
        cached = pushout._homs_cached
        labels, compared = set(), 0
        for edit, change in HOM_LIST_EDITS.items():
            for sq, objs in oracle_squares():
                def homs(x, y, bound_bits, p=sq.object, change=change):
                    got = cached(x, y, bound_bits)
                    return change(got, x, y) if x == p else got

                monkeypatch.setattr(pushout, "_homs_cached", homs)
                want = reference_universal_property(sq, objs)
                assert verify_universal_property(sq, objs) == want, (edit, sq)
                assert want.passed or edit != "unchanged", sq
                labels.update(f[-1] for f in want.failures)
                compared += 1
        assert compared == 856  # 214 squares, four hom lists each
        assert "forced/enumerated mismatch" in labels
        assert {"0 mediating morphisms", "2 mediating morphisms"} <= labels


class TestCongruence:
    def test_generated_is_meet_compatible(self):
        s = free_semilattice(3)
        cong = congruence_generated(s, [("g0", "g1")])
        assert is_meet_compatible(cong)

    def test_kernel_restriction_small(self):
        # theta generated in C by ker f meets B x B exactly in ker f,
        # for every semilattice B of size <= 3, surjection f, extension C
        from fraisse_forge.structures import is_surjection as surj
        for b in all_structures(SEMILATTICE, 3):
            targets = [t for t in all_structures(SEMILATTICE, len(b.carrier))]
            for code in enumerate_codes(SEMILATTICE, b):
                c = apply_code(b, code, "x*")
                for bp in targets:
                    for f in enumerate_homs(b, bp):
                        if not surj(f):
                            continue
                        ker = {(u, v) for u in b.carrier for v in b.carrier
                               if f(u) == f(v)}
                        theta = congruence_generated(c, [p for p in ker
                                                         if p[0] != p[1]])
                        block = {x: k for k, blk in enumerate(theta.blocks)
                                 for x in blk}
                        got = {(u, v) for u in b.carrier for v in b.carrier
                               if block[u] == block[v]}
                        assert got == ker

    def test_quotient_blocks_named_by_first(self):
        s = free_semilattice(2)
        cong = congruence_generated(s, [("g0", "(g0^g1)")])
        q, nu = quotient(s, cong)
        assert "g0" in q.carrier and nu("(g0^g1)") == "g0"
        assert validate(q).ok

    def test_trivial_congruence(self):
        s = free_semilattice(2)
        cong = congruence_generated(s, [])
        assert len(cong.blocks) == len(s.carrier)

    def test_quotient_against_blockwise_ids(self):
        # reference: the meet of the blocks' first members, looked up by id
        checked = 0
        for s in all_structures(SEMILATTICE, 3) + [free_semilattice(3)]:
            for u, v in itertools.combinations(s.carrier, 2):
                cong = congruence_generated(s, [(u, v)])
                reps = [b[0] for b in cong.blocks]
                block = {x: k for k, b in enumerate(cong.blocks) for x in b}
                table = tuple(tuple(block[s.meet(a, b)] for b in reps) for a in reps)
                q, nu = quotient(s, cong)
                assert q == FiniteStructure(SEMILATTICE, tuple(reps), table)
                assert nu.mapping == tuple(reps[block[x]] for x in s.carrier)
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("blocks", [
        (("g0",), ("g1",)),
        (("g0", "g1"), ("g1", "(g0^g1)")),
        (("g0", "g1", "(g0^g1)"), ()),
        (("g0", "g1", "(g0^g1)", "zz"),),
    ], ids=["missing", "overlapping", "empty", "foreign"])
    def test_quotient_needs_a_partition(self, blocks):
        s = free_semilattice(2)
        with pytest.raises(StructureError, match="partition"):
            quotient(s, pushout.Congruence(s, blocks))

    def test_ill_defined_quotient_names_its_pair(self):
        # the chain c < b < a with a ~ c: b^a = b but b^c = c
        s = semilattice_from_meets("abc", {("a", "b"): "b", ("a", "c"): "c",
                                           ("b", "c"): "c"})
        cong = pushout.Congruence(s, (("a", "c"), ("b",)))
        with pytest.raises(InternalConsistencyError) as e:
            quotient(s, cong)
        u, v = re.search(r"ill-defined at \((\w+), (\w+)\)", str(e.value)).groups()
        block = {x: k for k, b in enumerate(cong.blocks) for x in b}
        assert any(block[s.meet(u2, v2)] != block[s.meet(u, v)]
                   for u2 in cong.blocks[block[u]] for v2 in cong.blocks[block[v]])


class TestAmalgamatedSum:
    def test_needs_embeddings(self):
        b = chain(2)
        bad = morphism_from_dict(b, antichain(1), {"v0": "v0", "v1": "v0"})
        with pytest.raises(StructureError):
            amalgamated_sum(Span(bad, identity_morphism(b)))

    def test_right_keeps_ids_left_renamed_on_collision(self):
        b = edgeless_graph(1)
        y = graph_from_edges(("v0", "w"), [("v0", "w")])
        z = graph_from_edges(("v0", "w"), [])  # same fresh id on both sides
        sq = amalgamated_sum(Span(
            morphism_from_dict(b, y, {"v0": "v0"}),
            morphism_from_dict(b, z, {"v0": "v0"})))
        assert "w" in sq.object.carrier          # z's copy keeps its id
        assert sq.left_leg("w") != "w"           # y's copy was renamed

    def test_metric_cross_distance_routed_through_base(self):
        b = simplex(1)
        y = metric_from_distances(("v0", "y"), {("v0", "y"): Fraction(3, 2)})
        z = metric_from_distances(("v0", "z"), {("v0", "z"): Fraction(1, 2)})
        sq = amalgamated_sum(Span(
            morphism_from_dict(b, y, {"v0": "v0"}),
            morphism_from_dict(b, z, {"v0": "v0"})))
        assert sq.object.dist("y", "z") == Fraction(2)

    def test_both_legs_embeddings_all_classes(self):
        grids = {METRIC: (Fraction(1), Fraction(2))}
        for tag in (GRAPH, POSET, METRIC, SEMILATTICE):
            for b in all_structures(tag, 2, grids.get(tag)):
                codes = enumerate_codes(tag, b, grid=grids.get(tag))
                for c1 in codes[:3]:
                    for c2 in codes[:3]:
                        l1, e1 = embed_into_code_extension(b, c1, "p")
                        l2, e2 = embed_into_code_extension(b, c2, "q")
                        sq = amalgamated_sum(Span(l1, l2))
                        assert is_embedding(sq.left_leg)
                        assert is_embedding(sq.right_leg)

    def test_legs_against_id_renaming(self):
        # y names its base points apart from z, in reverse order, and reuses
        # z's fresh id; the legs must be the renaming defined on ids
        grids = {METRIC: (Fraction(1), Fraction(2))}
        checked = 0
        for tag in (GRAPH, POSET, METRIC, SEMILATTICE):
            for b in all_structures(tag, 2, grids.get(tag)):
                codes = enumerate_codes(tag, b, grid=grids.get(tag))
                for c1 in codes:
                    e1 = apply_code(b, c1, "x")
                    y = FiniteStructure(tag, tuple(f"y{k}" for k in reversed(
                        range(len(b.carrier)))) + ("x",), e1.table)
                    left = Morphism(b, y, y.carrier[:-1])
                    for c2 in codes:
                        z = apply_code(b, c2, "x")
                        right = morphism_from_dict(b, z, {x: x for x in b.carrier})
                        sq = amalgamated_sum(Span(left, right))
                        into_z = {left(e): right(e) for e in b.carrier}
                        taken = set(z.carrier)
                        rename = {}
                        for e in y.carrier:
                            if e in into_z:
                                rename[e] = into_z[e]
                            else:
                                rename[e] = _fresh_id(e, taken)
                                taken.add(rename[e])
                        assert sq.left_leg == morphism_from_dict(y, sq.object, rename)
                        assert sq.right_leg == morphism_from_dict(
                            z, sq.object, {e: e for e in z.carrier})
                        checked += 1
        assert checked > 0

    def test_mediating_property_small(self):
        # the sum is the pushout: unique mediating morphism per cocone
        b = antichain(1)
        y = poset_from_pairs(("v0", "y"), [("v0", "y")])
        z = poset_from_pairs(("v0", "z"), [("z", "v0")])
        sq = amalgamated_sum(Span(
            morphism_from_dict(b, y, {"v0": "v0"}),
            morphism_from_dict(b, z, {"v0": "v0"})))
        rep = verify_universal_property(sq, all_structures(POSET, 3))
        assert rep.passed and rep.cocones_checked > 0

    def test_large_result_validated(self, monkeypatch):
        # two copies of the 15-element free semilattice glued at their bottoms
        f = free_semilattice(4)
        b = FiniteStructure(SEMILATTICE, ("p",), ((0,),))
        leg = morphism_from_dict(b, f, {"p": f.carrier[-1]})
        seen = []

        def spy(s):
            seen.append(s)
            return validate(s)

        monkeypatch.setattr(structures, "validate", spy)
        sq = amalgamated_sum(Span(leg, leg))
        assert len(sq.object.carrier) > 64
        assert any(s is sq.object for s in seen)
        monkeypatch.setattr(structures, "validate", lambda s: ValidationReport(
            len(s.carrier) <= 64, "probe", (s.carrier[0],)))
        with pytest.raises(InternalConsistencyError, match="probe"):
            amalgamated_sum(Span(leg, leg))


class TestPushoutWitnesses:
    """Internal-consistency failures of the pushouts name their witness."""

    def test_square_that_does_not_commute_names_the_apex_point(self):
        b = edgeless_graph(2)
        span = Span(identity_morphism(b), identity_morphism(b))
        swap = morphism_from_dict(b, b, {"v0": "v1", "v1": "v0"})
        with pytest.raises(InternalConsistencyError,
                           match="does not commute at 'v0'"):
            PushoutSquare(span, b, swap, identity_morphism(b), witness={})

    @staticmethod
    def poset_span(monkeypatch, b, code, bp, images):
        """A span whose right leg `images` is no hom, let through the checks."""
        incl, c = embed_into_code_extension(b, ExtensionCode(POSET, b.carrier, code))
        monkeypatch.setattr(pushout, "is_surjection", lambda m: True)
        return Span(incl, Morphism(b, bp, images))

    def test_collapse_point_not_unique_names_the_shared_points(self, monkeypatch):
        # x sits between {a, b} and {c, d}; the right leg folds both pairs
        b = poset_from_pairs("abcd", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
        span = self.poset_span(monkeypatch, b, (("a", "b"), ("c", "d")),
                               antichain(2), ("v0", "v1", "v0", "v1"))
        with pytest.raises(InternalConsistencyError,
                           match=r"not unique: \['v0', 'v1'\]"):
            pushout_1phep(span)

    def test_insertion_breaking_antisymmetry_names_the_points(self, monkeypatch):
        # x sits between v0 < v1, and the right leg reverses the chain
        b = chain(2)
        span = self.poset_span(monkeypatch, b, (("v0",), ("v1",)),
                               chain(2), ("v1", "v0"))
        with pytest.raises(InternalConsistencyError,
                           match=r"antisymmetry at \['v0', 'v1'\]"):
            pushout_1phep(span)

    @staticmethod
    def corrupt_morphisms(monkeypatch, source, positions):
        """Make `pushout._morphism` build every map out of `source`, except
        the identity, with the given positions."""
        real = pushout._morphism

        def corrupt(s, t, p):
            return real(s, t, positions if s is source and t is not s else p)

        monkeypatch.setattr(pushout, "_morphism", corrupt)

    def test_1phep_left_leg_names_kind_and_violation(self, monkeypatch):
        b = edgeless_graph(1)
        incl, c = embed_into_code_extension(b, ExtensionCode(GRAPH, b.carrier, ("v0",)))
        self.corrupt_morphisms(monkeypatch, c, (0, 0))  # x onto its neighbour
        with pytest.raises(InternalConsistencyError) as e:
            pushout_1phep(Span(incl, identity_morphism(b)))
        assert "left leg" in str(e.value)
        assert "'not-hom', hom violation at ('v0', 'x')" in str(e.value)

    def test_1phep_right_leg_names_kind_and_violation(self, monkeypatch):
        b = edgeless_graph(2)
        incl, c = embed_into_code_extension(b, ExtensionCode(GRAPH, b.carrier, ("v0",)))
        self.corrupt_morphisms(monkeypatch, b, (0, 2))  # v1 onto x*, beside v0
        with pytest.raises(InternalConsistencyError) as e:
            pushout_1phep(Span(incl, identity_morphism(b)))
        assert "right leg" in str(e.value)
        assert "'hom', hom violation at None" in str(e.value)

    def test_amalgamated_sum_leg_names_kind_and_violation(self, monkeypatch):
        b = edgeless_graph(1)
        y = graph_from_edges(("v0", "p"), [("v0", "p")])
        z = graph_from_edges(("v0", "q"), [])
        span = Span(morphism_from_dict(b, y, {"v0": "v0"}),
                    morphism_from_dict(b, z, {"v0": "v0"}))
        self.corrupt_morphisms(monkeypatch, y, (0, 1))  # p onto q
        with pytest.raises(InternalConsistencyError) as e:
            amalgamated_sum(span)
        assert "left leg" in str(e.value)
        assert "'not-hom', hom violation at ('v0', 'p')" in str(e.value)


class TestAllStructures:
    def test_counts_against_independent_formulas(self):
        # graphs on n labeled vertices: 2^C(n,2)
        assert len(all_structures(GRAPH, 3)) == 1 + 2 + 8
        # posets on <= 2 labeled points: 1 + 3
        assert len(all_structures(POSET, 2)) == 4
        # metric on 2 points over a 2-value grid
        assert len(all_structures(METRIC, 2, (Fraction(1), Fraction(2)))) == 3
        # semilattices on 2 labeled points: meet is one of the two elements
        assert len(all_structures(SEMILATTICE, 2)) == 3

    def test_all_validate(self):
        for tag in (GRAPH, POSET, SEMILATTICE):
            for s in all_structures(tag, 3):
                assert validate(s).ok
