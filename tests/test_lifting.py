"""Lifting root endomorphisms to the star and Cayley representations."""

import dataclasses
import itertools
from fractions import Fraction

import pytest

from fraisse_forge import (GRAPH, METRIC, POSET, SEMILATTICE, CatalogParams,
                           InternalConsistencyError, Morphism, Span,
                           StructureError, suites,
                           build_stages, build_star, lifting,
                           cayley_demo, endomorphisms, enumerate_extensions,
                           identity_morphism, is_homomorphism, lift,
                           lift_along_stages, morphism_from_dict,
                           pushout_1phep, verify_functoriality,
                           verify_universal_property)
from fraisse_forge.suites import full_transformation_monoid
from fraisse_forge.presets import (antichain, chain, edgeless_graph,
                                   free_semilattice, simplex)
from fraisse_forge.pushout import all_structures
from fraisse_forge.structures import induced_substructure

GRID12 = (Fraction(1), Fraction(2))


def star_of(root, params):
    catalog = enumerate_extensions(root, params)
    return build_star(root, catalog), catalog


class TestLift:
    def test_identity_lifts_to_identity(self):
        root = edgeless_graph(2)
        star, cat = star_of(root, CatalogParams(2))
        l = lift(identity_morphism(root), star, cat)
        assert l.lifted.mapping == star.object.carrier

    def test_swap_is_automorphism(self):
        root = edgeless_graph(2)
        star, cat = star_of(root, CatalogParams(2))
        swap = morphism_from_dict(root, root, {"v0": "v1", "v1": "v0"})
        l = lift(swap, star, cat)
        assert is_homomorphism(l.lifted)
        assert len(set(l.lifted.mapping)) == len(star.object.carrier)
        # an involution lifts to an involution
        assert l.lifted.compose(l.lifted).mapping == star.object.carrier

    def test_restricts_to_base_endo(self):
        root = antichain(2)
        star, cat = star_of(root, CatalogParams(2))
        for phi in endomorphisms(root):
            l = lift(phi, star, cat)
            for a in root.carrier:
                assert l.lifted(a) == phi(a)

    def test_collapse_arm_poset(self):
        # constant endo of a 2-chain collapses the between-point arm into the root
        root = chain(2)
        bottom = root.carrier[0]
        star, cat = star_of(root, CatalogParams(2))
        const = morphism_from_dict(root, root, {x: bottom for x in root.carrier})
        l = lift(const, star, cat)
        assert is_homomorphism(l.lifted)
        assert any(c.target_index is None for c in l.components)

    def test_semilattice_composite_points(self):
        root = free_semilattice(2)
        star, cat = star_of(root, CatalogParams(2))
        assert star.ground_parts is not None
        for phi in endomorphisms(root):
            l = lift(phi, star, cat)
            assert is_homomorphism(l.lifted)
            # meets of mapped points agree with mapped meets
            s = star.object
            for a, b in itertools.islice(
                    itertools.combinations(s.carrier, 2), 200):
                assert l.lifted(s.meet(a, b)) == s.meet(l.lifted(a), l.lifted(b))

    def test_metric_lift(self):
        root = simplex(2, 1)
        star, cat = star_of(root, CatalogParams(2, GRID12))
        swap = morphism_from_dict(root, root, {"v0": "v1", "v1": "v0"})
        l = lift(swap, star, cat)
        assert is_homomorphism(l.lifted)

    def test_rejects_foreign_endo(self):
        root = edgeless_graph(2)
        star, cat = star_of(root, CatalogParams(2))
        other = edgeless_graph(3)
        phi = identity_morphism(other)
        with pytest.raises(StructureError):
            lift(phi, star, cat)

    def test_rejects_mismatched_star(self):
        r1, r2 = edgeless_graph(2), edgeless_graph(3)
        star1, cat1 = star_of(r1, CatalogParams(2))
        star2, cat2 = star_of(r2, CatalogParams(2))
        with pytest.raises(StructureError):
            lift(identity_morphism(r2), star1, cat2)

    def test_intermediate_squares_pass_oracle(self):
        # spot check: the per-arm pushouts used by a lift satisfy the
        # universal property against all small same-class test objects
        root = antichain(2)
        star, cat = star_of(root, CatalogParams(2))
        const = morphism_from_dict(root, root, {x: "v0" for x in root.carrier})
        tests = all_structures(POSET, 3)
        checked = 0
        for base_carrier, code in cat.entries:
            if not base_carrier:
                continue
            bi = induced_substructure(root, base_carrier)
            img = tuple(x for x in root.carrier
                        if x in {const(b) for b in base_carrier})
            bj = induced_substructure(root, img)
            f = morphism_from_dict(bi, bj, {b: const(b) for b in base_carrier})
            from fraisse_forge.structures import apply_code
            ci = apply_code(bi, code, "w")
            incl = morphism_from_dict(bi, ci, {b: b for b in base_carrier})
            sq = pushout_1phep(Span(incl, f))
            rep = verify_universal_property(sq, tests)
            assert rep.passed and not rep.skipped
            checked += 1
        assert checked > 0


class TestLiftWitnesses:
    """Internal-consistency failures of `lift` name their witness."""

    def test_non_hom_lift_names_the_pair(self, monkeypatch):
        root = edgeless_graph(2)
        star, cat = star_of(root, CatalogParams(1))
        obj = star.object
        # a fresh point adjacent to v0 alone; sending it to v1 breaks that edge
        n = next(x for x in star.new_ids if obj.adjacent("v0", x))
        real = lifting._morphism

        def corrupt(source, target, positions):
            if source is obj and target is obj:
                positions = list(positions)
                positions[obj.index(n)] = obj.index("v1")
                positions = tuple(positions)
            return real(source, target, positions)

        monkeypatch.setattr(lifting, "_morphism", corrupt)
        with pytest.raises(InternalConsistencyError) as e:
            lift(identity_morphism(root), star, cat)
        assert f"('v0', '{n}')" in str(e.value)

    def test_failed_component_embedding_names_the_entry(self, monkeypatch):
        root = edgeless_graph(2)
        star, cat = star_of(root, CatalogParams(1))
        monkeypatch.setattr(lifting, "is_embedding", lambda m: False)
        with pytest.raises(InternalConsistencyError) as e:
            lift(identity_morphism(root), star, cat)
        i = next(k for k, (base, _) in enumerate(cat.entries) if base)
        msg = str(e.value)
        assert f"catalog entry {i} " in msg
        assert all(repr(b) in msg for b in cat.entries[i][0])
        assert repr(star.new_ids[i]) in msg

    def test_wrong_catalog_match_names_the_entry(self, monkeypatch):
        # the code lookup lands on another entry over the same base: the
        # component embedding check refuses it
        root = edgeless_graph(2)
        star, cat = star_of(root, CatalogParams(1))
        real = lifting.extension_code

        def other(s, base, z):
            code = real(s, base, z)
            return next(c for b, c in cat.entries if b == base and c != code)

        monkeypatch.setattr(lifting, "extension_code", other)
        with pytest.raises(InternalConsistencyError) as e:
            lift(identity_morphism(root), star, cat)
        i = next(k for k, (base, _) in enumerate(cat.entries) if base)
        assert f"catalog entry {i} " in str(e.value)


class TestFunctoriality:
    @pytest.mark.parametrize("root,params", [
        (edgeless_graph(2), CatalogParams(2)),
        (antichain(2), CatalogParams(2)),
        (simplex(2, 1), CatalogParams(2, GRID12)),
        (free_semilattice(2), CatalogParams(2))])
    def test_all_pairs(self, root, params):
        star, cat = star_of(root, params)
        endos = endomorphisms(root)
        for phi, psi in itertools.product(endos, repeat=2):
            assert verify_functoriality(phi, psi, star, cat)

    def test_mismatch_reported(self):
        root = edgeless_graph(2)
        star, cat = star_of(root, CatalogParams(2))
        endos = endomorphisms(root)
        rep = verify_functoriality(endos[0], endos[0], star, cat)
        assert rep.passed and rep.mismatch is None


def swap_with_wrong_lift(monkeypatch, module):
    """The swap of edgeless_graph(2), its star and catalog, and the first
    star point x with lift(swap)(lift(swap)(x)) != x once `module.lift`
    fixes one star point that the swap's true lift moves; with the ids of
    both images."""
    root = edgeless_graph(2)
    star, cat = star_of(root, CatalogParams(2))
    swap = morphism_from_dict(root, root, {"v0": "v1", "v1": "v0"})
    real = lifting.lift
    true = real(swap, star, cat).lifted.positions
    k = next(k for k, p in enumerate(true) if p != k)
    wrong = true[:k] + (k,) + true[k + 1:]

    def fake(phi, star, catalog):
        out = real(phi, star, catalog)
        if phi != swap:
            return out
        return dataclasses.replace(out, lifted=Morphism(
            star.object, star.object, tuple(star.object.carrier[p] for p in wrong)))

    monkeypatch.setattr(module, "lift", fake)
    ids = star.object.carrier
    x = next(x for x in range(len(ids)) if wrong[wrong[x]] != x)
    return swap, star, cat, (ids[x], ids[wrong[wrong[x]]], ids[x])


class TestCompositionWitness:
    def test_verify_functoriality_names_the_point(self, monkeypatch):
        swap, star, cat, point = swap_with_wrong_lift(monkeypatch, lifting)
        rep = verify_functoriality(swap, swap, star, cat)
        assert not rep.passed and rep.mismatch == point

    def test_suite_names_phi_psi_and_the_point(self, monkeypatch):
        swap, star, cat, point = swap_with_wrong_lift(monkeypatch, suites)
        report = suites.suite_functoriality(edgeless_graph(2), CatalogParams(2))
        assert not report["passed"]
        assert {"law": "composition", "phi": ["v1", "v0"], "psi": ["v1", "v0"],
                "point": list(point)} in report["failures"]


class TestStagewiseLifting:
    def test_identity_along_two_stages(self):
        chain_ = build_stages(edgeless_graph(1), 2, CatalogParams(1))
        lifts = lift_along_stages(identity_morphism(chain_.stages[0]), chain_)
        assert len(lifts) == 2
        for l, stage in zip(lifts, chain_.stages[1:]):
            assert l.lifted.mapping == stage.carrier

    def test_nonidentity_along_stages(self):
        chain_ = build_stages(edgeless_graph(2), 2, CatalogParams(1))
        swap = morphism_from_dict(chain_.stages[0], chain_.stages[0],
                                  {"v0": "v1", "v1": "v0"})
        lifts = lift_along_stages(swap, chain_)
        for l in lifts:
            assert is_homomorphism(l.lifted)
        # each lift restricts to the previous stage's lift
        prev = swap
        for l in lifts:
            for a in prev.source.carrier:
                assert l.lifted(a) == prev(a)
            prev = l.lifted


RIGHT_ZERO_3 = tuple(tuple(t for t in range(3)) for _ in range(3))
TRIVIAL = ((0,),)


class TestCayley:
    def test_trivial_semigroup(self):
        emb = cayley_demo(TRIVIAL, GRAPH)
        assert emb.size == 1 and emb.identity == 0
        assert emb.products_checked == 1

    def test_right_zero_gets_identity_adjoined(self):
        emb = cayley_demo(RIGHT_ZERO_3, POSET)
        assert emb.size == 4
        assert emb.products_checked == 16

    @pytest.mark.parametrize("tag", [GRAPH, POSET, METRIC, SEMILATTICE])
    def test_t2_all_classes(self, tag):
        table = full_transformation_monoid(2)
        emb = cayley_demo(table, tag)
        assert emb.size == 4 and emb.products_checked == 16
        maps = {l.lifted.mapping for l in emb.lifted}
        assert len(maps) == 4

    def test_nonassociative_rejected(self):
        with pytest.raises(StructureError):
            cayley_demo(((0, 0), (1, 0)), GRAPH)

    def test_malformed_rejected(self):
        with pytest.raises(StructureError):
            cayley_demo(((0, 5), (1, 0)), GRAPH)

    def test_semilattice_generator_cap(self):
        table = full_transformation_monoid(3)  # 27 elements, needs 27 generators
        with pytest.raises(StructureError):
            cayley_demo(table, SEMILATTICE)
