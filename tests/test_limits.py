"""Catalogs, stars, stage chains, and homogeneity checkers."""

import itertools
from fractions import Fraction

import pytest

from fraisse_forge import (GRAPH, METRIC, POSET, SEMILATTICE, Catalog,
                           CatalogParams, InternalConsistencyError,
                           StageCeilingExceeded, StructureError, apply_code,
                           build_stages, build_star,
                           check_graph_extension_property,
                           check_weak_homogeneity, enumerate_codes,
                           enumerate_extensions, induced_substructure,
                           is_embedding, morphism_from_dict, validate)
from fraisse_forge import limits
from fraisse_forge.limits import STAGE_CEILING_ENV, stage_ceiling
from fraisse_forge.presets import (antichain, edgeless_graph,
                                   free_semilattice, simplex)
from fraisse_forge.structures import FiniteStructure, meet_closed_subsets

GRID12 = (Fraction(1), Fraction(2))


class TestCatalog:
    def test_graph_edgeless2_count(self):
        # independent count: empty base 1, singleton bases 2*2, pair base 4
        cat = enumerate_extensions(edgeless_graph(2), CatalogParams(2))
        assert len(cat.entries) == 1 + 4 + 4

    def test_completeness_independent_scan(self):
        # naive rescan: every admissible (base, code) appears exactly once
        for root, params in [
                (edgeless_graph(3), CatalogParams(2)),
                (antichain(3), CatalogParams(2)),
                (simplex(3, 1), CatalogParams(2, GRID12)),
                (free_semilattice(2), CatalogParams(2))]:
            cat = enumerate_extensions(root, params)
            seen = set(cat.entries)
            assert len(seen) == len(cat.entries)
            expected = set()
            bases = list(meet_closed_subsets(root, params.max_base_size))
            if root.class_tag in (GRAPH, POSET):
                bases.insert(0, ())
            for base in bases:
                sub = induced_substructure(root, base) if base else None
                grid = params.metric_grid if root.class_tag == METRIC else None
                for code in enumerate_codes(root.class_tag, sub, grid=grid):
                    ext = apply_code(sub, code, "probe")
                    assert validate(ext).ok
                    expected.add((tuple(base), code))
            assert seen == expected

    def test_metric_needs_grid(self):
        with pytest.raises(StructureError):
            enumerate_extensions(simplex(2), CatalogParams(2))

    def test_invalid_root_rejected(self):
        bad = FiniteStructure(GRAPH, ("a",), ((True,),))
        with pytest.raises(StructureError, match=r"self-loop at \('a',\)"):
            enumerate_extensions(bad, CatalogParams(1))

    def test_repeated_entry_named(self, monkeypatch):
        real = limits.enumerate_codes

        def repeat_second(tag, base, grid=None):
            codes = real(tag, base, grid=grid)
            return codes if base is None else codes + codes[1:2]

        monkeypatch.setattr(limits, "enumerate_codes", repeat_second)
        with pytest.raises(InternalConsistencyError,
                           match=r"entry: base \('v0',\), code \('v0',\)"):
            enumerate_extensions(edgeless_graph(1), CatalogParams(1))

    def test_deterministic(self):
        a = enumerate_extensions(antichain(3), CatalogParams(2))
        b = enumerate_extensions(antichain(3), CatalogParams(2))
        assert a == b


class TestBuildStar:
    def test_empty_catalog(self):
        root = edgeless_graph(2)
        cat = Catalog(root, CatalogParams(0), ())
        assert build_star(root, cat).object == root

    def test_star_size_is_root_plus_entries_relational(self):
        root = antichain(2)
        cat = enumerate_extensions(root, CatalogParams(2))
        fs = build_star(root, cat)
        assert len(fs.object.carrier) == 2 + len(cat.entries)

    def test_root_kept_identically(self):
        root = simplex(2, 1)
        cat = enumerate_extensions(root, CatalogParams(2, GRID12))
        fs = build_star(root, cat)
        sub = induced_substructure(fs.object, root.carrier)
        assert sub == root

    def test_catalog_root_mismatch(self):
        cat = enumerate_extensions(antichain(2), CatalogParams(1))
        with pytest.raises(StructureError):
            build_star(antichain(3), cat)

    def test_ceiling_refusal(self, monkeypatch):
        # the stage ceiling of build_stages, with the star as stage 1
        monkeypatch.delenv(STAGE_CEILING_ENV, raising=False)
        root = free_semilattice(3)
        cat = enumerate_extensions(root, CatalogParams(2))
        with pytest.raises(StageCeilingExceeded) as exc:
            build_star(root, cat)
        assert exc.value.stage == 1 and exc.value.ceiling == 5000
        assert exc.value.size == 5001
        monkeypatch.setenv(STAGE_CEILING_ENV, "15")
        root = antichain(2)
        cat = enumerate_extensions(root, CatalogParams(2))
        with pytest.raises(StageCeilingExceeded) as exc:
            build_star(root, cat)
        assert exc.value.size == 16
        monkeypatch.setenv(STAGE_CEILING_ENV, "16")
        assert len(build_star(root, cat).object.carrier) == 16


class TestStages:
    def test_zero_stages(self):
        root = edgeless_graph(2)
        chain = build_stages(root, 0, CatalogParams(2))
        assert len(chain) == 1 and chain.stages[0] == root

    def test_monotone_induced_substructure(self):
        chain = build_stages(edgeless_graph(1), 2, CatalogParams(1))
        for small, big in zip(chain.stages, chain.stages[1:]):
            assert induced_substructure(big, small.carrier) == small

    def test_all_stages_validate(self):
        for root, params in [(antichain(2), CatalogParams(2)),
                             (simplex(2, 1), CatalogParams(2, GRID12))]:
            chain = build_stages(root, 2, params)
            for s in chain.stages:
                assert validate(s).ok

    def test_ceiling_refusal_names_stage(self):
        with pytest.raises(StageCeilingExceeded) as exc:
            build_stages(edgeless_graph(2), 2, CatalogParams(2), ceiling=20)
        assert exc.value.stage == 2

    def test_glue_ceiling_reports_lower_bound(self):
        # the glue stops at the first element past the ceiling, so the
        # refusal can only bound the stage size from below
        with pytest.raises(StageCeilingExceeded) as exc:
            build_stages(free_semilattice(2), 1, CatalogParams(2), ceiling=100)
        assert exc.value.stage == 1 and exc.value.size == 101
        assert "at least 101 elements" in str(exc.value)
        full = build_stages(free_semilattice(2), 1, CatalogParams(2))
        assert len(full.stages[1].carrier) == 287

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(STAGE_CEILING_ENV, "7")
        assert stage_ceiling() == 7
        with pytest.raises(StageCeilingExceeded):
            build_stages(edgeless_graph(2), 1, CatalogParams(2))
        monkeypatch.setenv(STAGE_CEILING_ENV, "not-a-number")
        with pytest.raises(StructureError):
            stage_ceiling()


class TestWeakHomogeneity:
    @pytest.mark.parametrize("root,params", [
        (edgeless_graph(2), CatalogParams(2)),
        (antichain(2), CatalogParams(2)),
        (simplex(2, 1), CatalogParams(2, GRID12)),
        (free_semilattice(2), CatalogParams(2))])
    def test_all_extensions_realized(self, root, params):
        chain = build_stages(root, 1, params)
        rep = check_weak_homogeneity(chain)
        assert rep.passed and rep.checked > 0

    @pytest.mark.parametrize("root,params", [
        (edgeless_graph(2), CatalogParams(2)),
        (antichain(2), CatalogParams(2)),
        (simplex(2, 1), CatalogParams(2, GRID12))], ids=[GRAPH, POSET, METRIC])
    def test_corrupted_chain_detected(self, root, params):
        chain = build_stages(root, 1, params)
        f1 = chain.stages[1]

        def realizers(base, code):
            # witnesses found by embedding the extension, not by reading codes
            sub = induced_substructure(root, base) if base else None
            ext = apply_code(sub, code, "probe")
            return [z for z in f1.carrier if z not in base and is_embedding(
                morphism_from_dict(ext, f1, {**{b: b for b in base}, "probe": z}))]

        # delete a fresh point of F1 that alone realizes its catalog entry
        entry, nid = next(
            (entry, nid) for entry, nid in zip(chain.catalogs[0].entries,
                                               chain.stars[0].new_ids)
            if realizers(*entry) == [nid])
        pruned = induced_substructure(f1, [x for x in f1.carrier if x != nid])
        broken = type(chain)(
            (chain.stages[0], pruned), chain.inclusions, chain.catalogs,
            chain.stars, chain.params)
        rep = check_weak_homogeneity(broken)
        assert not rep.passed and rep.misses == (entry,)

    def test_requires_next_stage(self):
        chain = build_stages(edgeless_graph(2), 0, CatalogParams(2))
        with pytest.raises(StructureError):
            check_weak_homogeneity(chain)


class TestGraphExtensionProperty:
    def test_all_small_u_v(self):
        chain = build_stages(edgeless_graph(2), 1, CatalogParams(2))
        verts = chain.stages[0].carrier
        for r in range(3):
            for uv in itertools.combinations(verts, r):
                for k in range(len(uv) + 1):
                    u, v = uv[:k], uv[k:]
                    rep = check_graph_extension_property(chain, u, v)
                    assert rep.passed, (u, v)

    def test_disjointness_required(self):
        chain = build_stages(edgeless_graph(2), 1, CatalogParams(2))
        with pytest.raises(StructureError):
            check_graph_extension_property(chain, ("v0",), ("v0",))

    @pytest.mark.parametrize("u", ["zz", "x0"])  # x0 is new in stage 1
    def test_vertex_outside_the_stage_named(self, u):
        chain = build_stages(edgeless_graph(2), 1, CatalogParams(2))
        assert u == "zz" or u in chain.stages[1].carrier
        with pytest.raises(StructureError, match=repr(u)):
            check_graph_extension_property(chain, (u,), ())

    def test_graphs_only(self):
        chain = build_stages(antichain(2), 1, CatalogParams(2))
        with pytest.raises(StructureError):
            check_graph_extension_property(chain, (), ())
