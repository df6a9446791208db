"""One-point-extension catalogs, the star construction, bounded stage chains,
and homogeneity / extension-property checkers."""

from __future__ import annotations

import collections
import os
from dataclasses import dataclass
from fractions import Fraction

from .amalgam import FreeSum, free_sum
from .meetglue import SizeCeilingExceeded
from .structures import (GRAPH, RECORDS, ExtensionCode, FiniteStructure,
                         InternalConsistencyError, Morphism, StructureError,
                         enumerate_codes, fresh_ids, induced_substructure,
                         meet_closed_subsets, point_codes, require_valid)

DEFAULT_STAGE_CEILING = 5000
STAGE_CEILING_ENV = "FORGE_MAX_CARRIER"


def stage_ceiling() -> int:
    raw = os.environ.get(STAGE_CEILING_ENV)
    if raw is None:
        return DEFAULT_STAGE_CEILING
    try:
        value = int(raw)
    except ValueError:
        raise StructureError(f"{STAGE_CEILING_ENV} must be an integer, got {raw!r}")
    if value < 1:
        raise StructureError(f"{STAGE_CEILING_ENV} must be positive")
    return value


class StageCeilingExceeded(StructureError):
    """A stage outgrew the carrier ceiling; `size` is a lower bound on its size."""

    def __init__(self, stage: int, size: int, ceiling: int):
        super().__init__(
            f"stage {stage} has at least {size} elements, over the ceiling "
            f"{ceiling}; raise {STAGE_CEILING_ENV} to proceed")
        self.stage = stage
        self.size = size
        self.ceiling = ceiling


@dataclass(frozen=True)
class CatalogParams:
    max_base_size: int
    metric_grid: tuple[Fraction, ...] = ()

    def __post_init__(self):
        if self.max_base_size < 0:
            raise StructureError("max_base_size must be non-negative")
        object.__setattr__(self, "metric_grid",
                           tuple(sorted(Fraction(g) for g in self.metric_grid)))
        if any(g <= 0 for g in self.metric_grid):
            raise StructureError("metric grid distances must be positive")


@dataclass(frozen=True)
class Catalog:
    """All one-point extension types of substructures of the root, one entry
    per isomorphism type over the base, in deterministic order."""

    root: FiniteStructure
    params: CatalogParams
    entries: tuple[tuple[tuple[str, ...], ExtensionCode], ...]


def _bases(root: FiniteStructure, max_base_size: int):
    """Base subsets in deterministic order: by size, then carrier position.

    The empty base comes first where the class admits it (graphs and
    posets); semilattice bases are exactly the meet-closed subsets (the
    finitely generated substructures).
    """
    if RECORDS[root.class_tag].empty_base:
        yield ()
    yield from meet_closed_subsets(root, max_base_size)


def enumerate_extensions(root: FiniteStructure, params: CatalogParams) -> Catalog:
    """Every one-point extension code over every base of at most
    `params.max_base_size` points; metric codes draw their distances from
    `params.metric_grid`, which the other classes ignore."""
    require_valid(root, "catalog root")
    entries = []
    for base_carrier in _bases(root, params.max_base_size):
        base = induced_substructure(root, base_carrier) if base_carrier else None
        for code in enumerate_codes(root.class_tag, base, grid=params.metric_grid):
            entries.append((tuple(base_carrier), code))
    if len(set(entries)) != len(entries):
        count = collections.Counter(entries)
        base, code = next(e for e in entries if count[e] > 1)
        raise InternalConsistencyError(
            f"duplicate catalog entry: base {base}, code {code.code}")
    return Catalog(root, params, tuple(entries))


def _star(catalog: Catalog, stage: int, ceiling: int) -> FreeSum:
    """The star over `catalog` as stage `stage`, refused past `ceiling`:
    the free sum of the root with one arm per catalog code, its fresh point
    named x0, x1, ... in catalog order."""
    names = fresh_ids("x", len(catalog.entries), catalog.root.carrier)
    arms = [(code, name) for (_, code), name in zip(catalog.entries, names)]
    try:
        return free_sum(catalog.root, arms, max_elements=ceiling)
    except SizeCeilingExceeded as e:
        raise StageCeilingExceeded(stage, e.reached, ceiling) from e


def build_star(root: FiniteStructure, catalog: Catalog) -> FreeSum:
    """A★: the free sum of the root with one arm per catalog entry.

    Refused, as stage 1, past the stage ceiling that `build_stages` applies.
    """
    if catalog.root != root:
        raise StructureError("catalog was built for a different root")
    return _star(catalog, 1, stage_ceiling())


@dataclass(frozen=True)
class StageChain:
    """Finite chain F₀ ⊆ F₁ ⊆ … with the catalog and star used at each step."""

    root: FiniteStructure              # F_0
    catalogs: tuple[Catalog, ...]      # catalog of F_n used to build F_{n+1}
    stars: tuple[FreeSum, ...]         # the sum producing F_{n+1}
    params: CatalogParams

    @property
    def stages(self) -> tuple[FiniteStructure, ...]:
        return (self.root,) + tuple(star.object for star in self.stars)

    @property
    def inclusions(self) -> tuple[Morphism, ...]:
        """F_n -> F_{n+1}: each star's root embedding."""
        return tuple(star.root_embedding for star in self.stars)

    def __len__(self) -> int:
        return len(self.stars) + 1


def build_stages(root: FiniteStructure, k: int, params: CatalogParams) -> StageChain:
    """Chain of k star iterations; refuses (never truncates) a stage past the
    ceiling of 5000 carrier elements, or the one the FORGE_MAX_CARRIER
    environment variable sets.
    """
    if k < 0:
        raise StructureError("stage count must be non-negative")
    ceiling = stage_ceiling()
    catalogs: list[Catalog] = []
    stars: list[FreeSum] = []
    current = root
    for n in range(k):
        catalogs.append(enumerate_extensions(current, params))
        stars.append(_star(catalogs[-1], n + 1, ceiling))
        current = stars[-1].object
    return StageChain(root, tuple(catalogs), tuple(stars), params)


@dataclass(frozen=True)
class HomogeneityReport:
    passed: bool
    checked: int
    misses: tuple = ()

    def __bool__(self):
        return self.passed


def check_weak_homogeneity(chain: StageChain, stage: int = 0) -> HomogeneityReport:
    """Every catalog one-point extension of every F_stage substructure must be
    realized in F_{stage+1} by a point over the pointwise-fixed base.

    The search reads the code of every point of F_{stage+1} outside each base
    and looks the catalog codes up among them; it never consults the
    construction bookkeeping.
    """
    if stage + 1 >= len(chain.stages):
        raise StructureError("chain has no stage after the requested one")
    small = chain.stages[stage]
    big = chain.stages[stage + 1]
    cat = enumerate_extensions(small, chain.params)
    realized: dict[tuple[str, ...], set] = {}
    misses = []
    for base_carrier, code in cat.entries:
        if base_carrier not in realized:
            realized[base_carrier] = set(point_codes(big, base_carrier))
        if code.code not in realized[base_carrier]:
            misses.append((base_carrier, code))
    return HomogeneityReport(not misses, len(cat.entries), tuple(misses))


@dataclass(frozen=True)
class ExtensionWitnessReport:
    passed: bool
    witness: str | None

    def __bool__(self):
        return self.passed


def check_graph_extension_property(chain: StageChain, U, V,
                                   stage: int = 0) -> ExtensionWitnessReport:
    """Witness in F_{stage+1} adjacent to everything in U and nothing in V."""
    if stage + 1 >= len(chain.stages):
        raise StructureError("chain has no stage after the requested one")
    small = chain.stages[stage]
    big = chain.stages[stage + 1]
    if small.class_tag != GRAPH:
        raise StructureError("extension property check applies to graphs")
    U, V = tuple(U), tuple(V)
    if set(U) & set(V):
        raise StructureError("U and V must be disjoint")
    inc = chain.inclusions[stage].positions
    iu, iv = [inc[small.index(u)] for u in U], [inc[small.index(v)] for v in V]
    skip = set(iu + iv)
    for w, row in enumerate(big.table):
        if w not in skip and all(row[u] for u in iu) and not any(row[v] for v in iv):
            return ExtensionWitnessReport(True, big.carrier[w])
    return ExtensionWitnessReport(False, None)
