"""Lifting endomorphisms of a root to endomorphisms of its star, the
functoriality checks, and Cayley representations of finite semigroups."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .amalgam import FreeSum
from .limits import Catalog, CatalogParams, StageChain, build_star
from .presets import antichain, edgeless_graph, free_semilattice, \
    free_semilattice_generators, simplex
from .pushout import Span, pushout_1phep
from .structures import (GRAPH, METRIC, POSET, SEMILATTICE, FiniteStructure,
                         InternalConsistencyError, Morphism, StructureError,
                         _hom_violation, _morphism, enumerate_codes,
                         enumerate_homs, extension_code, identity_morphism,
                         induced_substructure, is_embedding, is_homomorphism)


@dataclass(frozen=True)
class LiftComponent:
    """Bookkeeping for one catalog arm of a lift.

    `target_index` is the catalog entry realizing the transported extension
    type, or None when the pushout collapses the new point into the root.
    """

    pair_index: int
    target_index: int | None
    xi: Morphism    # C_i -> P_i, the pushout surjection
    iota: Morphism  # P_i -> A*, embedding over the image base
    psi: Morphism   # iota . xi : C_i -> A*


@dataclass(frozen=True)
class LiftedEndomorphism:
    base_endo: Morphism
    star: FreeSum
    catalog: Catalog
    lifted: Morphism
    components: tuple[LiftComponent, ...]


def lift(phi: Morphism, star: FreeSum, catalog: Catalog) -> LiftedEndomorphism:
    """Lift an endomorphism of the root to an endomorphism of the star.

    Per catalog arm (B_i, C_i): push C_i out along phi restricted to B_i,
    match the resulting one-point extension of phi(B_i) to its catalog
    representative, and send the fresh point of C_i accordingly.  The
    assembled map restricts to phi on the root and is verified to be a
    homomorphism of the star.
    """
    root = catalog.root
    if phi.source != root or phi.target != root:
        raise StructureError("phi must be an endomorphism of the catalog root")
    if not is_homomorphism(phi):
        raise StructureError("phi is not a homomorphism")
    if star.amalgam.root != root or len(star.new_ids) != len(catalog.entries):
        raise StructureError("star was not built from this catalog")
    lookup = {(base, code): k for k, (base, code) in enumerate(catalog.entries)}
    obj = star.object
    at_root = star.root_embedding.positions
    fresh = [leg.positions[-1] for leg in star.leg_embeddings]
    f_root = phi.positions
    components: list[LiftComponent] = []
    lifted: list[int | None] = [None] * len(obj.carrier)
    for r, a in zip(f_root, at_root):
        lifted[a] = at_root[r]
    for i, (base_carrier, code) in enumerate(catalog.entries):
        ci = star.leg_embeddings[i].source
        if not base_carrier:
            # A point free over the empty base transports to itself.
            j = lookup[((), code)]
            psi = _morphism(ci, obj, (fresh[j],))
            components.append(LiftComponent(i, j, identity_morphism(ci), psi, psi))
            lifted[fresh[i]] = fresh[j]
            continue
        base = [root.index(b) for b in base_carrier]
        image = sorted({f_root[r] for r in base})
        img = tuple([root.carrier[r] for r in image])
        bi = induced_substructure(root, base_carrier)
        bj = induced_substructure(root, img)
        in_img = {r: k for k, r in enumerate(image)}
        f = _morphism(bi, bj, tuple([in_img[f_root[r]] for r in base]))
        incl = _morphism(bi, ci, tuple(range(len(base))))  # C_i is B_i plus its fresh point
        sq = pushout_1phep(Span(incl, f))
        p = sq.object
        em = sq.right_leg.positions  # bj -> p, an embedding
        into_star, names = [None] * len(p.carrier), list(p.carrier)
        for k, e in enumerate(em):
            into_star[e], names[e] = at_root[image[k]], img[k]
        if len(em) == len(p.carrier):
            # Collapse: the new point lands inside the image base.
            target = None
        else:
            new = into_star.index(None)
            q = FiniteStructure(p.class_tag, tuple(names), p.table)
            j = lookup.get((img, extension_code(q, img, names[new])))
            if j is None:
                raise StructureError(
                    f"catalog has no entry for the transported extension type "
                    f"over base {img}; enlarge the catalog params")
            into_star[new] = fresh[j]
            target = j
        iota = _morphism(p, obj, tuple(into_star))
        if not is_embedding(iota):
            raise InternalConsistencyError(
                f"component embedding into the star failed for catalog entry {i} "
                f"(base {base_carrier}, new point {star.new_ids[i]!r})")
        psi = iota.compose(sq.left_leg)
        components.append(LiftComponent(i, target, sq.left_leg, iota, psi))
        lifted[fresh[i]] = psi.positions[-1]
    if star.ground_parts is not None:
        table = obj.table
        pos = {x: k for k, x in enumerate(obj.carrier)}
        for e, x in enumerate(obj.carrier):
            if lifted[e] is not None:
                continue
            parts = star.ground_parts[x]
            acc = lifted[pos[parts[0]]]
            for g in parts[1:]:
                acc = table[acc][lifted[pos[g]]]
            lifted[e] = acc
    hat = _morphism(obj, obj, tuple(lifted))
    if not is_homomorphism(hat):
        raise InternalConsistencyError(
            f"assembled lift is not a homomorphism at {_hom_violation(hat)}")
    if [lifted[a] for a in at_root] != [at_root[r] for r in f_root]:
        raise InternalConsistencyError("lift does not restrict to phi")
    return LiftedEndomorphism(phi, star, catalog, hat, tuple(components))


@dataclass(frozen=True)
class FunctorialityReport:
    passed: bool
    mismatch: tuple | None = None

    def __bool__(self):
        return self.passed


def verify_functoriality(phi: Morphism, phi_prime: Morphism,
                         star: FreeSum, catalog: Catalog) -> FunctorialityReport:
    """Exact check that lifting commutes with composition on the star carrier."""
    l1 = lift(phi, star, catalog)
    l2 = lift(phi_prime, star, catalog)
    lc = lift(phi_prime.compose(phi), star, catalog)
    composed = l2.lifted.compose(l1.lifted)
    if composed.mapping == lc.lifted.mapping:
        return FunctorialityReport(True)
    for x, a, b in zip(star.object.carrier, composed.mapping, lc.lifted.mapping):
        if a != b:
            return FunctorialityReport(False, (x, a, b))
    raise InternalConsistencyError("mappings differ but no mismatch found")


def endomorphisms(s: FiniteStructure) -> list[Morphism]:
    return enumerate_homs(s, s)


def lift_along_stages(phi: Morphism, chain: StageChain) -> list[LiftedEndomorphism]:
    """Iterate the lift stage by stage: End(F_0) -> End(F_1) -> ... """
    out: list[LiftedEndomorphism] = []
    current = phi
    for star, catalog in zip(chain.stars, chain.catalogs):
        lifted = lift(current, star, catalog)
        out.append(lifted)
        current = lifted.lifted
    return out


# ---------------------------------------------------------------------------
# Cayley representations
# ---------------------------------------------------------------------------

def _check_associative(table) -> None:
    m = len(table)
    for row in table:
        if len(row) != m or any(not (0 <= v < m) for v in row):
            raise StructureError("malformed multiplication table")
    for a in range(m):
        for b in range(m):
            for c in range(m):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise StructureError(
                        f"table is not associative at ({a}, {b}, {c})")


def _with_identity(table) -> tuple[tuple[tuple[int, ...], ...], int]:
    m = len(table)
    for e in range(m):
        if all(table[e][x] == x and table[x][e] == x for x in range(m)):
            return tuple(tuple(r) for r in table), e
    ext = [list(r) + [a] for a, r in enumerate(table)]
    ext.append(list(range(m + 1)))
    return tuple(tuple(r) for r in ext), m


@dataclass(frozen=True)
class CayleyEmbedding:
    table: tuple[tuple[int, ...], ...]  # identity included
    identity: int
    root: FiniteStructure
    catalog: Catalog
    star: FreeSum
    element_endos: tuple[Morphism, ...]
    lifted: tuple[LiftedEndomorphism, ...]
    products_checked: int

    @property
    def size(self) -> int:
        return len(self.table)


def _semilattice_endo_from_generator_map(root: FiniteStructure,
                                         gens: list[int],
                                         images: list[int]) -> Morphism:
    """Extend a self-map of the free generators to the whole free semilattice.

    `gens` and `images` are root positions: generator k goes to `images[k]`.
    """
    t = root.table
    positions = []
    for x, row in enumerate(t):
        # Decompose x as a meet of generators by scanning which generators lie above it.
        above = [k for k, g in enumerate(gens) if row[g] == x]
        if not above:
            raise InternalConsistencyError(
                f"{root.carrier[x]!r} is not a meet of generators")
        acc = images[above[0]]
        for k in above[1:]:
            acc = t[acc][images[k]]
        positions.append(acc)
    return _morphism(root, root, tuple(positions))


def _cayley_catalog(root: FiniteStructure, class_tag: str,
                    designated: tuple[str, ...]) -> Catalog:
    """Catalog of all one-point extension types over singleton designated bases.

    Closed under every Cayley endomorphism, which permutes-or-collapses the
    designated set into itself, so every lift finds its transported type.
    """
    grid = (Fraction(1), Fraction(2)) if class_tag == METRIC else ()
    params = CatalogParams(1, grid)
    entries = []
    for b in designated:
        base = induced_substructure(root, (b,))
        for code in enumerate_codes(class_tag, base,
                                    grid=grid if class_tag == METRIC else None):
            entries.append(((b,), code))
    return Catalog(root, params, tuple(entries))


def cayley_demo(table, class_tag: str, n: int | None = None) -> CayleyEmbedding:
    """Embed a finite semigroup into the endomorphisms of a star.

    The semigroup (identity adjoined if absent, size m) acts on itself by
    right multiplication; the action is realized on the first m points of a
    discrete root of size n >= m (edgeless graph, antichain, unit simplex, or
    free semilattice on n generators) and lifted arm by arm to the star.
    Injectivity and the full multiplication table are verified exactly:
    lift(s) . lift(t) == lift(t*s) for all s, t.
    """
    _check_associative(table)
    full, identity = _with_identity(table)
    m = len(full)
    if n is None:
        n = m
    if n < m:
        raise StructureError(f"root needs at least {m} designated points")
    if class_tag == GRAPH:
        root = edgeless_graph(n)
        designated = root.carrier
    elif class_tag == POSET:
        root = antichain(n)
        designated = root.carrier
    elif class_tag == METRIC:
        root = simplex(n, 1)
        designated = root.carrier
    elif class_tag == SEMILATTICE:
        if n > 6:
            raise StructureError("free semilattice roots are capped at 6 generators")
        root = free_semilattice(n)
        designated = free_semilattice_generators(n)
    else:
        raise StructureError(f"unknown class {class_tag!r}")
    catalog = _cayley_catalog(root, class_tag, designated)
    star = build_star(root, catalog)

    gens = [root.index(d) for d in designated]
    endos = []
    for s in range(m):
        images = [gens[full[x][s]] for x in range(m)] + gens[m:]
        if class_tag == SEMILATTICE:
            endos.append(_semilattice_endo_from_generator_map(root, gens, images))
        else:  # every point is designated, in carrier order
            endos.append(_morphism(root, root, tuple(images)))
    lifted = [lift(phi, star, catalog) for phi in endos]

    maps = [l.lifted.positions for l in lifted]
    if len(set(maps)) != m:
        raise InternalConsistencyError("Cayley representation is not injective")
    checked = 0
    for s in range(m):
        for t in range(m):
            left = lifted[s].lifted.compose(lifted[t].lifted)
            if left.positions != maps[full[t][s]]:
                raise InternalConsistencyError(
                    f"multiplicativity fails at pair ({s}, {t})")
            checked += 1
    return CayleyEmbedding(full, identity, root, catalog, star,
                           tuple(endos), tuple(lifted), checked)
