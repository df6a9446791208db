"""Stars and lifts pinned by digest: per class, the star of each small root
of the lift benchmark and the lift of every endomorphism of that root."""

import hashlib
from fractions import Fraction

import pytest

from fraisse_forge import (CLASS_TAGS, GRAPH, METRIC, POSET, SEMILATTICE,
                           CatalogParams, FiniteStructure, build_star,
                           endomorphisms, enumerate_extensions, lift)
from fraisse_forge.presets import (antichain, edgeless_graph,
                                   free_semilattice, simplex)
from fraisse_forge.serialization import dumps

CHAIN3 = FiniteStructure(SEMILATTICE, ("c0", "c1", "c2"),
                         tuple(tuple(min(i, j) for j in range(3)) for i in range(3)))

# class -> (root, catalog params): the roots of the lift benchmark whose
# stars stay small
ROOTS = {
    GRAPH: [(edgeless_graph(2), CatalogParams(2))],
    POSET: [(antichain(2), CatalogParams(2))],
    METRIC: [(simplex(2, 1), CatalogParams(1, (Fraction(1), Fraction(2))))],
    SEMILATTICE: [(free_semilattice(2), CatalogParams(1)),
                  (CHAIN3, CatalogParams(1))],
}


def star_outputs(tag):
    """Each root's star (object, fresh ids, leg positions, root embedding,
    ground parts), then the lift of each endomorphism of the root: its
    positions and the target index of each arm."""
    for root, params in ROOTS[tag]:
        catalog = enumerate_extensions(root, params)
        star = build_star(root, catalog)
        yield dumps(star.object)
        yield star.new_ids
        yield [leg.positions for leg in star.leg_embeddings]
        yield star.root_embedding.positions
        yield sorted(star.ground_parts.items()) if star.ground_parts else None
        for phi in endomorphisms(root):
            lifted = lift(phi, star, catalog)
            yield (phi.positions, lifted.lifted.positions,
                   [c.target_index for c in lifted.components])


# Count and SHA-256 of `star_outputs(tag)`, computed with the code whose free
# sums took `AmalgamPair` arms inside a `RootedMultiAmalgam`.
STAR_DIGESTS = {
    "graph": (9, "27bddde3ab5b2f4645f3613419581894f8d207e80653ea492526c55b4f538690"),
    "poset": (9, "420279147f89f0351b76d5f458da4103576afd80e20c4ea897e7ec72349bc7f6"),
    "metric": (9, "9dc81b395841c224269e4198b8f811775692e51f1eafb0c089470273abaa6e70"),
    "semilattice": (
        29, "b9c87137925505f53d306408f984d6da71637a34557f83fbe67c3a402fbd7471"),
}


@pytest.mark.parametrize("tag", CLASS_TAGS)
def test_star_outputs_pinned(tag):
    h = hashlib.sha256()
    count = 0
    for item in star_outputs(tag):
        h.update(repr(item).encode())
        count += 1
    assert (count, h.hexdigest()) == STAR_DIGESTS[tag]
