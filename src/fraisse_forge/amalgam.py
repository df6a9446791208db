"""Rooted multi-amalgams and their free sums.

A rooted multi-amalgam is a root structure A together with a finite list of
one-point extensions, each given by a base substructure of A (possibly empty
for graphs and posets) and an extension code over that base.  Its free sum is
the colimit obtained by amalgamating every extension over A: one
`pushout.free_amalgam` with the root as hub and the extensions as spokes.  The
semilattice iterated sum, a chain of two-term pushouts, is kept as the
independent reference that the tests compare the free sum with.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .pushout import Span, amalgamated_sum, free_amalgam
from .structures import (GRAPH, ISOMORPHISM, POSET, SEMILATTICE,
                         ExtensionCode, FiniteStructure,
                         InternalConsistencyError, Morphism, StructureError,
                         _fresh_id, apply_code, classify,
                         induced_substructure, is_embedding,
                         morphism_from_dict)

EMPTY_BASE_CLASSES = (GRAPH, POSET)  # only these classes have free one-point adjoins


@dataclass(frozen=True)
class AmalgamPair:
    """One arm of a rooted multi-amalgam: a base inside the root plus a code.

    `base_carrier` lists elements of the root (in root carrier order); empty
    only for graphs and posets.  `new_id` is a requested name for the fresh
    point, renamed on collision during the sum.
    """

    base_carrier: tuple[str, ...]
    code: ExtensionCode
    new_id: str

    def __post_init__(self):
        if tuple(self.code.base_carrier) != tuple(self.base_carrier):
            raise StructureError("code base does not match the pair base")


@dataclass(frozen=True)
class RootedMultiAmalgam:
    root: FiniteStructure
    pairs: tuple[AmalgamPair, ...]

    def __post_init__(self):
        for p in self.pairs:
            if not p.base_carrier:
                if self.root.class_tag not in EMPTY_BASE_CLASSES:
                    raise StructureError(
                        f"empty base is not admissible for class {self.root.class_tag}")
                continue
            order = [x for x in self.root.carrier if x in set(p.base_carrier)]
            if tuple(order) != tuple(p.base_carrier):
                raise StructureError(
                    "pair base must list root elements in root carrier order")

    def base_structure(self, pair: AmalgamPair) -> FiniteStructure | None:
        if not pair.base_carrier:
            return None
        return induced_substructure(self.root, pair.base_carrier)


@dataclass(frozen=True)
class FreeSum:
    amalgam: RootedMultiAmalgam
    object: FiniteStructure
    root_embedding: Morphism                 # root -> object
    leg_embeddings: tuple[Morphism, ...]     # one per pair: extension -> object
    new_ids: tuple[str, ...]                 # fresh point of each pair, in object
    # semilattice only: carrier id -> minimal ground elements whose meet it is
    ground_parts: dict[str, tuple[str, ...]] | None = field(default=None)


def free_sum(amalgam: RootedMultiAmalgam,
             max_elements: int | None = None) -> FreeSum:
    """Free sum of a rooted multi-amalgam, all arms in one pass.

    The root is the hub of one `pushout.free_amalgam` and each arm's one-point
    extension a spoke; for semilattices `max_elements` bounds the glued
    carrier.
    """
    exts = _arm_extensions(amalgam)
    obj, parts = free_amalgam(amalgam.root, [(ext, ext.carrier) for ext in exts],
                              max_elements=max_elements)
    return _checked_free_sum(amalgam, obj, exts, ground_parts=parts)


def _arm_extensions(amalgam: RootedMultiAmalgam) -> list[FiniteStructure]:
    """Each arm's one-point extension; its fresh point, last in its carrier,
    takes the requested id, renamed on collision with the root or earlier arms."""
    taken = set(amalgam.root.carrier)
    out = []
    for pair in amalgam.pairs:
        nid = _fresh_id(pair.new_id, taken)
        taken.add(nid)
        out.append(apply_code(amalgam.base_structure(pair), pair.code, nid))
    return out


def _checked_free_sum(amalgam: RootedMultiAmalgam, obj: FiniteStructure,
                      exts, ground_parts=None) -> FreeSum:
    """Package a free sum into which the root and every arm extension embed
    by the identity on ids."""
    root = amalgam.root
    root_embedding = morphism_from_dict(root, obj, {x: x for x in root.carrier})
    if not is_embedding(root_embedding):
        raise InternalConsistencyError("root does not embed into the free sum")
    legs = []
    for ext in exts:
        leg = morphism_from_dict(ext, obj, {x: x for x in ext.carrier})
        if not is_embedding(leg):
            raise InternalConsistencyError("an extension leg is not an embedding")
        legs.append(leg)
    return FreeSum(amalgam, obj, root_embedding, tuple(legs),
                   tuple(ext.carrier[-1] for ext in exts), ground_parts=ground_parts)


def semilattice_iterated_sum(amalgam: RootedMultiAmalgam,
                             max_elements: int | None = None) -> FreeSum:
    """The semilattice free sum as a chain of two-term amalgamated sums.

    Independent of the one-glue `free_sum`, which the tests check it against:
    the two must agree up to an isomorphism fixing the root and matching
    fresh points.
    """
    root = amalgam.root
    if root.class_tag != SEMILATTICE:
        raise StructureError("iterated sum applies to semilattices")
    current = root
    parts = {x: (x,) for x in root.carrier}
    exts = []
    for pair in amalgam.pairs:
        nid = _fresh_id(pair.new_id, set(current.carrier))
        base = amalgam.base_structure(pair)
        ext = apply_code(base, pair.code, nid)
        span = Span(morphism_from_dict(base, ext, {x: x for x in base.carrier}),
                    morphism_from_dict(base, current, {x: x for x in base.carrier}))
        sq = amalgamated_sum(span, max_elements=max_elements)
        # Re-express ground parts of the step in terms of the original ground:
        # the step ground is current's carrier plus the one fresh point.
        new_parts = {}
        for elem, ground in sq.witness["parts"].items():
            acc: list[str] = []
            for g in ground:
                acc.extend(parts.get(g, (g,)))
            new_parts[elem] = tuple(dict.fromkeys(acc))
        parts = new_parts
        current = sq.object
        exts.append(ext)  # the sum keeps the fresh id: it is new to `current`
    return _checked_free_sum(amalgam, current, exts, ground_parts=parts)


def forced_root_isomorphism(s1: FiniteStructure, s2: FiniteStructure,
                            seed) -> Morphism | None:
    """Isomorphism s1 -> s2 forced by a seed assignment, if one exists.

    `seed` is either a tuple of ids mapped identically or a dict of id pairs.
    Works for semilattices generated by the seed: images of all other elements
    are forced as meets of seed images.  Returns None if the forcing fails or
    does not yield an isomorphism.
    """
    if len(s1.carrier) != len(s2.carrier):
        return None
    if s1.class_tag != SEMILATTICE or s2.class_tag != SEMILATTICE:
        raise StructureError("forced isomorphism is a semilattice helper")
    mapping = dict(seed) if isinstance(seed, dict) else {x: x for x in seed}
    if any(x not in s2.carrier for x in mapping.values()):
        return None
    known = list(mapping)
    i = 0
    while i < len(known):
        j = 0
        while j < i:
            a, b = known[i], known[j]
            w = s1.meet(a, b)
            img = s2.meet(mapping[a], mapping[b])
            if w in mapping:
                if mapping[w] != img:
                    return None
            else:
                mapping[w] = img
                known.append(w)
            j += 1
        i += 1
    if len(mapping) != len(s1.carrier):
        return None
    m = morphism_from_dict(s1, s2, mapping)
    return m if classify(m) == ISOMORPHISM else None


def free_sum_isomorphism(f1: FreeSum, f2: FreeSum,
                         pairing: tuple[int, ...] | None = None) -> Morphism | None:
    """Root-fixing isomorphism between two sums over the same root.

    `pairing[i]` names the pair of `f2` corresponding to pair i of `f1`
    (identity when omitted, as for two constructions over the same pair list).
    The seed maps the shared root identically and matches the paired fresh
    points; for semilattices the rest of the map is forced by meets.
    """
    if f1.amalgam.root != f2.amalgam.root:
        raise StructureError("free sums have different roots")
    if pairing is None:
        pairing = tuple(range(len(f1.new_ids)))
    root = f1.amalgam.root
    seed = {x: x for x in root.carrier}
    for i, j in enumerate(pairing):
        seed[f1.new_ids[i]] = f2.new_ids[j]
    if root.class_tag == SEMILATTICE:
        return forced_root_isomorphism(f1.object, f2.object, seed)
    if len(f1.object.carrier) != len(f2.object.carrier):
        return None
    if len(seed) != len(f1.object.carrier):
        raise InternalConsistencyError("relational free sum has unaccounted elements")
    m = morphism_from_dict(f1.object, f2.object, seed)
    return m if classify(m) == ISOMORPHISM else None
