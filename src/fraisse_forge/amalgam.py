"""Rooted multi-amalgams and their free sums.

A rooted multi-amalgam is a root structure A together with a finite list of
one-point extensions, each given by a base substructure of A (possibly empty
where the class admits it: graphs and posets) and an extension code over that
base.  Its free sum is the colimit obtained by amalgamating every extension
over A: one `pushout.free_amalgam` with the root as hub and the extensions as
spokes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .pushout import free_amalgam
from .structures import (RECORDS, ExtensionCode, FiniteStructure,
                         InternalConsistencyError, Morphism, StructureError,
                         _fresh_id, _morphism, apply_code,
                         induced_substructure, is_embedding)


@dataclass(frozen=True)
class AmalgamPair:
    """One arm of a rooted multi-amalgam: a base inside the root plus a code.

    `base_carrier` lists elements of the root (in root carrier order); empty
    only where the class's record admits the empty base.  `new_id` is a
    requested name for the fresh point, renamed on collision during the sum.
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
                if not RECORDS[self.root.class_tag].empty_base:
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
    extension a spoke; `max_elements` bounds the summed carrier.  The root and
    every arm extension embed by the identity on ids.
    """
    root = amalgam.root
    exts = _arm_extensions(amalgam)
    obj, parts, at = free_amalgam(root, [(ext, ext.carrier) for ext in exts],
                                  max_elements=max_elements)
    root_embedding = _morphism(root, obj, tuple(range(len(root.carrier))))
    if not is_embedding(root_embedding):
        raise InternalConsistencyError("root does not embed into the free sum")
    legs = tuple(_morphism(ext, obj, p) for ext, p in zip(exts, at))
    for k, leg in enumerate(legs):
        if not is_embedding(leg):
            raise InternalConsistencyError(
                f"arm {k} (new id {exts[k].carrier[-1]!r}) does not embed "
                f"into the free sum")
    return FreeSum(amalgam, obj, root_embedding, legs,
                   tuple(ext.carrier[-1] for ext in exts), ground_parts=parts)


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
