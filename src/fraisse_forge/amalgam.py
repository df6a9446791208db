"""Free sums of a root and its arms.

An arm is one extension code: a one-point extension over a base
substructure of the root (possibly empty where the class admits it: graphs
and posets), with a requested id for its fresh point.  The free sum is the
colimit obtained by amalgamating every arm over the root: one
`pushout.free_amalgam` with the root as hub and the arms as spokes.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .pushout import free_amalgam
from .structures import (ExtensionCode, FiniteStructure,
                         InternalConsistencyError, Morphism, _fresh_id,
                         _morphism, apply_code, induced_substructure,
                         is_embedding)


@dataclass(frozen=True)
class FreeSum:
    root: FiniteStructure
    object: FiniteStructure
    leg_embeddings: tuple[Morphism, ...]     # one per arm: extension -> object
    # semilattice only: carrier id -> minimal ground elements whose meet it is
    ground_parts: dict[str, tuple[str, ...]] | None = None

    @property
    def root_embedding(self) -> Morphism:
        """root -> object; the root is the carrier prefix of the sum."""
        return _morphism(self.root, self.object,
                         tuple(range(len(self.root.carrier))))

    @property
    def new_ids(self) -> tuple[str, ...]:
        """The fresh point of each arm, in the object."""
        return tuple(leg.source.carrier[-1] for leg in self.leg_embeddings)


def free_sum(root: FiniteStructure, arms: Iterable[tuple[ExtensionCode, str]],
             max_elements: int | None = None) -> FreeSum:
    """Free sum of the root and its arms, all arms in one pass.

    Each arm is `(code, new_id)`: the one-point extension `code` over the
    substructure of the root on `code.base_carrier`, built by `apply_code`,
    which refuses a bad arm.  Its fresh point takes the requested id, renamed
    on collision with the root or earlier arms.  The root is the hub of one
    `pushout.free_amalgam` and each arm's extension a spoke; `max_elements`
    bounds the summed carrier.  The root and every arm extension embed by
    the identity on ids.
    """
    taken = set(root.carrier)
    exts = []
    for code, new_id in arms:
        nid = _fresh_id(new_id, taken)
        taken.add(nid)
        base = code.base_carrier
        exts.append(apply_code(induced_substructure(root, base) if base else None,
                               code, nid))
    obj, parts, at = free_amalgam(root, [(ext, ext.carrier) for ext in exts],
                                  max_elements=max_elements)
    fs = FreeSum(root, obj, tuple(_morphism(ext, obj, p) for ext, p in zip(exts, at)),
                 parts)
    if not is_embedding(fs.root_embedding):
        raise InternalConsistencyError("root does not embed into the free sum")
    for k, leg in enumerate(fs.leg_embeddings):
        if not is_embedding(leg):
            raise InternalConsistencyError(
                f"arm {k} (new id {leg.source.carrier[-1]!r}) does not embed "
                f"into the free sum")
    return fs
