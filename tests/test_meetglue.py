"""The semilattice glue behind every semilattice free amalgam: its refusals
and its canonical form."""

import hashlib

import pytest

from fraisse_forge import (SEMILATTICE, CatalogParams,
                           InternalConsistencyError, Span, all_structures,
                           amalgamated_sum, apply_code, build_star,
                           enumerate_codes, enumerate_extensions,
                           free_amalgam, morphism_from_dict)
from fraisse_forge.meetglue import glue
from fraisse_forge.presets import free_semilattice, semilattice_from_meets
from fraisse_forge.serialization import dumps


def above(low, high):
    """The two-element chain low < high."""
    return semilattice_from_meets((low, high), {(low, high): low})


class TestRefusals:
    def test_conflicting_orders_name_the_pair(self):
        hub = above("a", "b")
        spoke = semilattice_from_meets(("a", "b", "x"), {
            ("a", "b"): "b", ("a", "x"): "x", ("b", "x"): "x"})
        with pytest.raises(InternalConsistencyError,
                           match=r"not antisymmetric at \(a, b\)"):
            free_amalgam(hub, [(spoke, spoke.carrier)])

    def test_distinct_ground_elements_collapsed(self):
        # i lies below a and b, whose meet is j; j lies below c and d, whose
        # meet is i: both generate the same closed up-set
        spokes = [(above("i", "a"), ("i", "a")), (above("i", "b"), ("i", "b")),
                  (above("j", "c"), ("j", "c")), (above("j", "d"), ("j", "d"))]
        for top, bottom in ((("a", "b"), "j"), (("c", "d"), "i")):
            s = semilattice_from_meets(
                (bottom, *top),
                {(bottom, top[0]): bottom, (bottom, top[1]): bottom, top: bottom})
            spokes.append((s, s.carrier))
        with pytest.raises(InternalConsistencyError,
                           match="distinct ground elements collapsed"):
            glue(spokes, ["i", "j", "a", "b", "c", "d"])

    def test_canonical_names_collide(self):
        # the meet of x and y is named (x^y), which a third spoke's fresh
        # point already is
        hub = free_semilattice(1)
        spokes = [(above("g0", x), ("g0", x)) for x in ("x", "y", "(x^y)")]
        with pytest.raises(InternalConsistencyError,
                           match="canonical element names collide"):
            free_amalgam(hub, spokes)


def glue_outputs():
    """dumps, ground parts and leg positions of small semilattice stars and
    of every amalgamated sum of two one-point extensions of a small base."""
    for k in (1, 2):
        for b in (1, 2):
            root = free_semilattice(k)
            star = build_star(root, enumerate_extensions(root, CatalogParams(b)))
            yield (dumps(star.object), sorted(star.ground_parts.items()),
                   [leg.positions for leg in star.leg_embeddings])
    for base in all_structures(SEMILATTICE, 2):
        codes = enumerate_codes(SEMILATTICE, base)
        for c1 in codes:
            for c2 in codes:
                legs = [morphism_from_dict(base, e, {z: z for z in base.carrier})
                        for e in (apply_code(base, c1, "x"), apply_code(base, c2, "y"))]
                sq = amalgamated_sum(Span(*legs))
                yield (dumps(sq.object), sorted(sq.witness["parts"].items()),
                       sq.left_leg.positions, sq.right_leg.positions)


# Count and SHA-256 of `glue_outputs()`, computed with the earlier glue that
# closed every pair a second time to fill the meet table.  A change to the
# canonical names, the carrier order or the ground parts fails here.
CANONICAL_DIGEST = (
    40, "7a351ca8de1b926ff04810f352179ffa9815e55603c439880d2e8e67fb1fad41")


def test_canonical_form_pinned():
    h = hashlib.sha256()
    count = 0
    for item in glue_outputs():
        h.update(repr(item).encode())
        count += 1
    assert (count, h.hexdigest()) == CANONICAL_DIGEST
