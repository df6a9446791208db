"""Test-only constructions and references that the tests compare the
library with; nothing outside the tests calls them."""

import itertools

from fraisse_forge import (GRAPH, ISOMORPHISM, METRIC, POSET, SEMILATTICE,
                           Congruence, ExtensionCode, FiniteStructure,
                           FreeSum, InternalConsistencyError, Morphism, Span,
                           StructureError, amalgamated_sum, apply_code,
                           classify, induced_substructure, is_embedding,
                           morphism_from_dict)
from fraisse_forge import pushout
from fraisse_forge.structures import (DEFAULT_HOM_BOUND_BITS, BoundExceeded,
                                      _fresh_id, _morphism, is_homomorphism)


def identity_on_ids(s: FiniteStructure, target: FiniteStructure) -> Morphism:
    return morphism_from_dict(s, target, {x: x for x in s.carrier})


def semilattice_iterated_sum(root: FiniteStructure, arms) -> FreeSum:
    """The semilattice free sum of `root` and its `(code, new_id)` arms as a
    chain of two-term amalgamated sums.

    Independent of the one-glue `free_sum`, which the tests check it against:
    the two must agree up to an isomorphism fixing the root and matching
    fresh points.
    """
    if root.class_tag != SEMILATTICE:
        raise StructureError("iterated sum applies to semilattices")
    current = root
    parts = {x: (x,) for x in root.carrier}
    exts = []
    for code, new_id in arms:
        nid = _fresh_id(new_id, set(current.carrier))
        base = induced_substructure(root, code.base_carrier)
        ext = apply_code(base, code, nid)
        sq = amalgamated_sum(Span(identity_on_ids(base, ext),
                                  identity_on_ids(base, current)))
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
    root_embedding = identity_on_ids(root, current)
    legs = tuple(identity_on_ids(ext, current) for ext in exts)
    if not is_embedding(root_embedding) or not all(map(is_embedding, legs)):
        raise InternalConsistencyError("iterated sum leg is not an embedding")
    return FreeSum(root, current, legs, ground_parts=parts)


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

    `pairing[i]` names the arm of `f2` corresponding to arm i of `f1`
    (identity when omitted, as for two constructions over the same arm list).
    The seed maps the shared root identically and matches the paired fresh
    points; for semilattices the rest of the map is forced by meets.
    """
    if f1.root != f2.root:
        raise StructureError("free sums have different roots")
    if pairing is None:
        pairing = tuple(range(len(f1.new_ids)))
    root = f1.root
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


def is_meet_compatible(c: Congruence) -> bool:
    s = c.structure
    rep = {x: i for i, b in enumerate(c.blocks) for x in b}
    for b in c.blocks:
        for u, v in itertools.combinations(b, 2):
            for w in s.carrier:
                if rep[s.meet(u, w)] != rep[s.meet(v, w)]:
                    return False
    return True


def rebased(code: ExtensionCode, base_map: dict[str, str],
            new_base_carrier: tuple[str, ...]) -> ExtensionCode:
    """Transport the code along a base isomorphism (id relabeling)."""
    pos = {b: i for i, b in enumerate(code.base_carrier)}
    order = sorted(code.base_carrier, key=lambda b: new_base_carrier.index(base_map[b]))
    if code.class_tag == GRAPH:
        new = tuple(base_map[b] for b in order if b in code.code)
    elif code.class_tag == POSET:
        lo, up = code.code
        new = (tuple(base_map[b] for b in order if b in lo),
               tuple(base_map[b] for b in order if b in up))
    elif code.class_tag == METRIC:
        new = tuple(code.code[pos[b]] for b in order)
    else:
        new = tuple(None if code.code[pos[b]] is None else base_map[code.code[pos[b]]]
                    for b in order)
    return ExtensionCode(code.class_tag, tuple(base_map[b] for b in order), new)


def _reference_forced(sq, j1: Morphism, j2: Morphism) -> Morphism | None:
    values = [None] * len(sq.object.carrier)
    for leg, j in ((sq.left_leg, j1), (sq.right_leg, j2)):
        for p, want in zip(leg.positions, j.positions):
            if values[p] is None:
                values[p] = want
            elif values[p] != want:
                return None
    if None in values:
        return None
    return _morphism(sq.object, j1.target, tuple(values))


def reference_universal_property(sq, test_objects,
                                 bound_bits: int = DEFAULT_HOM_BOUND_BITS
                                 ) -> pushout.OracleReport:
    """The universal-property oracle that builds and checks the forced
    mediating map of every cocone and compares it with the enumerated ones.

    `pushout.verify_universal_property` decides each cocone by its count of
    mediating morphisms instead; the tests require equal reports.  The homs
    come from `pushout._homs_cached`, looked up on each call, so that a test
    can replace it for both oracles at once.
    """
    c, bp = sq.left_leg.source, sq.right_leg.source
    left_leg, right_leg = sq.left_leg.positions, sq.right_leg.positions
    span_left, span_right = sq.span.left.positions, sq.span.right.positions
    cocones, tested, failures, skipped = 0, 0, [], []
    for q in test_objects:
        try:
            homs_c = pushout._homs_cached(c, q, bound_bits)
            homs_bp = pushout._homs_cached(bp, q, bound_bits)
            homs_p = pushout._homs_cached(sq.object, q, bound_bits)
        except BoundExceeded as e:
            skipped.append((q.carrier, str(e)))
            continue
        tested += 1
        by_restriction = {}
        for u in homs_p:
            key = (tuple(u.positions[i] for i in left_leg),
                   tuple(u.positions[i] for i in right_leg))
            by_restriction.setdefault(key, []).append(u)
        bp_by_apex = {}
        for j2 in homs_bp:
            key = tuple(j2.positions[i] for i in span_right)
            bp_by_apex.setdefault(key, []).append(j2)
        for j1 in homs_c:
            for j2 in bp_by_apex.get(tuple(j1.positions[i] for i in span_left), ()):
                cocones += 1
                mediating = by_restriction.get((j1.positions, j2.positions), [])
                forced = _reference_forced(sq, j1, j2)
                if forced is not None and is_homomorphism(forced):
                    if [forced.positions] != [u.positions for u in mediating]:
                        failures.append((q.carrier, j1.mapping, j2.mapping,
                                         "forced/enumerated mismatch"))
                        continue
                if len(mediating) != 1:
                    failures.append((q.carrier, j1.mapping, j2.mapping,
                                     f"{len(mediating)} mediating morphisms"))
    return pushout.OracleReport(not failures, tested, cocones,
                                tuple(failures), tuple(skipped))
