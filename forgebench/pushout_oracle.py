"""Workload `pushout-oracle`: pushouts of 1PHEP spans and their universal property.

One operation is `pushout_1phep` followed by `verify_universal_property` for
one span, against every bounded test object of the span's class.  The spans
are every 1PHEP span (a one-point extension paired with a surjection) of
graphs and semilattices up to size 3, of metric spaces up to size 2 on the
grid {1, 2, 3}, and of posets up to size 2; poset spans of size 3 take over a
minute in full, so only those whose apex is the 3-element chain are included.
This workload builds many tiny structures and enumerates homomorphisms; it
touches no stage, star or lift code.

The seed renames every carrier id (inputs are renamed again on each pass, so
the hom cache cannot carry results from one pass to the next) and shuffles
the order of the spans.
"""

from __future__ import annotations

from fractions import Fraction

from fraisse_forge import pushout, structures

import reference as ref
from common import Op, renamed
from reference import require

GRID = (Fraction(1), Fraction(2), Fraction(3))
CHAIN3 = ((True, True, True), (False, True, True), (False, False, True))

# name, class, largest apex, target and test object, apex filter
FAMILIES = (
    ("graph", "graph", 3, None),
    ("semilattice", "semilattice", 3, None),
    ("metric", "metric", 2, None),
    ("poset", "poset", 2, None),
    ("poset-chain3", "poset", 3, CHAIN3),
)

# one span in this many gets its cocones counted by brute force
COCONE_SAMPLE = 25


def _spans(objects, apex_table, grid, tag: str):
    """Every 1PHEP span with apex and target among `objects`."""
    tag_class = objects[0].class_tag
    for b in objects:
        if apex_table is not None and b.table != apex_table:
            continue
        for code in structures.enumerate_codes(tag_class, b, grid=grid):
            c = structures.apply_code(b, code, tag + "x*")
            incl = structures.morphism_from_dict(b, c, {x: x for x in b.carrier})
            for bp in objects:
                if len(bp.carrier) > len(b.carrier):
                    continue
                for f in structures.enumerate_homs(b, bp):
                    if structures.is_surjection(f):
                        yield pushout.Span(incl, f)


class PushoutOracle:
    name = "pushout-oracle"
    pass_seconds = 5.5

    def setup(self, tag: str) -> list[Op]:
        ops = []
        for name, tag_class, size, apex in FAMILIES:
            grid = GRID if tag_class == "metric" else None
            tests = [renamed(q, tag) for q in pushout.all_structures(tag_class, size, grid)]
            ops.extend(Op(name, (span, tests)) for span in _spans(tests, apex, grid, tag))
        return ops

    def run(self, op: Op):
        span, tests = op.args
        sq = pushout.pushout_1phep(span)
        return sq, pushout.verify_universal_property(sq, tests)

    def work_units(self, ops: list[Op]) -> int:
        """(span, test object) pairs checked."""
        return sum(len(op.args[1]) for op in ops)

    def check(self, op: Op, out, rng) -> None:
        span, tests = op.args
        sq, rep = out
        b, c, bp = span.apex, span.left.target, span.right.target
        p = sq.object
        require(sq.left_leg.source == c and sq.right_leg.source == bp
                and sq.left_leg.target == p and sq.right_leg.target == p,
                f"{op.kind}: square legs have the wrong ends")
        left = dict(zip(c.carrier, sq.left_leg.mapping))
        right = dict(zip(bp.carrier, sq.right_leg.mapping))
        for a, ca, ba in zip(b.carrier, span.left.mapping, span.right.mapping):
            require(left[ca] == right[ba], f"{op.kind}: square does not commute at {a}")
        require(set(sq.left_leg.mapping) == set(p.carrier),
                f"{op.kind}: left leg is not surjective")
        require(len(set(sq.right_leg.mapping)) == len(bp.carrier),
                f"{op.kind}: right leg is not injective")
        require(rep.passed and not rep.skipped and not rep.failures
                and rep.objects_tested == len(tests),
                f"{op.kind}: oracle report did not pass in full")
        if rng.randrange(COCONE_SAMPLE) == 0:
            into_c = ref.index_map(span.left.mapping, b.carrier, c.carrier)
            into_bp = ref.index_map(span.right.mapping, b.carrier, bp.carrier)
            want = sum(ref.count_cocones(b.class_tag, c.table, bp.table,
                                         into_c, into_bp, q.table) for q in tests)
            require(rep.cocones_checked == want,
                    f"{op.kind}: {rep.cocones_checked} cocones checked, "
                    f"brute force finds {want}")

    def end_pass(self, rng) -> None:
        pass
