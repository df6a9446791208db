"""
Pushouts along surjections and free sums
========================================

A 1PHEP span is a one-point extension B -> C together with a surjection
B ->> B'.  Its pushout extends the surjection over the new point; the result
is checked here against a brute-force universal-property oracle.  Free sums
glue many one-point extensions onto a shared root at once; each arm is an
extension code over a base in the root, with a name for its new point.
"""

from fractions import Fraction

from fraisse_forge import (ExtensionCode, Span, apply_code, free_sum,
                           morphism_from_dict, pushout_1phep,
                           verify_universal_property)
from fraisse_forge.presets import free_semilattice, semilattice_from_meets, simplex
from fraisse_forge.pushout import all_structures

# --- a semilattice pushout: the surjection extends over the new point ---

b = free_semilattice(2)
code = ExtensionCode("semilattice", b.carrier, ("g0", "(g0^g1)", "(g0^g1)"))
c = apply_code(b, code, "w")
incl = morphism_from_dict(b, c, {x: x for x in b.carrier})

# collapse the whole base to a point; the new point survives above it
bp = semilattice_from_meets("u", {})
f = morphism_from_dict(b, bp, {"g0": "u", "g1": "u", "(g0^g1)": "u"})
sq = pushout_1phep(Span(incl, f))
print("pushout carrier:", sq.object.carrier)

report = verify_universal_property(sq, all_structures("semilattice", 3))
print("universal property against all test objects of size <= 3:",
      "ok" if report.passed else report.failures)

# --- a metric free sum: distances between fresh points route via the root ---

root = simplex(2, 1)  # two points at distance 1
one, two = Fraction(1), Fraction(2)
arms = ((ExtensionCode("metric", ("v0",), (one,)), "x"),
        (ExtensionCode("metric", ("v1",), (two,)), "y"))
fs = free_sum(root, arms)
s = fs.object
print("free sum carrier:", s.carrier)
print("d(x, v0) =", s.dist("x", "v0"), " d(y, v1) =", s.dist("y", "v1"))
# the x-y distance is the cheapest route through the root: 1 + 1 + 2
print("d(x, y)  =", s.dist("x", "y"))
