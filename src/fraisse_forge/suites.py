"""Named verification suites shared by the command line and the test suite.

Every suite returns a JSON-serializable report dict with at least the keys
"suite", "passed" (bool), "checked" (int), "failures" (list) and "skipped"
(list).  Bound overruns become skips, never passes.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .limits import (CatalogParams, build_stages, build_star,
                     check_weak_homogeneity, enumerate_extensions)
from .lifting import _composition_mismatch, cayley_demo, endomorphisms, lift
from .pushout import Span, all_structures, pushout_1phep, verify_universal_property
from .structures import (BoundExceeded, FiniteStructure, apply_code,
                         enumerate_codes, enumerate_homs, is_surjection,
                         morphism_from_dict, validate)

DEFAULT_ORACLE_GRID = (Fraction(1), Fraction(2), Fraction(3))


def suite_axioms(structures: list[FiniteStructure]) -> dict:
    failures = []
    for k, s in enumerate(structures):
        rep = validate(s)
        if not rep.ok:
            failures.append({"index": k, "error": rep.error,
                             "witness": list(rep.witness or ())})
    return {"suite": "axioms", "passed": not failures,
            "checked": len(structures), "failures": failures, "skipped": []}


def enumerate_1phep_spans(class_tag: str, max_size: int,
                          grid: tuple[Fraction, ...] = DEFAULT_ORACLE_GRID):
    """All spans (B -> C one-point extension, B ->> B') with |B|, |B'| bounded.

    Bases, extension codes, surjection targets, and surjections are each
    enumerated exhaustively in deterministic order.  Only metric spaces read
    the distance `grid`.
    """
    bases = all_structures(class_tag, max_size, grid)
    targets = bases
    for b in bases:
        codes = enumerate_codes(class_tag, b, grid=grid)
        for code in codes:
            c = apply_code(b, code, "x*")
            incl = morphism_from_dict(b, c, {x: x for x in b.carrier})
            for bp in targets:
                if len(bp.carrier) > len(b.carrier):
                    continue
                for f in enumerate_homs(b, bp):
                    if is_surjection(f):
                        yield Span(incl, f)


def suite_pushout_oracle(class_tag: str, max_size: int = 3,
                         grid: tuple[Fraction, ...] = DEFAULT_ORACLE_GRID) -> dict:
    """Every bounded 1PHEP span's pushout passes the brute-force
    universal-property oracle against all bounded same-class test objects."""
    test_objects = all_structures(class_tag, max_size, grid)
    checked = 0
    failures = []
    skipped = []
    for span in enumerate_1phep_spans(class_tag, max_size, grid):
        checked += 1
        sq = pushout_1phep(span)
        rep = verify_universal_property(sq, test_objects)
        if not rep.passed:
            failures.append({"span": _span_key(span),
                             "failures": [list(map(str, f)) for f in rep.failures]})
        skipped.extend({"span": _span_key(span), "reason": reason}
                       for _, reason in rep.skipped)
    return {"suite": "pushout-oracle", "class": class_tag, "passed": not failures,
            "checked": checked, "failures": failures, "skipped": skipped}


def _span_key(span: Span) -> dict:
    return {"apex": list(span.apex.carrier),
            "left": list(span.left.mapping),
            "right": list(span.right.mapping),
            "target": list(span.right.target.carrier)}


def suite_homogeneity(root: FiniteStructure, params: CatalogParams,
                      stages: int = 1) -> dict:
    chain = build_stages(root, stages, params)
    checked = 0
    failures = []
    for n in range(stages):
        rep = check_weak_homogeneity(chain, stage=n)
        checked += rep.checked
        for base, code in rep.misses:
            failures.append({"stage": n, "base": list(base), "code": repr(code.code)})
    return {"suite": "homogeneity", "class": root.class_tag, "passed": not failures,
            "checked": checked, "failures": failures, "skipped": [],
            "stage_sizes": [len(s.carrier) for s in chain.stages]}


def suite_functoriality(root: FiniteStructure, params: CatalogParams) -> dict:
    """All pairs of base endomorphisms: composition and identity laws, and
    injectivity of the lifting map."""
    catalog = enumerate_extensions(root, params)
    star = build_star(root, catalog)
    try:
        endos = endomorphisms(root)
    except BoundExceeded as e:
        return {"suite": "functoriality", "passed": False, "checked": 0,
                "failures": [], "skipped": [{"reason": str(e)}]}
    lifts = {phi.mapping: lift(phi, star, catalog) for phi in endos}
    failures = []
    ident = tuple(root.carrier)
    if lifts[ident].lifted.mapping != star.object.carrier:
        failures.append({"law": "identity"})
    if len({l.lifted.mapping for l in lifts.values()}) != len(endos):
        failures.append({"law": "injectivity"})
    checked = 0
    for phi in endos:
        hat_phi = lifts[phi.mapping].lifted
        for psi in endos:
            checked += 1
            mismatch = _composition_mismatch(lifts[psi.mapping].lifted, hat_phi,
                                             lifts[psi.compose(phi).mapping].lifted)
            if mismatch is not None:
                failures.append({"law": "composition", "phi": list(phi.mapping),
                                 "psi": list(psi.mapping), "point": list(mismatch)})
    return {"suite": "functoriality", "class": root.class_tag,
            "passed": not failures, "checked": checked, "failures": failures,
            "skipped": [], "endomorphisms": len(endos),
            "star_size": len(star.object.carrier)}


def full_transformation_monoid(k: int) -> tuple[tuple[int, ...], ...]:
    """Multiplication table of all self-maps of {0..k-1}; s*t is s then t."""
    maps = list(itertools.product(range(k), repeat=k))
    index = {m: i for i, m in enumerate(maps)}
    return tuple(tuple(index[tuple(maps[t][maps[s][x]] for x in range(k))]
                       for t in range(len(maps))) for s in range(len(maps)))


def suite_cayley(class_tag: str,
                 table: tuple[tuple[int, ...], ...] | None = None) -> dict:
    if table is None:
        table = full_transformation_monoid(2)
    emb = cayley_demo(table, class_tag)
    return {"suite": "cayley", "class": class_tag, "passed": True,
            "checked": emb.products_checked, "failures": [], "skipped": [],
            "semigroup_size": emb.size,
            "star_size": len(emb.star.object.carrier)}
