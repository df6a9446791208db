"""The class records: per-class outputs pinned by digest, and a guard that no
code outside the records branches on which class a structure is."""

import ast
import hashlib
from fractions import Fraction
from pathlib import Path

import pytest

from fraisse_forge import (CLASS_TAGS, METRIC, all_structures, enumerate_codes,
                           pushout_1phep)
from fraisse_forge.serialization import dumps, to_dot
from fraisse_forge.suites import enumerate_1phep_spans

GRID123 = (Fraction(1), Fraction(2), Fraction(3))


def class_outputs(tag):
    """dumps of every test object of size <= 3, the codes over each and its
    DOT text where the class has one, then every 1PHEP pushout of size <= 2:
    its object, both legs' positions and its witness case."""
    for s in all_structures(tag, 3, GRID123):
        yield dumps(s)
        yield [code.code for code in enumerate_codes(tag, s, GRID123)]
        if tag != METRIC:  # metric spaces have no DOT form
            yield to_dot(s)
    for span in enumerate_1phep_spans(tag, 2):
        sq = pushout_1phep(span)
        yield (dumps(sq.object), sq.left_leg.positions, sq.right_leg.positions,
               sq.witness["case"])


# Count and SHA-256 of `class_outputs(tag)`, computed with the code that
# branched on the class tag in every module, before the class records.
CLASS_DIGESTS = {
    "graph": (63, "d0d51cbfadc0dde2da57deed1587da330f278e36f489059d85fb1426db1aa577"),
    "poset": (157, "e33eaf4c34851d6f41104a447e54a3cc391d2a21e6bdd86823faef5421ac499e"),
    "metric": (181, "d65b59969af8bfbe8d7d11682750fa47c73d77d897676029fbf623e9daa9288b"),
    "semilattice": (
        62, "550d7e8f9f26503306e4e9bd2a995cd1a03a77c4a854f15f66299dfcb0558eb5"),
}


@pytest.mark.parametrize("tag", CLASS_TAGS)
def test_class_outputs_pinned(tag):
    h = hashlib.sha256()
    count = 0
    for item in class_outputs(tag):
        h.update(repr(item).encode())
        count += 1
    assert (count, h.hexdigest()) == CLASS_DIGESTS[tag]


# -- no branch on the class tag outside the records ---------------------------

SOURCES = Path(__file__).resolve().parent.parent / "src" / "fraisse_forge"
CLASS_NAMES = {"GRAPH", "POSET", "METRIC", "SEMILATTICE", "CLASS_TAGS"}
# (module, function) pairs that may compare a tag with a class: the guards
# of operations defined for one class only.  The command line's argument
# parsing may too (function None: anywhere in the module).
ALLOWED = {("pushout.py", "congruence_generated"),
           ("limits.py", "check_graph_extension_property"),
           ("cli.py", None)}


def _names_a_class(node: ast.AST) -> bool:
    return any(isinstance(n, ast.Name) and n.id in CLASS_NAMES
               or isinstance(n, ast.Constant) and n.value in CLASS_TAGS
               for n in ast.walk(node))


def class_comparisons(source: str) -> list[tuple[str | None, int]]:
    """(enclosing function, line) of each comparison that names a class."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Compare) and _names_a_class(node):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_guard_finds_a_tag_branch():
    source = ("def f(s):\n"
              "    if s.class_tag == GRAPH:\n"
              "        return 1\n"
              "    return 2 if s.class_tag in ('poset', 'metric') else 3\n")
    assert class_comparisons(source) == [("f", 2), ("f", 4)]


def test_no_tag_branch_outside_the_records():
    offending = []
    for path in sorted(SOURCES.glob("*.py")):
        for function, line in class_comparisons(path.read_text()):
            if (path.name, function) not in ALLOWED and (path.name, None) not in ALLOWED:
                offending.append(f"{path.name}:{line} in {function}")
    assert not offending, offending
