"""Workload `stage-chain`: build stage chains, check them, round-trip them.

One operation builds a chain with `build_stages`, checks each step with
`check_weak_homogeneity`, and round-trips the stages through
`serialization.dumps` and `loads`.  This is the only workload in which
`limits`, `amalgam`, `meetglue` and `serialization` do the work, and it
enumerates no homomorphisms.

The chains are fixed; the seed only renames root ids and shuffles the order.
Fifteen chains, each once per pass, put the median in the middle of the
eighth-slowest chain's timings and the 90th percentile in the middle of the
second-slowest's, away from the gaps between chains.  Operations under 5 ms
varied by 7% to 16% from run to run against 2% to 5% for longer ones, so the
chains are chosen to make the eighth-slowest take over 10 ms (a metric
stage, between chains of about 8 ms and 15 ms).
"""

from __future__ import annotations

from fractions import Fraction

from fraisse_forge import limits, serialization, structures

import reference as ref
from common import Op
from reference import require

# Loading re-validates the document, which is cubic for semilattices: larger
# semilattice stages would spend the operation in `loads` rather than in gluing.
SEMILATTICE_ROUND_TRIP_LIMIT = 64
ASSOCIATIVITY_SAMPLES = 2000

# name, class, root, steps, max base size, metric grid
CHAINS = (
    ("graph-e3-b3", "graph", ("edgeless", 3), 1, 3, ()),
    ("graph-e4-b2", "graph", ("edgeless", 4), 1, 2, ()),
    ("graph-e2-b2x2", "graph", ("edgeless", 2), 2, 2, ()),
    ("poset-a2-b2", "poset", ("antichain", 2), 1, 2, ()),
    ("poset-a3-b2", "poset", ("antichain", 3), 1, 2, ()),
    ("poset-a4-b2", "poset", ("antichain", 4), 1, 2, ()),
    ("poset-a4-b3", "poset", ("antichain", 4), 1, 3, ()),
    ("poset-a5-b2", "poset", ("antichain", 5), 1, 2, ()),
    ("poset-a5-b3", "poset", ("antichain", 5), 1, 3, ()),
    ("metric-s2-b1x2", "metric", ("simplex", 2, 1), 2, 1, (1, 2)),
    ("metric-s3-b2", "metric", ("simplex", 3, 1), 1, 2, (1, 2)),
    ("metric-s2d2-b2", "metric", ("simplex", 2, 2), 1, 2, (1, 2, 3)),
    ("semilattice-f1-b1x2", "semilattice", ("free", 1), 2, 1, ()),
    ("semilattice-c4-b1", "semilattice", ("chain", 4), 1, 1, ()),
    ("semilattice-f2-b2", "semilattice", ("free", 2), 1, 2, ()),
)


def make_root(spec, tag: str):
    kind = spec[0]
    if kind == "edgeless":
        n = spec[1]
        return structures.FiniteStructure(
            "graph", tuple(f"{tag}v{i}" for i in range(n)), ref.edgeless_table(n))
    if kind == "antichain":
        n = spec[1]
        return structures.FiniteStructure(
            "poset", tuple(f"{tag}v{i}" for i in range(n)), ref.antichain_table(n))
    if kind == "simplex":
        n, d = spec[1], spec[2]
        return structures.FiniteStructure(
            "metric", tuple(f"{tag}v{i}" for i in range(n)),
            ref.simplex_table(n, Fraction(d)))
    if kind == "chain":
        n = spec[1]
        return structures.FiniteStructure(
            "semilattice", tuple(f"{tag}c{i}" for i in range(n)),
            ref.chain_semilattice_table(n))
    names, table = ref.free_semilattice_spec(spec[1])
    return structures.FiniteStructure(
        "semilattice", tuple(tag + x for x in names), table)


def round_trips(s) -> bool:
    return s.class_tag != "semilattice" or len(s.carrier) <= SEMILATTICE_ROUND_TRIP_LIMIT


class StageChain:
    name = "stage-chain"
    pass_seconds = 0.29

    def __init__(self):
        self._sizes: dict[tuple[str, int], tuple[int, int]] = {}

    def setup(self, tag: str) -> list[Op]:
        ops = []
        for name, tag_class, spec, steps, b, grid in CHAINS:
            root = make_root(spec, tag)
            rep = structures.validate(root)
            require(rep.ok, f"{name}: root is not a {tag_class}")
            ops.append(Op(name, (root, steps, limits.CatalogParams(b, grid))))
        return ops

    def run(self, op: Op):
        root, steps, params = op.args
        chain = limits.build_stages(root, steps, params)
        reports = [limits.check_weak_homogeneity(chain, stage=n) for n in range(steps)]
        texts = [serialization.dumps(s) if round_trips(s) else None
                 for s in chain.stages]
        loaded = [serialization.loads(t) if t is not None else None for t in texts]
        return chain, reports, texts, loaded

    # -- work units and checks ----------------------------------------------

    def expected(self, op: Op, n: int, stage) -> tuple[int, int]:
        """(|F_{n+1}|, number of extension types over F_n), computed from F_n
        without the library."""
        key = (op.kind, n)
        if key not in self._sizes:
            params = op.args[2]
            b, grid = params.max_base_size, params.metric_grid
            size = len(stage.carrier)
            tag = stage.class_tag
            if tag == "graph":
                value = ref.graph_next_size(size, b)
            elif tag == "poset":
                require(n == 0 and stage.table == ref.antichain_table(size),
                        f"{op.kind}: poset chains start from an antichain")
                value = ref.antichain_first_size(size, b)
            elif tag == "metric":
                value = size + ref.katetov_count(stage.table, b, grid)
            else:
                types = len(ref.semilattice_codes(stage.table, b))
                value = ref.semilattice_star_size(stage.table, b)
            if tag != "semilattice":
                types = value - size  # one fresh point per type
            self._sizes[key] = (value, types)
        return self._sizes[key]

    def work_units(self, ops: list[Op]) -> int:
        """Carrier elements of the stages built (known once a pass is checked)."""
        return sum(self._sizes[(op.kind, n)][0] for op in ops
                   for n in range(op.args[1]))

    def check(self, op: Op, out, rng) -> None:
        chain, reports, texts, loaded = out
        root, steps, _ = op.args
        stages = chain.stages
        require(len(stages) == steps + 1 and stages[0] == root,
                f"{op.kind}: chain has the wrong stages")
        for n in range(steps):
            small, big = stages[n], stages[n + 1]
            want, types = self.expected(op, n, small)
            require(len(big.carrier) == want,
                    f"{op.kind}: stage {n + 1} has {len(big.carrier)} elements, "
                    f"expected {want}")
            inc = chain.inclusions[n]
            f = ref.index_map(inc.mapping, small.carrier, big.carrier)
            require(ref.is_induced_embedding(big.class_tag, small.table, big.table, f),
                    f"{op.kind}: inclusion {n} is not an induced embedding")
            entries = chain.catalogs[n].entries
            require(len(set(entries)) == len(entries) == types,
                    f"{op.kind}: catalog {n} does not list each type once")
            _check_witnesses(op.kind, small, big, entries)
            require(reports[n].passed and reports[n].checked == len(entries),
                    f"{op.kind}: weak homogeneity failed at stage {n}")
        for s in stages:
            if s.class_tag == "semilattice":
                _check_semilattice(op.kind, s, rng)
        for s, text, back in zip(stages, texts, loaded):
            if text is None:
                continue
            require(back == s and serialization.dumps(back) == text,
                    f"{op.kind}: dumps(loads(text)) differs from text")

    def end_pass(self, rng) -> None:
        pass


def _check_witnesses(kind: str, small, big, entries) -> None:
    """Each catalog type has a point of F_{n+1} outside the base realizing it,
    found by scanning the raw table of F_{n+1}."""
    pos = {x: k for k, x in enumerate(big.carrier)}
    t = big.table
    tag = big.class_tag
    by_base: dict[tuple, list] = {}
    for base, code in entries:
        by_base.setdefault(base, []).append(code.code)
    for base, codes in by_base.items():
        bix = [pos[b] for b in base]
        inside = set(bix)
        seen = set()
        for z in range(len(big.carrier)):
            if z in inside:
                continue
            if tag == "graph":
                sig = tuple(base[p] for p, i in enumerate(bix) if t[z][i])
            elif tag == "poset":
                sig = (tuple(base[p] for p, i in enumerate(bix) if t[i][z]),
                       tuple(base[p] for p, i in enumerate(bix) if t[z][i]))
            elif tag == "metric":
                sig = tuple(t[z][i] for i in bix)
            else:
                sig = tuple(None if t[z][i] == z else big.carrier[t[z][i]]
                            for i in bix)
            seen.add(sig)
        for code in codes:
            require(code in seen, f"{kind}: no witness for {code!r} over {base}")


def _check_semilattice(kind: str, s, rng) -> None:
    t = s.table
    n = len(t)
    require(all(t[i][i] == i for i in range(n)), f"{kind}: meet not idempotent")
    require(tuple(zip(*t)) == t, f"{kind}: meet not commutative")
    for _ in range(ASSOCIATIVITY_SAMPLES):
        i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        require(t[t[i][j]][k] == t[i][t[j][k]], f"{kind}: meet not associative")
