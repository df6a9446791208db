"""Workload `lift-endos`: lift endomorphisms of small roots to their stars.

Each operation is one `lift` of one endomorphism of a root to that root's
star, or one Cayley embedding (`cayley_demo`) of a small transformation
monoid, the paper's semigroup embedding.  Catalogs, stars and endomorphism
lists are built during set-up.

Lifts into small stars take about a millisecond and follow the per-arm
pushout and isomorphism path; lifts into the 287-element semilattice star
take 70 to 250 ms and follow hom checking on a large star.  A pass holds 35
small operations, the 9 large lifts (3 of constant maps, about half as costly
as the other 6) and the Cayley embedding of T2 on a semilattice (about half a
second).  Sorted by time, a pass has 8 graph and metric lifts under a
millisecond, then the 19 small semilattice lifts (about 1.2 ms), then the
slower small operations.  The median (rank 22.5 of 45) thus falls inside the
semilattice lifts and the 90th percentile (rank 40.5) inside the six
non-constant large lifts, both away from the gaps between kinds.

The seed renames root ids and shuffles the order.  No cache sits on the lift
path, so the star of one set-up serves every operation of its pass.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from fraisse_forge import lifting, limits, structures

import reference as ref
from common import Op
from reference import require

# name, class, root, max base size, metric grid
ROOTS = (
    ("graph-e2-b2", "graph", ("edgeless", 2), 2, ()),
    ("poset-a2-b2", "poset", ("antichain", 2), 2, ()),
    ("metric-s2-b1", "metric", ("simplex", 2), 1, (1, 2)),
    ("semilattice-f2-b1", "semilattice", ("free", 2), 1, ()),
    ("semilattice-c3-b1", "semilattice", ("chain", 3), 1, ()),
    ("semilattice-f2-b2", "semilattice", ("free", 2), 2, ()),
)

T2 = ref.transformation_monoid(2)  # elements: const0, identity, swap, const1
Z2 = ref.submonoid_table(T2, (1, 2))
# name, class, multiplication table
CAYLEY = (
    ("cayley-t2-graph", "graph", T2),
    ("cayley-t2-poset", "poset", T2),
    ("cayley-t2-metric", "metric", T2),
    ("cayley-z2-semilattice", "semilattice", Z2),
    ("cayley-t2-semilattice", "semilattice", T2),
)

FUNCTORIALITY_SAMPLES = 6  # pairs per root and pass


def make_root(tag_class: str, spec, tag: str):
    kind, n = spec
    if kind == "chain":
        return structures.FiniteStructure(tag_class, tuple(f"{tag}c{i}" for i in range(n)),
                                          ref.chain_semilattice_table(n))
    if kind == "free":
        names, table = ref.free_semilattice_spec(n)
        return structures.FiniteStructure(tag_class, tuple(tag + x for x in names),
                                          table)
    table = {"edgeless": ref.edgeless_table, "antichain": ref.antichain_table,
             "simplex": lambda k: ref.simplex_table(k, Fraction(1))}[kind](n)
    return structures.FiniteStructure(tag_class, tuple(f"{tag}v{i}" for i in range(n)),
                                      table)


def _compose(outer, inner, carrier):
    """outer after inner, both as mapping tuples over `carrier`."""
    pos = {x: k for k, x in enumerate(carrier)}
    return tuple(outer[pos[y]] for y in inner)


class LiftEndos:
    name = "lift-endos"
    pass_seconds = 1.7

    def __init__(self):
        self._star_sizes: dict[str, int] = {}
        self._lifted: dict[str, dict] = {}

    def setup(self, tag: str) -> list[Op]:
        ops = []
        for name, tag_class, spec, b, grid in ROOTS:
            root = make_root(tag_class, spec, tag)
            catalog = limits.enumerate_extensions(root, limits.CatalogParams(b, grid))
            star = limits.build_star(root, catalog)
            endos = lifting.endomorphisms(root)
            ops.extend(Op(name, (phi, star, catalog)) for phi in endos)
        for name, tag_class, table in CAYLEY:
            ops.append(Op(name, (table, tag_class)))
        self._lifted = {}
        return ops

    def run(self, op: Op):
        if op.kind.startswith("cayley"):
            return lifting.cayley_demo(*op.args)
        return lifting.lift(*op.args)

    # -- work units and checks ----------------------------------------------

    def star_size(self, op: Op) -> int:
        """Star size computed without the library."""
        if op.kind not in self._star_sizes:
            if op.kind.startswith("cayley"):
                table, tag_class = op.args
                m = len(table)
                if tag_class == "semilattice":
                    _, t = ref.free_semilattice_spec(m)
                    size = ref.semilattice_star_size(t, 1, bases=[(g,) for g in range(m)])
                else:  # one arm per code over each singleton base
                    size = m + m * {"graph": 2, "poset": 3, "metric": 2}[tag_class]
            else:
                phi, star, catalog = op.args
                root = phi.source
                n = len(root.carrier)
                b = catalog.params.max_base_size
                if root.class_tag == "graph":
                    size = ref.graph_next_size(n, b)
                elif root.class_tag == "poset":
                    size = ref.antichain_first_size(n, b)
                elif root.class_tag == "metric":
                    size = n + ref.katetov_count(root.table, b, catalog.params.metric_grid)
                else:
                    size = ref.semilattice_star_size(root.table, b)
            self._star_sizes[op.kind] = size
        return self._star_sizes[op.kind]

    def work_units(self, ops: list[Op]) -> int:
        """Star elements mapped: one star per lift, m stars per Cayley embedding."""
        return sum(self.star_size(op) * (len(op.args[0]) if op.kind.startswith("cayley")
                                         else 1) for op in ops)

    def check(self, op: Op, out, rng) -> None:
        size = self.star_size(op)
        if op.kind.startswith("cayley"):
            self._check_cayley(op, out, size)
            return
        phi, star, catalog = op.args
        obj = star.object
        require(len(obj.carrier) == size,
                f"{op.kind}: star has {len(obj.carrier)} elements, expected {size}")
        hat = out.lifted
        require(hat.source == obj and hat.target == obj,
                f"{op.kind}: lift is not an endomorphism of the star")
        image = dict(zip(obj.carrier, hat.mapping))
        require(all(image[a] == y for a, y in zip(phi.source.carrier, phi.mapping)),
                f"{op.kind}: lift does not restrict to phi")
        f = ref.index_map(hat.mapping, obj.carrier, obj.carrier)
        require(ref.is_hom(obj.class_tag, obj.table, obj.table, f),
                f"{op.kind}: lift is not a homomorphism of the star")
        self._lifted.setdefault(op.kind, {})[phi.mapping] = (hat.mapping, phi, obj)

    def _check_cayley(self, op: Op, emb, size: int) -> None:
        table, _ = op.args
        m = len(table)
        obj = emb.star.object
        require(len(obj.carrier) == size,
                f"{op.kind}: star has {len(obj.carrier)} elements, expected {size}")
        maps = [l.lifted.mapping for l in emb.lifted]
        require(len(maps) == m and len(set(maps)) == m,
                f"{op.kind}: Cayley representation is not injective")
        designated = emb.root.carrier[:m]
        for s in range(m):
            image = dict(zip(obj.carrier, maps[s]))
            require(all(image[designated[x]] == designated[table[x][s]]
                        for x in range(m)),
                    f"{op.kind}: element {s} does not act by right multiplication")
            f = ref.index_map(maps[s], obj.carrier, obj.carrier)
            require(ref.is_hom(obj.class_tag, obj.table, obj.table, f),
                    f"{op.kind}: lift of {s} is not a homomorphism of the star")
        for s, t in itertools.product(range(m), repeat=2):
            require(_compose(maps[s], maps[t], obj.carrier) == maps[table[t][s]],
                    f"{op.kind}: lift({s}) . lift({t}) != lift({t}*{s})")

    def end_pass(self, rng) -> None:
        """Distinct phi give distinct lifts; lifting preserves composition."""
        for kind, lifts in sorted(self._lifted.items()):
            hats = [h for h, _, _ in lifts.values()]
            require(len(set(hats)) == len(hats), f"{kind}: two phi share a lift")
            keys = sorted(lifts)
            for _ in range(FUNCTORIALITY_SAMPLES):
                phi_key, psi_key = rng.choice(keys), rng.choice(keys)
                hat_phi, phi, obj = lifts[phi_key]
                hat_psi = lifts[psi_key][0]
                comp = _compose(psi_key, phi_key, phi.source.carrier)
                require(comp in lifts, f"{kind}: psi . phi is not among the endos")
                require(_compose(hat_psi, hat_phi, obj.carrier) == lifts[comp][0],
                        f"{kind}: lift(psi . phi) != lift(psi) . lift(phi)")
        self._lifted = {}
