"""Block kernels vs the interpreter oracle.

The default engine (:mod:`repro.engine.fused`) evaluates bags as
vectorized ``searchsorted`` sweeps over flat trie arrays.  Its contract
is value-and-type agreement with the interpreter on every set layout
the optimizer can choose (the kernel reads ``Trie.sorted_data``
directly and must stay independent of per-node layout decisions), and
four properties that make it safe as the default: it generates each
level from the cheapest participant *for the actual frontier*, it cuts
every level into bounded blocks without changing a bit of the result,
its transient memory follows the block size and not the data, and it
takes the skew sweep without anyone installing a tuning profile.
"""

import tracemalloc

import numpy as np
import pytest

from repro import Database
from repro.engine.codegen import InputSpec, generate_bag_plan
from repro.engine import fused
from repro.engine.fused import FUSED_SEMIRINGS, fusable
from repro.engine.generic_join import BagEvaluator, evaluate_bag
from repro.engine.semiring import COUNT, semiring_for
from repro.graphs import (BARBELL_COUNT, FOUR_CLIQUE_COUNT, chung_lu_graph,
                          uniform_graph)
from repro.sets import UintSet
from repro.tune.profile import TuningProfile
from tests.conftest import bag_inputs, clique_atoms

TRIANGLES = ("T(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); "
             "w=<<COUNT(*)>>.")
TRIANGLE_LIST = "Q(x,y,z) :- Edge(x,y),Edge(y,z),Edge(x,z)."
PER_VERTEX = ("D(x;c:long) :- Edge(x,y),Edge(x,z),Edge(y,z); "
              "c=<<COUNT(*)>>.")
FOUR_CLIQUE = ("K(;w:long) :- Edge(x,y),Edge(x,z),Edge(x,u),"
               "Edge(y,z),Edge(y,u),Edge(z,u); w=<<COUNT(*)>>.")

LAYOUTS = ("set", "uint_only", "bitset_only", "block")

POWER_LAW = [tuple(e) for e in chung_lu_graph(220, 1600, exponent=1.7,
                                              seed=9)]
UNIFORM = [tuple(e) for e in uniform_graph(100, 420, seed=21)]

UNBOUNDED = 1 << 62


def make_pair(layout, edges):
    """(interpreted, default) databases over the same graph and layout."""
    interp = Database(execution_mode="interpreted", layout_level=layout)
    default = kernel_db(layout_level=layout)
    for db in (interp, default):
        db.load_graph("Edge", edges, prune=True)
    return interp, default


def kernel_db(**overrides):
    """A database on the default engine, whatever
    ``REPRO_EXECUTION_MODE`` says (CI runs the suite under the
    interpreted oracle too)."""
    return Database(execution_mode="compiled", **overrides)


def blocked(config, rows):
    """``config`` with the kernel block size pinned to ``rows``."""
    return config.ablated(adaptive=True,
                          tuning=TuningProfile(fused_block_rows=rows))


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("edges", [POWER_LAW, UNIFORM],
                         ids=["powerlaw", "uniform"])
class TestLayoutParity:
    def test_scalar_counts(self, layout, edges):
        interp, default = make_pair(layout, edges)
        for query in (TRIANGLES, FOUR_CLIQUE):
            expected = interp.query(query).scalar
            got = default.query(query).scalar
            assert got == expected, (layout, query)
        stats = default.last_stats
        assert stats.fused_blocks >= 1 and stats.fused_fallbacks == 0

    def test_materialized_rows_identical(self, layout, edges):
        interp, default = make_pair(layout, edges)
        expected = interp.query(TRIANGLE_LIST)
        got = default.query(TRIANGLE_LIST)
        assert np.array_equal(got.relation.data, expected.relation.data)

    def test_grouped_aggregate(self, layout, edges):
        interp, default = make_pair(layout, edges)
        expected = interp.query(PER_VERTEX)
        got = default.query(PER_VERTEX)
        assert np.array_equal(got.relation.data, expected.relation.data)
        assert np.allclose(got.annotations, expected.annotations)


class TestTyping:
    def test_count_scalar_matches_the_oracle_in_value_and_type(self):
        interp, default = make_pair("set", UNIFORM)
        a = interp.query(TRIANGLES).scalar
        b = default.query(TRIANGLES).scalar
        assert b == a
        assert type(b) is type(a)


class TestFusability:
    def test_supported_semirings_are_the_documented_set(self):
        assert FUSED_SEMIRINGS == ("SUM", "COUNT", "MIN", "MAX",
                                   "EXISTS")

    def test_unfusable_spec_has_no_kernel(self):
        """Arity-3 inputs have no flat trie view: no kernel, the
        executor interprets the bag."""
        specs = [InputSpec("R", ("x", "y", "z"))]
        assert not fusable(("x", "y", "z"), 0, specs, COUNT)
        assert generate_bag_plan(("x", "y", "z"), 0, specs, COUNT) is None


# -- (a) generator choice -----------------------------------------------------


def hub_and_spokes(spokes=60, chords=25, seed=3):
    """One hub adjacent to every spoke, plus a few spoke-spoke chords
    (so triangles and 4-cliques through the hub exist)."""
    rng = np.random.RandomState(seed)
    edges = {(0, s) for s in range(1, spokes + 1)}
    while len(edges) < spokes + chords:
        a, b = rng.randint(1, spokes + 1, size=2)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return sorted(edges)


def clique_bound(adjacency, k):
    """Candidates a k-clique bag must generate when every level expands
    through the child participant with the smallest summed fan-out over
    the actual frontier — computed set-at-a-time, independently of the
    kernel — and the same sum for the *largest* fan-out."""
    keys = sorted(adjacency)
    best = worst = len(keys)               # level 0: the root keys
    frontier = [(x,) for x in keys]
    for level in range(1, k):
        fanouts = [sum(len(adjacency.get(row[j], ())) for row in frontier)
                   for j in range(level)]
        best += min(fanouts)
        worst += max(fanouts)
        grown = []
        for row in frontier:
            common = set.intersection(
                *(set(adjacency.get(v, ())) for v in row))
            for value in sorted(common):
                if level == k - 1 or value in adjacency:
                    grown.append(row + (value,))
        frontier = grown
    return best, worst


class TestGeneratorChoice:
    """Every atom is the same ``Edge`` relation, so relation size ties
    and only the frontier's actual fan-out separates the hub's side
    from the spokes'."""

    @pytest.mark.parametrize("k", [3, 4], ids=["triangle", "4-clique"])
    @pytest.mark.parametrize("reverse", [False, True],
                             ids=["atoms-forward", "atoms-reversed"])
    def test_charges_no_more_than_the_min_fanout_side(self, k, reverse):
        db = Database()
        db.load_graph("Edge", hub_and_spokes(), prune=True)
        order = ("x", "y", "z", "u")[:k]
        specs, tries, _ = bag_inputs(db, clique_atoms(order, reverse))
        kernel = generate_bag_plan(order, 0, specs, COUNT)
        adjacency = {}
        for src, dst in db.catalog["Edge"].data.tolist():
            adjacency.setdefault(src, []).append(dst)
        best, worst = clique_bound(adjacency, k)
        assert worst > 2 * best         # the graph really is lopsided
        db.counter.reset()
        kernel(tries, db.config)
        assert db.counter.elements <= best
        assert "fused_sweep" not in db.counter.by_algorithm


# -- (b) slicing --------------------------------------------------------------

SLICE_EDGES = [tuple(e) for e in chung_lu_graph(40, 150, exponent=1.8,
                                                seed=5)]


def slicing_db():
    db = Database(execution_mode="interpreted")
    db.load_graph("Edge", SLICE_EDGES)
    edge = db.catalog["Edge"]
    # Dyadic weights: every product and partial sum is exact, so block
    # boundaries cannot show up as float reassociation.
    weights = [((int(u) * 7 + int(v) * 13) % 11) / 4.0 + 0.25
               for u, v in edge.data]
    db.add_encoded("W", edge.data, annotations=weights)
    return db


@pytest.mark.parametrize("restricted", [False, True],
                         ids=["whole", "restrict"])
@pytest.mark.parametrize("out_count", [0, 1, 3],
                         ids=["scalar", "grouped", "materializing"])
@pytest.mark.parametrize("name", FUSED_SEMIRINGS)
class TestSlicing:
    """Block size is a memory knob, never a result: 1, 7, the default
    and unbounded agree bit for bit, and with the interpreter."""

    ATOMS = [("W", ("x", "y"), True), ("Edge", ("y", "z"), False),
             ("W", ("x", "z"), True)]
    ORDER = ("x", "y", "z")

    def test_block_sizes_agree_bit_for_bit(self, name, out_count,
                                           restricted):
        db = slicing_db()
        semiring = semiring_for(name)
        specs, tries, inputs = bag_inputs(db, self.ATOMS)
        keys = tries[0].flat().keys
        restrict = UintSet.from_sorted(keys[keys.size // 3:]) \
            if restricted else None
        kernel = generate_bag_plan(self.ORDER, out_count, specs, semiring)
        results = [kernel(tries, blocked(db.config, rows), restrict)
                   for rows in (UNBOUNDED, 1, 7, 1 << 16)]
        results.append(BagEvaluator(self.ORDER, out_count, inputs,
                                    semiring, db.config,
                                    restrict_level0=restrict).run())
        reference = results[0]
        assert reference.cardinality or reference.scalar is not None
        for other in results[1:]:
            assert other.scalar == reference.scalar
            assert type(other.scalar) is type(reference.scalar)
            assert np.array_equal(other.data, reference.data)
            if reference.annotations is None:
                assert other.annotations is None
            else:
                assert np.array_equal(other.annotations,
                                      reference.annotations)


class TestSlicingIntFold:
    def test_unannotated_count_stays_an_exact_int_across_blocks(self):
        db = slicing_db()
        order = ("x", "y", "z")
        specs, tries, inputs = bag_inputs(db, clique_atoms(order))
        kernel = generate_bag_plan(order, 0, specs, COUNT)
        counts = [kernel(tries, blocked(db.config, rows)).scalar
                  for rows in (UNBOUNDED, 1, 7, 1 << 16)]
        assert all(type(count) is int for count in counts)
        assert len(set(counts)) == 1 and counts[0] > 0
        assert counts[0] == evaluate_bag(("x", "y", "z"), 0, inputs,
                                         COUNT, db.config).scalar

    def test_no_size_makes_the_kernel_give_up(self):
        """There is no expansion budget left to exceed: a one-row block
        on a query with hundreds of thousands of candidates still runs
        on the kernel."""
        db = kernel_db(adaptive=True,
                       tuning=TuningProfile(fused_block_rows=64))
        db.load_graph("Edge", POWER_LAW, prune=True)
        db.query(FOUR_CLIQUE)
        stats = db.last_stats
        assert stats.fused_blocks == stats.compiled_bag_calls >= 1
        assert stats.fused_fallbacks == 0
        assert not hasattr(fused, "FusedFallback")


# -- (c) bounded memory -------------------------------------------------------

PATTERNS_EDGES = [tuple(e) for e in chung_lu_graph(650, 2200, exponent=2.1,
                                                   seed=20160626)]

#: Transient-memory ceiling of one warm pattern query at 1024-row
#: blocks on the ``patterns``-sized graph: about ten block-sized arrays
#: plus the surviving frontier and its per-row accumulators (measured:
#: 0.33 MB for the 4-clique, 0.47 MB for the barbell; unbounded blocks
#: take 2.0 MB and 10.8 MB).
SMALL_BLOCK_CEILING = 600_000


def traced_peak(db, query):
    db.query(query)                     # warm: tries, plan, kernel
    tracemalloc.start()
    try:
        db.query(query)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    @pytest.mark.parametrize("query,prune", [(FOUR_CLIQUE_COUNT, True),
                                             (BARBELL_COUNT, False)],
                             ids=["4-clique", "barbell"])
    def test_peak_follows_the_block_size(self, query, prune):
        peaks = {}
        for rows in (1 << 10, UNBOUNDED):
            db = kernel_db(adaptive=True,
                           tuning=TuningProfile(fused_block_rows=rows))
            db.load_graph("Edge", PATTERNS_EDGES, prune=prune)
            peaks[rows] = traced_peak(db, query)
        assert peaks[1 << 10] < SMALL_BLOCK_CEILING
        assert peaks[UNBOUNDED] > 2 * peaks[1 << 10]


# -- (d) skew without a profile -----------------------------------------------


class TestSkewSweep:
    """The skew-aware probe sweep.

    ``R(x),S(x,y),T(y)`` puts a root part (``T``, first var at level
    ``y``) next to a high-fanout generator (``S``): past the crossover
    the kernel tiles ``T``'s keys instead of materializing ``S``'s full
    expansion.  Contract: same results, a ``fused_sweep`` charge
    instead of a ``fused_block`` one — and the built-in crossover
    applies with no tuning profile installed.
    """

    QUERY = "Q(;w:long) :- R(x),S(x,y),T(y); w=<<COUNT(*)>>."
    FANOUT = 96
    XS = 48

    @classmethod
    def load(cls, db):
        # Every x relates to every y: per-x fanout (96) dwarfs |T| (8),
        # so expansion totals 48*96 rows vs a 48*8 sweep.
        db.add_relation("R", [(x,) for x in range(cls.XS)], arity=1)
        db.add_relation("S", [(x, y) for x in range(cls.XS)
                              for y in range(cls.FANOUT)])
        db.add_relation("T", [(y,) for y in range(0, 64, 8)], arity=1)
        return db

    @staticmethod
    def never_sweep():
        return dict(adaptive=True,
                    tuning=TuningProfile(fused_probe_crossover=4096.0))

    def test_sweeps_without_a_profile(self):
        db = self.load(kernel_db())
        assert db.config.tuning is None
        db.query(self.QUERY)
        assert "fused_sweep" in db.counter.by_algorithm
        # the sweep's candidates, not the expansion's
        assert db.counter.elements < self.XS * self.FANOUT

    def test_a_profile_refines_the_crossover(self):
        db = self.load(kernel_db(**self.never_sweep()))
        db.query(self.QUERY)
        assert "fused_sweep" not in db.counter.by_algorithm
        assert "fused_block" in db.counter.by_algorithm

    def test_sweep_results_bit_identical(self):
        swept = self.load(kernel_db())
        plain = self.load(kernel_db(**self.never_sweep()))
        interp = self.load(Database(execution_mode="interpreted"))
        expected = interp.query(self.QUERY).scalar
        assert plain.query(self.QUERY).scalar == expected
        assert swept.query(self.QUERY).scalar == expected

    def test_sweep_parity_on_materialized_rows(self):
        query = "Q(x,y) :- R(x),S(x,y),T(y)."
        swept = self.load(kernel_db())
        plain = self.load(kernel_db(**self.never_sweep()))
        assert sorted(plain.query(query).tuples()) \
            == sorted(swept.query(query).tuples())
        assert "fused_sweep" in swept.counter.by_algorithm


class TestSkewedCommonNeighbours:
    """The ``bench_adaptive`` shape at test scale: every (probe, target)
    pair intersects a small adjacency with one 24x larger.  Its level
    has no root participant, so the sweep cannot apply; what used to
    make the untuned kernel 12x slower than the per-tuple loop was
    expanding the *target's* side, which the min-fan-out generator no
    longer does — with no profile installed."""

    QUERY = ("T(;w:long) :- Pair(x,y),Edge(y,z),Edge(x,z); "
             "w=<<COUNT(*)>>.")
    PROBES, PROBE_DEGREE, TARGETS, SKEW = 24, 16, 3, 24

    def load(self, db):
        rng = np.random.default_rng(7)
        target_degree = self.PROBE_DEGREE * self.SKEW
        leaves = target_degree * 2
        rows = []
        for index in range(self.PROBES + self.TARGETS):
            degree = self.PROBE_DEGREE if index < self.PROBES \
                else target_degree
            for leaf in rng.choice(leaves, size=degree, replace=False):
                rows.append((leaves + index, int(leaf)))
        rows += [(b, a) for a, b in rows]
        pairs = [(leaves + p, leaves + self.PROBES + t)
                 for p in range(self.PROBES) for t in range(self.TARGETS)]
        db.add_encoded("Edge", np.asarray(rows, dtype=np.uint32))
        db.add_encoded("Pair", np.asarray(pairs, dtype=np.uint32))
        return db

    def test_expands_the_probe_side_without_a_profile(self):
        db = self.load(kernel_db())
        assert db.config.tuning is None
        interp = self.load(Database(execution_mode="interpreted"))
        assert db.query(self.QUERY).scalar \
            == interp.query(self.QUERY).scalar
        assert db.last_stats.fused_blocks >= 1
        n_pairs = self.PROBES * self.TARGETS
        small_side = n_pairs * self.PROBE_DEGREE
        # levels x and y generate at most the Pair relation each
        assert db.counter.elements <= 2 * n_pairs + small_side \
            + self.PROBES + self.TARGETS


# -- (e) the analytics shapes and the dense root probe ------------------------


def analytics_tries(roots, with_v):
    """Tries of ``Agg(x) :- B(x,z),U1(z),U2(z)[,V(x)]``: a fixed
    unannotated ``B`` whose ``z`` values reach below, into and beyond
    every root key set, and annotated unary inputs over ``roots``.
    Weights are dyadic, so every product and partial sum is exact."""
    from repro.storage import Relation, Trie
    pairs = [(x, z) for x in range(40) for z in range(0, 70000, 997)
             if (x * 31 + z) % 3]
    zs = sorted({z for _, z in pairs})
    u1, u2 = roots(zs)

    def unary(name, keys):
        keys = np.asarray(sorted(keys), dtype=np.uint32)
        weights = (keys % 13) / 8.0 + 0.5
        return Trie(Relation(name, keys.reshape(-1, 1), weights))

    tries = [Trie(Relation("B", np.asarray(pairs, dtype=np.uint32))),
             unary("U1", u1), unary("U2", u2)]
    atoms = [("B", ("x", "z"), False), ("U1", ("z",), True),
             ("U2", ("z",), True)]
    if with_v:
        tries.append(unary("V", range(3, 33)))
        atoms.append(("V", ("x",), True))
    return tries, atoms


def holed(start, stop):
    """A dense key range with holes: a bitset, but not full."""
    return [v for v in range(start, stop) if v % 7]


def probe_route(trie):
    """How the kernel probes ``trie``'s root: ``full`` (rank is value
    less first key), dense ``table`` (``rank_of``) or binary
    ``search``."""
    flat = trie.flat()
    return "full" if flat.full else \
        "table" if flat.rank_of is not None else "search"


#: Root key sets of ``(U1, U2)`` from the ``z`` values ``B`` holds, and
#: the route each is probed by.
ANALYTICS_ROOTS = {
    "dense": (lambda zs: (range(20000, 40000), range(25000, 45000)),
              ["full", "full"]),
    "holed": (lambda zs: (holed(20000, 40000), holed(25000, 45000)),
              ["table", "table"]),
    "sparse": (lambda zs: (zs[::2], zs[::3]), ["search", "search"]),
    "mixed": (lambda zs: (holed(20000, 40000), zs[::2]),
              ["table", "search"]),
    "covering": (lambda zs: (range(0, 70000), range(0, zs[-1] + 1)),
                 ["full", "full"]),
    "short": (lambda zs: (range(0, zs[-1]), holed(20000, 40000)),
              ["full", "table"]),
    "disjoint": (lambda zs: (range(20000, 30000), range(30000, 40000)),
                 ["full", "full"]),
    "inside": (lambda zs: (range(29000, 31000), holed(29500, 30500)),
               ["full", "table"]),
}


@pytest.mark.parametrize("with_v", [False, True], ids=["", "V(x)"])
@pytest.mark.parametrize("roots", sorted(ANALYTICS_ROOTS))
@pytest.mark.parametrize("name", FUSED_SEMIRINGS)
class TestAnalyticsShapes:
    """``Agg(x) :- B(x,z),U1(z),U2(z)`` (PageRank's and SSSP's round)
    is evaluated by the block kernel alone, so it must equal the
    interpreter bit for bit whichever way each root level is probed —
    range arithmetic, dense table or binary search — at every block
    size."""

    def test_kernel_equals_interpreter(self, name, roots, with_v):
        from repro.engine import EngineConfig
        from repro.engine.generic_join import BagInput
        make_roots, routes = ANALYTICS_ROOTS[roots]
        tries, atoms = analytics_tries(make_roots, with_v)
        assert [probe_route(trie) for trie in tries[1:3]] == routes
        semiring = semiring_for(name)
        specs = [InputSpec(n, v, annotated=a) for n, v, a in atoms]
        inputs = [BagInput(trie, v, annotated=a, name=n)
                  for trie, (n, v, a) in zip(tries, atoms)]
        config = EngineConfig(execution_mode="compiled")
        expected = BagEvaluator(("x", "z"), 1, inputs, semiring,
                                config).run()
        assert bool(expected.cardinality) == (roots != "disjoint")
        kernel = generate_bag_plan(("x", "z"), 1, specs, semiring)
        for rows in (1, 7, None):
            got = kernel(tries, config if rows is None
                         else blocked(config, rows))
            assert np.array_equal(got.data, expected.data)
            assert np.array_equal(got.annotations, expected.annotations)
        # one child-level input, so no pair is probed: no bit table
        assert tries[0].flat()._pairs is None


class TestAnalyticsShapeValues:
    """Hand-checked answers on the two shapes (formerly asserted of the
    interpreter's whole-bag shortcut, which the kernel replaced)."""

    PAIRS = [(0, 1), (0, 2), (1, 2), (2, 0), (2, 3)]

    def run(self, unary_vars, keys, weights):
        from repro.storage import Relation, Trie
        tries = [Trie(Relation("B", np.asarray(self.PAIRS,
                                               dtype=np.uint32))),
                 Trie(Relation("U", np.asarray(keys, dtype=np.uint32)
                               .reshape(-1, 1), weights))]
        specs = [InputSpec("B", ("x", "z")),
                 InputSpec("U", unary_vars, annotated=True)]
        kernel = generate_bag_plan(("x", "z"), 1, specs,
                                   semiring_for("SUM"))
        result = kernel(tries, kernel_db().config)
        return dict(zip(result.data[:, 0].tolist(),
                        result.annotations.tolist()))

    def test_sums_the_weights_of_each_neighbourhood(self):
        assert self.run(("z",), [0, 1, 2, 3], [1.0, 2.0, 4.0, 8.0]) \
            == {0: 2.0 + 4.0, 1: 4.0, 2: 1.0 + 8.0}

    def test_unary_over_the_out_variable_filters_and_scales(self):
        # x=1 filtered out; neighbour counts scaled by x's weight
        assert self.run(("x",), [0, 2], [10.0, 100.0]) \
            == {0: 2 * 10.0, 2: 2 * 100.0}

    def test_bitset_only_layout_does_not_grow_a_sparse_table(self):
        """``bitset_only`` stores even a sparse root as a bitset; the
        density rule, not the layout kind, bounds ``rank_of``."""
        from repro.sets import SetOptimizer
        from repro.storage import Relation, Trie
        keys = np.asarray([[5], [4000000000]], dtype=np.uint32)
        trie = Trie(Relation("U", keys),
                    optimizer=SetOptimizer("bitset_only"))
        assert trie.root.set.kind == "bitset"
        assert trie.flat().rank_of is None


# -- (e') child levels: per-row generators and bit-table probes ---------------


def spread_pairs(scale=1, shift=0, n=24, seed=11):
    """A symmetric graph on ``n`` nodes — a hub adjacent to all, random
    chords — with node ``v`` coded ``v * scale + shift``: every pair
    level's inverse density grows with ``scale ** 2``."""
    rng = np.random.default_rng(seed)
    pairs = {(0, v) for v in range(1, n)}
    pairs |= {(int(a), int(b)) for a, b in rng.integers(1, n, (2 * n, 2))
              if a != b}
    pairs |= {(b, a) for a, b in pairs}
    return sorted((a * scale + shift, b * scale + shift) for a, b in pairs)


def inverse_density(pairs):
    """Codes per stored pair of the pair table's code space."""
    parents = [p for p, _ in pairs]
    rows = max(parents) - min(parents) + 1
    return rows * (max(c for _, c in pairs) + 2) / len(pairs)


def pair_trie(name, pairs, weighted=False, level="set", threshold=None):
    from repro.sets import SetOptimizer
    from repro.storage import Relation, Trie
    data = np.asarray(pairs, dtype=np.uint32)
    return Trie(Relation(name, data, dyadic(data, len(name))
                         if weighted else None),
                optimizer=SetOptimizer(level, density_threshold=threshold))


def pair_route(trie):
    """What the kernel asked of ``trie``'s pair level: a bit ``table``,
    ``none`` (asked; the level is sparse or not a bitset under the
    trie's optimizer) or nothing (``unasked``: it generated, or was
    probed for leaf rows by the packed search)."""
    pairs = trie.flat()._pairs
    return "unasked" if pairs is None else \
        "none" if pairs is False else "table"


def triangle(closing_y, closing_x, edge=None):
    """Atoms of ``Agg(x) :- E(x,y),B(y,z),C(x,z)``, each trie given as
    ``(name, trie, annotated)``; ``E`` defaults to ``closing_y``."""
    edge = edge or closing_y
    return [(name, variables, trie, annotated)
            for (name, trie, annotated), variables in
            zip((edge, closing_y, closing_x),
                (("x", "y"), ("y", "z"), ("x", "z")))]


def self_triangle(trie, annotated=False):
    return triangle((trie.name, trie, annotated),
                    (trie.name, trie, annotated))


def past_width():
    """``G`` lists two ``z`` up to 59 per ``y``, ``F`` sixteen below 24
    per ``x``: ``G`` generates and most of its values lie past ``F``'s
    table width, so they clamp to its empty column."""
    edge = pair_trie("E", spread_pairs())
    narrow = pair_trie("F", [(x, z) for x in range(24) for z in range(24)
                             if (x + z) % 3])
    far = pair_trie("G", sorted({(y, (7 * y + k * 29) % 60)
                                 for y in range(24) for k in (0, 1)}))
    return (triangle(("G", far, False), ("F", narrow, False),
                     edge=("E", edge, False)),
            {"E": "unasked", "G": "unasked", "F": "table"})


def at_threshold(factor):
    pairs = spread_pairs(scale=3)
    trie = pair_trie("E", pairs, threshold=inverse_density(pairs) * factor)
    return self_triangle(trie), {"E": "table" if factor > 1 else "none"}


#: Bag shapes whose closing level ``z`` probes pair levels, and what
#: each trie's pair level was asked for.
CHILD_SHAPES = {
    "dense": lambda: (self_triangle(pair_trie("E", spread_pairs())),
                      {"E": "table"}),
    "sparse": lambda: (self_triangle(pair_trie("E", spread_pairs(40))),
                       {"E": "none"}),
    "k0": lambda: (self_triangle(pair_trie("E", spread_pairs(shift=300))),
                   {"E": "table"}),
    "past-width": past_width,
    "below-threshold": lambda: at_threshold(0.99),
    "above-threshold": lambda: at_threshold(1.01),
    # An annotated input needs its leaf row: it searches the packed
    # pairs whether or not the level is dense.
    "annotated": lambda: (triangle(
        ("E", pair_trie("E", spread_pairs()), False),
        ("W", pair_trie("W", spread_pairs(), weighted=True), True)),
        {"E": "unasked", "W": "unasked"}),
    "annotated-per-row": lambda: (self_triangle(
        pair_trie("W", spread_pairs(), weighted=True), annotated=True),
        {"W": "unasked"}),
    "bitset_only-dense": lambda: (self_triangle(pair_trie(
        "E", spread_pairs(), level="bitset_only")), {"E": "table"}),
    "bitset_only-sparse": lambda: (self_triangle(pair_trie(
        "E", spread_pairs(40), level="bitset_only")), {"E": "none"}),
    "uint_only-dense": lambda: (self_triangle(pair_trie(
        "E", spread_pairs(), level="uint_only")), {"E": "none"}),
}


@pytest.mark.parametrize("shape", sorted(CHILD_SHAPES))
@pytest.mark.parametrize("name", FUSED_SEMIRINGS)
class TestChildLevelProbes:
    """``Agg(x) :- E(x,y),B(y,z),C(x,z)``: its closing level probes
    ``B`` and ``C`` by a gather from the view's bit table or by a
    search of its packed pairs — decided by the layout optimizer's
    density rule and by whether the input is annotated — and, when
    both read one view, expands each row from the smaller list.  Every
    route equals the interpreter bit for bit at every block size."""

    def test_kernel_equals_interpreter(self, name, shape):
        from repro.engine import EngineConfig
        from repro.engine.generic_join import BagInput
        atoms, routes = CHILD_SHAPES[shape]()
        tries = [trie for _, _, trie, _ in atoms]
        specs = [InputSpec(n, v, annotated=a) for n, v, _, a in atoms]
        inputs = [BagInput(trie, v, annotated=a, name=n)
                  for n, v, trie, a in atoms]
        semiring = semiring_for(name)
        config = EngineConfig(execution_mode="compiled")
        order = ("x", "y", "z")
        expected = BagEvaluator(order, 1, inputs, semiring, config).run()
        assert expected.cardinality
        kernel = generate_bag_plan(order, 1, specs, semiring)
        for rows in (1, 7, None):
            got = kernel(tries, config if rows is None
                         else blocked(config, rows))
            assert np.array_equal(got.data, expected.data)
            assert np.array_equal(got.annotations, expected.annotations)
        assert {n: pair_route(trie) for n, _, trie, _ in atoms} == routes
        if shape == "k0":
            assert tries[0].flat().keys[0] == 300


class TestPerRowGenerator:
    """The min rule per frontier row, as a work bound: on one hub
    joined to ``LEAVES`` leaves plus a small clique through the hub,
    every level charges exactly the sum over its frontier rows of the
    smallest child list, where the smaller *summed* side — the rule
    applied per level — expands the hub's list once per leaf."""

    LEAVES, CLIQUE = 200, 5

    def graph(self):
        clique = [0] + list(range(self.LEAVES + 1,
                                  self.LEAVES + self.CLIQUE))
        return [(0, leaf) for leaf in range(1, self.LEAVES + 1)] \
            + [(a, b) for i, a in enumerate(clique) for b in clique[i + 1:]]

    @staticmethod
    def per_row_bound(adjacency, k):
        """Elements charged per level when every row expands its
        smallest list, found set-at-a-time; and the per-level rule's
        cheapest side at the last level."""
        keys = sorted(adjacency)
        charged, frontier = [len(keys)], [(x,) for x in keys]
        for level in range(1, k):
            fanouts = [[len(adjacency[v]) for v in row] for row in frontier]
            charged.append(sum(min(row) for row in fanouts))
            summed = min(map(sum, zip(*fanouts)))
            frontier = [row + (value,) for row in frontier
                        for value in sorted(set.intersection(
                            *(adjacency[v] for v in row)))
                        if level == k - 1 or value in adjacency]
        return charged, summed

    @pytest.mark.parametrize("k", [3, 4], ids=["triangle", "4-clique"])
    def test_each_row_expands_its_smallest_list(self, k, monkeypatch):
        db = kernel_db()
        db.load_graph("Edge", self.graph())
        order = ("x", "y", "z", "u")[:k]
        specs, tries, inputs = bag_inputs(db, clique_atoms(order))
        kernel = generate_bag_plan(order, 0, specs, COUNT)
        adjacency = {}
        for src, dst in db.catalog["Edge"].data.tolist():
            adjacency.setdefault(src, set()).add(dst)
        expected, summed = self.per_row_bound(adjacency, k)
        charged = []
        charge = db.counter.charge

        def recorded(algorithm, **work):
            charged.append((algorithm, work["elements"]))
            return charge(algorithm, **work)
        monkeypatch.setattr(db.counter, "charge", recorded)
        got = kernel(tries, db.config).scalar
        assert charged == [("fused_block", count) for count in expected]
        assert got == evaluate_bag(order, 0, inputs, COUNT,
                                   db.config).scalar > 0
        if k == 3:
            # the hub's rows: the leaf's one neighbour, not its 204
            assert 20 * expected[-1] < summed


# -- (f) delta-first orders: the unordered group-by ---------------------------


def ordered_bag(atoms, order):
    """``(specs, tries, inputs)`` of one bag under ``order``: every
    ``(name, variables, data, weights)`` atom keyed by the order's
    restriction to its variables."""
    from repro.engine.generic_join import BagInput
    from repro.storage import Relation, Trie
    specs, tries, inputs = [], [], []
    for name, variables, data, weights in atoms:
        ordered = tuple(a for a in order if a in variables)
        trie = Trie(Relation(name, np.asarray(data, dtype=np.uint32),
                             weights),
                    key_order=tuple(variables.index(a) for a in ordered))
        annotated = weights is not None
        specs.append(InputSpec(name, ordered, annotated=annotated))
        tries.append(trie)
        inputs.append(BagInput(trie, ordered, annotated=annotated,
                               name=name))
    return specs, tries, inputs


def rows_of(result):
    """``{output binding (by attribute name): annotation}``."""
    attrs = sorted(result.out_attrs)
    columns = [result.data[:, result.out_attrs.index(a)].tolist()
               for a in attrs]
    return dict(zip(zip(*columns), result.annotations.tolist()))


def dyadic(keys, salt):
    """Exact-in-float weights in [-2, 2] that vary with the row."""
    keys = np.asarray(keys, dtype=np.int64).reshape(len(keys), -1)
    return ((keys.sum(axis=1) * 7 + salt) % 17 - 8) / 4.0


@pytest.mark.parametrize("name", fused.IDEMPOTENT_FOLDS)
class TestDeltaFirst:
    """A seminaive round orders a bag delta-first, so its outputs are
    not a prefix of the order and the last level groups an unordered
    stream of bindings.  Whatever route the group-by takes — a dense
    scatter, packed or lexicographic sorts — and however the level is
    cut into blocks, the rows must be the interpreter's under the
    output-first order, annotations bit for bit (negative weights
    included: the fold ranges over the suffix products only, and the
    output tuple's own weight multiplies the folded value)."""

    #: scale 1 keeps codes dense; 60 000 001 pushes a column pair past
    #: 2^32 codes and a column triple past 2^63
    SCALES = {"dense": 1, "sorted": 60000001}

    def check(self, name, atoms, out, delta, scale):
        from repro.engine import EngineConfig
        from repro.ghd.attribute_order import bag_evaluation_order
        atoms = [(n, v, np.asarray(d, dtype=np.int64) * scale, w)
                 for n, v, d, w in atoms]
        chi = []
        for _, variables, _, _ in atoms:
            chi.extend(v for v in variables if v not in chi)
        semiring = semiring_for(name)
        config = EngineConfig(execution_mode="compiled")
        out_first = bag_evaluation_order(chi, out, chi)
        _, _, inputs = ordered_bag(atoms, out_first)
        expected = BagEvaluator(out_first, len(out), inputs, semiring,
                                config).run()
        delta_first = bag_evaluation_order(chi, out, chi, delta)
        assert delta_first[:len(out)] != out_first[:len(out)]
        specs, tries, _ = ordered_bag(atoms, delta_first)
        kernel = generate_bag_plan(delta_first, len(out), specs, semiring,
                                   out_attrs=out)
        assert kernel.unordered
        for rows in (1, 7, None):
            got = kernel(tries, config if rows is None
                         else blocked(config, rows))
            assert got.out_attrs == tuple(a for a in delta_first
                                          if a in out)
            assert rows_of(got) == rows_of(expected)
            # canonical rows: lexicographically increasing
            listed = list(map(tuple, got.data.tolist()))
            assert listed == sorted(set(listed))
        return expected.cardinality

    EDGES = [(w, x) for w in range(12) for x in range(12)
             if (w * 5 + x * 3) % 4 == 0 and w != x]
    REACHED = [(w,) for w in (0, 2, 3, 7, 11)]

    @pytest.mark.parametrize("route", sorted(SCALES))
    @pytest.mark.parametrize("weighted_edges", [False, True])
    @pytest.mark.parametrize("with_v", [False, True])
    def test_unary_head(self, name, route, weighted_edges, with_v):
        """``S(x) :- E(w,x),S(w)[,V(x)]`` as ``[w, x]``."""
        atoms = [("E", ("w", "x"), self.EDGES,
                  dyadic(self.EDGES, 1) if weighted_edges else None),
                 ("S", ("w",), self.REACHED, dyadic(self.REACHED, 2))]
        if with_v:
            keys = [(x,) for x in range(1, 11)]
            atoms.append(("V", ("x",), keys, dyadic(keys, 3)))
        assert self.check(name, atoms, ("x",), ("w",), self.SCALES[route])

    @pytest.mark.parametrize("route", sorted(SCALES))
    def test_plain_inputs_and_empty_results(self, name, route):
        """Without a weight anywhere the fold is of a constant 1; a
        ``V`` that no reached ``x`` is in leaves nothing to group."""
        atoms = [("E", ("w", "x"), self.EDGES, None),
                 ("S", ("w",), self.REACHED, None)]
        assert self.check(name, atoms, ("x",), ("w",), self.SCALES[route])
        atoms.append(("V", ("x",), [(40,), (41,)], None))
        assert not self.check(name, atoms, ("x",), ("w",),
                              self.SCALES[route])

    @pytest.mark.parametrize("route", sorted(SCALES))
    def test_binary_head(self, name, route):
        """``D(x,y) :- E(x,z),D(z,y),F(x,y)`` as ``[z, y, x]``: ``F``
        ranges over outputs only, so it weighs the tuple, not the
        fold."""
        paths = [(z, y) for z in (1, 4, 6, 9) for y in range(0, 12, 3)]
        pairs = [(x, y) for x in range(12) for y in range(0, 12, 3)
                 if (x + y) % 5]
        atoms = [("E", ("x", "z"), self.EDGES, dyadic(self.EDGES, 4)),
                 ("D", ("z", "y"), paths, dyadic(paths, 5)),
                 ("F", ("x", "y"), pairs, dyadic(pairs, 6))]
        assert self.check(name, atoms, ("x", "y"), ("z", "y"),
                          self.SCALES[route])

    @pytest.mark.parametrize("route", sorted(SCALES))
    def test_three_output_columns(self, name, route):
        """``T(a,b,c) :- A(d,a),B(d,b),C(d,c),S(d)`` as
        ``[d, a, b, c]``; at the large scale the code space overflows
        63 bits and the rows sort lexicographically."""
        spokes = [(d, v) for d in range(6) for v in range(5)
                  if (d + v) % 3]
        seeds = [(d,) for d in (0, 2, 3, 5)]
        atoms = [("A", ("d", "a"), spokes, dyadic(spokes, 7)),
                 ("B", ("d", "b"), spokes, None),
                 ("C", ("d", "c"), spokes, dyadic(spokes, 8)),
                 ("S", ("d",), seeds, dyadic(seeds, 9))]
        assert self.check(name, atoms, ("a", "b", "c"), ("d",),
                          self.SCALES[route])

    def test_group_by_routes(self, name):
        """The scales above do take the routes they are named for."""
        for scale, bounds, coded in [(1, [12], True),
                                     (60000001, [12 * 60000001] * 2, True),
                                     (60000001, [5 * 60000001] * 3,
                                      False)]:
            columns = [np.arange(3, dtype=np.uint32) * scale] * len(bounds)
            assert (fused._codes(columns, bounds) is not None) == coded
        assert 12 <= fused.DENSE_GROUPS < (12 * 60000001) ** 2

    def test_sum_cannot_group_unordered(self, name):
        specs = [InputSpec("E", ("w", "x")),
                 InputSpec("S", ("w",), annotated=True)]
        for order_sensitive in ("SUM", "COUNT"):
            with pytest.raises(fused.PlanError, match="unordered"):
                generate_bag_plan(("w", "x"), 1, specs,
                                  semiring_for(order_sensitive),
                                  out_attrs=("x",))
        assert not generate_bag_plan(("w", "x"), 1, specs,
                                     semiring_for(name)).unordered


# -- (g) what the data states is not re-derived -------------------------------


def routes_bag(roots, shift=0, weighted=False, out=1):
    """``Agg(x) :- B(x,z),U1(z),U2(z)`` over a directed graph on the
    codes ``shift .. shift + 199``: every node below 160 has out-edges
    (``B``'s root is that whole range), node ``50`` is a hub with 150 of
    them — more than a 64-row block — and the nodes from 160 up are
    sinks.  ``roots`` names the key sets of the annotated unary inputs.
    Returns ``(order, specs, tries, inputs)`` with ``out`` outputs."""
    pairs = {(x, (x * 7 + k * 13) % 200)
             for x in range(160) for k in range(1 + x % 5)}
    pairs |= {(50, z) for z in range(20, 170)}
    pairs = sorted((x + shift, z + shift) for x, z in pairs)
    keys = {"all": range(shift, shift + 200),
            "wide": range(max(shift - 3, 0), shift + 260),
            "sources": range(shift, shift + 160),     # InvDeg: no sinks
            "holed": [v + shift for v in range(200) if v % 7],
            "sparse": [v * 9001 + shift for v in range(200)]
            + [z for _, z in pairs[::3]],
            "none": []}
    atoms = [("B", ("x", "z"), pairs,
              dyadic(pairs, 1) if weighted else None)]
    for name, which in zip(("U1", "U2"), roots):
        rows = [(v,) for v in sorted(set(keys[which]))]
        atoms.append((name, ("z",), np.asarray(rows, dtype=np.uint32)
                      .reshape(-1, 1), dyadic(rows, len(name))
                      if rows else np.empty(0)))
    return (("x", "z"),) + ordered_bag(atoms, ("x", "z"))


class RouteSpy:
    """Counts what a kernel call derived instead of reading: per-block
    probes and parent-row expansions."""

    def __init__(self, monkeypatch):
        self.probes = self.parents = 0
        probe, parents = fused._probe, fused._parents

        def counted_probe(*args, **kwargs):
            self.probes += 1
            return probe(*args, **kwargs)

        def counted_parents(*args):
            self.parents += 1
            return parents(*args)
        monkeypatch.setattr(fused, "_probe", counted_probe)
        monkeypatch.setattr(fused, "_parents", counted_parents)


BLOCK_ROWS = (1, 7, 64, None)


def level0_blocks(keys):
    """Blocks a level-0 frontier of ``keys`` values is cut into, summed
    over :data:`BLOCK_ROWS` — each builds its parent rows, as every
    non-leaf block must."""
    return sum(-(-keys // (rows or keys)) for rows in BLOCK_ROWS)


def assert_same_bag(kernel, tries, expected, config, restrict=None):
    """The kernel's answer at every block size is ``expected`` bit for
    bit: rows, annotations and (for ``out = 0``) the scalar's type."""
    for rows in BLOCK_ROWS:
        got = kernel(tries, config if rows is None
                     else blocked(config, rows), restrict)
        assert np.array_equal(got.data, expected.data)
        if expected.annotations is None:
            assert got.annotations is None
        else:
            assert np.array_equal(got.annotations, expected.annotations)
        assert got.scalar == expected.scalar
        assert type(got.scalar) is type(expected.scalar)


@pytest.mark.parametrize("name", FUSED_SEMIRINGS)
class TestDataDrivenRoutes:
    """Abutting CSR runs are read as slices, blocks build their parent
    rows only for a reader, and a full-range root that covers the
    generator's values is neither probed nor masked — each decided
    from the data, each bit-identical to the interpreter at every
    block size."""

    def run(self, name, roots, out=1, restrict=None, **graph):
        from repro.engine import EngineConfig
        order, specs, tries, inputs = routes_bag(roots, **graph)
        semiring = semiring_for(name)
        config = EngineConfig(execution_mode="compiled")
        expected = BagEvaluator(order, out, inputs, semiring, config,
                                restrict_level0=restrict).run()
        kernel = generate_bag_plan(order, out, specs, semiring)
        assert_same_bag(kernel, tries, expected, config, restrict)
        return expected, tries

    @pytest.mark.parametrize("weighted", [False, True],
                             ids=["", "weighted"])
    @pytest.mark.parametrize("shift", [0, 11])
    def test_covering_roots_are_read_not_probed(self, name, shift,
                                                weighted, monkeypatch):
        """PageRank's round: the hub row is split across blocks, a
        weighted ``B`` multiplies through an annotation *view*, the
        roots start at ``k0 = shift``."""
        spy = RouteSpy(monkeypatch)
        expected, tries = self.run(name, ("all", "wide"), shift=shift,
                                   weighted=weighted)
        assert expected.cardinality == 160
        assert [probe_route(trie) for trie in tries] == ["full"] * 3
        assert all(trie.flat()._rank_of is None for trie in tries)
        # nothing probed, and no parent rows below level 0
        assert spy.probes == 0 and spy.parents == level0_blocks(160)

    def test_a_root_that_misses_values_filters_again(self, name,
                                                     monkeypatch):
        """``InvDeg`` of a directed graph lacks the sinks: a full-range
        root that does not cover what ``B`` can produce must mask."""
        spy = RouteSpy(monkeypatch)
        covered, _ = self.run(name, ("all", "all"), shift=11)
        assert spy.probes == 0
        expected, tries = self.run(name, ("all", "sources"), shift=11)
        assert probe_route(tries[2]) == "full"
        assert spy.probes > 0 and spy.parents > 2 * level0_blocks(160)
        if name in ("SUM", "COUNT"):
            assert not np.array_equal(expected.annotations,
                                      covered.annotations)

    def test_table_and_search_in_one_bag(self, name):
        expected, tries = self.run(name, ("holed", "sparse"))
        assert [probe_route(trie) for trie in tries[1:]] \
            == ["table", "search"]
        assert expected.cardinality

    @pytest.mark.parametrize("morsel", ["run", "strided"])
    def test_restricted_morsels(self, name, morsel, monkeypatch):
        """A contiguous morsel's runs abut but start past offset 0 (and
        hold the hub); a strided one's do not abut at all."""
        spy = RouteSpy(monkeypatch)
        keys = np.arange(51, 131, dtype=np.uint32) if morsel == "run" \
            else np.arange(11, 171, 3, dtype=np.uint32)
        expected, _ = self.run(name, ("all", "wide"), shift=11,
                               restrict=UintSet.from_sorted(keys))
        assert expected.cardinality == keys.size
        assert (spy.parents == level0_blocks(keys.size)) \
            == (morsel == "run")

    @pytest.mark.parametrize("out", [0, 2])
    def test_scalar_and_materializing_bags(self, name, out):
        for roots in (("all", "wide"), ("all", "sources"),
                      ("holed", "sparse")):
            self.run(name, roots, out=out, shift=11)

    def test_empty_input_and_empty_result(self, name):
        expected, _ = self.run(name, ("all", "none"))
        assert expected.cardinality == 0
        # keys far from every z value: all inputs non-empty, no match
        order, specs, tries, inputs = routes_bag(("all", "sparse"))
        far = np.asarray([[900000], [900001]], dtype=np.uint32)
        from repro.engine import EngineConfig
        from repro.engine.generic_join import BagInput
        from repro.storage import Relation, Trie
        tries[2] = Trie(Relation("U2", far, np.ones(2)))
        inputs[2] = BagInput(tries[2], ("z",), annotated=True, name="U2")
        semiring = semiring_for(name)
        config = EngineConfig(execution_mode="compiled")
        expected = BagEvaluator(order, 1, inputs, semiring, config).run()
        assert expected.cardinality == 0
        assert_same_bag(generate_bag_plan(order, 1, specs, semiring),
                        tries, expected, config)


class TestPageRankIsBitStable:
    """The analytics program end to end: floats equal — not close — to
    the values of the commit before the routes above existed, for the
    same simulated work."""

    #: ``undirected -> (ranked nodes, sha256 of their ranks as
    #: little-endian float64 in node order, a few ranks spelled out,
    #: counter.total_ops)``, measured at the parent commit (PR 19).
    #: Directed, ``InvDeg`` lacks the sinks and the round filters;
    #: undirected, its full-range root covers every neighbour.
    PINNED = {
        True: (1932, "08c360e61d98d883f6081d9ca02c5247"
                     "f5132282c3e12310e850f7b912837ffa",
               {0: 38.54166711363489, 1: 23.113134463892973,
                966: 0.3876192771899827, 1999: 0.18459484948377916},
               29898),
        False: (182, "cf892c027681eedd2c41e347acfe06cc"
                     "dfee0f766a8db4e9a62cecbfbd4ad1a9",
                {0: 4.684887731436106, 1: 4.008172473972671,
                 93: 0.271559575959498, 414: 0.3105826125735961},
                14880),
    }

    @pytest.mark.parametrize("undirected", [True, False],
                             ids=["undirected", "directed"])
    def test_ranks_and_work_are_the_parents(self, undirected):
        import hashlib
        from repro.graphs.analytics import pagerank_program
        count, digest, spelled, total_ops = self.PINNED[undirected]
        edges = [tuple(e) for e in chung_lu_graph(2000, 9000,
                                                  exponent=2.1, seed=5)]
        db = kernel_db()
        db.load_graph("Edge", edges, undirected=undirected)
        ranks = db.query(pagerank_program(iterations=5)).to_dict()
        nodes = sorted(ranks)
        assert len(nodes) == count
        assert {node: ranks[node] for node in spelled} == spelled
        packed = np.asarray([ranks[node] for node in nodes],
                            dtype="<f8").tobytes()
        assert hashlib.sha256(packed).hexdigest() == digest
        assert db.counter.total_ops == total_ops
        assert db.last_stats.fused_fallbacks == 0
