"""Unit tests for naive and seminaive recursion (paper §3.3.2)."""

import numpy as np
import pytest

from repro import Database
from repro.engine import EngineConfig, execute_recursive
from repro.engine import fused
from repro.engine.oracle import executor_for
from repro.errors import PlanError
from repro.query import parse_rule
from repro.storage import Relation


def executor_with(catalog):
    return executor_for(catalog, EngineConfig())


class TestNaiveUnion:
    def test_transitive_closure_chain(self):
        db = Database(ordering="identity")
        db.load_graph("Edge", [(0, 1), (1, 2), (2, 3)], undirected=False)
        result = db.query("""
            Path(x,y) :- Edge(x,y).
            Path(x,y)* :- Edge(x,z),Path(z,y).
        """)
        assert set(result.tuples()) == {(0, 1), (1, 2), (2, 3), (0, 2),
                                        (1, 3), (0, 3)}

    def test_cycle_terminates(self):
        db = Database(ordering="identity")
        db.load_graph("Edge", [(0, 1), (1, 2), (2, 0)], undirected=False)
        result = db.query("""
            Path(x,y) :- Edge(x,y).
            Path(x,y)* :- Edge(x,z),Path(z,y).
        """)
        assert len(result.tuples()) == 9  # full reachability on a 3-cycle

    def test_missing_base_case(self):
        catalog = {"Edge": Relation("Edge",
                                    np.asarray([[0, 1]], dtype=np.uint32))}
        rule = parse_rule("Path(x,y)* :- Edge(x,z),Path(z,y).")
        with pytest.raises(PlanError):
            execute_recursive(rule, executor_with(catalog))


class TestNaiveReplace:
    def test_fixed_iterations_replace_semantics(self):
        """A bounded recursion recomputes the head each round; here each
        round doubles the annotation: after 3 rounds 1 -> 8."""
        db = Database(ordering="identity")
        db.load_graph("Edge", [(0, 0)], undirected=False)
        db.query("V(x;a:float) :- Edge(x,x); a=1.")
        result = db.query(
            "V(x;a:float)*[i=3] :- Edge(x,z),V(z); a=2*<<SUM(z)>>.")
        assert result.to_dict() == {0: 8.0}

    def test_pagerank_shape(self, small_db):
        from repro.graphs import pagerank
        ranks = pagerank(small_db)
        assert all(r > 0.14 for r in ranks.values())
        # un-normalized paper formulation: values average near 1
        mean = sum(ranks.values()) / len(ranks)
        assert 0.5 < mean < 1.5


class TestSeminaive:
    def test_sssp_distances_match_dijkstra(self, small_edges):
        import numpy as np
        from repro.baselines import dijkstra_reference
        from repro.graphs import (highest_degree_node, run_sssp_on_edges,
                                  undirect)
        und = undirect(np.asarray(small_edges))
        source = highest_degree_node(und)
        got = run_sssp_on_edges(small_edges, source)
        expected = dijkstra_reference(und, source,
                                      n_nodes=int(und.max()) + 1)
        assert got == expected

    def test_seminaive_equals_naive_fixpoint(self):
        """DESIGN.md invariant: seminaive ≡ naive on monotone rules."""
        edges = [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)]
        db = Database(ordering="identity")
        db.load_graph("Edge", edges, undirected=True)
        seminaive = db.query("""
            S(x;y:int) :- Edge(0,x); y=1.
            S(x;y:int)* :- Edge(w,x),S(w); y=<<MIN(w)>>+1.
        """).to_dict()
        # Naive variant: bounded iterations well past the diameter.
        db2 = Database(ordering="identity")
        db2.load_graph("Edge", edges, undirected=True)
        db2.query("T(x;y:int) :- Edge(0,x); y=1.")
        for _ in range(8):
            db2.query(
                "T2(x;y:int) :- Edge(w,x),T(w); y=<<MIN(w)>>+1.")
            merged = {}
            for key, value in db2.query("T(x;y:int) :- Edge(0,x); y=1.") \
                    .to_dict().items():
                merged[key] = value
            for key, value in db2.query(
                    "T2b(x;y:int) :- Edge(w,x),T(w); "
                    "y=<<MIN(w)>>+1.").to_dict().items():
                merged[key] = min(merged.get(key, float("inf")), value)
            rows = sorted(merged.items())
            relation = Relation(
                "T", np.asarray([[k] for k, _ in rows], dtype=np.uint32),
                np.asarray([v for _, v in rows]))
            relation.dictionaries = db2.relation("T").dictionaries
            db2.catalog["T"] = relation
        naive = {k: v for k, v in zip(
            (r[0] for r in db2.relation("T").decoded_tuples()),
            db2.relation("T").annotations)}
        assert seminaive == naive

    def test_non_monotone_unbounded_recursion_rejected(self):
        db = Database(ordering="identity")
        db.load_graph("Edge", [(0, 1)], undirected=True)
        db.query("A(x;y:float) :- Edge(0,x); y=1.")
        with pytest.raises(PlanError):
            db.query("A(x;y:float)* :- Edge(w,x),A(w); y=<<SUM(w)>>.")

    def test_delta_shrinks_work(self):
        """Seminaive on a long path must converge (each round's delta is
        the new frontier, not the whole relation)."""
        chain = [(i, i + 1) for i in range(60)]
        db = Database(ordering="identity")
        db.load_graph("Edge", chain, undirected=True)
        distances = db.query("""
            S(x;y:int) :- Edge(0,x); y=1.
            S(x;y:int)* :- Edge(w,x),S(w); y=<<MIN(w)>>+1.
        """).to_dict()
        assert distances[60] == 60
        assert distances[1] == 1
        assert distances[0] == 2  # back through node 1, paper semantics


class TestRecursionAcrossModes:
    """Recursion parity under the compiled pipeline, its block sizes,
    the interpreter's layout ablations and the optimizer toggles —
    combinations the per-mode suites above never cross.  Every variant
    must reproduce the interpreter's fixpoint."""

    MODES = {
        "compiled": dict(execution_mode="compiled"),
        "compiled-rows-1": dict(execution_mode="compiled"),
        "compiled-rows-7": dict(execution_mode="compiled"),
        "interpreted-uint-only": dict(execution_mode="interpreted",
                                      layout_level="uint_only",
                                      adaptive_algorithms=False),
        "interpreted-bitset": dict(execution_mode="interpreted",
                                   layout_level="bitset_only"),
        "no-optimizer": dict(prune_attributes=False, fold_constants=False,
                             eliminate_redundant_bags=False,
                             push_selections=False, skip_top_down=False),
        "no-ghd": dict(use_ghd=False),
    }
    #: Kernel block rows of the modes that cut small blocks.
    BLOCK_ROWS = {"compiled-rows-1": 1, "compiled-rows-7": 7}

    EDGES = [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (4, 0), (2, 5)]

    CLOSURE = """
        Path(x,y) :- Edge(x,y).
        Path(x,y)* :- Edge(x,z),Path(z,y).
    """

    SSSP = """
        S(x;y:int) :- Edge(0,x); y=1.
        S(x;y:int)* :- Edge(w,x),S(w); y=<<MIN(w)>>+1.
    """

    REPLACE_BASE = "V(x;a:float) :- Edge(x,x); a=1."
    REPLACE = "V(x;a:float)*[i=3] :- Edge(x,z),V(z); a=2*<<SUM(z)>>."

    def _db(self, **overrides):
        db = Database(ordering="identity", **overrides)
        db.load_graph("Edge", self.EDGES, undirected=True)
        return db

    @pytest.fixture(params=sorted(MODES), name="mode")
    def _mode(self, request, monkeypatch):
        if request.param in self.BLOCK_ROWS:
            monkeypatch.setattr(fused, "BLOCK_ROWS",
                                self.BLOCK_ROWS[request.param])
        return request.param

    def test_union_fixpoint_parity(self, mode):
        expected = set(self._db(execution_mode="interpreted")
                       .query(self.CLOSURE).tuples())
        got = set(self._db(**self.MODES[mode]).query(self.CLOSURE)
                  .tuples())
        assert got == expected

    def test_monotone_seminaive_parity(self, mode):
        expected = self._db(execution_mode="interpreted") \
            .query(self.SSSP).to_dict()
        got = self._db(**self.MODES[mode]).query(self.SSSP).to_dict()
        assert got == expected

    def test_bounded_replace_parity(self, mode):
        loop_edges = [(0, 0), (0, 1), (1, 1)]
        baseline = Database(ordering="identity",
                            execution_mode="interpreted")
        baseline.load_graph("Edge", loop_edges, undirected=False)
        baseline.query(self.REPLACE_BASE)
        expected = baseline.query(self.REPLACE).to_dict()
        db = Database(ordering="identity", **self.MODES[mode])
        db.load_graph("Edge", loop_edges, undirected=False)
        db.query(self.REPLACE_BASE)
        assert db.query(self.REPLACE).to_dict() == expected


class TestRoundsRetireTheirTries:
    """Every round installs a new head relation object; its tries are
    cached under that object's uid, so the round that replaces it must
    retire them or the cache grows by a few tries per round forever."""

    CLOSURE = ("Path(x,y) :- Edge(x,y). "
               "Path(x,y)* :- Edge(x,z),Path(z,y).")

    @staticmethod
    def steady_state(program, execution_mode="compiled", **overrides):
        """Trie cache size after each of 10 runs."""
        from repro.graphs import uniform_graph
        db = Database(execution_mode=execution_mode, **overrides)
        db.load_graph("Edge", [tuple(e) for e
                               in uniform_graph(60, 200, seed=1)])
        sizes = []
        for _ in range(10):
            db.query(program)
            sizes.append(len(db._trie_cache))
        return sizes

    def test_pagerank_cache_is_steady(self):
        from repro.graphs import pagerank_program
        sizes = self.steady_state(pagerank_program(iterations=4))
        assert sizes[1] == sizes[9]

    def test_sssp_cache_is_steady(self):
        from repro.graphs import sssp_program
        sizes = self.steady_state(sssp_program(0))
        assert sizes[1] == sizes[9]

    @pytest.mark.parametrize("mode", ["compiled", "interpreted"])
    def test_union_fixpoint_cache_is_steady(self, mode):
        sizes = self.steady_state(self.CLOSURE, execution_mode=mode)
        assert sizes[1] == sizes[9]

    def test_interpreted_selection_tries_die_with_their_run(self):
        """The oracle re-plans per run and re-derives the SSSP base
        rule's ``Edge(0,x)`` selection each time; its trie must not
        outlive the run that cut it."""
        from repro.graphs import sssp_program
        sizes = self.steady_state(sssp_program(0),
                                  execution_mode="interpreted")
        assert sizes[1] == sizes[9]


def brute_force_fixpoint(base, step, better):
    """Naive fixpoint with Python dicts: ``step(best)`` is one round's
    ``{key: value}`` over the whole accumulated relation."""
    best = dict(base)
    while True:
        changed = False
        for key, value in step(best).items():
            if key not in best or better(value, best[key]):
                best[key] = value
                changed = True
        if not changed:
            return best


@pytest.mark.parametrize("mode", ["compiled", "interpreted"])
class TestArraySeminaive:
    """The driver keeps ``best`` and ``delta`` as sorted arrays; its
    fixpoint must be the dict-based naive one for MIN and MAX, unary
    and binary heads, ties, and nodes no round ever reaches."""

    #: Two routes of equal length to 3 (ties), a long tail, and a
    #: component {7, 8} unreachable from 0.
    GRAPH = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6),
             (7, 8)]
    #: A DAG with short and long routes to the same node.
    DAG = [(0, 1), (0, 2), (1, 2), (2, 3), (0, 3), (3, 4), (1, 4),
           (6, 7)]

    def db(self, mode, edges, undirected):
        db = Database(ordering="identity", execution_mode=mode)
        db.load_graph("Edge", edges, undirected=undirected)
        return db

    @staticmethod
    def arcs(edges, undirected):
        return set(edges) | ({(b, a) for a, b in edges} if undirected
                             else set())

    def test_min_unary_head(self, mode):
        got = self.db(mode, self.GRAPH, True).query("""
            S(x;y:int) :- Edge(0,x); y=1.
            S(x;y:int)* :- Edge(w,x),S(w); y=<<MIN(w)>>+1.
        """).to_dict()
        arcs = self.arcs(self.GRAPH, True)

        def step(best):
            out = {}
            for w, x in arcs:
                if w in best:
                    out[x] = min(out.get(x, np.inf), best[w] + 1)
            return out
        expected = brute_force_fixpoint(
            {x: 1.0 for w, x in arcs if w == 0}, step,
            lambda new, old: new < old)
        assert got == expected
        assert 7 not in got and 8 not in got and got[3] == 2.0

    def test_max_unary_head(self, mode):
        got = self.db(mode, self.DAG, False).query("""
            L(x;y:int) :- Edge(0,x); y=1.
            L(x;y:int)* :- Edge(w,x),L(w); y=<<MAX(w)>>+1.
        """).to_dict()

        def step(best):
            out = {}
            for w, x in self.DAG:
                if w in best:
                    out[x] = max(out.get(x, -np.inf), best[w] + 1)
            return out
        expected = brute_force_fixpoint(
            {x: 1.0 for w, x in self.DAG if w == 0}, step,
            lambda new, old: new > old)
        assert got == expected
        assert got[4] == 4.0 and 7 not in got

    @pytest.mark.parametrize("op,edges,undirected", [
        ("MIN", GRAPH, True), ("MAX", DAG, False)])
    def test_binary_head(self, mode, op, edges, undirected):
        got = self.db(mode, edges, undirected).query("""
            D(x,y;d:int) :- Edge(x,y); d=1.
            D(x,y;d:int)* :- Edge(x,z),D(z,y); d=<<%s(z)>>+1.
        """ % op).to_dict()
        arcs = self.arcs(edges, undirected)
        pick, better = (min, lambda new, old: new < old) if op == "MIN" \
            else (max, lambda new, old: new > old)

        def step(best):
            out = {}
            for x, z in arcs:
                for (z2, y), value in best.items():
                    if z2 == z:
                        out[x, y] = pick(out.get((x, y), value + 1),
                                         value + 1)
            return out
        expected = brute_force_fixpoint({arc: 1.0 for arc in arcs}, step,
                                        better)
        assert got == expected
        assert len(got) > len(arcs)

    def test_round_cap_raises_and_restores_the_head(self, mode):
        """MAX over a cycle improves forever: the cap raises, and the
        delta the last round installed does not stay in the catalog."""
        from repro.errors import ExecutionError
        db = self.db(mode, [(0, 1), (1, 2), (2, 0)], False)
        db.query("L(x;y:int) :- Edge(0,x); y=1.")
        base = db.catalog["L"]
        rule = parse_rule(
            "L(x;y:int)* :- Edge(w,x),L(w); y=<<MAX(w)>>+1.")
        with pytest.raises(ExecutionError, match="did not converge"):
            execute_recursive(rule, db._executor, max_rounds=5)
        assert db.catalog["L"] is base

    def test_head_read_through_a_guard_is_not_rebound(self, mode):
        """``S(0)`` is a selection of the head: the compiled rule
        cannot take the new head's trie alone, so it recompiles — and
        agrees with the oracle round for round."""
        program = """
            S(x;y:int) :- Edge(0,x); y=1.
            S(x;y:int)*[i=3] :- Edge(w,x),S(w),S(1); y=<<MIN(w)>>+1.
        """
        expected = self.db("interpreted", self.GRAPH, True) \
            .query(program).to_dict()
        assert self.db(mode, self.GRAPH, True).query(program).to_dict() \
            == expected


class TestRoundsCompileOnce:
    """A recursion's rounds differ only in the head relation, so only
    the first compiles; the others re-bind the head's trie."""

    EDGES = [(i, i + 1) for i in range(12)] + [(0, 5), (3, 9)]

    def db(self):
        db = Database(ordering="identity", execution_mode="compiled")
        db.load_graph("Edge", self.EDGES, undirected=True)
        return db

    def test_bounded_recursion(self):
        db = self.db()
        db.query("V(x;a:float) :- Edge(x,z); a=1.")
        rounds = 6
        db.query("V(x;a:float)*[i=%d] :- Edge(x,z),V(z); "
                 "a=0.5*<<SUM(z)>>." % rounds)
        stats = db.last_stats
        assert stats.recursion_rounds == rounds
        assert stats.ghd_builds == 1 and stats.codegen_runs <= 1
        assert (stats.plan_cache_misses, stats.plan_cache_hits) \
            == (1, rounds - 1)
        # the first round's head trie (Edge's may be built here too);
        # later rounds build theirs outside the cache
        assert 1 <= stats.trie_cache_misses <= 2
        assert stats.compiled_bag_calls == rounds == stats.fused_blocks

    def test_seminaive_recursion_and_its_repeat(self):
        db = self.db()
        program = """
            S(x;y:int) :- Edge(0,x); y=1.
            S(x;y:int)* :- Edge(w,x),S(w); y=<<MIN(w)>>+1.
        """
        first = db.query(program).to_dict()
        stats = db.last_stats
        rounds = stats.recursion_rounds
        assert rounds >= 5
        assert stats.ghd_builds == 2        # base rule + recursive rule
        # the base rule's Edge selection and Edge, then a head per round
        assert stats.trie_cache_misses <= rounds + 3
        assert stats.compiled_bag_calls == stats.fused_blocks
        # the program again: the head is the only relation that
        # changed, so nothing compiles at all
        assert db.query(program).to_dict() == first
        again = db.last_stats
        assert again.ghd_builds == 0 and again.plan_cache_misses == 0
        assert again.recursion_rounds == rounds
        assert again.trie_cache_misses <= rounds + 1

    def test_interpreted_rounds_report_no_compiled_counters(self):
        db = Database(ordering="identity", execution_mode="interpreted")
        db.load_graph("Edge", self.EDGES, undirected=True)
        db.query("V(x;a:float) :- Edge(x,z); a=1.")
        db.query("V(x;a:float)*[i=2] :- Edge(x,z),V(z); a=<<SUM(z)>>.")
        assert db.last_stats is None

    def test_repeated_pagerank_compiles_nothing(self):
        """PageRank re-derives ``N`` and ``InvDeg`` on every run of its
        program; the recursive rule's plan takes the new ``InvDeg``
        the way it takes a new head, so a repeat compiles nothing."""
        from repro.graphs import pagerank_program
        db = self.db()
        program = pagerank_program(iterations=4)
        first = db.query(program).to_dict()
        assert db.last_stats.plan_cache_misses == 4     # one per rule
        assert db.query(program).to_dict() == first
        again = db.last_stats
        assert again.plan_cache_misses == 0 and again.ghd_builds == 0
        assert again.recursion_rounds == 4
        assert again.plan_cache_hits == 3 + 4

    def test_a_reloaded_relation_still_recompiles(self):
        """Re-binding is for re-derived relations; a reload arrives
        through new dictionaries and re-plans."""
        db = self.db()
        program = "V(x;a:float) :- Edge(x,z); a=1."
        db.query(program)
        db.load_graph("Edge", self.EDGES[:6], undirected=True)
        db.query(program)
        assert db.last_stats.plan_cache_misses == 1


def dict_fixpoint(base, step, better):
    """Seminaive fixpoint with Python dicts and sets: ``step(delta)``
    is one round's ``{key: value}`` derived from the changed rows."""
    best, delta = dict(base), dict(base)
    while delta:
        changed = {}
        for key, value in step(delta).items():
            if key not in best or better(value, best[key]):
                best[key] = changed[key] = value
        delta = changed
    return best


@pytest.mark.parametrize("rows", [1, 7, None])
class TestDeltaFirst:
    """A seminaive round of the default engine binds the delta atom's
    variables first and groups its unordered outputs; the fixpoint
    must be the interpreter's (output-first) and a dict fixpoint's,
    value for value — MIN, MAX and union, unary and binary heads,
    weighted and plain edges, one- and two-bag bodies, every block
    size, with ties and an unreachable component in the data."""

    #: Two equal-length routes to 3 (ties), a tail, and {7, 8} apart.
    GRAPH = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6),
             (7, 8)]
    #: A DAG with short and long routes to the same node.
    DAG = [(0, 1), (0, 2), (1, 2), (2, 3), (0, 3), (3, 4), (1, 4),
           (6, 7)]
    MARKED = (1, 3, 4, 5, 6, 8)

    @pytest.fixture(autouse=True)
    def _blocks(self, rows, monkeypatch):
        """The default engine's kernels cut blocks of ``rows`` rows
        (``None``: the built-in size)."""
        if rows is not None:
            monkeypatch.setattr(fused, "BLOCK_ROWS", rows)

    def load(self, db, edges, undirected, weighted):
        arcs = sorted(set(edges) | ({(b, a) for a, b in edges}
                                    if undirected else set()))
        weights = {arc: float(1 + (arc[0] + 2 * arc[1]) % 3)
                   for arc in arcs} if weighted else None
        db.add_relation("Edge", arcs, annotations=None if weights is None
                        else [weights[arc] for arc in arcs])
        db.add_relation("Mark", [(node,) for node in self.MARKED])
        return arcs, weights or dict.fromkeys(arcs, 1.0)

    def both(self, program, edges, undirected, weighted=False):
        """``(default, arcs, weights)`` after checking the default
        engine against the oracle, annotations bit for bit."""
        answers = []
        for mode in ("compiled", "interpreted"):
            db = Database(ordering="identity", execution_mode=mode)
            arcs, weights = self.load(db, edges, undirected, weighted)
            result = db.query(program)
            answers.append(result.to_dict()
                           if result.relation.annotations is not None
                           else set(result.tuples()))
            if mode == "compiled":
                assert db.last_stats.fused_blocks \
                    == db.last_stats.compiled_bag_calls
        assert answers[0] == answers[1]
        return answers[0], arcs, weights

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("op,edges,undirected", [
        ("MIN", GRAPH, True), ("MAX", DAG, False)])
    def test_unary_head(self, rows, op, edges, undirected, weighted):
        got, arcs, weights = self.both("""
            S(x;y:float) :- Edge(0,x); y=1.
            S(x;y:float)* :- Edge(w,x),S(w); y=<<%s(w)>>+1.
        """ % op, edges, undirected, weighted)
        pick, better = (min, lambda new, old: new < old) if op == "MIN" \
            else (max, lambda new, old: new > old)

        def step(delta):
            out = {}
            for (w, x), weight in weights.items():
                if w in delta:
                    value = weight * delta[w] + 1
                    out[x] = pick(out.get(x, value), value)
            return out
        assert got == dict_fixpoint({x: 1.0 for w, x in arcs if w == 0},
                                    step, better)
        assert 7 not in got and 8 not in got

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("op,edges,undirected", [
        ("MIN", GRAPH, True), ("MAX", DAG, False)])
    def test_binary_head(self, rows, op, edges, undirected, weighted):
        got, arcs, weights = self.both("""
            D(x,y;d:float) :- Edge(x,y); d=1.
            D(x,y;d:float)* :- Edge(x,z),D(z,y); d=<<%s(z)>>+1.
        """ % op, edges, undirected, weighted)
        pick, better = (min, lambda new, old: new < old) if op == "MIN" \
            else (max, lambda new, old: new > old)

        def step(delta):
            out = {}
            for (x, z), weight in weights.items():
                for (z2, y), value in delta.items():
                    if z2 == z:
                        value = weight * value + 1
                        out[x, y] = pick(out.get((x, y), value), value)
            return out
        assert got == dict_fixpoint({arc: 1.0 for arc in arcs}, step,
                                    better)
        assert len(got) > len(arcs)

    def test_two_bag_body(self, rows):
        """``Edge(x,u),Mark(u)`` is a bag of its own under the bag
        that reads the delta: nodes with a marked neighbour only."""
        got, arcs, _ = self.both("""
            S(x;y:int) :- Edge(0,x); y=1.
            S(x;y:int)* :- Edge(w,x),S(w),Edge(x,u),Mark(u);
                           y=<<MIN(w)>>+1.
        """, self.GRAPH, True)
        keeps = {x for x, u in arcs if u in self.MARKED}

        def step(delta):
            out = {}
            for w, x in arcs:
                if w in delta and x in keeps:
                    out[x] = min(out.get(x, np.inf), delta[w] + 1)
            return out
        assert got == dict_fixpoint({x: 1.0 for w, x in arcs if w == 0},
                                    step, lambda new, old: new < old)

    @pytest.mark.parametrize("program,arity", [
        ("R(x) :- Edge(0,x). R(x)* :- Edge(w,x),R(w).", 1),
        ("P(x,y) :- Edge(x,y). P(x,y)* :- Edge(x,z),P(z,y).", 2)])
    def test_union(self, rows, program, arity):
        """Reachability (one bag, EXISTS groups ``x``) and transitive
        closure (two bags and a top-down join)."""
        got, arcs, _ = self.both(program, self.GRAPH, True)

        def step(delta):
            if arity == 1:
                return {(x,): 1 for w, x in arcs if (w,) in delta}
            return {(x, y): 1 for x, z in arcs
                    for z2, y in delta if z2 == z}
        base = {(x,): 1 for w, x in arcs if w == 0} if arity == 1 \
            else dict.fromkeys(arcs, 1)
        assert got == set(dict_fixpoint(base, step,
                                        lambda new, old: False))
        assert (7,) not in got and (0, 7) not in got


class TestNonLinearRecursion:
    """A body that reads its head twice is not linear in the delta: a
    round over the delta alone joins delta with delta and never delta
    with old.  Such rules iterate naively, on both engines."""

    @pytest.mark.parametrize("mode", ["compiled", "interpreted"])
    def test_chain_distances_by_doubling(self, mode):
        db = Database(ordering="identity", execution_mode=mode)
        db.load_graph("Edge", [(i, i + 1) for i in range(9)],
                      undirected=False)
        got = db.query("""
            P(x,y;d:int) :- Edge(x,y); d=1.
            P(x,y;d:int)* :- P(x,z),P(z,y); d=<<MIN(z)>>+1.
        """).to_dict()
        # the fuzz oracle's naive fixpoint: a path of k arcs joins its
        # two halves, so it costs the cheaper split's sum plus one
        cost = {1: 1.0}
        for k in range(2, 10):
            cost[k] = min(cost[a] * cost[k - a] for a in range(1, k)) + 1
        assert got == {(x, y): cost[y - x]
                       for x in range(10) for y in range(x + 1, 10)}
        assert len(got) == 45

    @pytest.mark.parametrize("mode", ["compiled", "interpreted"])
    def test_non_linear_union(self, mode):
        db = Database(ordering="identity", execution_mode=mode)
        db.load_graph("Edge", [(i, i + 1) for i in range(9)],
                      undirected=False)
        got = set(db.query("""
            P(x,y) :- Edge(x,y).
            P(x,y)* :- P(x,z),P(z,y).
        """).tuples())
        assert got == {(x, y) for x in range(10)
                       for y in range(x + 1, 10)}


def default_engine_only(test):
    """Skip under ``REPRO_EXECUTION_MODE=interpreted``: the assertion
    is about the work the default engine charges."""
    from repro.engine import EngineConfig
    return pytest.mark.skipif(
        EngineConfig().execution_mode != "compiled",
        reason="work bound of the default engine")(test)


class TestWorkBound:
    """Work per round follows the delta, not the relation: the lane
    ops of a fixpoint sum to the fan-out of everything that ever
    changed — the edge list, about once — however many rounds it
    takes.  Asserted on counters and row counts, never on time."""

    @default_engine_only
    def test_path_graphs_charge_linear_lane_ops(self):
        n = 2000
        db = Database(ordering="identity")
        db.load_graph("Edge", [(i, i + 1) for i in range(n - 1)],
                      undirected=False)
        before = db.counter.total_ops
        distances = db.query("""
            S(x;y:int) :- Edge(0,x); y=1.
            S(x;y:int)* :- Edge(w,x),S(w); y=<<MIN(w)>>+1.
        """).to_dict()
        assert distances == {i: float(i) for i in range(1, n)}
        assert db.last_stats.recursion_rounds == n - 1
        # n^2/2 when every round expanded every edge
        assert db.counter.total_ops - before <= 10 * n
        n = 200
        db = Database(ordering="identity")
        db.load_graph("Edge", [(i, i + 1) for i in range(n - 1)],
                      undirected=False)
        before = db.counter.total_ops
        closure = db.query("""
            Path(x,y) :- Edge(x,y).
            Path(x,y)* :- Edge(x,z),Path(z,y).
        """).tuples()
        assert len(closure) == n * (n - 1) // 2
        assert db.counter.total_ops - before <= len(closure)

    @default_engine_only
    def test_a_counts_only_leaf_charges_its_level_0_scan(self):
        """A leaf that nothing probes or weighs folds from the CSR's
        counts and touches none of its candidates: over a path, the
        out-degrees — ``COUNT(*)``, or ``InvDeg``'s ``COUNT(z)``, which
        compiles as ``COUNT(*)`` — and the node count's EXISTS leaf
        charge their scan of the ``n - 1`` sources, not one lane op
        more for the edges."""
        n = 2000
        db = Database(ordering="identity")
        db.load_graph("Edge", [(i, i + 1) for i in range(n - 1)],
                      undirected=False)
        degrees = {i: 1.0 for i in range(n - 1)}
        for rule, answer in [
                ("D(x;d:long) :- Edge(x,y); d=<<COUNT(*)>>.", degrees),
                ("D(x;d:float) :- Edge(x,z); d=1/<<COUNT(z)>>.", degrees),
                ("N(;w:int) :- Edge(x,y); w=<<COUNT(x)>>.", n - 1.0)]:
            before = db.counter.total_ops
            got = db.query(rule)
            assert (got.scalar if isinstance(answer, float)
                    else got.to_dict()) == answer
            assert db.counter.total_ops - before == -(-(n - 1) // 4)

    TWO_HOP = """
        S(x;y:int) :- Edge(0,x); y=1.
        S(x;y:int)* :- Edge(w,v),Edge(v,x),S(w); y=<<MIN(w)>>+2.
    """

    @default_engine_only
    def test_second_hop_generates_from_the_delta(self):
        """``Edge(v,x)`` is a bag of its own, sharing no variable with
        the delta atom ``S(w)``; the ``v`` its child passes up is
        delta-reached, so it binds first — output-first, the bag would
        expand every edge every round (n^2 / 2 lane ops)."""
        n = 2000
        db = Database(ordering="identity")
        db.load_graph("Edge", [(i, i + 1) for i in range(n - 1)],
                      undirected=False)
        before = db.counter.total_ops
        got = db.query(self.TWO_HOP).to_dict()
        assert got == {x: float(x) for x in range(1, n, 2)}
        assert db.counter.total_ops - before <= 10 * n
        assert "eval=(v,x) out=(x)" in db._executor.last_plan.describe()
        answers = []
        for mode in ("compiled", "interpreted"):
            db = Database(ordering="identity", execution_mode=mode)
            db.load_graph("Edge", [(i, i + 1) for i in range(120)]
                          + [(i, i + 3) for i in range(0, 117, 5)],
                          undirected=False)
            answers.append(db.query(self.TWO_HOP).to_dict())
        assert answers[0] == answers[1]

    def test_closure_rounds_join_only_the_delta(self, monkeypatch):
        """Round ``r`` of the closure of a directed path extends the
        ``n - r`` paths of ``r`` arcs found the round before — those,
        not the closure so far, enter the top-down join."""
        from repro.engine import executor
        joined = []
        real = executor._merge_join

        def recording(left, left_attrs, left_ann, right, *rest):
            joined.append((left.shape[0], right.shape[0]))
            return real(left, left_attrs, left_ann, right, *rest)
        monkeypatch.setattr(executor, "_merge_join", recording)
        n = 200
        db = Database(ordering="identity")
        db.load_graph("Edge", [(i, i + 1) for i in range(n - 1)],
                      undirected=False)
        db.query("""
            Path(x,y) :- Edge(x,y).
            Path(x,y)* :- Edge(x,z),Path(z,y).
        """)
        assert [right for _, right in joined] \
            == [n - r for r in range(1, n)]
        assert all(left <= right for left, right in joined)


def force_sorted(monkeypatch):
    """Make every fixpoint accumulate by sorted merge."""
    from repro.engine import recursion
    monkeypatch.setattr(recursion._DenseBest, "fitting",
                        classmethod(lambda cls, *args: None))


def spy_dense(monkeypatch):
    """Record each fixpoint's route decision: its dense accumulator,
    or ``None`` for the sorted merge."""
    from repro.engine import recursion
    made = []
    fitting = recursion._DenseBest.fitting.__func__

    def spy(cls, *args):
        made.append(fitting(cls, *args))
        return made[-1]
    monkeypatch.setattr(recursion._DenseBest, "fitting", classmethod(spy))
    return made


def assert_same_bits(relation, other):
    assert relation.data.dtype == other.data.dtype == np.uint32
    assert relation.data.shape == other.data.shape
    assert np.array_equal(relation.data, other.data)
    if relation.annotations is None:
        assert other.annotations is None
    else:
        assert relation.annotations.dtype == other.annotations.dtype
        assert relation.annotations.tobytes() == other.annotations.tobytes()


class TestAccumulationRoutes:
    """A fixpoint accumulates densely when its head's code space fits
    (``_DenseBest``) and by sorted merge (``_merge_improved``)
    otherwise.  Whatever the route and the engine, the final relation
    must be the same bit for bit — rows, dtype and every float."""

    GRAPH = TestDeltaFirst.GRAPH
    DAG = TestDeltaFirst.DAG
    CHAIN = [(i, i + 1) for i in range(9)]

    @staticmethod
    def routes(monkeypatch, run):
        """Run ``run(mode)`` densely and merged, on both engines; check
        all four final relations agree and return the dense route's
        accumulator (``None``: it fell back, or never decided)."""
        made = spy_dense(monkeypatch)
        dense = run("compiled")
        results = [run("interpreted")]
        force_sorted(monkeypatch)
        results += [run("compiled"), run("interpreted")]
        for other in results:
            assert_same_bits(dense, other)
        # both engines took the same route over the same code space
        assert len({None if m is None else (m.low, m.size)
                    for m in made}) <= 1
        return made[0] if made else None

    @staticmethod
    def program(text, edges, undirected, **extra):
        arcs = sorted(set(edges) | ({(b, a) for a, b in edges}
                                    if undirected else set()))

        def run(mode):
            db = Database(ordering="identity", execution_mode=mode)
            db.add_relation("Edge", arcs)
            for name, rows in extra.items():
                db.add_relation(name, rows)
            return db.query(text).relation
        return run

    @pytest.mark.parametrize("text,edges,undirected,size", [
        ("S(x;y:float) :- Edge(0,x); y=1. "
         "S(x;y:float)* :- Edge(w,x),S(w); y=<<MIN(w)>>+1.",
         GRAPH, True, 9),
        ("L(x;y:float) :- Edge(0,x); y=1. "
         "L(x;y:float)* :- Edge(w,x),L(w); y=<<MAX(w)>>+1.",
         DAG, False, 7),
        ("R(x) :- Edge(0,x). R(x)* :- Edge(w,x),R(w).",
         GRAPH, True, 9),
        ("D(x,y;d:float) :- Edge(x,y); d=1. "
         "D(x,y;d:float)* :- Edge(x,z),D(z,y); d=<<MIN(z)>>+1.",
         GRAPH, True, 9),
        ("P(x,y) :- Edge(x,y). P(x,y)* :- Edge(x,z),P(z,y).",
         DAG, False, 7),
        # reads its head twice: naive rounds over the whole of ``best``,
        # whose values come from the base case alone
        ("P(x,y;d:float) :- Edge(x,y); d=1. "
         "P(x,y;d:float)* :- P(x,z),P(z,y); d=<<MIN(z)>>+1.",
         CHAIN, False, 10),
    ], ids=["min-unary", "max-unary", "union-unary", "min-binary",
            "union-binary", "head-read-twice"])
    def test_dense_heads(self, monkeypatch, text, edges, undirected, size):
        dense = self.routes(monkeypatch,
                            self.program(text, edges, undirected))
        assert (dense.low, dense.size) == (0, size)

    def test_a_base_code_edge_lacks(self, monkeypatch):
        """``Seed``'s 50 is no node of ``Edge``: the code space must
        still hold it, or its row would index past the arrays."""
        run = self.program(
            "S(x;y:float) :- Seed(x); y=0. "
            "S(x;y:float)* :- Edge(w,x),S(w); y=<<MIN(w)>>+1.",
            self.GRAPH, True, Seed=[(0,), (50,)])
        dense = self.routes(monkeypatch, run)
        assert dense.size == 10
        assert len(run("compiled").data) == 8       # 7 and 8 unreached

    def test_an_empty_base_case(self, monkeypatch):
        run = self.program(
            "S(x;y:float) :- Edge(7,x); y=1. "
            "S(x;y:float)* :- Edge(w,x),S(w); y=<<MIN(w)>>+1.",
            self.DAG, False)
        assert self.routes(monkeypatch, run) is None
        assert run("compiled").cardinality == 0

    @pytest.mark.parametrize("binary", [False, True])
    @pytest.mark.parametrize("scale,route", [(1, "dense"),
                                             (70000, "sorted")])
    def test_code_space_decides_the_route(self, monkeypatch, scale, route,
                                          binary):
        """Bare codes, no dictionary: ``1000 + scale * k``.  Spaced one
        apart the code space is four codes from 1000 (a head whose
        lowest code is not 0); spaced 70 000 apart it is too sparse for
        four edges and falls back to the sorted merge."""
        codes = [1000 + scale * k for k in range(4)]
        edges = np.asarray([(codes[0], codes[1]), (codes[1], codes[2]),
                            (codes[2], codes[3]), (codes[0], codes[2])],
                           dtype=np.uint32)
        base = Relation("D", edges, np.ones(4)) if binary \
            else Relation("S", edges[:1, :1], np.asarray([0.0]))
        rule = parse_rule(
            "D(x,y;d:float)* :- Edge(x,z),D(z,y); d=<<MIN(z)>>+1."
            if binary else
            "S(x;y:float)* :- Edge(w,x),S(w); y=<<MIN(w)>>+1.")

        def run(mode):
            catalog = {"Edge": Relation("Edge", edges), base.name: base}
            return execute_recursive(rule, executor_for(
                catalog, EngineConfig(execution_mode=mode)))
        dense = self.routes(monkeypatch, run)
        if route == "dense":
            assert (dense.low, dense.size) == (1000, 4)
        else:
            assert dense is None
        got = run("compiled")
        if not binary:
            assert dict(zip(got.data[:, 0].tolist(),
                            got.annotations.tolist())) \
                == dict(zip(codes, [0.0, 1.0, 1.0, 2.0]))

    @pytest.mark.parametrize("route", ["dense", "sorted"])
    def test_round_cap_raises_and_restores_the_base(self, monkeypatch,
                                                    route):
        """MAX over a cycle improves forever: the cap raises on either
        route, the base case is back in the catalog — and the rounds'
        compiled rule, which ran bound to later deltas, reads it."""
        from repro.engine.recursion import round_body
        from repro.errors import ExecutionError
        made = spy_dense(monkeypatch)
        if route == "sorted":
            force_sorted(monkeypatch)
        db = Database(ordering="identity")
        db.load_graph("Edge", [(0, 1), (1, 2), (2, 0)], undirected=False)
        db.query("L(x;y:int) :- Edge(0,x); y=1.")
        base = db.catalog["L"]
        rule = parse_rule(
            "L(x;y:int)* :- Edge(w,x),L(w); y=<<MAX(w)>>+1.")
        with pytest.raises(ExecutionError, match="did not converge"):
            execute_recursive(rule, db._executor, max_rounds=5)
        assert db.catalog["L"] is base
        if route == "dense":
            assert made and made[0] is not None
        step = db._executor.execute(round_body(rule))
        assert step.data.ravel().tolist() == [2]
        assert step.annotations.tolist() == [2.0]


class TestRoundWork:
    """A round after the first is a flat-array step: no optimizer pass,
    no plan-cache lookup (yet one plan-cache hit counted), no trie
    cache traffic.  Counted, never timed."""

    SSSP = """
        S(x;y:int) :- Edge(0,x); y=1.
        S(x;y:int)* :- Edge(w,x),S(w); y=<<MIN(w)>>+1.
    """

    @staticmethod
    def counting(monkeypatch):
        """``(optimized, fetched)``: head names passed to
        ``optimize_rule`` and relation names to ``TrieCache.get``."""
        from repro.engine import executor
        optimized, fetched = [], []
        optimize, get = executor.optimize_rule, executor.TrieCache.get

        def counted_optimize(rule, *args, **kwargs):
            optimized.append(rule.head_name)
            return optimize(rule, *args, **kwargs)

        def counted_get(cache, relation, *args, **kwargs):
            fetched.append(relation.name)
            return get(cache, relation, *args, **kwargs)
        monkeypatch.setattr(executor, "optimize_rule", counted_optimize)
        monkeypatch.setattr(executor.TrieCache, "get", counted_get)
        return optimized, fetched

    @default_engine_only
    def test_fixpoint_rounds_reuse_the_first_rounds_plan(self,
                                                         monkeypatch):
        n = 40
        db = Database(ordering="identity")
        db.load_graph("Edge", [(i, i + 1) for i in range(n - 1)],
                      undirected=False)
        first = db.query(self.SSSP).to_dict()
        optimized, fetched = self.counting(monkeypatch)
        assert db.query(self.SSSP).to_dict() == first
        stats = db.last_stats
        assert stats.recursion_rounds == len(stats.rounds) == n - 1
        assert optimized == ["S", "S"]      # the base rule, round one
        assert fetched == ["S"]             # round one re-binds its head
        assert (stats.plan_cache_hits, stats.plan_cache_misses) \
            == (1 + stats.recursion_rounds, 0)
        assert [r.changed for r in stats.rounds] == [1] * (n - 2) + [0]

    @default_engine_only
    def test_pagerank_rounds_reuse_the_first_rounds_plan(self,
                                                         monkeypatch):
        from repro.graphs import pagerank_program
        db = Database(ordering="identity")
        db.load_graph("Edge", TestRoundsCompileOnce.EDGES)
        program = pagerank_program(iterations=6)
        first = db.query(program).to_dict()
        optimized, fetched = self.counting(monkeypatch)
        assert db.query(program).to_dict() == first
        stats = db.last_stats
        assert optimized == ["N", "InvDeg", "PageRank", "PageRank"]
        assert stats.recursion_rounds == 6
        assert (stats.plan_cache_hits, stats.plan_cache_misses) == (9, 0)
        assert fetched.count("PageRank") == 1
