"""Default engine: kernel-vs-interpreter parity and plan caching.

The default (compiled) execution path must be *bit-identical* to the
interpreting :class:`~repro.engine.generic_join.BagEvaluator` — same
tuples, same annotation arrays, same scalars — across set layouts,
semirings, head modes, and kernel block sizes.  On top of parity, the plan
cache must make a repeated query skip parse, GHD search, and bag
lowering entirely, which the ``ExecStats`` counters prove.
"""

import numpy as np
import pytest

from repro import Database
from repro.engine import fused
from repro.engine.codegen import InputSpec, generate_bag_plan
from repro.engine.generic_join import evaluate_bag
from repro.engine.plan_cache import PlanCache, config_signature
from repro.engine.semiring import COUNT, EXISTS, SUM
from repro.errors import ExecutionError
from repro.query import parse_rule
from tests.conftest import (bag_inputs, brute_force_triangles,
                            random_undirected_edges)

EDGES = random_undirected_edges(30, 110, seed=7)
WEIGHTED = [(u, v) for u, v in random_undirected_edges(25, 80, seed=3)]
WEIGHTS = [((u * 7 + v * 13) % 11) / 4.0 + 0.25 for u, v in WEIGHTED]

LAYOUTS = ["set", "uint_only", "bitset_only", "block"]

QUERIES = [
    # scalar COUNT(*) — the paper's triangle query
    "T(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>.",
    # materializing head, no aggregation
    "Tri(x,y,z) :- Edge(x,y),Edge(y,z),Edge(x,z).",
    # projection (EXISTS folds the aggregated suffix)
    "P(x,z) :- Edge(x,y),Edge(y,z).",
    # keyed COUNT
    "D(x;c:long) :- Edge(x,y); c=<<COUNT(*)>>.",
    # annotated SUM through a three-atom join
    "S(x;s:float) :- W(x,y),Edge(y,z); s=<<SUM(*)>>.",
    # MIN / MAX over annotations
    "M(x;m:float) :- W(x,y); m=<<MIN(*)>>.",
    "X(;m:float) :- W(x,y); m=<<MAX(*)>>.",
    # COUNT(v): distinct bindings per head tuple
    "N(;c:long) :- Edge(x,y); c=<<COUNT(x)>>.",
    "C(x;c:long) :- Edge(x,y),Edge(y,z); c=<<COUNT(z)>>.",
    # constant selection pushed into the plan
    "F(y) :- Edge(0,y).",
    # multi-bag GHD plan (two triangle bags sharing an edge path)
    "B(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z),"
    "Edge(z,p),Edge(p,q),Edge(z,q); w=<<COUNT(*)>>.",
]


def make_db(mode, layout="set", **overrides):
    db = Database(execution_mode=mode, layout_level=layout, **overrides)
    db.load_graph("Edge", EDGES)
    db.add_relation("W", WEIGHTED, annotations=WEIGHTS)
    return db


def assert_identical(a, b, query):
    assert np.array_equal(a.relation.data, b.relation.data), query
    ann_a, ann_b = a.relation.annotations, b.relation.annotations
    if ann_a is None or ann_b is None:
        assert ann_a is None and ann_b is None, query
    else:
        assert np.array_equal(ann_a, ann_b), query


class TestParityMatrix:
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("query", QUERIES)
    def test_layouts_serial(self, layout, query):
        interpreted = make_db("interpreted", layout)
        compiled = make_db("compiled", layout)
        assert_identical(interpreted.query(query),
                         compiled.query(query), query)

    @pytest.mark.parametrize("rows", [1, 7])
    @pytest.mark.parametrize("query", QUERIES)
    def test_small_blocks(self, rows, query, monkeypatch):
        """Cutting every bag into blocks of a row or a few changes no
        row, annotation or scalar of any head shape."""
        monkeypatch.setattr(fused, "BLOCK_ROWS", rows)
        interpreted = make_db("interpreted")
        compiled = make_db("compiled")
        assert_identical(interpreted.query(query),
                         compiled.query(query), query)

    def test_triangles_match_brute_force(self):
        compiled = make_db("compiled")
        assert compiled.query(QUERIES[0]).scalar \
            == 6.0 * brute_force_triangles(EDGES)

    def test_recursion_parity(self):
        program = ("R(x,y) :- Edge(x,y). "
                   "R(x,y)* :- R(x,z),Edge(z,y).")
        interpreted = make_db("interpreted")
        compiled = make_db("compiled")
        assert_identical(interpreted.query(program),
                         compiled.query(program), program)

    def test_repeated_queries_stay_identical(self):
        compiled = make_db("compiled")
        first = compiled.query(QUERIES[0]).scalar
        for _ in range(3):
            assert compiled.query(QUERIES[0]).scalar == first

    def test_unknown_mode_rejected(self):
        """At construction: no executor ever sees an unknown mode."""
        db = make_db("interpreted")
        with pytest.raises(ExecutionError, match="unknown execution_mode"):
            db.config.ablated(execution_mode="vectorized")


class TestPlanCache:
    def test_repeat_skips_parse_ghd_codegen(self):
        db = make_db("compiled")
        db.query(QUERIES[0])
        first = db.last_stats
        assert first.parses == 1
        assert first.ghd_builds >= 1
        assert first.codegen_runs >= 1
        assert first.plan_cache_misses >= 1
        db.query(QUERIES[0])
        second = db.last_stats
        assert second.parses == 0
        assert second.ghd_builds == 0
        assert second.codegen_runs == 0
        assert second.bag_codegen_reuses == 0
        assert second.plan_cache_hits >= 1
        assert second.plan_cache_misses == 0
        assert second.compiled_bag_calls >= 1

    def test_reload_rebinds_the_cached_rule(self):
        edges = random_undirected_edges(30, 90, seed=11)
        db = make_db("compiled")
        db.query(QUERIES[0])
        db.load_graph("Edge", edges)
        count = db.query(QUERIES[0]).scalar
        fresh = Database(execution_mode="compiled")
        fresh.load_graph("Edge", edges)
        assert count == fresh.query(QUERIES[0]).scalar
        stats = db.last_stats
        # The reload encodes through the database dictionary, so the
        # cached rule re-binds to the new relation: nothing compiles.
        assert (stats.plan_cache_hits, stats.plan_cache_misses,
                stats.ghd_builds) == (1, 0, 0)
        assert (stats.codegen_runs, stats.bag_codegen_reuses) == (0, 0)

    def test_config_signature_separates_ablations(self):
        base = make_db("compiled")
        assert config_signature(base.config) \
            != config_signature(base.config.ablated(simd=False))
        assert config_signature(base.config) \
            == config_signature(base.config.ablated(incremental_views=False))

    def test_rule_tier_evicts_oldest(self):
        cache = PlanCache(max_entries=2)
        for i in range(4):
            cache.put_program(("q%d" % i, ()), [])
        assert len(cache) == 2
        assert cache.get_program(("q3", ())) is not None
        assert cache.get_program(("q0", ())) is None

    def test_describe_mentions_compiled_counters(self):
        db = make_db("compiled")
        db.query(QUERIES[0])
        text = db.last_stats.describe()
        assert "plan cache" in text and "codegen" in text

    def test_identical_rule_shapes_share_source(self):
        # Two rules with the same bag shape: the second compiles its
        # plan but reuses the first's generated source verbatim.
        program = ("T1(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); "
                   "w=<<COUNT(*)>>. "
                   "T2(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); "
                   "w=<<COUNT(*)>>.")
        db = make_db("compiled")
        result = db.query(program)
        stats = db.last_stats
        assert stats.ghd_builds == 2
        assert stats.codegen_runs == 1
        assert stats.bag_codegen_reuses == 1
        assert result.scalar == 6.0 * brute_force_triangles(EDGES)


#: ``<<COUNT(v)>>`` rules and the kind the default engine compiles them
#: to.
COUNT_RULES = [
    ("InvDeg(x;d:float) :- Edge(x,z); d=1/<<COUNT(z)>>.", "plan"),
    ("C(x;w:float) :- Edge(x,z),Edge(z,x); w=<<COUNT(z)>>.", "plan"),
    ("C(x;w:float) :- Edge(x,z),Edge(z,3); w=<<COUNT(z)>>.", "plan"),
    ("C(x;w:float) :- Edge(x,z); w=2*<<COUNT(z)>>+1.", "plan"),
    ("C(x,y;w:float) :- Edge(x,z),Edge(z,y); w=<<COUNT(z)>>.", "plan"),
    ("N(;w:float) :- Edge(x,y); w=<<COUNT(x)>>.", "count_distinct"),
    ("C(x;w:float) :- Edge(x,z),Edge(z,y); w=<<COUNT(z)>>.",
     "count_distinct"),
    ("C(x;w:float) :- W(x,z); w=<<COUNT(z)>>.", "count_distinct"),
]


class TestCountBindings:
    """``<<COUNT(v)>>`` counts distinct ``v`` per head tuple.  Over an
    unannotated body that binds nothing but the head and ``v``, every
    binding is a distinct ``(head, v)`` row, so the default engine
    compiles the rule as ``COUNT(*)`` — a ``plan``, whose leaf reads
    the CSR's counts — where a body binding more, or weighing its
    bindings, keeps the pseudo head and its distinct count.  Either
    way the answer is the interpreter's bit for bit, and the fuzzer's
    oracle's."""

    EDGE = sorted(set(EDGES) | {(v, u) for u, v in EDGES})

    @pytest.mark.parametrize("rule,kind", COUNT_RULES)
    def test_compiled_kind_and_answer(self, rule, kind):
        from repro.fuzz import run_case
        from repro.fuzz.gen import FuzzCase, FuzzRelation
        relations = [FuzzRelation("Edge", 2, self.EDGE),
                     FuzzRelation("W", 2, WEIGHTED, WEIGHTS)]
        assert run_case(FuzzCase(0, relations, [parse_rule(rule)])) is None
        answers = []
        for mode in ("interpreted", "compiled"):
            db = Database(execution_mode=mode)
            for relation in relations:
                db.add_relation(relation.name, relation.tuples,
                                annotations=relation.annotations)
            answers.append(db.query(rule).relation)
        assert answers[1].cardinality > 0
        assert np.array_equal(answers[0].data, answers[1].data)
        assert np.array_equal(answers[0].annotations, answers[1].annotations)
        assert [compiled.kind for compiled
                in db._executor.plans._rules.values()] == [kind]


class TestLoweredBags:
    """Kernels built straight from specs agree with the interpreter's
    ``evaluate_bag`` on the same tries, in value *and* in type."""

    @staticmethod
    def both(db, order, out_count, atoms, semiring):
        """(kernel result, interpreter result) for one bag whose inputs
        are ``(relation name, variables, annotated)`` triples."""
        specs, tries, inputs = bag_inputs(db, atoms)
        kernel = generate_bag_plan(order, out_count, specs, semiring)
        return (kernel(tries, db.config),
                evaluate_bag(order, out_count, inputs, semiring,
                             db.config))

    def test_unannotated_count_accumulates_in_int(self):
        db = make_db("interpreted")
        got, expected = self.both(
            db, ("x", "y", "z"), 0,
            [("Edge", ("x", "y"), False), ("Edge", ("y", "z"), False),
             ("Edge", ("x", "z"), False)], COUNT)
        assert isinstance(got.scalar, int) \
            and not isinstance(got.scalar, bool)
        assert got.scalar == expected.scalar

    def test_materializing_bag_emits_the_output_prefix(self):
        db = make_db("interpreted")
        got, expected = self.both(
            db, ("x", "y", "z"), 2,
            [("Edge", ("x", "y"), False), ("Edge", ("y", "z"), False)],
            EXISTS)
        assert got.out_attrs == ("x", "y")
        assert np.array_equal(got.data, expected.data)

    def test_annotated_sum_folds_in_float(self):
        db = make_db("interpreted")
        got, expected = self.both(
            db, ("x", "y"), 0, [("W", ("x", "y"), True)], SUM)
        assert isinstance(got.scalar, float)
        assert got.scalar == expected.scalar == sum(WEIGHTS)

    def test_keyed_annotated_sum_matches_row_for_row(self):
        db = make_db("interpreted")
        got, expected = self.both(
            db, ("x", "y", "z"), 1,
            [("W", ("x", "y"), True), ("Edge", ("y", "z"), False)], SUM)
        assert np.array_equal(got.data, expected.data)
        assert np.array_equal(got.annotations, expected.annotations)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_kernels_read_flat_arrays_whatever_the_layout(self, layout):
        """Set layouts are an interpreter concern: the kernel sweeps
        ``Trie.flat()`` and answers identically under every level."""
        db = make_db("interpreted", layout)
        got, expected = self.both(
            db, ("x", "y", "z"), 0,
            [("Edge", ("x", "y"), False), ("Edge", ("y", "z"), False),
             ("Edge", ("x", "z"), False)], COUNT)
        assert got.scalar == expected.scalar

    def test_ternary_bag_runs_on_the_kernel(self):
        """An arity-3 input reads a three-level flat view: the default
        engine answers the bag with a kernel, as the interpreter does."""
        rows = [(a, b, (a + b) % 5) for a in range(6) for b in range(6)]
        query = "Q(a;c:long) :- R3(a,b,c2),Edge(a,b); c=<<COUNT(*)>>."
        results = {}
        for mode in ("compiled", "interpreted"):
            db = make_db(mode)
            db.add_relation("R3", rows)
            results[mode] = db.query(query)
            if mode == "compiled":
                stats = db.last_stats
                assert stats.fused_blocks == stats.compiled_bag_calls >= 1
                assert "fallback" not in stats.describe()
        assert_identical(results["compiled"], results["interpreted"],
                         query)

    def test_ternary_bag_is_lowered_once_and_cached(self):
        """A ternary bag's kernel is one codegen run and one bag-code
        entry; the repeat compiles nothing."""
        db = make_db("compiled")
        db.add_relation("R3", [(a, b, a ^ b) for a in range(6)
                               for b in range(6)])
        query = "Q(;c:long) :- R3(a,b,c2),R3(b,a,c2); c=<<COUNT(*)>>."
        first = db.query(query).scalar
        stats = db.last_stats
        assert stats.codegen_runs == stats.fused_blocks == 1
        assert db._plan_cache.sizes()["bag_code"] == 1
        assert db.query(query).scalar == first == 36
        assert db.last_stats.codegen_runs == 0

    def test_ternary_identity_scan_enters_no_kernel(self):
        """A bag that only lists one ternary relation is its sorted
        tuples: no kernel call, no lane op, the interpreter's rows."""
        rows = [(a, b, a ^ b) for a in range(6) for b in range(6)]
        query = "Q(a,b,c) :- R3(a,b,c)."
        results = {}
        for mode in ("compiled", "interpreted"):
            db = make_db(mode)
            db.add_relation("R3", rows)
            before = db.counter.total_ops
            results[mode] = db.query(query)
            assert db.counter.total_ops == before
            if mode == "compiled":
                stats = db.last_stats
                assert stats.compiled_bag_calls == stats.fused_blocks == 0
        assert_identical(results["compiled"], results["interpreted"],
                         query)
