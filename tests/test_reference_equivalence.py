"""Property tests: the engine vs a brute-force conjunctive evaluator.

Random small relations, random conjunctive patterns (cyclic and
acyclic), all four aggregate modes — the engine's GHD/WCOJ pipeline must
match the exponential reference evaluator exactly.  The hypothesis
suite runs on the default configuration; the seeded suite at the bottom
re-checks every pattern across execution mode × optimizer toggles ×
the interpreter's layout and algorithm ablations × the kernels' block
size, so the reference oracle constrains every execution path, not
just the default one.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Database
from repro.engine import fused
from tests.reference import evaluate_conjunctive, evaluate_program

#: Candidate query shapes: (atom variable tuples, head variables).
PATTERNS = [
    ((("x", "y"), ("y", "z")), ("x", "z")),                    # path
    ((("x", "y"), ("y", "z"), ("x", "z")), ("x", "y", "z")),   # triangle
    ((("x", "y"), ("y", "z"), ("x", "z")), ("x",)),            # projection
    ((("x", "y"), ("y", "x")), ("x", "y")),                    # 2-cycle
    ((("x", "y"), ("z", "y")), ("x", "z")),                    # wedge-in
    ((("x", "x"),), ("x",)),                                   # self loop
    ((("x", "y"), ("y", "z"), ("z", "w")), ("x", "w")),        # 3-path
]

relation_strategy = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7)),
    min_size=0, max_size=25)


def load(db, rows):
    data = np.asarray(rows, dtype=np.uint32).reshape(-1, 2)
    db.add_encoded("E", data)
    return [tuple(int(v) for v in row) for row in
            db.relation("E").deduplicated().data]


def query_text(atom_vars, head_vars, aggregate=None):
    body = ",".join("E(%s)" % ",".join(vars_) for vars_ in atom_vars)
    if aggregate is None:
        return "Q(%s) :- %s." % (",".join(head_vars), body)
    if head_vars:
        return "Q(%s;w:float) :- %s; w=<<%s>>." % (
            ",".join(head_vars), body, aggregate)
    return "Q(;w:float) :- %s; w=<<%s>>." % (body, aggregate)


@given(rows=relation_strategy, pattern=st.sampled_from(PATTERNS))
@settings(max_examples=120, deadline=None)
def test_set_semantics_matches_reference(rows, pattern):
    atom_vars, head_vars = pattern
    db = Database()
    tuples = load(db, rows)
    got = set(db.query(query_text(atom_vars, head_vars)).tuples()) \
        if tuples else set()
    expected = evaluate_conjunctive(
        [tuples] * len(atom_vars), list(atom_vars), list(head_vars))
    assert got == expected


@given(rows=relation_strategy, pattern=st.sampled_from(PATTERNS))
@settings(max_examples=80, deadline=None)
def test_count_star_matches_reference(rows, pattern):
    atom_vars, head_vars = pattern
    db = Database()
    tuples = load(db, rows)
    if not tuples:
        return
    got = db.query(query_text(atom_vars, (), "COUNT(*)")).scalar
    expected = evaluate_conjunctive(
        [tuples] * len(atom_vars), list(atom_vars), [],
        aggregate="COUNT*")
    assert got == expected.get((), 0.0)


@given(rows=relation_strategy, pattern=st.sampled_from(PATTERNS[:5]),
       op=st.sampled_from(["SUM", "MIN", "MAX"]))
@settings(max_examples=80, deadline=None)
def test_annotated_aggregates_match_reference(rows, pattern, op):
    atom_vars, head_vars = pattern
    if not rows:
        return
    db = Database()
    data = np.asarray(rows, dtype=np.uint32).reshape(-1, 2)
    # Annotation = src*8 + dst + 1, deterministic and positive.
    db.add_encoded("W", data,
                   annotations=(data[:, 0] * 8 + data[:, 1]
                                + 1).astype(np.float64))
    relation = db.relation("W").deduplicated()
    tuples = [tuple(int(v) for v in row) for row in relation.data]
    table = {t: float(a) for t, a in zip(tuples, relation.annotations)}
    body = ",".join("W(%s)" % ",".join(vars_) for vars_ in atom_vars)
    # The aggregate's argument is informational for SUM/MIN/MAX; pick a
    # non-head variable when one exists, else any variable.
    non_head = [v for vs in atom_vars for v in vs if v not in head_vars]
    arg = non_head[0] if non_head else atom_vars[0][0]
    if head_vars:
        text = "Q(%s;w:float) :- %s; w=<<%s(%s)>>." % (
            ",".join(head_vars), body, op, arg)
    else:
        text = "Q(;w:float) :- %s; w=<<%s(%s)>>." % (body, op, arg)
    expected = evaluate_conjunctive(
        [tuples] * len(atom_vars), list(atom_vars), list(head_vars),
        aggregate=op, annotations=[table] * len(atom_vars))
    result = db.query(text)
    if not expected:
        if head_vars:
            assert result.count == 0
        return
    if head_vars:
        got = result.to_dict()
        got = {k if isinstance(k, tuple) else (k,): v
               for k, v in got.items()}
        assert set(got) == set(expected)
        for key, value in expected.items():
            assert got[key] == pytest.approx(value)
    else:
        assert result.scalar == pytest.approx(expected[()])


# -- cross-configuration equivalence ------------------------------------------
#
# Deterministic seeded datasets (hypothesis shrinking adds nothing when
# the failing artifact is a config label) run every pattern under every
# execution path the engine exposes.

ENGINE_CONFIGS = {
    "compiled": dict(execution_mode="compiled"),
    "compiled-rows-1": dict(execution_mode="compiled"),
    "compiled-rows-7": dict(execution_mode="compiled"),
    "compiled-small-blocks": dict(execution_mode="compiled"),
    "interpreted": dict(execution_mode="interpreted"),
    "interpreted-uint-only": dict(execution_mode="interpreted",
                                  layout_level="uint_only",
                                  adaptive_algorithms=False),
    "interpreted-bitset": dict(execution_mode="interpreted",
                               layout_level="bitset_only"),
    "interpreted-block": dict(execution_mode="interpreted",
                              layout_level="block"),
    "interpreted-no-simd": dict(execution_mode="interpreted", simd=False),
    "interpreted-galloping": dict(execution_mode="interpreted",
                                  uint_algorithm="galloping"),
    "no-optimizer": dict(prune_attributes=False, fold_constants=False,
                         cross_rule_cse=False,
                         eliminate_redundant_bags=False,
                         push_selections=False, skip_top_down=False),
    "no-ghd": dict(use_ghd=False),
}

#: Kernel constants ``(BLOCK_ROWS, PROBE_CROSSOVER)`` of the configs
#: that cut small blocks; ``compiled-small-blocks`` is the fuzzer's
#: ``small-blocks`` row: five-row blocks and a hair-trigger sweep.
KERNEL_CONSTANTS = {"compiled-rows-1": (1, fused.PROBE_CROSSOVER),
                    "compiled-rows-7": (7, fused.PROBE_CROSSOVER),
                    "compiled-small-blocks": (5, 1.0)}


def engine_db(config, monkeypatch):
    """A database of ``config``; its kernels run with that config's
    constants for the rest of the test."""
    if config in KERNEL_CONSTANTS:
        rows, crossover = KERNEL_CONSTANTS[config]
        monkeypatch.setattr(fused, "BLOCK_ROWS", rows)
        monkeypatch.setattr(fused, "PROBE_CROSSOVER", crossover)
    return Database(**ENGINE_CONFIGS[config])


def seeded_edges(seed, n=24, domain=7):
    rng = random.Random(seed)
    return sorted({(rng.randrange(domain), rng.randrange(domain))
                   for _ in range(n)})


@pytest.mark.parametrize("config", sorted(ENGINE_CONFIGS),
                         ids=sorted(ENGINE_CONFIGS))
@pytest.mark.parametrize("pattern", PATTERNS,
                         ids=lambda p: ",".join("".join(v) for v in p[0]))
def test_set_semantics_across_configs(config, pattern, monkeypatch):
    atom_vars, head_vars = pattern
    for seed in (0, 1):
        rows = seeded_edges(seed)
        db = engine_db(config, monkeypatch)
        tuples = load(db, rows)
        got = set(db.query(query_text(atom_vars, head_vars)).tuples())
        expected = evaluate_conjunctive(
            [tuples] * len(atom_vars), list(atom_vars), list(head_vars))
        assert got == expected


@pytest.mark.parametrize("config", sorted(ENGINE_CONFIGS),
                         ids=sorted(ENGINE_CONFIGS))
@pytest.mark.parametrize("op", ["COUNT(*)", "SUM", "MIN", "MAX"])
def test_aggregates_across_configs(config, op, monkeypatch):
    atom_vars, head_vars = PATTERNS[1]  # triangle
    rows = seeded_edges(2, n=30)
    db = engine_db(config, monkeypatch)
    data = np.asarray(rows, dtype=np.uint32).reshape(-1, 2)
    db.add_encoded("W", data,
                   annotations=(data[:, 0] * 8 + data[:, 1]
                                + 1).astype(np.float64))
    relation = db.relation("W").deduplicated()
    tuples = [tuple(int(v) for v in row) for row in relation.data]
    table = {t: float(a) for t, a in zip(tuples, relation.annotations)}
    body = ",".join("W(%s)" % ",".join(vars_) for vars_ in atom_vars)
    if op == "COUNT(*)":
        # Provenance semantics: COUNT(*) folds annotation products
        # exactly like SUM (it only counts when annotations are 1).
        text = "Q(x;w:float) :- %s; w=<<COUNT(*)>>." % body
        expected = evaluate_conjunctive(
            [tuples] * len(atom_vars), list(atom_vars), ["x"],
            aggregate="COUNT*", annotations=[table] * len(atom_vars))
    else:
        text = "Q(x;w:float) :- %s; w=<<%s(z)>>." % (body, op)
        expected = evaluate_conjunctive(
            [tuples] * len(atom_vars), list(atom_vars), ["x"],
            aggregate=op, annotations=[table] * len(atom_vars))
    result = db.query(text)
    got = {(k if isinstance(k, tuple) else (k,)): v
           for k, v in result.to_dict().items()} if result.count else {}
    assert set(got) == set(expected)
    for key, value in expected.items():
        assert got[key] == pytest.approx(value)


@pytest.mark.parametrize("config", sorted(ENGINE_CONFIGS),
                         ids=sorted(ENGINE_CONFIGS))
def test_recursive_program_across_configs(config, monkeypatch):
    """Union-fixpoint transitive closure vs the reference fixpoint."""
    from repro.query.parser import parse
    edges = seeded_edges(5, n=12, domain=6)
    program = ("Path(x,y) :- Edge(x,y).\n"
               "Path(x,y)* :- Edge(x,z),Path(z,y).")
    db = engine_db(config, monkeypatch)
    db.add_relation("Edge", edges, arity=2)
    got = set(db.query(program).tuples())
    expected = evaluate_program({"Edge": (edges, None)},
                                list(parse(program).rules))
    kind, value = expected["Path"]
    assert kind == "set"
    assert got == set(value)
