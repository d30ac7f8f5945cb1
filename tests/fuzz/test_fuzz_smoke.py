"""Smoke tests for the fuzzer itself: generator, oracles, runner,
corpus round-trip, and the config matrix."""

import pytest

from repro.engine import executor, fused
from repro.engine.config import (enumerate_config_matrix,
                                 enumerate_mutation_matrix)
from repro.fuzz import (evaluate_case, generate_case, load_corpus,
                       run_case, run_fuzz, save_case, validate_case)
from repro.fuzz.corpus import case_from_dict, case_to_dict
from repro.fuzz.gen import WIDE_DOMAIN
from repro.fuzz.runner import case_seed
from repro.storage.trie import FlatTrieView
from tests import reference
from tests.conftest import record_leaf_folds


def test_generator_is_deterministic():
    a, b = generate_case(42), generate_case(42)
    assert a.program_text == b.program_text
    assert [r.tuples for r in a.relations] == \
        [r.tuples for r in b.relations]
    assert [r.annotations for r in a.relations] == \
        [r.annotations for r in b.relations]


@pytest.mark.parametrize("seed", range(0, 60, 7))
def test_generated_cases_are_well_formed(seed):
    assert validate_case(generate_case(seed))


def test_generator_covers_the_language_surface():
    """Across a modest seed range, every major feature must appear."""
    seen = set()
    for seed in range(250):
        case = generate_case(seed)
        for rule in case.rules:
            if rule.recursive:
                seen.add("recursive")
                seen.add("replace" if rule.iterations is not None
                         else "fixpoint")
            if rule.aggregates:
                seen.add(rule.aggregates[0].op)
            elif rule.annotation is not None:
                seen.add("constant-annotation")
            else:
                seen.add("set")
            if len(rule.body) >= 3:
                seen.add("multiway")
            for atom in rule.body:
                if len(set(v.name for v in atom.terms
                           if type(v).__name__ == "Variable")) \
                        < len(atom.terms):
                    seen.add("constant-or-repeat")
        if len(case.rules) >= 2:
            seen.add("multirule")
    for feature in ("recursive", "replace", "fixpoint", "SUM", "MIN",
                    "MAX", "COUNT", "set", "constant-annotation",
                    "multiway", "multirule", "constant-or-repeat"):
        assert feature in seen, feature


def test_oracle_agrees_with_reference_evaluator():
    """The two brute-force implementations (backtracking vs
    itertools.product) must agree with each other, engine aside."""
    checked = 0
    for seed in range(40):
        case = generate_case(seed)
        base = {r.name: (list(r.tuples),
                         dict(zip(r.tuples, r.annotations))
                         if r.annotations is not None else None)
                for r in case.relations}
        try:
            expected = reference.evaluate_program(base, case.rules)
        except reference.ReferenceDiverged:
            continue
        assert evaluate_case(case) == expected, case
        checked += 1
    assert checked >= 30


def test_run_fuzz_smoke(monkeypatch):
    """A quick run passes, its child-level probes take both routes —
    the bit table of a dense pair level and the packed search of a
    sparse one (the wide cases') — and its leaves every fold route: a
    leaf nothing probes folds from pre-multiplied unary weights
    (the PageRank-shaped cases') or from its row counts alone, others
    block by block, and a ``COUNT(v)`` that counts bindings compiles
    as ``COUNT(*)``."""
    routes = []
    build = FlatTrieView._pair_table

    def recorded(view):
        table = build(view)
        routes.append("packed" if table is False else "table")
        return table
    monkeypatch.setattr(FlatTrieView, "_pair_table", recorded)
    leaves = record_leaf_folds(monkeypatch)
    counts = set()
    counts_bindings = executor._counts_bindings

    def compiled(logical, arg):
        star = counts_bindings(logical, arg)
        counts.add(star)
        return star
    monkeypatch.setattr(executor, "_counts_bindings", compiled)
    report = run_fuzz(seed=0, budget=25,
                      matrix=enumerate_config_matrix())
    assert report.ok, report.describe()
    assert report.executed == 25
    assert set(routes) == {"packed", "table"}
    assert set(leaves) == {"weighted", "counts", "blocks"}
    assert counts == {True, False}


def test_wide_cases_relabel_values_apart():
    narrow = generate_case(2)
    wide = generate_case(3)
    assert [r.name for r in narrow.relations][0] != "Domain"
    domain, *relations = wide.relations
    assert domain.name == "Domain" and domain.arity == 1
    assert validate_case(wide)
    for relation in relations:
        assert all(v % WIDE_DOMAIN == 0 and (v,) in domain.tuples
                   for row in relation.tuples for v in row)
    assert not any(atom.name == "Domain" for rule in wide.rules
                   for atom in rule.body)


def test_case_seed_is_stable():
    assert case_seed(0, 0) != case_seed(0, 1)
    assert case_seed(7, 3) == case_seed(7, 3)
    assert 0 <= case_seed(123456789, 999) < 2 ** 31


def test_corpus_round_trip(tmp_path):
    case = generate_case(17)
    case.description = "round trip"
    path = save_case(case, directory=tmp_path)
    loaded = load_corpus(tmp_path)
    assert len(loaded) == 1 and loaded[0][0] == path.name
    restored = loaded[0][1]
    assert restored.program_text == case.program_text
    assert [r.tuples for r in restored.relations] == \
        [r.tuples for r in case.relations]
    assert case_to_dict(case_from_dict(case_to_dict(case))) == \
        case_to_dict(case)


def test_config_matrix_labels_are_unique():
    covering = enumerate_config_matrix()
    labels = [label for label, _ in covering]
    assert len(labels) == len(set(labels))
    assert labels[0] == "interp"            # the oracle comes first
    assert labels == ["interp", "default", "no-prune", "no-fold", "no-cse",
                      "no-ghd", "uint-only", "bitset-only", "block",
                      "small-blocks"]
    assert all(config.execution_mode in ("interpreted", "compiled")
               for _, config in covering)
    full = enumerate_config_matrix(full=True)
    # 2 modes (interpreted/compiled) x 2 opt x 4 layouts
    assert len(full) == 16
    assert len({label for label, _ in full}) == 16
    assert [label for label, _ in enumerate_mutation_matrix()] == \
        ["interp", "default", "full-recompute", "forced-delta"]


def test_small_blocks_label_runs_tiny_blocks(monkeypatch):
    """The ``small-blocks`` row runs kernel blocks of a handful of rows,
    so fuzz cases exercise slicing (there is no size fallback to
    exercise), and the kernel's constants are restored afterwards."""
    defaults = fused.BLOCK_ROWS, fused.PROBE_CROSSOVER
    seen = []
    call = fused.FusedBagKernel.__call__

    def spy(self, tries, config):
        seen.append((fused.BLOCK_ROWS, fused.PROBE_CROSSOVER))
        return call(self, tries, config)

    monkeypatch.setattr(fused.FusedBagKernel, "__call__", spy)
    matrix = [(label, config) for label, config in enumerate_config_matrix()
              if label in ("interp", "small-blocks")]
    for seed in range(20):
        assert run_case(generate_case(seed), matrix=matrix) is None
    assert seen
    assert all(rows < 16 for rows, _ in seen)
    assert (fused.BLOCK_ROWS, fused.PROBE_CROSSOVER) == defaults


def test_run_case_reports_a_planted_oracle_disagreement(monkeypatch):
    """A corrupted oracle layer must surface as an ``oracle`` failure —
    proving the runner actually consults it."""
    from repro.fuzz import runner as runner_mod
    case = generate_case(3)
    assert run_case(case, enumerate_config_matrix()) is None

    def wrong_oracle(checked_case):
        return {name: ("scalar", 12345.0)
                for name in evaluate_case(checked_case)}

    monkeypatch.setattr(runner_mod, "evaluate_case", wrong_oracle)
    failure = runner_mod.run_case(case, enumerate_config_matrix(),
                                  check_reference=False)
    assert failure is not None and failure.kind == "oracle"
