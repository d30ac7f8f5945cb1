"""Unit tests for the optimizer passes and the layering checker."""

import importlib.util
import os
import warnings

import numpy as np
import pytest

from repro.ablation import Ablation
from repro.lir import OptimizerOptions, optimize_rule, plan_rule
from repro.lir.passes import (REWRITE_PASSES, PassTrace, _default_size_warned,
                              _report_default_sizes, _run_phase)
from repro.obs.metrics import MetricsRegistry
from repro.query import parse_rule
from repro.query.ast import BinOp, Num
from repro.storage import Relation


def catalog_with_edges(rows):
    return {"E": Relation("E", np.asarray(rows, dtype=np.uint32))}


def optimize(text, catalog, **option_overrides):
    options = OptimizerOptions(**option_overrides)
    logical = optimize_rule(parse_rule(text), catalog, options)
    plan_rule(logical, options)
    return logical


class TestConstantFolding:
    def test_folds_constant_subtree(self):
        catalog = catalog_with_edges([[0, 1]])
        logical = optimize("Q(;w:long) :- E(x,y); w=1+2.", catalog)
        assert isinstance(logical.assignment, Num)
        assert logical.assignment.value == 3

    def test_division_by_zero_left_in_place(self):
        catalog = catalog_with_edges([[0, 1]])
        logical = optimize_rule(
            parse_rule("Q(;w:long) :- E(x,y); w=1/0."), catalog,
            OptimizerOptions())
        assert isinstance(logical.assignment, BinOp)

    def test_disabled_pass_recorded_in_trace(self):
        catalog = catalog_with_edges([[0, 1]])
        logical = optimize("Q(;w:long) :- E(x,y); w=1+2.", catalog,
                           ablation=Ablation(fold_constants=False))
        assert isinstance(logical.assignment, BinOp)
        folding = [r for r in logical.trace.records
                   if r.name == "constant_folding"]
        assert folding and folding[0].details == \
            ["disabled by configuration"]


class TestAttributePruning:
    def test_existential_variable_dropped(self):
        catalog = catalog_with_edges([[0, 1], [0, 2], [1, 2]])
        logical = optimize("Q(x) :- E(x,y).", catalog)
        (atom,) = logical.atoms
        assert atom.variables == ("x",)
        assert sorted(atom.relation.data[:, 0].tolist()) == [0, 1]

    def test_fully_pruned_atom_becomes_guard(self):
        catalog = catalog_with_edges([[0, 1]])
        logical = optimize("Q(x,y) :- E(x,y),E(z,w).", catalog)
        assert len(logical.atoms) == 1
        assert len(logical.guard_atoms) == 1
        assert not logical.has_empty_guard

    def test_reverts_when_body_would_empty(self):
        catalog = catalog_with_edges([[0, 1]])
        logical = optimize("Q(x) :- E(y,z).", catalog)
        # All variables were droppable; the pass must keep the original
        # body rather than hand the planner an empty hypergraph.
        assert len(logical.atoms) == 1
        assert logical.atoms[0].variables == ("y", "z")
        pruning = [r for r in logical.trace.records
                   if r.name == "attribute_pruning"]
        assert pruning[0].details == \
            ["skipped: pruning would empty the body"]

    def test_skips_aggregating_rules(self):
        catalog = catalog_with_edges([[0, 1], [0, 2]])
        logical = optimize("N(;w:long) :- E(x,y); w=<<COUNT(*)>>.",
                           catalog)
        (atom,) = logical.atoms
        assert atom.variables == ("x", "y")  # duplicates feed COUNT

    def test_skips_annotated_atoms(self):
        catalog = {"E": Relation("E",
                                 np.asarray([[0, 1]], dtype=np.uint32),
                                 np.asarray([2.5]))}
        logical = optimize("Q(x) :- E(x,y).", catalog)
        assert logical.atoms[0].variables == ("x", "y")


class TestIdempotence:
    """Running a phase twice must be a no-op the second time."""

    def test_rewrite_phase_idempotent(self):
        catalog = catalog_with_edges([[0, 1], [1, 2]])
        options = OptimizerOptions()
        logical = optimize_rule(
            parse_rule("Q(x;w:long) :- E(x,y),E(y,z); w=1+2."),
            catalog, options)
        atoms_after = [str(a) for a in logical.atoms]
        assignment_after = logical.assignment
        logical.trace = PassTrace()
        _run_phase(REWRITE_PASSES, logical, options)
        assert [str(a) for a in logical.atoms] == atoms_after
        assert logical.assignment is assignment_after
        assert all(not r.changed for r in logical.trace.records)

    def test_plan_phase_stable_on_rerun(self):
        catalog = catalog_with_edges([[0, 1], [0, 2], [1, 2]])
        options = OptimizerOptions()
        logical = optimize_rule(
            parse_rule("T(x,y,z) :- E(x,y),E(y,z),E(x,z),E(x,0)."),
            catalog, options)
        plan_rule(logical, options)
        first = (logical.ghd.width(), logical.ghd.n_nodes,
                 len(logical.duplicates), logical.global_order)
        plan_rule(logical, options)
        second = (logical.ghd.width(), logical.ghd.n_nodes,
                  len(logical.duplicates), logical.global_order)
        assert first == second


class TestGHDChoice:
    def test_real_cardinalities_in_trace(self):
        catalog = catalog_with_edges([[0, 1], [0, 2], [1, 2]])
        logical = optimize("T(x,y,z) :- E(x,y),E(y,z),E(x,z).", catalog)
        ghd = [r for r in logical.trace.records if r.name == "ghd_choice"]
        assert any("cardinalities: " in d and "E=3" in d
                   for d in ghd[0].details)

    def test_default_size_fallback_warns_once_and_counts(self):
        metrics = MetricsRegistry()
        _default_size_warned[0] = False
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                _report_default_sizes(2, metrics)
                _report_default_sizes(1, metrics)
            assert len(caught) == 1
            assert issubclass(caught[0].category, RuntimeWarning)
            assert "DEFAULT_SIZE" in str(caught[0].message)
            assert metrics.counters["ghd.default_size_uses"].value == 3
        finally:
            _default_size_warned[0] = True


class TestGHDBandMemo:
    TRIANGLE = "T(x,y,z) :- E(x,y),E(y,z),E(x,z)."

    @staticmethod
    def ghd_detail(logical):
        (record,) = [r for r in logical.trace.records
                     if r.name == "ghd_choice"]
        return "\n".join(record.details)

    def test_same_band_reuses_decomposition(self):
        catalog = catalog_with_edges([[0, 1], [0, 2], [1, 2], [2, 0]])
        memo = {}
        first = optimize(self.TRIANGLE, catalog, ghd_memo=memo)
        assert "reused decomposition" not in self.ghd_detail(first)
        assert len(memo) == 1
        # One more row: cardinality 4 -> 5 stays in the same log2 band.
        catalog["E"] = Relation(
            "E", np.asarray([[0, 1], [0, 2], [1, 2], [2, 0], [1, 0]],
                            dtype=np.uint32))
        second = optimize(self.TRIANGLE, catalog, ghd_memo=memo)
        assert "reused decomposition" in self.ghd_detail(second)
        assert second.ghd.n_nodes == first.ghd.n_nodes
        assert second.ghd.width() == first.ghd.width()
        # Replayed nodes are fresh objects over the new hypergraph.
        assert second.ghd.root is not first.ghd.root
        assert not second.ghd.validate()

    def test_band_crossing_replans(self):
        catalog = catalog_with_edges([[0, 1], [0, 2], [1, 2]])
        memo = {}
        optimize(self.TRIANGLE, catalog, ghd_memo=memo)
        catalog["E"] = Relation(
            "E", np.asarray([[i, i + 1] for i in range(40)],
                            dtype=np.uint32))
        logical = optimize(self.TRIANGLE, catalog, ghd_memo=memo)
        assert "reused decomposition" not in self.ghd_detail(logical)
        assert len(memo) == 2

    def test_cardinality_overrides_join_the_key(self):
        # A cardinality hint must always force a fresh plan, even when
        # the real cardinalities stayed in band.
        catalog = catalog_with_edges([[0, 1], [0, 2], [1, 2]])
        memo = {}
        optimize(self.TRIANGLE, catalog, ghd_memo=memo)
        logical = optimize(self.TRIANGLE, catalog, ghd_memo=memo,
                           card_overrides={"E": 3})
        assert "reused decomposition" not in self.ghd_detail(logical)
        assert len(memo) == 2

    def test_disabled_without_a_memo(self):
        catalog = catalog_with_edges([[0, 1], [0, 2], [1, 2]])
        logical = optimize(self.TRIANGLE, catalog)
        assert "reused decomposition" not in self.ghd_detail(logical)


class TestSelectionPushdown:
    def test_duplicates_recorded(self):
        catalog = catalog_with_edges(
            [[0, 1], [0, 2], [1, 2], [2, 0]])
        logical = optimize(
            "Q(x,y,z) :- E(x,y),E(y,z),E(x,0).", catalog)
        assert logical.selected_vars == frozenset({"x"})

    def test_trace_renders_pipeline(self):
        catalog = catalog_with_edges([[0, 1], [0, 2], [1, 2]])
        logical = optimize("T(x,y,z) :- E(x,y),E(y,z),E(x,z).", catalog)
        text = logical.trace.describe()
        assert "logical plan (pass pipeline):" in text
        for name in ("build", "constant_folding", "attribute_pruning",
                     "ghd_choice", "selection_pushdown",
                     "attribute_order"):
            assert name in text


class TestLayeringChecker:
    """The CI script that enforces the four-layer import discipline."""

    @staticmethod
    def load_checker():
        root = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
        path = os.path.join(root, "tools", "check_layering.py")
        spec = importlib.util.spec_from_file_location("check_layering",
                                                      path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module, root

    def test_source_tree_is_clean(self):
        checker, root = self.load_checker()
        assert checker.check(os.path.join(root, "src")) == []

    def test_detects_lir_importing_engine(self, tmp_path):
        checker, _ = self.load_checker()
        package = tmp_path / "repro" / "lir"
        package.mkdir(parents=True)
        (package / "bad.py").write_text(
            "from repro.engine import RuleExecutor\n")
        violations = checker.check(str(tmp_path))
        assert len(violations) == 1
        assert "repro.lir.bad imports repro.engine" in violations[0]

    def test_detects_library_importing_tests(self, tmp_path):
        checker, _ = self.load_checker()
        package = tmp_path / "repro" / "fuzz"
        package.mkdir(parents=True)
        (package / "runner.py").write_text(
            "def late():\n    from tests import reference\n")
        (tmp_path / "repro" / "api.py").write_text("import tests.conftest\n")
        violations = checker.check(str(tmp_path))
        assert len(violations) == 2
        assert "repro.api imports tests.conftest" in violations[0]
        assert "repro.fuzz.runner imports tests (forbidden: repro may " \
            "not depend on tests)" in violations[1]

    def test_detects_engine_importing_the_oracle(self, tmp_path):
        checker, _ = self.load_checker()
        engine = tmp_path / "repro" / "engine"
        engine.mkdir(parents=True)
        (engine / "recursion.py").write_text(
            "def late():\n    from .oracle import OracleExecutor\n")
        (engine / "oracle.py").write_text(
            "from .executor import RuleExecutor\n")
        (tmp_path / "repro" / "api.py").write_text(
            "from .engine.oracle import executor_for\n")
        violations = checker.check(str(tmp_path))
        assert len(violations) == 1
        assert "repro.engine.recursion imports repro.engine.oracle" \
            in violations[0]

    def test_detects_relative_escape(self, tmp_path):
        checker, _ = self.load_checker()
        package = tmp_path / "repro" / "lir"
        package.mkdir(parents=True)
        (package / "bad.py").write_text(
            "def late():\n    from ..engine import executor\n")
        violations = checker.check(str(tmp_path))
        assert len(violations) == 1

    def test_allows_engine_importing_lir(self, tmp_path):
        checker, _ = self.load_checker()
        package = tmp_path / "repro" / "engine"
        package.mkdir(parents=True)
        (package / "fine.py").write_text("from ..lir import plan_rule\n")
        assert checker.check(str(tmp_path)) == []


    @staticmethod
    def engine_tree(tmp_path, **sources):
        package = tmp_path / "repro" / "engine"
        package.mkdir(parents=True)
        for name, text in sources.items():
            (package / (name + ".py")).write_text(text)
        return str(tmp_path)

    def test_kernels_may_share_result_types_with_the_oracle(self, tmp_path):
        checker, _ = self.load_checker()
        tree = self.engine_tree(
            tmp_path,
            fused="from .generic_join import BagResult, empty_bag_result\n",
            codegen="from .fused import FusedBagKernel\n"
                    "from repro.engine.generic_join import BagResult\n",
            generic_join="from .semiring import EXISTS\n",
            executor="from .generic_join import BagInput, BagResult, "
                     "empty_bag_result\n",
            oracle="from .executor import RuleExecutor\n"
                   "from .generic_join import BagInput, evaluate_bag\n")
        assert checker.check(tree) == []

    @pytest.mark.parametrize("module,text,what", [
        ("fused", "from .generic_join import BagEvaluator\n",
         "BagEvaluator"),
        ("fused", "def late():\n    from . import generic_join\n",
         "the module"),
        ("codegen", "import repro.engine.generic_join\n", "the module"),
        ("generic_join", "from .fused import FusedBagKernel\n",
         "FusedBagKernel"),
        ("generic_join", "from .codegen import generate_bag_plan\n",
         "generate_bag_plan"),
        ("executor", "from .generic_join import BagEvaluator\n",
         "BagEvaluator"),
        ("executor", "from .generic_join import evaluate_bag\n",
         "evaluate_bag"),
    ])
    def test_detects_kernel_and_oracle_sharing_code(self, tmp_path, module,
                                                    text, what):
        checker, _ = self.load_checker()
        violations = checker.check(
            self.engine_tree(tmp_path, **{module: text}))
        assert len(violations) == 1
        assert "repro.engine.%s imports %s" % (module, what) \
            in violations[0]
        assert "oracle independence" in violations[0]

    @pytest.mark.parametrize("text,what", [
        ("from .executor import RuleExecutor\n", "RuleExecutor"),
        ("from . import executor\n", "the module"),
    ])
    def test_recursion_takes_nothing_from_the_executor(self, tmp_path,
                                                       text, what):
        checker, _ = self.load_checker()
        violations = checker.check(
            self.engine_tree(tmp_path, recursion=text))
        assert len(violations) == 1
        assert "repro.engine.recursion imports %s" % what \
            in violations[0]
        assert "one executor door" in violations[0]

    @pytest.mark.parametrize("module,text", [
        ("__init__", "from .generic_join import BagInput, evaluate_bag\n"),
        ("incremental", "from repro.engine import evaluate_bag\n"),
        ("memo", "from . import oracle\n"),
    ])
    def test_detects_a_second_oracle_door(self, tmp_path, module, text):
        checker, _ = self.load_checker()
        violations = checker.check(
            self.engine_tree(tmp_path, **{module: text}))
        assert len(violations) == 1
        assert "one oracle door" in violations[0]


class TestValidationOrder:
    """Empty guards short-circuit before unbound-head errors (the old
    executor behaved this way; the split must preserve it)."""

    def test_empty_guard_beats_unbound_head(self):
        from repro.engine import EngineConfig
        from repro.engine.oracle import executor_for
        catalog = catalog_with_edges([[0, 1]])
        executor = executor_for(catalog, EngineConfig())
        out = executor.execute(parse_rule("Q(q) :- E(x,y),E(9,9)."))
        assert out.cardinality == 0

    def test_unbound_head_still_raises(self):
        from repro.engine import EngineConfig
        from repro.engine.oracle import executor_for
        from repro.errors import PlanError
        catalog = catalog_with_edges([[0, 1]])
        executor = executor_for(catalog, EngineConfig())
        with pytest.raises(PlanError):
            executor.execute(parse_rule("Q(q) :- E(x,y)."))
