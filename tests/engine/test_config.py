"""Unit tests for EngineConfig and ablation plumbing."""

from dataclasses import fields, replace

import pytest

from repro import Ablation, Database
from repro.ablation import LEVELS
from repro.cli import main
from repro.engine import EngineConfig
from repro.engine.plan_cache import config_signature
from repro.errors import ExecutionError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.query import parse_rule
from repro.sets.cost import OpCounter

TRIANGLE = "T(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>."


class TestConfig:
    def test_paper_defaults(self):
        ablation = EngineConfig().ablation
        assert ablation == Ablation()
        assert ablation.layout_level == "set"       # §4.4's choice
        assert ablation.simd
        assert ablation.adaptive_algorithms
        assert ablation.use_ghd
        assert ablation.push_selections
        assert ablation.eliminate_redundant_bags
        assert ablation.skip_top_down

    def test_ablated_copies(self):
        base = EngineConfig()
        no_layouts = base.ablated(layout_level="uint_only")
        assert no_layouts.ablation.layout_level == "uint_only"
        assert base.ablation.layout_level == "set"  # original untouched
        assert no_layouts.counter is not base.counter

    def test_ra_ablation(self):
        """The paper's "-RA": no layout choices AND no algorithm
        adaptivity."""
        config = EngineConfig().ablated(layout_level="uint_only",
                                        adaptive_algorithms=False)
        assert config.ablation.layout_level == "uint_only"
        assert not config.ablation.adaptive_algorithms
        assert config.ablation.simd  # -RA keeps vectorized kernels

    def test_ablated_routes_flat_names_over_a_given_ablation(self):
        config = EngineConfig().ablated(
            ablation=Ablation(use_ghd=False), simd=False,
            execution_mode="compiled")
        assert config.ablation == Ablation(use_ghd=False, simd=False)
        assert config.execution_mode == "compiled"

    def test_ablation_is_frozen(self):
        with pytest.raises(AttributeError):
            Ablation().simd = False

    def test_counters_start_clean(self):
        assert EngineConfig().counter.total_ops == 0


class TestRejectedAtConstruction:
    """A bad switch fails where it is given, before any data loads."""

    def test_cli_layout_level_is_an_argparse_choice(self, capsys,
                                                    monkeypatch):
        def no_load(name):
            raise AssertionError("loaded %s before rejecting" % name)
        monkeypatch.setattr("repro.cli.load_dataset", no_load)
        with pytest.raises(SystemExit) as exit_info:
            main(["query", "--dataset", "patents", "--layout-level",
                  "bogus", TRIANGLE])
        assert exit_info.value.code == 2
        assert "--layout-level" in capsys.readouterr().err

    def test_layout_level(self):
        with pytest.raises(ValueError, match="unknown optimizer level"):
            Ablation(layout_level="bogus")
        with pytest.raises(ValueError, match="unknown optimizer level"):
            Database(layout_level="bogus")

    def test_execution_mode_from_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTION_MODE", "bogus")
        with pytest.raises(ExecutionError,
                           match="unknown execution_mode 'bogus'"):
            EngineConfig()
        with pytest.raises(ExecutionError):
            Database()


def _flipped(name):
    """A non-default value of the ablation switch ``name``."""
    default = getattr(Ablation(), name)
    return "uint_only" if name == "layout_level" else not default


class TestFlatNames:
    """Each switch's flat keyword lands in the ablation and nowhere
    else."""

    @pytest.mark.parametrize("name", [f.name for f in fields(Ablation)])
    def test_database_routes_each_switch(self, name):
        config = Database(**{name: _flipped(name)}).config
        assert config.ablation == replace(Ablation(),
                                          **{name: _flipped(name)})
        assert not hasattr(config, name)

    @pytest.mark.parametrize("name", [f.name for f in fields(Ablation)])
    def test_ablated_routes_each_switch(self, name):
        base = EngineConfig(execution_mode="compiled")
        config = base.ablated(**{name: _flipped(name)})
        assert config.ablation == replace(Ablation(),
                                          **{name: _flipped(name)})
        assert base.ablation == Ablation()
        assert config.execution_mode == "compiled"
        assert len({base.ablation, config.ablation}) == 2

    @pytest.mark.parametrize("level", LEVELS)
    def test_every_layout_level_is_accepted(self, level):
        assert Ablation(layout_level=level).layout_level == level
        assert Database(layout_level=level).config.ablation.layout_level \
            == level


class TestSignatureIsComplete:
    """The plan cache keys on every switch and on nothing else."""

    @staticmethod
    def warm_executor():
        db = Database(execution_mode="compiled")
        db.load_graph("Edge", [(0, 1), (1, 2), (0, 2), (2, 3)])
        executor = db._executor
        rule = parse_rule(TRIANGLE)
        executor.execute(rule)
        assert executor.last_stats.plan_cache_misses == 1
        return executor, rule

    @pytest.mark.parametrize("name", [f.name for f in fields(Ablation)])
    def test_every_switch_misses_the_plan_cache(self, name):
        executor, rule = self.warm_executor()
        base = executor.config
        executor.config = base.ablated(**{name: _flipped(name)})
        assert config_signature(executor.config) != config_signature(base)
        executor.execute(rule)
        assert executor.last_stats.plan_cache_misses == 1
        assert executor.last_stats.plan_cache_hits == 0

    @pytest.mark.parametrize("name, value", [
        ("tracer", Tracer()), ("metrics", MetricsRegistry()),
        ("telemetry", object()), ("counter", OpCounter()),
        ("slow_query_seconds", 0.5), ("incremental_views", False)])
    def test_hooks_and_routes_stay_out(self, name, value):
        executor, rule = self.warm_executor()
        base = executor.config
        executor.config = replace(base, **{name: value})
        assert config_signature(executor.config) == config_signature(base)
        executor.execute(rule)
        assert executor.last_stats.plan_cache_hits == 1
        assert executor.last_stats.plan_cache_misses == 0


class TestSurface:
    """The configuration surface is pinned: a new knob, or one that
    comes back, is a visible edit to this file."""

    def test_field_names(self):
        assert [f.name for f in fields(EngineConfig)] == [
            "ablation", "execution_mode", "counter", "tracer", "metrics",
            "telemetry", "slow_query_seconds", "incremental_views"]
        assert len(fields(EngineConfig)) == 8
        assert [f.name for f in fields(Ablation)] == [
            "layout_level", "adaptive_algorithms", "simd", "use_ghd",
            "push_selections", "eliminate_redundant_bags",
            "skip_top_down", "prune_attributes", "fold_constants"]
        assert len(fields(Ablation)) == 9

    def test_cross_rule_cse_is_gone(self):
        """Folded into ``eliminate_redundant_bags``."""
        with pytest.raises(TypeError):
            Database(cross_rule_cse=False)

    def test_cli_rejects_worker_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["query", "--dataset", "googleplus", "--workers", "2",
                  "T(;w:long) :- Edge(x,y); w=<<COUNT(*)>>."])
        assert exit_info.value.code == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["query", "--dataset", "googleplus", "--adaptive",
          "T(;w:long) :- Edge(x,y); w=<<COUNT(*)>>."], "--adaptive"),
        (["query", "--dataset", "googleplus", "--tuning-profile", "f",
          "T(;w:long) :- Edge(x,y); w=<<COUNT(*)>>."], "--tuning-profile"),
        (["tune"], "tune"),
    ], ids=["adaptive", "tuning-profile", "tune"])
    def test_cli_rejects_tuner_surface(self, capsys, argv, flag):
        """The kernel's constants are not settings: no flag, profile or
        subcommand reaches them."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert flag in capsys.readouterr().err
