"""Unit tests for EngineConfig and ablation plumbing."""

from dataclasses import fields

import pytest

from repro.cli import main
from repro.engine import EngineConfig


class TestConfig:
    def test_paper_defaults(self):
        config = EngineConfig()
        assert config.layout_level == "set"       # §4.4's choice
        assert config.simd
        assert config.adaptive_algorithms
        assert config.use_ghd
        assert config.push_selections
        assert config.eliminate_redundant_bags
        assert config.skip_top_down

    def test_ablated_copies(self):
        base = EngineConfig()
        no_layouts = base.ablated(layout_level="uint_only")
        assert no_layouts.layout_level == "uint_only"
        assert base.layout_level == "set"          # original untouched
        assert no_layouts.counter is not base.counter

    def test_ra_ablation(self):
        """The paper's "-RA": no layout choices AND no algorithm
        adaptivity."""
        config = EngineConfig().ablated(layout_level="uint_only",
                                        adaptive_algorithms=False)
        assert config.layout_level == "uint_only"
        assert not config.adaptive_algorithms
        assert config.simd  # -RA keeps vectorized kernels

    def test_counters_start_clean(self):
        assert EngineConfig().counter.total_ops == 0


class TestSurface:
    """The configuration surface is pinned: a new knob, or one that
    comes back, is a visible edit to this file."""

    def test_field_names(self):
        assert [f.name for f in fields(EngineConfig)] == [
            "layout_level", "adaptive_algorithms", "simd", "use_ghd",
            "push_selections", "eliminate_redundant_bags",
            "skip_top_down", "prune_attributes", "fold_constants",
            "cross_rule_cse", "execution_mode", "counter", "tracer",
            "metrics", "telemetry", "slow_query_seconds",
            "incremental_views"]
        assert len(fields(EngineConfig)) == 17

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
