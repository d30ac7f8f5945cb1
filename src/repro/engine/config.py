"""Engine configuration: the feature switches the paper ablates.

Every optimization the paper measures can be toggled here, which is how
``benchmarks/bench_table08_patterns.py`` reproduces the "-R", "-RA" and
"-GHD" columns of Table 8, and the tests the ablations of Tables 4, 11
and 13 ("-S", push-down off).

The planner switches (``use_ghd``, ``push_selections``, the rewrite
passes) apply to both execution modes.  The set-level switches —
``layout_level``, ``adaptive_algorithms`` and ``simd`` — decide how
the *interpreter* lays out and intersects sets; the default engine's
block kernels read the tries' flat sorted arrays and are indifferent
to them (they still shape the tries the interpreter's fast paths and
fallbacks see), so the paper's layout/SIMD/algorithm ablations are
measured with ``execution_mode="interpreted"``.

Dispatch constants are not switches: the kernel reads
``repro.engine.fused.BLOCK_ROWS`` and ``PROBE_CROSSOVER`` on every
call, as the paper's optimizer reads its fixed crossovers.
"""

import os
from dataclasses import dataclass, field
from typing import Optional

from ..sets.cost import OpCounter


def _default_execution_mode():
    """Default from ``REPRO_EXECUTION_MODE`` (CI runs the suite once
    with it set to ``interpreted``); ``compiled`` otherwise."""
    return os.environ.get("REPRO_EXECUTION_MODE", "compiled")


@dataclass
class EngineConfig:
    """Feature switches for one database / query execution.

    Attributes
    ----------
    layout_level:
        Granularity of the layout optimizer: ``"set"`` (paper default),
        ``"relation"``/``"uint_only"`` (the "-R" ablation), ``"block"``,
        or ``"bitset_only"``.
    adaptive_algorithms:
        Cardinality-skew algorithm switching (paper Algorithm 2); turning
        it off together with ``layout_level="uint_only"`` is the "-RA"
        ablation.
    simd:
        Vectorized kernels; ``False`` is the "-S" ablation (scalar merge
        loops).
    use_ghd:
        GHD query plans; ``False`` forces the single-node GHD
        (the Table 8 "-GHD" ablation, LogicBlox-style).
    push_selections:
        Push selections across GHD nodes (Appendix B.1.1); ``False`` is
        the Table 13 "-GHD" ablation.
    eliminate_redundant_bags:
        Reuse results of structurally identical bags (Appendix B.2).
    skip_top_down:
        Elide Yannakakis' top-down pass when the root already holds every
        head attribute (Appendix B.2).
    prune_attributes:
        Project away purely existential body attributes before GHD
        search (the :class:`repro.lir` attribute-pruning rewrite pass).
    fold_constants:
        Fold constant subexpressions of annotation assignments at
        optimization time (the constant-folding rewrite pass).
    cross_rule_cse:
        Extend redundant-bag elimination across the rules of one program
        via a program-scoped :class:`~repro.engine.memo.BagMemo`; only
        effective while ``eliminate_redundant_bags`` is on.
    execution_mode:
        ``"compiled"`` (default) is the engine: every bag is lowered
        once to a :class:`~repro.engine.fused.FusedBagKernel` (paper
        §3.3) that evaluates it as numpy block operations, and parsed
        programs, plans and kernels are cached across executions —
        repeated queries skip parse, GHD search, and lowering entirely.
        Bag shapes the kernels do not cover fall back, counted, to the
        interpreter.  ``"interpreted"`` walks every bag with the
        generic :class:`~repro.engine.generic_join.BagEvaluator` and
        re-plans per run: the differential oracle, and the mode the
        layout/SIMD/algorithm ablations are measured in.  The default
        honors the ``REPRO_EXECUTION_MODE`` environment variable.
    counter:
        Simulated-SIMD op counter every kernel charges into.
    tracer:
        :class:`repro.obs.trace.Tracer` recording lifecycle spans, or
        ``None`` (default).  Hot paths gate on ``is not None``, so a
        disabled tracer costs nothing.  Not part of the plan-cache
        ``config_signature`` — tracing never changes results.
    metrics:
        :class:`repro.obs.metrics.MetricsRegistry` absorbing counters
        and histograms, or ``None`` (default).  Same gating and
        signature exemption as ``tracer``.
    telemetry:
        :class:`repro.obs.telemetry.TelemetryHub` receiving one query
        record per execution, or ``None`` (default).  ``Database.query``
        checks it once per query (never inside the execution loops) and
        takes its untouched fast path when unset, so telemetry off is
        free.  Like ``tracer``/``metrics`` it is excluded from
        ``config_signature`` — observation never changes plans or
        results.
    slow_query_seconds:
        Latency budget for slow-query promotion: a telemetry-recorded
        query exceeding it is re-executed fully traced on its next run
        and the trace archived.  ``None`` disables promotion.  Also
        signature-exempt.
    incremental_views:
        Maintain materialized views (``Database.materialize``) by
        semi-naive delta evaluation when the mutation history permits
        (insert-only, journal intact, delta-capable rule shape); off,
        every refresh recomputes the view from scratch.  Results are
        identical either way — the switch only trades refresh cost —
        so it stays out of ``config_signature``
        and doubles as a differential-fuzzing axis.
    """

    layout_level: str = "set"
    adaptive_algorithms: bool = True
    simd: bool = True
    use_ghd: bool = True
    push_selections: bool = True
    eliminate_redundant_bags: bool = True
    skip_top_down: bool = True
    prune_attributes: bool = True
    fold_constants: bool = True
    cross_rule_cse: bool = True
    execution_mode: str = field(default_factory=_default_execution_mode)
    counter: OpCounter = field(default_factory=OpCounter)
    tracer: Optional[object] = None
    metrics: Optional[object] = None
    telemetry: Optional[object] = None
    slow_query_seconds: Optional[float] = None
    incremental_views: bool = True

    def ablated(self, **changes):
        """Copy of this config with some switches flipped."""
        from dataclasses import replace
        return replace(self, counter=OpCounter(), **changes)


def enumerate_config_matrix(full=False):
    """``(label, EngineConfig)`` pairs spanning the engine's execution
    paths, for differential testing (:mod:`repro.fuzz`).

    The first entry, ``interp``, is the oracle every other config is
    diffed against.  The default is a one-factor-at-a-time covering
    set: the default engine, every optimizer pass and set-layout level,
    and ``small-blocks`` — the default engine, which the fuzz runner
    executes with the kernel's block constants forced tiny (ten
    configs).
    ``full=True`` returns the cross product of the high-impact axes
    (execution mode × optimizer bundle × layout, sixteen configs) for
    deep/nightly runs.
    """
    def cfg(**overrides):
        return EngineConfig().ablated(**overrides)

    def interp(**overrides):
        return cfg(execution_mode="interpreted", **overrides)

    def default(**overrides):
        return cfg(execution_mode="compiled", **overrides)

    if not full:
        return [
            ("interp", interp()),
            ("default", default()),
            ("no-prune", default(prune_attributes=False)),
            ("no-fold", default(fold_constants=False)),
            ("no-cse", default(cross_rule_cse=False,
                               eliminate_redundant_bags=False)),
            ("no-ghd", default(use_ghd=False, push_selections=False,
                               skip_top_down=False)),
            ("uint-only", interp(layout_level="uint_only", simd=False,
                                 adaptive_algorithms=False)),
            ("bitset-only", interp(layout_level="bitset_only")),
            ("block", interp(layout_level="block")),
            ("small-blocks", default()),
        ]
    matrix = []
    for mode in ("interpreted", "compiled"):
        for opt_label, opt in (
                ("opt", {}),
                ("noopt", dict(prune_attributes=False,
                               fold_constants=False,
                               cross_rule_cse=False,
                               eliminate_redundant_bags=False,
                               push_selections=False,
                               skip_top_down=False))):
            for layout in ("set", "uint_only", "bitset_only", "block"):
                label = "%s-%s-%s" % (mode, opt_label, layout)
                matrix.append((label, cfg(
                    execution_mode=mode, layout_level=layout, **opt)))
    return matrix


def enumerate_mutation_matrix():
    """``(label, EngineConfig)`` pairs for the mutation fuzzer
    (:mod:`repro.fuzz` with ``--mutations``).

    Smaller than :func:`enumerate_config_matrix` — mutation cases run
    an interleaved op *sequence* per config, so each config is several
    times the work of a one-shot case — but it still spans the axes
    incremental maintenance interacts with: the interpreted oracle vs
    the default engine (versioned plan guards), and
    ``incremental_views=False`` (the full-recompute route as its own
    differential axis).
    """
    def cfg(**overrides):
        return EngineConfig().ablated(**overrides)

    return [
        ("interp", cfg(execution_mode="interpreted")),
        ("default", cfg(execution_mode="compiled")),
        ("full-recompute", cfg(execution_mode="interpreted",
                               incremental_views=False)),
    ]
