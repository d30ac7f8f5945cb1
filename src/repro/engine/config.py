"""Engine configuration: the ablation switches plus the run's hooks.

An :class:`EngineConfig` holds one :class:`~repro.ablation.Ablation` —
the nine plan and kernel switches the paper ablates, frozen, and the
plan cache's config signature as it stands — next to what is not a
switch: the execution mode, the op counter, the observation hooks and
the view-maintenance route.  ``EngineConfig.ablated`` and
``Database(**overrides)`` take the switches by their flat names
(``layout_level="uint_only"``) and route them into the value.

The planner switches (``use_ghd``, ``push_selections``, the rewrite
passes) apply to both engines.  The set-level switches —
``layout_level``, ``adaptive_algorithms`` and ``simd`` — decide how
the *interpreter* (:mod:`repro.engine.oracle`) lays out and intersects
sets.  The default engine's block kernels read the tries' flat sorted
arrays: ``layout_level`` only picks their probe routes (a bitset root
answers through a rank table, a dense child level through a bit
table), never the answer or the op count, so the paper's
layout/SIMD/algorithm ablations are measured with
``execution_mode="interpreted"``.

Dispatch constants are not switches: the kernel reads
``repro.engine.fused.BLOCK_ROWS`` and ``PROBE_CROSSOVER`` on every
call, as the paper's optimizer reads its fixed crossovers.
"""

import os
from dataclasses import dataclass, field, fields, replace
from typing import Optional

from ..ablation import Ablation
from ..errors import ExecutionError
from ..sets.cost import OpCounter

#: The two engines: the default one and the interpreted oracle.
EXECUTION_MODES = ("compiled", "interpreted")

#: Flat keyword names :meth:`EngineConfig.ablated` routes into
#: :attr:`EngineConfig.ablation`.
SWITCHES = frozenset(f.name for f in fields(Ablation))


def _default_execution_mode():
    """Default from ``REPRO_EXECUTION_MODE`` (CI runs the suite once
    with it set to ``interpreted``); ``compiled`` otherwise."""
    return os.environ.get("REPRO_EXECUTION_MODE", "compiled")


@dataclass
class EngineConfig:
    """Switches and hooks for one database / query execution.

    Attributes
    ----------
    ablation:
        The plan and kernel switches (:class:`~repro.ablation.Ablation`);
        code reads them as ``config.ablation.<name>``.
    execution_mode:
        ``"compiled"`` (default) is the engine: every bag is lowered
        once to a :class:`~repro.engine.fused.FusedBagKernel` (paper
        §3.3) that evaluates it as numpy block operations, and parsed
        programs, plans and kernels are cached across executions —
        repeated queries skip parse, GHD search, and lowering entirely.
        ``"interpreted"`` runs :class:`~repro.engine.oracle.
        OracleExecutor`, which walks every bag with the generic
        :class:`~repro.engine.generic_join.BagEvaluator` and re-plans
        per run: the differential oracle, and the mode the
        layout/SIMD/algorithm ablations are measured in.  The default
        honors the ``REPRO_EXECUTION_MODE`` environment variable.
    counter:
        Simulated-SIMD op counter every kernel charges into.
    tracer:
        :class:`repro.obs.trace.Tracer` recording lifecycle spans, or
        ``None`` (default).  Hot paths gate on ``is not None``, so a
        disabled tracer costs nothing.
    metrics:
        :class:`repro.obs.metrics.MetricsRegistry` absorbing counters
        and histograms, or ``None`` (default).  Same gating as
        ``tracer``.
    telemetry:
        :class:`repro.obs.telemetry.TelemetryHub` receiving one query
        record per execution, or ``None`` (default).  ``Database.query``
        checks it once per query (never inside the execution loops) and
        takes its untouched fast path when unset, so telemetry off is
        free.
    slow_query_seconds:
        Latency budget for slow-query promotion: a telemetry-recorded
        query exceeding it is re-executed fully traced on its next run
        and the trace archived.  ``None`` disables promotion.
    incremental_views:
        Maintain materialized views (``Database.materialize``) by
        semi-naive delta evaluation when the mutation history permits
        (insert-only, journal intact, delta-capable rule shape); off,
        every refresh recomputes the view from scratch.  Results are
        identical either way — the switch only trades refresh cost —
        and it doubles as a differential-fuzzing axis.

    Nothing but ``ablation`` enters the plan cache's
    ``config_signature``: observation and refresh routes never change
    plans or results.
    """

    ablation: Ablation = Ablation()
    execution_mode: str = field(default_factory=_default_execution_mode)
    counter: OpCounter = field(default_factory=OpCounter)
    tracer: Optional[object] = None
    metrics: Optional[object] = None
    telemetry: Optional[object] = None
    slow_query_seconds: Optional[float] = None
    incremental_views: bool = True

    def __post_init__(self):
        if self.execution_mode not in EXECUTION_MODES:
            raise ExecutionError("unknown execution_mode %r"
                                 % (self.execution_mode,))

    def ablated(self, **changes):
        """Copy of this config with some switches flipped and a fresh
        counter; :data:`SWITCHES` names go into the ablation."""
        switches = {name: changes.pop(name) for name in SWITCHES
                    if name in changes}
        if switches:
            changes["ablation"] = replace(
                changes.get("ablation", self.ablation), **switches)
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
            ("no-cse", default(eliminate_redundant_bags=False)),
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
