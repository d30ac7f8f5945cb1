"""Execution statistics of one query.

:class:`ExecStats` carries the counters ``Database.last_stats`` exposes
after a query — cache outcomes, the default engine's plan-cache and
kernel counters — and one :class:`RoundStat` per recursion round.
"""

from dataclasses import dataclass, field


@dataclass
class RoundStat:
    """One recursion round's record.

    Attributes
    ----------
    delta_in:
        Rows of the head relation the round read (the delta, or the
        whole accumulation of a round that cannot read a delta).
    produced:
        Rows the round's rule execution produced.
    lane_ops:
        Simulated lane ops the execution charged.
    seconds:
        Wall-clock seconds of the execution.
    changed:
        Rows the round made new or strictly better — the next round's
        delta; ``None`` for a ``*[i=k]`` round, which replaces the head.
    """

    delta_in: int
    produced: int
    lane_ops: int
    seconds: float
    changed: object = None


@dataclass
class ExecStats:
    """Aggregated execution statistics of one query, exposed as
    ``Database.last_stats``."""

    #: Trie cache hits/misses during this execution.
    trie_cache_hits: int = 0
    trie_cache_misses: int = 0
    #: Which executor ran: ``"compiled"`` (the default engine) or
    #: ``"interpreted"`` (the oracle).
    execution_mode: str = "interpreted"
    #: Default-engine counters — the plan-cache acceptance tests assert
    #: that a repeated query performs zero parses/GHD builds/lowerings.
    #: ``compiled_bag_calls`` counts bags the default engine evaluated
    #: itself (not answered by a memo or a whole-bag fast path).
    parses: int = 0
    ghd_builds: int = 0
    codegen_runs: int = 0
    bag_codegen_reuses: int = 0
    compiled_bag_calls: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    #: Block-kernel invocations (one per bag call routed through a
    #: :class:`~repro.engine.fused.FusedBagKernel`) — bag invocations,
    #: not the bounded slices a kernel cuts a level into.
    fused_blocks: int = 0
    #: Rounds the recursion driver ran (one rule execution each, all
    #: accumulated into these counters); 0 for non-recursive programs.
    recursion_rounds: int = 0
    #: One :class:`RoundStat` per round, in order.
    rounds: list = field(default_factory=list)

    # -- recording ----------------------------------------------------------

    def record_round(self, delta_in, produced, lane_ops, seconds):
        """Count one recursion round and append its record."""
        self.recursion_rounds += 1
        self.rounds.append(RoundStat(delta_in, produced, lane_ops, seconds))

    # -- reporting ----------------------------------------------------------

    def describe(self):
        """Multi-line human-readable summary (used by the CLI)."""
        lines = ["execution mode: %s" % self.execution_mode,
                 "  trie cache: %d hit(s), %d miss(es)"
                 % (self.trie_cache_hits, self.trie_cache_misses)]
        if self.execution_mode == "compiled":
            lines.append(
                "compiled pipeline: plan cache %d hit(s)/%d miss(es), "
                "%d parse(s), %d GHD build(s), %d codegen run(s) "
                "(%d source reuse(s)), %d generated bag call(s)"
                % (self.plan_cache_hits, self.plan_cache_misses,
                   self.parses, self.ghd_builds, self.codegen_runs,
                   self.bag_codegen_reuses, self.compiled_bag_calls))
            lines.append("  fused block kernels: %d invocation(s)"
                         % self.fused_blocks)
            if self.recursion_rounds:
                lines.append("  recursion: %d round(s)"
                             % self.recursion_rounds)
        return "\n".join(lines)
