"""Execution statistics for the parallel engine.

The paper reports end-to-end runtimes on 48 threads but gives no
visibility into *why* dynamic load balancing matters; this module makes
the skew argument measurable.  Every parallel bag evaluation records one
:class:`MorselStat` per morsel (which worker ran it, how long, how many
simulated lane ops it charged) plus queue-level counters (steals,
level-0 intersection cache hits).  :class:`ExecStats` aggregates them
into the numbers the benchmarks assert on — most importantly the
max/min worker-busy-time ratio, which is the straggler penalty a static
partitioner pays on power-law graphs and work stealing eliminates.
"""

from dataclasses import dataclass, field


@dataclass
class MorselStat:
    """One morsel's execution record.

    Attributes
    ----------
    index:
        Morsel id, in ascending level-0 candidate order.
    worker:
        Worker that executed the morsel (0-based; serial runs use 0).
    size:
        Number of level-0 candidate values in the morsel.
    cost:
        The scheduler's degree-based cost estimate for the morsel.
    seconds:
        Wall-clock seconds the morsel took inside the worker.
    lane_ops:
        Simulated SIMD+scalar ops the morsel charged into the worker's
        :class:`~repro.sets.cost.OpCounter` copy.
    stolen:
        True when the executing worker differs from the morsel's home
        worker under the static round-robin assignment — i.e. the
        morsel was pulled off the shared queue by an idle worker.
    started:
        ``time.perf_counter()`` timestamp at which the worker began the
        morsel (CLOCK_MONOTONIC, comparable across forked processes).
        0.0 when the executor predates lane attribution.
    """

    index: int
    worker: int
    size: int
    cost: float
    seconds: float
    lane_ops: int = 0
    stolen: bool = False
    started: float = 0.0


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
    """Aggregated execution statistics of one (possibly parallel) query.

    Exposed as ``Database.last_stats`` after every query that engaged
    the parallel executor; ``mode`` records what actually ran:

    ``"forked"``
        Morsels drained from the shared queue by forked workers.
    ``"inline"``
        Morsel loop executed in-process (fork unavailable).
    ``"serial"``
        Parallelism was requested but the bag fell below
        ``parallel_threshold`` (or a single morsel remained).
    ``"fast-path"``
        The bag needed no join work (an empty input, an identity
        scan) and was answered before any morsel was cut.
    """

    strategy: str = "steal"
    workers: int = 1
    mode: str = "serial"
    morsels: list = field(default_factory=list)
    #: Level-0 intersection memo hits/misses during this execution.
    level0_cache_hits: int = 0
    level0_cache_misses: int = 0
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
    #: Block-kernel invocations (one per serial bag call or per morsel
    #: routed through a :class:`~repro.engine.fused.FusedBagKernel`) —
    #: bag invocations, not the bounded slices a kernel cuts a level
    #: into.
    fused_blocks: int = 0
    #: Bags the default engine handed to the interpreter because the
    #: kernel does not cover their *shape* (an input of arity above
    #: two, a semiring without a block fold).  Size never causes one.
    fused_fallbacks: int = 0
    #: Rounds the recursion driver ran (one rule execution each, all
    #: accumulated into these counters); 0 for non-recursive programs.
    recursion_rounds: int = 0
    #: One :class:`RoundStat` per round, in order.
    rounds: list = field(default_factory=list)
    #: Payload bytes of trie/dictionary arrays served from the
    #: database's shared-memory arena during this execution (0 when
    #: ``shared_tries`` is off).
    shm_bytes_mapped: int = 0

    # -- recording ----------------------------------------------------------

    def record_morsel(self, index, worker, size, cost, seconds,
                      lane_ops=0, stolen=False, started=0.0):
        """Append one morsel's record."""
        self.morsels.append(MorselStat(index, worker, size, cost,
                                       seconds, lane_ops, stolen, started))

    def record_round(self, delta_in, produced, lane_ops, seconds):
        """Count one recursion round and append its record."""
        self.recursion_rounds += 1
        self.rounds.append(RoundStat(delta_in, produced, lane_ops, seconds))

    # -- derived numbers ----------------------------------------------------

    @property
    def n_morsels(self):
        return len(self.morsels)

    @property
    def steals(self):
        """Morsels executed by a worker other than their home worker."""
        return sum(1 for m in self.morsels if m.stolen)

    @property
    def worker_busy(self):
        """``{worker: total busy seconds}`` over recorded morsels."""
        busy = {}
        for morsel in self.morsels:
            busy[morsel.worker] = busy.get(morsel.worker, 0.0) \
                + morsel.seconds
        return busy

    @property
    def worker_ops(self):
        """``{worker: total simulated lane ops}`` (``repro.sets.cost``)."""
        ops = {}
        for morsel in self.morsels:
            ops[morsel.worker] = ops.get(morsel.worker, 0) + morsel.lane_ops
        return ops

    @property
    def stranded_workers(self):
        """Workers that never received a morsel in a multi-worker run."""
        if self.workers <= 1 or not self.morsels:
            return 0
        return max(0, self.workers - len(self.worker_busy))

    def busy_ratio(self):
        """Max/min per-worker busy time — the straggler penalty.

        1.0 is perfect balance.  Only workers that actually ran a
        morsel participate: dividing by a stranded worker's ~zero busy
        time would report a meaningless ~1e9 ratio, so stranded workers
        are counted separately (:attr:`stranded_workers`) and called
        out by :meth:`describe` instead of poisoning the ratio.
        """
        busy = self.worker_busy
        if not busy:
            return 1.0
        times = list(busy.values())
        slowest = max(times)
        fastest = min(times)
        if slowest <= 0.0:
            return 1.0
        return slowest / max(fastest, 1e-9)

    def morsel_time_ratio(self):
        """Max/min morsel wall time — how fine the cost model sliced."""
        if not self.morsels:
            return 1.0
        times = [max(m.seconds, 1e-9) for m in self.morsels]
        return max(times) / min(times)

    def level0_cache_rate(self):
        """Hit rate of the level-0 intersection memo (0.0 when unused)."""
        total = self.level0_cache_hits + self.level0_cache_misses
        return self.level0_cache_hits / total if total else 0.0

    # -- reporting ----------------------------------------------------------

    def describe(self):
        """Multi-line human-readable summary (used by the CLI)."""
        lines = ["execution mode: %s" % self.execution_mode]
        ran_parallel = bool(self.morsels) or self.mode in ("forked",
                                                           "inline")
        if ran_parallel:
            lines.append(
                "parallel execution: strategy=%s workers=%d mode=%s"
                % (self.strategy, self.workers, self.mode))
            lines.append("  morsels: %d  steals: %d"
                         % (self.n_morsels, self.steals))
            busy = self.worker_busy
            if busy:
                lines.append(
                    "  busy ratio (max/min worker): %.2f   "
                    "morsel time ratio: %.2f"
                    % (self.busy_ratio(), self.morsel_time_ratio()))
                if self.stranded_workers:
                    lines.append(
                        "  stranded workers: %d of %d never received "
                        "a morsel (excluded from busy ratio)"
                        % (self.stranded_workers, self.workers))
                ops = self.worker_ops
                for worker in sorted(busy):
                    lines.append(
                        "  worker %d: %.4fs busy, %d morsel(s), "
                        "%d lane ops"
                        % (worker, busy[worker],
                           sum(1 for m in self.morsels
                               if m.worker == worker),
                           ops.get(worker, 0)))
        elif self.mode == "fast-path":
            lines.append(
                "serial fast path: no join work (no morsels scheduled)")
        lines.append(
            "  level-0 intersection cache: %d hit(s), %d miss(es)"
            % (self.level0_cache_hits, self.level0_cache_misses))
        lines.append(
            "  trie cache: %d hit(s), %d miss(es)"
            % (self.trie_cache_hits, self.trie_cache_misses))
        if self.execution_mode == "compiled":
            lines.append(
                "compiled pipeline: plan cache %d hit(s)/%d miss(es), "
                "%d parse(s), %d GHD build(s), %d codegen run(s) "
                "(%d source reuse(s)), %d generated bag call(s)"
                % (self.plan_cache_hits, self.plan_cache_misses,
                   self.parses, self.ghd_builds, self.codegen_runs,
                   self.bag_codegen_reuses, self.compiled_bag_calls))
            lines.append(
                "  fused block kernels: %d invocation(s), "
                "%d interpreter fallback(s)"
                % (self.fused_blocks, self.fused_fallbacks))
            if self.recursion_rounds:
                lines.append("  recursion: %d round(s)"
                             % self.recursion_rounds)
        if self.shm_bytes_mapped:
            lines.append("  shared-memory tries: %d byte(s) mapped"
                         % self.shm_bytes_mapped)
        return "\n".join(lines)
