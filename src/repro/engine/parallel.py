"""Skew-aware multi-core execution: morsel-driven work stealing.

The paper's engine runs every benchmark on 48 threads by splitting the
generic join's top-level attribute across workers with *dynamic load
balancing* — essential on power-law graphs, where a handful of hub
vertices own most of the join work.  A static split (one contiguous
chunk of level-0 values per worker) serializes on whichever worker drew
the hubs; this module instead:

1. estimates a per-candidate cost from the tries (the candidate's total
   child-set cardinality, i.e. its degree under the join),
2. packs candidates into many fine-grained *morsels* of roughly equal
   cost, isolating hub vertices in their own morsels,
3. pushes the morsels — largest first — onto a shared task queue, and
4. forks workers that pull morsels until the queue drains, so an idle
   worker steals work a loaded one would otherwise still be holding.

Workers are forked processes (Python threads would serialize on the
GIL).  The fork discipline is *share-then-fork*: the parent builds
every trie through the :class:`~repro.engine.executor.TrieCache`
before spawning, and children never construct tries themselves.  With
``EngineConfig.shared_tries`` the cache additionally places each
trie's bulk arrays into a
:class:`~repro.storage.arena.SharedTrieArena`, so children map the
same physical ``/dev/shm`` pages zero-copy — refcount updates touch
only the small ndarray view objects, never the payload pages.  Without
an arena, children fall back to plain copy-on-write reads of the
parent's heap (correct, but CPython refcounting progressively copies
the touched pages).  See ``docs/performance.md`` for the full
discipline.

:func:`evaluate_bag_parallel` is a drop-in replacement for
:func:`~repro.engine.generic_join.evaluate_bag` covering aggregate
*and* materializing heads (partial result arrays concatenate in
candidate order; level-0 partitions are disjoint, so no cross-worker
duplicates can arise).  ``RuleExecutor`` routes the largest bag of any
plan here when ``EngineConfig.parallel_workers > 1`` (handing over the
bag's block kernel under the default engine), which covers multi-bag
GHD plans and recursion for free.  :func:`parallel_count`
remains as the historical entry point for single-bag COUNT-style
queries.
"""

import multiprocessing
import os
import queue as queue_module
import time
import traceback

import numpy as np

from ..errors import ExecutionError, PlanError
from ..ghd.attribute_order import (bag_evaluation_order,
                                   global_attribute_order)
from ..ghd.decompose import decompose
from ..query.hypergraph import Hypergraph
from ..query.parser import parse_rule
from ..sets.intersect import intersect_many
from ..sets.uint import UintSet
from ..lir.build import normalize_atom
from .executor import eval_expression
from .generic_join import BagEvaluator, BagInput, BagResult
from .semiring import semiring_for
from .stats import ExecStats

#: Fork-shared state: set by the parent immediately before forking so
#: children inherit the tries (and the morsel value arrays) copy-on-write
#: instead of pickling them.  Always cleared in a ``finally`` — a worker
#: failure must not leave a stale spec behind.
_SHARED = {}

#: Poll interval while draining worker results; long enough to be cheap,
#: short enough to notice a dead worker quickly.
_POLL_SECONDS = 0.2


class Morsel:
    """One unit of schedulable work: a contiguous run of sorted level-0
    candidate values, its estimated cost, and the worker it would belong
    to under a static round-robin assignment (``home``) — executing on
    any other worker counts as a steal."""

    __slots__ = ("index", "values", "cost", "home")

    def __init__(self, index, values, cost, home=0):
        self.index = index
        self.values = values
        self.cost = cost
        self.home = home

    def __repr__(self):
        return "Morsel(#%d, %d values, cost=%.0f)" % (
            self.index, self.values.size, self.cost)


# -- morsel construction ------------------------------------------------------


def estimate_morsel_costs(candidates, inputs, level0_attr):
    """Per-candidate cost estimate from the tries' level-0 fan-out.

    For every input whose trie starts at the level-0 attribute, the
    candidate's child-set cardinality (its degree in that relation) is
    added; candidates a trie does not contain contribute nothing for it.
    The unit baseline keeps zero-degree candidates schedulable.
    """
    costs = np.ones(candidates.size, dtype=np.float64)
    for bag_input in inputs:
        if not bag_input.variables \
                or bag_input.variables[0] != level0_attr:
            continue
        root = bag_input.trie.root
        if root.children is None:
            continue
        keys = root.set.to_array()
        if keys.size == 0:
            continue
        cards = np.fromiter(
            (child.set.cardinality for child in root.children),
            dtype=np.float64, count=len(root.children))
        ranks = np.minimum(np.searchsorted(keys, candidates),
                           keys.size - 1)
        member = keys[ranks] == candidates
        costs += np.where(member, cards[ranks], 0.0)
    return costs


def build_morsels(candidates, costs, workers, morsels_per_worker):
    """Pack sorted candidates into contiguous, roughly equal-cost morsels.

    The target cost is ``total / (workers * morsels_per_worker)``.  A
    candidate whose own cost reaches the target (a hub vertex) is cut
    into its own morsel so it can never hide inside a bigger chunk —
    the skew handling that makes stealing effective on power-law
    graphs.
    """
    total = float(costs.sum())
    target = max(total / max(workers * morsels_per_worker, 1), 1.0)
    morsels = []

    def emit(start, stop, acc):
        morsels.append(Morsel(len(morsels), candidates[start:stop], acc))

    start = 0
    acc = 0.0
    for i in range(candidates.size):
        cost = float(costs[i])
        if cost >= target and i > start:
            # Flush the light run so the hub starts its own morsel.
            emit(start, i, acc)
            start, acc = i, 0.0
        acc += cost
        if acc >= target:
            emit(start, i + 1, acc)
            start, acc = i + 1, 0.0
    if start < candidates.size:
        emit(start, candidates.size, acc)
    return morsels


def _level0_candidates(inputs, order, config, cache=None):
    """Sorted array of level-0 candidate values for a bag.

    Uses the trie cache's memoized level-0 intersection when every
    participating trie is cache-owned (base relations); pass-up tries
    are transient, so their intersections are computed directly.
    """
    participating = [bag_input for bag_input in inputs
                     if bag_input.variables
                     and bag_input.variables[0] == order[0]]
    sets = [bag_input.trie.root.set for bag_input in participating]
    if cache is not None and participating and all(
            getattr(bag_input.trie, "_cache_owned", False)
            for bag_input in participating):
        return cache.level0_intersection(sets, config)
    if len(sets) == 1:
        return sets[0].to_array()
    return intersect_many(
        sets, counter=config.counter,
        algorithm=config.uint_algorithm,
        adaptive=config.adaptive_algorithms,
        simd=config.simd).to_array()


# -- worker bodies ------------------------------------------------------------


def _morsel_runner(spec):
    """Build the per-morsel evaluation closure for one schedule.

    All per-morsel dispatch — the kernel/interpreter branch, the spec
    dict lookups, the config fetch — is resolved *once* here, so the
    hot loop's per-morsel cost is one closure call plus the evaluation
    itself (with a block kernel, a handful of numpy block ops).
    """
    config = spec["config"]
    if spec.get("kernel") is not None:
        kernel, tries = spec["kernel"]

        def run(values):
            return kernel(tries, config,
                          restrict=UintSet.from_sorted(values))
        return run
    order = spec["order"]
    out_count = spec["out_count"]
    inputs = spec["inputs"]
    semiring = spec["semiring"]

    def run(values):
        return BagEvaluator(
            order, out_count, inputs, semiring, config,
            restrict_level0=UintSet.from_sorted(values)).run()
    return run


def _evaluate_morsel(spec, values):
    """Evaluate the shared bag restricted to one morsel's values.

    The bound runner is cached on the spec, so repeated calls pay one
    dict hit plus the closure call — and this function stays the
    monkeypatchable seam the failure-injection tests rely on.
    """
    run = spec.get("_runner")
    if run is None:
        run = spec["_runner"] = _morsel_runner(spec)
    return run(values)


def _pack(result, out_count):
    """Queue-transportable form of a partial :class:`BagResult`."""
    if out_count == 0:
        return ("scalar", result.scalar)
    return ("rows", result.data, result.annotations)


def _worker_main(worker_id, tasks, results):
    """Forked worker: pull morsel indexes until the sentinel arrives.

    Per-morsel wall time and lane-op deltas (from this process's
    copy-on-write :class:`~repro.sets.cost.OpCounter`) ride back with
    every result so the parent can attribute work per worker.

    When metrics are enabled, the worker's copy-on-write registry is
    reset at startup (child-local — the parent's instruments are
    untouched) so everything it accumulates is *this worker's* delta;
    the final state ships back with the ``done`` message and the
    parent merges it, labeled by lane, into the live registry.  Without
    this, hot-path observations made inside forked children
    (``intersection.size`` and friends) would be silently lost to
    copy-on-write.
    """
    spec = _SHARED["spec"]
    counter = spec["config"].counter
    morsels = spec["morsels"]
    metrics = getattr(spec["config"], "metrics", None)
    if metrics is not None and not getattr(metrics, "enabled", False):
        metrics = None
    if metrics is not None:
        metrics.reset()  # child copy starts from zero → state is a delta
    try:
        while True:
            index = tasks.get()
            if index is None:
                break
            values = morsels[index]
            ops_before = counter.total_ops
            start = time.perf_counter()
            result = _evaluate_morsel(spec, values)
            elapsed = time.perf_counter() - start
            # ``start`` rides along for lane attribution: perf_counter
            # is CLOCK_MONOTONIC on Linux, so the parent's tracer can
            # place this morsel on the worker's timeline directly.
            results.put(("ok", worker_id, index,
                         _pack(result, spec["out_count"]),
                         start, elapsed, counter.total_ops - ops_before))
    except Exception:
        results.put(("error", worker_id, traceback.format_exc()))
    finally:
        state = metrics.to_state() if metrics is not None else None
        results.put(("done", worker_id, state))


# -- drivers ------------------------------------------------------------------


def _run_forked(spec, schedule, workers, strategy, stats):
    """Fork ``workers`` processes and drain the morsel schedule.

    ``"steal"`` shares one task queue (idle workers pull whatever is
    next); ``"static"`` gives every worker a private queue holding
    exactly its home morsels, reproducing the straggler behaviour of
    the old ``np.array_split`` partitioner for comparison.

    Cleanup is unconditional: the fork-shared spec is popped and every
    surviving worker is terminated in a ``finally``, so a worker
    exception can never leak ``_SHARED`` state or zombie processes.
    """
    context = multiprocessing.get_context("fork")
    results = context.Queue()
    processes = []
    failures = []
    partials = {}
    by_index = {morsel.index: morsel for morsel in schedule}
    child_ops = 0
    tracer = getattr(spec["config"], "tracer", None)
    if tracer is not None and not tracer.enabled:
        tracer = None
    metrics = getattr(spec["config"], "metrics", None)
    if metrics is not None and not getattr(metrics, "enabled", False):
        metrics = None
    _SHARED["spec"] = spec
    try:
        if strategy == "static":
            task_queues = [context.Queue() for _ in range(workers)]
            for morsel in schedule:
                task_queues[morsel.home].put(morsel.index)
            for task_queue in task_queues:
                task_queue.put(None)
        else:
            shared_queue = context.Queue()
            for morsel in schedule:
                shared_queue.put(morsel.index)
            for _ in range(workers):
                shared_queue.put(None)
            task_queues = [shared_queue] * workers
        for worker_id in range(workers):
            process = context.Process(
                target=_worker_main,
                args=(worker_id, task_queues[worker_id], results),
                daemon=True)
            process.start()
            processes.append(process)
        done = 0
        while done < len(processes):
            try:
                message = results.get(timeout=_POLL_SECONDS)
            except queue_module.Empty:
                if not any(p.is_alive() for p in processes):
                    failures.append("worker process died unexpectedly")
                    break
                continue
            kind = message[0]
            if kind == "done":
                done += 1
                # Worker-side metric observations (a delta — the child
                # reset its copy-on-write registry at startup) merge
                # into the parent's live registry, attributed by lane.
                state = message[2] if len(message) > 2 else None
                if state is not None and metrics is not None:
                    metrics.merge_state(
                        state, labels={"lane": "worker-%d" % message[1]})
            elif kind == "error":
                failures.append(message[2])
            else:
                (_, worker_id, index, payload, started, elapsed,
                 ops) = message
                partials[index] = payload
                child_ops += ops
                morsel = by_index[index]
                stolen = worker_id != morsel.home
                stats.record_morsel(
                    index, worker_id, morsel.values.size, morsel.cost,
                    elapsed, ops, stolen=stolen, started=started)
                if tracer is not None:
                    tracer.record(
                        "morsel:%d" % index, "execute", started,
                        started + elapsed,
                        lane="worker-%d" % worker_id,
                        args={"size": int(morsel.values.size),
                              "ops": int(ops), "stolen": stolen})
    finally:
        _SHARED.pop("spec", None)
        for process in processes:
            if process.is_alive():
                process.terminate()
            process.join()
    if failures:
        raise ExecutionError("parallel worker failed:\n%s" % failures[0])
    if len(partials) != len(schedule):
        raise ExecutionError(
            "parallel execution lost %d morsel(s)"
            % (len(schedule) - len(partials)))
    if child_ops:
        # Children charge their own counter copies; fold the totals back
        # so the parent's op accounting covers the forked work.
        spec["config"].counter.charge("parallel_workers",
                                      scalar=child_ops)
    return partials


def _run_inline(spec, schedule, stats):
    """Morsel loop without forking (single effective worker, or the
    platform cannot fork).  Keeps the morsel granularity — and therefore
    the per-morsel stats — while paying zero fork/queue overhead."""
    partials = {}
    counter = spec["config"].counter
    # Hoisted out of the hot loop: when tracing is off the loop body
    # touches no span machinery at all (asserted zero-allocation by the
    # tracing micro-benchmark in tests/obs/test_trace.py).
    tracer = getattr(spec["config"], "tracer", None)
    if tracer is not None and not tracer.enabled:
        tracer = None
    for morsel in schedule:
        ops_before = counter.total_ops
        start = time.perf_counter()
        try:
            result = _evaluate_morsel(spec, morsel.values)
        except Exception:
            raise ExecutionError("parallel worker failed:\n%s"
                                 % traceback.format_exc())
        elapsed = time.perf_counter() - start
        ops = counter.total_ops - ops_before
        partials[morsel.index] = _pack(result, spec["out_count"])
        stats.record_morsel(morsel.index, 0, morsel.values.size,
                            morsel.cost, elapsed, ops, started=start)
        if tracer is not None:
            tracer.record("morsel:%d" % morsel.index, "execute", start,
                          start + elapsed, lane="worker-0",
                          args={"size": int(morsel.values.size),
                                "ops": int(ops)})
    return partials


def _combine(partials, out_count, eval_order, semiring):
    """Merge per-morsel partials into one :class:`BagResult`.

    Morsels partition the sorted level-0 candidates into disjoint
    contiguous runs, and (for materializing heads) level 0 is an output
    attribute — so concatenating partials in morsel-index order
    reproduces the serial evaluator's row order exactly, with no
    cross-worker duplicates to eliminate.
    """
    ordered = [partials[index] for index in sorted(partials)]
    if out_count == 0:
        total = semiring.zero
        for payload in ordered:
            total = semiring.plus(total, payload[1])
        return BagResult((), np.empty((0, 0), dtype=np.uint32),
                         scalar=total)
    datas = [payload[1] for payload in ordered]
    anns = [payload[2] for payload in ordered]
    data = np.concatenate(datas) if datas \
        else np.empty((0, out_count), dtype=np.uint32)
    if all(ann is None for ann in anns):
        annotations = None
    else:
        annotations = np.concatenate(
            [ann if ann is not None
             else np.ones(block.shape[0], dtype=np.float64)
             for ann, block in zip(anns, datas)]) if anns \
            else np.empty(0, dtype=np.float64)
    return BagResult(eval_order[:out_count], data,
                     annotations=annotations)


def evaluate_bag_parallel(eval_order, out_count, inputs, semiring, config,
                          workers=None, strategy=None, threshold=None,
                          morsels_per_worker=None, cache=None, stats=None,
                          kernel=None):
    """Drop-in replacement for
    :func:`~repro.engine.generic_join.evaluate_bag` that partitions the
    outermost loop across forked workers.

    Falls back to the serial evaluator when the bag needs no join
    work (an empty input, an identity scan), the candidate count is below
    ``threshold``, only one morsel remains, or ``workers <= 1``; the
    outcome is recorded in ``stats.mode`` either way.

    ``kernel`` is an optional ``(FusedBagKernel, tries)`` pair from the
    default engine: every morsel then runs the block kernel with its
    values as the level-0 ``restrict`` set (``None``: the interpreter
    evaluates the morsels).  Forked children inherit the kernel
    copy-on-write, so nothing is pickled.
    """
    workers = config.parallel_workers if workers is None else workers
    strategy = config.parallel_strategy if strategy is None else strategy
    if threshold is None:
        # Calibrated fork-cost threshold when a tuning profile is
        # active; plain config value otherwise (duck-typed so bare
        # config stand-ins in tests keep working).
        effective = getattr(config, "effective_parallel_threshold", None)
        threshold = effective() if callable(effective) \
            else config.parallel_threshold
    morsels_per_worker = config.parallel_morsels_per_worker \
        if morsels_per_worker is None else morsels_per_worker
    if stats is None:
        stats = ExecStats(strategy=strategy, workers=workers)
    probe = BagEvaluator(eval_order, out_count, inputs, semiring, config)
    fast = probe.try_fast_paths()
    if fast is not None:
        stats.mode = "fast-path"
        return fast

    def run_serial():
        if kernel is not None:
            stats.fused_blocks += 1
            run, tries = kernel
            return run(tries, config)
        return probe.run()

    candidates = _level0_candidates(inputs, eval_order, config, cache)
    if workers <= 1 or candidates.size < max(threshold, 2):
        stats.mode = "serial"
        return run_serial()
    if strategy == "static":
        chunks = [chunk for chunk
                  in np.array_split(candidates, workers) if chunk.size]
        schedule = [Morsel(i, chunk, float(chunk.size), home=i)
                    for i, chunk in enumerate(chunks)]
    else:
        costs = estimate_morsel_costs(candidates, inputs, eval_order[0])
        morsels = build_morsels(candidates, costs, workers,
                                morsels_per_worker)
        # Largest-first dispatch: heavy morsels start immediately, the
        # light tail backfills — the classic LPT schedule.
        schedule = sorted(morsels, key=lambda m: -m.cost)
    if len(schedule) <= 1:
        stats.mode = "serial"
        return run_serial()
    n_workers = min(workers, len(schedule))
    if strategy != "static":
        # Work stealing decouples worker count from partition count, so
        # never oversubscribe the machine: extra forks on a saturated
        # CPU only add timesharing and copy-on-write overhead.  (The
        # static strategy deliberately keeps the old one-fork-per-chunk
        # behaviour it reproduces.)
        n_workers = min(n_workers, _available_cpus())
        for position, morsel in enumerate(schedule):
            morsel.home = position % n_workers
    spec = {"order": tuple(eval_order), "out_count": out_count,
            "inputs": list(inputs), "semiring": semiring,
            "config": config, "kernel": kernel,
            "morsels": {m.index: m.values for m in schedule}}
    if kernel is not None:
        # One block-kernel invocation per morsel (forked workers charge
        # into copy-on-write stats, so the parent accounts up front).
        stats.fused_blocks += len(schedule)
    if n_workers > 1 and _can_fork():
        stats.mode = "forked"
        stats.workers = n_workers
        partials = _run_forked(spec, schedule, n_workers, strategy, stats)
    else:
        stats.mode = "inline"
        stats.workers = 1
        partials = _run_inline(spec, schedule, stats)
    return _combine(partials, out_count, eval_order, semiring)


# -- historical single-bag COUNT entry point ----------------------------------


def parallel_count(database, query_text, workers=2, strategy=None):
    """Run a COUNT-style single-bag aggregate query across ``workers``
    forked processes; returns the same scalar as ``database.query``.

    Kept as the direct entry point for empty-head aggregates (new code
    should prefer ``Database(parallel_workers=N).query(...)``, which
    also handles materializing heads and multi-bag plans).  Falls back
    to in-process evaluation when ``workers <= 1`` or the platform
    cannot fork.  The result preserves the aggregate's value type —
    integer-valued MIN/MAX/COUNT results are not coerced to ``float``.
    """
    rule = parse_rule(query_text)
    aggregates = rule.aggregates
    if rule.head_vars or rule.annotation is None or not aggregates \
            or (aggregates[0].op == "COUNT" and aggregates[0].arg != "*"):
        raise PlanError("parallel_count supports aggregate rules with an "
                        "empty head (COUNT(*)/SUM/MIN/MAX)")
    if rule.recursive:
        raise PlanError("parallel_count does not support recursion")
    semiring = semiring_for(aggregates[0].op)
    atoms = [normalize_atom(atom, database.catalog) for atom in rule.body]
    atoms = [a for a in atoms if a.variables]
    if any(a.relation.cardinality == 0 for a in atoms):
        return semiring.zero
    hypergraph = Hypergraph(atoms)
    ghd = decompose(hypergraph, use_ghd=False)  # one bag, by design
    order = bag_evaluation_order(
        ghd.root.chi, (), global_attribute_order(ghd))
    cache = database._trie_cache
    marks = (cache.hits, cache.misses, cache.level0_hits,
             cache.level0_misses)
    inputs = []
    for atom in atoms:
        ordered = tuple(a for a in order if a in atom.variables)
        key_order = tuple(atom.variables.index(a) for a in ordered)
        # Build-before-fork: tries come from the shared cache, in the
        # parent, so forked children only ever read them.
        trie = cache.get(atom.relation, key_order,
                         database.config.layout_level)
        inputs.append(BagInput(trie, ordered, annotated=atom.annotated,
                               name=atom.name))
    config = database.config
    strategy = config.parallel_strategy if strategy is None else strategy
    stats = ExecStats(strategy=strategy, workers=max(workers, 1))
    result = evaluate_bag_parallel(
        order, 0, inputs, semiring, config, workers=workers,
        strategy=strategy, threshold=2, cache=cache, stats=stats)
    stats.trie_cache_hits = cache.hits - marks[0]
    stats.trie_cache_misses = cache.misses - marks[1]
    stats.level0_cache_hits = cache.level0_hits - marks[2]
    stats.level0_cache_misses = cache.level0_misses - marks[3]
    database._executor.last_stats = stats
    value = eval_expression(rule.assignment, result.scalar,
                            dict(database._env))
    if isinstance(value, np.generic):
        value = value.item()
    return value


def _can_fork():
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - platform probing
        return False


def _available_cpus():
    """CPUs this process may actually run on (cgroup/affinity aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)
