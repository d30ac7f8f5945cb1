"""Public API: the :class:`Database` façade.

A :class:`Database` holds named relations and executes datalog-like
query programs through the full EmptyHeaded pipeline: parser → GHD
compiler → worst-case optimal execution engine.

>>> from repro import Database
>>> db = Database()
>>> _ = db.load_graph("Edge", [(0, 1), (1, 2), (0, 2)])
>>> db.query("T(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); "
...          "w=<<COUNT(*)>>.").scalar
6.0
"""

import os
import time

import numpy as np

from .engine.config import EngineConfig
from .engine.executor import TrieCache
from .engine.oracle import executor_for
from .engine.incremental import (MaterializedView, mark_stale,
                                 refresh_stale_views)
from .engine.memo import BagMemo
from .engine.plan_cache import PlanCache, config_signature
from .engine.recursion import execute_recursive, round_body
from .engine.stats import ExecStats
from .errors import SchemaError, UnknownRelationError
from .obs.metrics import MetricsRegistry, TIME_BUCKETS
from .obs.trace import Tracer, maybe_span
from .query.parser import parse
from .storage.dictionary import Dictionary
from .storage.ordering import order_nodes
from .storage.relation import Relation


class Result:
    """Outcome of a query: the last rule's output relation, decodable.

    Attributes
    ----------
    relation:
        The raw (dictionary-encoded) result
        :class:`~repro.storage.relation.Relation`.
    """

    def __init__(self, relation):
        self.relation = relation

    @property
    def count(self):
        """Number of result tuples."""
        return self.relation.cardinality

    @property
    def scalar(self):
        """The single annotation of a 0-ary (aggregate-to-scalar) result."""
        return self.relation.scalar_value

    @property
    def annotations(self):
        """Annotation array parallel to :meth:`tuples` (or ``None``)."""
        return self.relation.annotations

    def tuples(self):
        """Result tuples with dictionary decoding applied."""
        return self.relation.decoded_tuples()

    def _keys(self, rows=None):
        """Decoded keys (all, or those at ``rows``): tuples, or the
        bare values when unary."""
        if self.relation.arity == 1:
            return self.relation.decoded_columns(rows)[0]
        return self.relation.decoded_tuples(rows)

    def to_dict(self):
        """``{decoded key tuple: annotation}`` for annotated results.

        Unary keys collapse to bare values for convenience.
        """
        if self.relation.annotations is None:
            raise SchemaError("result carries no annotations")
        return dict(zip(self._keys(),
                        self.relation.annotations.tolist()))

    def __len__(self):
        return self.relation.cardinality

    def __iter__(self):
        return iter(self.relation.decoded_tuples())

    def top(self, k=10):
        """The ``k`` highest-annotated tuples as ``(key, value)`` pairs,
        keys decoded (convenience for ranking queries like PageRank)."""
        if self.relation.annotations is None:
            raise SchemaError("result carries no annotations")
        order = np.argsort(-self.relation.annotations)[:k]
        return list(zip(self._keys(order),
                        self.relation.annotations[order].tolist()))

    def __repr__(self):
        return "Result(%r)" % (self.relation,)


class Database:
    """An in-memory EmptyHeaded database instance.

    Parameters
    ----------
    config:
        Optional :class:`~repro.engine.config.EngineConfig`; keyword
        overrides (``layout_level=...``, ``simd=...``) are applied on
        top, so ``Database(layout_level="uint_only")`` is the "-R"
        ablated engine.
    ordering:
        Default node-ordering scheme for :meth:`load_graph`
        (paper Appendix A.1.1); ``"degree"`` is the standard.
    """

    def __init__(self, config=None, ordering="degree", seed=0, **overrides):
        self.config = config if config is not None else EngineConfig()
        if overrides:
            self.config = self.config.ablated(**overrides)
        self.default_ordering = ordering
        self.seed = seed
        self.catalog = {}
        self._env = {}
        self._dictionary = Dictionary()  # every encoded column's
        self._trie_cache = TrieCache()
        self._plan_cache = PlanCache()
        #: Materialized views by head name
        #: (:class:`~repro.engine.incremental.MaterializedView`).
        self._views = {}
        self._refreshing = False
        self._executor = executor_for(self.catalog, self.config,
                                      self._trie_cache, self._env,
                                      plan_cache=self._plan_cache)
        self._metrics = MetricsRegistry(enabled=False)
        self._tracer = None
        self._trace_path = None
        self._telemetry = None
        # telemetry hot-path memo: the config signature rarely
        # changes, so its digest is computed once per signature (a
        # rule's cache-key digest lives on its LogicalRule)
        self._signature_memo = {}
        trace_env = os.environ.get("REPRO_TRACE")
        if trace_env:
            # REPRO_TRACE=1 enables in-memory tracing; any other value
            # is the Chrome trace path rewritten after every query.
            path = None if trace_env.lower() in ("1", "true", "on") \
                else trace_env
            self.enable_tracing(path=path)
        telemetry_env = os.environ.get("REPRO_TELEMETRY")
        if telemetry_env:
            # REPRO_TELEMETRY=1 keeps the hub memory-only; any other
            # value is the telemetry directory (query log + dumps).
            directory = None if telemetry_env.lower() in ("1", "true",
                                                          "on") \
                else telemetry_env
            self.enable_telemetry(directory=directory)

    # -- loading --------------------------------------------------------------

    def add_relation(self, name, tuples, annotations=None,
                     combine="last", arity=None):
        """Register a relation from raw tuples (any hashable values).

        Values encode through the database's one dictionary, as
        :meth:`load_graph`'s do, so the same value has the same id in
        every relation and joins across relations meet equal values.
        Use :meth:`add_encoded` when the data is already dense
        ``uint32``.  Duplicate key tuples merge their annotations per
        ``combine`` (``"last"``, ``"sum"``, ``"min"``, or ``"max"`` —
        relations are sets, so pick the policy that matches the data's
        meaning, e.g. ``"max"`` for parallel edges keeping the best
        reliability).  ``arity`` pins the column count of an empty
        relation.
        """
        relation = Relation.from_tuples(name, tuples,
                                        annotations=annotations,
                                        dictionary=self._dictionary,
                                        arity=arity)
        relation = relation.deduplicated(combine)
        self._install(name, relation)
        return relation

    def add_encoded(self, name, data, annotations=None, combine="last"):
        """Register an already-encoded relation (``uint32`` matrix).

        Its columns carry no dictionary: they hold raw keys, which
        results decode to.  See :meth:`add_relation` for the duplicate
        ``combine`` policy.
        """
        relation = Relation(name, np.asarray(data, dtype=np.uint32),
                            annotations)
        relation = relation.deduplicated(combine)
        self._install(name, relation)
        return relation

    def add_scalar(self, name, value):
        """Register a 0-ary scalar relation usable in expressions."""
        relation = Relation.scalar(name, value)
        self._install(name, relation)
        return relation

    def load_graph(self, name, edges, undirected=True, ordering=None,
                   prune=False, seed=None):
        """Load a graph as a binary edge relation.

        Parameters
        ----------
        edges:
            Iterable of (src, dst) pairs of arbitrary hashable node ids.
        undirected:
            Store both directions of every edge (the paper's setting for
            PageRank/SSSP/Lollipop/Barbell).
        ordering:
            Node-ordering scheme (Appendix A.1.1); defaults to the
            database's ``ordering``.  It chooses the ids of the nodes
            new to the database dictionary, which follow every id
            already assigned; a node the database already holds keeps
            its id.  In an empty database the graph's ids are exactly
            the ordering's.
        prune:
            Apply symmetric filtering — keep only ``src_id < dst_id``
            under the chosen ordering (the standard preprocessing for
            triangle/4-clique counting, §5.2.1).
        """
        scheme = ordering if ordering is not None else self.default_ordering
        seed = self.seed if seed is None else seed
        local = {}  # node -> local id, in first-appearance order
        pairs = []
        for src, dst in edges:
            pairs.append((local.setdefault(src, len(local)),
                          local.setdefault(dst, len(local))))
        data = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        nodes = list(local)
        # encode in the ordering's rank order: a known node keeps its
        # code, and the new ones take the next codes in that order
        ranking = np.argsort(order_nodes(data, len(nodes), scheme=scheme,
                                         seed=seed)).tolist()
        codes = np.empty(len(nodes), dtype=np.uint32)
        codes[ranking] = [self._dictionary.encode(nodes[i])
                          for i in ranking]
        data = codes[data]
        if undirected:
            data = np.concatenate([data, data[:, ::-1]])
        if prune:
            data = data[data[:, 0] < data[:, 1]]
        relation = Relation(name, data,
                            dictionaries=[self._dictionary] * 2)
        relation = relation.deduplicated()
        self._install(name, relation)
        return relation

    def _install(self, name, relation):
        self._executor.install(name, relation)
        if relation.is_scalar() and relation.annotations is not None:
            self._env[name] = relation.scalar_value
        if self._views:
            mark_stale(self._views, name)

    # -- mutation -------------------------------------------------------------

    def append(self, name, tuples, annotations=None, combine="last"):
        """Append tuples to a stored relation *in place*.

        Values encode through the database dictionary (new values
        extend it); columns without a dictionary take raw ``uint32``
        ids.  Returns the number of rows that actually
        changed the relation — re-appending an existing row is a no-op
        (and leaves every cache warm) unless the relation is annotated
        and ``combine`` (``"last"``/``"sum"``/``"min"``/``"max"``,
        against the stored value) produces a different annotation.

        A real change bumps ``relation.version``: cached plans and
        tries for queries over this relation are surgically invalidated
        (everything else stays warm), the change batch is journalled
        for delta-patched trie rebuilds, and materialized views reading
        the relation are marked stale for refresh on their next use.
        """
        if name in self._views:
            raise SchemaError(
                "%s is a materialized view; mutate its base relations "
                "instead" % name)
        relation = self.relation(name)
        if relation.is_scalar():
            raise SchemaError("cannot append to scalar relation %s"
                              % name)
        rows = self._encode_rows(relation, tuples, skip_unknown=False)
        changed = relation.apply_append(rows, annotations, combine)
        if changed:
            self._note_mutation(name, relation, "append")
        return changed

    def delete(self, name, tuples):
        """Delete tuples from a stored relation *in place*.

        Tuples whose values never entered the database dictionary (or
        are absent from the relation) are ignored.  Returns the
        number of rows removed; a real removal has the same cache /
        journal / view-staleness effects as :meth:`append`.
        """
        if name in self._views:
            raise SchemaError(
                "%s is a materialized view; mutate its base relations "
                "instead" % name)
        relation = self.relation(name)
        if relation.is_scalar():
            raise SchemaError("cannot delete from scalar relation %s"
                              % name)
        rows = self._encode_rows(relation, tuples, skip_unknown=True)
        changed = relation.apply_delete(rows)
        if changed:
            self._note_mutation(name, relation, "delete")
        return changed

    def materialize(self, name, query):
        """Run ``query`` and register its last head as a materialized view.

        The defining program's last rule must define ``name``.  The
        view's result stays installed in the catalog; mutations to the
        relations it reads mark it stale, and the next :meth:`query` or
        :meth:`relation` call refreshes it — by semi-naive delta
        evaluation when the rule shape and mutation history allow it
        and its predicted cost is below a rerun's (see
        :mod:`repro.engine.incremental`), by re-running the program
        otherwise.  Returns the view's initial
        :class:`Result`.
        """
        program = parse(query)
        rules = list(program.rules)
        if not rules:
            raise SchemaError("materialize needs at least one rule")
        if rules[-1].head_name != name:
            raise SchemaError(
                "the last rule of a materialized view must define %r "
                "(got %r)" % (name, rules[-1].head_name))
        view = MaterializedView(name, query, rules)
        # other views refresh first, so the counter charges this run
        # alone: the rerun cost the view's refresh routing starts from
        refresh_stale_views(self)
        before = self.config.counter.total_ops
        result = self.query(query)
        view.full_ops = self.config.counter.total_ops - before
        view.capture(self.catalog)
        self._views[name] = view
        return result

    @property
    def views(self):
        """Registered materialized views by name (read-only mapping)."""
        return dict(self._views)

    def _encode_rows(self, relation, tuples, skip_unknown):
        """Encode raw tuples against a relation's column dictionaries.

        ``skip_unknown`` (the delete path) drops rows containing values
        the dictionaries never saw — such rows cannot be stored, so
        deleting them is a no-op.  The append path *extends* the
        dictionaries instead.
        """
        dictionaries = relation.dictionaries
        rows = []
        for index, record in enumerate(tuples):
            record = tuple(record)
            if len(record) != relation.arity:
                raise SchemaError(
                    "expected arity %d, got %d-tuple at row %d"
                    % (relation.arity, len(record), index))
            row = []
            known = True
            for column, value in enumerate(record):
                dictionary = None if dictionaries is None \
                    else dictionaries[column]
                if dictionary is None:
                    code = int(value)
                    if not 0 <= code < 2 ** 32:
                        if skip_unknown:
                            known = False
                            break
                        raise SchemaError(
                            "raw key %r out of uint32 range" % (value,))
                elif skip_unknown:
                    try:
                        code = dictionary.lookup(value)
                    except KeyError:
                        known = False
                        break
                else:
                    code = dictionary.encode(value)
                row.append(code)
            if known:
                rows.append(row)
        return np.asarray(rows, dtype=np.uint32).reshape(
            -1, relation.arity)

    def _note_mutation(self, name, relation, kind):
        """Post-mutation bookkeeping: views and metrics."""
        if self._views:
            mark_stale(self._views, name)
        metrics = self.config.metrics
        if metrics is not None:
            metrics.inc("mutation.batches", labels={"kind": kind})

    # -- querying -------------------------------------------------------------

    def query(self, text, _record_extra=None):
        """Execute a query program; returns the last rule's result.

        Intermediate heads (e.g. ``N`` and ``InvDeg`` in the paper's
        PageRank program) are installed into the database and remain
        available to later queries.

        Under the default engine parsed programs, compiled rules, and
        bag kernels are all cached, so a repeated query skips
        parse → GHD → lowering entirely (verifiable through the counters
        on :attr:`last_stats`); ``execution_mode="interpreted"`` re-plans
        every run on the set-at-a-time oracle.

        When tracing (:meth:`enable_tracing` / ``REPRO_TRACE``),
        metrics (:meth:`enable_metrics`), or telemetry
        (:meth:`enable_telemetry` / ``REPRO_TELEMETRY``) are on, the
        run is recorded; all are off by default and cost nothing when
        off — the telemetry check is a single ``is None`` test here,
        never inside the execution loops.

        ``_record_extra`` merges additional (schema-registered) fields
        into the telemetry record — the seam the query service uses to
        stamp ``result_cache`` / ``queue_seconds`` onto executed
        queries.  Ignored when telemetry is off.
        """
        if self._views and not self._refreshing:
            refresh_stale_views(self)
        telemetry = self.config.telemetry
        if telemetry is None:
            return self._query_plain(text)
        return self._query_telemetry(telemetry, text,
                                     extra=_record_extra)

    def _query_plain(self, text):
        """One query through the engine plus the per-query observers
        (tracer/metrics); the pre-telemetry ``query`` body."""
        tracer = self.config.tracer
        metrics = self.config.metrics
        marks = self.config.counter.snapshot() \
            if metrics is not None else None
        start = time.perf_counter()
        with maybe_span(tracer, "query", "query",
                        mode=self.config.execution_mode):
            result = self._run_program(text)
        if metrics is not None:
            self._record_query_metrics(metrics, marks,
                                       time.perf_counter() - start)
        if tracer is not None and tracer.enabled and self._trace_path:
            from .obs.export import write_chrome_trace
            write_chrome_trace(tracer, self._trace_path)
        return result

    def _query_telemetry(self, hub, text, extra=None):
        """Telemetry-wrapped execution: write-ahead journal, structured
        query record, lifetime aggregation, slow-query promotion.

        The in-flight record is journaled *before* execution (a process
        killed mid-query leaves it for :func:`repro.obs.flight.
        post_mortem`); on completion the record gains timings, cache
        tiers, and counters from the executor and is folded into the
        hub.  A query whose identity was flagged slow runs under a
        private tracer (the ``explain_analyze`` pattern) and its trace
        is archived next to the query log.
        """
        from .obs.telemetry import (QUERY_LOG_VERSION, key_digest,
                                    text_digest)
        sha = text_digest(text)
        signature = config_signature(self.config)
        signature_digest = self._signature_memo.get(signature)
        if signature_digest is None:
            signature_digest = self._signature_memo[signature] = \
                key_digest(signature)
        record = {
            "schema_version": QUERY_LOG_VERSION,
            "query_id": hub.next_query_id(),
            "ts": time.time(),
            "pid": os.getpid(),
            "status": "inflight",
            "text_sha": sha,
            "text": text if len(text) <= 2048 else text[:2048],
            "execution_mode": self.config.execution_mode,
            "config_signature": signature_digest,
        }
        if extra:
            record.update(extra)
        promoted = hub.should_trace(sha)
        own_tracer = None
        previous_tracer = self.config.tracer
        if promoted:
            record["promoted"] = True
            if previous_tracer is None:
                own_tracer = Tracer(capture_intersections=False)
                self.config.tracer = own_tracer
        hub.begin_query(record)
        start = time.perf_counter()
        try:
            result = self._query_plain(text)
        except Exception as error:
            record["elapsed_seconds"] = time.perf_counter() - start
            hub.fail_query(record, error)
            raise
        finally:
            if own_tracer is not None:
                self.config.tracer = previous_tracer
        record["elapsed_seconds"] = time.perf_counter() - start
        record["status"] = "ok"
        record["rows"] = int(result.count)
        logical = self._executor.last_logical
        if logical is not None:
            if logical.digest is None:
                logical.digest = key_digest(logical.cache_key())
            record["cache_key"] = logical.digest
        stats = self._executor.last_stats
        if stats is not None:
            hits = stats.plan_cache_hits
            misses = stats.plan_cache_misses
            if hits and not misses:
                record["plan_cache"] = "hit"
            elif misses and not hits:
                record["plan_cache"] = "miss"
            elif hits and misses:
                record["plan_cache"] = "partial"
            else:
                record["plan_cache"] = "n/a"
            record["plan_cache_hits"] = hits
            record["plan_cache_misses"] = misses
            record["fused_blocks"] = stats.fused_blocks
            if stats.recursion_rounds:
                record["recursion_rounds"] = stats.recursion_rounds
        else:
            record["plan_cache"] = "n/a"
        tracer = own_tracer if own_tracer is not None else previous_tracer
        if tracer is not None and tracer.enabled and len(tracer):
            record["phases"] = tracer.phase_seconds()
        if own_tracer is not None:
            path = hub.archive_trace(own_tracer, record)
            if path is not None:
                record["trace_path"] = path
        hub.record_query(record)
        return result

    def _program_memo(self):
        """A fresh cross-rule bag memo, or ``None`` when disabled.

        Installed on the executor for one program's duration so a bag
        that reappears in a later rule (same relations, same pattern,
        same selections and aggregation) reuses the earlier rule's
        result instead of re-joining.
        """
        if self.config.ablation.eliminate_redundant_bags:
            return BagMemo()
        return None

    def _run_program(self, text):
        """Run every rule of a program, installing each head.

        Under the default engine the parsed program comes from the
        plan cache and one :class:`~repro.engine.stats.ExecStats`
        accumulates across the rules, so multi-rule programs
        (PageRank's three rules) report their compilation work as a
        whole; the interpreted oracle parses and plans afresh.
        Recursive rules delegate to the recursion driver; every round
        is one rule execution accumulating into the same stats, and
        only a rule's first round compiles — later rounds re-bind the
        replaced head relation's trie into the cached plan.
        """
        tracer = self.config.tracer
        compiled = self.config.execution_mode != "interpreted"
        stats = rules = None
        if compiled:
            stats = ExecStats(execution_mode="compiled")
            key = (text, config_signature(self.config))
            rules = self._plan_cache.get_program(key)
        if rules is None:
            with maybe_span(tracer, "parse", "compile", chars=len(text)):
                rules = tuple(parse(text).rules)
            if compiled:
                stats.parses += 1
                self._plan_cache.put_program(key, rules)
        result_relation = None
        self._executor.program_memo = self._program_memo()
        try:
            for rule in rules:
                # Resolve decode dictionaries against the pre-execution
                # catalog: a recursive rule replaces its own head
                # relation mid-flight, which would otherwise lose them.
                head_dictionaries = self._head_dictionaries(rule)
                with maybe_span(tracer, "rule:%s" % rule.head_name,
                                "query"):
                    if rule.recursive:
                        result_relation = execute_recursive(
                            rule, self._executor, stats=stats)
                    else:
                        result_relation = self._executor.execute(rule,
                                                                 stats)
                if head_dictionaries is not None and result_relation.arity:
                    result_relation.dictionaries = head_dictionaries
                self._install(rule.head_name, result_relation)
        finally:
            self._record_memo_metrics(self._executor.program_memo)
            self._executor.program_memo = None
        if compiled:
            # every rule execution installed these already, but a
            # program can run none (a ``*[i=0]`` recursion)
            self._executor.last_stats = stats
        return Result(result_relation)

    def _record_memo_metrics(self, memo):
        metrics = self.config.metrics
        if memo is None or metrics is None:
            return
        metrics.inc("cse.bag_hits", memo.hits)
        metrics.inc("cse.bag_misses", memo.misses)

    def plan(self, text):
        """Compile the last rule of a program without executing it.

        Returns a :class:`~repro.engine.plan.PhysicalPlan`.  Earlier
        rules in the program are *not* run, so intermediate relations
        they would create must already exist for the last rule to
        compile.  A recursive rule is described as the round the
        recursion driver runs (a seminaive round binds its delta
        first).
        """
        rule = parse(text).rules[-1]
        return self._executor.compile(round_body(rule) if rule.recursive
                                      else rule)

    def explain(self, text):
        """Compile-only plan description for a program's last rule:
        chosen GHD, widths, global attribute order, per-bag orders."""
        return self.plan(text).describe()

    def explain_logical(self, text):
        """Pass-by-pass logical plan of every rule in a program.

        Runs the frontend, rewrite, and plan phases of the
        :mod:`repro.lir` optimizer (no tuples are joined) and renders
        each pass's trace: what constant folding folded, what pruning
        projected away, the GHD choice with its cardinalities, pushed
        selections, and the global attribute order.  Like :meth:`plan`,
        rules are compiled against the current catalog, so intermediate
        heads from earlier rules must already exist.
        """
        from .lir import OptimizerOptions, optimize_rule, plan_rule
        options = OptimizerOptions.from_config(self.config)
        sections = []
        for rule in parse(text).rules:
            logical = optimize_rule(rule, self.catalog, options)
            try:
                plan_rule(logical, options)
            except Exception as error:  # pragma: no cover - diagnostics
                logical.trace.record("plan", False,
                                     ["failed: %s" % error])
            sections.append(logical.trace.describe())
        return "\n\n".join(sections)

    def relation(self, name):
        """Fetch a stored relation by name (refreshing stale views)."""
        if self._views and not self._refreshing \
                and any(view.stale for view in self._views.values()):
            refresh_stale_views(self)
        if name not in self.catalog:
            raise UnknownRelationError(name, self.catalog.keys())
        return self.catalog[name]

    # -- persistence --------------------------------------------------------

    def save(self, path):
        """Persist every stored relation to a ``.npz`` file (numpy
        appends the suffix when ``path`` lacks it; :meth:`load` takes
        either spelling)."""
        from .storage.persistence import save_catalog
        save_catalog(path, self.catalog)

    @classmethod
    def load(cls, path, **kwargs):
        """Reconstruct a database saved with :meth:`save`.

        The file's dictionary becomes the database dictionary, so
        relations added later encode as the saved ones did.  Engine
        configuration is *not* persisted (pass the usual constructor
        keywords).
        """
        from .storage.persistence import load_catalog
        db = cls(**kwargs)
        for name, relation in load_catalog(path).items():
            if relation.dictionaries:
                db._dictionary = relation.dictionaries[0]
            db._install(name, relation)
        return db

    def set_cardinality_hint(self, name, cardinality):
        """Override the planner's cardinality estimate for relation
        ``name`` in GHD costing."""
        self._executor.card_hints[name] = int(cardinality)

    def clear_cardinality_hints(self):
        """Drop all cardinality hints; the planner reverts to catalog
        cardinalities."""
        self._executor.card_hints.clear()

    @property
    def counter(self):
        """The engine's simulated-SIMD op counter."""
        return self.config.counter

    @property
    def last_stats(self):
        """Execution statistics of the latest query: plan-cache,
        compilation and kernel counters under the default
        engine.  ``None`` after an *interpreted* query.  See
        :class:`~repro.engine.stats.ExecStats`.
        """
        return self._executor.last_stats

    # -- observability -------------------------------------------------------

    def enable_tracing(self, path=None, capture_intersections=False):
        """Turn on query-lifecycle span tracing.

        ``path``, when given, names a Chrome ``trace_event`` JSON file
        rewritten after every query (load it at ``chrome://tracing`` or
        https://ui.perfetto.dev).  ``capture_intersections=True`` also
        records one span per set intersection — detailed, but with
        measurable per-call cost, so it is off by default.  Returns the
        live :class:`~repro.obs.trace.Tracer`.
        """
        if self._tracer is None:
            self._tracer = Tracer(
                capture_intersections=capture_intersections)
        else:
            self._tracer.enabled = True
            self._tracer.capture_intersections = capture_intersections
        self.config.tracer = self._tracer
        self._trace_path = path
        return self._tracer

    def disable_tracing(self):
        """Stop tracing.  The tracer object and its recorded spans are
        kept, so :meth:`write_trace` still works afterwards."""
        self.config.tracer = None
        self._trace_path = None

    @property
    def tracer(self):
        """The span tracer, or ``None`` if tracing was never enabled."""
        return self._tracer

    def write_trace(self, path):
        """Export the recorded spans as Chrome trace-event JSON."""
        if self._tracer is None:
            raise ValueError(
                "tracing was never enabled; call enable_tracing() first")
        from .obs.export import write_chrome_trace
        write_chrome_trace(self._tracer, path)

    def enable_metrics(self):
        """Turn on the metrics registry (counters, gauges, histograms
        accumulated across queries).  Returns the live
        :class:`~repro.obs.metrics.MetricsRegistry`."""
        self._metrics.enabled = True
        self.config.metrics = self._metrics
        return self._metrics

    def disable_metrics(self):
        """Stop recording metrics; accumulated values are kept."""
        self.config.metrics = None

    @property
    def metrics(self):
        """The metrics registry (disabled until
        :meth:`enable_metrics` or :meth:`enable_telemetry`)."""
        return self._metrics

    def enable_telemetry(self, directory=None, slow_query_seconds=None,
                         **hub_options):
        """Turn on continuous telemetry for this database.

        Installs a :class:`~repro.obs.telemetry.TelemetryHub`: every
        query appends one structured record to ``<directory>/
        queries.jsonl`` (rotating), feeds the flight recorder's rings
        and write-ahead in-flight journal, and aggregates into labeled
        process-lifetime series in the database's metrics registry
        (shared with :meth:`enable_metrics`, so one OpenMetrics
        exposition carries both).  ``directory=None`` keeps everything
        in memory — rings and series work, nothing hits disk.

        ``slow_query_seconds`` (default: the config's
        ``slow_query_seconds``) arms slow-query promotion: a query
        exceeding the budget re-runs fully traced on its next execution
        and the trace is archived under ``directory``.

        A post-mortem dump and a final OpenMetrics file are written at
        interpreter exit (and immediately when a query raises).
        Returns the live hub.
        """
        if self._telemetry is None or self._telemetry.closed:
            from .obs.telemetry import TelemetryHub
            if slow_query_seconds is None:
                slow_query_seconds = self.config.slow_query_seconds
            self._metrics.enabled = True
            self._telemetry = TelemetryHub(
                directory=directory, registry=self._metrics,
                slow_query_seconds=slow_query_seconds, **hub_options)
            import atexit
            atexit.register(self._telemetry.close)
        self.config.telemetry = self._telemetry
        return self._telemetry

    def disable_telemetry(self):
        """Stop recording telemetry and flush (post-mortem dump +
        OpenMetrics file for directory-backed hubs).  The hub and its
        accumulated state remain readable via :attr:`telemetry`."""
        hub = self._telemetry
        self.config.telemetry = None
        if hub is not None:
            hub.close(dump_reason="disable")

    @property
    def telemetry(self):
        """The telemetry hub, or ``None`` if never enabled."""
        return self._telemetry

    def write_metrics(self, path):
        """Export the metrics registry as OpenMetrics text (the format
        Prometheus scrapes; see :mod:`repro.obs.openmetrics`)."""
        from .obs.openmetrics import write_openmetrics
        return write_openmetrics(self._metrics, path)

    def serve_metrics(self, host="127.0.0.1", port=0):
        """Serve ``GET /metrics`` (OpenMetrics) for this database on a
        daemon thread; returns the HTTP server (``server_address``
        carries the bound port, ``shutdown()`` stops it)."""
        from .obs.openmetrics import serve_metrics
        return serve_metrics(self._metrics, host=host, port=port)

    def _record_query_metrics(self, metrics, marks, elapsed):
        metrics.inc("queries")
        metrics.observe("query.seconds", elapsed, TIME_BUCKETS)
        metrics.record_exec_stats(self._executor.last_stats)
        metrics.record_counter_delta(marks,
                                     self.config.counter.snapshot())
        for tier, size in self._plan_cache.sizes().items():
            metrics.set_gauge("plan_cache.%s" % tier, size)
        metrics.set_gauge("trie_cache.entries", len(self._trie_cache))
        metrics.set_gauge("trie_cache.patches", self._trie_cache.patches)

    def explain_analyze(self, text):
        """Run the query under a private tracer and render the GHD plan
        annotated with actuals: per-bag wall time and lane-ops,
        predicted vs actual cost-model error, chosen set layouts,
        cache outcomes, and phase timings.  Returns the report string.
        """
        from .obs.explain import render_explain_analyze
        own = Tracer(capture_intersections=False)
        previous = self.config.tracer
        self.config.tracer = own
        try:
            result = self.query(text)
        finally:
            self.config.tracer = previous
        return render_explain_analyze(
            self._executor.last_plan, self._executor.last_stats, own,
            self.config, result=result.relation,
            logical=self._executor.last_logical)

    def _head_dictionaries(self, rule):
        """Column dictionaries for the head, looked up from the body
        relations' columns, so results decode back to the user's original
        values.  Returns ``None`` when any column has no dictionary."""
        if not rule.head_vars:
            return None
        dictionaries = []
        for var in rule.head_vars:
            found = None
            for atom in rule.body:
                source = self.catalog.get(atom.name)
                if source is None or source.dictionaries is None:
                    continue
                for position, term in enumerate(atom.terms):
                    if getattr(term, "name", None) == var:
                        found = source.dictionaries[position]
                        break
                if found is not None:
                    break
            dictionaries.append(found)
        if all(d is not None for d in dictionaries):
            return dictionaries
        return None
