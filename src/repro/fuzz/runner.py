"""The differential harness: one program, every execution path.

Each generated case is executed across the engine's config matrix
(:func:`repro.engine.config.enumerate_config_matrix`) plus a plan-cache
warm re-run, and every derived head is cross-checked:

* config vs config — all engine paths must agree tuple-for-tuple and
  value-for-value (or fail with the same error class);
* engine vs :mod:`repro.fuzz.oracle` — the backtracking brute force.

The write fuzzers (``--mutations``, and ``--serve`` through a live
daemon) run a mutation case's interleaved append/delete/query ops
under every config of the mutation matrix and diff every query op
against the same oracle, run over the mirrored relations.

Float comparison is tolerant (``isclose``) but the generator's numeric
hygiene — integer annotations, division only by powers of two — makes
results exact in practice.
"""

import math
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import List, Optional

from ..api import Database
from ..engine import fused, incremental
from ..engine.config import (enumerate_config_matrix,
                             enumerate_mutation_matrix)
from ..errors import EmptyHeadedError
from .gen import (apply_op_to_mirror, generate_case,
                  generate_mutation_case, initial_mirror)
from .oracle import OracleError, evaluate_case, evaluate_program

#: Config labels that additionally execute a warm (plan-cache hit)
#: re-run of the same program on the same database.
WARM_LABELS = ("interp", "default")


#: What a forcing label overrides while its executions run:
#: ``small-blocks`` cuts kernel blocks of five candidate rows (every
#: level cut into many slices, rows split mid-fan-out) and sweeps at
#: any skew; ``forced-delta`` sends every refresh the delta route can
#: take down it, whatever the cost routing predicts.
_FORCED = {
    "small-blocks": (fused, {"BLOCK_ROWS": 5, "PROBE_CROSSOVER": 1.0}),
    "forced-delta": (incremental,
                     {"delta_pays": lambda full_ops, term_ops: True}),
}


@contextmanager
def _forced(label):
    """Run ``label``'s executions under its overrides (:data:`_FORCED`,
    none for most labels); the originals are restored afterwards."""
    module, overrides = _FORCED.get(label, (None, {}))
    saved = {name: getattr(module, name) for name in overrides}
    for name, value in overrides.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


@dataclass
class CaseFailure:
    """One differential mismatch, engine error disagreement, or crash."""

    seed: int
    kind: str  # "mismatch" | "oracle" | "{mutation,serve}-mismatch" | "crash"
    detail: str
    case: object
    shrunk: Optional[object] = None

    def describe(self):
        lines = ["seed=%d kind=%s" % (self.seed, self.kind), self.detail]
        subject = self.shrunk if self.shrunk is not None else self.case
        lines.append(str(subject))
        return "\n".join(lines)


@dataclass
class FuzzReport:
    """Aggregate outcome of one fuzz run."""

    budget: int = 0
    executed: int = 0
    skipped: int = 0
    failures: List[CaseFailure] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self):
        return not self.failures

    def describe(self):
        lines = ["fuzz: %d cases, %d skipped, %d failure(s), %.1fs"
                 % (self.executed, self.skipped, len(self.failures),
                    self.elapsed)]
        for failure in self.failures:
            lines.append("-" * 60)
            lines.append(failure.describe())
        return "\n".join(lines)


def case_seed(master_seed, index):
    """Per-case seed derived from the run seed — stable across runs so
    ``--seed N --budget M`` always replays the same case sequence."""
    return (master_seed * 1000003 + index) & 0x7FFFFFFF


# ---------------------------------------------------------------------------
# engine execution + normalization
# ---------------------------------------------------------------------------


def _normalize_relation(relation):
    """Collapse a result :class:`Relation` to an engine-independent
    ``(kind, value)`` — tuples decoded as ``Result.tuples()`` decodes
    them, plain floats."""
    if relation.arity == 0:
        if relation.annotations is not None:
            return "scalar", float(relation.annotations[0])
        return "exists", relation.cardinality > 0
    rows = relation.decoded_tuples()
    if relation.annotations is not None:
        return "map", {row: float(a)
                       for row, a in zip(rows, relation.annotations)}
    return "set", frozenset(rows)


def _load_relations(db, case):
    """Load the case's relations into ``db`` through a seeded mix of
    loaders: about half of the unannotated binary relations as
    directed graphs (``load_graph``, whose node ordering picks their
    new values' ids), the rest through ``add_relation``.  Every loader
    encodes through the database's one dictionary, so no answer may
    show which loader a relation took."""
    rng = random.Random(case.seed)
    for relation in case.relations:
        if relation.arity == 2 and relation.annotations is None \
                and rng.random() < 0.5:
            db.load_graph(relation.name, relation.tuples,
                          undirected=False)
        else:
            db.add_relation(relation.name, relation.tuples,
                            annotations=relation.annotations,
                            arity=relation.arity)


def _load_case(case, config):
    db = Database(config=config.ablated())
    _load_relations(db, case)
    return db


def _run_engine(case, db):
    """Execute the program; return ``("ok", {head: (kind, value)})`` or
    ``("error", exception_class_name)``."""
    try:
        db.query(case.program_text)
    except EmptyHeadedError as error:
        return "error", type(error).__name__
    heads = []
    for name in case.head_names:
        if name not in heads:
            heads.append(name)
    results = {}
    for name in heads:
        results[name] = _normalize_relation(db.relation(name))
    return "ok", results


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def _close(a, b):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def _diff_values(name, a, b):
    """Human-readable difference between two normalized head results,
    or ``None`` when they agree."""
    kind_a, value_a = a
    kind_b, value_b = b
    if kind_a != kind_b:
        return "%s: kind %s vs %s" % (name, kind_a, kind_b)
    if kind_a == "scalar":
        if not _close(value_a, value_b):
            return "%s: scalar %r vs %r" % (name, value_a, value_b)
        return None
    if kind_a == "exists":
        if value_a != value_b:
            return "%s: exists %r vs %r" % (name, value_a, value_b)
        return None
    if kind_a == "set":
        if value_a != value_b:
            only_a = sorted(value_a - value_b)[:5]
            only_b = sorted(value_b - value_a)[:5]
            return "%s: set differs (only-left=%s only-right=%s)" \
                % (name, only_a, only_b)
        return None
    keys_a, keys_b = set(value_a), set(value_b)
    if keys_a != keys_b:
        return "%s: keys differ (only-left=%s only-right=%s)" \
            % (name, sorted(keys_a - keys_b)[:5],
               sorted(keys_b - keys_a)[:5])
    for key in value_a:
        if not _close(value_a[key], value_b[key]):
            return "%s[%s]: %r vs %r" % (name, key, value_a[key],
                                         value_b[key])
    return None


def _diff_outcomes(label_a, outcome_a, label_b, outcome_b):
    status_a, payload_a = outcome_a
    status_b, payload_b = outcome_b
    if status_a != status_b:
        return "%s=%s(%s) vs %s=%s(%s)" % (
            label_a, status_a,
            payload_a if status_a == "error" else "ok",
            label_b, status_b,
            payload_b if status_b == "error" else "ok")
    if status_a == "error":
        if payload_a != payload_b:
            return "%s raised %s but %s raised %s" % (label_a, payload_a,
                                                      label_b, payload_b)
        return None
    for name in payload_a:
        diff = _diff_values(name, payload_a[name], payload_b[name])
        if diff is not None:
            return "%s vs %s: %s" % (label_a, label_b, diff)
    return None


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


def _count(metrics, name):
    if metrics is not None:
        metrics.inc(name)


def run_case(case, matrix=None, metrics=None):
    """Run one case across the config matrix; ``None`` when consistent,
    else a :class:`CaseFailure`.

    A non-engine exception from any config is reported as a ``crash``
    failure.  A case the oracle cannot evaluate (non-terminating
    recursion) is still cross-checked config against config.
    """
    if matrix is None:
        matrix = enumerate_config_matrix()
    outcomes = []
    for label, config in matrix:
        try:
            with _forced(label):
                db = _load_case(case, config)
                outcomes.append((label, _run_engine(case, db)))
                if label in WARM_LABELS and outcomes[-1][1][0] == "ok":
                    outcomes.append((label + "+warm",
                                     _run_engine(case, db)))
        except Exception as error:  # noqa: BLE001 - crash = finding
            _count(metrics, "fuzz.crashes")
            return CaseFailure(case.seed, "crash",
                               "%s crashed: %s: %s"
                               % (label, type(error).__name__, error),
                               case)
    base_label, base_outcome = outcomes[0]
    for label, outcome in outcomes[1:]:
        diff = _diff_outcomes(base_label, base_outcome, label, outcome)
        if diff is not None:
            _count(metrics, "fuzz.mismatches")
            return CaseFailure(case.seed, "mismatch", diff, case)
    if base_outcome[0] != "ok":
        return None  # every config failed identically; nothing to check
    try:
        expected = evaluate_case(case)
    except OracleError:
        _count(metrics, "fuzz.oracle_skips")
        return None
    diff = _diff_outcomes("oracle", ("ok", expected), base_label,
                          base_outcome)
    if diff is not None:
        _count(metrics, "fuzz.mismatches")
        return CaseFailure(case.seed, "oracle", diff, case)
    return None


def _drive(generate, check, counter, seed, budget, max_failures,
           metrics, progress, shrink=None):
    """The loop every fuzz mode runs: generate case ``i`` from
    :func:`case_seed(seed, i) <case_seed>`, ``check`` it, and collect
    its failure (minimized by ``shrink``, when given) until ``budget``
    cases or ``max_failures`` failures."""
    report = FuzzReport(budget=budget)
    start = time.perf_counter()
    for index in range(budget):
        case = generate(case_seed(seed, index))
        _count(metrics, counter)
        failure = check(case)
        report.executed += 1
        if failure is not None:
            if shrink is not None:
                failure.shrunk = shrink(case)
            report.failures.append(failure)
            if len(report.failures) >= max_failures:
                break
        if progress is not None:
            progress(index + 1, budget, len(report.failures))
    report.elapsed = time.perf_counter() - start
    if metrics is not None:
        metrics.observe("fuzz.seconds", report.elapsed,
                        (1, 10, 60, 300, 1800, float("inf")))
    return report


def run_fuzz(seed=0, budget=100, matrix=None, shrink=False,
             max_failures=10, metrics=None, progress=None):
    """Generate and differentially check ``budget`` cases.

    Parameters
    ----------
    seed / budget:
        Master seed and number of cases; case ``i`` uses
        :func:`case_seed(seed, i)`, so any failure replays standalone.
    shrink:
        Minimize each failure with :func:`repro.fuzz.shrink.shrink_case`
        before reporting it.
    max_failures:
        Stop early after this many failures.
    metrics:
        Optional :class:`repro.obs.metrics.MetricsRegistry`.
    progress:
        Optional callable ``(index, budget, failures)`` invoked after
        every case (the CLI's ticker).
    """
    if matrix is None:
        matrix = enumerate_config_matrix()

    def minimized(case):
        from .shrink import shrink_case
        return shrink_case(
            case, lambda candidate: run_case(candidate, matrix) is not None)

    return _drive(generate_case,
                  lambda case: run_case(case, matrix, metrics=metrics),
                  "fuzz.cases", seed, budget, max_failures, metrics,
                  progress, minimized if shrink else None)


# ---------------------------------------------------------------------------
# write fuzzing: mutation sequences, in process or through a daemon,
# against the brute-force oracle
# ---------------------------------------------------------------------------


def _run_mutation_ops(case, config):
    """Execute the case's op sequence on one persistent database.

    Returns an outcome list: ``("setup-ok", None)`` or
    ``("setup-error", cls)`` first, then one ``("ok", {head: value})``
    or ``("error", cls)`` entry per *query* op.  Mutation ops between
    queries run against the same live database — this is exactly the
    path where delta stores, version-keyed caches, and incremental view
    refresh engage.
    """
    db = Database(config=config.ablated())
    outcomes = []
    _load_relations(db, case)
    try:
        for name, rule in case.views:
            db.materialize(name, str(rule))
    except EmptyHeadedError as error:
        outcomes.append(("setup-error", type(error).__name__))
        return outcomes
    outcomes.append(("setup-ok", None))
    for op in case.ops:
        if op.kind == "append":
            db.append(op.target, op.tuples, annotations=op.annotations)
        elif op.kind == "delete":
            db.delete(op.target, op.tuples)
        else:
            outcomes.append(_query_snapshot(db, case))
    return outcomes


def _query_snapshot(db, case):
    try:
        db.query(case.query_text)
        results = {}
        for name in case.head_names:
            results[name] = _normalize_relation(db.relation(name))
        return "ok", results
    except EmptyHeadedError as error:
        return "error", type(error).__name__


def _oracle_outcomes(case):
    """What the ops runners must return for ``case``: at every query
    op, the brute-force oracle over the mirrored relations, the views'
    rules first and then the query's.  Raises :class:`OracleError` when
    the oracle cannot evaluate the program."""
    rules = [rule for _, rule in case.views] + list(case.query_rules)
    mirror = initial_mirror(case.relations)
    outcomes = [("setup-ok", None)]
    for op in case.ops:
        if op.kind != "query":
            apply_op_to_mirror(mirror, op)
            continue
        base = {relation.name: (list(mirror[relation.name]),
                                None if relation.annotations is None
                                else mirror[relation.name])
                for relation in case.relations}
        results = evaluate_program(base, rules)
        outcomes.append(("ok", {name: results[name]
                                for name in case.head_names}))
    return outcomes


def _diff_mutation_outcomes(label_a, outcomes_a, label_b, outcomes_b):
    if len(outcomes_a) != len(outcomes_b):
        return "%s produced %d outcomes vs %s %d" % (
            label_a, len(outcomes_a), label_b, len(outcomes_b))
    for step, (a, b) in enumerate(zip(outcomes_a, outcomes_b)):
        if a[0].startswith("setup") or b[0].startswith("setup"):
            if a != b:
                return "setup: %s=%r vs %s=%r" % (label_a, a,
                                                  label_b, b)
            continue
        diff = _diff_outcomes(label_a, a, label_b, b)
        if diff is not None:
            return "query #%d: %s" % (step, diff)
    return None


def _serve_query_snapshot(client, case):
    """The daemon-side analog of :func:`_query_snapshot`: run the query
    over the wire, then fetch every derived head as a normalized
    payload (``relation`` ops execute in admission order, so they read
    exactly the state the query installed)."""
    from ..serve.protocol import payload_to_outcome
    reply = client.query(case.query_text)
    if reply["status"] != "ok":
        return "error", reply.get("error_class", "EmptyHeadedError")
    results = {}
    for name in case.head_names:
        fetched = client.relation(name)
        if fetched["status"] != "ok":
            raise RuntimeError("relation fetch for %r failed: %r"
                               % (name, fetched))
        results[name] = payload_to_outcome(fetched["result"])
    return "ok", results


def _serve_mutation_ops(case, config):
    """Replay the case's op sequence through a live query daemon.

    Boots a :class:`~repro.serve.QueryService` around a database with
    the config's settings and the case's relations, then drives every
    op over the wire — setup ``materialize``, interleaved
    ``append``/``delete``/``query`` — returning the outcome-list shape
    of :func:`_run_mutation_ops`.  This is the result cache's hardest
    test: repeated queries hit, mutations invalidate, and every served
    payload must equal the brute-force oracle's answer.
    """
    from ..serve import QueryService, ServeClient
    db = Database(config=config.ablated())
    _load_relations(db, case)
    service = QueryService(db).start()
    outcomes = []
    try:
        with ServeClient(port=service.port) as client:
            setup_error = None
            for name, rule in case.views:
                reply = client.materialize(name, str(rule))
                if reply["status"] != "ok":
                    setup_error = reply.get("error_class",
                                            "EmptyHeadedError")
                    break
            if setup_error is not None:
                outcomes.append(("setup-error", setup_error))
                return outcomes
            outcomes.append(("setup-ok", None))
            for op in case.ops:
                if op.kind == "append":
                    reply = client.append(op.target, op.tuples,
                                          annotations=op.annotations)
                    if reply["status"] != "ok":
                        raise RuntimeError("append failed: %r" % reply)
                elif op.kind == "delete":
                    reply = client.delete(op.target, op.tuples)
                    if reply["status"] != "ok":
                        raise RuntimeError("delete failed: %r" % reply)
                else:
                    outcomes.append(_serve_query_snapshot(client, case))
    finally:
        service.stop()
    return outcomes


def run_mutation_case(case, matrix=None, metrics=None, serve=False):
    """Check one mutation case against the brute-force oracle.

    For every config of the mutation matrix the case's op sequence
    runs on a live database (:func:`_run_mutation_ops`), or through a
    live query daemon when ``serve`` (:func:`_serve_mutation_ops`), and
    its outcome list must match :func:`_oracle_outcomes` step for step.
    ``None`` when every config does, else a :class:`CaseFailure`.  A
    case the oracle cannot evaluate is skipped.
    """
    if matrix is None:
        matrix = enumerate_mutation_matrix()
    try:
        expected = _oracle_outcomes(case)
    except OracleError:
        _count(metrics, "fuzz.oracle_skips")
        return None
    run_ops = _serve_mutation_ops if serve else _run_mutation_ops
    kind = "serve-mismatch" if serve else "mutation-mismatch"
    for label, config in matrix:
        name = "serve[%s]" % label if serve else label
        try:
            with _forced(label):
                outcomes = run_ops(case, config)
        except Exception as error:  # noqa: BLE001 - crash = finding
            _count(metrics, "fuzz.crashes")
            return CaseFailure(case.seed, "crash",
                               "%s crashed: %s: %s"
                               % (name, type(error).__name__, error),
                               case)
        diff = _diff_mutation_outcomes("oracle", expected, name, outcomes)
        if diff is not None:
            _count(metrics, "fuzz.mismatches")
            return CaseFailure(case.seed, kind, diff, case)
    return None


def run_serve_case(case, matrix=None, metrics=None):
    """:func:`run_mutation_case` with every op sent through a daemon."""
    return run_mutation_case(case, matrix, metrics, serve=True)


def run_mutation_fuzz(seed=0, budget=100, matrix=None, max_failures=10,
                      metrics=None, progress=None):
    """Generate ``budget`` mutation cases and check each config of
    :func:`enumerate_mutation_matrix` against the brute-force oracle
    at every query op (:func:`run_mutation_case`)."""
    return _drive(generate_mutation_case,
                  lambda case: run_mutation_case(case, matrix, metrics),
                  "fuzz.mutation_cases", seed, budget, max_failures,
                  metrics, progress)


def run_serve_fuzz(seed=0, budget=100, matrix=None, max_failures=10,
                   metrics=None, progress=None):
    """:func:`run_mutation_fuzz` with every op sent through a live
    daemon (:func:`run_serve_case`)."""
    return _drive(generate_mutation_case,
                  lambda case: run_serve_case(case, matrix, metrics),
                  "fuzz.serve_cases", seed, budget, max_failures,
                  metrics, progress)
