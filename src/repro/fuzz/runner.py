"""The differential harness: one program, every execution path.

Each generated case is executed across the engine's config matrix
(:func:`repro.engine.config.enumerate_config_matrix`) plus a plan-cache
warm re-run, and every derived head is cross-checked:

* config vs config — all engine paths must agree tuple-for-tuple and
  value-for-value (or fail with the same error class);
* engine vs :mod:`repro.fuzz.oracle` — the backtracking brute force;
* engine vs ``tests.reference`` — the cartesian-product brute force
  (skipped automatically when the test package is not importable,
  e.g. from an installed wheel).

Float comparison is tolerant (``isclose``) but the generator's numeric
hygiene — integer annotations, division only by powers of two — makes
results exact in practice.
"""

import math
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
from .oracle import OracleError, evaluate_case

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
    kind: str  # "mismatch" | "oracle" | "reference" | "crash"
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


def _normalize_relation(relation, fallback_dictionary):
    """Collapse a result :class:`Relation` to an engine-independent
    ``(kind, value)`` — decoded tuples, plain floats."""
    if relation.arity == 0:
        if relation.annotations is not None:
            return "scalar", float(relation.annotations[0])
        return "exists", relation.cardinality > 0
    dictionaries = relation.dictionaries
    if dictionaries is None:
        dictionaries = [fallback_dictionary] * relation.arity
    rows = []
    for row in relation.data:
        rows.append(tuple(dictionaries[c].decode(v)
                          for c, v in enumerate(row)))
    if relation.annotations is not None:
        return "map", {row: float(a)
                       for row, a in zip(rows, relation.annotations)}
    return "set", frozenset(rows)


def _load_case(case, config):
    db = Database(config=config.ablated())
    for relation in case.relations:
        db.add_relation(relation.name, relation.tuples,
                        annotations=relation.annotations,
                        arity=relation.arity)
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
        results[name] = _normalize_relation(db.relation(name),
                                            db._dictionary)
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
# reference layer (tests/reference.py, when importable)
# ---------------------------------------------------------------------------


def _reference_module():
    try:
        from tests import reference
    except ImportError:
        return None
    return reference if hasattr(reference, "evaluate_program") else None


def _reference_results(case, reference):
    base = {}
    for relation in case.relations:
        annotations = None
        if relation.annotations is not None:
            annotations = {tuple(row): float(a)
                           for row, a in zip(relation.tuples,
                                             relation.annotations)}
        base[relation.name] = ([tuple(row) for row in relation.tuples],
                               annotations)
    return reference.evaluate_program(base, case.rules)


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


def run_case(case, matrix=None, check_oracle=True, check_reference=True,
             metrics=None):
    """Run one case across the config matrix; ``None`` when consistent,
    else a :class:`CaseFailure`.

    A non-engine exception from any config is reported as a ``crash``
    failure.  Oracle divergence (non-terminating recursion) skips the
    oracle layers but still cross-checks the engine configs against
    each other.
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
            if metrics is not None:
                metrics.inc("fuzz.crashes")
            return CaseFailure(case.seed, "crash",
                               "%s crashed: %s: %s"
                               % (label, type(error).__name__, error),
                               case)
    base_label, base_outcome = outcomes[0]
    for label, outcome in outcomes[1:]:
        diff = _diff_outcomes(base_label, base_outcome, label, outcome)
        if diff is not None:
            if metrics is not None:
                metrics.inc("fuzz.mismatches")
            return CaseFailure(case.seed, "mismatch", diff, case)
    if base_outcome[0] != "ok":
        return None  # every config failed identically; nothing to check
    if check_oracle:
        try:
            expected = {name: result for name, result
                        in evaluate_case(case).items()}
        except OracleError:
            expected = None
            if metrics is not None:
                metrics.inc("fuzz.oracle_skips")
        if expected is not None:
            diff = _diff_outcomes("oracle", ("ok", expected),
                                  base_label, base_outcome)
            if diff is not None:
                if metrics is not None:
                    metrics.inc("fuzz.mismatches")
                return CaseFailure(case.seed, "oracle", diff, case)
    if check_reference:
        reference = _reference_module()
        if reference is not None:
            try:
                expected = _reference_results(case, reference)
            except reference.ReferenceDiverged:
                expected = None
            if expected is not None:
                diff = _diff_outcomes("reference", ("ok", expected),
                                      base_label, base_outcome)
                if diff is not None:
                    if metrics is not None:
                        metrics.inc("fuzz.mismatches")
                    return CaseFailure(case.seed, "reference", diff,
                                       case)
    return None


def run_fuzz(seed=0, budget=100, matrix=None, shrink=False,
             max_failures=10, metrics=None, progress=None,
             check_reference=True):
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
    report = FuzzReport(budget=budget)
    start = time.perf_counter()
    for index in range(budget):
        case = generate_case(case_seed(seed, index))
        if metrics is not None:
            metrics.inc("fuzz.cases")
        failure = run_case(case, matrix, metrics=metrics,
                           check_reference=check_reference)
        report.executed += 1
        if failure is not None:
            if shrink:
                from .shrink import shrink_case

                def still_failing(candidate):
                    return run_case(candidate, matrix,
                                    check_reference=check_reference) \
                        is not None

                failure.shrunk = shrink_case(case, still_failing)
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


# ---------------------------------------------------------------------------
# mutation fuzzing (incremental maintenance vs full-rebuild oracle)
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
    for relation in case.relations:
        db.add_relation(relation.name, relation.tuples,
                        annotations=relation.annotations,
                        arity=relation.arity)
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
            results[name] = _normalize_relation(db.relation(name),
                                                db._dictionary)
        return "ok", results
    except EmptyHeadedError as error:
        return "error", type(error).__name__


def _oracle_db(case, mirror):
    """A fresh default-config database loaded with the mirror contents
    — the from-scratch rebuild the live databases are checked against."""
    db = Database()
    for relation in case.relations:
        items = sorted(mirror[relation.name].items())
        annotations = None
        if relation.annotations is not None:
            annotations = [value for _, value in items]
        db.add_relation(relation.name, [row for row, _ in items],
                        annotations=annotations, arity=relation.arity)
    return db


def _oracle_outcomes(case):
    """The full-rebuild reference: at every query op, rebuild the
    database from the replayed mirror and run views + query cold."""
    mirror = initial_mirror(case.relations)
    db = _oracle_db(case, mirror)
    try:
        for _, rule in case.views:
            db.query(str(rule))
    except EmptyHeadedError as error:
        return [("setup-error", type(error).__name__)]
    outcomes = [("setup-ok", None)]
    for op in case.ops:
        if op.kind != "query":
            apply_op_to_mirror(mirror, op)
            continue
        db = _oracle_db(case, mirror)
        try:
            for _, rule in case.views:
                db.query(str(rule))
            db.query(case.query_text)
        except EmptyHeadedError as error:
            outcomes.append(("error", type(error).__name__))
            continue
        results = {}
        for name in case.head_names:
            results[name] = _normalize_relation(db.relation(name),
                                                db._dictionary)
        outcomes.append(("ok", results))
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


def run_mutation_case(case, matrix=None, metrics=None):
    """Run one mutation case across the mutation matrix; ``None`` when
    every config matches the full-rebuild oracle step-for-step, else a
    :class:`CaseFailure`."""
    if matrix is None:
        matrix = enumerate_mutation_matrix()
    try:
        expected = _oracle_outcomes(case)
    except Exception as error:  # noqa: BLE001 - crash = finding
        if metrics is not None:
            metrics.inc("fuzz.crashes")
        return CaseFailure(case.seed, "crash",
                           "rebuild oracle crashed: %s: %s"
                           % (type(error).__name__, error), case)
    for label, config in matrix:
        try:
            with _forced(label):
                outcomes = _run_mutation_ops(case, config)
        except Exception as error:  # noqa: BLE001 - crash = finding
            if metrics is not None:
                metrics.inc("fuzz.crashes")
            return CaseFailure(case.seed, "crash",
                               "%s crashed: %s: %s"
                               % (label, type(error).__name__, error),
                               case)
        diff = _diff_mutation_outcomes("rebuild-oracle", expected,
                                       label, outcomes)
        if diff is not None:
            if metrics is not None:
                metrics.inc("fuzz.mismatches")
            return CaseFailure(case.seed, "mutation-mismatch", diff,
                               case)
    return None


# ---------------------------------------------------------------------------
# serve fuzzing (live daemon vs direct execution)
# ---------------------------------------------------------------------------


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
    the same config as the direct run, then drives every op over the
    wire — setup ``add_relation``/``materialize``, interleaved
    ``append``/``delete``/``query`` — returning the same outcome-list
    shape as :func:`_run_mutation_ops` for
    :func:`_diff_mutation_outcomes`.  This is the result cache's
    hardest test: repeated queries hit, mutations invalidate, and every
    served payload must equal direct execution bit-for-bit.
    """
    from ..serve import QueryService, ServeClient
    db = Database(config=config.ablated())
    service = QueryService(db).start()
    outcomes = []
    try:
        with ServeClient(port=service.port) as client:
            for relation in case.relations:
                reply = client.add_relation(
                    relation.name, relation.tuples,
                    annotations=relation.annotations,
                    arity=relation.arity)
                if reply["status"] != "ok":
                    raise RuntimeError("add_relation %r failed: %r"
                                       % (relation.name, reply))
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


def run_serve_case(case, matrix=None, metrics=None):
    """Differentially check one mutation case: daemon vs direct.

    For every config in the mutation matrix the case's full op
    sequence runs twice — directly on a :class:`Database` and through
    a live :class:`~repro.serve.QueryService` — and the outcome lists
    must agree step-for-step.  A case whose *direct* run crashes is
    skipped here (that is the mutation fuzzer's finding, not ours).
    """
    if matrix is None:
        matrix = enumerate_mutation_matrix()
    for label, config in matrix:
        try:
            with _forced(label):
                direct = _run_mutation_ops(case, config)
        except Exception:  # noqa: BLE001 - the mutation fuzzer's find
            return None
        try:
            with _forced(label):
                served = _serve_mutation_ops(case, config)
        except Exception as error:  # noqa: BLE001 - crash = finding
            if metrics is not None:
                metrics.inc("fuzz.crashes")
            return CaseFailure(case.seed, "crash",
                               "serve[%s] crashed: %s: %s"
                               % (label, type(error).__name__, error),
                               case)
        diff = _diff_mutation_outcomes("direct[%s]" % label, direct,
                                       "serve[%s]" % label, served)
        if diff is not None:
            if metrics is not None:
                metrics.inc("fuzz.mismatches")
            return CaseFailure(case.seed, "serve-mismatch", diff, case)
    return None


def run_serve_fuzz(seed=0, budget=100, matrix=None, max_failures=10,
                   metrics=None, progress=None):
    """Generate mutation cases and replay each through a live daemon,
    diffing against direct execution across the mutation matrix."""
    if matrix is None:
        matrix = enumerate_mutation_matrix()
    report = FuzzReport(budget=budget)
    start = time.perf_counter()
    for index in range(budget):
        case = generate_mutation_case(case_seed(seed, index))
        if metrics is not None:
            metrics.inc("fuzz.serve_cases")
        failure = run_serve_case(case, matrix, metrics=metrics)
        report.executed += 1
        if failure is not None:
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


def run_mutation_fuzz(seed=0, budget=100, matrix=None, max_failures=10,
                      metrics=None, progress=None):
    """Generate and differentially check ``budget`` mutation cases.

    Every engine config in :func:`enumerate_mutation_matrix` — the
    delta-maintaining live databases — is compared outcome-for-outcome
    against the from-scratch full-rebuild oracle (which transitively
    cross-checks the configs against each other).
    """
    if matrix is None:
        matrix = enumerate_mutation_matrix()
    report = FuzzReport(budget=budget)
    start = time.perf_counter()
    for index in range(budget):
        case = generate_mutation_case(case_seed(seed, index))
        if metrics is not None:
            metrics.inc("fuzz.mutation_cases")
        failure = run_mutation_case(case, matrix, metrics=metrics)
        report.executed += 1
        if failure is not None:
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
