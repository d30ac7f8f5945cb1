"""Naive and seminaive recursive evaluation (paper §3.3.2).

EmptyHeaded supports a restricted Kleene-star recursion.  The execution
strategy is chosen exactly as the paper describes:

* a fixed iteration count (``*[i=k]``) unrolls the rule ``k`` times with
  *replace* semantics — PageRank's mode (naive recursion);
* a monotone MIN/MAX aggregation runs **seminaive**: only the delta
  (tuples whose value improved last round) feeds the recursive atom, and
  improvements merge into the accumulated relation — SSSP's mode;
* recursion without aggregation runs naive *union* iteration to a
  fixpoint — transitive closure.

Every round is one ``executor.execute`` of the rule's non-recursive
body against the catalog the round installed.  Under the default engine
only the first round of a rule compiles: later rounds differ in nothing
but the head relation, which the plan cache re-binds
(:meth:`~repro.engine.executor.RuleExecutor._rebind_head`).  Between
rounds the driver holds relations only — canonical (lexsorted,
distinct) key arrays with aligned values — and merges them with sorts
and vectorized compares, whatever the head's arity.
"""

import numpy as np

from ..errors import ExecutionError, PlanError
from ..query.ast import clone_rule
from ..storage.relation import Relation
from .semiring import is_monotone

#: Safety cap for fixpoint loops: recursion that has not converged after
#: this many rounds raises instead of spinning.
MAX_FIXPOINT_ROUNDS = 100000


def execute_recursive(rule, executor, max_rounds=MAX_FIXPOINT_ROUNDS,
                      stats=None):
    """Run one recursive rule to completion.

    The base case must already be stored in the executor's catalog under
    ``rule.head_name`` (the paper's programs establish it with a prior
    non-recursive rule).  Returns the final relation, which is also
    installed back into the catalog.  ``stats`` is the program's
    :class:`~repro.engine.stats.ExecStats`: every round accumulates
    into it, as a non-recursive rule's one execution would.
    """
    if executor.catalog.get(rule.head_name) is None:
        raise PlanError("recursive rule %r has no base case in the catalog"
                        % rule.head_name)
    aggregates = rule.aggregates
    op = aggregates[0].op if aggregates else None
    body = clone_rule(rule, recursive=False, iterations=None)

    def run_round(relation):
        """Evaluate the body once with ``relation`` as the head."""
        _install_round(executor, rule.head_name, relation)
        if stats is not None:
            stats.recursion_rounds += 1
        return executor.execute(body, stats)

    if rule.iterations is not None:
        result = _naive_replace(rule, executor, run_round)
    elif op is not None and is_monotone(op):
        result = _seminaive(rule, executor, run_round, op, max_rounds)
    elif op is None:
        result = _naive_union(rule, executor, run_round, max_rounds)
    else:
        raise PlanError(
            "recursion with non-monotone aggregate %r needs a fixed "
            "iteration count (*[i=k])" % op)
    _install_round(executor, rule.head_name, result)
    return result


def _install_round(executor, name, relation):
    """Put ``relation`` under ``name`` and retire the relation it
    replaces.  Every round's head is a new relation object, and the
    trie cache keys on a per-object uid, so a replaced head's tries
    (and level-0 memo entries) would otherwise stay cached forever."""
    old = executor.catalog.get(name)
    if old is not None and old is not relation:
        executor.cache.invalidate(old)
    executor.catalog[name] = relation


def _naive_replace(rule, executor, run_round):
    """Fixed-iteration unrolling with replace semantics (PageRank)."""
    current = executor.catalog[rule.head_name]
    for _ in range(rule.iterations):
        current = run_round(current)
    return current


def _naive_union(rule, executor, run_round, max_rounds):
    """Union iteration to fixpoint (transitive-closure style)."""
    current = executor.catalog[rule.head_name].deduplicated()
    for _ in range(max_rounds):
        produced = run_round(current)
        if not produced.cardinality:
            return current
        merged = Relation(
            rule.head_name,
            np.concatenate([current.data, produced.data])).deduplicated()
        if merged.cardinality == current.cardinality:
            return current
        current = merged
    raise ExecutionError("recursion on %r did not converge in %d rounds"
                         % (rule.head_name, max_rounds))


def _seminaive(rule, executor, run_round, op, max_rounds):
    """Seminaive evaluation for monotone MIN/MAX aggregation (SSSP).

    Each round substitutes only the *delta* — keys whose value improved —
    for the recursive atom, so work shrinks as distances settle, which is
    the property the paper relies on to stay within 3x of Galois.
    """
    combine, improves = ("min", np.less) if op == "MIN" \
        else ("max", np.greater)
    saved = executor.catalog[rule.head_name]
    best = delta = saved.deduplicated(combine=combine)
    try:
        for _ in range(max_rounds):
            if delta.cardinality == 0:
                return best
            produced = run_round(delta).deduplicated(combine=combine)
            best, delta = _merge_improved(best, produced, improves)
    finally:
        _install_round(executor, rule.head_name, saved)
    raise ExecutionError(
        "seminaive recursion on %r did not converge in %d rounds"
        % (rule.head_name, max_rounds))


def _merge_improved(best, produced, improves):
    """Fold one round's output into the accumulated relation.

    Both arguments are canonical, so after a stable sort of their
    concatenation a key the round re-derived sits directly behind its
    accumulated row.  Returns ``(best, delta)``, both canonical: the
    accumulation with every improvement applied, and the rows that are
    new or strictly better than before.
    """
    if not produced.cardinality:
        return best, produced
    data = np.concatenate([best.data, produced.data])
    values = np.concatenate([best.annotations, produced.annotations])
    order = np.lexsort(tuple(data[:, c]
                             for c in range(data.shape[1] - 1, -1, -1)))
    data, values = data[order], values[order]
    fresh = order >= best.cardinality
    rederived = np.zeros(order.size, dtype=bool)
    rederived[1:] = fresh[1:] & np.all(data[1:] == data[:-1], axis=1)
    improved = fresh.copy()
    improved[1:] &= ~rederived[1:] | improves(values[1:], values[:-1])
    beaten = np.zeros(order.size, dtype=bool)
    beaten[:-1] = rederived[1:] & improved[1:]

    def canonical(rows):
        relation = Relation(best.name, data[rows], values[rows])
        relation._canonical = True
        return relation
    return canonical(improved | ~(fresh | beaten)), canonical(improved)
