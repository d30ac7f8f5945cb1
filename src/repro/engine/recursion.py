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
"""

import numpy as np

from ..errors import ExecutionError, PlanError
from ..storage.relation import Relation
from .semiring import is_monotone

#: Safety cap for fixpoint loops: recursion that has not converged after
#: this many rounds raises instead of spinning.
MAX_FIXPOINT_ROUNDS = 100000


def execute_recursive(rule, executor, max_rounds=MAX_FIXPOINT_ROUNDS):
    """Run one recursive rule to completion.

    The base case must already be stored in the executor's catalog under
    ``rule.head_name`` (the paper's programs establish it with a prior
    non-recursive rule).  Returns the final relation, which is also
    installed back into the catalog.
    """
    catalog = executor.catalog
    base = catalog.get(rule.head_name)
    if base is None:
        raise PlanError("recursive rule %r has no base case in the catalog"
                        % rule.head_name)
    aggregates = rule.aggregates
    op = aggregates[0].op if aggregates else None
    if rule.iterations is not None:
        result = _naive_replace(rule, executor, rule.iterations)
    elif op is not None and is_monotone(op):
        result = _seminaive(rule, executor, op, max_rounds)
    elif op is None:
        result = _naive_union(rule, executor, max_rounds)
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


def _run_once(rule, executor):
    """Evaluate the rule body once against the current catalog."""
    from ..query.ast import clone_rule
    flat = clone_rule(rule, recursive=False, iterations=None)
    return executor.execute(flat)


def _naive_replace(rule, executor, iterations):
    """Fixed-iteration unrolling with replace semantics (PageRank)."""
    catalog = executor.catalog
    current = catalog[rule.head_name]
    for _ in range(iterations):
        _install_round(executor, rule.head_name, current)
        current = _run_once(rule, executor)
    _install_round(executor, rule.head_name, current)
    return current


def _naive_union(rule, executor, max_rounds):
    """Union iteration to fixpoint (transitive-closure style)."""
    catalog = executor.catalog
    current = catalog[rule.head_name].deduplicated()
    for _ in range(max_rounds):
        _install_round(executor, rule.head_name, current)
        produced = _run_once(rule, executor)
        merged_data = np.concatenate([current.data, produced.data]) \
            if produced.cardinality else current.data
        merged = Relation(rule.head_name, merged_data).deduplicated()
        if merged.cardinality == current.cardinality:
            return current
        current = merged
    raise ExecutionError("recursion on %r did not converge in %d rounds"
                         % (rule.head_name, max_rounds))


def _seminaive(rule, executor, op, max_rounds):
    """Seminaive evaluation for monotone MIN/MAX aggregation (SSSP).

    Each round substitutes only the *delta* — keys whose value improved —
    for the recursive atom, so work shrinks as distances settle, which is
    the property the paper relies on to stay within 3x of Galois.
    """
    catalog = executor.catalog
    better = (lambda new, old: new < old) if op == "MIN" \
        else (lambda new, old: new > old)
    combine = "min" if op == "MIN" else "max"
    base = catalog[rule.head_name].deduplicated(combine=combine)
    best = {tuple(int(v) for v in row): float(a)
            for row, a in zip(base.data, base.annotations)}
    delta = base
    saved = catalog[rule.head_name]
    try:
        for _ in range(max_rounds):
            if delta.cardinality == 0:
                break
            _install_round(executor, rule.head_name, delta)
            produced = _run_once(rule, executor)
            improved_rows = []
            improved_values = []
            if produced.cardinality:
                produced = produced.deduplicated(combine=combine)
                for row, value in zip(produced.data, produced.annotations):
                    key = tuple(int(v) for v in row)
                    value = float(value)
                    old = best.get(key)
                    if old is None or better(value, old):
                        best[key] = value
                        improved_rows.append(key)
                        improved_values.append(value)
            delta = Relation(
                rule.head_name,
                np.asarray(improved_rows, dtype=np.uint32).reshape(
                    -1, base.arity),
                np.asarray(improved_values, dtype=np.float64))
        else:
            raise ExecutionError(
                "seminaive recursion on %r did not converge in %d rounds"
                % (rule.head_name, max_rounds))
    finally:
        _install_round(executor, rule.head_name, saved)
    keys = np.asarray(sorted(best), dtype=np.uint32).reshape(-1, base.arity)
    values = np.asarray([best[tuple(int(v) for v in row)] for row in keys],
                        dtype=np.float64)
    return Relation(rule.head_name, keys, values)
