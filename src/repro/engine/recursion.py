"""Naive and seminaive recursive evaluation (paper §3.3.2).

EmptyHeaded supports a restricted Kleene-star recursion.  The execution
strategy is chosen exactly as the paper describes:

* a fixed iteration count (``*[i=k]``) unrolls the rule ``k`` times with
  *replace* semantics — PageRank's mode (naive recursion);
* everything else runs to a fixpoint under one **seminaive** driver
  (:func:`_fixpoint`): a monotone MIN/MAX aggregation (SSSP) or no
  aggregation at all (transitive closure — EXISTS is just another
  idempotent fold).  Only the *delta* — tuples that are new or whose
  value strictly improved last round — feeds the recursive atom, and
  each round's output merges into the accumulated relation.

The driver marks the recursive atom of the rule it runs each round
(``Rule.delta``), and the default engine orders every bag of that rule
with the delta atom's variables first
(:func:`~repro.ghd.attribute_order.bag_evaluation_order`), so the join
*generates* from the delta instead of probing it: a round's work is
proportional to the fan-out of what changed, and shrinks as distances
settle — the property the paper relies on to stay within 3x of Galois.
The interpreted oracle ignores the mark and stays output-first.

A rule that reads its head more than once (``P(x,y) :- P(x,z),P(z,y)``)
is not linear in the delta — a round over the delta alone would join
delta with delta and miss delta with old — so its rounds read the whole
accumulated relation instead: plain naive iteration under the same
driver, converged when a round improves nothing.

Every round is one ``executor.execute`` of the rule's non-recursive
body against the catalog the round installed.  Under the default engine
only the first round of a rule compiles: later rounds differ in nothing
but the head relation, which the plan cache re-binds
(:meth:`~repro.engine.executor.RuleExecutor._rebind`).  Between rounds
the driver holds relations only — canonical (lexsorted, distinct) key
arrays with aligned values — and merges them with sorts and vectorized
compares, whatever the head's arity.
"""

import numpy as np

from ..errors import ExecutionError, PlanError
from ..query.ast import clone_rule
from ..storage.delta import row_keys
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
    fixpoint = rule.iterations is None
    if fixpoint and op is not None and not is_monotone(op):
        raise PlanError(
            "recursion with non-monotone aggregate %r needs a fixed "
            "iteration count (*[i=k])" % op)
    body = round_body(rule)
    seminaive = body.delta is not None

    def run_round(relation):
        """Evaluate the body once with ``relation`` as the head."""
        _install_round(executor, rule.head_name, relation)
        if stats is not None:
            stats.recursion_rounds += 1
        return executor.execute(body, stats)

    if fixpoint:
        result = _fixpoint(rule, executor, run_round, op, seminaive,
                           max_rounds)
    else:
        result = _naive_replace(rule, executor, run_round)
    _install_round(executor, rule.head_name, result)
    return result


def round_body(rule):
    """The non-recursive rule one round of recursive ``rule`` runs —
    what the driver executes and what ``Database.plan`` describes.

    A fixpoint rule that is linear in its head (see module docstring)
    iterates seminaively: its one recursive atom is marked as the
    delta, which the default engine binds first.
    """
    reads = [index for index, atom in enumerate(rule.body)
             if atom.name == rule.head_name]
    seminaive = rule.iterations is None and len(reads) == 1
    return clone_rule(rule, recursive=False, iterations=None,
                      delta=reads[0] if seminaive else None)


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


def _fixpoint(rule, executor, run_round, op, seminaive, max_rounds):
    """Iterate to the fixpoint of a monotone MIN/MAX aggregation
    (``op``; SSSP) or of a union (``op`` ``None``; transitive closure).

    ``best`` accumulates; ``delta`` holds the rows the last round made
    new or strictly better, and the fixpoint is reached when there are
    none.  A ``seminaive`` round reads the delta through the recursive
    atom, any other the whole of ``best``.
    """
    combine, improves = {None: ("last", None), "MIN": ("min", np.less),
                         "MAX": ("max", np.greater)}[op]
    saved = executor.catalog[rule.head_name]
    best = delta = saved.deduplicated(combine=combine)
    try:
        for _ in range(max_rounds):
            if delta.cardinality == 0:
                return best
            produced = run_round(delta if seminaive else best) \
                .deduplicated(combine=combine)
            best, delta = _merge_improved(best, produced, improves)
    finally:
        _install_round(executor, rule.head_name, saved)
    raise ExecutionError("recursion on %r did not converge in %d rounds"
                         % (rule.head_name, max_rounds))


def _merge_improved(best, produced, improves):
    """Fold one round's output into the accumulated relation.

    Both arguments are canonical, so every produced row is found in —
    or placed into — the accumulation by binary search.  Returns
    ``(best, delta)``, both canonical: the accumulation with every
    improvement applied, and the rows that are new or —
    ``improves(new, old)`` on annotated relations — strictly better
    than before.
    """
    if not produced.cardinality:
        return best, produced
    keys, found = row_keys(best.data), row_keys(produced.data)
    slots = np.searchsorted(keys, found)
    new = keys[np.minimum(slots, keys.size - 1)] != found
    changed, values = new, None
    if improves is not None:
        known = ~new
        rederived = produced.annotations[known]
        better = improves(rederived, best.annotations[slots[known]])
        values = best.annotations.copy()
        values[slots[known][better]] = rederived[better]
        changed = new.copy()
        changed[known] = better
        values = np.insert(values, slots[new], produced.annotations[new])
    data = np.insert(best.data, slots[new], produced.data[new], axis=0)

    def canonical(data, values):
        relation = Relation(best.name, data, values)
        relation._canonical = True
        return relation
    return canonical(data, values), canonical(
        produced.data[changed],
        None if values is None else produced.annotations[changed])
