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
— the one holding the delta atom and every bag above it — with the
delta-reached variables first
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
body against the catalog the round installed, and a round after the
first is a flat-array step:

* **Compiled once.**  The round body is one rule object per
  recursive rule (:meth:`~repro.engine.plan_cache.PlanCache.get_body`),
  so under the default engine it carries a rule pin: the first round
  of the first run optimizes and compiles (or hits the plan cache),
  and every later round, of this run or a later one, reaches that
  compiled rule through the pin with only the installed head stale,
  which the plan cache's re-bind gives the body's atoms and their
  tries — no optimizer pass.  Each round's head retires the tries of
  the one it replaces, so nothing a round caches outlives the next.
* **Dense accumulation.**  Every value the head can ever hold lies
  between the smallest and largest of its base case and the other
  body relations.  When the mixed-radix code space of that range is no
  larger than ``max(DENSE_GROUPS, rows)`` — the rule the kernel's
  unordered group-by scatters by — ``best`` is a value array and a
  presence mask indexed by code (:class:`_DenseBest`): a round's
  improvement is one gather and compare, its delta the rows that
  improved (canonical as the round produced them), and the final
  relation is built once.  Wider or sparser heads merge canonical
  relations by binary search (:func:`_merge_improved`).  The two
  routes agree bit for bit.
"""

import time

import numpy as np

from ..errors import ExecutionError, PlanError
from ..query.ast import clone_rule
from ..storage.delta import row_keys
from ..storage.relation import Relation
from .fused import DENSE_GROUPS, _codes
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
    into it, as a non-recursive rule's one execution would, and leaves
    one :class:`~repro.engine.stats.RoundStat` row.
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
    body = executor.plans.get_body(rule, round_body)
    seminaive = body.delta is not None
    counter = executor.config.counter
    ran = 0

    def run_round(relation):
        """Evaluate the body once with ``relation`` as the head."""
        nonlocal ran
        ran += 1
        executor.install(rule.head_name, relation)
        ops, start = counter.total_ops, time.perf_counter()
        produced = executor.execute(body, stats)
        if stats is not None:
            stats.record_round(relation.cardinality, produced.cardinality,
                               counter.total_ops - ops,
                               time.perf_counter() - start)
        return produced

    if fixpoint:
        result = _fixpoint(rule, executor, run_round, op, seminaive,
                           max_rounds, stats)
    else:
        result = _naive_replace(rule, executor, run_round)
    if ran and executor.last_plan is not None:
        executor.last_plan.rounds = ran
    executor.install(rule.head_name, result)
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


def _naive_replace(rule, executor, run_round):
    """Fixed-iteration unrolling with replace semantics (PageRank)."""
    current = executor.catalog[rule.head_name]
    for _ in range(rule.iterations):
        current = run_round(current)
    return current


def _fixpoint(rule, executor, run_round, op, seminaive, max_rounds,
              stats=None):
    """Iterate to the fixpoint of a monotone MIN/MAX aggregation
    (``op``; SSSP) or of a union (``op`` ``None``; transitive closure).

    ``best`` accumulates — densely when the head's code space allows,
    which the first round that produces anything decides — and
    ``delta`` holds the rows the last round made new or strictly
    better; the fixpoint is reached when there are none.  A
    ``seminaive`` round reads the delta through the recursive atom,
    any other the whole of ``best``.
    """
    combine, improves = {None: ("last", None), "MIN": ("min", np.less),
                         "MAX": ("max", np.greater)}[op]
    saved = executor.catalog[rule.head_name]
    best = delta = saved.deduplicated(combine=combine)
    dense = None
    try:
        for count in range(max_rounds):
            if delta.cardinality == 0:
                return best if dense is None else dense.relation()
            head = delta if seminaive \
                else best if dense is None else dense.relation()
            produced = run_round(head).deduplicated(combine=combine)
            if count == 0 and produced.cardinality:
                dense = _DenseBest.fitting(rule, executor.catalog, best,
                                           improves)
            if dense is None:
                best, delta = _merge_improved(best, produced, improves)
            else:
                delta = dense.merge(produced)
            if stats is not None:
                stats.rounds[-1].changed = delta.cardinality
    finally:
        executor.install(rule.head_name, saved)
    raise ExecutionError("recursion on %r did not converge in %d rounds"
                         % (rule.head_name, max_rounds))


def _canonical(name, data, values):
    relation = Relation(name, data, values)
    relation._canonical = True
    return relation


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
    return _canonical(best.name, data, values), _canonical(
        best.name, produced.data[changed],
        None if values is None else produced.annotations[changed])


class _DenseBest:
    """The accumulated relation of a fixpoint as arrays indexed by the
    mixed-radix code of its rows: a presence mask and, under MIN/MAX,
    the value of every present row.  Codes ascend as rows do, so
    decoding the present codes yields the canonical relation.  Every
    column shares one radix, ``size`` codes from ``low``."""

    def __init__(self, base, low, size, improves):
        self.name, self.arity = base.name, base.arity
        self.low, self.size = low, size
        space = size ** self.arity
        self.improves = improves
        self.present = np.zeros(space, dtype=bool)
        self.values = None if improves is None \
            else np.zeros(space, dtype=np.float64)
        code = self._code(base.data)
        self.present[code] = True
        if self.values is not None:
            self.values[code] = base.annotations

    @classmethod
    def fitting(cls, rule, catalog, base, improves):
        """The dense accumulator of a non-empty ``base`` when the head's
        code space is at most ``max(DENSE_GROUPS, rows)``, ``rows`` the
        largest relation a round reads; else ``None``.

        A round derives every head value from a body column — another
        relation's or, through the head, one the base case and earlier
        rounds filled — so the hull of the base case's and the other
        body relations' columns holds every value the head ever will.
        """
        if not base.arity:
            return None
        relations = [base] + [catalog[atom.name] for atom in rule.body
                              if atom.name != rule.head_name]
        spans = [span for relation in relations
                 for span in map(relation.span, range(relation.arity))
                 if span is not None]
        low = min(span[0] for span in spans)
        size = max(span[1] for span in spans) - low + 1
        rows = max(relation.cardinality for relation in relations)
        if size ** base.arity > max(DENSE_GROUPS, rows):
            return None
        return cls(base, low, size, improves)

    def _code(self, data):
        return _codes([data[:, column].astype(np.int64) - self.low
                       if self.low else data[:, column]
                       for column in range(self.arity)],
                      [self.size] * self.arity)

    def merge(self, produced):
        """Fold one round's canonical output in; returns the delta."""
        code = self._code(produced.data)
        changed = ~self.present[code]
        if self.values is not None:
            changed |= self.improves(produced.annotations,
                                     self.values[code])
        # (row indexes, not masks: a 2-D mask gather is 6x slower)
        rows = np.flatnonzero(changed)
        code = code[rows]
        self.present[code] = True
        values = None       # a union's rows carry none
        if self.values is not None:
            values = self.values[code] = produced.annotations[rows]
        return _canonical(self.name, produced.data.take(rows, axis=0),
                          values)

    def relation(self):
        """The accumulation as a canonical relation."""
        code = np.flatnonzero(self.present)
        values = None if self.values is None else self.values[code]
        columns = []
        for _ in range(self.arity):
            code, column = np.divmod(code, self.size)
            columns.append(column + self.low)
        data = np.stack(columns[::-1], axis=1).astype(np.uint32)
        return _canonical(self.name, data, values)
