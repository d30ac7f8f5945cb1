"""Semi-naive incremental maintenance of materialized views.

``Database.materialize(name, query)`` registers a *materialized view*:
the defining program is run once, and the view's head relation stays
installed in the catalog.  Mutations (``Database.append`` / ``delete``)
mark dependent views stale; the next query (or ``Database.relation``)
refreshes them.

A refresh takes one of two routes:

**Delta route** (the point of this module).  For a single-rule,
non-recursive view whose mutated dependencies saw *insert-only*
changes, the new tuples Δ are substituted into the rule body one
position at a time against the full (already-updated) versions of the
other atoms — the semi-naive step datalog engines use, evaluated with
the very same executor machinery as ordinary rules, so every delta term
benefits from the plan cache and the fused kernels.
The terms combine with the old view contents per semiring:

* set semantics (no annotation): old ∪ ⋃ᵢ eval(Δ at position i) —
  every new derivation uses at least one Δ tuple, and union is
  idempotent, so singleton terms cover everything;
* ``MIN``/``MAX``: idempotent too — fold the singleton terms into the
  old groups with ``min``/``max``;
* ``SUM``/``COUNT(*)``: additive, so overcounting matters; the terms
  run over every non-empty *subset* S of Δ positions, signed
  ``(-1)^(|S|+1)`` (inclusion–exclusion over "which atoms drew from
  Δ"), and the signed values add onto the old groups.  Rules with more
  than :data:`MAX_DELTA_POSITIONS` Δ positions fall back (the term
  count is exponential).

**Full route** (always available, always correct).  Re-run the view's
defining program.  Taken when the rule shape is not delta-capable
(multi-rule programs, recursion, ``COUNT(distinct)``, wrapped
aggregate expressions, constant annotations, 0-ary heads), when a
dependency was replaced wholesale or saw deletes/annotation rewrites,
when the journal was trimmed by a delta-store merge, or when
``EngineConfig.incremental_views`` is off.  Both routes produce
identical results — the mutation fuzzer checks them differentially.

**Routing.**  Where both routes are open, the cheaper one by
prediction runs (:func:`delta_pays`).  Every execution pays a fixed
cost whatever its join work (:data:`EXECUTION_OVERHEAD`, in lane-op
units), and the delta route pays it once per term: a triangle count
over a few thousand edges costs less to re-run once than to evaluate
as seven small terms.  A term's join work is predicted from the
view's last full run, scaled by the fraction of each Δ-substituted
relation the journal holds; nothing reads a clock, so the same
catalog and journal always take the same route.
"""

import itertools
import time

import numpy as np

from ..errors import SchemaError
from ..query.ast import Agg, Atom, clone_rule, expression_refs
from ..storage.relation import Relation

#: Prefix for the temporary Δ relations installed during a delta term
#: evaluation (popped from the catalog before the refresh returns).
DELTA_PREFIX = "__delta__"

#: Ceiling on Δ-substituted body positions for the SUM/COUNT
#: inclusion–exclusion expansion (2^n - 1 terms).
MAX_DELTA_POSITIONS = 3

#: The fixed cost of one rule execution, in lane ops: what a warm run
#: of a compiled rule costs beyond its join work (the rule-tier probe,
#: trie fetches, the Yannakakis walk, finalization), plus a Δ-term's
#: share of the refresh around it.  On ``serve_mixed``'s graph (CLI
#: loader, 2 000 rows, default engine, both benchmark seeds, median of
#: 60 append-refresh cycles each, a 2-core Xeon VM) a refresh that
#: re-runs the triangle count ``T`` takes 570-580 us for 4 175-4 192
#: lane ops, and one forced through its seven Δ-terms 1 240 us for
#: 690-712; solved for a cost per execution and one per lane op that
#: is 167 us and 96-99 ns, so an execution weighs about 1 700 lane
#: ops.  ``T`` then predicts
#: seven terms at ~12 000 against a rerun at ~5 900 and re-runs; at
#: 7 000 rows the rerun's own join work (36 000 lane ops on the default
#: engine, 54 000 on the interpreter) outweighs six executions and the
#: delta route is kept.  A constant, not a setting: the routing reads
#: it on every refresh.
EXECUTION_OVERHEAD = 1700


def _delta_capable(rules):
    """Whether the delta route can maintain a view with these rules."""
    if len(rules) != 1:
        return False
    rule = rules[0]
    if rule.recursive:
        return False
    if rule.annotation is None:
        # Plain materialization under set semantics; 0-ary heads carry
        # EXISTS semantics the set-union combine does not model.
        return bool(rule.head_vars)
    assignment = rule.assignment
    if not isinstance(assignment, Agg):
        # Wrapped expressions (w = <<SUM(v)>> + 1) and constant
        # annotations are not linear/idempotent in the aggregate.
        return False
    if assignment.op == "COUNT" and assignment.arg != "*":
        # COUNT(v) counts distinct v per group — not additive in Δ.
        return False
    return True


class MaterializedView:
    """One registered view: defining program, dependencies, versions."""

    def __init__(self, name, text, rules):
        self.name = name
        self.text = text
        self.rules = tuple(rules)
        heads = {rule.head_name for rule in self.rules}
        deps = set()
        for rule in self.rules:
            for atom in rule.body:
                deps.add(atom.name)
            if rule.assignment is not None:
                deps.update(expression_refs(rule.assignment))
        #: External relation names the view reads (its own rule heads
        #: excluded) — mutations to these mark the view stale.
        self.deps = frozenset(deps - heads)
        #: ``{name: (id(relation), version)}`` snapshot at last refresh.
        self.dep_versions = {}
        self.stale = False
        self.delta_capable = _delta_capable(self.rules)
        self.refreshes = 0
        self.delta_refreshes = 0
        #: Lane ops the view's latest full run charged: the rerun's
        #: predicted cost, and the scale of every term's.
        self.full_ops = 0
        #: Wall seconds the latest refresh took (``None`` before the
        #: first): what the next refresh is predicted to cost.
        self.refresh_seconds = None
        self._terms = {}
        if self.delta_capable:
            # every dependency mutated: the term set of a view over one
            # relation, built now so each term rule is one object for
            # the executor to pin its plan to
            self.terms(tuple(index for index, atom
                             in enumerate(self.rules[0].body)
                             if atom.name in self.deps))

    def terms(self, positions):
        """``(subset, sign, term rule)`` of every Δ-term when the atoms
        at ``positions`` read mutated relations, or ``None`` when there
        are too many for inclusion–exclusion.  Built once per position
        set: the same rule objects run on every refresh."""
        terms = self._terms.get(positions)
        if terms is None and positions not in self._terms:
            terms = self._terms[positions] = _terms(self.rules[0],
                                                    positions)
        return terms

    def capture(self, catalog):
        """Snapshot dependency identities/versions after a refresh."""
        self.dep_versions = {
            name: (id(catalog[name]),
                   getattr(catalog[name], "version", 0))
            for name in self.deps if name in catalog
        }

    def __repr__(self):
        return "MaterializedView(%s, deps=%s%s)" % (
            self.name, sorted(self.deps),
            ", stale" if self.stale else "")


def mark_stale(views, name):
    """Mark every view depending on relation ``name`` stale."""
    for view in views.values():
        if name in view.deps:
            view.stale = True


def refresh_stale_views(db):
    """Refresh stale views to a fixpoint (views may feed other views)."""
    if db._refreshing:
        return
    db._refreshing = True
    try:
        # A refresh can re-stale downstream views; the dependency graph
        # is acyclic (a view's deps predate it), so |views| + 1 rounds
        # always reach the fixpoint.
        for _ in range(len(db._views) + 1):
            stale = [v for v in db._views.values() if v.stale]
            if not stale:
                return
            for view in stale:
                refresh_view(db, view)
    finally:
        db._refreshing = False


def refresh_view(db, view):
    """Bring one stale view up to date: the delta route when it is open
    and predicted cheaper, else a full re-run.  Its wall time is kept
    on the view (``refresh_seconds``)."""
    start = time.perf_counter()
    view.refreshes += 1
    view.stale = False
    if db.config.incremental_views and view.delta_capable \
            and _delta_refresh(db, view):
        view.delta_refreshes += 1
    else:
        _rerun(db, view)
    view.capture(db.catalog)
    view.refresh_seconds = time.perf_counter() - start


def _rerun(db, view):
    """Run the view's defining program, recording its lane ops."""
    counter = db.config.counter
    before = counter.total_ops
    db._query_plain(view.text)
    view.full_ops = counter.total_ops - before


def delta_pays(full_ops, term_ops):
    """Whether Δ-terms predicted at ``term_ops`` lane ops each cost less
    than a rerun of the view's last full run (``full_ops``), with
    :data:`EXECUTION_OVERHEAD` charged per execution."""
    return sum(term_ops) + len(term_ops) * EXECUTION_OVERHEAD \
        < full_ops + EXECUTION_OVERHEAD


# -- the delta route ---------------------------------------------------------


def _pure_insert_journal(db, view):
    """Per-dependency journal entries since the snapshot, or ``None``
    to force the full route.

    Valid only when every mutated dependency kept its identity and its
    journal reaches back to the snapshot with insert-only entries.
    """
    journal = {}
    for name in view.deps:
        relation = db.catalog.get(name)
        recorded = view.dep_versions.get(name)
        if relation is None or recorded is None:
            return None
        ident, version = recorded
        if id(relation) != ident:
            return None  # replaced wholesale — no journal continuity
        if getattr(relation, "version", 0) == version:
            continue
        delta = getattr(relation, "delta", None)
        entries = None if delta is None \
            else delta.pure_inserts_since(version)
        if not entries:
            return None  # trimmed journal, deletes, or rewrites
        journal[name] = entries
    return journal


def _delta_relation(name, relation, entries):
    """The journal's inserted rows as the Δ relation of catalog
    relation ``name``, shaped like it."""
    rows = np.concatenate([entry.data for entry in entries])
    anns = None
    if relation.annotations is not None:
        anns = np.concatenate([entry.annotations for entry in entries])
    delta_relation = Relation(DELTA_PREFIX + name, rows, anns,
                              relation.dictionaries)
    attr_names = getattr(relation, "attr_names", None)
    if attr_names is not None:
        delta_relation.attr_names = attr_names
    return delta_relation


def _terms(rule, positions):
    """The signed Δ-terms over ``positions`` (see :meth:`
    MaterializedView.terms`)."""
    op = rule.assignment.op if isinstance(rule.assignment, Agg) else None
    if op in ("SUM", "COUNT"):
        if len(positions) > MAX_DELTA_POSITIONS:
            return None
        subsets = [
            (frozenset(subset), -1.0 if (size % 2) == 0 else 1.0)
            for size in range(1, len(positions) + 1)
            for subset in itertools.combinations(positions, size)
        ]
    else:
        # Idempotent combines: singleton terms cover every new
        # derivation, overcounting is harmless.
        subsets = [(frozenset([p]), 1.0) for p in positions]
    return [(subset, sign, _term_rule(rule, subset))
            for subset, sign in subsets]


def _term_rule(rule, positions_in_delta):
    """The rule with the atoms at ``positions_in_delta`` pointing at Δ."""
    body = tuple(
        Atom(DELTA_PREFIX + atom.name, atom.terms)
        if index in positions_in_delta else atom
        for index, atom in enumerate(rule.body))
    return clone_rule(rule, head_name=DELTA_PREFIX + rule.head_name,
                      body=body, recursive=False, iterations=None)


def _term_ops(view, rule, subset, fractions):
    """A term's predicted lane ops: the last full run's, scaled by the
    fraction of its relation each Δ-substituted atom reads."""
    ops = float(view.full_ops)
    for index in subset:
        ops *= fractions[rule.body[index].name]
    return ops


def _delta_refresh(db, view):
    """Take the delta route; ``True`` on success, ``False`` when it is
    closed or predicted dearer than a rerun."""
    rule = view.rules[0]
    old = db.catalog.get(view.name)
    if old is None:
        return False
    journal = _pure_insert_journal(db, view)
    if journal is None:
        return False
    positions = tuple(index for index, atom in enumerate(rule.body)
                      if atom.name in journal)
    if not positions:
        return True  # spuriously stale — nothing actually changed
    terms = view.terms(positions)
    if terms is None:
        return False
    fractions = {
        name: sum(entry.data.shape[0] for entry in entries)
        / max(db.catalog[name].cardinality, 1)
        for name, entries in journal.items()}
    if not delta_pays(view.full_ops,
                      [_term_ops(view, rule, subset, fractions)
                       for subset, _, _ in terms]):
        return False
    installed = []
    try:
        for name, entries in journal.items():
            delta_relation = _delta_relation(name, db.catalog[name],
                                             entries)
            db._executor.install(delta_relation.name, delta_relation)
            installed.append(delta_relation.name)
        signed_terms = [(sign, db._executor.execute(term_rule))
                        for _, sign, term_rule in terms]
    finally:
        for name in installed:
            db._executor.install(name, None)
    combined = _combine(old, rule, signed_terms)
    combined.dictionaries = old.dictionaries
    if getattr(old, "attr_names", None) is not None:
        combined.attr_names = old.attr_names
    db._install(view.name, combined)
    return True


def _combine(old, rule, signed_terms):
    """Fold the signed delta terms into the old view contents."""
    op = rule.assignment.op if isinstance(rule.assignment, Agg) else None
    if rule.annotation is not None and not rule.head_vars:
        return _combine_scalar(old, op, signed_terms)
    if rule.annotation is None:
        combine = None
    elif op in ("SUM", "COUNT"):
        combine = "sum"
    elif op == "MIN":
        combine = "min"
    elif op == "MAX":
        combine = "max"
    else:  # pragma: no cover - _delta_capable filters these out
        raise SchemaError("aggregate %r is not delta-maintainable" % op)
    blocks = [old.data]
    annotation_blocks = [old.annotations]
    for sign, term in signed_terms:
        if term.cardinality == 0:
            continue
        blocks.append(term.data)
        if combine is not None:
            values = term.annotations if term.annotations is not None \
                else np.ones(term.cardinality)
            annotation_blocks.append(values * sign if sign != 1.0
                                     else values)
    data = np.concatenate(blocks)
    annotations = None if combine is None \
        else np.concatenate(annotation_blocks)
    merged = Relation(old.name, data, annotations,
                      old.dictionaries).deduplicated(combine or "last")
    merged.dictionaries = old.dictionaries
    return merged


def _combine_scalar(old, op, signed_terms):
    """Scalar-head combine: fold term values into the old scalar."""
    value = old.scalar_value
    for sign, term in signed_terms:
        if term.annotations is None or term.annotations.size == 0:
            continue
        term_value = float(term.annotations[0])
        if op in ("SUM", "COUNT"):
            value += sign * term_value
        elif op == "MIN":
            value = min(value, term_value)
        else:
            value = max(value, term_value)
    return Relation.scalar(old.name, value)
