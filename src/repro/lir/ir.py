"""Logical IR node types.

A :class:`LogicalRule` is the optimizer's working representation of one
rule: body atoms resolved against the catalog and reduced to distinct
variables (:class:`LogicalAtom`), the head and annotation expression
carried over from the AST, and — after the plan passes ran — the chosen
GHD, selection-pushdown duplicates, and global attribute order.

Derived relations (selection slices, pruned projections) materialize
*lazily*: a :class:`LogicalAtom` records the filter/projection spec and
only touches tuple data when its :attr:`~LogicalAtom.relation` is first
read.  That keeps the plan-cache hit path — which needs only the
canonical cache key — free of numpy work.
"""

import numpy as np

from ..query.ast import (Agg, BinOp, Num, Ref, expression_aggregates,
                         render_expression)
from ..storage.relation import Relation


class LogicalAtom:
    """A body atom reduced to distinct variables over a concrete relation.

    Attributes
    ----------
    name:
        Catalog name of the source relation (display identity).
    sig_name:
        Selection/projection-aware identity: two atoms share a
        ``sig_name`` exactly when their derived relations are guaranteed
        equal whenever their sources are.  Feeds bag-equivalence
        signatures and the canonical plan-cache key.
    source:
        The catalog :class:`~repro.storage.relation.Relation` the atom
        resolved to (identity anchor for cache guards).
    variables:
        Distinct variable names, in kept-column order.
    is_selection:
        Whether any term was a constant.
    annotated:
        Whether the (derived) relation carries an annotation column.
    """

    __slots__ = ("name", "sig_name", "source", "variables", "is_selection",
                 "annotated", "_filters", "_keep", "_equalities", "_dedup",
                 "_relation", "_display")

    def __init__(self, name, source, variables, filters=(), keep=None,
                 equalities=(), dedup=False, display=None):
        self.name = name
        self.source = source
        self.variables = tuple(variables)
        #: ``(position, encoded_value_or_None)`` constant filters;
        #: ``None`` marks a constant absent from the dictionary (the
        #: selection is statically empty).
        self._filters = tuple(filters)
        #: Source column index kept for each variable, parallel to
        #: ``variables``; ``None`` means the identity projection.
        self._keep = tuple(keep) if keep is not None else None
        #: ``(position, first_position)`` repeated-variable equalities.
        self._equalities = tuple(equalities)
        #: Whether the projection can introduce duplicate rows
        #: (attribute pruning sets this; plain normalization never
        #: drops a variable column, so it cannot).
        self._dedup = dedup
        self._relation = None
        self._display = display if display is not None else name
        self.is_selection = bool(self._filters)
        self.annotated = source.annotations is not None
        self.sig_name = self._signature_name()

    def _signature_name(self):
        if self._filters == () and self._equalities == () \
                and (self._keep is None
                     or list(self._keep) == list(range(self.source.arity))):
            return self.name
        parts = ["k%d" % p for p in (self._keep or ())]
        parts += ["%d=%s" % (p, "~" if v is None else v)
                  for p, v in self._filters]
        parts += ["%d==%d" % (a, b) for a, b in self._equalities]
        return "%s{%s}" % (self.name, ",".join(parts))

    @property
    def relation(self):
        """The concrete relation (derived lazily on first access)."""
        if self._relation is None:
            self._relation = self._derive()
        return self._relation

    def _derive(self):
        source = self.source
        if self.sig_name == self.name:
            return source
        data = source.data
        annotations = source.annotations
        mask = np.ones(data.shape[0], dtype=bool)
        for position, encoded in self._filters:
            if encoded is None:
                mask[:] = False
                break
            mask &= data[:, position] == encoded
        for position, first in self._equalities:
            mask &= data[:, position] == data[:, first]
        keep = self._keep if self._keep is not None \
            else tuple(range(source.arity))
        data = data[mask][:, list(keep)]
        annotations = annotations[mask] if annotations is not None else None
        derived = Relation("%s|%s" % (self.name, self._display), data,
                           annotations, None)
        if self._dedup and derived.arity:
            derived = derived.deduplicated()
        # What the trie cache identifies the slice by: every planning
        # derives a new object, but equal sources and ``sig_name``
        # guarantee equal contents.
        derived.derived_from = (source, self.sig_name)
        return derived

    def constant_dictionaries(self):
        """The source's column dictionaries this atom's constants were
        encoded through: while none of them grows, every constant
        encodes as it did."""
        dictionaries = self.source.dictionaries
        if dictionaries is None:
            return ()
        return tuple(dictionaries[position] for position, _ in self._filters
                     if dictionaries[position] is not None)

    def rebind(self, source):
        """Point this atom at ``source`` and drop its cut slice: a
        selection-free atom takes a replacement of its source with the
        same shape (a recursion round's new head), any atom takes its
        own source after an in-place mutation, and the next read of
        :attr:`relation` cuts the slice again."""
        self.source = source
        self._relation = None

    def pruned(self, drop_vars):
        """Copy of this atom with ``drop_vars`` projected away.

        The projection can merge rows, so the derived relation is
        deduplicated; pruning is therefore only semantics-preserving
        for unannotated atoms in non-aggregating rules (the pass checks
        both).
        """
        keep = self._keep if self._keep is not None \
            else tuple(range(self.source.arity))
        kept_vars, kept_cols = [], []
        for variable, column in zip(self.variables, keep):
            if variable not in drop_vars:
                kept_vars.append(variable)
                kept_cols.append(column)
        return LogicalAtom(self.name, self.source, kept_vars,
                           filters=self._filters, keep=kept_cols,
                           equalities=self._equalities, dedup=True,
                           display=self._display)

    def __str__(self):
        return "%s(%s)" % (self.sig_name, ",".join(self.variables))


#: Backwards-compatible alias (the executor's old class name).
NormalizedAtom = LogicalAtom


class LogicalRule:
    """One rule in logical IR, flowing through the pass pipeline.

    Built by :func:`repro.lir.build.build_rule`; rewrite passes mutate
    ``atoms``/``assignment``; plan passes fill ``ghd``, ``duplicates``,
    ``selected_vars``, and ``global_order``.  ``trace`` accumulates a
    :class:`~repro.lir.passes.PassTrace` for EXPLAIN output.
    """

    __slots__ = ("rule", "head_name", "head_vars", "annotation",
                 "assignment", "atoms", "guard_atoms", "aggregate",
                 "unbound_head", "too_many_aggregates", "ghd", "duplicates",
                 "selected_vars", "global_order", "trace", "delta_vars",
                 "digest")

    def __init__(self, rule, atoms, guard_atoms, trace=None,
                 delta_vars=()):
        self.rule = rule
        self.head_name = rule.head_name
        self.head_vars = tuple(rule.head_vars)
        self.annotation = rule.annotation
        self.assignment = rule.assignment
        self.atoms = list(atoms)
        self.guard_atoms = list(guard_atoms)
        aggregates = rule.aggregates
        self.too_many_aggregates = len(aggregates) > 1
        self.aggregate = aggregates[0] if aggregates else None
        body_vars = set()
        for atom in self.atoms:
            body_vars |= set(atom.variables)
        self.unbound_head = [v for v in self.head_vars
                             if v not in body_vars]
        self.ghd = None
        self.duplicates = frozenset()
        self.selected_vars = frozenset()
        self.global_order = ()
        self.trace = trace
        #: Variables of the atom that reads a seminaive round's delta
        #: (``rule.delta``); bags bind them first.  Empty otherwise.
        self.delta_vars = tuple(delta_vars)
        #: The query log's digest of :meth:`cache_key`, filled in by
        #: the first logged execution: a compiled rule keeps its
        #: logical rule, so the digest is computed once per plan.
        self.digest = None

    # -- derived facts -------------------------------------------------------

    @property
    def aggregate_mode(self):
        """Early-aggregation mode: annotated head with an aggregate."""
        return self.annotation is not None and self.aggregate is not None

    @property
    def has_empty_guard(self):
        """Whether any zero-variable atom is statically empty."""
        return any(g.relation.cardinality == 0 for g in self.guard_atoms)

    def sig_names(self):
        """``{atom index: sig_name}`` for bag-equivalence signatures."""
        return {i: atom.sig_name for i, atom in enumerate(self.atoms)}

    def with_head(self, head_vars, annotation=None, assignment=None):
        """Copy with a different head (plan passes reset).

        Used for the ``<<COUNT(v)>>`` pseudo-materialization, which
        extends the head with the counted variable; the atoms (and any
        rewrites already applied to them) carry over unchanged.
        """
        from ..query.ast import clone_rule
        pseudo = clone_rule(self.rule, head_vars=tuple(head_vars),
                            annotation=annotation, assignment=assignment)
        return LogicalRule(pseudo, self.atoms, self.guard_atoms,
                           trace=self.trace, delta_vars=self.delta_vars)

    # -- canonical identity --------------------------------------------------

    def cache_key(self):
        """Alpha-renaming-invariant identity of the rewritten rule.

        Variables are replaced by dense indexes in order of first
        appearance (head first, then body atoms in order), so two
        queries that differ only in variable names share one plan-cache
        entry.  Everything that affects the compiled plan appears:
        head name, annotation declaration, canonicalized assignment
        expression, each atom's selection-aware ``sig_name`` with
        canonical variable indexes, and the delta variables a
        seminaive round orders first.
        """
        rename = {}

        def index_of(variable):
            if variable not in rename:
                rename[variable] = len(rename)
            return rename[variable]

        head = tuple(index_of(v) for v in self.head_vars)
        body = tuple((atom.sig_name,
                      tuple(index_of(v) for v in atom.variables))
                     for atom in self.atoms)
        guards = tuple(sorted(g.sig_name for g in self.guard_atoms))
        annotation = (self.annotation.type,) \
            if self.annotation is not None else None
        assignment = _canonical_expression(self.assignment, rename) \
            if self.assignment is not None else None
        delta = tuple(rename[v] for v in self.delta_vars if v in rename)
        return (self.head_name, head, annotation, assignment, body, guards,
                bool(self.rule.recursive), delta)

    def describe(self):
        """One-line rendering of the current (rewritten) body."""
        body = ",".join(str(a) for a in self.atoms + self.guard_atoms)
        head = ",".join(self.head_vars)
        tail = ""
        if self.assignment is not None and self.annotation is not None:
            tail = "; %s=%s" % (self.annotation.var,
                                render_expression(self.assignment))
        return "%s(%s) :- %s%s." % (self.head_name, head, body, tail)


def _canonical_expression(expr, rename):
    """Hashable, alpha-invariant form of an annotation expression."""
    if isinstance(expr, Num):
        return ("num", expr.value)
    if isinstance(expr, Ref):
        return ("ref", expr.name)  # scalar relation names are global
    if isinstance(expr, Agg):
        if expr.arg == "*":
            return ("agg", expr.op, "*")
        if expr.arg not in rename:
            rename[expr.arg] = len(rename)
        return ("agg", expr.op, rename[expr.arg])
    if isinstance(expr, BinOp):
        return ("bin", expr.op, _canonical_expression(expr.left, rename),
                _canonical_expression(expr.right, rename))
    return ("other", repr(expr))


def rule_aggregates(rule):
    """The :class:`Agg` nodes of a rule's assignment (re-export helper)."""
    if rule.assignment is None:
        return []
    return expression_aggregates(rule.assignment)
