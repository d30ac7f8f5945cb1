"""The optimizer pass pipeline (paper §3, Appendix B.1).

Two phases of named, independently testable passes transform a
:class:`~repro.lir.ir.LogicalRule`:

**Rewrite passes** (run before the plan-cache key is computed, so their
output *is* what the cache keys on):

``constant_folding``
    Folds constant subexpressions of the annotation assignment
    (``0.3*0.5`` → ``0.15``).
``attribute_pruning``
    Projects away body attributes no head, aggregate, or other atom
    needs (existential-variable elimination).  Only applies to
    non-aggregating rules over unannotated atoms, where the projection
    is exactly ∃-quantification and cannot change the result set.

**Plan passes** (run on a plan-cache miss):

``ghd_choice``
    GHD search with *real catalog cardinalities* (never the symbolic
    :data:`~repro.ghd.decompose.DEFAULT_SIZE`), falling back to the
    single-bag plan when early aggregation cannot route the head
    attributes upward.
``selection_pushdown``
    Appendix B.1.1 step 2 — copies selection atoms into every bag
    covering their variables; the duplicated (node, edge) pairs are
    recorded so annotations are not multiplied twice.
``attribute_order``
    Fixes the global attribute order from the GHD (selections first).

Every pass records what it changed in a :class:`PassTrace`, which
EXPLAIN renders as the pass-by-pass logical plan.
"""

import warnings
from dataclasses import dataclass
from typing import Optional

from ..ghd.attribute_order import global_attribute_order
from ..ghd.decompose import decompose
from ..ghd.ghd import ghd_shape, replay_shape
from ..obs.trace import maybe_span
from ..query.ast import BinOp, Num, render_expression
from ..query.hypergraph import Hypergraph
from .build import build_rule

#: Process-wide "warned already" latch for the symbolic-size fallback.
_default_size_warned = [False]


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

class PassRecord:
    """One pass's contribution to the logical-plan explanation."""

    __slots__ = ("name", "changed", "details")

    def __init__(self, name, changed, details=()):
        self.name = name
        self.changed = changed
        self.details = list(details)


class PassTrace:
    """Ordered record of what each optimizer pass did to one rule."""

    def __init__(self, rule_text=""):
        self.rule_text = rule_text
        self.records = []

    def record(self, name, changed, details=()):
        self.records.append(PassRecord(name, changed, details))

    def describe(self):
        """Human-readable pass-by-pass logical plan."""
        lines = ["logical plan (pass pipeline):"]
        if self.rule_text:
            lines.append("  rule: %s" % self.rule_text)
        for record in self.records:
            status = "" if record.changed else "  (no change)"
            lines.append("  %s:%s" % (record.name, status))
            lines.extend("    %s" % detail for detail in record.details)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# options
# ---------------------------------------------------------------------------

@dataclass
class OptimizerOptions:
    """The engine switches the optimizer consults.

    A plain value object so :mod:`repro.lir` never has to import
    :mod:`repro.engine` (the layering check forbids it); the executor
    builds one from its :class:`~repro.engine.config.EngineConfig`.
    """

    push_selections: bool = True
    use_ghd: bool = True
    fold_constants: bool = True
    prune_attributes: bool = True
    tracer: Optional[object] = None
    metrics: Optional[object] = None
    #: ``{atom name: cardinality}`` overrides for GHD costing — user
    #: hints (``Database.set_cardinality_hint``).  The catalog's
    #: cardinalities are used for atoms not listed.
    card_overrides: Optional[dict] = None
    #: Caller-owned dict the GHD choice pass memoizes decompositions in,
    #: keyed on rule structure plus log2 *cardinality bands* — repeated
    #: planning of the same rule shape skips the exhaustive search while
    #: relation sizes drift within a band.  ``None`` disables the memo.
    ghd_memo: Optional[dict] = None

    @classmethod
    def from_config(cls, config):
        """Duck-typed projection of an engine config (or anything with
        the same attribute names)."""
        return cls(
            push_selections=getattr(config, "push_selections", True),
            use_ghd=getattr(config, "use_ghd", True),
            fold_constants=getattr(config, "fold_constants", True),
            prune_attributes=getattr(config, "prune_attributes", True),
            tracer=getattr(config, "tracer", None),
            metrics=getattr(config, "metrics", None))


# ---------------------------------------------------------------------------
# rewrite passes
# ---------------------------------------------------------------------------

class ConstantFoldingPass:
    """Fold constant subexpressions in the annotation assignment."""

    name = "constant_folding"

    def enabled(self, options):
        return options.fold_constants

    def run(self, logical, options):
        del options
        if logical.assignment is None:
            return False, ["no assignment expression"]
        folded, n_folds = _fold(logical.assignment)
        if n_folds:
            logical.assignment = folded
            return True, ["%d fold(s): %s" % (n_folds,
                                              render_expression(folded))]
        return False, []


def _fold(expr):
    """Bottom-up constant folding; division by zero is left in place."""
    if not isinstance(expr, BinOp):
        return expr, 0
    left, n_left = _fold(expr.left)
    right, n_right = _fold(expr.right)
    folds = n_left + n_right
    if isinstance(left, Num) and isinstance(right, Num):
        if expr.op == "+":
            return Num(left.value + right.value), folds + 1
        if expr.op == "-":
            return Num(left.value - right.value), folds + 1
        if expr.op == "*":
            return Num(left.value * right.value), folds + 1
        if expr.op == "/" and right.value != 0:
            return Num(left.value / right.value), folds + 1
    if folds:
        return BinOp(expr.op, left, right), folds
    return expr, 0


class AttributePruningPass:
    """Project away attributes no head or annotation needs.

    A variable occurring in exactly one atom, absent from the head and
    from every aggregate argument, is purely existential: projecting it
    out (with deduplication) before GHD search shrinks tries and can
    lower the decomposition's width.  Restricted to rules without
    aggregates (duplicates feed SUM/COUNT) over unannotated atoms
    (projection would need an annotation-combine policy).
    """

    name = "attribute_pruning"

    def enabled(self, options):
        return options.prune_attributes

    def run(self, logical, options):
        del options
        if logical.aggregate is not None:
            return False, ["skipped: rule aggregates"]
        if logical.annotation is not None and logical.assignment is None:
            return False, ["skipped: head keeps body annotations"]
        occurrences = {}
        for atom in logical.atoms:
            for variable in atom.variables:
                occurrences[variable] = occurrences.get(variable, 0) + 1
        head = set(logical.head_vars)
        details = []
        new_atoms = []
        new_guards = []
        changed = False
        for atom in logical.atoms:
            droppable = {v for v in atom.variables
                         if occurrences[v] == 1 and v not in head}
            if not droppable or atom.annotated:
                new_atoms.append(atom)
                continue
            pruned = atom.pruned(droppable)
            changed = True
            details.append("pruned %s from %s (arity %d -> %d)"
                           % (",".join(sorted(droppable)), atom.name,
                              len(atom.variables), len(pruned.variables)))
            if pruned.variables:
                new_atoms.append(pruned)
            else:
                new_guards.append(pruned)
                details.append("%s became a guard atom" % atom.name)
        if changed and not new_atoms:
            # A body of only guard atoms has no join to run; keep the
            # original atoms rather than hand the planner an empty
            # hypergraph.
            return False, ["skipped: pruning would empty the body"]
        if changed:
            logical.atoms = new_atoms
            logical.guard_atoms.extend(new_guards)
            body_vars = set()
            for atom in new_atoms:
                body_vars |= set(atom.variables)
            logical.unbound_head = [v for v in logical.head_vars
                                    if v not in body_vars]
        return changed, details


# ---------------------------------------------------------------------------
# plan passes
# ---------------------------------------------------------------------------

def aggregate_flow_ok(ghd, head_vars):
    """Early aggregation needs every bag's head attributes visible to
    its parent (head values cannot be re-derived going up)."""
    head = frozenset(head_vars)
    parents = ghd.parent_map()
    for node in ghd.nodes_preorder():
        parent = parents[node]
        if parent is None:
            continue
        if not (head & node.chi_set) <= parent.chi_set:
            return False
    return True


class GHDChoicePass:
    """Choose the GHD, feeding real catalog cardinalities into the
    search (the symbolic :data:`~repro.ghd.decompose.DEFAULT_SIZE`
    fallback triggers a metrics counter and a one-time warning)."""

    name = "ghd_choice"

    def enabled(self, options):
        del options
        return True

    def run(self, logical, options):
        atoms = logical.atoms
        with maybe_span(options.tracer, "ghd_search", "compile",
                        atoms=len(atoms)):
            hypergraph = Hypergraph(atoms)
            overrides = options.card_overrides or {}
            sizes = {i: int(overrides.get(atoms[i].name,
                                          atoms[i].relation.cardinality))
                     for i in range(len(atoms))}
            selected_vars = set()
            selection_edges = set()
            for index, atom in enumerate(atoms):
                if atom.is_selection:
                    selection_edges.add(index)
                    selected_vars |= set(atom.variables)
            logical.selected_vars = frozenset(selected_vars)

            memo_key = None
            if options.ghd_memo is not None:
                memo_key = _ghd_memo_key(logical, atoms, sizes,
                                         selection_edges, options)
                shape = options.ghd_memo.get(memo_key)
                if shape is not None:
                    ghd = replay_shape(shape, hypergraph)
                    logical.ghd = ghd
                    return True, [
                        "width %.2f, %d bag(s)" % (ghd.width(),
                                                   ghd.n_nodes),
                        "reused decomposition (cardinality-band memo)"]

            def fallback(count):
                _report_default_sizes(count, options.metrics)

            ghd = decompose(
                hypergraph, sizes=sizes, selected_vars=selected_vars,
                selection_edges=selection_edges,
                prefer_deep_selections=options.push_selections,
                use_ghd=options.use_ghd, size_fallback=fallback)
            details = ["width %.2f, %d bag(s)" % (ghd.width(),
                                                  ghd.n_nodes)]
            if logical.aggregate_mode \
                    and not aggregate_flow_ok(ghd, logical.head_vars):
                # Head attributes span bags in a way early aggregation
                # cannot express; fall back to the (always correct)
                # single-node plan.
                ghd = decompose(hypergraph, sizes=sizes, use_ghd=False,
                                size_fallback=fallback)
                details.append("aggregate flow fallback: single-bag plan")
            logical.ghd = ghd
            if memo_key is not None:
                # Shape captured before selection pushdown mutates the
                # live tree; replayed hits get fresh nodes.
                options.ghd_memo[memo_key] = ghd_shape(ghd)
                while len(options.ghd_memo) > _GHD_MEMO_LIMIT:
                    options.ghd_memo.pop(next(iter(options.ghd_memo)))
            if sizes:
                details.append("cardinalities: %s" % ", ".join(
                    "%s=%d" % (atoms[i].name, sizes[i])
                    for i in sorted(sizes)))
        return True, details


#: Entries kept in a caller's banded plan memo (FIFO eviction).
_GHD_MEMO_LIMIT = 512


def _ghd_memo_key(logical, atoms, sizes, selection_edges, options):
    """Memo identity of one GHD choice: the rule's join structure, the
    log2 band of every input cardinality, and everything else the
    search consults.  Exact cardinality overrides (hints) join the key
    verbatim, so a new hint always re-plans; only organic size drift
    within a band reuses a plan."""
    overrides = options.card_overrides or {}
    return (
        tuple((atom.name, tuple(atom.variables), atom.is_selection)
              for atom in atoms),
        tuple(int(sizes[i]).bit_length() for i in range(len(atoms))),
        frozenset(selection_edges),
        tuple(logical.head_vars), logical.aggregate_mode,
        options.push_selections, options.use_ghd,
        tuple(sorted(overrides.items())))


def _report_default_sizes(count, metrics):
    """Count (and warn once about) symbolic-size GHD costing."""
    if metrics is not None:
        metrics.inc("ghd.default_size_uses", count)
    if not _default_size_warned[0]:
        _default_size_warned[0] = True
        warnings.warn(
            "GHD search costed %d relation(s) at the symbolic "
            "DEFAULT_SIZE; pass real cardinalities via decompose(sizes=...)"
            % count, RuntimeWarning, stacklevel=3)


class SelectionPushdownPass:
    """Appendix B.1.1 step 2: copy selection atoms into every bag
    covering their variables.  Records the duplicated (node, edge)
    pairs so their annotations are not multiplied twice."""

    name = "selection_pushdown"

    def enabled(self, options):
        return options.push_selections

    def run(self, logical, options):
        del options
        selection_edges = {i for i, atom in enumerate(logical.atoms)
                           if atom.is_selection}
        if not selection_edges:
            logical.duplicates = frozenset()
            return False, ["no selections"]
        duplicates = set()
        by_index = {e.index: e for e in logical.ghd.hypergraph.edges}
        for node in logical.ghd.nodes_preorder():
            own = {e.index for e in node.edges}
            for index in selection_edges:
                edge = by_index[index]
                if index not in own and edge.varset <= node.chi_set:
                    node.edges.append(edge)
                    duplicates.add((id(node), index))
        logical.duplicates = frozenset(duplicates)
        if duplicates:
            return True, ["copied %d selection atom(s) into other bags"
                          % len(duplicates)]
        return False, ["selections already cover their bags"]


class AttributeOrderPass:
    """Fix the global attribute order from the chosen GHD."""

    name = "attribute_order"

    def enabled(self, options):
        del options
        return True

    def run(self, logical, options):
        with maybe_span(options.tracer, "attribute_order", "compile"):
            logical.global_order = global_attribute_order(
                logical.ghd, logical.selected_vars, logical.head_vars)
        return True, ["global order: (%s)" % ",".join(logical.global_order)]


# ---------------------------------------------------------------------------
# pipeline drivers
# ---------------------------------------------------------------------------

REWRITE_PASSES = (ConstantFoldingPass(), AttributePruningPass())
PLAN_PASSES = (GHDChoicePass(), SelectionPushdownPass(),
               AttributeOrderPass())


def _run_phase(passes, logical, options):
    for pipeline_pass in passes:
        if not pipeline_pass.enabled(options):
            if logical.trace is not None:
                logical.trace.record(pipeline_pass.name, False,
                                     ["disabled by configuration"])
            continue
        changed, details = pipeline_pass.run(logical, options)
        if logical.trace is not None:
            logical.trace.record(pipeline_pass.name, changed, details)
    return logical


def optimize_rule(rule, catalog, options=None):
    """Frontend + rewrite phase: AST rule → rewritten logical IR.

    The returned rule's :meth:`~repro.lir.ir.LogicalRule.cache_key` is
    the canonical plan-cache identity; run :func:`plan_rule` afterwards
    (on a cache miss) to choose the GHD and attribute order.
    """
    options = options if options is not None else OptimizerOptions()
    trace = PassTrace(rule_text=str(rule))
    with maybe_span(options.tracer, "logical_rewrite", "compile"):
        logical = build_rule(rule, catalog, trace=trace)
        _run_phase(REWRITE_PASSES, logical, options)
    return logical


def plan_rule(logical, options=None):
    """Plan phase: choose GHD, push selections, fix attribute order."""
    options = options if options is not None else OptimizerOptions()
    return _run_phase(PLAN_PASSES, logical, options)
