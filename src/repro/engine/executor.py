"""Physical planning and the Yannakakis driver (paper §3.3).

This module is the bottom half of the four-layer pipeline (see
``docs/architecture.md``): the logical work — atom normalization,
rewrites, GHD choice, selection pushdown, attribute ordering — happens
in :mod:`repro.lir`; the executor receives an optimized
:class:`~repro.lir.ir.LogicalRule` and

1. lowers it to per-bag physical plans (evaluation orders, inputs,
   pass-up shapes, a block kernel per bag), cached across runs;
2. runs Yannakakis' **bottom-up** pass: every bag is evaluated with a
   worst-case optimal join, aggregating away attributes its parent
   does not need (early aggregation) and passing the result up as an
   additional input relation — with structurally identical bags
   evaluated once (Appendix B.2), within a rule and (through the
   program-scoped :class:`~repro.engine.memo.BagMemo`) across rules;
3. when head attributes span several bags in a materialization query,
   runs the **top-down** pass joining the retained bag results; the pass
   is elided when the root already covers the head (Appendix B.2);
4. applies the rule's annotation expression (e.g. ``0.15 + 0.85*<<SUM>>``).

:class:`RuleExecutor` is the default engine, and its driver (the
lowering, the bottom-up walk, the finalizers) is the only one: the
interpreted oracle, :class:`repro.engine.oracle.OracleExecutor`, runs
the same walk and differs only in how a bag is ordered, gets its
inputs and is evaluated.  This module never imports the oracle.
"""

import itertools
import time

import numpy as np

from ..errors import ExecutionError, PlanError
from ..obs.trace import maybe_span
from ..ghd.attribute_order import bag_evaluation_order
from ..ghd.equivalence import bag_signature, canonical_attr_indexes
from ..lir import OptimizerOptions, optimize_rule, plan_rule
from ..query.ast import Agg, BinOp, Num, Ref
from ..sets.optimizer import SetOptimizer
from ..storage.delta import row_keys
from ..storage.relation import Relation
from ..storage.trie import Trie
from .codegen import InputSpec, generate_bag_plan
from .fused import IDEMPOTENT_FOLDS
from .generic_join import BagInput, BagResult, empty_bag_result
from .memo import remap_memoized
from .plan import BagPlan, PhysicalPlan
from .plan_cache import CompiledBag, CompiledRule, PlanCache, \
    config_signature
from .semiring import EXISTS, semiring_for
from .stats import ExecStats

_uid_counter = itertools.count()


#: Delta volume (fraction of relation cardinality) above which a cached
#: trie is rebuilt from scratch rather than patched by journal replay.
PATCH_RATIO = 0.5


class TrieCache:
    """Caches tries per (relation identity, *version*, order, layout).

    Base relations are re-queried constantly (the paper stores both
    orders of every edge relation up front; we build them on first use
    and keep them).  Identity uses a uid attached to each relation, so
    replacing a relation (recursion) naturally invalidates; in-place
    mutation bumps ``relation.version``, so a mutated relation misses
    its old entry.  On such a miss the cache *patches*: it replays the
    relation's delta journal onto the stale trie's sorted arrays
    (:func:`repro.storage.builder.patched_trie`) instead of re-sorting
    from scratch, then retires the stale entry — invalidation is
    surgical, other relations' entries stay warm.

    A *derived* relation — the selection or projection slice a
    :class:`~repro.lir.ir.LogicalAtom` cuts from a catalog relation, a
    new object per planning — is identified by what it was cut from:
    ``(source uid, selection)`` at the source's version, so a repeated
    selection hits and a mutated source misses.  Nothing installs or
    replaces a derived relation, so its entries are retired by whoever
    planned with it (:meth:`invalidate` with the selection: the plan
    cache's eviction hook, or the end of an interpreted run).

    Hit/miss counters feed :class:`~repro.engine.stats.ExecStats`.
    """

    def __init__(self):
        self._tries = {}
        self.hits = 0
        self.misses = 0
        #: Stale-entry rebuilds served by journal replay (vs full sorts).
        self.patches = 0

    @staticmethod
    def _uid(relation):
        uid = getattr(relation, "_trie_uid", None)
        if uid is None:
            uid = next(_uid_counter)
            relation._trie_uid = uid
        return uid

    def _identity(self, relation):
        """``(uid, version)`` cache identity of ``relation``."""
        source, selection = getattr(relation, "derived_from", None) \
            or (relation, None)
        uid = self._uid(source)
        return (uid if selection is None else (uid, selection),
                getattr(source, "version", 0))

    def get(self, relation, key_order, layout_level):
        """Fetch (building on miss) the trie for a relation/order/layout."""
        key = self._identity(relation) + (tuple(key_order), layout_level)
        trie = self._tries.get(key)
        if trie is not None:
            self.hits += 1
            return trie
        self.misses += 1
        optimizer = SetOptimizer(layout_level)
        stale_key, stale_trie = self._stale_entry(key)
        trie = None
        if stale_trie is not None:
            trie = self._patched(stale_trie, stale_key[1], relation,
                                 key_order, optimizer)
            if trie is not None:
                self.patches += 1
        if trie is None:
            trie = Trie(relation, key_order=key_order, optimizer=optimizer)
        if stale_key is not None:
            self._drop_entry(stale_key)
        self._tries[key] = trie
        return trie

    def _stale_entry(self, key):
        """The cached entry differing from ``key`` only by version."""
        uid, _, order, layout = key
        for k in self._tries:
            if k[0] == uid and k[2:] == (order, layout):
                return k, self._tries[k]
        return None, None

    @staticmethod
    def _patched(stale_trie, old_version, relation, key_order, optimizer):
        """Patch a stale trie via journal replay, or ``None`` to rebuild.

        Declines when the journal no longer reaches back to the stale
        version (a merge trimmed it) or the change volume crossed
        :data:`PATCH_RATIO` — a full sorted build is cheaper then.
        """
        delta = getattr(relation, "delta", None)
        if delta is None or relation.arity == 0:
            return None
        entries = delta.changes_since(old_version)
        if not entries:
            return None
        volume = sum(entry.data.shape[0] for entry in entries)
        if volume > PATCH_RATIO * max(relation.cardinality, 1):
            return None
        from ..storage.builder import patched_trie
        return patched_trie(stale_trie, relation, key_order, optimizer,
                            entries)

    def _drop_entry(self, key):
        """Retire one cached trie."""
        del self._tries[key]

    def invalidate(self, relation, selection=None):
        """Drop every cached trie of ``relation``, across all cached
        versions: those of the relation itself and of every relation
        derived from it, or, given a ``selection``, of that derived
        relation only."""
        uid = getattr(relation, "_trie_uid", None)
        if uid is None:
            return
        if selection is not None:
            doomed = [k for k in self._tries if k[0] == (uid, selection)]
        else:
            doomed = [k for k in self._tries
                      if k[0] == uid or (isinstance(k[0], tuple)
                                         and k[0][0] == uid)]
        for key in doomed:
            self._drop_entry(key)

    def __len__(self):
        return len(self._tries)


def eval_expression(expr, agg_value, env):
    """Evaluate an annotation expression tree.

    ``agg_value`` may be a scalar or a numpy array (vectorized over the
    output tuples); ``env`` maps scalar-relation names to floats.
    """
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Ref):
        if expr.name not in env:
            raise ExecutionError("expression references unknown scalar "
                                 "relation %r" % expr.name)
        return env[expr.name]
    if isinstance(expr, Agg):
        if agg_value is None:
            raise ExecutionError("aggregate used outside an aggregation "
                                 "context")
        return agg_value
    if isinstance(expr, BinOp):
        left = eval_expression(expr.left, agg_value, env)
        right = eval_expression(expr.right, agg_value, env)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            return left / right
        raise ExecutionError("unknown operator %r" % expr.op)
    raise ExecutionError("unknown expression node %r" % (expr,))


class RuleExecutor:
    """Executes one optimized, non-recursive rule against a catalog:
    the default engine.

    All logical planning is delegated to :mod:`repro.lir`; this class
    owns only physical concerns — tries, bag evaluation, Yannakakis
    passes, finalization — plus the plan cache keyed on the canonical
    (alpha-invariant) optimized IR.  It runs block kernels whatever
    ``config.execution_mode`` says: ``Database`` constructs the
    oracle subclass for ``"interpreted"``.
    """

    def __init__(self, catalog, config, trie_cache=None, env=None,
                 plan_cache=None):
        self.catalog = catalog
        self.config = config
        self.cache = trie_cache if trie_cache is not None else TrieCache()
        self.env = env if env is not None else {}
        self.plans = plan_cache if plan_cache is not None else PlanCache()
        self.plans.on_retire = \
            lambda compiled: self._retire_derived(compiled.logical)
        self.last_plan = None  # PhysicalPlan of the latest execution
        self.last_stats = None  # ExecStats of the latest compiled run
        self.last_logical = None  # LogicalRule of the latest execution
        #: Program-scoped cross-rule bag memo (a
        #: :class:`~repro.engine.memo.BagMemo`), installed by
        #: ``Database.query`` for the duration of a program.
        self.program_memo = None
        #: Caller-supplied cardinality overrides
        #: (``Database.set_cardinality_hint``), fed to GHD choice as
        #: ``{atom name: cardinality}``.
        self.card_hints = {}
        #: Banded GHD-plan memo shared across this executor's runs: the
        #: exhaustive decomposition search (every edge subset of every
        #: subproblem) is skipped while a rule's shape recurs and its
        #: input cardinalities stay in the same log2 band.  Pinned rules
        #: do not re-plan, so what it serves is new rule text of a known
        #: shape: a query that differs from an earlier one only in a
        #: constant (a new selection, a new rule-tier key), such as a
        #: daemon's two-hop counts from ever new nodes (45 of the 46
        #: hits that three blocks of ``serve_mixed``'s traffic make).
        self.ghd_memo = {}

    def _options(self):
        options = OptimizerOptions.from_config(self.config)
        if self.card_hints:
            options.card_overrides = dict(self.card_hints)
        options.ghd_memo = self.ghd_memo
        return options

    # -- public ---------------------------------------------------------------

    def execute(self, rule, stats=None):
        """Run ``rule`` and return the result :class:`Relation`: the
        default engine (§3.3), compile once, run block kernels.

        The result carries the head's columns in head-variable order and,
        for aggregation rules, an annotation column.  ``stats`` carries
        program-level counters when ``Database.query`` drives a
        multi-rule program; a fresh
        :class:`~repro.engine.stats.ExecStats` is created otherwise.

        The rule is compiled at most once per catalog state: the plan
        cache keys on the *optimized logical IR's* canonical form
        (:meth:`repro.lir.ir.LogicalRule.cache_key` — invariant under
        variable renaming, so alpha-renamed queries share one entry)
        plus the config's :class:`~repro.ablation.Ablation`, and
        revalidates by relation identity, so a repeated query skips GHD
        search and bag lowering entirely.  A rule object executed
        before skips the optimizer too: its key is pinned to it
        (:class:`~repro.engine.plan_cache.RulePin`), and the optimizer
        runs again only when the pin or the entry it leads to no longer
        holds (:meth:`_pinned`).  A recursion round is such a rule
        object: from its second round on, the head the driver installed
        is the only stale guard, and :meth:`_rebind` re-binds it.
        """
        if stats is None:
            stats = ExecStats(execution_mode="compiled")
        self.last_stats = stats
        # trie-cache traffic of the whole execution: tries are built
        # when a rule compiles or re-binds a relation, not when it runs
        marks = (self.cache.hits, self.cache.misses)
        compiled = self._pinned(rule)
        tier = "hit"
        if compiled is None:
            compiled, tier = self._optimized(rule, stats)
        self.last_logical = compiled.logical
        if tier == "hit":
            stats.plan_cache_hits += 1
        metrics = self.config.metrics
        if metrics is not None:
            # Labeled series (one per tier) rather than two metric
            # names: the telemetry exposition renders them as one
            # family, and dashboards can ratio them directly.
            metrics.inc("plan_cache.lookups", labels={"tier": tier})
        result = self.run_compiled(compiled, stats)
        stats.trie_cache_hits += self.cache.hits - marks[0]
        stats.trie_cache_misses += self.cache.misses - marks[1]
        return result

    #: The compiled pipeline whatever engine this executor is (the
    #: oracle overrides :meth:`execute` only); a name the end-to-end
    #: benchmark instruments.
    execute_compiled_mode = execute

    def install(self, name, relation):
        """Put ``relation`` under ``name`` in the catalog (``None``:
        remove the entry) and retire the cached tries of the relation
        it replaces.  The trie cache keys on a per-object uid, so a
        replaced relation's tries would otherwise stay cached forever;
        re-installing the same object retires nothing."""
        old = self.catalog.get(name)
        if relation is None:
            self.catalog.pop(name, None)
        else:
            self.catalog[name] = relation
        if old is not None and old is not relation:
            self.cache.invalidate(old)

    def _retire_derived(self, logical):
        """Drop the cached tries of a plan's derived relations (the
        selection and projection slices of its atoms).  Called when
        the plan made from ``logical`` is gone — an interpreted run
        ended, a compiled rule left the plan cache: a derived relation
        is named by nothing but the plans made with it, so its tries
        go when they do."""
        for atom in logical.atoms:
            if atom.sig_name != atom.name:
                self.cache.invalidate(atom.source, atom.sig_name)

    @staticmethod
    def _validate(logical):
        """Enforce the head/aggregate restrictions the builder recorded.

        Deferred until after the empty-guard short-circuit so a rule
        with a statically empty guard atom returns an empty result
        instead of raising, matching the engine's historical behavior.
        """
        if logical.unbound_head:
            raise PlanError("head variables %s unbound in the body"
                            % logical.unbound_head)
        if logical.too_many_aggregates:
            raise PlanError("at most one aggregate per rule is supported")

    def compile(self, rule):
        """Compile ``rule`` to a :class:`PhysicalPlan` without running it.

        Powers ``Database.plan``/``explain``: the GHD choice, global
        attribute order, and per-bag evaluation orders are all decided
        before any tuple is touched; only the runtime facts (bag reuse,
        whether the top-down pass ran) stay at their defaults.
        """
        logical = optimize_rule(rule, self.catalog, self._options())
        self.last_logical = logical
        plan_rule(logical, self._options())
        plan = PhysicalPlan(rule=rule, ghd=logical.ghd,
                            global_order=logical.global_order,
                            aggregate_mode=logical.aggregate_mode)
        for node, eval_order, out_attrs in self._bag_shapes(logical):
            plan.bags.append(BagPlan(
                chi=tuple(node.chi), eval_order=tuple(eval_order),
                out_attrs=out_attrs,
                inputs=[logical.atoms[e.index].name for e in node.edges],
                width=node.width()))
        return plan

    def _bag_shapes(self, logical):
        """``(node, eval_order, out_attrs)`` of every bag, bottom-up."""
        semiring = _semiring(logical)
        parents = logical.ghd.parent_map()
        child_outs = {}
        for node in logical.ghd.nodes_bottom_up():
            eval_order, out_attrs = self._bag_order(
                logical, node, _wanted_attrs(logical, node, parents[node]),
                semiring, child_outs)
            child_outs[id(node)] = out_attrs
            yield node, eval_order, out_attrs

    # -- cross-rule memo ------------------------------------------------------

    def _memo_probe(self, memo, signature, canonical_out, out_attrs):
        """Check the per-rule memo, then the program-scoped one."""
        if not self.config.ablation.eliminate_redundant_bags:
            return None
        entry = memo.get(signature)
        if entry is None and self.program_memo is not None:
            entry = self.program_memo.get(signature, self.catalog)
        if entry is None:
            return None
        return remap_memoized(entry, canonical_out, out_attrs)

    def _memo_store(self, memo, signature, result, canonical_out, logical):
        memo[signature] = (result, canonical_out)
        if self.program_memo is not None:
            self.program_memo.put(signature, result, canonical_out,
                                  _relation_guards(logical))

    # -- the default engine ---------------------------------------------------

    def _pinned(self, rule):
        """The compiled rule ``rule``'s pin leads to, or ``None``.

        A warm execution costs one rule-tier probe: the optimizer
        already mapped this rule object to its key.  ``None`` when
        there is no pin, it no longer holds (another config signature,
        a grown constant dictionary), or the rule tier no longer has a
        valid entry under it (evicted, or :meth:`_rebind` refused it).
        """
        pin = self.plans.get_pin(rule)
        if pin is None or not pin.holds(config_signature(self.config)):
            return None
        return self._lookup(pin.key)

    def _optimized(self, rule, stats):
        """``(compiled, tier)`` the slow way: optimize ``rule``, probe
        the rule tier under its key, compile on a miss, and pin the key
        to the rule object."""
        logical = optimize_rule(rule, self.catalog, self._options())
        key = (logical.cache_key(), config_signature(self.config),
               tuple(atom.annotated for atom in logical.atoms))
        compiled = self._lookup(key)
        tier = "hit"
        if compiled is None:
            tier = "miss"
            stats.plan_cache_misses += 1
            # what the re-bind refused under this key is retired before
            # its successor fetches tries
            self.plans.evict_rule(key)
            compiled = self.compile_rule(logical, stats)
            self.plans.put_rule(key, compiled)
        self.plans.put_pin(rule, key, [
            dictionary for atom in logical.atoms + logical.guard_atoms
            for dictionary in atom.constant_dictionaries()])
        return compiled, tier

    def _lookup(self, key):
        """Probe the rule tier (re-binding a stale entry when it can)."""
        with maybe_span(self.config.tracer, "plan_cache.lookup",
                        "cache") as span:
            compiled = self.plans.get_rule(key, self.catalog,
                                           self._rebind)
            if span is not None:
                span.args["hit"] = compiled is not None
        return compiled

    def _rebind(self, compiled, stale):
        """Bring a compiled rule up to date with changed relations.

        GHD, attribute orders and kernels do not depend on a relation's
        contents beyond the log2 band of its cardinality (the GHD
        memo's reuse rule), so two kinds of change leave a compiled
        rule sound.  A relation *replaced* by a re-derivation — the
        head a recursion driver installs for every round, PageRank's
        ``InvDeg`` on every run of its program, a view's ``__delta__``
        input to a Δ-term — gives its atoms the new object.  A relation
        *mutated in place* (``Database.append`` / ``delete``) is still
        the object its atoms read: they only drop the slices they cut
        from it, so a selection is cut again from the mutated source.
        Either way the bags that read it re-fetch its tries from the
        trie cache, which patches a mutated relation's tries from its
        journal.

        Returns false — re-optimize — for a rule that is not a
        ``plan`` or reads the relation through a guard (whether a guard
        is empty is decided at compile time), for an in-place mutation
        that moved an atom's cardinality band, and for a replacement
        that changed arity or annotatedness (a union round's head,
        which drops the base case's values: the rule-tier key records
        annotatedness, so the optimizer's key leads to the plan for
        the other shape, which stays cached), came back encoded through
        other dictionaries (a reload, which re-plans, not a
        re-derivation), or is read through a selection or projection.
        """
        logical = compiled.logical
        if compiled.kind != "plan":
            return False
        mutated = set()
        for name in stale:
            relation = self.catalog.get(name)
            if relation is None \
                    or any(guard.name == name
                           for guard in logical.guard_atoms):
                return False
            if all(atom.source is relation for atom in logical.atoms
                   if atom.name == name):
                mutated.add(name)
                continue
            atoms = _plain_reads(logical, name)
            if atoms is None \
                    or any(atom.source is relation
                           or atom.source.arity != relation.arity
                           or atom.annotated
                           != (relation.annotations is not None)
                           or _reencoded(atom.source, relation)
                           for atom in atoms):
                return False
        for atom in logical.atoms:
            if atom.name in stale:
                atom.rebind(self.catalog[atom.name])
        if any(atom.name in mutated
               and int(atom.relation.cardinality).bit_length() != band
               for atom, band in zip(logical.atoms, compiled.bands)):
            return False
        for node in compiled.ghd.nodes_bottom_up():
            cbag = compiled.bags[id(node)]
            for edge, bag_input in zip(node.edges, cbag.base_inputs):
                atom = logical.atoms[edge.index]
                if atom.name in stale:
                    bag_input.trie = self.cache.get(
                        atom.relation, bag_input.trie.key_order,
                        self.config.ablation.layout_level)
        compiled.guards = _relation_guards(logical)
        return True

    def compile_rule(self, logical, stats):
        """Lower one optimized non-recursive rule to a
        :class:`CompiledRule`.

        Performs the validation and plan choice of a run but stops
        before touching any tuples beyond trie construction: the result
        pins the catalog relations it read (``guards``) and holds one
        block kernel per GHD bag.
        """
        guards = _relation_guards(logical)
        if logical.has_empty_guard:
            return CompiledRule("empty", logical.rule, guards,
                                logical=logical)
        self._validate(logical)
        agg = logical.aggregate
        if agg is not None and agg.op == "COUNT" and agg.arg != "*":
            pseudo = _distinct_head(logical, agg.arg)
            if _counts_bindings(logical, agg.arg):
                # the plan folds COUNT by the rule's op alone: COUNT(*)
                return self._lower(logical, guards, stats)
            inner = self._lower(pseudo, guards, stats)
            return CompiledRule("count_distinct", logical.rule, guards,
                                inner=inner, logical=logical)
        return self._lower(logical, guards, stats)

    def run_compiled(self, compiled, stats):
        """Execute a :class:`CompiledRule` against the current catalog."""
        if compiled.kind == "empty":
            return self._empty_output(compiled.rule)
        if compiled.kind == "count_distinct":
            distinct = self._run_plan(compiled.inner, stats)
            return _finish_count_distinct(compiled.logical, distinct,
                                          dict(self.env))
        return self._run_plan(compiled, stats)

    # -- what the two engines do differently ----------------------------------

    def _bag_order(self, logical, node, wanted, semiring, child_outs):
        """``(eval_order, out_attrs)`` of one bag: the kernel's order
        (:func:`_kernel_bag_order`)."""
        return _kernel_bag_order(logical, node, wanted, semiring,
                                 child_outs)

    def _lower_kernel(self, node, cbag, bags, semiring, aggregate_mode,
                      stats):
        """Give ``cbag`` the static shape of every child pass-up and the
        block kernel over them and its base inputs.  Structurally
        identical bags (same evaluation order, head split, semiring,
        and per-input annotation flags) share one kernel via the plan
        cache's bag-source tier — lowering runs once per shape, not
        once per bag."""
        eval_order, out_attrs = cbag.eval_order, cbag.out_attrs
        specs = [InputSpec(bag_input.name, bag_input.variables,
                           annotated=bag_input.annotated)
                 for bag_input in cbag.base_inputs]
        # Pass-up inputs have statically known shapes: the child's
        # out attributes are fixed by the GHD, and aggregate-mode
        # results always carry annotations (materialize-mode
        # pass-ups are unannotated semijoin filters).
        for child in node.children:
            child_out = bags[id(child)].out_attrs
            if not child_out:
                continue
            if aggregate_mode:
                up_attrs = list(child_out)
                annotated = True
            else:
                up_attrs = [a for a in child_out if a in node.chi_set]
                if not up_attrs:
                    # Disconnected child: nothing flows up as a
                    # semijoin filter; it acts as an existence guard at
                    # runtime and its columns re-enter in the top-down
                    # pass.
                    continue
                annotated = False
            ordered_vars = tuple(a for a in eval_order if a in up_attrs)
            key_order = tuple(up_attrs.index(a) for a in ordered_vars)
            cbag.passups.append((ordered_vars, key_order, annotated))
            specs.append(InputSpec("pass:" + ",".join(up_attrs),
                                   ordered_vars, annotated=annotated))
        bag_sig = ("bag", eval_order, out_attrs, semiring.name,
                   tuple(spec.signature() for spec in specs))
        generated = self.plans.get_bag_code(bag_sig)
        if generated is None:
            stats.codegen_runs += 1
            with maybe_span(self.config.tracer, "codegen", "compile",
                            bag=",".join(node.chi)):
                generated = generate_bag_plan(
                    eval_order, len(out_attrs), specs, semiring,
                    out_attrs=out_attrs)
            self.plans.put_bag_code(bag_sig, generated)
        else:
            stats.bag_codegen_reuses += 1
        cbag.generated = generated

    def _pass_up_input(self, cbag, index, relation, annotated):
        """The :class:`BagInput` of a bag's ``index``-th pass-up, in the
        shape the compiled bag baked in; a pass-up whose runtime shape
        disagrees is a :class:`PlanError`."""
        spec = cbag.passups[index] if index < len(cbag.passups) else None
        if spec is None or annotated != spec[2]:
            raise PlanError("pass-up %s does not match bag %s's "
                            "compiled shape" % (relation.name,
                                                ",".join(cbag.chi)))
        ordered_vars, key_order, _ = spec
        return BagInput(self._pass_up_trie(relation, key_order),
                        ordered_vars, annotated=annotated,
                        name=relation.name)

    def _pass_up_trie(self, relation, key_order):
        """A pass-up's trie, owned by no cache: it lives for one bag."""
        return Trie(relation, key_order=key_order,
                    optimizer=SetOptimizer(self.config.ablation.layout_level))

    def _evaluate(self, cbag, inputs, semiring, stats):
        """One live bag's result: its block kernel, unless no join work
        is involved (:func:`_no_join_result`)."""
        result = None if cbag.generated.unordered \
            else _no_join_result(cbag, inputs, semiring)
        if result is None:
            stats.compiled_bag_calls += 1
            stats.fused_blocks += 1
            result = cbag.generated([bag_input.trie for bag_input in inputs],
                                    self.config)
        return result

    # -- the Yannakakis driver ------------------------------------------------

    def _lower(self, logical, guards, stats):
        """Choose the GHD and lower every bag: its orders, its base
        inputs over tries from the trie cache, its bag-equivalence
        signature, and what :meth:`_lower_kernel` adds."""
        stats.ghd_builds += 1
        plan_rule(logical, self._options())
        aggregate_mode = logical.aggregate_mode
        atoms = logical.atoms
        duplicates = logical.duplicates
        sig_names = logical.sig_names()
        semiring = _semiring(logical)
        layout_level = self.config.ablation.layout_level
        bags = {}
        for node, eval_order, out_attrs in self._bag_shapes(logical):
            base_inputs = []
            for edge in node.edges:
                atom = atoms[edge.index]
                ordered_vars = tuple(a for a in eval_order
                                     if a in atom.variables)
                key_order = tuple(atom.variables.index(a)
                                  for a in ordered_vars)
                base_inputs.append(BagInput(
                    self.cache.get(atom.relation, key_order, layout_level),
                    ordered_vars, name=atom.name,
                    annotated=atom.annotated
                    and (id(node), edge.index) not in duplicates))
            cbag = CompiledBag(
                eval_order, out_attrs, base_inputs,
                chi=node.chi, width=node.width(),
                input_names=[atoms[e.index].name for e in node.edges]
                + ["pass:%s" % ",".join(sorted(c.chi_set & node.chi_set))
                   for c in node.children],
                signature=bag_signature(
                    node, out_attrs,
                    [bags[id(c)].signature for c in node.children],
                    aggregation_sig=(semiring.name, aggregate_mode),
                    edge_names=sig_names),
                canonical_out=canonical_attr_indexes(
                    node.edges, out_attrs, edge_names=sig_names))
            self._lower_kernel(node, cbag, bags, semiring, aggregate_mode,
                               stats)
            bags[id(node)] = cbag
        return CompiledRule("plan", logical.rule, guards, ghd=logical.ghd,
                            duplicates=duplicates,
                            global_order=logical.global_order,
                            semiring=semiring,
                            aggregate_mode=aggregate_mode, bags=bags,
                            logical=logical,
                            bands=tuple(int(atom.relation.cardinality)
                                        .bit_length() for atom in atoms))

    def _run_plan(self, compiled, stats):
        """Yannakakis' bottom-up pass over a lowered plan, then the
        finalizer: every bag is answered by the memo or evaluated with
        its children's results passed up, and its result retained."""
        logical = compiled.logical
        ghd = compiled.ghd
        semiring = compiled.semiring
        aggregate_mode = compiled.aggregate_mode
        retained = {}
        memo = {}
        plan = PhysicalPlan(rule=compiled.rule, ghd=ghd,
                            global_order=compiled.global_order,
                            aggregate_mode=aggregate_mode)
        self.last_plan = plan
        for node in ghd.nodes_bottom_up():
            cbag = compiled.bags[id(node)]
            reused = self._memo_probe(memo, cbag.signature,
                                      cbag.canonical_out, cbag.out_attrs)
            bag_plan = BagPlan(
                chi=cbag.chi, eval_order=cbag.eval_order,
                out_attrs=cbag.out_attrs,
                inputs=list(cbag.input_names), width=cbag.width,
                reused_from_signature=reused is not None)
            plan.bags.append(bag_plan)
            if reused is not None:
                retained[id(node)] = reused
                continue
            result = self._timed_bag(
                bag_plan,
                lambda: self._run_bag(node, cbag, semiring, aggregate_mode,
                                      retained, stats, bag_plan))
            retained[id(node)] = result
            self._memo_store(memo, cbag.signature, result,
                             cbag.canonical_out, logical)
        root_result = retained[id(ghd.root)]
        if aggregate_mode:
            return self._finish_aggregate(logical, root_result)
        return self._finish_materialize(logical, ghd, retained, root_result)

    def _timed_bag(self, bag_plan, evaluate):
        """Evaluate one bag, recording wall time, charged lane ops, and
        (when tracing) a ``bag:`` span.  The always-on part is two
        clock reads and one counter delta per bag — bags are few."""
        counter = self.config.counter
        ops_before = counter.total_ops
        start = time.perf_counter()
        with maybe_span(self.config.tracer,
                        "bag:%s" % ",".join(bag_plan.chi), "execute",
                        width=bag_plan.width):
            result = evaluate()
        bag_plan.actual_seconds = time.perf_counter() - start
        bag_plan.actual_ops = counter.total_ops - ops_before
        return result

    def _run_bag(self, node, cbag, semiring, aggregate_mode, retained,
                 stats, bag_plan):
        """Evaluate one bag over its base inputs and its children's
        pass-ups.

        A disconnected child (no shared attributes) passes nothing up:
        an empty one admits no bindings, so the whole bag is dead; in
        aggregate mode a live one's fold multiplies in as a scalar
        (distributivity over the cross product); in materialize mode
        any columns it carries re-enter in the top-down pass.
        """
        inputs = list(cbag.base_inputs)
        scalar_factor = 1.0
        dead = False
        for child in node.children:
            child_result = retained[id(child)]
            if _is_disconnected_child(child_result, node.chi_set):
                if not _bag_alive(child_result, semiring.zero):
                    dead = True
                elif aggregate_mode:
                    scalar_factor *= _child_scalar(child_result, semiring)
                continue
            relation, annotated = _pass_up(child_result, node.chi_set,
                                           aggregate_mode)
            inputs.append(self._pass_up_input(
                cbag, len(inputs) - len(cbag.base_inputs), relation,
                annotated))
        bag_plan.input_profiles = _input_profiles(inputs)
        if dead:
            result = BagResult(cbag.out_attrs,
                               np.empty((0, cbag.out_count), dtype=np.uint32),
                               annotations=np.empty(0),
                               scalar=semiring.zero)
        else:
            result = self._evaluate(cbag, inputs, semiring, stats)
        if aggregate_mode and scalar_factor != 1.0:
            if result.scalar is not None:
                result.scalar *= scalar_factor
            if result.annotations is not None:
                result.annotations = result.annotations * scalar_factor
        return result

    # -- finalization ---------------------------------------------------------

    def _finish_aggregate(self, logical, root_result):
        env = dict(self.env)
        rule = logical.rule
        guard_factor = _guard_annotation_factor(logical)
        if not logical.head_vars:
            agg_value = root_result.scalar
            if agg_value is None:
                # Root had out attributes beyond the (empty) head; fold
                # its annotation column.
                semiring = semiring_for(logical.aggregate.op)
                values = root_result.annotations \
                    if root_result.annotations is not None \
                    else np.zeros(0)
                agg_value = semiring.fold_leaf(values)
            value = eval_expression(logical.assignment,
                                    agg_value * guard_factor, env)
            return Relation.scalar(rule.head_name, float(value))
        # Reorder the root's columns into head order.
        order = [root_result.out_attrs.index(v) for v in logical.head_vars]
        data = root_result.data[:, order]
        annotations = root_result.annotations
        if annotations is not None and guard_factor != 1.0:
            annotations = annotations * guard_factor
        final = eval_expression(logical.assignment, annotations, env)
        final = np.broadcast_to(np.asarray(final, dtype=np.float64),
                                (data.shape[0],)).copy()
        relation = Relation(rule.head_name, data, final)
        # A kernel's rows arrive lexsorted and distinct; in its own
        # column order the head is canonical as it stands.
        relation._canonical = root_result.canonical \
            and order == list(range(len(order)))
        return relation

    def _finish_materialize(self, logical, ghd, retained, root_result):
        env = dict(self.env)
        rule = logical.rule
        head = list(logical.head_vars)
        root_attrs = list(root_result.out_attrs)
        if not head:
            # 0-ary materialization head: the rule asserts the empty
            # tuple iff the body is satisfiable (an EXISTS fold).  With
            # an annotation the head becomes a scalar carrying the
            # assignment's value; without one it is a 0-ary relation of
            # cardinality 0 or 1.
            exists = bool(root_result.scalar) \
                or root_result.data.shape[0] > 0
            if logical.annotation is not None \
                    and logical.assignment is not None:
                value = eval_expression(logical.assignment, None, env) \
                    if exists else EXISTS.zero
                return Relation.scalar(rule.head_name, float(value))
            return Relation(rule.head_name,
                            np.empty((1 if exists else 0, 0),
                                     dtype=np.uint32))
        if set(head) <= set(root_attrs) and (
                self.config.ablation.skip_top_down
                or all(not n.children for n in [ghd.root])):
            data, annotations = root_result.data, root_result.annotations
            attrs = root_attrs
        else:
            data, attrs, annotations = _top_down_join(ghd, retained)
            if self.last_plan is not None:
                self.last_plan.used_top_down = True
        order = [attrs.index(v) for v in head]
        data = data[:, order]
        if len(order) < len(attrs):
            relation = Relation(rule.head_name, data).deduplicated()
            data = relation.data
            annotations = None
        if logical.annotation is not None and logical.assignment is not None:
            value = eval_expression(logical.assignment, None, env)
            annotations = np.broadcast_to(
                np.asarray(value, dtype=np.float64),
                (data.shape[0],)).copy()
        elif logical.annotation is None:
            # Plain conjunctive rule: no annotation column in the head.
            annotations = None
        return Relation(rule.head_name, data, annotations)

    def _empty_output(self, rule):
        if rule.annotation is not None and not rule.head_vars:
            if rule.aggregates:
                # Match the dynamically-empty path: the assignment is
                # applied to the semiring zero, so COUNT(*)+5 over a
                # statically empty guard answers 5, not 0.
                semiring = semiring_for(rule.aggregates[0].op)
                value = eval_expression(rule.assignment, semiring.zero,
                                        dict(self.env))
                return Relation.scalar(rule.head_name, float(value))
            return Relation.scalar(rule.head_name, EXISTS.zero)
        width = len(rule.head_vars)
        annotations = np.empty(0) if rule.annotation is not None else None
        return Relation(rule.head_name,
                        np.empty((0, width), dtype=np.uint32), annotations)


# -- helpers ------------------------------------------------------------------


def _wanted_attrs(logical, node, parent):
    """Attributes a bag must emit: those of the head, those it shares
    with its parent and — when rows are materialized, whose top-down
    pass joins retained results on them — with its children."""
    keep = set(node.chi_set & parent.chi_set) if parent is not None \
        else set()
    if not logical.aggregate_mode:
        for child in node.children:
            keep |= node.chi_set & child.chi_set
    head = frozenset(logical.head_vars)
    return {a for a in node.chi if a in head or a in keep}


def _semiring(logical):
    """The semiring a rule's bags fold with (``EXISTS`` unless it
    aggregates)."""
    return semiring_for(logical.aggregate.op) if logical.aggregate_mode \
        else EXISTS


def _kernel_bag_order(logical, node, wanted, semiring, child_outs):
    """``(eval_order, out_attrs)`` of one bag under the default engine
    (``child_outs``: the children's ``out_attrs`` by node id).

    A seminaive round binds its delta's variables first (§3.3.2) in
    every bag whose kernel can group the then unordered outputs: an
    idempotent fold over inputs of arity <= 2.  So does every bag above
    the delta atom — what a child whose subtree holds it passes up is
    *delta-reached*, as few rows as the delta fans out to — or a bag
    that shares no variable with the delta atom would expand its whole
    input every round.  Everything else stays output-first.  The
    kernel emits the wanted columns in evaluation order —
    ``out_attrs`` records exactly that, or the baked pass-up key orders
    would address permuted columns.
    """
    arities = [len(logical.atoms[edge.index].variables)
               for edge in node.edges] \
        + [len(node.chi_set.intersection(child_outs[id(child)]))
           for child in node.children]
    delta_vars = ()
    if logical.delta_vars and semiring.name in IDEMPOTENT_FOLDS \
            and max(arities) <= 2:
        delta_vars = set(logical.delta_vars)
        for child in node.children:
            if _holds_delta(logical, child):
                delta_vars |= node.chi_set.intersection(
                    child_outs[id(child)])
    eval_order = bag_evaluation_order(node.chi, wanted,
                                      logical.global_order, delta_vars)
    return eval_order, tuple(a for a in eval_order if a in wanted)


def _holds_delta(logical, node):
    """Whether the GHD subtree under ``node`` reads the round's delta
    (the one atom over the head a seminaive body has)."""
    return any(logical.atoms[edge.index].name == logical.rule.head_name
               for edge in node.edges) \
        or any(_holds_delta(logical, child) for child in node.children)


def _relation_guards(logical):
    """``(name, relation, version)`` pins for every catalog relation a
    rule's body resolved to (plan-cache and bag-memo validation).

    Identity alone used to suffice (relations were immutable); in-place
    mutation bumps ``relation.version``, so the version rides along and
    a cached plan compiled against stale contents is rejected even
    though the object identity still matches.
    """
    return tuple((a.name, a.source, getattr(a.source, "version", 0))
                 for a in list(logical.atoms) + list(logical.guard_atoms))


def _plain_reads(logical, name):
    """The atoms a rule reads relation ``name`` through, or ``None``
    when one is a selection, projection or guard — a derived relation
    that would have to be re-cut, not re-bound."""
    atoms = [atom for atom in logical.atoms if atom.name == name]
    if any(guard.name == name for guard in logical.guard_atoms) \
            or any(atom.sig_name != name for atom in atoms):
        return None
    return atoms


def _reencoded(old, new):
    """Whether both relations carry dictionaries and they differ."""
    return old.dictionaries is not None and new.dictionaries is not None \
        and any(a is not b
                for a, b in zip(old.dictionaries, new.dictionaries))


def _guard_annotation_factor(logical):
    """Product of the matched guard atoms' annotations.

    A fully-constant atom contributes no join attributes, but under
    semiring semantics its selected tuple's annotation still multiplies
    into every derivation — exactly like any other body atom's.
    Unannotated guards contribute 1.
    """
    factor = 1.0
    for guard in logical.guard_atoms:
        relation = guard.relation
        if relation.annotations is not None and relation.cardinality:
            factor *= float(np.prod(relation.annotations))
    return factor


def _no_join_result(cbag, inputs, semiring):
    """The result of a compiled bag that involves no join work — an
    empty input, or one input whose attributes are all emitted in
    order (an identity scan of its sorted tuples) — else ``None``.  No
    kernel is entered for these (a kernel without prefix outputs
    answers its own empty inputs and is never a scan)."""
    order, out_count = cbag.eval_order, cbag.out_count
    if any(bag_input.trie.cardinality == 0 for bag_input in inputs):
        return empty_bag_result(order, out_count, semiring)
    if len(inputs) != 1 or out_count != len(order) \
            or inputs[0].variables != order:
        return None
    trie = inputs[0].trie
    annotations = np.array(trie.sorted_annotations) if inputs[0].annotated \
        else np.ones(trie.cardinality, dtype=np.float64)
    return BagResult(order, trie.sorted_data, annotations=annotations)


def _input_profiles(inputs):
    """Cheap per-input profiles for EXPLAIN ANALYZE's cost prediction.

    O(#inputs) attribute reads — root cardinality, tuple count, and the
    layout kind the optimizer gives the root set (asked, not built) —
    captured at the moment the bag's inputs (base tries plus pass-ups)
    are assembled.
    """
    profiles = []
    for bag_input in inputs:
        trie = bag_input.trie
        profiles.append({
            "name": bag_input.name,
            "variables": tuple(bag_input.variables),
            "root_card": trie.root_cardinality,
            "cardinality": int(trie.cardinality),
            "kind": trie.root_kind,
        })
    return profiles


def _distinct_head(logical, arg):
    """``logical`` materializing its head and ``arg``: the pseudo head
    whose rows ``<<COUNT(arg)>>`` counts per head tuple."""
    if arg in logical.head_vars:
        raise PlanError("COUNT argument %r is a head variable" % arg)
    return logical.with_head(tuple(logical.head_vars) + (arg,))


def _counts_bindings(logical, arg):
    """Whether ``<<COUNT(arg)>>`` of ``logical`` is its ``COUNT(*)``: an
    unannotated body whose variables are exactly the head's and
    ``arg`` binds each distinct ``(head, arg)`` row once."""
    body = {var for atom in logical.atoms for var in atom.variables}
    return body == set(logical.head_vars) | {arg} and not any(
        atom.annotated for atom in logical.atoms + logical.guard_atoms)


def _finish_count_distinct(logical, distinct, env):
    """Finalizer for ``<<COUNT(v)>>``: group the materialized pseudo
    head (head attributes + the count argument) and count the distinct
    bindings per group.  Shared by the interpreted and compiled paths.
    """
    head_name = logical.rule.head_name
    if not logical.head_vars:
        value = eval_expression(logical.assignment,
                                float(distinct.cardinality), env)
        return Relation.scalar(head_name, float(value))
    # Canonical rows are grouped by their head prefix; the plan's own
    # output already is canonical, which one linear pass confirms.
    keys = distinct.deduplicated().data[:, :-1]
    new_group = np.ones(keys.shape[0], dtype=bool)
    new_group[1:] = np.any(keys[1:] != keys[:-1], axis=1)
    starts = np.flatnonzero(new_group)
    counts = np.diff(starts, append=keys.shape[0]).astype(np.float64)
    heads = keys[starts]
    values = eval_expression(logical.assignment, counts, env)
    values = np.broadcast_to(np.asarray(values, dtype=np.float64),
                             (heads.shape[0],)).copy()
    return Relation(head_name, heads, values)


def _pass_up(child_result, parent_chi, aggregate_mode):
    """``(relation, annotated)``: a child's retained result as its
    parent's input relation.

    Aggregate mode: the child result (already aggregated onto its out
    attributes, all of which the parent can see) flows up annotated.
    Materialize mode: only the shared columns flow up, as an
    unannotated semijoin filter (annotations re-enter in the top-down
    pass).
    """
    attrs = list(child_result.out_attrs)
    if aggregate_mode:
        relation = Relation("pass:" + ",".join(attrs), child_result.data,
                            child_result.annotations)
        relation.attr_names = tuple(attrs)
        return relation, child_result.annotations is not None
    shared_cols = [i for i, a in enumerate(attrs) if a in parent_chi]
    shared_attrs = [attrs[i] for i in shared_cols]
    relation = Relation("pass:" + ",".join(shared_attrs),
                        child_result.data[:, shared_cols]).deduplicated()
    relation.attr_names = tuple(shared_attrs)
    return relation, False


def _is_disconnected_child(child_result, parent_chi):
    """True when a child bag shares no attributes with its parent —
    joining it degenerates to a scalar factor (aggregate mode) or an
    existence guard (materialize mode; any columns it does carry
    re-enter in the top-down pass)."""
    return not any(a in parent_chi for a in child_result.out_attrs)


def _child_scalar(child_result, semiring):
    """A disconnected child's contribution as a single semiring value."""
    if child_result.scalar is not None:
        return child_result.scalar
    if child_result.annotations is not None \
            and len(child_result.annotations):
        return semiring.fold_leaf(child_result.annotations)
    return semiring.zero


def _bag_alive(result, zero=0.0):
    """Whether a bag result admits at least one satisfying binding.

    An attribute-less bag signals emptiness with ``scalar ==
    semiring.zero`` (the fold over no bindings), so the caller must
    supply its semiring's zero — MIN's is ``inf``, not ``0.0``.
    """
    if result.data.shape[0] > 0:
        return True
    return result.scalar is not None and result.scalar != zero


def _top_down_join(ghd, retained):
    """Yannakakis' top-down pass: join retained bag results along the
    tree.  Annotations multiply across bags (each bag's annotation is the
    product over its own relations only, so the total product is exact).
    """
    def rec(node):
        result = retained[id(node)]
        attrs = list(result.out_attrs)
        data = result.data
        annotations = result.annotations
        if not attrs:
            # An attribute-less bag (e.g. a fully-selected guard
            # component) is a pure existence test: join through it as a
            # zero-column identity row so sibling subtrees still
            # cross-product, or kill the subtree when it is empty.
            data = np.empty((1 if _bag_alive(result) else 0, 0),
                            dtype=np.uint32)
            annotations = None
        for child in node.children:
            child_data, child_attrs, child_ann = rec(child)
            data, attrs, annotations = _merge_join(
                data, attrs, annotations,
                child_data, child_attrs, child_ann)
        return data, attrs, annotations

    data, attrs, annotations = rec(ghd.root)
    return data, attrs, annotations


def _merge_join(left, left_attrs, left_ann, right, right_attrs, right_ann):
    """Pairwise sort-merge join for the acyclic top-down assembly.

    Rows come out in left row order, the matches of one left row in
    right row order (the right side is sorted stably, once);
    annotations multiply left × right.
    """
    shared = [a for a in left_attrs if a in right_attrs]
    right_extra = [i for i, a in enumerate(right_attrs) if a not in shared]
    attrs = list(left_attrs) + [right_attrs[c] for c in right_extra]
    left_keys = row_keys(left[:, [left_attrs.index(a) for a in shared]])
    right_keys = row_keys(right[:, [right_attrs.index(a)
                                      for a in shared]])
    order = np.argsort(right_keys, kind="stable")
    right_keys = right_keys[order]
    first = np.searchsorted(right_keys, left_keys, side="left")
    counts = np.searchsorted(right_keys, left_keys, side="right") - first
    left_rows = np.repeat(np.arange(left.shape[0]), counts)
    # the k-th match of a left row is the (first + k)-th sorted right row
    ends = np.cumsum(counts)
    right_rows = order[np.arange(left_rows.size)
                       - np.repeat(ends - counts - first, counts)]
    data = np.concatenate([left[left_rows],
                           right[right_rows][:, right_extra]], axis=1)
    annotations = None
    if left_rows.size and left_ann is not None:
        annotations = left_ann[left_rows]
        if right_ann is not None:
            annotations = annotations * right_ann[right_rows]
    elif left_rows.size and right_ann is not None:
        annotations = right_ann[right_rows]
    return data, attrs, annotations
