"""Compiled-plan caching for the default execution path.

EmptyHeaded compiles a query once and amortizes the compilation over
repeated executions; this module supplies the three cache tiers that
make a repeated query's cost approach the pure join work:

* **program tier** — query text → parsed rule ASTs, so a repeated
  ``Database.query`` call skips the parser entirely;
* **rule tier** — rule text → :class:`CompiledRule` (GHD choice, global
  order, per-bag block kernels, baked base tries), guarded by
  catalog relation *identity* and *version* so replacing a relation
  (a new load) transparently invalidates — except when the replaced
  relations were merely re-derived (a recursion round's own head, an
  auxiliary relation a program recomputes on every run) or mutated in
  place without leaving their atoms' cardinality bands
  (``Database.append`` / ``delete``).  The executor then *re-binds*
  those atoms and their tries and the entry lives on, so a recursion
  compiles once however many rounds — and runs — it has, and a write
  costs the rules that read it a trie patch, not a recompile;
* **bag-source tier** — normalized bag signature (attribute order +
  head split + semiring + per-input annotation flags) →
  :class:`~repro.engine.fused.FusedBagKernel`, so structurally
  identical bags across different rules share one kernel.

Every tier keys on :func:`config_signature` — the config's frozen
:class:`~repro.ablation.Ablation` — so ablation configs never cross-hit.
"""

#: Default per-tier entry cap; oldest entries evict first (dict order).
MAX_ENTRIES = 256


def config_signature(config):
    """What a cached plan depends on of an
    :class:`~repro.engine.config.EngineConfig`: its
    :class:`~repro.ablation.Ablation`, every plan and kernel switch by
    construction.  The op counter, the observation hooks and the
    view-maintenance route stay out."""
    return config.ablation


class CompiledBag:
    """One GHD bag lowered to its block kernel (``generated``) plus its
    runtime wiring: the baked base-relation tries (in spec order), the
    static shape of every child pass-up input, and the bag-equivalence
    signature the redundant-bag elimination memoizes on."""

    __slots__ = ("eval_order", "out_attrs", "out_count", "base_inputs",
                 "passups", "generated", "chi", "width", "input_names",
                 "signature", "canonical_out")

    def __init__(self, eval_order, out_attrs, base_inputs, passups=(),
                 generated=None, chi=(), width=0.0, input_names=(),
                 signature=None, canonical_out=()):
        self.eval_order = tuple(eval_order)
        self.out_attrs = tuple(out_attrs)
        self.out_count = len(self.out_attrs)
        #: BagInput list over cache-owned tries (base relations only).
        self.base_inputs = list(base_inputs)
        #: ``(ordered_vars, key_order, annotated)`` per pass-up child,
        #: in child order, for children that pass a relation up.
        self.passups = list(passups)
        self.generated = generated
        self.chi = tuple(chi)
        self.width = width
        self.input_names = list(input_names)
        #: Structural signature (ghd.equivalence) for run-time reuse.
        self.signature = signature
        self.canonical_out = tuple(canonical_out)


class CompiledRule:
    """A rule compiled for repeated execution.

    ``kind`` selects the runtime driver:

    ``"plan"``
        Normal GHD plan — ``bags`` maps ``id(node)`` to
        :class:`CompiledBag`, walked bottom-up over ``ghd``.
    ``"count_distinct"``
        ``<<COUNT(v)>>`` rules — ``inner`` holds the compiled pseudo
        materialization plan; the distinct-count finalizer runs on its
        result.
    ``"empty"``
        A 0-ary guard atom was empty at compile time — the rule's
        result is statically empty.

    ``guards`` pins the catalog relations the compilation read as
    ``(name, relation, version)`` triples; the cache revalidates them by
    identity *and* mutation version before reuse.  ``logical`` keeps
    the optimized :class:`~repro.lir.ir.LogicalRule` the plan was
    lowered from — the finalizers read the *rewritten* assignment
    expression and head from it, not from the raw AST rule.
    ``bands`` holds each of its atoms' log2 cardinality band at compile
    time: a plan re-binds across an in-place mutation only while the
    bands of the mutated relation's atoms hold.
    """

    __slots__ = ("kind", "rule", "guards", "ghd", "duplicates",
                 "global_order", "semiring", "aggregate_mode", "bags",
                 "inner", "logical", "bands")

    def __init__(self, kind, rule, guards, ghd=None, duplicates=(),
                 global_order=(), semiring=None, aggregate_mode=False,
                 bags=None, inner=None, logical=None, bands=()):
        self.kind = kind
        self.rule = rule
        self.guards = tuple(guards)
        self.ghd = ghd
        self.duplicates = duplicates
        self.global_order = tuple(global_order)
        self.semiring = semiring
        self.aggregate_mode = aggregate_mode
        self.bags = bags if bags is not None else {}
        self.inner = inner
        self.logical = logical
        self.bands = bands

    def stale_guards(self, catalog):
        """Names of the relations the compilation saw that are no
        longer the installed one *or* were mutated since (empty: the
        entry is valid).

        The identity check catches wholesale replacement (rule heads,
        recursion rounds); the version check catches in-place mutation
        (``Database.append`` / ``delete``), whose baked tries would
        otherwise serve stale contents.  Either is offered to the
        executor's re-bind before the entry is dropped.
        """
        return [name for name, relation, version in self.guards
                if catalog.get(name) is not relation
                or getattr(relation, "version", 0) != version]

    def valid(self, catalog):
        """True while no guard is stale."""
        return not self.stale_guards(catalog)


class PlanCache:
    """Three-tier cache: programs, compiled rules, bag kernels."""

    def __init__(self, max_entries=MAX_ENTRIES):
        self.max_entries = max_entries
        self._programs = {}
        self._rules = {}
        self._bag_code = {}
        #: Called with every :class:`CompiledRule` leaving the rule
        #: tier, however it leaves; the executor releases what only
        #: that rule kept alive (tries of its derived relations).
        self.on_retire = None

    # -- program tier -------------------------------------------------------

    def get_program(self, key):
        """Parsed rules for ``(text, config_signature)`` or ``None``."""
        return self._programs.get(key)

    def put_program(self, key, rules):
        self._evict(self._programs)
        self._programs[key] = rules

    # -- rule tier ----------------------------------------------------------

    def get_rule(self, key, catalog, rebind=None):
        """Valid :class:`CompiledRule` for the key, or ``None``.

        A stale entry (a guard relation was replaced or mutated) is
        offered to ``rebind(compiled, stale_names)``, which may bring
        it up to date in place and return true; otherwise it is
        dropped on probe, so the caller recompiles exactly once per
        invalidation.
        """
        compiled = self._rules.get(key)
        if compiled is None:
            return None
        stale = compiled.stale_guards(catalog)
        if stale and not (rebind is not None and rebind(compiled, stale)):
            self.evict_rule(key)
            return None
        return compiled

    def put_rule(self, key, compiled):
        while len(self._rules) >= self.max_entries:
            self.evict_rule(next(iter(self._rules)))
        self._rules[key] = compiled

    def evict_rule(self, key):
        """Drop one compiled rule.  Every way out of the rule tier ends
        here, so ``on_retire`` sees each departing rule once.  Returns
        whether an entry was present."""
        compiled = self._rules.pop(key, None)
        if compiled is not None and self.on_retire is not None:
            self.on_retire(compiled)
        return compiled is not None

    # -- bag-source tier ----------------------------------------------------

    def get_bag_code(self, signature):
        """Cached block kernel for a bag signature, or ``None``."""
        return self._bag_code.get(signature)

    def put_bag_code(self, signature, generated):
        self._evict(self._bag_code)
        self._bag_code[signature] = generated

    # -- maintenance --------------------------------------------------------

    def _evict(self, tier):
        while len(tier) >= self.max_entries:
            tier.pop(next(iter(tier)))

    def clear(self):
        self._programs.clear()
        for key in list(self._rules):
            self.evict_rule(key)
        self._bag_code.clear()

    def sizes(self):
        """Per-tier entry counts — feeds the observability gauges."""
        return {"programs": len(self._programs),
                "rules": len(self._rules),
                "bag_code": len(self._bag_code)}

    def __len__(self):
        return len(self._programs) + len(self._rules) \
            + len(self._bag_code)
