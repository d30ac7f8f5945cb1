"""The interpreted oracle: the default engine's driver, bags on the
set-at-a-time generic join.

:class:`OracleExecutor` runs the same Yannakakis walk as
:class:`~repro.engine.executor.RuleExecutor` — one lowering, one
bottom-up pass, the same memo and finalizers — and differs from it in
what the differential tests compare: it plans every run afresh (no
plan cache, no rule pins), orders each bag output-first
(:func:`~repro.ghd.attribute_order.bag_evaluation_order`), lowers no
kernel, and evaluates every bag with
:func:`~repro.engine.generic_join.evaluate_bag`, the only call to it
in the engine.  It is also where the layout/SIMD/algorithm ablations
change the op count.  ``Database`` constructs it, through
:func:`executor_for`, when ``config.execution_mode ==
"interpreted"``; nothing else in :mod:`repro.engine` imports this
module.
"""

from ..ghd.attribute_order import bag_evaluation_order
from ..lir import optimize_rule
from .executor import RuleExecutor, _distinct_head, _finish_count_distinct
from .generic_join import BagInput, evaluate_bag
from .stats import ExecStats


class OracleExecutor(RuleExecutor):
    """The interpreted executor: plans per run, fetches its tries from
    the trie cache, evaluates with the generic join."""

    def execute(self, rule, stats=None):
        """Run ``rule`` and return the result relation.  ``stats`` is
        the default engine's and ignored: :attr:`last_stats` stays
        ``None``."""
        del stats
        self.last_stats = None
        logical = optimize_rule(rule, self.catalog, self._options())
        self.last_logical = logical
        if logical.has_empty_guard:
            return self._empty_output(rule)
        self._validate(logical)
        agg = logical.aggregate
        try:
            if agg is not None and agg.op == "COUNT" and agg.arg != "*":
                return self._execute_count_distinct(logical, agg)
            return self._run_plan(self._plan(logical), None)
        finally:
            # the plan dies with the run, and its derived tries with it
            self._retire_derived(logical)

    def _plan(self, logical):
        """This run's lowered plan (its counters are nobody's)."""
        return self._lower(logical, (), ExecStats())

    def _execute_count_distinct(self, logical, agg):
        """``<<COUNT(v)>>`` counts *distinct* bindings of ``v`` per head
        tuple (the paper's ``N(;w) :- Edge(x,y); w=<<COUNT(x)>>`` counts
        nodes, not edges)."""
        distinct = self._run_plan(
            self._plan(_distinct_head(logical, agg.arg)), None)
        return _finish_count_distinct(logical, distinct, dict(self.env))

    def _bag_order(self, logical, node, wanted, semiring, child_outs):
        """Outputs in ``chi`` order, evaluated output-first."""
        out_attrs = tuple(a for a in node.chi if a in wanted)
        return bag_evaluation_order(node.chi, out_attrs,
                                    logical.global_order), out_attrs

    def _lower_kernel(self, node, cbag, bags, semiring, aggregate_mode,
                      stats):
        """No pass-up shapes and no kernel: pass-ups are read as they
        come, and the generic join needs no lowering."""

    def _pass_up_input(self, cbag, index, relation, annotated):
        """A pass-up keyed in the bag's evaluation order over whatever
        columns the child's result carries."""
        columns = relation.attr_names
        ordered_vars = [a for a in cbag.eval_order if a in columns]
        key_order = tuple(columns.index(a) for a in ordered_vars)
        return BagInput(self._pass_up_trie(relation, key_order),
                        ordered_vars, annotated=annotated,
                        name=relation.name)

    def _evaluate(self, cbag, inputs, semiring, stats):
        """The bag's generic join (Algorithm 1), set at a time."""
        return evaluate_bag(cbag.eval_order, cbag.out_count, inputs,
                            semiring, self.config)


def executor_for(catalog, config, *args, **kwargs):
    """The executor ``config.execution_mode`` names over ``catalog``
    (further arguments as :class:`~repro.engine.executor.RuleExecutor`
    takes them)."""
    engine = OracleExecutor if config.execution_mode == "interpreted" \
        else RuleExecutor
    return engine(catalog, config, *args, **kwargs)
