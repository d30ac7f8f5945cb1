"""Bag lowering: from a bag's plan to its block kernel (§3.3).

EmptyHeaded compiles every GHD bag instead of interpreting it.  Here
"compiling" a bag means resolving, once, everything about it that does
not depend on the data — which input participates at which level of
the attribute order, at which trie depth, whether it is annotated,
which fold finishes the aggregated suffix — into a
:class:`~repro.engine.fused.FusedBagKernel`, which then evaluates the
bag as numpy block operations on every execution.  Kernels are cached
through the plan cache (:mod:`repro.engine.plan_cache`) and keyed on
the bag's shape, so structurally identical bags share one.

Every bag the planner produces has a kernel: its inputs may have any
arity (the kernel reads k-level flat tries) and its fold is one of the
language's semirings.  The interpreter
(:class:`~repro.engine.generic_join.BagEvaluator`) is only the
reference implementation every kernel is differentially tested
against; the default engine never runs it.
"""

from ..errors import PlanError
from .fused import FusedBagKernel
from .semiring import Semiring


class InputSpec:
    """Compile-time description of one bag input.

    ``variables`` must be the bag evaluation order restricted to this
    input (i.e. the trie's level order).
    """

    __slots__ = ("name", "variables", "annotated")

    def __init__(self, name, variables, annotated=False):
        self.name = name
        self.variables = tuple(variables)
        self.annotated = bool(annotated)

    def signature(self):
        """Hashable identity for the plan cache's bag-source tier."""
        return (self.variables, self.annotated)


def generate_bag_plan(eval_order, out_count, specs, semiring,
                      out_attrs=None):
    """Lower one bag to its block kernel.

    Parameters
    ----------
    eval_order:
        The bag's attribute order, output attributes first.
    out_count:
        How many leading attributes are emitted (``0`` folds everything
        into a scalar).
    specs:
        :class:`InputSpec` list, one per input trie.
    semiring:
        Fold for the aggregated suffix (and the zero of empty results).
    out_attrs:
        The emitted attributes when they are not the first
        ``out_count`` of ``eval_order`` (a seminaive round's
        delta-first order); needs an idempotent fold.

    Returns
    -------
    FusedBagKernel
        Calling the kernel with ``(tries, config)`` —
        tries in spec order — returns the same
        :class:`~repro.engine.generic_join.BagResult` the interpreting
        :class:`~repro.engine.generic_join.BagEvaluator` produces
        (for ``out_attrs``: produces under the output-first order, up
        to row and column order).

    Raises
    ------
    PlanError
        For a zero-attribute bag, an attribute no input covers, or a
        semiring without a block fold
        (:data:`~repro.engine.fused.FUSED_SEMIRINGS`).
    """
    if not eval_order:
        raise PlanError("cannot lower a zero-attribute bag")
    if not isinstance(semiring, Semiring):
        raise PlanError("semiring must be a Semiring instance")
    return FusedBagKernel(eval_order, out_count, specs, semiring,
                          out_attrs=out_attrs)
