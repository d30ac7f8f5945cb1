"""Execution engine: semirings, generic WCOJ, Yannakakis, recursion."""

from .codegen import InputSpec, generate_bag_plan
from .config import EngineConfig
from .fused import FusedBagKernel
from ..lir.build import normalize_atom
from .executor import RuleExecutor, TrieCache, eval_expression
from .generic_join import (BagEvaluator, BagInput, BagResult,
                           assemble_chunks, evaluate_bag)
from .plan import BagPlan, PhysicalPlan
from .plan_cache import (CompiledBag, CompiledRule, PlanCache,
                         config_signature)
from .recursion import execute_recursive
from .semiring import (COUNT, EXISTS, MAX, MIN, SUM, Semiring, is_monotone,
                       semiring_for)
from .stats import ExecStats, MorselStat

#: Forked-scheduler exports (``multiprocessing`` and the morsel
#: machinery): only ``parallel_workers > 1`` reaches them.
_DEFERRED = {"evaluate_bag_parallel": ".parallel",
             "parallel_count": ".parallel"}

__all__ = [
    "EngineConfig",
    "RuleExecutor", "TrieCache", "eval_expression", "normalize_atom",
    "BagEvaluator", "BagInput", "BagResult", "assemble_chunks",
    "evaluate_bag",
    "BagPlan", "PhysicalPlan",
    "FusedBagKernel", "InputSpec", "generate_bag_plan",
    "CompiledBag", "CompiledRule", "PlanCache", "config_signature",
    "evaluate_bag_parallel", "parallel_count",
    "ExecStats", "MorselStat",
    "execute_recursive",
    "COUNT", "EXISTS", "MAX", "MIN", "SUM", "Semiring", "is_monotone",
    "semiring_for",
]


def __getattr__(name):
    # PEP 562: the ``_DEFERRED`` exports load with their module on first
    # use, so importing this package costs only what a serial query runs.
    if name not in _DEFERRED:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    from importlib import import_module
    value = getattr(import_module(_DEFERRED[name], __name__), name)
    globals()[name] = value
    return value
