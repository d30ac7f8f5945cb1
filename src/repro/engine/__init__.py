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
from .stats import ExecStats

__all__ = [
    "EngineConfig",
    "RuleExecutor", "TrieCache", "eval_expression", "normalize_atom",
    "BagEvaluator", "BagInput", "BagResult", "assemble_chunks",
    "evaluate_bag",
    "BagPlan", "PhysicalPlan",
    "FusedBagKernel", "InputSpec", "generate_bag_plan",
    "CompiledBag", "CompiledRule", "PlanCache", "config_signature",
    "ExecStats",
    "execute_recursive",
    "COUNT", "EXISTS", "MAX", "MIN", "SUM", "Semiring", "is_monotone",
    "semiring_for",
]

