"""EmptyHeaded reproduction: a relational engine for graph processing.

A from-scratch Python implementation of the SIGMOD 2016 EmptyHeaded
engine: a datalog-like query language compiled through generalized
hypertree decompositions (GHDs) to a worst-case optimal join engine with
skew-adaptive set layouts and intersection kernels.

>>> from repro import Database
>>> db = Database()
>>> _ = db.load_graph("Edge", [(0, 1), (1, 2), (0, 2)],
...                   prune=True)
>>> db.query("T(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); "
...          "w=<<COUNT(*)>>.").scalar
1.0
"""

from .ablation import Ablation
from .api import Database, Result
from .engine.config import EngineConfig
from .errors import (EmptyHeadedError, ExecutionError, LayoutError,
                     PlanError, QuerySyntaxError, SchemaError,
                     UnknownRelationError)

__version__ = "1.0.0"

__all__ = [
    "Ablation", "Database", "Result", "EngineConfig",
    "EmptyHeadedError", "ExecutionError", "LayoutError", "PlanError",
    "QuerySyntaxError", "SchemaError", "UnknownRelationError",
    "__version__",
]
