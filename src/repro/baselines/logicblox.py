"""A LogicBlox-style engine: worst-case optimal, but no GHDs, no SIMD.

The paper identifies LogicBlox as the first commercial WCOJ engine and
attributes its gap to EmptyHeaded to three missing pieces (§1, §5):

* every plan is a single-node GHD (the generic algorithm with no early
  aggregation — Figure 3b);
* one homogeneous set representation (no density-skew layouts);
* scalar Leapfrog Triejoin intersections (min-property-preserving, but
  no SIMD).

This class wires exactly those choices into our own machinery, so the
gap measured against it is attributable to the paper's contributions
rather than to implementation quality differences.
"""

from ..ablation import Ablation
from ..api import Database
from ..engine.config import EngineConfig


class LogicBloxLike:
    """Database façade locked to the LogicBlox-style configuration."""

    def __init__(self, **overrides):
        config = EngineConfig(ablation=Ablation(
            use_ghd=False,              # single-node GHD plans only
            push_selections=False,      # no selection push-down across bags
            eliminate_redundant_bags=False,
            layout_level="uint_only",   # one homogeneous layout
            simd=False,                 # scalar merge/leapfrog intersections
            adaptive_algorithms=True,   # LFTJ does obey the min property
        ))
        self.db = Database(config=config, **overrides)

    def load_graph(self, name, edges, **kwargs):
        """Load a graph through the underlying Database."""
        return self.db.load_graph(name, edges, **kwargs)

    def query(self, text):
        """Run a query program under the LogicBlox-style configuration."""
        return self.db.query(text)

    @property
    def counter(self):
        """The engine's simulated-op counter."""
        return self.db.counter
