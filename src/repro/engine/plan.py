"""Physical plan records: what ``Database.explain`` reports.

A :class:`PhysicalPlan` captures the compiled shape of one rule — the
chosen GHD, the global attribute order, and per-bag execution detail
(evaluation order, retained attributes, input relations and their trie
orders) — in the spirit of the paper's Figure 1 pipeline stages.
"""

from dataclasses import dataclass, field
from typing import List, Tuple


@dataclass
class BagPlan:
    """Execution detail of one GHD bag."""

    chi: Tuple[str, ...]
    eval_order: Tuple[str, ...]
    out_attrs: Tuple[str, ...]
    inputs: List[str] = field(default_factory=list)
    width: float = 0.0
    reused_from_signature: bool = False
    #: Observability (EXPLAIN ANALYZE): wall seconds and simulated lane
    #: ops this bag's evaluation actually took.  Recorded by the
    #: executor on every run (cheap: two clock reads and one counter
    #: delta per bag); ``None`` on bags that never evaluated (reused
    #: results, plain ``explain``).
    actual_seconds: float = None
    actual_ops: int = None
    #: Per-input profiles captured when the bag's inputs were assembled:
    #: ``{"name", "variables", "root_card", "cardinality", "kind"}``
    #: dicts feeding the cost-model prediction in
    #: :mod:`repro.obs.explain`.
    input_profiles: List = field(default_factory=list)

    def describe(self):
        """One-line rendering for explain output."""
        reuse = "  [reused identical bag result]" \
            if self.reused_from_signature else ""
        return ("bag chi=(%s) eval=(%s) out=(%s) width=%.2f inputs=[%s]%s"
                % (",".join(self.chi), ",".join(self.eval_order),
                   ",".join(self.out_attrs), self.width,
                   ", ".join(self.inputs), reuse))


@dataclass
class PhysicalPlan:
    """Full compiled plan for one rule."""

    rule: object
    ghd: object
    global_order: Tuple[str, ...]
    bags: List[BagPlan] = field(default_factory=list)
    aggregate_mode: bool = False
    used_top_down: bool = False
    #: Rounds of the recursion whose last round this plan ran (its bag
    #: actuals are that round's alone); 0 outside a recursion.
    rounds: int = 0

    def describe(self):
        lines = [
            "rule: %s" % self.rule,
            "mode: %s" % ("aggregate (early aggregation)"
                          if self.aggregate_mode else "materialize"),
            "global attribute order: %s" % (list(self.global_order),),
            "GHD (width %.2f, %d bags):" % (self.ghd.width(),
                                            self.ghd.n_nodes),
        ]
        lines.extend(self.ghd.describe())
        if self.bags:
            lines.append("physical bags (bottom-up):")
            lines.extend("  " + bag.describe() for bag in self.bags)
        lines.append("top-down pass: %s"
                     % ("ran" if self.used_top_down
                        else "elided (App. B.2)"))
        return "\n".join(lines)
