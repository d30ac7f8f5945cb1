"""The engine's ablation switches, as one frozen value.

Every optimization the paper measures can be switched off, which is how
``benchmarks/bench_table08_patterns.py`` reproduces the "-R", "-RA" and
"-GHD" columns of Table 8, and the tests the ablations of Tables 4, 11
and 13 ("-S", push-down off).  The switches live here, below both
:mod:`repro.lir` (which reads the planner switches) and
:mod:`repro.engine` (which reads the rest), so neither layer copies
them.  An :class:`Ablation` is hashable and compares by value: it *is*
the plan cache's config signature, so a cached plan is keyed on every
switch by construction.  This module imports nothing from the
package, so importing it costs a cold process no other module.
"""

from dataclasses import dataclass

#: Granularities of the layout optimizer (``layout_level`` values),
#: implemented by :mod:`repro.sets.optimizer`.
LEVELS = ("relation", "set", "block", "uint_only", "bitset_only")


@dataclass(frozen=True)
class Ablation:
    """The nine plan and kernel switches (all on: the paper's engine).

    Attributes
    ----------
    layout_level:
        Granularity of the layout optimizer: ``"set"`` (paper default),
        ``"relation"``/``"uint_only"`` (the "-R" ablation), ``"block"``,
        or ``"bitset_only"``.
    adaptive_algorithms:
        Cardinality-skew algorithm switching (paper Algorithm 2); turning
        it off together with ``layout_level="uint_only"`` is the "-RA"
        ablation.
    simd:
        Vectorized kernels; ``False`` is the "-S" ablation (scalar merge
        loops).
    use_ghd:
        GHD query plans; ``False`` forces the single-node GHD
        (the Table 8 "-GHD" ablation, LogicBlox-style).
    push_selections:
        Push selections across GHD nodes (Appendix B.1.1); ``False`` is
        the Table 13 "-GHD" ablation.
    eliminate_redundant_bags:
        Reuse results of structurally identical bags (Appendix B.2),
        within a rule and, through a program-scoped
        :class:`~repro.engine.memo.BagMemo`, across the rules of one
        program.
    skip_top_down:
        Elide Yannakakis' top-down pass when the root already holds every
        head attribute (Appendix B.2).
    prune_attributes:
        Project away purely existential body attributes before GHD
        search (the :class:`repro.lir` attribute-pruning rewrite pass).
    fold_constants:
        Fold constant subexpressions of annotation assignments at
        optimization time (the constant-folding rewrite pass).
    """

    layout_level: str = "set"
    adaptive_algorithms: bool = True
    simd: bool = True
    use_ghd: bool = True
    push_selections: bool = True
    eliminate_redundant_bags: bool = True
    skip_top_down: bool = True
    prune_attributes: bool = True
    fold_constants: bool = True

    def __post_init__(self):
        if self.layout_level not in LEVELS:
            raise ValueError("unknown optimizer level %r"
                             % (self.layout_level,))
