"""SIMD lane-op cost model for set operations.

The paper's engine exploits AVX SIMD registers: 128-bit lanes for 32-bit
integer comparisons (four ``uint32`` values per instruction, the paper's
footnote 7) and 256-bit registers for bitset AND operations (256 set
elements per instruction, Section 4.2).  Pure Python cannot issue SIMD
instructions, so this module provides the measurement substrate that the
benchmarks use instead of raw cycle counts: every intersection algorithm
*charges* the number of simulated SIMD instructions and scalar operations
it would execute on the paper's hardware.

The wall-clock behaviour of the numpy kernels tracks these counters closely
(numpy processes many lanes per interpreter operation, the same economics
as SIMD), but the counters are exact and deterministic, which lets the
benchmark harness reproduce the paper's crossover points — e.g. the 32:1
cardinality ratio where galloping overtakes shuffling — independent of
interpreter noise.
"""

import math
from dataclasses import dataclass, field

#: Number of 32-bit integer lanes in one SIMD comparison (SSE, 128-bit).
SIMD_UINT32_LANES = 4

#: Cardinality ratio beyond which the hybrid dispatcher switches from
#: SIMDShuffling to SIMDGalloping (paper Section 4.2 / Algorithm 2).
#: :mod:`repro.sets.intersect` re-exports this as ``GALLOPING_THRESHOLD``;
#: it lives here so the *predictive* side of the model below stays in
#: lock-step with the dispatch side.
GALLOPING_CROSSOVER = 32

#: Number of bits processed by one SIMD AND over a 256-bit AVX register.
SIMD_REGISTER_BITS = 256

#: Number of 16-bit lanes compared by one STTNI string-compare instruction,
#: used by the pshort layout (Appendix C.2.2).
SIMD_UINT16_LANES = 8


@dataclass
class OpCounter:
    """Accumulates simulated hardware operations for one measured region.

    Attributes
    ----------
    simd_ops:
        Simulated wide instructions (comparisons, shuffles, ANDs).
    scalar_ops:
        Simulated scalar instructions (branches, scalar compares, probes).
    elements:
        Total input set elements touched, for throughput reporting.
    bytes_touched:
        Approximate bytes of set data read, for memory-traffic reporting.
    """

    simd_ops: int = 0
    scalar_ops: int = 0
    elements: int = 0
    bytes_touched: int = 0
    intersections: int = 0
    by_algorithm: dict = field(default_factory=dict)

    def charge(self, algorithm, simd=0, scalar=0, elements=0, nbytes=0):
        """Record one intersection's worth of simulated work."""
        self.simd_ops += simd
        self.scalar_ops += scalar
        self.elements += elements
        self.bytes_touched += nbytes
        self.intersections += 1
        per_algo = self.by_algorithm.setdefault(
            algorithm, {"simd": 0, "scalar": 0, "calls": 0})
        per_algo["simd"] += simd
        per_algo["scalar"] += scalar
        per_algo["calls"] += 1

    @property
    def total_ops(self):
        """Total simulated instruction count (wide + scalar)."""
        return self.simd_ops + self.scalar_ops

    def reset(self):
        """Zero every counter, keeping the object identity."""
        self.simd_ops = 0
        self.scalar_ops = 0
        self.elements = 0
        self.bytes_touched = 0
        self.intersections = 0
        self.by_algorithm.clear()

    def snapshot(self):
        """Return a plain dict copy of the counters for reporting."""
        return {
            "simd_ops": self.simd_ops,
            "scalar_ops": self.scalar_ops,
            "total_ops": self.total_ops,
            "elements": self.elements,
            "bytes_touched": self.bytes_touched,
            "intersections": self.intersections,
            "by_algorithm": {k: dict(v) for k, v in self.by_algorithm.items()},
        }


#: A shared counter used when callers do not pass their own.  Benchmarks
#: that care about attribution construct a private :class:`OpCounter`.
GLOBAL_COUNTER = OpCounter()


def get_counter(counter=None):
    """Return ``counter`` if given, else the module-level shared counter."""
    return GLOBAL_COUNTER if counter is None else counter


# ---------------------------------------------------------------------------
# predictive side of the model
# ---------------------------------------------------------------------------
#
# The charge formulas above record what an intersection *did* cost; the
# functions below predict, from cardinalities alone, what the dispatcher
# in :mod:`repro.sets.intersect` *will* charge for sorted-uint inputs.
# EXPLAIN ANALYZE (:mod:`repro.obs.explain`) compares these predictions
# against the measured lane ops to report the cost-model error per GHD
# bag — this is the single place the prediction formulas live, so the
# comparison is model-vs-reality, not model-vs-itself-rederived.

def _log2_ceil(n):
    return max(1, math.ceil(math.log2(max(int(n), 2))))


def predict_pair_ops(card_a, card_b, simd=True, crossover=None):
    """Predicted total lane ops for one two-set intersection.

    Mirrors the adaptive uint dispatch: past the
    :data:`GALLOPING_CROSSOVER` cardinality ratio (or an explicit
    ``crossover``) the galloping family runs (``O(small log large)``);
    below it the shuffling/merge family runs (``O(small + large)``).  The
    shuffling output term is bounded by the smaller input, making this
    an upper-bound prediction.
    """
    small = max(0, min(int(card_a), int(card_b)))
    large = max(0, max(int(card_a), int(card_b)))
    if small == 0:
        return 0
    if crossover is None:
        crossover = GALLOPING_CROSSOVER
    galloping = large > crossover * small
    if not simd:
        if galloping:
            return small * _log2_ceil(large)
        return small + large
    if galloping:
        blocks = -(-large // SIMD_UINT32_LANES)
        return 2 * small + small * _log2_ceil(blocks)
    return (-(-small // SIMD_UINT32_LANES) + -(-large // SIMD_UINT32_LANES)
            + small)


def predict_intersection_ops(cards, simd=True, crossover=None):
    """Predicted lane ops for a multi-way intersection.

    Models ``intersect_many``'s smallest-first left fold: each step
    intersects the running result (bounded by the smallest cardinality
    seen so far) with the next-larger set.
    """
    cards = sorted(max(0, int(c)) for c in cards)
    if len(cards) < 2:
        return 0
    total = 0
    running = cards[0]
    for card in cards[1:]:
        total += predict_pair_ops(running, card, simd=simd,
                                  crossover=crossover)
        running = min(running, card)
    return total
