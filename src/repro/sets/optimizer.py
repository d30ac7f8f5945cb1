"""Layout optimizers: relation-, set-, and block-level, plus the oracle.

Section 4.3 of the paper studies three granularities at which the engine
can choose between the uint and bitset layouts, and Section 4.4 settles on
the *set-level* optimizer (their Algorithm 3: a set becomes a bitset when
each value consumes at most one SIMD register's worth of bits, i.e. when
``range / cardinality < 256``).  The brute-force *oracle* optimizer runs
every layout/algorithm combination per intersection and charges only the
best one, giving the unachievable lower bound of Table 4.
"""

import itertools
import time

import numpy as np

from .base import SetLayout
from .bitset import BitSet
from .blocked import BlockedSet
from .cost import OpCounter, SIMD_REGISTER_BITS
from .intersect import UINT_ALGORITHMS, intersect
from .uint import UintSet

#: Names accepted for the ``level`` parameter of :func:`build_set`.
LEVELS = ("relation", "set", "block", "uint_only", "bitset_only")


def choose_set_layout(values, density_threshold=None):
    """The paper's Algorithm 3, deciding uint vs bitset for one set.

    ``values`` may be a sorted array or any iterable; returns the kind
    string (``"uint"`` or ``"bitset"``).  ``density_threshold``
    overrides the ``SIMD_REGISTER_BITS`` inverse-density bar (tests
    drive it; the engine always uses the default).
    """
    arr = np.asarray(values)
    if arr.size == 0:
        return "uint"
    if density_threshold is None:
        density_threshold = SIMD_REGISTER_BITS
    span = int(arr.max()) - int(arr.min()) + 1
    inverse_density = span / arr.size
    return "bitset" if inverse_density < density_threshold else "uint"


def build_set(values, level="set", density_threshold=None):
    """Materialize ``values`` under the given optimizer granularity.

    Parameters
    ----------
    level:
        * ``"relation"`` / ``"uint_only"`` — every set is a uint array
          (the best homogeneous choice on sparse real data, Section 4.3).
        * ``"bitset_only"`` — every set is a bitset (homogeneous dense).
        * ``"set"`` — per-set Algorithm 3 decision (the engine default).
        * ``"block"`` — the composite block layout.
    density_threshold:
        Inverse-density crossover for the ``"set"`` decision; ``None``
        keeps the paper's ``SIMD_REGISTER_BITS`` bar.
    """
    if level in ("relation", "uint_only"):
        return UintSet(values)
    if level == "bitset_only":
        return BitSet(values)
    if level == "set":
        if choose_set_layout(values, density_threshold) == "bitset":
            return BitSet(values)
        return UintSet(values)
    if level == "block":
        return BlockedSet(values)
    raise ValueError("unknown optimizer level %r (expected one of %s)"
                     % (level, ", ".join(LEVELS)))


def layout_histogram(sets):
    """Count how many sets of an iterable landed in each layout kind.

    Used by the experiments to report facts like "41% of Google+
    neighborhoods became bitsets" (Section 5.2.1).
    """
    histogram = {}
    for s in sets:
        histogram[s.kind] = histogram.get(s.kind, 0) + 1
    return histogram


class SetOptimizer:
    """Stateful wrapper the trie builder calls for every set it stores.

    Tracks decision overhead (Table 15) and the layout histogram so the
    benchmarks can report both without re-walking the trie.
    """

    def __init__(self, level="set", density_threshold=None):
        if level not in LEVELS:
            raise ValueError("unknown optimizer level %r" % (level,))
        self.level = level
        self.density_threshold = density_threshold
        self.decision_seconds = 0.0
        self.histogram = {}

    def kind_of(self, values):
        """The layout kind :meth:`build` would give ``values``, decided
        without materializing anything (and so without a histogram
        entry or decision time: those record sets that were built)."""
        if self.level == "set":
            return choose_set_layout(values, self.density_threshold)
        return {"relation": "uint", "uint_only": "uint",
                "bitset_only": "bitset", "block": "block"}[self.level]

    def build(self, values):
        """Choose a layout for ``values`` and materialize it."""
        start = time.perf_counter()
        layout = build_set(values, self.level, self.density_threshold)
        self.decision_seconds += time.perf_counter() - start
        self.histogram[layout.kind] = self.histogram.get(layout.kind, 0) + 1
        return layout


#: Layout kinds the oracle may assign to one operand.
_ORACLE_LAYOUTS = ("uint", "bitset")


def oracle_intersection_cost(a_values, b_values):
    """Lower-bound cost of intersecting two value arrays (Section 4.4).

    Tries every (layout_a, layout_b, algorithm) combination, measuring the
    simulated-op cost of each, and returns the minimum cost together with
    the winning combination.  This "perfect knowledge" optimizer is the
    baseline Table 4 compares the practical optimizers against.
    """
    best = None
    for kind_a, kind_b in itertools.product(_ORACLE_LAYOUTS, repeat=2):
        set_a = UintSet(a_values) if kind_a == "uint" else BitSet(a_values)
        set_b = UintSet(b_values) if kind_b == "uint" else BitSet(b_values)
        if kind_a == "uint" and kind_b == "uint":
            algorithms = UINT_ALGORITHMS
        else:
            algorithms = (None,)
        for algorithm in algorithms:
            counter = OpCounter()
            intersect(set_a, set_b, counter, algorithm=algorithm)
            cost = counter.total_ops
            combo = (kind_a, kind_b, algorithm)
            if best is None or cost < best[0]:
                best = (cost, combo)
    return best


class OracleCounter:
    """Accumulates oracle lower-bound costs across a whole query.

    The execution engine can be run in "oracle audit" mode where every
    intersection it performs is also priced by the oracle; the ratio of
    actual simulated ops to oracle ops reproduces Table 4's columns.
    """

    def __init__(self):
        self.oracle_ops = 0
        self.intersections = 0

    def observe(self, a_layout: SetLayout, b_layout: SetLayout):
        """Price one intersection at the oracle's optimum."""
        cost, _ = oracle_intersection_cost(a_layout.to_array(),
                                           b_layout.to_array())
        self.oracle_ops += cost
        self.intersections += 1
