"""Set layouts, intersection kernels, and layout optimizers.

This package is the reproduction of the paper's execution-engine substrate
(Section 4 and Appendices C.1/C.2): five physical set layouts, the full
roster of intersection algorithms with a SIMD lane-op cost model, and the
relation/set/block-level layout optimizers plus the oracle lower bound.
"""

from .algebra import difference, union, union_many
from .base import MAX_VALUE, SetLayout, as_sorted_uint32
from .bitset import BLOCK_BITS, BitSet
from .bitpacked import BitPackedSet
from .blocked import BlockedSet
from .cost import (GLOBAL_COUNTER, OpCounter, SIMD_REGISTER_BITS,
                   SIMD_UINT16_LANES, SIMD_UINT32_LANES)
from .intersect import (GALLOPING_THRESHOLD, UINT_ALGORITHMS,
                        choose_uint_algorithm, intersect, intersect_many,
                        intersect_uint_arrays)
from .optimizer import (LEVELS, OracleCounter, SetOptimizer, build_set,
                        choose_set_layout, layout_histogram,
                        oracle_intersection_cost)
from .pshort import PShortSet
from .skew import (cardinality_ratio, density_skew, pearson_first_skew,
                   set_density, set_statistics)
from .uint import UintSet
from .variant import VariantSet

__all__ = [
    "difference", "union", "union_many",
    "MAX_VALUE", "SetLayout", "as_sorted_uint32",
    "BLOCK_BITS", "BitSet", "BitPackedSet", "BlockedSet",
    "GLOBAL_COUNTER", "OpCounter", "SIMD_REGISTER_BITS",
    "SIMD_UINT16_LANES", "SIMD_UINT32_LANES",
    "GALLOPING_THRESHOLD", "UINT_ALGORITHMS",
    "choose_uint_algorithm", "intersect", "intersect_many",
    "intersect_uint_arrays",
    "LEVELS", "OracleCounter", "SetOptimizer", "build_set",
    "choose_set_layout", "layout_histogram", "oracle_intersection_cost",
    "PShortSet", "UintSet", "VariantSet",
    "cardinality_ratio", "density_skew", "pearson_first_skew",
    "set_density", "set_statistics",
]
