"""Set intersection kernels and the adaptive algorithm dispatcher.

This module implements the paper's Section 4.2 and Appendix C.2: five
uint∩uint algorithms (SIMDShuffling, V1, Galloping, SIMDGalloping, BMiss),
the bitset∩bitset and uint∩bitset kernels, the pshort kernels, and the
hybrid dispatcher (paper Algorithm 2) that switches to galloping when the
cardinality ratio exceeds 32:1 so the *min property* — running time
bounded by the smaller input — is preserved.

Each kernel does two things:

* computes the exact intersection with vectorized numpy operations (the
  SIMD analog of this reproduction), and
* charges a simulated SIMD/scalar instruction count to an
  :class:`repro.sets.cost.OpCounter` using the lane widths of the paper's
  hardware, which is what the micro-benchmarks report.

Setting ``simd=False`` on the entry points replaces the numpy kernels with
pure-Python scalar merge loops — the paper's "-S" ablation (Appendix
A.1.2, Table 11).
"""

import math

import numpy as np

from .base import SetLayout
from .bitset import BLOCK_BITS, BitSet, WORDS_PER_BLOCK
from .bitpacked import BitPackedSet
from . import cost as _cost
from .cost import (GALLOPING_CROSSOVER, SIMD_REGISTER_BITS,
                   SIMD_UINT16_LANES, SIMD_UINT32_LANES, get_counter)
from .uint import UintSet
from .variant import VariantSet


def _live_crossover():
    """The current galloping crossover, read from :mod:`repro.sets.cost`
    at *call* time so overrides (tests monkeypatching
    ``cost.GALLOPING_CROSSOVER``) take effect without re-importing this
    module.  An import-time ``GALLOPING_THRESHOLD = GALLOPING_CROSSOVER``
    snapshot silently froze the dispatch at 32 even when the model side
    moved."""
    return _cost.GALLOPING_CROSSOVER


#: The paper's default 32:1 ratio, kept as a public alias for reporting
#: and tests.  Dispatch does **not** read this name — it calls
#: :func:`_live_crossover` (or takes an explicit ``crossover=``), so
#: overriding ``cost.GALLOPING_CROSSOVER`` changes kernel choice
#: immediately.
GALLOPING_THRESHOLD = GALLOPING_CROSSOVER

#: Algorithm names accepted by the ``algorithm`` parameter.
UINT_ALGORITHMS = ("shuffling", "v1", "galloping", "simd_galloping", "bmiss")

#: Shared empty result.  :class:`UintSet` is immutable, so every empty
#: intersection can return this one object instead of allocating — the
#: zero-cardinality short-circuit in :func:`intersect_many` hits it
#: before paying for the cardinality sort.
_EMPTY_UINT = UintSet(np.empty(0, dtype=np.uint32))


def _log2_ceil(n):
    return max(1, math.ceil(math.log2(n))) if n > 1 else 1


# ---------------------------------------------------------------------------
# uint ∩ uint kernels.  All take sorted unique uint32 arrays and return the
# sorted intersection.
# ---------------------------------------------------------------------------

def _searchsorted_matches(small, large):
    """Positions of ``small``'s elements found in ``large`` via binary
    search; shared machinery for the galloping-family kernels."""
    idx = np.searchsorted(large, small)
    idx_clamped = np.minimum(idx, large.size - 1)
    mask = large[idx_clamped] == small
    return small[mask]


def uint_shuffling(a, b, counter=None):
    """SIMDShuffling: block-wise merge with SIMD shuffles [Katsov 2012].

    Runs in time proportional to ``|a| + |b|`` and therefore does *not*
    satisfy the min property, but has the best constants when the two
    sets have similar cardinalities.
    """
    counter = get_counter(counter)
    out = np.intersect1d(a, b, assume_unique=True)
    counter.charge(
        "shuffling",
        simd=-(-a.size // SIMD_UINT32_LANES) + -(-b.size // SIMD_UINT32_LANES),
        scalar=int(out.size),
        elements=int(a.size + b.size),
        nbytes=int(a.nbytes + b.nbytes))
    return out


def uint_v1(a, b, counter=None):
    """Lemire V1: iterate the smaller set, scanning the larger set in
    SIMD-register-sized blocks from a monotone cursor [Lemire et al.].

    Time is ``O(|small| + |large| / lanes)``: the cursor walks the larger
    set once, so the min property does not hold either.
    """
    counter = get_counter(counter)
    small, large = (a, b) if a.size <= b.size else (b, a)
    out = _searchsorted_matches(small, large)
    counter.charge(
        "v1",
        simd=-(-large.size // SIMD_UINT32_LANES),
        scalar=int(small.size),
        elements=int(a.size + b.size),
        nbytes=int(a.nbytes + b.nbytes))
    return out


def uint_galloping(a, b, counter=None):
    """Galloping: per element of the smaller set, a binary search over
    SIMD blocks of the larger set [Lemire et al.].

    Satisfies the min property: cost is ``O(|small| log |large|)``.
    """
    counter = get_counter(counter)
    small, large = (a, b) if a.size <= b.size else (b, a)
    out = _searchsorted_matches(small, large)
    counter.charge(
        "galloping",
        simd=int(small.size),
        scalar=int(small.size) * _log2_ceil(max(large.size, 2)),
        elements=int(a.size + b.size),
        nbytes=int(a.nbytes + b.nbytes))
    return out


def uint_simd_galloping(a, b, counter=None):
    """SIMDGalloping: scalar binary search down to one SIMD block of the
    larger set, then one vector comparison [Lemire et al.].

    Satisfies the min property with better constants than plain galloping
    because the last ``log2(lanes)`` search levels collapse into a single
    SIMD compare.
    """
    counter = get_counter(counter)
    small, large = (a, b) if a.size <= b.size else (b, a)
    out = _searchsorted_matches(small, large)
    blocks = max(1, -(-large.size // SIMD_UINT32_LANES))
    counter.charge(
        "simd_galloping",
        simd=2 * int(small.size),
        scalar=int(small.size) * _log2_ceil(max(blocks, 2)),
        elements=int(a.size + b.size),
        nbytes=int(a.nbytes + b.nbytes))
    return out


def uint_bmiss(a, b, counter=None):
    """BMiss: SIMD comparison of 16-bit prefixes filters candidates, then
    scalar confirmation of partial matches [Inoue et al.].

    Efficient when the output cardinality is low (most prefix groups miss);
    pays extra scalar confirmations when prefixes collide heavily.
    """
    counter = get_counter(counter)
    if a.size == 0 or b.size == 0:
        counter.charge("bmiss")
        return np.empty(0, dtype=np.uint32)
    high_a = (a >> np.uint32(16)).astype(np.uint32)
    high_b = (b >> np.uint32(16)).astype(np.uint32)
    prefixes_a, starts_a = np.unique(high_a, return_index=True)
    prefixes_b, starts_b = np.unique(high_b, return_index=True)
    bounds_a = np.append(starts_a, a.size)
    bounds_b = np.append(starts_b, b.size)
    common, ia, ib = np.intersect1d(
        prefixes_a, prefixes_b, assume_unique=True, return_indices=True)
    pieces = []
    confirmations = 0
    for pa, pb in zip(ia, ib):
        group_a = a[bounds_a[pa]:bounds_a[pa + 1]]
        group_b = b[bounds_b[pb]:bounds_b[pb + 1]]
        hit = np.intersect1d(group_a, group_b, assume_unique=True)
        confirmations += min(group_a.size, group_b.size)
        if hit.size:
            pieces.append(hit)
    out = (np.concatenate(pieces) if pieces
           else np.empty(0, dtype=np.uint32))
    counter.charge(
        "bmiss",
        simd=-(-a.size // SIMD_UINT32_LANES) + -(-b.size // SIMD_UINT32_LANES),
        scalar=int(confirmations),
        elements=int(a.size + b.size),
        nbytes=int(a.nbytes + b.nbytes))
    return out


def uint_scalar_merge(a, b, counter=None):
    """Pure-Python two-pointer merge: the "-S" (no SIMD) ablation kernel."""
    counter = get_counter(counter)
    out = []
    i = j = 0
    la, lb = a.tolist(), b.tolist()
    na, nb = len(la), len(lb)
    while i < na and j < nb:
        x, y = la[i], lb[j]
        if x == y:
            out.append(x)
            i += 1
            j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    counter.charge(
        "scalar_merge",
        scalar=int(a.size + b.size),
        elements=int(a.size + b.size),
        nbytes=int(a.nbytes + b.nbytes))
    return np.asarray(out, dtype=np.uint32)


def uint_scalar_galloping(a, b, counter=None):
    """Pure-Python galloping (per-element binary search): the scalar
    kernel that preserves the min property — what Leapfrog-Triejoin-style
    engines (LogicBlox) use, and what the "-S" ablation falls back to on
    cardinality-skewed inputs."""
    import bisect

    counter = get_counter(counter)
    small, large = (a, b) if a.size <= b.size else (b, a)
    large_list = large.tolist()
    out = []
    for value in small.tolist():
        position = bisect.bisect_left(large_list, value)
        if position < len(large_list) and large_list[position] == value:
            out.append(value)
    counter.charge(
        "scalar_galloping",
        scalar=int(small.size) * _log2_ceil(max(large.size, 2)),
        elements=int(a.size + b.size),
        nbytes=int(a.nbytes + b.nbytes))
    return np.asarray(out, dtype=np.uint32)


_UINT_KERNELS = {
    "shuffling": uint_shuffling,
    "v1": uint_v1,
    "galloping": uint_galloping,
    "simd_galloping": uint_simd_galloping,
    "bmiss": uint_bmiss,
    "scalar": uint_scalar_merge,
}


def choose_uint_algorithm(size_a, size_b, adaptive=True, crossover=None):
    """The paper's Algorithm 2: SIMDGalloping past the crossover ratio
    (32:1 unless ``crossover`` overrides it), else SIMDShuffling.  With
    ``adaptive=False`` (the "-A" half of the "-RA" ablation) always
    returns shuffling."""
    if not adaptive:
        return "shuffling"
    if crossover is None:
        crossover = _live_crossover()
    small = max(1, min(size_a, size_b))
    large = max(size_a, size_b)
    if large / small > crossover:
        return "simd_galloping"
    return "shuffling"


def intersect_uint_arrays(a, b, counter=None, algorithm=None, adaptive=True,
                          simd=True, crossover=None):
    """Intersect two sorted ``uint32`` arrays, dispatching per the config.

    Parameters
    ----------
    algorithm:
        Force a specific kernel by name; ``None`` lets the hybrid
        dispatcher choose.
    adaptive:
        When ``algorithm`` is ``None``, whether cardinality-skew
        adaptivity (Algorithm 2) is enabled.
    simd:
        ``False`` routes to the scalar merge loop regardless of
        ``algorithm`` (the "-S" ablation).
    crossover:
        Optional tuned galloping crossover ratio; ``None`` reads the
        live ``cost.GALLOPING_CROSSOVER``.
    """
    if a.size == 0 or b.size == 0:
        return np.empty(0, dtype=np.uint32)
    if not simd:
        # Scalar engines still honor the min property through galloping
        # (Leapfrog Triejoin does) when adaptivity is on.
        if adaptive and choose_uint_algorithm(
                a.size, b.size, adaptive,
                crossover=crossover) == "simd_galloping":
            return uint_scalar_galloping(a, b, counter)
        return uint_scalar_merge(a, b, counter)
    if algorithm is None:
        algorithm = choose_uint_algorithm(a.size, b.size, adaptive,
                                          crossover=crossover)
    return _UINT_KERNELS[algorithm](a, b, counter)


# ---------------------------------------------------------------------------
# bitset kernels
# ---------------------------------------------------------------------------

def intersect_bitsets(x, y, counter=None, simd=True):
    """bitset ∩ bitset: intersect offsets with a uint kernel, then AND the
    matching 256-bit blocks (one simulated AVX op per common block)."""
    counter = get_counter(counter)
    if x.cardinality == 0 or y.cardinality == 0:
        return BitSet([])
    common, ix, iy = np.intersect1d(
        x.offsets, y.offsets, assume_unique=True, return_indices=True)
    counter.charge(
        "bitset_offsets",
        simd=-(-x.offsets.size // SIMD_UINT32_LANES)
             + -(-y.offsets.size // SIMD_UINT32_LANES),
        elements=int(x.offsets.size + y.offsets.size),
        nbytes=int(x.offsets.nbytes + y.offsets.nbytes))
    if common.size == 0:
        return BitSet([])
    if simd:
        words = x.words[ix] & y.words[iy]
    else:
        # Scalar ablation: AND word by word through Python ints.
        words = np.zeros((common.size, WORDS_PER_BLOCK), dtype=np.uint64)
        for row in range(common.size):
            for w in range(WORDS_PER_BLOCK):
                words[row, w] = np.uint64(
                    int(x.words[ix[row], w]) & int(y.words[iy[row], w]))
    # Per common block: two 256-bit register loads plus one AND.  The
    # load charges are what make sparse bitsets lose to uint arrays
    # (each block carries few values but still costs full-register
    # traffic) — the left side of the paper's Figure 5.
    counter.charge(
        "bitset_and",
        simd=3 * int(common.size) * (BLOCK_BITS // SIMD_REGISTER_BITS),
        elements=int(common.size) * BLOCK_BITS,
        nbytes=int(common.size) * BLOCK_BITS // 4)
    return BitSet.from_blocks(common, words)


def intersect_uint_bitset(uint_set, bit_set, counter=None, simd=True):
    """uint ∩ bitset: match uint values against block offsets, then probe
    the matching blocks bit by bit (paper Section 4.2).

    The result is returned as a uint array — "the intersection of two sets
    can be at most as dense as the sparser set".  Satisfies the min
    property with a constant determined by the block size.
    """
    counter = get_counter(counter)
    a = uint_set.values if isinstance(uint_set, UintSet) \
        else uint_set.to_array()
    if a.size == 0 or bit_set.cardinality == 0:
        return np.empty(0, dtype=np.uint32)
    blocks_of_a = (a >> np.uint32(8)).astype(np.uint32)
    idx = np.searchsorted(bit_set.offsets, blocks_of_a)
    idx_clamped = np.minimum(idx, bit_set.offsets.size - 1)
    in_present_block = bit_set.offsets[idx_clamped] == blocks_of_a
    candidates = a[in_present_block]
    if candidates.size == 0:
        counter.charge("uint_bitset",
                       simd=-(-a.size // SIMD_UINT32_LANES),
                       elements=int(a.size), nbytes=int(a.nbytes))
        return np.empty(0, dtype=np.uint32)
    rows = idx_clamped[in_present_block]
    in_block = candidates & np.uint32(BLOCK_BITS - 1)
    word_idx = (in_block >> np.uint32(6)).astype(np.intp)
    bit_idx = (in_block & np.uint32(63)).astype(np.uint64)
    words = bit_set.words[rows, word_idx]
    hit = ((words >> bit_idx) & np.uint64(1)).astype(bool)
    counter.charge(
        "uint_bitset",
        simd=-(-a.size // SIMD_UINT32_LANES),
        scalar=int(candidates.size),
        elements=int(a.size),
        nbytes=int(a.nbytes + candidates.size))
    return candidates[hit]


# ---------------------------------------------------------------------------
# pshort kernels
# ---------------------------------------------------------------------------

def intersect_pshorts(x, y, counter=None):
    """pshort ∩ pshort via common 16-bit prefixes and 8-lane 16-bit
    comparisons (the STTNI instruction of Appendix C.2.2)."""
    counter = get_counter(counter)
    if x.cardinality == 0 or y.cardinality == 0:
        return np.empty(0, dtype=np.uint32)
    common, ix, iy = np.intersect1d(
        x.prefixes, y.prefixes, assume_unique=True, return_indices=True)
    pieces = []
    lanes_work = 0
    for prefix, pa, pb in zip(common, ix, iy):
        ga, gb = x.groups[pa], y.groups[pb]
        lanes_work += ga.size + gb.size
        hit = np.intersect1d(ga, gb, assume_unique=True)
        if hit.size:
            pieces.append((np.uint32(prefix) << np.uint32(16))
                          | hit.astype(np.uint32))
    counter.charge(
        "pshort",
        simd=-(-lanes_work // SIMD_UINT16_LANES)
             + -(-(x.prefixes.size + y.prefixes.size) // SIMD_UINT16_LANES),
        elements=int(x.cardinality + y.cardinality),
        nbytes=int(x.nbytes + y.nbytes))
    if not pieces:
        return np.empty(0, dtype=np.uint32)
    return np.concatenate(pieces)


# ---------------------------------------------------------------------------
# blocked (composite) kernels
# ---------------------------------------------------------------------------

def intersect_blocked(x, y, counter=None, simd=True):
    """block-composite ∩ block-composite: intersect block id lists, then
    dispatch per common block on the (uint|bitset) pair stored there."""
    counter = get_counter(counter)
    if x.cardinality == 0 or y.cardinality == 0:
        return np.empty(0, dtype=np.uint32)
    common, ix, iy = np.intersect1d(
        x.block_ids, y.block_ids, assume_unique=True, return_indices=True)
    counter.charge(
        "block_offsets",
        simd=-(-x.block_ids.size // SIMD_UINT32_LANES)
             + -(-y.block_ids.size // SIMD_UINT32_LANES),
        elements=int(x.block_ids.size + y.block_ids.size),
        nbytes=int(x.block_ids.nbytes + y.block_ids.nbytes))
    pieces = []
    for pa, pb in zip(ix, iy):
        block_a, block_b = x.blocks[pa], y.blocks[pb]
        hit = _intersect_pair_arrays(block_a, block_b, counter, simd)
        if hit.size:
            pieces.append(hit)
    if not pieces:
        return np.empty(0, dtype=np.uint32)
    return np.concatenate(pieces)


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

def _decode_charge(layout, counter):
    """Charge the sequential/unpack decode cost for compressed layouts."""
    counter = get_counter(counter)
    if isinstance(layout, VariantSet):
        counter.charge("variant_decode", scalar=2 * layout.cardinality,
                       elements=layout.cardinality, nbytes=layout.nbytes)
    elif isinstance(layout, BitPackedSet):
        counter.charge("bitpacked_decode",
                       simd=-(-layout.cardinality // SIMD_UINT32_LANES),
                       elements=layout.cardinality, nbytes=layout.nbytes)


def _intersect_pair_arrays(x, y, counter, simd, algorithm=None,
                           adaptive=True, crossover=None):
    """Intersect two layout objects, returning a sorted uint32 *array*."""
    kx, ky = x.kind, y.kind
    # Compressed layouts decode to uint first (paper Appendix C.2.2).
    if kx in ("variant", "bitpacked"):
        _decode_charge(x, counter)
        x = UintSet.from_sorted(x.to_array())
        kx = "uint"
    if ky in ("variant", "bitpacked"):
        _decode_charge(y, counter)
        y = UintSet.from_sorted(y.to_array())
        ky = "uint"

    if kx == "uint" and ky == "uint":
        return intersect_uint_arrays(x.values, y.values, counter,
                                     algorithm=algorithm, adaptive=adaptive,
                                     simd=simd, crossover=crossover)
    if kx == "bitset" and ky == "bitset":
        return intersect_bitsets(x, y, counter, simd=simd).to_array()
    if kx == "uint" and ky == "bitset":
        return intersect_uint_bitset(x, y, counter, simd=simd)
    if kx == "bitset" and ky == "uint":
        return intersect_uint_bitset(y, x, counter, simd=simd)
    if kx == "pshort" and ky == "pshort":
        return intersect_pshorts(x, y, counter)
    if kx == "block" and ky == "block":
        return intersect_blocked(x, y, counter, simd=simd)
    # Remaining mixed combinations (pshort/block against others) go
    # through the uint path on the sparser representation.
    ax = x.to_array() if kx != "uint" else x.values
    ay = y.to_array() if ky != "uint" else y.values
    return intersect_uint_arrays(ax, ay, counter, algorithm=algorithm,
                                 adaptive=adaptive, simd=simd,
                                 crossover=crossover)


def intersect(x, y, counter=None, algorithm=None, adaptive=True, simd=True,
              crossover=None):
    """Intersect two :class:`~repro.sets.base.SetLayout` objects.

    Returns a :class:`BitSet` when both inputs are bitsets (the result is
    at most as dense as either input but block-AND output is naturally a
    bitset) and a :class:`UintSet` otherwise, matching the paper's
    result-layout policy.

    Parameters
    ----------
    algorithm:
        Optional uint-kernel override (one of :data:`UINT_ALGORITHMS`).
    adaptive:
        Enable Algorithm 2's cardinality-skew switch (disabled by the
        "-RA" ablation).
    simd:
        Use vectorized kernels; ``False`` is the "-S" ablation.
    crossover:
        Optional tuned galloping crossover ratio; ``None`` reads the
        live ``cost.GALLOPING_CROSSOVER``.
    """
    if not isinstance(x, SetLayout) or not isinstance(y, SetLayout):
        raise TypeError("intersect expects SetLayout operands")
    if x.kind == "bitset" and y.kind == "bitset" and simd:
        return intersect_bitsets(x, y, counter, simd=simd)
    out = _intersect_pair_arrays(x, y, counter, simd, algorithm=algorithm,
                                 adaptive=adaptive, crossover=crossover)
    return UintSet.from_sorted(out)


def intersect_many(sets, counter=None, algorithm=None, adaptive=True,
                   simd=True, crossover=None):
    """Fold :func:`intersect` over ``sets``, smallest-first.

    Ordering by ascending cardinality keeps every intermediate result no
    larger than the smallest input, which is how the generic join keeps
    its per-level work within the AGM budget.
    """
    sets = list(sets)
    if not sets:
        raise ValueError("intersect_many requires at least one set")
    if len(sets) == 1:
        return sets[0]
    if any(s.cardinality == 0 for s in sets):
        # Short-circuit before the sort: any empty input forces an empty
        # result, and the shared singleton avoids an allocation.
        return _EMPTY_UINT
    sets.sort(key=lambda s: s.cardinality)
    acc = sets[0]
    for other in sets[1:]:
        acc = intersect(acc, other, counter, algorithm=algorithm,
                        adaptive=adaptive, simd=simd, crossover=crossover)
        if acc.cardinality == 0:
            return _EMPTY_UINT
    return acc
