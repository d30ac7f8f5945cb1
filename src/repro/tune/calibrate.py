"""Machine (and optional dataset) calibration microbenchmarks.

Each fitter times the *actual numpy kernels* the engine dispatches
between and locates the input regime where the winner flips, producing
one field of the :class:`~repro.tune.profile.TuningProfile`:

* ``galloping_crossover`` — the cardinality ratio where the
  galloping-family (``searchsorted``) kernel starts beating the
  shuffling-family (``intersect1d``) kernel.  The paper's hardware put
  this at 32:1; numpy's ``intersect1d`` pays a concatenate+sort over
  both inputs, so on this substrate the real crossover is far lower —
  which is exactly the kind of machine-dependent constant calibration
  exists to correct.
* ``density_threshold`` — the inverse-density (range/cardinality) below
  which bitset blocks beat sorted-uint arrays.
* ``fused_block_rows`` — candidate rows per kernel block: the smallest
  block whose per-row cost is within 10% of the best measured (past
  the cache-resident size bigger blocks only cost memory).
* ``fused_probe_crossover`` — skew ratio where the fused kernel's
  tile+probe sweep beats CSR ``np.repeat`` expansion.

Determinism: all inputs come from ``np.random.default_rng(seed)`` and
the clock is injectable (``timer=``), so tests can drive the fit with a
fake monotone counter and assert two runs produce identical profiles.
All fits clamp into the sanity bounds of :mod:`repro.tune.profile`.
"""

import time

import numpy as np

from ..sets.intersect import uint_shuffling, uint_simd_galloping
from .profile import TuningProfile, machine_fingerprint

#: Repetitions per timed point; the minimum is kept (standard
#: microbenchmark noise floor).
_REPS = 5
_QUICK_REPS = 3

#: Block sizes the kernel-block fit compares, and how close to the best
#: per-row cost a smaller block must come to be preferred.
_FUSED_BLOCK_SIZES = (1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20)
_FUSED_BLOCK_TOLERANCE = 1.1


def _sorted_unique(rng, size, span):
    """A sorted unique uint32 sample of ``size`` values in [0, span)."""
    size = int(size)
    span = max(int(span), size)
    values = rng.choice(span, size=size, replace=False)
    return np.sort(values).astype(np.uint32)


def _best_of(timer, reps, fn, *args):
    """Minimum wall time of ``reps`` calls to ``fn``."""
    best = None
    for _ in range(reps):
        start = timer()
        fn(*args)
        elapsed = timer() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


def _flip_point(grid, win_small):
    """Geometric midpoint of the first sustained win flip along ``grid``.

    ``win_small[i]`` says the "small-regime" kernel won at ``grid[i]``.
    Returns the midpoint between the last winning and first losing grid
    point, or ``None`` when one kernel wins everywhere (caller keeps
    the default)."""
    for i in range(1, len(grid)):
        if not win_small[i] and all(not w for w in win_small[i:]):
            return float(np.sqrt(grid[i - 1] * grid[i]))
    return None


def _fit_galloping_crossover(rng, timer, reps):
    """Time shuffling vs galloping across a skew-ratio grid."""
    small_size = 256
    ratios = (1, 2, 4, 8, 16, 32, 64, 128)
    shuffling_wins = []
    for ratio in ratios:
        large_size = small_size * ratio
        span = large_size * 8
        a = _sorted_unique(rng, small_size, span)
        b = _sorted_unique(rng, large_size, span)
        t_shuffle = _best_of(timer, reps, uint_shuffling, a, b)
        t_gallop = _best_of(timer, reps, uint_simd_galloping, a, b)
        shuffling_wins.append(t_shuffle <= t_gallop)
    return _flip_point(ratios, shuffling_wins)


def _fit_density_threshold(rng, timer, reps):
    """Time uint-array vs bitset intersection across an inverse-density
    grid (span / cardinality; smaller = denser)."""
    from ..sets.bitset import BitSet
    from ..sets.intersect import intersect_bitsets, intersect_uint_arrays

    card = 2048
    inverse_densities = (2, 8, 32, 128, 512, 2048)
    bitset_wins = []
    for inv in inverse_densities:
        span = card * inv
        a = _sorted_unique(rng, card, span)
        b = _sorted_unique(rng, card, span)
        bs_a, bs_b = BitSet(a), BitSet(b)
        t_uint = _best_of(timer, reps, intersect_uint_arrays, a, b)
        t_bits = _best_of(timer, reps, intersect_bitsets, bs_a, bs_b)
        bitset_wins.append(t_bits <= t_uint)
    return _flip_point(inverse_densities, bitset_wins)


def _fit_fused_block_rows(timer, reps):
    """Smallest kernel block size that runs at (nearly) the best
    per-row cost.

    The timed block mirrors what :class:`repro.engine.fused` actually
    does per block — CSR ``np.repeat`` expansion, a value gather, a
    packed ``uint64`` probe, and the keep-mask compression.  Small
    blocks pay numpy's per-call overhead, large ones spill the cache;
    among sizes within :data:`_FUSED_BLOCK_TOLERANCE` of the cheapest
    the smallest wins, because transient memory grows with the block."""
    fanout = 8
    values = np.arange(1 << 16, dtype=np.uint32)
    packed = np.arange(1 << 16, dtype=np.uint64) << np.uint64(32)
    per_row = {}
    for rows in _FUSED_BLOCK_SIZES:
        parents = np.arange(rows // fanout, dtype=np.int64)
        counts = np.full(parents.size, fanout, dtype=np.int64)
        src = np.arange(rows) % values.size

        def block():
            parent = np.repeat(parents, counts)
            vals = values[src]
            pk = (parent.astype(np.uint64) << np.uint64(32)) \
                | vals.astype(np.uint64)
            idx = np.searchsorted(packed, pk)
            clamped = np.minimum(idx, packed.size - 1)
            keep = packed[clamped] == pk
            parent[keep]
            vals[keep]

        elapsed = _best_of(timer, reps, block)
        if elapsed <= 0:
            return None
        per_row[rows] = elapsed / rows
    best = min(per_row.values())
    return min(rows for rows, cost in per_row.items()
               if cost <= _FUSED_BLOCK_TOLERANCE * best)


def _fit_fused_probe_crossover(rng, timer, reps):
    """Skew ratio where tiling root keys + batched probes beats CSR
    repeat-expansion inside the fused kernel.

    Models the kernel's two strategies on a skewed frontier: a frontier
    of ``frontier`` prefixes whose generator expands ``fanout`` children
    each (repeat path, ``frontier * fanout`` rows) vs tiling a root set
    of ``width`` keys (sweep path, ``frontier * width`` rows of pure
    searchsorted probes)."""
    frontier = 512
    width = 64
    values = np.sort(rng.choice(1 << 20, size=1 << 14, replace=False)
                     .astype(np.uint32))
    root = np.sort(rng.choice(values, size=width, replace=False))
    ratios = (1, 2, 4, 8, 16, 32, 64)
    repeat_wins = []
    parents = np.arange(frontier)
    for ratio in ratios:
        fanout = width * ratio
        counts = np.full(frontier, fanout, dtype=np.int64)
        src = np.arange(frontier * fanout) % values.size

        def repeat_path():
            # CSR expansion: repeat parents over counts, gather child
            # values, then probe-filter them against another input.
            np.repeat(parents, counts)
            vals = values[src]
            idx = np.searchsorted(values, vals)
            clamped = np.minimum(idx, values.size - 1)
            values[clamped] == vals

        def sweep_path():
            # Skew sweep: tile the small root set across the frontier
            # and probe; work is frontier*width regardless of fanout.
            np.repeat(parents, width)
            vals = np.tile(root, frontier)
            idx = np.searchsorted(values, vals)
            clamped = np.minimum(idx, values.size - 1)
            values[clamped] == vals

        t_repeat = _best_of(timer, reps, repeat_path)
        t_sweep = _best_of(timer, reps, sweep_path)
        repeat_wins.append(t_repeat <= t_sweep)
    return _flip_point(ratios, repeat_wins)


def _fit_dataset_crossover(sets, timer, reps):
    """Re-fit the galloping crossover on real adjacency sets sampled
    from a loaded dataset: pair the smallest sets against the largest
    and find the observed flip."""
    arrays = sorted((s for s in sets if s.size >= 4), key=lambda s: s.size)
    if len(arrays) < 2:
        return None
    small = arrays[0]
    ratios, shuffling_wins = [], []
    for large in arrays[1:]:
        ratio = large.size / small.size
        if ratio < 1.5:
            continue
        t_shuffle = _best_of(timer, reps, uint_shuffling, small, large)
        t_gallop = _best_of(timer, reps, uint_simd_galloping, small, large)
        ratios.append(ratio)
        shuffling_wins.append(t_shuffle <= t_gallop)
    if len(ratios) < 2:
        return None
    order = np.argsort(ratios)
    ratios = [ratios[i] for i in order]
    shuffling_wins = [shuffling_wins[i] for i in order]
    return _flip_point(ratios, shuffling_wins)


def calibrate(seed=0, timer=None, quick=False, dataset_sets=None):
    """Run the calibration suite and return a :class:`TuningProfile`.

    Parameters
    ----------
    seed:
        Seeds the synthetic inputs; same seed + same timer ⇒ identical
        profile (the determinism test drives ``timer`` with a fake
        counter).
    timer:
        Clock returning monotonically increasing seconds; defaults to
        :func:`time.perf_counter`.
    quick:
        Fewer repetitions per point (CI smoke).
    dataset_sets:
        Optional iterable of sorted ``uint32`` adjacency arrays sampled
        from a loaded dataset; when given, the galloping crossover is
        re-fit on real skew and overrides the synthetic fit.
    """
    rng = np.random.default_rng(seed)
    if timer is None:
        timer = time.perf_counter
    reps = _QUICK_REPS if quick else _REPS

    defaults = TuningProfile()
    crossover = _fit_galloping_crossover(rng, timer, reps)
    density = _fit_density_threshold(rng, timer, reps)
    block_rows = _fit_fused_block_rows(timer, reps)
    probe_crossover = _fit_fused_probe_crossover(rng, timer, reps)
    source = "calibrated"
    if dataset_sets is not None:
        observed = _fit_dataset_crossover(list(dataset_sets), timer, reps)
        if observed is not None:
            crossover = observed
            source = "calibrated+dataset"

    raw = TuningProfile(
        galloping_crossover=(defaults.galloping_crossover
                             if crossover is None else crossover),
        density_threshold=(defaults.density_threshold
                           if density is None else density),
        fused_block_rows=(defaults.fused_block_rows
                          if block_rows is None else block_rows),
        fused_probe_crossover=probe_crossover,
        source=source,
        fingerprint=machine_fingerprint(),
    )
    # Round-trip through from_dict to apply the sanity clamps uniformly.
    profile = TuningProfile.from_dict(raw.to_dict())
    return raw if profile is None else profile
