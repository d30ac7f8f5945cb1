"""Fused block execution: the generic join as numpy block ops.

This is the engine's default executor for the bag shapes graph queries
compile to (every input of arity 1 or 2).  Instead of one Python-level
loop iteration per binding, the whole bag is evaluated as a short,
fixed sequence of vectorized *block operations* over the tries' flat
level arrays (:meth:`repro.storage.trie.Trie.flat`):

1. **Frontier expansion.**  The bag's bound prefixes live in a column
   matrix (one array per level, rows in lexicographic order).  A level
   is expanded by one CSR gather over the generating input's flat child
   arrays (``offsets``/``values``) — ``np.repeat`` + cumulative-sum
   arithmetic, no per-row Python.  Each frontier row expands from its
   smallest child list, the paper's min property (Algorithm 2
   intersects from the smaller set): among child-level inputs over one
   flat view — all of a pattern query's, every atom being ``Edge`` —
   row ``r`` takes the smallest fan-out, sharing the view's
   ``values``; across views the smallest total generates.
   *Abutting runs need no expansion*: when the frontier's CSR ranges
   abut (``first[r] + counts[r] == first[r + 1]``, one O(frontier)
   check per level; true whenever a level expands a relation's whole
   root in order, as every analytics round and every pattern's second
   level does), the trie's flat level *is* the candidate array — a
   block's candidates are the view ``values[f0 + a:f0 + b]``, the
   generator's own ranks are that ``arange`` (made only if read) and
   the row boundaries are the counts already in hand.
2. **Batched membership probes.**  Every other participant filters the
   expanded candidates in one sweep.  Root levels probe by layout, as
   the paper's uint∩bitset kernel does (§4.2), and the denser the set
   the less there is to do.  A *full-range* root — its keys are every
   code of ``[k0, k1]``, what dictionary encoding gives any total
   relation — has ``rank = v - k0`` with no table, and when the
   generator's value range (cached on its flat view) lies inside
   ``[k0, k1]`` every candidate is a member: no probe, no mask, and an
   annotated unary input contributes ``ann[vals - k0]`` directly.  A
   dense root *with holes*, which the layout optimizer stores as a
   bitset, answers through its ``rank_of`` table — one gather — and a
   sparse one through a ``searchsorted`` of its sorted keys.  Child
   levels probe by layout too: a dense pair level (the same density
   rule) answers an unannotated input from its flat view's bit table
   — a byte gather, a shift and an AND per candidate — and a sparse
   one, or an annotated input, which needs the leaf row, by a
   ``searchsorted`` of the packed ``(parent << 32) | child`` pairs.  A
   million bindings cost a handful of numpy calls either way, and a
   block whose probes all hit compacts nothing (*no filter without a
   miss*).  When even the cheapest CSR expansion dwarfs tiling the
   level's root-key candidates across the frontier (by
   :data:`PROBE_CROSSOVER`), the level is generated from those root
   keys instead and every child-level input is probed (the *sweep*).
3. **Block aggregate folds.**  The aggregated suffix never materializes
   past the frontier: leaf contributions are folded per output prefix
   with ``reduceat`` segment reductions, and unannotated SUM/COUNT keeps
   an exact ``int`` accumulator (a bare element count).  When the
   output attributes are *not* a prefix of the order — a seminaive
   round binds its delta first, so ``SSSP(x) :- Edge(w,x),SSSP(w)``
   runs as ``[w, x]`` — the bindings of one output tuple are scattered
   over the stream, and the last level folds them with an unordered
   group-by instead: a ``ufunc.at`` scatter into an accumulator indexed
   by the output columns' code, or a sort when that code space dwarfs
   the work (:data:`DENSE_GROUPS`).  Only the idempotent folds (MIN,
   MAX, EXISTS) group this way: their result does not depend on the
   order bindings arrive in.

**Bounded blocks.**  Every level generates its candidates in slices of
at most :data:`BLOCK_ROWS` rows (cut on the cumulative fan-out, so a
single hub row is split too).  Surviving rows of non-leaf slices are
concatenated into the next frontier; leaf slices fold into per-row
accumulators.  Transient memory per level is therefore a constant
number of block-sized arrays no matter how skewed the fan-out is, and
no input size makes the kernel give up — the only bags that run on the
interpreter instead are the shapes :func:`fusable` rejects.  Blocks are
*lazy*: a block is its row range and clipped row counts, and the
per-candidate frontier row (``np.repeat``) and the re-found segment
boundaries exist only for a reader — a child-level probe, a filter
that dropped rows, a non-leaf level, the unordered group-by.  Ranks
are gathered through a filter only for inputs that bind further
variables or carry annotations.  A PageRank round is thus two gathers,
a multiply and a ``reduceat`` per block.

None of this changes what is computed: block boundaries, product order
and ``reduceat`` segments are where the general path puts them, so the
routes agree bit for bit (floats included) and charge the same lane
ops.

Annotation products multiply in the same input order as the
interpreter, so results agree bit-for-bit except for float *summation*
order inside a fold, where grouping (and block boundaries) differ —
the differential fuzzer's dyadic-rational value hygiene makes even
those sums exact in practice.
"""

import math

import numpy as np

from ..errors import PlanError
from ..tune.profile import DEFAULT_FUSED_BLOCK_ROWS
from .generic_join import BagResult, empty_bag_result

#: Semirings the block folds implement.
FUSED_SEMIRINGS = ("SUM", "COUNT", "MIN", "MAX", "EXISTS")

#: Candidate rows per block.  Cache-sized on purpose: a block touches
#: about ten arrays of this length (parent ids, gathered values, packed
#: keys, probe ranks, masks), and at 16K rows — roughly a megabyte in
#: all — they stay cache-resident between the numpy calls that produce
#: and consume them.  On the ``patterns`` queries (best of 15, both
#: benchmark seeds), 8K rows are 5-13% slower, 4K +24-28% (numpy's
#: per-call overhead), and 32K-256K 1-6% faster — their child levels,
#: per-row minimal, now fit one block — at a transient memory that
#: grows in proportion.  (Defined in ``repro.tune.profile``, which
#: sits below the engine.)
BLOCK_ROWS = DEFAULT_FUSED_BLOCK_ROWS

# One untouched 16 MiB allocation, freed at once.  A 16K-row block's
# temporaries are 128 KiB each, which is glibc malloc's initial mmap
# threshold: until the process happens to free a larger mmapped chunk
# (the threshold then moves up to that chunk's size, at most 32 MiB),
# every temporary is its own mmap/munmap and faults its pages in anew
# — 3 800 minor faults per ``patterns`` block against 1 after this
# line.  Which earlier free a process happened to make used to decide
# that (an LP library's import, a trie's node tree); this makes it the
# same for every process.  Never touched, so never resident; a no-op
# for allocators without a dynamic threshold.
np.empty(16 << 20, dtype=np.uint8)

#: CSR-expansion : root-key-sweep candidate ratio past which a level
#: takes the sweep.  On the ``patterns`` graph's closing level
#: (``Edge(w,x),Edge(x,y),T(y)``, 185K CSR candidates, both benchmark
#: seeds) the routes tie near 1.2x, and the sweep, whose child probes
#: are bit gathers, is 1.5x faster at 2x and 3.8x at 8.5x;
#: ``repro.tune`` refines the constant per machine, and the built-in
#: value means an untuned engine never expands a hub frontier that a
#: few root keys would have answered.
PROBE_CROSSOVER = 2.0

#: Code-space size up to which an unordered group-by scatters into a
#: dense accumulator whatever the block holds (nine bytes per code: a
#: ``float64`` fold and a hit flag); beyond it the accumulator may be
#: no larger than the candidates it folds, else the rows are sorted.
#: Scatter wins whenever it applies — ``minimum.at`` over 150k rows is
#: 0.4 ms where an ``argsort`` of them is 15 ms — so the limit only
#: keeps a ten-row frontier from allocating a code space of millions.
DENSE_GROUPS = 1 << 16

_EMPTY_SCALAR_DATA = np.empty((0, 0), dtype=np.uint32)

#: The ufunc behind each fold (EXISTS needs none: a witness suffices).
_FOLD_UFUNC = {"SUM": np.add, "COUNT": np.add, "MIN": np.minimum,
               "MAX": np.maximum}

#: Folds whose result is independent of the order (and multiplicity) in
#: which bindings arrive — the ones an unordered group-by may serve.
IDEMPOTENT_FOLDS = ("MIN", "MAX", "EXISTS")


def fusable(eval_order, out_count, specs, semiring):
    """True when the bag shape is coverable by the block evaluator:
    every input unary or binary, a supported semiring fold."""
    if not eval_order or semiring.name not in FUSED_SEMIRINGS:
        return False
    return all(1 <= len(spec.variables) <= 2 for spec in specs)


class _Part:
    """One input's participation at one level (resolved at plan time)."""

    __slots__ = ("index", "pos", "is_last", "annotated", "var0_level")

    def __init__(self, index, pos, is_last, annotated, var0_level):
        self.index = index
        self.pos = pos                  # position within the input's order
        self.is_last = is_last          # binds the input's final variable
        self.annotated = annotated
        self.var0_level = var0_level    # bag level of the input's first var


def _probe(flat, vals, heads=None, bits=False):
    """Batched membership probe of ``vals`` in one level of ``flat``:
    its root keys, or — given ``heads``, each candidate's parent as
    :func:`_child_probes` encoded it — its stored pairs.

    Returns ``(rank, member)``: where ``member`` holds, ``rank`` is the
    value's index in the level — the trie-node rank for root keys, the
    leaf row (hence the annotation index) for pairs.  Elsewhere
    ``rank`` is meaningless, possibly out of range (callers filter by
    ``member`` first).  A pair probe through the bit table (``bits``)
    answers membership only: its rank is ``None``.
    """
    if heads is not None:
        if bits:
            return None, flat.pair_member(heads, vals)
        keys, vals = flat.packed, heads | vals
    elif flat.full:
        # Every code of the key range is a key: the rank is the offset
        # into the range (values below it wrap around, past its end).
        rank = _full_rank(vals, int(flat.keys[0]))
        return rank, rank < flat.keys.size
    elif flat.rank_of is not None:
        # Dense root with holes: out-of-range values (below wrap
        # around) clamp to the table's trailing -1 slot.
        table = flat.rank_of
        rank = table.take(np.minimum(vals - flat.keys[0], table.size - 1))
        return rank, rank >= 0
    else:
        keys = flat.keys
    if keys.size == 0:
        zero = np.zeros(vals.size, dtype=np.intp)
        return zero, np.zeros(vals.size, dtype=bool)
    rank = np.searchsorted(keys, vals)
    rank = np.minimum(rank, keys.size - 1)
    return rank, keys[rank] == vals


def _full_rank(vals, k0):
    """Ranks of ``vals`` in a root whose keys are all of ``[k0, k1]``:
    dense is the identity."""
    return vals - vals.dtype.type(k0) if k0 else vals


def _blocks(counts, cum, size):
    """Cut a level's candidate space into blocks of at most ``size``.

    ``counts[r]`` candidates hang off frontier row ``r`` (``cum`` is
    their running total); candidate ``j`` of the level is the ``j``-th
    in row order.  Yields ``(lo, a, b, clipped)`` per block: candidates
    ``a .. b - 1`` of the level, which hang off the frontier rows from
    ``lo`` on, ``clipped[i]`` of them off row ``lo + i`` — cutting
    inside a row when one row alone exceeds the block (the first and
    last rows of a block are never empty).  An empty level yields one
    empty block.
    """
    total = int(cum[-1])
    if total <= size:
        yield 0, 0, total, counts
        return
    starts = cum - counts
    for a in range(0, total, size):
        b = min(a + size, total)
        lo = int(np.searchsorted(cum, a, side="right"))
        hi = int(np.searchsorted(cum, b, side="left")) + 1
        clipped = counts[lo:hi].copy()
        clipped[0] -= a - starts[lo]
        clipped[-1] -= cum[hi - 1] - b
        yield lo, a, b, clipped


class _Block:
    """One block's surviving candidates.

    What every consumer needs is here — their number, the bound values,
    the ranks and annotation factors they carry forward — and what only
    some need is derived from the block's row counts when asked for:
    the frontier row of every survivor (:attr:`parent`), the runs of
    survivors per row (:meth:`segments`).
    """

    __slots__ = ("lo", "counts", "keep", "size", "vals", "new_ranks",
                 "factors", "_parent")

    def __init__(self, lo, counts, keep, parent, vals, new_ranks, factors):
        self.lo = lo
        self.counts = counts            # candidates per frontier row
        self.keep = keep                # survivor mask, None: all
        self._parent = parent           # of the survivors, if built
        self.size = int(vals.size)
        self.vals = vals
        self.new_ranks = new_ranks
        self.factors = factors

    @property
    def parent(self):
        """Frontier row of every surviving candidate (sorted)."""
        if self._parent is None:
            parent = _parents(self.lo, self.counts)
            self._parent = parent if self.keep is None \
                else parent[self.keep]
        return self._parent

    def segments(self):
        """``(rows, starts)``: the frontier rows with a survivor and
        where each one's run starts among the survivors.  ``rows`` is a
        slice when that is every row of the block."""
        if self.keep is not None:
            # The filter moved the boundaries: find them again.
            seg = self.parent
            starts = np.flatnonzero(seg[1:] != seg[:-1]) + 1
            starts = np.concatenate(([0], starts))
            return seg[starts], starts
        counts = self.counts
        starts = np.cumsum(counts) - counts
        if counts.all():
            return slice(self.lo, self.lo + counts.size), starts
        rows = np.flatnonzero(counts)
        return rows + self.lo, starts[rows]


def _parents(lo, counts):
    """Frontier row of each candidate of a block (see :func:`_blocks`)."""
    return np.repeat(np.arange(lo, lo + counts.size), counts)


def _kept(rank, keep):
    """Ranks of the surviving candidates: ``rank`` — an array, or the
    slice a run of consecutive ranks is — through the mask ``keep``."""
    if keep is None:
        return rank
    if isinstance(rank, slice):
        return np.flatnonzero(keep) + rank.start
    return rank[keep]


def _row_starts(columns):
    """Start index of every run of equal rows, the rows given as one
    non-empty sorted array per column."""
    new_group = np.zeros(columns[0].size, dtype=bool)
    new_group[0] = True
    for column in columns:
        new_group[1:] |= column[1:] != column[:-1]
    return np.flatnonzero(new_group)


class FusedBagKernel:
    """One bag lowered to a sequence of numpy block operations.

    Built by :func:`repro.engine.codegen.generate_bag_plan` and cached
    through the plan cache's bag-source tier.  Calling convention:
    ``kernel(tries, config, restrict=None)`` with tries in spec order
    and ``restrict`` the parallel executor's morsel hook (an extra set
    intersected at level 0).  ``out_attrs`` names the emitted
    attributes when they are not the first ``out_count`` of
    ``eval_order``; they are emitted in evaluation order either way.
    """

    def __init__(self, eval_order, out_count, specs, semiring,
                 out_attrs=None):
        if not fusable(eval_order, out_count, specs, semiring):
            raise PlanError("bag is not fusable")
        if not 0 <= out_count <= len(eval_order):
            raise PlanError("out_count %d outside [0, %d]"
                            % (out_count, len(eval_order)))
        self.order = tuple(eval_order)
        self.out_count = out_count
        self.specs = list(specs)
        self.semiring = semiring
        self.n_levels = len(self.order)
        wanted = set(self.order[:out_count] if out_attrs is None
                     else out_attrs)
        self.out_levels = tuple(level for level, attr
                                in enumerate(self.order) if attr in wanted)
        self.out_attrs = tuple(self.order[level]
                               for level in self.out_levels)
        if len(self.out_levels) != out_count:
            raise PlanError("out_attrs %r are not %d attributes of %r"
                            % (out_attrs, out_count, self.order))
        #: Outputs are not an order prefix: the last level groups.
        self.unordered = self.out_levels != tuple(range(out_count))
        if self.unordered and semiring.name not in IDEMPOTENT_FOLDS:
            raise PlanError("%s cannot fold an unordered group-by"
                            % semiring.name)
        # An input whose variables are all emitted multiplies into the
        # output tuple's own annotation; any other into the values the
        # fold ranges over (for prefix outputs: by the level its last
        # variable binds at, as the interpreter's loop nest does).
        self.to_prefix = [wanted.issuperset(spec.variables)
                          for spec in specs]
        # Unannotated SUM/COUNT results are bare element counts, exact
        # in ``int`` (what the interpreter's cardinality path yields).
        self.int_fold = semiring.name in ("SUM", "COUNT") \
            and not any(spec.annotated for spec in specs)
        var_level = {attr: level for level, attr in enumerate(self.order)}
        self.levels = []
        for level, attr in enumerate(self.order):
            parts = []
            for index, spec in enumerate(specs):
                if attr in spec.variables:
                    pos = spec.variables.index(attr)
                    parts.append(_Part(
                        index, pos, pos == len(spec.variables) - 1,
                        spec.annotated, var_level[spec.variables[0]]))
            if not parts:
                raise PlanError("attribute %r not covered" % (attr,))
            self.levels.append(parts)

    # -- driver ---------------------------------------------------------------

    def __call__(self, tries, config, restrict=None):
        """Evaluate the bag over root tries (in spec order)."""
        flats = [trie.flat() for trie in tries]
        if any(flat.keys.size == 0 for flat in flats):
            return self._empty()
        # the tuned constants are None without an active profile
        block_rows = max(1, config.fused_block_rows() or BLOCK_ROWS)
        crossover = config.fused_probe_crossover() or PROBE_CROSSOVER
        oc, nl = self.out_count, self.n_levels
        exists = self.semiring.name == "EXISTS"
        cols = []           # bound value column per level, len F each
        pw = None           # output-prefix annotation chain (float64[F])
        sw = None           # aggregated-suffix annotation chain
        ranks = {}          # spec index -> rank of its bound first var
        frontier = 1
        for level in range(nl):
            counts, first, values, settled, probed, sweep = \
                self._plan_level(self.levels[level], flats, ranks, cols,
                                 frontier, crossover,
                                 restrict if level == 0 else None)
            cum = np.cumsum(counts)
            total = int(cum[-1])
            config.counter.charge(
                "fused_sweep" if sweep else "fused_block",
                simd=-(-total // 4), elements=total)
            # Candidate j of the level is values[base[row of j] + j].
            # Where the rows' runs abut — a relation's whole root
            # expanded in order — that is one number, and a block's
            # candidates are a slice of ``values``.
            base = first - (cum - counts)
            if (base == base[0]).all():
                base = int(base[0])
            blocks = (self._expand_block(lo, a, b, clipped, base, values,
                                         settled, probed, flats)
                      for lo, a, b, clipped in _blocks(counts, cum,
                                                       block_rows))
            if level == nl - 1 and oc < nl:
                if self.unordered:
                    return self._fold_groups(blocks, cols, pw, sw, flats,
                                             total)
                return self._fold_leaf(blocks, cols, pw, sw, frontier)
            parent, vals, new_ranks, factors = _concatenate(list(blocks))
            if parent.size == 0:
                return self._empty()
            cols = [column[parent] for column in cols]
            cols.append(vals)
            if pw is not None:
                pw = pw[parent]
            if sw is not None:
                sw = sw[parent]
            ranks = {index: rank[parent]
                     for index, rank in ranks.items()}
            ranks.update(new_ranks)
            for index, factor in sorted(factors.items()):
                if self.to_prefix[index]:
                    pw = factor if pw is None else pw * factor
                elif not exists:
                    # EXISTS ignores suffix annotations (the fold is a
                    # bare witness test), matching the interpreter.
                    sw = factor if sw is None else sw * factor
            frontier = parent.size
        # Pure materializing bag: the frontier is the result.
        metrics = getattr(config, "metrics", None)
        if metrics is not None:
            metrics.observe("fused.block_rows", frontier)
        # (copied: a lone factor may be a view of its trie's annotations)
        annotations = np.array(pw) if pw is not None \
            else np.ones(frontier, dtype=np.float64)
        return BagResult(self.out_attrs, np.stack(cols, axis=1),
                         annotations=annotations, canonical=True)

    # -- expansion ------------------------------------------------------------

    def _plan_level(self, parts, flats, ranks, cols, frontier, crossover,
                    restrict):
        """Decide how one level generates its candidates.

        Returns ``(counts, first, values, settled, probed, sweep)``:
        frontier row ``r`` owns the ``counts[r]`` candidates
        ``values[first[r]:first[r] + counts[r]]``.  A CSR level expands
        each row from its smallest child list (Algorithm 2's min rule,
        per row): when rows disagree on which input that is — possible
        only among inputs over one flat view, whose ``values`` they
        share — no input generates every row, and each child-level
        input is probed instead.  ``settled`` lists ``(part, rank_of)``
        for participants every candidate is known to be a member of:
        the generating ones — the candidate read from ``values[p]`` has
        rank ``rank_of[p]`` in that part (``None``: ``p`` itself) — and
        every full-range root that covers the generator's values
        (``rank_of`` is the root's first key ``k0``, an ``int``: the
        candidate ``v`` has rank ``v - k0``).  ``probed`` are the
        parts that still filter candidates, as :func:`_child_probes`
        prepares them; ``sweep`` says the skew sweep was taken.
        """
        child_parts = [part for part in parts if part.pos == 1]
        generating, probed = parts, []
        if child_parts:
            # CSR expansion from the smallest fan-out (the min
            # property): per frontier row among inputs that read one
            # flat view, then the view whose total is smallest.
            groups = {}         # by the flat view they read
            for part in child_parts:
                groups.setdefault(id(flats[part.index]), []).append(part)
            view, gen, counts, first = min(
                (_min_fanout(group, flats, ranks)
                 for group in groups.values()),
                key=lambda plan: plan[2].sum())
            total = int(counts.sum())
            root_parts = [part for part in parts if part.pos == 0]
            if not root_parts or total <= crossover * frontier * min(
                    flats[part.index].keys.size for part in root_parts):
                # Rows that generate from different inputs probe every
                # child-level one, their own included (it always hits).
                settled, probed = _settle(
                    [part for part in parts if part is not gen], flats,
                    view)
                if gen is not None:
                    settled.insert(0, (gen, None))
                return (counts, first, view.values, settled,
                        _child_probes(probed, flats, cols), False)
            # Skew sweep: expanding even the cheapest generator dwarfs
            # tiling the level's root-key candidates, so generate from
            # those and probe every child-level input instead.  Same
            # memberships, same sorted order per parent: bit-identical.
            generating, probed = root_parts, child_parts
        # Row-independent root keys: one intersection, tiled across the
        # frontier (a Cartesian expansion).
        if restrict is not None:
            candidates = restrict.to_array()
        else:
            candidates = min((flats[part.index].keys
                              for part in generating),
                             key=lambda keys: keys.size)
        keep = None
        found = []
        for part in generating:
            flat = flats[part.index]
            if flat.keys is candidates:     # its own keys, in place
                found.append((part, None))
                continue
            rank, member = _probe(flat, candidates)
            keep = member if keep is None else keep & member
            found.append((part, rank))
        if keep is not None and not keep.all():
            candidates = candidates[keep]
            found = [(part, _kept(slice(0, keep.size) if rank is None
                                  else rank, keep))
                     for part, rank in found]
        return (np.full(frontier, candidates.size, dtype=np.int64), 0,
                candidates, found, _child_probes(probed, flats, cols),
                bool(probed))

    def _expand_block(self, lo, a, b, counts, base, values, settled,
                      probed, flats):
        """Evaluate one block of a level's candidates (the block as
        :func:`_blocks` cut it; ``base`` as the driver derived it).

        Returns the :class:`_Block` of the surviving candidates: bound
        value, ranks of inputs whose first variable binds here and
        leaf-annotation factor arrays of those whose last does (both by
        input index; factors multiply in index order, as the
        interpreter's left-associated products do).  The candidates'
        frontier rows are built only if something here reads them.
        """
        parent = None
        if isinstance(base, int):       # abutting runs: a slice
            src = slice(base + a, base + b)
        else:
            parent = _parents(lo, counts)
            src = base[parent] + np.arange(a, b)
        vals = values[src]
        found = []
        for part, rank_of in settled:
            if rank_of is None:
                found.append((part, src))
            elif isinstance(rank_of, int):
                found.append((part, _full_rank(vals, rank_of)))
            else:
                found.append((part, rank_of[src]))
        keep = None
        for part, heads, bits in probed:
            if heads is None:
                rank, member = _probe(flats[part.index], vals)
            else:
                if parent is None:
                    parent = _parents(lo, counts)
                rank, member = _probe(flats[part.index], vals,
                                      heads[parent], bits)
            found.append((part, rank))
            keep = member if keep is None else keep & member
        if keep is not None and keep.all():
            keep = None
        if keep is not None:
            vals = vals[keep]
            if parent is not None:
                parent = parent[keep]
        new_ranks = {}
        factors = {}
        for part, rank in found:
            ann = flats[part.index].ann if part.annotated else None
            if part.is_last and ann is None:
                continue    # ranks nobody reads are not gathered (or made)
            rank = _kept(rank, keep)
            if part.is_last:
                # (ranks may be the uint32 values themselves, which
                # ``take`` reads 2.5x faster than ``[]`` does)
                factors[part.index] = ann[rank] if isinstance(rank, slice) \
                    else ann.take(rank)
            else:
                new_ranks[part.index] = np.arange(rank.start, rank.stop) \
                    if isinstance(rank, slice) else rank
        return _Block(lo, counts, keep, parent, vals, new_ranks, factors)

    # -- aggregated-leaf folds ------------------------------------------------

    def _fold_leaf(self, blocks, cols, pw, sw, frontier):
        """Fold the deepest level per frontier row without expanding it.

        Each block's survivors are in row order, so per-row reductions
        are ``reduceat`` segment ops over runs the block reads off its
        row counts (or, after a filter, re-finds); rows a block
        boundary splits combine through the per-row accumulator, and
        groups of rows sharing an output prefix reduce once at the end.
        """
        name = self.semiring.name
        oc = self.out_count
        if oc == 0 and self.int_fold:
            return BagResult((), _EMPTY_SCALAR_DATA,
                             scalar=sum(block.size for block in blocks))
        hit = np.zeros(frontier, dtype=bool)
        fold = _FOLD_UFUNC.get(name)
        acc = None if fold is None \
            else np.full(frontier, self.semiring.zero, dtype=np.float64)
        for block in blocks:
            if block.size == 0:
                continue
            rows, starts = block.segments()
            hit[rows] = True
            if fold is None:        # EXISTS: one witness per row
                continue
            factors = block.factors
            if sw is None and not factors:
                if fold is np.add:  # bare element counts
                    leafv = np.diff(starts, append=block.size)
                else:               # MIN/MAX of a constant chain
                    leafv = 1.0
            else:
                elem = None if sw is None else sw[block.parent]
                for _, factor in sorted(factors.items()):
                    elem = factor if elem is None else elem * factor
                leafv = fold.reduceat(elem, starts)
            acc[rows] = fold(acc[rows], leafv)
        rows = np.flatnonzero(hit)
        if rows.size == 0:
            return self._empty()
        leafv = acc[rows] if fold is not None \
            else np.ones(rows.size, dtype=np.float64)
        if oc == 0:
            scalar = 1.0 if fold is None \
                else float(fold.reduce(leafv))
            return BagResult((), _EMPTY_SCALAR_DATA, scalar=scalar)
        # Group surviving rows by their output prefix (lexicographically
        # contiguous by construction) and reduce per group.
        prefix = [cols[level][rows] for level in range(oc)]
        gstarts = _row_starts(prefix)
        if fold is None:            # EXISTS: one witness per group
            gval = np.ones(gstarts.size, dtype=np.float64)
        else:
            gval = fold.reduceat(leafv, gstarts)
        annotations = gval if pw is None else pw[rows][gstarts] * gval
        data = np.stack([column[gstarts] for column in prefix], axis=1)
        return BagResult(self.out_attrs, data,
                         annotations=annotations.astype(np.float64,
                                                        copy=False),
                         canonical=True)

    def _fold_groups(self, blocks, cols, pw, sw, flats, total):
        """Fold the deepest level per output tuple when the outputs
        are not an order prefix (an *unordered group-by*).

        The rows of one output tuple may sit anywhere in the level's
        ``total`` candidates, in any block.  Its columns are coded as
        one mixed-radix integer (each column's radix is one past the
        largest value its level can bind) and every block scatters
        into accumulators indexed by that code — a hit flag, the fold
        of the suffix products (``ufunc.at``), the tuple's own
        annotation; the set codes, ascending, are the result rows in
        lexicographic order.  A code space too large for that
        (:data:`DENSE_GROUPS`) sorts each block's rows and folds runs
        instead, then the blocks' partial groups once more.
        """
        nl = self.n_levels
        fold = _FOLD_UFUNC.get(self.semiring.name)      # None: EXISTS
        bounds = [min(flats[part.index].bound(part.pos)
                      for part in self.levels[level])
                  for level in self.out_levels]
        domain = math.prod(bounds)
        dense = domain <= max(DENSE_GROUPS, total)
        if dense:
            hit = np.zeros(domain, dtype=bool)
            acc = None if fold is None \
                else np.full(domain, self.semiring.zero, dtype=np.float64)
            pacc = None
        partials = []
        for block in blocks:
            if block.size == 0:
                continue
            parent, factors = block.parent, block.factors
            columns = [block.vals if level == nl - 1
                       else cols[level][parent]
                       for level in self.out_levels]
            pref = None if pw is None else pw[parent]
            elem = None if sw is None else sw[parent]
            for index, factor in sorted(factors.items()):
                if self.to_prefix[index]:
                    pref = factor if pref is None else pref * factor
                elif fold is not None:
                    elem = factor if elem is None else elem * factor
            if not dense:
                partials.append(_group_sorted(columns, bounds, elem, pref,
                                              fold))
                continue
            code = _codes(columns, bounds)
            hit[code] = True
            if elem is not None:
                fold.at(acc, code, elem)
            elif fold is not None:      # MIN/MAX of a constant chain
                acc[code] = 1.0
            if pref is not None:
                if pacc is None:
                    pacc = np.empty(domain, dtype=np.float64)
                pacc[code] = pref
        if dense:
            code = np.flatnonzero(hit)
            gval = None if acc is None else acc[code]
            pref = None if pacc is None else pacc[code]
            columns = []
            for bound in reversed(bounds):
                code, column = np.divmod(code, bound)
                columns.append(column)
            columns.reverse()
        elif partials:
            columns, gvals, prefs = zip(*partials)
            columns, gval, pref = _group_sorted(
                [np.concatenate(column) for column in zip(*columns)],
                bounds, _joined(gvals), _joined(prefs), fold)
        else:
            return self._empty()
        if columns[0].size == 0:
            return self._empty()
        if gval is None:                # EXISTS: one witness per group
            gval = np.ones(columns[0].size, dtype=np.float64)
        annotations = gval if pref is None else pref * gval
        data = np.stack(columns, axis=1).astype(np.uint32, copy=False)
        return BagResult(self.out_attrs, data, annotations=annotations,
                         canonical=True)

    def _empty(self):
        if self.out_count == 0 and self.int_fold:
            return BagResult((), _EMPTY_SCALAR_DATA, scalar=0)
        return empty_bag_result(self.out_attrs, self.out_count,
                                self.semiring)


def _concatenate(blocks):
    """Join non-leaf blocks' survivors into the next frontier:
    ``(parent, vals, new_ranks, factors)``."""
    first = blocks[0]
    if len(blocks) == 1:
        return first.parent, first.vals, first.new_ranks, first.factors
    return (np.concatenate([block.parent for block in blocks]),
            np.concatenate([block.vals for block in blocks]),
            {index: np.concatenate([block.new_ranks[index]
                                    for block in blocks])
             for index in first.new_ranks},
            {index: np.concatenate([block.factors[index]
                                    for block in blocks])
             for index in first.factors})


def _settle(parts, flats, generator):
    """Split a CSR level's non-generating ``parts`` into ``(settled,
    probed)``: a root whose keys are the whole of a range that holds
    every value ``generator`` can produce filters nothing, and its
    ranks are the values themselves less the range's start."""
    settled, probed = [], []
    for part in parts:
        flat = flats[part.index]
        if part.pos == 0 and flat.full:
            k0, k1 = flat.span(0)
            low, high = generator.span(1)
            if k0 <= low and high <= k1:
                settled.append((part, k0))
                continue
        probed.append(part)
    return settled, probed


def _min_fanout(group, flats, ranks):
    """``(view, gen, counts, first)`` of expanding each frontier row
    from the smallest of the child lists that ``group``'s inputs bind
    in their one flat ``view``: row ``r`` owns
    ``view.values[first[r]:first[r] + counts[r]]``.  ``gen`` is the
    input every row takes its list from (the first one on a tie), or
    ``None`` when the rows differ."""
    view = flats[group[0].index]
    starts = [view.offsets.take(ranks[part.index]) for part in group]
    fanouts = [view.offsets.take(ranks[part.index] + 1) - start
               for part, start in zip(group, starts)]
    index = 0
    if len(group) > 1:
        pick = np.argmin(fanouts, axis=0)
        if (pick != pick[0]).any():
            rows = np.arange(pick.size)
            return (view, None, np.stack(fanouts)[pick, rows],
                    np.stack(starts)[pick, rows])
        index = int(pick[0])
    return view, group[index], fanouts[index], starts[index]


def _child_probes(parts, flats, cols):
    """``(part, heads, bits)`` per probed part.  ``heads`` is ``None``
    for a root; at a child level it holds, per frontier row, the bound
    parent as the pair probe reads it: the first code of the parent's
    row of the view's bit table (``bits``) for an unannotated input
    over a dense level, else ``parent << 32`` for a ``searchsorted``
    of the packed pairs, which also finds an annotated input's leaf
    row."""
    probes = []
    for part in parts:
        heads = bits = None
        if part.pos == 1:
            flat = flats[part.index]
            column = cols[part.var0_level]
            bits = not part.annotated and flat.pairs is not None
            heads = flat.pair_heads(column) if bits \
                else column.astype(np.uint64) << np.uint64(32)
        probes.append((part, heads, bits))
    return probes


def _joined(arrays):
    """Concatenation of per-block arrays that are all ``None`` or not."""
    return None if arrays[0] is None else np.concatenate(arrays)


def _codes(columns, bounds):
    """Mixed-radix code of every row of ``columns`` (one array per
    column, radix ``bounds``): ascending codes are lexicographically
    ascending rows.  ``None`` when the code space overflows 63 bits."""
    code = columns[0].astype(np.int64)
    space = bounds[0]
    for column, bound in zip(columns[1:], bounds[1:]):
        space *= bound
        if space >= 1 << 63:
            return None
        code = code * bound + column
    return code


def _group_sorted(columns, bounds, elem, pref, fold):
    """Sorted group-by of one batch of rows: returns the distinct rows
    of ``columns`` in lexicographic order, the ``fold`` of ``elem``
    over each one's occurrences and (constant per row) its ``pref`` —
    ``None`` in, ``None`` out."""
    code = _codes(columns, bounds)
    order = np.argsort(code) if code is not None \
        else np.lexsort(columns[::-1])
    columns = [column[order] for column in columns]
    starts = _row_starts(columns)
    return ([column[starts] for column in columns],
            None if elem is None else fold.reduceat(elem[order], starts),
            None if pref is None else pref[order][starts])
