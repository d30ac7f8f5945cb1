"""The trie storage structure (paper §2.2, Figure 2).

A relation with attribute order ``(a1, ..., ak)`` is stored as a k-level
trie: level ``i`` holds, for every distinct prefix ``(v1, ..., v_{i-1})``,
the *set* of ``a_i`` values extending that prefix.  Each set is stored in
a physical layout chosen by the layout optimizer, which is where the
engine's density-skew adaptivity lives.  Leaf sets optionally carry
per-value semiring annotations.

A trie is built *flat first*: the sorted tuple array and the level-0
index exist as soon as the constructor returns, which is all the
default block engine reads (through :class:`FlatTrieView`).  The set
layouts — the root's on the first read of ``root.set``, the per-prefix
node tree below it on the first descent — are built by whoever reads
them: the interpreter oracle, the forked scheduler, structural readers.
"""

from functools import partial

import numpy as np

from ..errors import SchemaError
from ..sets.cost import SIMD_REGISTER_BITS
from ..sets.optimizer import SetOptimizer, choose_set_layout
from .relation import Relation


class FlatTrieView:
    """Columnar (CSR-style) view of a unary or binary trie.

    The fused block executor (:mod:`repro.engine.fused`) never walks
    trie nodes — it sweeps flat arrays.  This view exposes them:

    ``keys``
        Sorted distinct level-0 values (the root set).
    ``offsets`` / ``values``
        CSR child arrays for binary tries: the children of ``keys[i]``
        are ``values[offsets[i]:offsets[i + 1]]``.  ``None`` for unary.
    ``packed``
        ``(parent << 32) | child`` as sorted ``uint64``, one entry per
        stored pair, enabling batched membership probes of bound pairs
        with a single ``searchsorted`` that also finds each pair's leaf
        row — the probe of sparse levels and of annotated inputs.
        ``None`` for unary.
    ``ann``
        Leaf annotations aligned with ``keys`` (unary) or with
        ``values``/``packed`` rows (binary); ``None`` if unannotated.
    ``full``
        Whether the root keys are *every* value of ``[keys[0],
        keys[-1]]`` — what dictionary codes give any total relation.
        The rank of ``v`` is then ``v - keys[0]`` and membership a
        range test: the dense set at its limit, no table needed.
    ``rank_of``
        Dense root-rank table for dense roots *with holes*, built on
        first use and only when the layout optimizer stores the root
        set as a bitset (its density decision, paper Algorithm 3):
        ``rank_of[v - keys[0]]`` is the index of ``v`` in ``keys`` or
        ``-1``, with one trailing ``-1`` slot that out-of-range probes
        clamp to.  A root-level membership probe is then one gather
        instead of a binary search — the uint∩bitset kernel of §4.2.
        ``None`` for sparse roots and for ``full`` ones.  Four bytes
        per value of the root key *range*, which the density decision
        bounds at 256x the key count.
    ``pairs``
        The binary level as a bitset, one bit per code: pair ``(p, c)``
        is bit ``(p - keys[0]) * width + c``, ``width = bound(1) + 1``
        so that the last column is empty and larger child values clamp
        into it (as root probes clamp to ``rank_of``'s trailing slot).
        Built on first use and only when the optimizer would store
        that code space as a bitset, so at most ``density_threshold /
        8`` bytes (32 by default) per stored pair.  An unannotated
        child-level probe is then a byte gather, a shift and an AND
        (:meth:`pair_heads`, :meth:`pair_member`).  ``None`` for a
        sparse level and for unary tries.

    All arrays alias :attr:`Trie.sorted_data` buffers where possible
    and the level-0 index is the trie's own, so the view costs one pack
    per trie and is cached by :meth:`Trie.flat`.  It asks the optimizer
    which layout kind the root set *would* get and builds no set: not
    the root's, and nothing below it.
    """

    __slots__ = ("arity", "keys", "offsets", "values", "packed", "ann",
                 "full", "_dense_root", "_rank_of", "_value_span",
                 "_optimizer", "_pairs")

    def __init__(self, trie):
        if trie.arity not in (1, 2):
            raise SchemaError("flat views cover arity 1-2 tries only, "
                              "got arity %d" % trie.arity)
        self.arity = trie.arity
        data = trie.sorted_data
        self.ann = trie.sorted_annotations
        self._rank_of = None
        self._value_span = None
        self._optimizer = trie.optimizer
        # None until asked for; then the table, or False for none
        self._pairs = None if trie.arity == 2 else False
        if trie.arity == 1:
            self.keys = np.ascontiguousarray(data[:, 0])
            self.offsets = None
            self.values = None
            self.packed = None
        else:
            self._index_pairs(data, *trie._level0)
        keys = self.keys
        self.full = bool(keys.size) \
            and int(keys[-1]) - int(keys[0]) + 1 == keys.size
        # ``bitset_only`` stores sparse roots as bitsets too, so the
        # kind alone does not bound the table: the density rule does
        # (and ranks must fit the table's int32).
        self._dense_root = not self.full \
            and trie.root_kind == "bitset" \
            and keys.size < np.iinfo(np.int32).max \
            and choose_set_layout(
                keys, trie.optimizer.density_threshold) == "bitset"

    def _index_pairs(self, data, keys, starts):
        col0 = np.ascontiguousarray(data[:, 0])
        col1 = np.ascontiguousarray(data[:, 1])
        self.keys = keys
        self.offsets = np.append(starts, col0.size).astype(np.int64)
        self.values = col1
        self.packed = (col0.astype(np.uint64) << np.uint64(32)) \
            | col1.astype(np.uint64)

    def span(self, pos):
        """``(smallest, largest)`` value stored at level ``pos`` of a
        non-empty trie (the child level's are found once)."""
        if pos == 0:
            return int(self.keys[0]), int(self.keys[-1])
        if self._value_span is None:
            self._value_span = (int(self.values.min()),
                                int(self.values.max()))
        return self._value_span

    def bound(self, pos):
        """One past the largest value stored at level ``pos``."""
        return self.span(pos)[1] + 1

    @property
    def rank_of(self):
        """The dense root-rank table, or ``None`` for a sparse root
        and for a ``full`` one (whose ranks need no table)."""
        if self._rank_of is None and self._dense_root:
            keys = self.keys
            span = int(keys[-1]) - int(keys[0]) + 1
            table = np.full(span + 1, -1, dtype=np.int32)
            table[keys - keys[0]] = np.arange(keys.size, dtype=np.int32)
            self._rank_of = table
        return self._rank_of

    @property
    def pairs(self):
        """The pair bit table, or ``None`` for a sparse binary level
        (and for unary tries)."""
        if self._pairs is None:
            self._pairs = self._pair_table()
        return None if self._pairs is False else self._pairs

    def _pair_table(self):
        k0, width = int(self.keys[0]), self.bound(1) + 1
        space = (int(self.keys[-1]) - k0 + 1) * width
        threshold = self._optimizer.density_threshold
        if space >= (SIMD_REGISTER_BITS if threshold is None
                     else threshold) * self.values.size:
            return False
        codes = ((self.packed >> np.uint64(32)) - np.uint64(k0)) \
            * np.uint64(width) + self.values
        if self._optimizer.kind_of(codes) != "bitset":
            return False
        table = np.zeros((space + 7) >> 3, dtype=np.uint8)
        np.bitwise_or.at(table, codes >> np.uint64(3), (np.uint64(1) << (
            codes & np.uint64(7))).astype(np.uint8))
        return table

    def pair_heads(self, parents):
        """Per bound level-0 value in ``parents`` (each one a key), the
        first code of its row of :attr:`pairs` — ``uint32`` when every
        code fits."""
        code = np.uint32 if self._pairs.size <= 1 << 29 else np.uint64
        return (parents.astype(code) - code(self.keys[0])) \
            * code(self.bound(1) + 1)

    def pair_member(self, heads, vals):
        """Whether each ``(parent, vals[i])`` is a stored pair, the
        parent given by its row's :meth:`pair_heads` value."""
        code = heads + np.minimum(vals, heads.dtype.type(self.bound(1)))
        byte = self._pairs.take(code >> 3)
        code &= 7
        return (byte >> code.astype(np.uint8) & 1).view(bool)


class TrieNode:
    """One trie node: a set of values plus per-value children/annotations.

    ``children`` is a list parallel to the set's sorted order (``None`` at
    the leaf level); ``annotations`` is a float array parallel to sorted
    order (``None`` when the relation is unannotated or the level is not
    the leaf).  A root node may be created with ``pending``, a
    zero-argument builder of its children that runs on the first read of
    ``children`` (and so on the first ``child``/``child_at``), and with
    ``pending_set``, a zero-argument builder of its set layout that
    runs on the first read of ``set``.
    """

    __slots__ = ("built_set", "annotations", "_children", "_pending",
                 "_pending_set")

    def __init__(self, set_layout, children=None, annotations=None,
                 pending=None, pending_set=None):
        #: The set layout if it has been built, else ``None``.
        self.built_set = set_layout
        self._pending_set = pending_set
        self.annotations = annotations
        self._children = children
        self._pending = pending

    @property
    def set(self):
        """The node's set layout, built on first use."""
        if self._pending_set is not None:
            self.built_set = self._pending_set()
            self._pending_set = None
        return self.built_set

    @property
    def children(self):
        """Child nodes in sorted-value order, built on first use."""
        if self._pending is not None:
            self._children = self._pending()
            self._pending = None
        return self._children

    def child(self, value):
        """Child node for ``value``; raises ``KeyError`` when absent."""
        return self.children[self.set.rank(value)]

    def child_at(self, index):
        """Child node by rank (position in sorted order)."""
        return self.children[index]

    def annotation(self, value):
        """Annotation for ``value`` at a leaf node."""
        if self.annotations is None:
            raise SchemaError("node carries no annotations")
        return float(self.annotations[self.set.rank(value)])

    @property
    def is_leaf(self):
        """True at the deepest trie level (no child pointers)."""
        return self._children is None and self._pending is None


class Trie:
    """A relation materialized as a trie under one attribute order.

    Construction sorts and deduplicates, keeps the tuples as
    :attr:`sorted_data` and indexes level 0.  The root's set layout is
    built by the first read of ``root.set`` and the node tree below the
    root (:attr:`materialized`) by the first reader that descends —
    ``root.children``/``child``, :meth:`lookup`, :meth:`contains`,
    :meth:`tuples`, :meth:`level_sets`, :attr:`nbytes`,
    :meth:`layout_histogram` — which the interpreter oracle, the forked
    scheduler and structural tests do and the default block engine
    (:meth:`flat`) never does.

    Parameters
    ----------
    relation:
        The (deduplicated) :class:`~repro.storage.relation.Relation`.
    key_order:
        Tuple of column indexes giving the trie's level order, e.g.
        ``(1, 0)`` stores the transpose of a binary relation.
    optimizer:
        A :class:`~repro.sets.optimizer.SetOptimizer`; defaults to the
        paper's set-level optimizer.
    """

    def __init__(self, relation, key_order=None, optimizer=None,
                 presorted=None, reuse=None):
        if key_order is None:
            key_order = tuple(range(relation.arity))
        if sorted(key_order) != list(range(relation.arity)):
            raise SchemaError("key_order %r is not a permutation of the %d "
                              "columns" % (key_order, relation.arity))
        self.relation = relation
        self.key_order = tuple(key_order)
        self.optimizer = optimizer if optimizer is not None \
            else SetOptimizer("set")
        self.name = relation.name
        self.arity = relation.arity
        # Payload bytes this trie has placed into a SharedTrieArena
        # (share_into); the TrieCache charges this as arena waste when
        # the entry is retired, driving whole-arena compaction.
        self._shm_bytes = 0
        self._root_kind = None
        if relation.arity == 0:
            self.root = TrieNode(_empty_set(self.optimizer))
            self.scalar = (float(relation.annotations[0])
                           if relation.annotations is not None
                           and relation.annotations.size else None)
            self.sorted_data = np.empty((0, 0), dtype=np.uint32)
            self.sorted_annotations = None
            self._flat = None
            return
        self.scalar = None
        if presorted is not None:
            # Delta-patch path: the caller supplies tuple/annotation
            # arrays already permuted into key order and lexsorted
            # (see builder.patched_trie) — skip the dedup/sort passes.
            data, annotations = presorted
        else:
            deduped = relation.deduplicated()
            data = deduped.data[:, list(self.key_order)]
            annotations = deduped.annotations
            # Canonical relations under the identity order are already
            # lexsorted; anything else needs the sort pass.
            already_sorted = deduped._canonical \
                and self.key_order == tuple(range(self.arity))
            if data.shape[0] and not already_sorted:
                sort_keys = tuple(data[:, c]
                                  for c in range(self.arity - 1, -1, -1))
                order = np.lexsort(sort_keys)
                data = data[order]
                if annotations is not None:
                    annotations = annotations[order]
        # Kept for the engine's vectorized fast paths: the tuples in trie
        # (lexicographic) order, with annotations aligned.
        self.sorted_data = data
        self.sorted_annotations = annotations
        self._flat = None
        # Level-0 index (distinct keys, first row of each), shared with
        # the flat view.  The column is sorted: runs change where
        # neighbours differ.
        col0 = data[:, 0]
        starts = np.flatnonzero(np.concatenate(
            ([True], col0[1:] != col0[:-1]))) if col0.size \
            else np.empty(0, dtype=np.intp)
        keys = col0[starts]
        self._level0 = keys, starts
        # The builders hold the arrays and the optimizer, not the trie:
        # a pending root must not tie trie and node into a reference
        # cycle.
        root_set = partial(self.optimizer.build, keys)
        if self.arity == 1:
            self.root = TrieNode(
                None, None,
                None if annotations is None else annotations[starts],
                pending_set=root_set)
        elif reuse is not None and reuse[0].materialized:
            self.root = TrieNode(None, self._patched_children(*reuse),
                                 pending_set=root_set)
        else:
            self.root = TrieNode(None, pending=partial(
                _build_children, self.optimizer, data, annotations,
                starts, 0), pending_set=root_set)

    @property
    def materialized(self):
        """Whether the node tree below the root has been built."""
        return self.root._pending is None

    @property
    def root_kind(self):
        """Layout kind of the root set, asked of the optimizer (once)
        without building the set."""
        if self._root_kind is None:
            self._root_kind = self.optimizer.kind_of(self._level0[0]) \
                if self.arity else self.root.set.kind
        return self._root_kind

    @property
    def root_cardinality(self):
        """Number of distinct level-0 values."""
        return int(self._level0[0].size) if self.arity else 0

    def _patched_children(self, old_trie, touched):
        """Root children that reuse untouched subtrees of a stale trie.

        ``touched`` is the set of level-0 key values the delta journal
        mentioned (already permuted into this trie's key order): only
        those groups' subtrees changed, so every other level-0 value
        keeps the old trie's child node — the build pass becomes
        O(|Δ| log n) instead of O(distinct level-0 keys).  Only a
        materialized ``old_trie`` has subtrees to give; a patch of one
        that never descended stays lazy like any fresh build."""
        keys, starts = self._level0
        old_root = old_trie.root
        touched = set(np.asarray(touched).tolist())
        adopted = {}
        for index, value in enumerate(keys.tolist()):
            if value not in touched and old_root.set.contains(value):
                adopted[index] = old_root.child(value)
        return _build_children(self.optimizer, self.sorted_data,
                               self.sorted_annotations, starts, 0, adopted)

    def flat(self):
        """Cached :class:`FlatTrieView` for fused block execution."""
        if self._flat is None:
            self._flat = FlatTrieView(self)
        return self._flat

    # -- sharing -----------------------------------------------------------

    def share_into(self, arena):
        """Move the trie's bulk arrays into ``arena`` shared memory.

        Rebinds :attr:`sorted_data`, :attr:`sorted_annotations`, the flat
        view's arrays, and the root set's backing array (when it is a
        plain ``uint`` layout) to views over the arena's segments, so
        forked workers inherit them as zero-copy mappings instead of
        re-paying copy-on-write churn per process.  Node-level structures
        beyond the root keep their private copies — the hot paths (fused
        blocks, vectorized fast paths, level-0 candidate intersection)
        only touch the rebound arrays.  Returns ``self`` for chaining.
        """
        if self.arity == 0 or self.sorted_data.size == 0:
            return self
        placed_before = arena.nbytes
        self.sorted_data = arena.place(self.sorted_data)
        if self.sorted_annotations is not None:
            self.sorted_annotations = arena.place(self.sorted_annotations)
        shared_keys = None
        if self.arity in (1, 2):
            flat = self.flat()
            flat.keys = arena.place(flat.keys)
            if flat.ann is not None:
                flat.ann = self.sorted_annotations
            if flat.arity == 2:
                flat.offsets = arena.place(flat.offsets)
                flat.values = arena.place(flat.values)
                flat.packed = arena.place(flat.packed)
            shared_keys = flat.keys
        root_values = getattr(self.root.set, "_values", None)
        if root_values is not None and self.root.set.kind == "uint":
            self.root.set._values = shared_keys \
                if shared_keys is not None \
                and shared_keys.size == root_values.size \
                else arena.place(root_values)
        self._shm_bytes = int(arena.nbytes - placed_before)
        return self

    # -- traversal ---------------------------------------------------------

    def lookup(self, prefix):
        """Node reached by following ``prefix`` (a tuple of key values).

        ``lookup(())`` is the root.  Raises ``KeyError`` when the prefix
        is absent.
        """
        node = self.root
        for value in prefix:
            node = node.child(value)
        return node

    def contains(self, key):
        """Membership test for a full key tuple."""
        try:
            node = self.root
            for value in key[:-1]:
                node = node.child(value)
            return node.set.contains(key[-1]) if key else True
        except KeyError:
            return False

    def tuples(self):
        """Yield every stored key tuple in lexicographic (trie) order."""
        if self.arity == 0:
            return
        yield from self._walk(self.root, ())

    def _walk(self, node, prefix):
        if node.is_leaf:
            for value in node.set:
                yield prefix + (value,)
            return
        for index, value in enumerate(node.set):
            yield from self._walk(node.child_at(index), prefix + (value,))

    def annotated_tuples(self):
        """Yield ``(key_tuple, annotation)`` pairs in trie order."""
        if self.arity == 0:
            yield ((), self.scalar)
            return
        yield from self._walk_annotated(self.root, ())

    def _walk_annotated(self, node, prefix):
        if node.is_leaf:
            for index, value in enumerate(node.set):
                annotation = (None if node.annotations is None
                              else float(node.annotations[index]))
                yield (prefix + (value,), annotation)
            return
        for index, value in enumerate(node.set):
            yield from self._walk_annotated(node.child_at(index),
                                            prefix + (value,))

    # -- statistics ---------------------------------------------------------

    @property
    def cardinality(self):
        """Number of stored tuples (O(1): the build keeps the sorted
        tuple array)."""
        if self.arity == 0:
            return 1 if self.scalar is not None else 0
        return int(self.sorted_data.shape[0])

    def _count(self, node):
        """Recursive tuple count (kept for structural tests)."""
        if node.is_leaf:
            return node.set.cardinality
        return sum(self._count(child) for child in node.children)

    def level_sets(self, level):
        """All set layouts at the given level (0 = root), for stats."""
        nodes = [self.root]
        for _ in range(level):
            nodes = [child for node in nodes for child in node.children]
        return [node.set for node in nodes]

    def layout_histogram(self):
        """Layout-kind counts across every set in the trie."""
        histogram = {}
        stack = [self.root]
        while stack:
            node = stack.pop()
            histogram[node.set.kind] = histogram.get(node.set.kind, 0) + 1
            if node.children:
                stack.extend(node.children)
        return histogram

    @property
    def nbytes(self):
        """Approximate encoded size of every set in the trie."""
        total = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            total += node.set.nbytes
            if node.annotations is not None:
                total += node.annotations.nbytes
            if node.children:
                stack.extend(node.children)
        return total

    def __repr__(self):
        return "Trie(%s, order=%s, %d tuples)" % (
            self.name, self.key_order, self.cardinality)


def _build_node(optimizer, data, annotations, depth):
    """The node (and subtree) over ``data``'s columns from ``depth``."""
    values, starts = np.unique(data[:, depth], return_index=True)
    set_layout = optimizer.build(values)
    if depth == data.shape[1] - 1:
        return TrieNode(set_layout, None, None if annotations is None
                        else annotations[starts])
    return TrieNode(set_layout, _build_children(
        optimizer, data, annotations, starts, depth))


def _build_children(optimizer, data, annotations, starts, depth,
                    adopted=None):
    """Child nodes of the ``depth`` node over ``data`` whose groups
    begin at ``starts``; ``adopted`` maps a group's index to a
    ready-made node that is used instead of building one."""
    bounds = np.append(starts, data.shape[0])
    return [
        adopted[i] if adopted and i in adopted else
        _build_node(optimizer, data[bounds[i]:bounds[i + 1]],
                    None if annotations is None
                    else annotations[bounds[i]:bounds[i + 1]],
                    depth + 1)
        for i in range(starts.size)
    ]


def _empty_set(optimizer):
    return optimizer.build(np.empty(0, dtype=np.uint32))


def trie_from_arrays(name, data, annotations=None, key_order=None,
                     optimizer=None):
    """Convenience: build a trie straight from a ``uint32`` array."""
    relation = Relation(name, data, annotations)
    return Trie(relation, key_order=key_order, optimizer=optimizer)
