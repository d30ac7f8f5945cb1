"""Incremental trie construction: the paper's Table 2 append operation.

The execution engine's generated code materializes results with
``R ← R ∪ t × xs`` — append every element of set ``xs`` under prefix
tuple ``t``.  :class:`TrieBuilder` accumulates those appends columnar
and materializes a :class:`~repro.storage.trie.Trie` (or a
:class:`~repro.storage.relation.Relation`) at the end, which is both
faster and simpler than mutating a layout-optimized trie in place.

Together with ``Trie.lookup`` (``R[t]``), set iteration, and
:func:`repro.sets.intersect`, this completes the paper's four-operation
storage API.
"""

import numpy as np

from ..errors import SchemaError
from .relation import Relation
from .trie import Trie


class TrieBuilder:
    """Accumulates ``prefix × set`` appends and builds the result trie.

    Parameters
    ----------
    name:
        Name of the relation being built.
    arity:
        Total key width; every append's ``len(prefix) + 1`` must equal
        it (the appended set supplies the last column).

    Examples
    --------
    >>> builder = TrieBuilder("Q", 2)
    >>> builder.append((1,), [4, 5])
    >>> builder.append((2,), [6])
    >>> list(builder.build().tuples())
    [(1, 4), (1, 5), (2, 6)]
    """

    def __init__(self, name, arity):
        if arity < 1:
            raise SchemaError("TrieBuilder needs arity >= 1")
        self.name = name
        self.arity = arity
        self._chunks = []       # (prefix tuple, values array, ann array)
        self._total = 0

    def append(self, prefix, values, annotations=None):
        """``R ← R ∪ prefix × values`` (paper Table 2).

        ``values`` may be a :class:`~repro.sets.base.SetLayout`, a numpy
        array, or any iterable of ints; ``annotations`` optionally
        aligns one semiring value per appended element.
        """
        if len(prefix) != self.arity - 1:
            raise SchemaError(
                "prefix of length %d does not fit arity %d"
                % (len(prefix), self.arity))
        if hasattr(values, "to_array"):
            values = values.to_array()
        values = np.asarray(list(values) if not isinstance(
            values, np.ndarray) else values, dtype=np.uint32)
        if values.size == 0:
            return
        if annotations is not None:
            annotations = np.asarray(annotations, dtype=np.float64)
            if annotations.shape != values.shape:
                raise SchemaError("annotations must align with values")
        self._chunks.append((tuple(int(v) for v in prefix), values,
                             annotations))
        self._total += int(values.size)

    def append_tuple(self, key, annotation=None):
        """Append one full key tuple."""
        self.append(tuple(key[:-1]), [key[-1]],
                    None if annotation is None else [annotation])

    @property
    def cardinality(self):
        """Number of appended elements so far (before deduplication)."""
        return self._total

    def to_relation(self):
        """Materialize the accumulated appends as a Relation."""
        if not self._chunks:
            return Relation(self.name,
                            np.empty((0, self.arity), dtype=np.uint32))
        any_annotated = any(ann is not None for _, _, ann in self._chunks)
        blocks = []
        annotation_blocks = []
        for prefix, values, annotations in self._chunks:
            block = np.empty((values.size, self.arity), dtype=np.uint32)
            for column, value in enumerate(prefix):
                block[:, column] = value
            block[:, self.arity - 1] = values
            blocks.append(block)
            if any_annotated:
                annotation_blocks.append(
                    annotations if annotations is not None
                    else np.ones(values.size))
        data = np.concatenate(blocks)
        annotations = np.concatenate(annotation_blocks) \
            if any_annotated else None
        return Relation(self.name, data, annotations)

    def build(self, key_order=None, optimizer=None):
        """Materialize the accumulated appends as a Trie."""
        return Trie(self.to_relation(), key_order=key_order,
                    optimizer=optimizer)


def patched_trie(old_trie, relation, key_order, optimizer, entries):
    """Rebuild a cached trie by replaying journal ``entries`` onto it.

    The merge-rebuild half of the delta-store design: instead of
    re-sorting the whole relation, take ``old_trie``'s sorted arrays
    (already permuted into ``key_order``), union the Δ+ batches in and
    subtract the Δ− batches at C speed, and build a fresh lazy trie
    over the merged arrays.  ``entries`` is the output of
    ``relation.delta.changes_since(old_version)`` in commit order.
    """
    from .delta import merge_sorted, sort_rows, subtract_sorted
    data = old_trie.sorted_data
    annotations = old_trie.sorted_annotations
    order = list(key_order)
    for entry in entries:
        rows, anns = sort_rows(entry.data[:, order], entry.annotations)
        if entry.kind == "+":
            data, annotations = merge_sorted(data, annotations, rows, anns)
        else:
            data, annotations = subtract_sorted(data, annotations, rows)
    return Trie(relation, key_order=key_order, optimizer=optimizer,
                presorted=(data, annotations))
