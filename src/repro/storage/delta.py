"""Delta stores: sorted change sets and a mutation journal per relation.

EmptyHeaded's storage model (paper §3) is batch-loaded and immutable;
this module is the seam that makes it *versioned-mutable* without
giving up the sorted-array trie layout.  Each mutable relation owns a
:class:`DeltaStore` holding

* a **journal** of ``(version, kind, rows, annotations)`` entries —
  Δ+ inserts (``"+"``) and Δ− tombstones (``"-"``) in commit order.
  Consumers at an older version (cached tries, materialized views)
  replay ``changes_since(version)`` instead of rebuilding from scratch,
  the same semi-naive contract GPU datalog engines use for deltas.
* **pending counters** since the last merge.  When the pending change
  volume crosses :data:`MERGE_RATIO` of the base cardinality the store
  *merges*: the relation's effective arrays are already maintained
  eagerly (see ``Relation.apply_append``), so a merge just trims the
  journal and resets the counters — the next trie build is a fresh
  full build rather than a patch chain.

Row identity uses a big-endian byte view (:func:`row_view`): ``memcmp``
order on ``>u4`` rows equals numeric lexicographic order, so membership
and merge positioning are single vectorized ``searchsorted`` calls.
"""

import numpy as np

#: Pending-change volume (fraction of base cardinality) that triggers a
#: merge: journal trimmed, next trie build is full rather than patched.
MERGE_RATIO = 0.25

#: Hard cap on journal entries between merges; crossing it also merges
#: so an update-heavy workload cannot grow the journal unboundedly.
JOURNAL_LIMIT = 64


def row_view(data):
    """View ``(n, arity)`` uint32 rows as one opaque sortable key each.

    The columns are converted to big-endian so byte order equals
    numeric order; the rows are then viewed as a void dtype whose
    comparison is ``memcmp`` — giving lexicographic row order, the same
    order ``Relation.deduplicated`` and the trie build sort by.
    """
    if data.ndim != 2 or data.shape[1] == 0:
        raise ValueError("row_view needs (n, arity>=1) data")
    packed = np.ascontiguousarray(data, dtype=">u4")
    return packed.view(
        np.dtype((np.void, packed.dtype.itemsize * packed.shape[1]))
    ).ravel()


def row_keys(data):
    """One sortable key per row, in the cheapest form the width
    allows: the column itself, two columns packed into a ``uint64``,
    :func:`row_view` beyond (and a constant for zero columns, where
    all rows are equal).  Keys of equal-width matrices compare as
    their rows do."""
    width = data.shape[1]
    if width == 1:
        return data[:, 0]
    if width == 2:
        return (data[:, 0].astype(np.uint64) << np.uint64(32)) | data[:, 1]
    if width == 0:
        return np.zeros(data.shape[0], dtype=np.uint8)
    return row_view(data)


def rows_in(view, sorted_view):
    """Membership mask of ``view`` rows inside ``sorted_view`` rows.

    Both arguments are :func:`row_view` outputs; ``sorted_view`` must be
    ascending.  One ``searchsorted`` plus one compare — no Python loop.
    """
    if sorted_view.size == 0:
        return np.zeros(view.size, dtype=bool)
    slots = np.searchsorted(sorted_view, view)
    slots = np.minimum(slots, sorted_view.size - 1)
    return sorted_view[slots] == view


def sort_rows(data, annotations=None):
    """Lexsort rows (and aligned annotations) into canonical order."""
    if data.shape[0] <= 1:
        return data, annotations
    order = np.lexsort(tuple(data[:, c]
                             for c in range(data.shape[1] - 1, -1, -1)))
    data = data[order]
    if annotations is not None:
        annotations = annotations[order]
    return data, annotations


def merge_sorted(base, base_ann, plus, plus_ann):
    """Union-merge sorted ``plus`` rows into sorted ``base`` rows.

    Precondition: the row sets are disjoint (the caller classified the
    incoming batch into genuinely-new rows).  Annotations may be
    ``None`` on both sides or aligned arrays on both sides.
    """
    if plus.shape[0] == 0:
        return base, base_ann
    slots = np.searchsorted(row_view(base), row_view(plus)) \
        if base.shape[0] else np.zeros(plus.shape[0], dtype=np.intp)
    data = np.insert(base, slots, plus, axis=0)
    ann = None
    if base_ann is not None:
        ann = np.insert(base_ann, slots, plus_ann)
    return data, ann


def subtract_sorted(base, base_ann, minus):
    """Remove sorted ``minus`` rows from sorted ``base`` rows."""
    if minus.shape[0] == 0 or base.shape[0] == 0:
        return base, base_ann
    keep = ~rows_in(row_view(base), row_view(minus))
    ann = None if base_ann is None else base_ann[keep]
    return base[keep], ann


class JournalEntry:
    """One committed change batch: Δ+ (``"+"``) or Δ− (``"-"``) rows."""

    __slots__ = ("version", "kind", "data", "annotations")

    def __init__(self, version, kind, data, annotations=None):
        self.version = version
        self.kind = kind
        self.data = data
        self.annotations = annotations

    def __repr__(self):
        return "JournalEntry(v%d, %s, %d rows)" % (
            self.version, self.kind, self.data.shape[0])


class DeltaStore:
    """Per-relation journal of sorted Δ+ / Δ− change batches.

    ``base_rows`` snapshots the relation cardinality at the last merge;
    the pending counters measure change volume since then and drive the
    :data:`MERGE_RATIO` merge decision.
    """

    def __init__(self, base_rows):
        self.base_rows = int(base_rows)
        self.pending_plus = 0
        self.pending_minus = 0
        self.journal = []
        # Versions strictly below this have been trimmed out of the
        # journal; ``changes_since`` answers None for them (the caller
        # must fall back to a full rebuild / recompute).
        self.floor_version = 0
        self.merges = 0

    # -- recording ---------------------------------------------------------

    def record(self, version, kind, data, annotations=None):
        """Append one committed change batch (rows already sorted)."""
        entry = JournalEntry(version, kind, data, annotations)
        self.journal.append(entry)
        if kind == "+":
            self.pending_plus += data.shape[0]
        else:
            self.pending_minus += data.shape[0]
        return entry

    @property
    def pending(self):
        """Total change rows recorded since the last merge."""
        return self.pending_plus + self.pending_minus

    def should_merge(self):
        """Whether pending volume crossed the merge threshold."""
        if len(self.journal) > JOURNAL_LIMIT:
            return True
        floor = max(self.base_rows, 16)
        return self.pending > MERGE_RATIO * floor

    def merge(self, base_rows, version):
        """Absorb the pending deltas into the base.

        The relation maintains its effective arrays eagerly, so the
        merge is bookkeeping: trim the journal (consumers older than
        ``version`` now require a full rebuild) and reset counters.
        """
        self.base_rows = int(base_rows)
        self.pending_plus = 0
        self.pending_minus = 0
        self.journal = []
        self.floor_version = version
        self.merges += 1

    # -- replay ------------------------------------------------------------

    def changes_since(self, version):
        """Journal entries after ``version``, or ``None`` if trimmed.

        ``None`` means the consumer's version predates the journal floor
        (a merge happened); it must rebuild from the full relation.
        """
        if version < self.floor_version:
            return None
        return [e for e in self.journal if e.version > version]

    def pure_inserts_since(self, version):
        """``changes_since`` restricted to insert-only histories.

        Returns the Δ+ entry list, or ``None`` when the history was
        trimmed **or** contains tombstones / annotation rewrites —
        the precondition for semi-naive insert-only view deltas.
        """
        entries = self.changes_since(version)
        if entries is None:
            return None
        if any(e.kind != "+" for e in entries):
            return None
        return entries

    def __repr__(self):
        return "DeltaStore(base=%d, +%d/-%d pending, %d entries)" % (
            self.base_rows, self.pending_plus, self.pending_minus,
            len(self.journal))
