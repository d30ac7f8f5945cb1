"""Relations: named, dictionary-encoded tables with optional annotations.

A :class:`Relation` is the logical object the query engine sees: an
``(n, arity)`` matrix of ``uint32`` keys plus an optional per-tuple
*annotation* (paper §2.2, "Trie Annotations") carrying a semiring value —
e.g. an edge weight, a PageRank contribution, or the implicit ``1`` that
COUNT aggregates.
"""

import numpy as np

from ..errors import SchemaError
from .dictionary import Dictionary


class Relation:
    """A dictionary-encoded relation with versioned in-place mutation.

    Historically immutable (the paper's batch-load model); relations now
    carry a monotonic ``version`` and support :meth:`apply_append` /
    :meth:`apply_delete`, which keep ``data``/``annotations`` always
    *effective* (sorted, deduplicated) while journalling the change
    batches in a :class:`~repro.storage.delta.DeltaStore` so cached
    tries and materialized views can catch up incrementally.

    Parameters
    ----------
    name:
        Relation name as referenced in queries.
    data:
        ``(n, arity)`` array-like of ``uint32`` keys.  Arity-0 (scalar)
        relations pass an empty ``(n, 0)`` array or ``None`` rows.
    annotations:
        Optional length-``n`` float array of semiring annotations.
    dictionaries:
        Per-column :class:`Dictionary` objects (may share one object when
        columns draw from the same domain, as graph edges do).
    """

    def __init__(self, name, data, annotations=None, dictionaries=None):
        self.name = name
        data = np.asarray(data, dtype=np.uint32)
        if data.ndim == 1:
            data = data.reshape(-1, 1)
        if data.ndim != 2:
            raise SchemaError("relation data must be 2-dimensional")
        self.data = data
        self.arity = int(data.shape[1])
        if annotations is not None:
            annotations = np.asarray(annotations, dtype=np.float64)
            if annotations.shape != (data.shape[0],):
                raise SchemaError(
                    "annotations must align with tuples: got %s for %d rows"
                    % (annotations.shape, data.shape[0]))
        self.annotations = annotations
        if dictionaries is not None and len(dictionaries) != self.arity:
            raise SchemaError("need one dictionary per column")
        self.dictionaries = dictionaries
        # Monotonic mutation counter: bumped once per committed
        # append/delete batch.  Caches key on (identity, version).
        self.version = 0
        # Lazily-created DeltaStore journalling committed change batches.
        self.delta = None
        # True when data/annotations are known lexsorted + duplicate-free
        # (canonical order) — deduplicated() and the trie build skip
        # their sort passes.
        self._canonical = False
        #: ``(source relation, selection signature)`` on the selection /
        #: projection slices the optimizer derives from a catalog
        #: relation; ``None`` on everything else.
        self.derived_from = None
        # ``(version, {column: (smallest, largest)})`` for span()
        self._spans = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_tuples(cls, name, tuples, annotations=None, dictionary=None,
                    arity=None):
        """Encode raw (arbitrary-typed) tuples through a shared dictionary.

        All columns share one dictionary, which is the right model for
        graphs where both columns are node ids.  ``arity`` pins the
        column count of an *empty* relation (otherwise unknowable from
        the tuples themselves); with tuples present it is validated.
        """
        tuples = list(tuples)
        if not tuples:
            width = 0 if arity is None else int(arity)
            dictionaries = [dictionary] * width \
                if dictionary is not None and width else None
            return cls(name, np.empty((0, width), dtype=np.uint32),
                       annotations=None, dictionaries=dictionaries)
        if arity is not None and len(tuples[0]) != arity:
            raise SchemaError("expected arity %d, got %d-tuples"
                              % (arity, len(tuples[0])))
        arity = len(tuples[0])
        shared = dictionary if dictionary is not None else Dictionary()
        data = np.empty((len(tuples), arity), dtype=np.uint32)
        for row, record in enumerate(tuples):
            if len(record) != arity:
                raise SchemaError("ragged tuple at row %d" % row)
            for col, value in enumerate(record):
                data[row, col] = shared.encode(value)
        return cls(name, data, annotations=annotations,
                   dictionaries=[shared] * arity)

    @classmethod
    def scalar(cls, name, value):
        """A 0-ary relation holding a single annotation (e.g. ``N`` in the
        paper's PageRank program)."""
        rel = cls(name, np.empty((1, 0), dtype=np.uint32),
                  annotations=np.asarray([value], dtype=np.float64))
        return rel

    # -- basic accessors ---------------------------------------------------

    @property
    def cardinality(self):
        """Number of tuples."""
        return int(self.data.shape[0])

    def column(self, index):
        """One column as a ``uint32`` array."""
        return self.data[:, index]

    def span(self, index):
        """``(smallest, largest)`` key of one column, ``None`` when the
        relation is empty; found once per :attr:`version`, which is
        what every cache of the relation's contents keys on."""
        if self._spans is None or self._spans[0] != self.version:
            self._spans = (self.version, {})
        spans = self._spans[1]
        if index not in spans:
            column = self.data[:, index]
            spans[index] = (int(column.min()), int(column.max())) \
                if column.size else None
        return spans[index]

    def is_scalar(self):
        """True for 0-ary relations (a bare annotation value)."""
        return self.arity == 0

    @property
    def scalar_value(self):
        """The annotation of a 0-ary relation."""
        if not self.is_scalar() or self.annotations is None \
                or self.annotations.size != 1:
            raise SchemaError("%s is not a scalar relation" % self.name)
        return float(self.annotations[0])

    # -- transformations ---------------------------------------------------

    def deduplicated(self, combine="last"):
        """Return a copy with duplicate key-tuples removed.

        ``combine`` selects how annotations of duplicates merge:
        ``"last"``, ``"sum"``, ``"min"``, or ``"max"``.  A relation
        already in canonical order — the engine's own aggregate and
        join outputs arrive that way — is recognized with one linear
        pass and returned as is, without a sort.
        """
        if self.cardinality == 0 or self.arity == 0 or self._canonical:
            return self
        if _rows_increase(self.data):
            self._canonical = True
            return self
        order = np.lexsort(tuple(self.data[:, c]
                                 for c in range(self.arity - 1, -1, -1)))
        data = self.data[order]
        distinct = np.ones(data.shape[0], dtype=bool)
        distinct[1:] = np.any(data[1:] != data[:-1], axis=1)
        if self.annotations is None:
            result = Relation(self.name, data[distinct], None,
                              self.dictionaries)
            result._canonical = True
            return result
        ann = self.annotations[order]
        group_ids = np.cumsum(distinct) - 1
        n_groups = int(group_ids[-1]) + 1
        if combine == "last":
            merged = np.empty(n_groups, dtype=np.float64)
            merged[group_ids] = ann  # later rows overwrite earlier ones
        elif combine == "sum":
            merged = np.zeros(n_groups, dtype=np.float64)
            np.add.at(merged, group_ids, ann)
        elif combine == "min":
            merged = np.full(n_groups, np.inf)
            np.minimum.at(merged, group_ids, ann)
        elif combine == "max":
            merged = np.full(n_groups, -np.inf)
            np.maximum.at(merged, group_ids, ann)
        else:
            raise ValueError("unknown combine mode %r" % (combine,))
        result = Relation(self.name, data[distinct], merged,
                          self.dictionaries)
        result._canonical = True
        return result

    # -- versioned mutation ------------------------------------------------

    def _ensure_delta(self):
        from .delta import DeltaStore
        if self.delta is None:
            self.delta = DeltaStore(self.cardinality)
        return self.delta

    def _canonicalize(self):
        """Rewrite ``data``/``annotations`` into canonical order in place.

        Canonical = lexsorted, duplicate-free — the order the trie build
        and the delta-store row algebra both assume.
        """
        if self._canonical:
            return
        dedup = self.deduplicated()
        if dedup is not self:
            self.data = dedup.data
            self.annotations = dedup.annotations
        self._canonical = True

    def apply_append(self, rows, annotations=None, combine="last"):
        """Append already-encoded rows in place; returns changed-row count.

        Keeps ``data``/``annotations`` effective (canonical order) and
        journals the change batch.  Re-appending an existing row is a
        no-op unless the relation is annotated and ``combine`` yields a
        different value — that is an *annotation rewrite*, journalled as
        a Δ−/Δ+ pair (it breaks the insert-only precondition semi-naive
        view deltas rely on).  Unannotated appends default missing
        ``annotations`` to 1.0 on annotated relations, mirroring
        ``TrieBuilder``.
        """
        from .delta import merge_sorted, row_view, rows_in
        if self.arity == 0:
            raise SchemaError("cannot append to scalar relation %s"
                              % self.name)
        rows = np.asarray(rows, dtype=np.uint32).reshape(-1, self.arity)
        if rows.shape[0] == 0:
            return 0
        annotated = self.annotations is not None
        if annotations is not None and not annotated:
            raise SchemaError("%s carries no annotation column" % self.name)
        ann = None
        if annotated:
            ann = np.ones(rows.shape[0], dtype=np.float64) \
                if annotations is None \
                else np.asarray(annotations, dtype=np.float64)
            if ann.shape != (rows.shape[0],):
                raise SchemaError(
                    "annotations must align with appended rows")
        batch = Relation(self.name, rows, ann, None).deduplicated(combine)
        rows, ann = batch.data, batch.annotations
        self._canonicalize()
        base_view = row_view(self.data) if self.cardinality \
            else np.empty(0, dtype=row_view(rows).dtype)
        batch_view = row_view(rows)
        present = rows_in(batch_view, base_view)
        new_rows = rows[~present]
        new_ann = None if ann is None else ann[~present]
        changed = int(new_rows.shape[0])
        rewrite_rows = rewrite_old = rewrite_new = None
        if annotated and present.any():
            slots = np.searchsorted(base_view, batch_view[present])
            old_vals = self.annotations[slots]
            incoming = ann[present]
            if combine == "last":
                new_vals = incoming
            elif combine == "sum":
                new_vals = old_vals + incoming
            elif combine == "min":
                new_vals = np.minimum(old_vals, incoming)
            elif combine == "max":
                new_vals = np.maximum(old_vals, incoming)
            else:
                raise ValueError("unknown combine mode %r" % (combine,))
            differs = new_vals != old_vals
            if differs.any():
                rewrite_rows = rows[present][differs]
                rewrite_old = old_vals[differs]
                rewrite_new = new_vals[differs]
                patched = self.annotations.copy()
                patched[slots[differs]] = rewrite_new
                self.annotations = patched
                changed += int(rewrite_rows.shape[0])
        if changed == 0:
            return 0
        self.version += 1
        delta = self._ensure_delta()
        if rewrite_rows is not None:
            delta.record(self.version, "-", rewrite_rows, rewrite_old)
            delta.record(self.version, "+", rewrite_rows, rewrite_new)
        if new_rows.shape[0]:
            self.data, self.annotations = merge_sorted(
                self.data, self.annotations, new_rows, new_ann)
            delta.record(self.version, "+", new_rows, new_ann)
        if delta.should_merge():
            delta.merge(self.cardinality, self.version)
        return changed

    def apply_delete(self, rows):
        """Delete already-encoded rows in place; returns removed count.

        Absent rows are ignored.  Removed rows (with their annotations)
        are journalled as a Δ− tombstone batch.
        """
        from .delta import row_view, rows_in
        if self.arity == 0:
            raise SchemaError("cannot delete from scalar relation %s"
                              % self.name)
        rows = np.asarray(rows, dtype=np.uint32).reshape(-1, self.arity)
        if rows.shape[0] == 0 or self.cardinality == 0:
            return 0
        self._canonicalize()
        batch = Relation(self.name, rows, None, None).deduplicated()
        base_view = row_view(self.data)
        present = rows_in(row_view(batch.data), base_view)
        hit = batch.data[present]
        if hit.shape[0] == 0:
            return 0
        slots = np.searchsorted(base_view, row_view(hit))
        old_ann = None if self.annotations is None \
            else self.annotations[slots].copy()
        keep = np.ones(self.cardinality, dtype=bool)
        keep[slots] = False
        self.data = self.data[keep]
        if self.annotations is not None:
            self.annotations = self.annotations[keep]
        self.version += 1
        delta = self._ensure_delta()
        delta.record(self.version, "-", hit, old_ann)
        if delta.should_merge():
            delta.merge(self.cardinality, self.version)
        return int(hit.shape[0])

    def project(self, columns):
        """Project onto the given column indexes (no deduplication)."""
        data = self.data[:, list(columns)]
        dicts = None
        if self.dictionaries is not None:
            dicts = [self.dictionaries[c] for c in columns]
        return Relation(self.name, data, self.annotations, dicts)

    def decoded_columns(self, rows=None, dictionaries=None):
        """One list of decoded values per column — all rows, or those
        ``rows`` indexes — through ``dictionaries`` (default: the
        relation's own; without any, the keys as Python ``int``).

        Decoding is columnar (:meth:`Dictionary.decode_many`), never a
        call per element; elements are the dictionaries' stored
        objects, so ``int`` node ids come back as Python ``int``.
        """
        data = self.data if rows is None else self.data[rows]
        if dictionaries is None:
            dictionaries = self.dictionaries
        if dictionaries is None:
            return [data[:, c].tolist() for c in range(self.arity)]
        return [dictionaries[c].decode_many(data[:, c])
                for c in range(self.arity)]

    def decoded_tuples(self, rows=None):
        """Tuples (all, or those at ``rows``) with dictionary decoding
        applied (if available), as a list."""
        if self.arity == 0:
            return [()] * (self.cardinality if rows is None
                           else len(rows))
        return list(zip(*self.decoded_columns(rows)))

    def __repr__(self):
        ann = "" if self.annotations is None else ", annotated"
        return "Relation(%s/%d, %d tuples%s)" % (
            self.name, self.arity, self.cardinality, ann)


def _rows_increase(data):
    """Whether every row is lexicographically greater than the one
    before it (canonical order: sorted and duplicate-free)."""
    later = np.zeros(data.shape[0] - 1, dtype=bool)
    tied = ~later
    for column in data.T:
        later |= tied & (column[1:] > column[:-1])
        tied &= column[1:] == column[:-1]
    return bool(later.all())


def relation_columns(relation):
    """Attribute names attached to a relation.

    Intermediate relations the executor passes between GHD bags carry an
    ``attr_names`` tuple naming their columns after query variables;
    base relations fall back to positional names.
    """
    return list(getattr(relation, "attr_names",
                        [str(i) for i in range(relation.arity)]))
