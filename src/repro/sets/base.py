"""Common interface for EmptyHeaded set layouts.

Every trie level in the storage engine is a *set* of 32-bit unsigned
integers stored in one of several physical layouts (Section 4.1 and
Appendix C.1 of the paper).  All layouts expose the same logical
interface — a sorted sequence of distinct ``uint32`` values — so the
execution engine can intersect and iterate sets without caring how they
are encoded.
"""

import abc

import numpy as np

from ..errors import LayoutError

#: Inclusive upper bound of the value domain (32-bit unsigned integers).
MAX_VALUE = 2 ** 32 - 1


def as_sorted_uint32(values):
    """Coerce ``values`` to a sorted, duplicate-free ``uint32`` array.

    This is the canonical exchange format between layouts: every layout
    can be built from it and decode back to it.

    Raises
    ------
    LayoutError
        If any value is negative or exceeds the 32-bit range.
    """
    arr = np.asarray(values)
    if arr.size == 0:
        return np.empty(0, dtype=np.uint32)
    if arr.dtype == np.uint32 and arr.ndim == 1 \
            and bool(np.all(arr[1:] > arr[:-1])):
        return arr  # canonical already: what every trie build passes
    if arr.dtype.kind not in "iu":
        if arr.dtype.kind == "f" and np.all(arr == np.floor(arr)):
            arr = arr.astype(np.int64)
        else:
            raise LayoutError("set values must be integers, got dtype %s"
                              % arr.dtype)
    arr = arr.astype(np.int64, copy=False)
    if arr.min() < 0 or arr.max() > MAX_VALUE:
        raise LayoutError("set values must fit in uint32, got range [%d, %d]"
                          % (arr.min(), arr.max()))
    return np.unique(arr).astype(np.uint32)


class SetLayout(abc.ABC):
    """Abstract base class for physical set layouts.

    Subclasses store an immutable sorted set of ``uint32`` values.  The
    two capabilities every layout must provide are decoding
    (:meth:`to_array`) and size metadata (:attr:`cardinality`,
    :attr:`min_value` / :attr:`max_value`); the intersection kernels in
    :mod:`repro.sets.intersect` dispatch on the concrete layout pair.
    """

    #: Short name used by the optimizer and in explain output.
    kind = "abstract"

    @property
    @abc.abstractmethod
    def cardinality(self):
        """Number of values in the set."""

    @abc.abstractmethod
    def to_array(self):
        """Decode to a sorted ``uint32`` numpy array (a fresh copy is not
        guaranteed; callers must not mutate the result)."""

    @property
    @abc.abstractmethod
    def min_value(self):
        """Smallest value, or ``None`` for the empty set."""

    @property
    @abc.abstractmethod
    def max_value(self):
        """Largest value, or ``None`` for the empty set."""

    @property
    def value_range(self):
        """``max - min + 1``, the span of the domain actually used.

        The set-level layout optimizer (paper Algorithm 3) compares this
        against the cardinality to estimate density.
        """
        if self.cardinality == 0:
            return 0
        return int(self.max_value) - int(self.min_value) + 1

    @property
    def density(self):
        """Fraction of the occupied span that is populated, in ``[0, 1]``."""
        span = self.value_range
        return 0.0 if span == 0 else self.cardinality / span

    def contains(self, value):
        """Membership test; layouts override with faster native probes."""
        arr = self.to_array()
        idx = np.searchsorted(arr, np.uint32(value))
        return bool(idx < arr.size and arr[idx] == np.uint32(value))

    def rank(self, value):
        """Index of ``value`` in sorted order.

        Used by the trie to map a set element to its child pointer /
        annotation slot.  Raises :class:`KeyError` when absent.
        """
        arr = self.to_array()
        idx = int(np.searchsorted(arr, np.uint32(value)))
        if idx >= arr.size or arr[idx] != np.uint32(value):
            raise KeyError(value)
        return idx

    @property
    def nbytes(self):
        """Approximate encoded size in bytes (layout-specific)."""
        return int(self.to_array().nbytes)

    def __len__(self):
        return self.cardinality

    def __iter__(self):
        return iter(int(v) for v in self.to_array())

    def __contains__(self, value):
        return self.contains(value)

    def __eq__(self, other):
        if not isinstance(other, SetLayout):
            return NotImplemented
        return np.array_equal(self.to_array(), other.to_array())

    def __hash__(self):
        return hash(self.to_array().tobytes())

    def __repr__(self):
        card = self.cardinality
        preview = ", ".join(str(v) for v in self.to_array()[:6])
        if card > 6:
            preview += ", ..."
        return "%s([%s], n=%d)" % (type(self).__name__, preview, card)
