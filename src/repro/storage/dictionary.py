"""Dictionary encoding: arbitrary values ↔ dense 32-bit keys (paper §2.2).

EmptyHeaded tries store only ``uint32`` values, so input tables of
arbitrary type are dictionary-encoded first.  A database holds one
dictionary, and every encoded column of its relations uses it, so a
value has one id everywhere and joins compare ids.  The *order* in which
ids are assigned matters for performance (it determines set density in
the trie): ``Database.load_graph`` encodes a graph's new nodes in the
order :mod:`repro.storage.ordering` ranks them.
"""

import numpy as np

from ..errors import SchemaError


class Dictionary:
    """A bijective mapping from hashable values to dense ``uint32`` ids.

    Ids are assigned on first encode in insertion order and never
    change afterwards.

    Examples
    --------
    >>> d = Dictionary()
    >>> d.encode("alice"), d.encode("bob"), d.encode("alice")
    (0, 1, 0)
    >>> d.decode(1)
    'bob'
    """

    def __init__(self):
        self._value_to_id = {}
        self._id_to_value = []
        # Decode column: an int64 array with _id_array[id] == value,
        # valid only while every stored value is a plain int (node
        # ids).  Built on the first columnar decode and dropped when a
        # new value arrives.
        self._id_array = None
        # Set once a value that is not a plain int64 was seen: no
        # later value can make the column representable again.
        self._mixed = False

    def __len__(self):
        return len(self._id_to_value)

    def __contains__(self, value):
        return value in self._value_to_id

    def encode(self, value):
        """Return the id for ``value``, assigning a fresh one on miss; a
        numpy scalar is stored as its Python value (decoding stays
        columnar and JSON-safe)."""
        existing = self._value_to_id.get(value)
        if existing is not None:
            return existing
        new_id = len(self._id_to_value)
        if new_id > 2 ** 32 - 1:
            raise SchemaError("dictionary exceeded the 32-bit key space")
        if isinstance(value, np.generic):  # equal hash: lookups still hit
            value = value.item()
        self._value_to_id[value] = new_id
        self._id_to_value.append(value)
        self._id_array = None
        return new_id

    def encode_many(self, values):
        """Encode an iterable of values to a ``uint32`` array."""
        return np.fromiter((self.encode(v) for v in values),
                           dtype=np.uint32, count=len(values)
                           if hasattr(values, "__len__") else -1)

    def lookup(self, value):
        """Id for ``value`` without assigning; raises ``KeyError`` on miss."""
        return self._value_to_id[value]

    def decode(self, key):
        """Original value for id ``key``."""
        key = int(key)
        if not 0 <= key < len(self._id_to_value):
            raise KeyError(key)
        if self._id_array is not None:
            return int(self._id_array[key])
        return self._id_to_value[key]

    def decode_many(self, keys):
        """Decode ids (an array or a sequence) to a list of the
        original values.

        Columnar: one ``take`` when every stored value is a plain
        ``int`` — the elements come back as Python ``int``, as stored —
        and one list comprehension over the value table otherwise.
        """
        keys = np.asarray(keys, dtype=np.intp)
        column = self._int_column()
        if column is not None:
            return column.take(keys).tolist()
        table = self._id_to_value
        return [table[key] for key in keys.tolist()]

    def _int_column(self):
        """The decode column, or ``None`` unless every stored value is
        a plain ``int`` that fits ``int64``."""
        values = self._id_to_value
        if self._id_array is None and not self._mixed and values:
            self._mixed = not all(type(value) is int for value in values)
            if not self._mixed:
                try:
                    self._id_array = np.asarray(values, dtype=np.int64)
                except OverflowError:
                    self._mixed = True
        return self._id_array
