"""Appendix C.1: encoded sizes of the compressed set layouts.

The paper's Appendix C introduces pshort/variant/bitpacked as
*compression* layouts: they shrink clustered data well but pay a
decode on every intersection (which is why they never win in Figure
9).  The decode tax is a clock reading, gated in
``benchmarks/floors.py``.
"""

import numpy as np

from repro.sets import BitPackedSet, UintSet, VariantSet


def test_compressed_layouts_smaller_on_dense_data():
    """Variant/bitpacked beat uint on bytes for clustered neighborhoods
    (the paper: better compression than LZO/Snappy-class tools)."""
    dense_run = np.arange(10_000, 14_096)
    uint_bytes = UintSet(dense_run).nbytes
    assert VariantSet(dense_run).nbytes < uint_bytes / 3
    assert BitPackedSet(dense_run).nbytes < uint_bytes / 8
