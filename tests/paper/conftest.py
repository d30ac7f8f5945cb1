"""Cached Table 3 analogs for the paper-shape tests.

Loading a dataset and building its tries is the expensive part of a
shape test, so the edge arrays and the databases built on them are
cached for the session; a test resets a database's op counter before
it reads it.  The paper likewise excludes loading and index time from
its measurements (§5.1.3).
"""

from repro import Database
from repro.graphs import load_dataset, symmetric_filter, undirect

_EDGE_CACHE = {}
_DB_CACHE = {}


def edges_of(name):
    """Cached raw edge array of a Table 3 analog."""
    if name not in _EDGE_CACHE:
        _EDGE_CACHE[name] = load_dataset(name)
    return _EDGE_CACHE[name]


def pruned_edges_of(name):
    """Symmetrically filtered (degree-ordered ids applied by the db)."""
    return symmetric_filter(edges_of(name))


def undirected_edges_of(name):
    return undirect(edges_of(name))


def database_for(name, prune=False, key=None, **overrides):
    """Cached Database with the named dataset loaded.

    ``key`` must distinguish configs.  The paper-table shapes compare
    the cost model's lane ops across layout / SIMD / algorithm
    ablations, which only the set-at-a-time interpreter charges, so
    the databases run the interpreted oracle unless a test asks
    otherwise.
    """
    cache_key = (name, prune, key)
    if cache_key not in _DB_CACHE:
        overrides.setdefault("execution_mode", "interpreted")
        db = Database(**overrides)
        db.load_graph("Edge", [tuple(e) for e in edges_of(name)],
                      prune=prune)
        _DB_CACHE[cache_key] = db
    return _DB_CACHE[cache_key]
