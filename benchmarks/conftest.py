"""Shared benchmark infrastructure.

Benchmarks mirror the paper's §5 evaluation at laptop scale: every table
and figure has one ``bench_*`` module whose pytest-benchmark groups
reproduce the table's rows.  Engines that exceed :data:`TIMEOUT_SECONDS`
are reported as "t/o", matching the paper's 30-minute convention.

Datasets and databases are cached per session — the paper likewise
excludes loading/index time from all measurements (§5.1.3).
"""

import signal
from contextlib import contextmanager

import pytest

from repro import Database
from repro.graphs import load_dataset, symmetric_filter, undirect

#: Benchmark-scale stand-in for the paper's 30-minute timeout.
TIMEOUT_SECONDS = 20


class Timeout(Exception):
    """Raised when a measured engine exceeds the benchmark budget."""


@contextmanager
def time_limit(seconds=TIMEOUT_SECONDS):
    """SIGALRM-based wall-clock budget for one engine run."""
    def handler(signum, frame):
        raise Timeout()

    previous = signal.signal(signal.SIGALRM, handler)
    signal.alarm(int(seconds))
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def run_or_timeout(benchmark, fn, seconds=TIMEOUT_SECONDS, prewarm=True):
    """Benchmark ``fn`` once; skip (as "t/o") if over budget —
    the same semantics as the paper's "t/o" table entries.

    A pre-warming call builds tries/indexes outside the measurement,
    matching the paper's §5.1.3 methodology (index creation excluded).
    """
    try:
        if prewarm:
            with time_limit(seconds):
                fn()
        with time_limit(seconds):
            result = benchmark.pedantic(fn, rounds=1, iterations=1,
                                        warmup_rounds=0)
        return result
    except Timeout:
        pytest.skip("t/o (exceeded %ds budget; the paper reports "
                    "timeouts the same way)" % seconds)


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

    ``key`` must distinguish configs; trie/index build time stays out of
    the measurement, matching §5.1.3.  The paper-table modules compare
    the cost model's lane ops across layout / SIMD / algorithm
    ablations, which only the set-at-a-time interpreter charges, so
    the databases run the interpreted oracle unless a module asks
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


@pytest.fixture(autouse=True)
def _reset_counters():
    """Zero every cached database's op counter between benchmarks."""
    yield
    for db in _DB_CACHE.values():
        db.counter.reset()
