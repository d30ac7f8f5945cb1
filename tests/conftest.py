"""Shared fixtures: small deterministic graphs and databases."""

import itertools
import random

import numpy as np
import pytest

from repro import Database


def random_undirected_edges(n_nodes, n_edges, seed=0):
    """Deterministic random simple undirected edge list (src < dst)."""
    rng = random.Random(seed)
    edges = set()
    attempts = 0
    while len(edges) < n_edges and attempts < 50 * n_edges:
        u, v = rng.randrange(n_nodes), rng.randrange(n_nodes)
        attempts += 1
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def bag_inputs(db, atoms):
    """``(specs, tries, inputs)`` for one bag over stored binary
    relations: the kernel's ``InputSpec``s, the ``(0, 1)``-ordered
    tries, and the interpreter's ``BagInput``s, from ``(relation name,
    variables, annotated)`` triples."""
    from repro.engine.codegen import InputSpec
    from repro.engine.generic_join import BagInput
    specs, tries, inputs = [], [], []
    for name, variables, annotated in atoms:
        trie = db._trie_cache.get(db.catalog[name], (0, 1),
                                  db.config.ablation.layout_level)
        specs.append(InputSpec(name, variables, annotated=annotated))
        tries.append(trie)
        inputs.append(BagInput(trie, variables, annotated=annotated,
                               name=name))
    return specs, tries, inputs


def clique_atoms(order, reverse=False):
    """One unannotated ``Edge(a,b)`` atom per pair ``a < b`` of the
    attribute order — the clique pattern on a pruned graph, where every
    atom reads the same ``(src, dst)`` trie."""
    pairs = [(a, b) for i, a in enumerate(order) for b in order[i + 1:]]
    if reverse:
        pairs.reverse()
    return [("Edge", pair, False) for pair in pairs]


def record_leaf_folds(monkeypatch):
    """A list that, from now on, names how each kernel's prefix-output
    leaf folded: ``weighted`` (pre-multiplied unary factors),
    ``counts`` (the level's row counts alone, which charge no lane
    op) or ``blocks`` (block by block, as any leaf may)."""
    from repro.engine import fused
    folds = []
    fold_leaf = fused.FusedBagKernel._fold_leaf

    def recorded(kernel, level, *args):
        counter = args[-1]
        charges = counter.intersections
        result = fold_leaf(kernel, level, *args)
        folds.append("weighted" if level.weight is not None
                     else "blocks" if counter.intersections > charges
                     else "counts")
        return result
    monkeypatch.setattr(fused.FusedBagKernel, "_fold_leaf", recorded)
    return folds


def drop_delta_terms(monkeypatch):
    """Plant a delta-route bug: a view refresh down the delta route
    keeps the view's old contents and drops every Δ-term."""
    from repro.engine import incremental
    monkeypatch.setattr(incremental, "_combine",
                        lambda old, rule, signed_terms: old)


def forced_delta_row():
    """The mutation matrix cut to its ``forced-delta`` row, which sends
    every refresh the delta route can take down it."""
    from repro.engine.config import enumerate_mutation_matrix
    return [row for row in enumerate_mutation_matrix()
            if row[0] == "forced-delta"]


def brute_force_triangles(edges):
    """Reference triangle count over undirected edges."""
    adjacency = {}
    nodes = set()
    for u, v in edges:
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
        nodes.update((u, v))
    return sum(
        1 for a, b, c in itertools.combinations(sorted(nodes), 3)
        if b in adjacency[a] and c in adjacency[a] and c in adjacency[b])


def brute_force_four_cliques(edges):
    """Reference 4-clique count over undirected edges."""
    adjacency = {}
    nodes = set()
    for u, v in edges:
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
        nodes.update((u, v))
    return sum(
        1 for combo in itertools.combinations(sorted(nodes), 4)
        if all(b in adjacency[a]
               for a, b in itertools.combinations(combo, 2)))


@pytest.fixture
def small_edges():
    """40-node, 150-edge random graph with a few dozen triangles."""
    return random_undirected_edges(40, 150, seed=42)


@pytest.fixture
def small_db(small_edges):
    """Database with the small graph loaded undirected (not pruned)."""
    db = Database()
    db.load_graph("Edge", small_edges, undirected=True)
    return db


@pytest.fixture
def pruned_db(small_edges):
    """Database with the small graph symmetrically filtered."""
    db = Database()
    db.load_graph("Edge", small_edges, prune=True)
    return db


@pytest.fixture
def k5_db():
    """Complete graph K5, pruned — exactly C(5,3)=10 triangles."""
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    db = Database()
    db.load_graph("Edge", edges, prune=True)
    return db


def sorted_array(values):
    """Sorted unique uint32 array from any iterable (test helper)."""
    return np.unique(np.asarray(list(values), dtype=np.uint32))
