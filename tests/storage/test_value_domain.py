"""One value domain per database: every loader encodes through the
database's one dictionary, so a join across loaders meets equal values.

``load_graph``'s node ordering only chooses which codes a graph's new
values get; a value the database already holds keeps its code.  Every
answer here is checked against decoded expected values, never against
another engine path.
"""

import random

import numpy as np
import pytest

from repro import Database
from repro.errors import SchemaError
from repro.storage import Dictionary, Relation, order_nodes
from repro.storage.persistence import save_catalog

HUB_EDGES = [(1, 2), (2, 3), (3, 4), (3, 5)]
HUB_JOIN = "In(x) :- Edge(x,z),Hub(z)."


@pytest.mark.parametrize("mode", ["compiled", "interpreted"])
def test_graph_joins_an_added_relation_on_values(mode):
    db = Database(execution_mode=mode)
    db.load_graph("Edge", HUB_EDGES)
    db.add_relation("Hub", [(5,)])
    assert sorted(db.query(HUB_JOIN).tuples()) == [(3,)]


def seeded_graph(n_nodes=60, n_edges=150, seed=7):
    rng = random.Random(seed)
    edges = set()
    while len(edges) < n_edges:
        u, v = rng.randrange(n_nodes), rng.randrange(n_nodes)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


@pytest.mark.parametrize("mode", ["compiled", "interpreted"])
def test_keyed_two_hop_count_matches_numpy(mode):
    n_nodes = 60
    edges = seeded_graph(n_nodes)
    sources = random.Random(3).sample(range(n_nodes), 40)
    db = Database(execution_mode=mode)
    db.load_graph("Edge", edges)
    db.add_relation("Src", [(c,) for c in sources])
    counts = db.query("HopB(c;w:long) :- Src(c),Edge(c,y),Edge(y,z); "
                      "w=<<COUNT(*)>>.").to_dict()
    adjacency = np.zeros((n_nodes, n_nodes), dtype=np.int64)
    for u, v in edges:
        adjacency[u, v] = adjacency[v, u] = 1
    walks = (adjacency @ adjacency).sum(axis=1)
    expected = {c: float(walks[c]) for c in sources if walks[c]}
    assert counts == expected


def test_saved_database_keeps_its_value_domain(tmp_path):
    db = Database()
    db.add_relation("A", [("a", "b")])
    db.save(str(tmp_path / "db"))
    loaded = Database.load(str(tmp_path / "db"))
    loaded.add_relation("S", [("b",)])
    assert loaded.query("Q(x) :- A(x,y),S(y).").tuples() == [("a",)]


def test_saved_graph_and_added_relation_share_codes(tmp_path):
    db = Database()
    db.load_graph("Edge", HUB_EDGES)
    db.save(str(tmp_path / "db"))
    loaded = Database.load(str(tmp_path / "db"))
    assert loaded.relation("Edge").dictionaries[0] is loaded._dictionary
    loaded.add_relation("Hub", [(5,)])
    assert loaded.query(HUB_JOIN).tuples() == [(3,)]


def test_file_with_two_dictionaries_is_refused(tmp_path):
    first, second = Dictionary(), Dictionary()
    first.encode("a")
    second.encode("b")
    path = str(tmp_path / "old.npz")
    save_catalog(path, {"A": Relation("A", [[0]], dictionaries=[first]),
                        "B": Relation("B", [[0]], dictionaries=[second])})
    with pytest.raises(SchemaError, match="more than one dictionary"):
        Database.load(path)


@pytest.mark.parametrize("scheme", ["degree", "random", "bfs", "hybrid"])
def test_graph_in_an_empty_database_gets_its_ordering_codes(scheme):
    edges = seeded_graph(seed=11)
    db = Database()
    db.load_graph("Edge", edges, ordering=scheme, undirected=False)
    nodes = list(dict.fromkeys(value for edge in edges for value in edge))
    local = {value: index for index, value in enumerate(nodes)}
    data = np.array([(local[u], local[v]) for u, v in edges])
    permutation = order_nodes(data, len(nodes), scheme=scheme, seed=0)
    assert db.relation("Edge").dictionaries == [db._dictionary] * 2
    assert [db._dictionary.lookup(value) for value in nodes] \
        == permutation.tolist()


def test_second_graph_keeps_the_codes_its_values_have():
    db = Database()
    db.load_graph("G", [("a", "b"), ("b", "c")])
    before = {value: db._dictionary.lookup(value) for value in "abc"}
    # ``d`` has the highest degree in H, yet it is new, so it follows
    # every code the database already holds.
    db.load_graph("H", [("d", "c"), ("d", "e"), ("d", "a"), ("e", "c")])
    assert {value: db._dictionary.lookup(value) for value in "abc"} \
        == before
    assert db._dictionary.lookup("d") == 3
    assert db._dictionary.lookup("e") == 4
    assert sorted(db.query("J(x,y) :- G(x,y),H(z,y).").tuples()) \
        == [("b", "a"), ("b", "c")]
