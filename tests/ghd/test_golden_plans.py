"""Golden GHD plans for the end-to-end benchmark's query texts.

The optimizer's choice for every text `benchmarks/e2e/workloads.py`
runs (plus Table 13's SB at two size profiles) is pinned here: each
bag's ``chi`` and edge indexes, the decomposition's width and the
global attribute order.  The literals were captured at the commit
before the in-tree AGM solver replaced ``scipy.optimize.linprog``, so
a solver, cache-key or tie-breaking change that flips a plan fails
here rather than as a silently different lane-op count.

``python tests/ghd/test_golden_plans.py`` prints the current plans in
the literal's format; a difference is a finding to explain, not a
literal to paste.
"""

from unittest import mock

import numpy as np
import pytest

from repro import Database
from repro.ghd.ghd import ghd_shape
from repro.graphs.patterns import selection_barbell_count
from repro.lir import passes

# -- the benchmark's texts (benchmarks/e2e/workloads.py) ----------------------

TRIANGLE = ("TriangleCount(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); "
            "w=<<COUNT(*)>>.")
FOUR_CLIQUE = ("FourCliqueCount(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z),"
               "Edge(x,u),Edge(y,u),Edge(z,u); w=<<COUNT(*)>>.")
LOLLIPOP = ("LollipopCount(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z),"
            "Edge(x,u); w=<<COUNT(*)>>.")
BARBELL = ("BarbellCount(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z),"
           "Edge(x,p),Edge(p,q),Edge(q,r),Edge(p,r); w=<<COUNT(*)>>.")
PAGERANK = (
    "N(;w:int) :- Edge(x,y); w=<<COUNT(x)>>.\n"
    "InvDeg(x;d:float) :- Edge(x,z); d=1/<<COUNT(z)>>.\n"
    "PageRank(x;y:float) :- Edge(x,z); y=1/N.\n"
    "PageRank(x;y:float)*[i=5] :- Edge(x,z),PageRank(z),InvDeg(z); "
    "y=0.15+0.85*<<SUM(z)>>.\n")
SSSP = ("SSSP(x;y:int) :- Edge(%d,x); y=1.\n"
        "SSSP(x;y:int)* :- Edge(w,x),SSSP(w); y=<<MIN(w)>>+1.\n")
SK4 = ("SK4(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z),Edge(x,u),"
       "Edge(y,u),Edge(z,u),Edge(x,%d); w=<<COUNT(*)>>.")
TWO_HOP = "Hop(;w:long) :- Edge(%d,y),Edge(y,z); w=<<COUNT(*)>>."
VIEW = "T(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>."

NODES = 120


def _edges():
    """A fixed skewed graph: endpoint ``i`` drawn with weight
    ``1/(i+1)``, self-loops and repeats dropped."""
    rng = np.random.default_rng(20160626)
    weights = 1.0 / np.arange(1, NODES + 1)
    pairs = rng.choice(NODES, size=(600, 2), p=weights / weights.sum())
    return sorted({(int(min(u, v)), int(max(u, v)))
                   for u, v in pairs if u != v})


def _degrees(edges):
    degree = [0] * NODES
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    return degree


def _database(prune=False):
    # the default engine plans a rule once; the oracle re-plans a
    # recursive rule every round, with the same result each time
    db = Database(execution_mode="compiled")
    db.load_graph("Edge", _edges(), prune=prune)
    return db


def chosen_plans(db, text):
    """Every GHD choice ``db.query(text)`` makes, in planning order."""
    plans = []
    real_decompose = passes.decompose
    real_order = passes.global_attribute_order

    def decompose(*args, **kwargs):
        ghd = real_decompose(*args, **kwargs)
        plans.append({"bags": ghd_shape(ghd), "width": ghd.width()})
        return ghd

    def global_attribute_order(*args, **kwargs):
        order = real_order(*args, **kwargs)
        plans[-1]["order"] = tuple(order)
        return order

    with mock.patch.object(passes, "decompose", decompose), \
            mock.patch.object(passes, "global_attribute_order",
                              global_attribute_order):
        db.query(text)
    return plans


def capture():
    """``{case: [plan, ...]}`` for every pinned text."""
    degree = _degrees(_edges())
    by_degree = sorted(range(NODES), key=lambda n: (-degree[n], n))
    hub, median = by_degree[0], by_degree[NODES // 2]
    cases = {
        "triangle": (_database(prune=True), TRIANGLE),
        "four_clique": (_database(prune=True), FOUR_CLIQUE),
        "lollipop": (_database(), LOLLIPOP),
        "barbell": (_database(), BARBELL),
        "pagerank": (_database(), PAGERANK),
        "sssp": (_database(), SSSP % hub),
        "selected_four_clique": (_database(), SK4 % median),
        "two_hop": (_database(), TWO_HOP % median),
        "view": (_database(), VIEW),
        # SB with the selected atoms at their real size: a degree
        "selected_barbell": (_database(),
                             selection_barbell_count(median)),
    }
    # SB with every atom, selected or not, costed at one size
    equal = _database()
    equal.set_cardinality_hint("Edge", 1000)
    cases["selected_barbell_equal_sizes"] = (
        equal, selection_barbell_count(median))
    return {name: chosen_plans(db, text)
            for name, (db, text) in cases.items()}


GOLDEN = {'barbell': [{'bags': (('x', 'p'),
                       (3,),
                       ((('p', 'q', 'r'), (4, 5, 6), ()),
                        (('x', 'y', 'z'), (0, 1, 2), ()))),
              'order': ('x', 'p', 'q', 'r', 'y', 'z'),
              'width': 1.5}],
 'four_clique': [{'bags': (('x', 'y', 'z', 'u'), (0, 1, 2, 3, 4, 5), ()),
                  'order': ('x', 'y', 'z', 'u'),
                  'width': 2.0}],
 'lollipop': [{'bags': (('x', 'u'),
                        (3,),
                        ((('x', 'y', 'z'), (0, 1, 2), ()),)),
               'order': ('x', 'u', 'y', 'z'),
               'width': 1.5}],
 'pagerank': [{'bags': (('x', 'y'), (0,), ()),
               'order': ('x', 'y'),
               'width': 1.0},
              {'bags': (('x', 'z'), (0,), ()),
               'order': ('x', 'z'),
               'width': 1.0},
              {'bags': (('x',), (0,), ()), 'order': ('x',), 'width': 1.0},
              {'bags': (('x', 'z'), (0, 1, 2), ()),
               'order': ('x', 'z'),
               'width': 1.0}],
 'selected_barbell': [{'bags': (('x', 'y', 'z'),
                                (0, 1, 2, 3),
                                ((('u', 'v', 't'), (4, 5, 6, 7), ()),)),
                       'order': ('x', 'y', 'z', 'u', 'v', 't'),
                       'width': 1.5}],
 'selected_barbell_equal_sizes': [{'bags': (('x', 'y', 'z'),
                                            (0, 1, 2, 3),
                                            ((('u', 'v', 't'),
                                              (4, 5, 6, 7),
                                              ()),)),
                                   'order': ('x',
                                             'y',
                                             'z',
                                             'u',
                                             'v',
                                             't'),
                                   'width': 1.5}],
 'selected_four_clique': [{'bags': (('x', 'y', 'z', 'u'),
                                    (0, 1, 2, 3, 4, 5, 6),
                                    ()),
                           'order': ('x', 'y', 'z', 'u'),
                           'width': 2.0}],
 'sssp': [{'bags': (('x',), (0,), ()), 'order': ('x',), 'width': 1.0},
          {'bags': (('w', 'x'), (0, 1), ()),
           'order': ('w', 'x'),
           'width': 1.0}],
 'triangle': [{'bags': (('x', 'y', 'z'), (0, 1, 2), ()),
               'order': ('x', 'y', 'z'),
               'width': 1.5}],
 'two_hop': [{'bags': (('y', 'z'), (0, 1), ()),
              'order': ('y', 'z'),
              'width': 1.0}],
 'view': [{'bags': (('x', 'y', 'z'), (0, 1, 2), ()),
           'order': ('x', 'y', 'z'),
           'width': 1.5}]}


@pytest.fixture(scope="module")
def captured():
    return capture()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_plan_matches_golden(captured, case):
    plans, golden = captured[case], GOLDEN[case]
    assert len(plans) == len(golden)
    for plan, expected in zip(plans, golden):
        assert plan["bags"] == expected["bags"]
        assert plan["order"] == expected["order"]
        assert plan["width"] == pytest.approx(expected["width"], abs=1e-9)


def test_every_case_is_pinned(captured):
    assert sorted(captured) == sorted(GOLDEN)


def test_sssp_round_binds_the_delta_first():
    """The GHD and global order of an SSSP round are the golden ones
    above; what a seminaive round adds is the *bag* order: the delta
    atom's ``w`` ahead of the output ``x``, which reads ``Edge`` in
    its natural key order — the trie PageRank builds too — and never
    the transposed one."""
    degree = _degrees(_edges())
    hub = min(range(NODES), key=lambda n: (-degree[n], n))
    db = _database()
    db.query(SSSP % hub)
    (bag,) = db._executor.last_plan.bags
    assert bag.eval_order == ("w", "x") and bag.out_attrs == ("x",)
    (round_rule,) = [compiled for compiled
                     in db._plan_cache._rules.values()
                     if compiled.rule.delta is not None]
    (compiled_bag,) = round_rule.bags.values()
    assert {bag_input.name: bag_input.trie.key_order
            for bag_input in compiled_bag.base_inputs} \
        == {"Edge": (0, 1), "SSSP": (0,)}
    assert compiled_bag.generated.unordered
    key_orders = {key[2] for key in db._trie_cache._tries}
    assert (1, 0) not in key_orders and (0, 1) in key_orders


if __name__ == "__main__":
    import pprint
    pprint.pprint(capture(), width=76, sort_dicts=True)
