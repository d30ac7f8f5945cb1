"""The four workloads: sizes, seed-derived operation lists, answers.

A workload is a fixed list of operations cut into identical *blocks*;
sizes were calibrated once (block of 0.5 to 1.3 s at the commit that
added the benchmark) and are frozen here.  Nothing is scaled or
budgeted at run time: ``--seconds`` only picks how many of the
identical blocks are run, in proportion to :data:`RUN_SECONDS`.

``plan(name, seed)`` is a pure function of its arguments, so the load
generator and the engine child each rebuild the same inputs from the
seed and nothing but the seed crosses the process boundary.
"""

from dataclasses import dataclass

from . import inputs

#: ``run_seconds`` of BENCHMARK.json: the measured time ``blocks`` below
#: were sized for.
RUN_SECONDS = 16

#: Held-out seed for checks made after a change was written against
#: the default one (``seed`` in BENCHMARK.json's command is the
#: driver's to choose; 20160626 is the harness default).
DEFAULT_SEED = 20160626
HELD_OUT_SEED = 20160701

@dataclass(frozen=True)
class Spec:
    name: str
    kind: str           # engine process: "lib", "cli" or "serve"
    why: str
    nodes: int
    edges: int
    exponent: float     # power-law exponent of the Chung-Lu graph
    blocks: int         # timed blocks at RUN_SECONDS
    smoke_nodes: int
    smoke_edges: int
    stream: int         # rng stream, so workloads draw independent graphs


SPECS = {spec.name: spec for spec in (
    Spec("patterns", "lib",
         "warm library pattern counts (Tables 5/8): bag evaluation "
         "dominates, front-end, storage and serve changes must not show",
         650, 2200, 2.1, 24, 150, 450, 1),
    Spec("analytics", "lib",
         "warm library PageRank and SSSP (Tables 6/7): many short rule "
         "executions, trie rebuilds per round and a large result decode",
         20000, 100000, 2.1, 24, 600, 2400, 2),
    Spec("cli_cold", "cli",
         "cold `repro query` process (Table 13 selections): interpreter "
         "start, import, load, parse, GHD search and trie build paid once",
         1200, 4500, 2.1, 24, 150, 450, 3),
    Spec("serve_mixed", "serve",
         "`repro serve` daemon, 2 closed-loop clients: cache hits, misses "
         "and writes that invalidate and refresh a materialized view",
         300, 1000, 2.6, 24, 60, 160, 4),
)}

# -- query texts (inputs to the program under test) --------------------------

TRIANGLE = ("TriangleCount(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); "
            "w=<<COUNT(*)>>.")
FOUR_CLIQUE = ("FourCliqueCount(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z),"
               "Edge(x,u),Edge(y,u),Edge(z,u); w=<<COUNT(*)>>.")
LOLLIPOP = ("LollipopCount(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z),"
            "Edge(x,u); w=<<COUNT(*)>>.")
BARBELL = ("BarbellCount(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z),"
           "Edge(x,p),Edge(p,q),Edge(q,r),Edge(p,r); w=<<COUNT(*)>>.")

PAGERANK_ITERATIONS = 5
PAGERANK = (
    "N(;w:int) :- Edge(x,y); w=<<COUNT(x)>>.\n"
    "InvDeg(x;d:float) :- Edge(x,z); d=1/<<COUNT(z)>>.\n"
    "PageRank(x;y:float) :- Edge(x,z); y=1/N.\n"
    "PageRank(x;y:float)*[i=%d] :- Edge(x,z),PageRank(z),InvDeg(z); "
    "y=0.15+0.85*<<SUM(z)>>.\n" % PAGERANK_ITERATIONS)


def sssp(source):
    return ("SSSP(x;y:int) :- Edge(%d,x); y=1.\n"
            "SSSP(x;y:int)* :- Edge(w,x),SSSP(w); y=<<MIN(w)>>+1.\n"
            % source)


def selected_four_clique(node):
    """SK4 (Table 13): 4-cliques one step from a selected node."""
    return ("SK4(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z),Edge(x,u),"
            "Edge(y,u),Edge(z,u),Edge(x,%d); w=<<COUNT(*)>>." % node)


#: The materialized view every ``serve_mixed`` write makes stale.
VIEW_NAME = "T"
VIEW = "T(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>."

#: Hot programs, one set per connection: a connection's first read of
#: each after a write is a refill and the rest are hits, whatever the
#: other connection is doing, so every block holds the same work.
HOT_VIEW = ("EdgesAndTriangles%d(;w:float) :- Edge(x,y); "
            "w=<<COUNT(*)>>*%d+T.")
HOT_DEGREES = ("Degree(x;d:long) :- Edge(x,y); d=<<COUNT(*)>>.",
               "InDegree(x;d:long) :- Edge(y,x); d=<<COUNT(*)>>.")


def two_hop(head, node):
    return ("%s(;w:long) :- Edge(%d,y),Edge(y,z); w=<<COUNT(*)>>."
            % (head, node))


#: Requests per connection and block, and how many of them are what.
SERVE_CONNECTIONS = 2
SERVE_REQUESTS = 120
SERVE_WRITES = 12       # connection 0 only; append, delete, append, ...
SERVE_MISSES = 24       # per connection
SERVE_BATCH_EDGES = 4   # undirected, so 8 rows per write
SMOKE_SERVE_REQUESTS = 30
SMOKE_SERVE_WRITES = 4
SMOKE_SERVE_MISSES = 6


def blocks_for(spec, seconds, smoke=False):
    if smoke:
        return 3
    return max(3, round(spec.blocks * seconds / RUN_SECONDS))


def plan(name, seed, smoke=False):
    """Inputs and one block's operations for ``name`` at ``seed``."""
    spec = SPECS[name]
    n_nodes = spec.smoke_nodes if smoke else spec.nodes
    n_edges = spec.smoke_edges if smoke else spec.edges
    rng = inputs.rng_for(seed, spec.stream)
    edges = inputs.chung_lu(n_nodes, n_edges, spec.exponent, rng)
    ranked = inputs.nodes_by_degree(edges, n_nodes)
    hub, median = int(ranked[0]), int(ranked[len(ranked) // 2])
    made = {"workload": name, "kind": spec.kind, "nodes": n_nodes,
            "edges": edges}
    if name == "patterns":
        made["ops"] = [
            {"kind": "triangle", "db": "pruned", "text": TRIANGLE},
            {"kind": "four_clique", "db": "pruned", "text": FOUR_CLIQUE},
            {"kind": "lollipop", "db": "full", "text": LOLLIPOP},
            {"kind": "barbell", "db": "full", "text": BARBELL}]
        for op in made["ops"]:
            op["read"] = "scalar"
    elif name == "analytics":
        made["ops"] = [
            {"kind": "pagerank", "db": "full", "text": PAGERANK,
             "iterations": PAGERANK_ITERATIONS},
            {"kind": "sssp", "db": "full", "text": sssp(hub),
             "source": hub},
            {"kind": "sssp", "db": "full", "text": sssp(median),
             "source": median}]
        for op in made["ops"]:
            op["read"] = "dict"
    elif name == "cli_cold":
        # Of the median-degree nodes, the one in the quietest
        # neighbourhood: few matches whatever the seed, so the process
        # is front-end work (import, load, GHD search) and a small kernel.
        degree = inputs.degrees(edges, n_nodes)
        neighbours = inputs.adjacency(edges, n_nodes)
        node = min((int(n) for n in ranked if degree[n] == degree[median]),
                   key=lambda n: (sum(degree[m] for m in neighbours[n]), n))
        made["ops"] = [{"kind": "selection", "node": node,
                        "text": selected_four_clique(node)}]
    else:
        made.update(_serve_plan(edges, n_nodes, ranked, rng, smoke))
    return made


def _wedge_closing_edges(neighbours, candidates, count):
    """``count`` node-disjoint absent edges that each close a wedge,
    so the triangle view's value moves on every write."""
    batch, used = [], set()
    for u in candidates.tolist():
        if u in used:
            continue
        closing = next((w for v in sorted(neighbours[u])
                        for w in sorted(neighbours[v])
                        if w != u and w not in neighbours[u]
                        and w not in used), None)
        if closing is not None:
            batch.append((u, closing))
            used.update((u, closing))
            if len(batch) == count:
                return batch
    raise ValueError("graph too small for %d wedge-closing edges" % count)


def _serve_plan(edges, n_nodes, ranked, rng, smoke):
    requests = SMOKE_SERVE_REQUESTS if smoke else SERVE_REQUESTS
    writes = SMOKE_SERVE_WRITES if smoke else SERVE_WRITES
    misses = SMOKE_SERVE_MISSES if smoke else SERVE_MISSES
    neighbours = inputs.adjacency(edges, n_nodes)
    batch = _wedge_closing_edges(neighbours, rng.permutation(ranked[2:]),
                                 SERVE_BATCH_EDGES)
    rows = [list(pair) for u, w in batch for pair in ((u, w), (w, u))]
    # Miss constants: distinct mid-degree nodes, so the misses of a
    # block cost about the same whatever the seed picked.
    middle = ranked[len(ranked) // 4: 3 * len(ranked) // 4]
    constants = rng.choice(middle, size=SERVE_CONNECTIONS * misses,
                           replace=False).tolist()
    # Reads follow one fixed rhythm (misses evenly spaced, hot programs
    # in rotation) so that the seed picks constants, not how many
    # refills a block holds.
    connections = []
    for index in range(SERVE_CONNECTIONS):
        n_writes = writes if index == 0 else 0
        n_reads = requests - n_writes
        nodes = constants[index * misses:(index + 1) * misses]
        busy = int(ranked[index])  # the hub, and the runner-up
        hot = [{"kind": "hot", "name": "view", "scale": index + 1,
                "text": HOT_VIEW % (index, index + 1)},
               {"kind": "hot", "name": "degrees",
                "text": HOT_DEGREES[index]},
               {"kind": "hot", "name": "two_hop", "node": busy,
                "text": two_hop("Busy%d" % index, busy)}]
        reads = []
        for position in range(n_reads):
            if position * misses // n_reads \
                    != (position + 1) * misses // n_reads:
                node = nodes.pop()
                reads.append({"kind": "miss", "node": node,
                              "text": two_hop("Hop", node)})
            else:
                reads.append(hot[position % len(hot)])
        ops = []
        every = requests // n_writes if n_writes else 0
        for slot in range(requests):
            if n_writes and slot % every == every // 2 \
                    and slot // every < n_writes:
                ops.append({"kind": "append" if (slot // every) % 2 == 0
                            else "delete", "rows": rows})
            else:
                ops.append(reads.pop(0))
        connections.append(ops)
    return {"batch": batch, "connections": connections,
            "ops": [op for ops in connections for op in ops]}
