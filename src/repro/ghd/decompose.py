"""GHD search: find the minimum-width decomposition (paper §3.2).

Finding the minimum fractional-hypertree-width GHD is NP-hard in the
number of relations/attributes, but queries are small (≤ 7 relations in
the paper's benchmarks), so — like EmptyHeaded — we search exhaustively:
pick a subset of hyperedges as the root bag, split the remaining edges
into components connected through uncovered attributes, and recurse.  A
memoized dynamic program keeps the search fast, scoring subtrees by

1. maximum bag width (ρ*, ignoring selection-constrained attributes per
   Appendix B.1.1 step 1),
2. estimated total cost Σ AGM(bag) with real relation sizes,
3. selection depth (deeper is better when selections are pushed down,
   Appendix B.1.1 step 3),
4. bag count (fewer bags win ties),
5. predicted intersection lane ops (``repro.sets.cost``) as the final
   tiebreaker among otherwise equal plans.

Callers should always pass real catalog cardinalities via ``sizes``;
edges without one are costed at the symbolic :data:`DEFAULT_SIZE`, and
the ``size_fallback`` callback reports how many edges that happened to
(the executor surfaces it as a metrics counter plus a one-time warning).
"""

import math
from itertools import combinations

from ..sets.cost import predict_intersection_ops
from .agm import agm_bound, rho_star
from .ghd import GHD, GHDNode, single_node_ghd

#: Default symbolic relation size used when no sizes are provided.
DEFAULT_SIZE = 1000

#: Relative difference below which two plan costs are the same cost.
COST_TOLERANCE = 1e-9


class _Scored:
    """A candidate subtree with its DP score components."""

    __slots__ = ("node", "max_width", "cost", "sel_depth", "sel_count",
                 "n_bags", "icost")

    def __init__(self, node, max_width, cost, sel_depth, sel_count, n_bags,
                 icost=0):
        self.node = node
        self.max_width = max_width
        self.cost = cost
        self.sel_depth = sel_depth
        self.sel_count = sel_count
        self.n_bags = n_bags
        self.icost = icost

    def key(self, prefer_deep_selections):
        depth_term = -self.sel_depth if prefer_deep_selections else \
            self.sel_depth
        # icost stays last: it only separates plans the paper's own
        # criteria consider equal, so adding it never flips an
        # established width/cost/depth decision.
        return (round(self.max_width, 6), self.cost, depth_term,
                self.n_bags, self.icost)

    def beats(self, other, prefer_deep_selections):
        """Strictly better than ``other`` under :meth:`key`, with costs
        within :data:`COST_TOLERANCE` of each other counted as tied:
        symmetric plans (barbell's two triangles, K4's sub-bags) sum the
        same bag costs in different orders, and the last bit of that sum
        must not outrank selection depth, bag count and ``icost``."""
        mine = self.key(prefer_deep_selections)
        theirs = other.key(prefer_deep_selections)
        if mine[0] != theirs[0]:
            return mine[0] < theirs[0]
        if not math.isclose(mine[1], theirs[1], rel_tol=COST_TOLERANCE):
            return mine[1] < theirs[1]
        return mine[2:] < theirs[2:]


def _ordered_vars(edges, vertex_order):
    """Variables of ``edges`` ordered by the query's vertex order."""
    present = set()
    for edge in edges:
        present |= edge.varset
    return tuple(v for v in vertex_order if v in present)


class GHDSearch:
    """Memoized exhaustive GHD search over one hypergraph."""

    def __init__(self, hypergraph, sizes=None, selected_vars=(),
                 selection_edges=(), prefer_deep_selections=True):
        self.hypergraph = hypergraph
        self.vertex_order = hypergraph.vertices
        self.sizes = dict(sizes or {})
        self.selected_vars = frozenset(selected_vars)
        self.selection_edges = frozenset(selection_edges)
        self.prefer_deep_selections = prefer_deep_selections
        self._memo = {}
        #: Edge indexes costed at the symbolic :data:`DEFAULT_SIZE`
        #: because the caller provided no cardinality for them.
        self.default_size_edges = set()

    def _size_of(self, edge):
        size = self.sizes.get(edge.index)
        if size is None:
            self.default_size_edges.add(edge.index)
            return DEFAULT_SIZE
        return size

    @property
    def default_size_uses(self):
        """How many distinct edges were costed symbolically."""
        return len(self.default_size_edges)

    def _bag_width(self, chi, edges):
        """ρ* of the bag's unselected attributes (B.1.1 step 1)."""
        to_cover = [v for v in chi if v not in self.selected_vars]
        return rho_star(to_cover, [e.varset for e in edges])

    def _bag_cost(self, chi, edges):
        """AGM bound of the bag's join with real sizes."""
        bound = agm_bound([e.varset for e in edges],
                          [self._size_of(e) for e in edges])
        return bound if math.isfinite(bound) else float("inf")

    def _bag_icost(self, edges):
        """Predicted lane ops of the bag's first intersection level
        (``repro.sets.cost``) — the last-resort tiebreaker."""
        return predict_intersection_ops([self._size_of(e) for e in edges])

    def best(self):
        """Best GHD for the full query."""
        all_edges = frozenset(e.index for e in self.hypergraph.edges)
        scored = self._solve(all_edges, frozenset())
        return GHD(scored.node, self.hypergraph)

    def _solve(self, edge_indexes, interface):
        memo_key = (edge_indexes, interface)
        cached = self._memo.get(memo_key)
        if cached is not None:
            return cached
        edges = [e for e in self.hypergraph.edges
                 if e.index in edge_indexes]
        best = None
        for size in range(1, len(edges) + 1):
            for subset in combinations(edges, size):
                chi_set = frozenset().union(*[e.varset for e in subset])
                if not interface <= chi_set:
                    continue
                candidate = self._build_candidate(edges, subset, chi_set,
                                                  best)
                if candidate is not None and (
                        best is None or candidate.beats(
                            best, self.prefer_deep_selections)):
                    best = candidate
        assert best is not None, "some subset (all edges) always works"
        self._memo[memo_key] = best
        return best

    def _build_candidate(self, edges, bag_edges, chi_set, incumbent):
        """Score the subtree rooted at a bag of ``bag_edges``, or
        ``None`` when the bag alone is already wider than the
        ``incumbent`` subtree (the best so far, if any): width is the
        first key component, so such a candidate cannot win and its
        children need no search."""
        chi = _ordered_vars(bag_edges, self.vertex_order)
        width = self._bag_width(chi, bag_edges)
        if incumbent is not None \
                and round(width, 6) > round(incumbent.max_width, 6):
            return None
        rest = [e for e in edges if e not in bag_edges]
        cost = self._bag_cost(chi, bag_edges)
        icost = self._bag_icost(bag_edges)
        max_width = width
        sel_depth = 0
        sel_count = sum(1 for e in bag_edges
                        if e.index in self.selection_edges)
        n_bags = 1
        children = []
        for component in self.hypergraph.connected_components(
                rest, separator=chi_set):
            comp_indexes = frozenset(e.index for e in component)
            comp_vars = frozenset().union(*[e.varset for e in component])
            child_interface = comp_vars & chi_set
            child = self._solve(comp_indexes, child_interface)
            children.append(child.node)
            max_width = max(max_width, child.max_width)
            cost += child.cost
            icost += child.icost
            # Every selection node of the child subtree sinks one level.
            sel_depth += child.sel_depth + child.sel_count
            sel_count += child.sel_count
            n_bags += child.n_bags
        node = GHDNode(chi, list(bag_edges), children)
        return _Scored(node, max_width, cost, sel_depth, sel_count, n_bags,
                       icost)


def decompose(hypergraph, sizes=None, selected_vars=(), selection_edges=(),
              prefer_deep_selections=True, use_ghd=True,
              size_fallback=None):
    """Select the query plan GHD for a hypergraph.

    Parameters
    ----------
    sizes:
        Dict mapping edge index → relation cardinality for cost estimates.
    selected_vars / selection_edges:
        Attributes bound by constants and the atoms that bind them, for
        the Appendix B.1.1 selection-aware search.
    prefer_deep_selections:
        Step 3 of B.1.1 — sink selections toward the leaves so they run
        early in the bottom-up pass.  Disabling this is the Table 13
        "-GHD" ablation.
    use_ghd:
        ``False`` returns the single-node GHD (the Table 8 "-GHD"
        ablation and the LogicBlox-style plan).
    size_fallback:
        Callback invoked (once, after the search) with the number of
        edges that had to be costed at the symbolic :data:`DEFAULT_SIZE`
        because ``sizes`` had no entry for them.  Not called when every
        edge had a real cardinality.
    """
    if not use_ghd or hypergraph.n_edges <= 1:
        return single_node_ghd(hypergraph)
    search = GHDSearch(hypergraph, sizes=sizes, selected_vars=selected_vars,
                       selection_edges=selection_edges,
                       prefer_deep_selections=prefer_deep_selections)
    best = search.best()
    if size_fallback is not None and search.default_size_uses:
        size_fallback(search.default_size_uses)
    return best


def push_selections_into_bags(ghd, selection_edges):
    """Duplicate selection atoms into every bag that covers their
    variables (Appendix B.1.1 step 2).

    Adding an edge to λ(v) when its variables are already inside χ(v)
    preserves all three GHD properties while letting every bag apply the
    selection's filter during its own generic join.
    """
    selection_edges = list(selection_edges)
    for node in ghd.nodes_preorder():
        for edge in selection_edges:
            if edge.varset <= node.chi_set \
                    and all(e.index != edge.index for e in node.edges):
                node.edges.append(edge)
    return ghd


def all_decompositions(hypergraph, limit=200000):
    """Exhaustively generate valid GHDs (for tests on small queries).

    Yields every decomposition the recursive construction can produce, up
    to ``limit`` total.  Unlike :func:`decompose` this keeps *all*
    alternatives instead of the DP optimum.
    """
    budget = [limit]

    def rec(edge_indexes, interface):
        edges = [e for e in hypergraph.edges if e.index in edge_indexes]
        for size in range(1, len(edges) + 1):
            for subset in combinations(edges, size):
                if budget[0] <= 0:
                    return
                chi_set = frozenset().union(*[e.varset for e in subset])
                if not interface <= chi_set:
                    continue
                rest = [e for e in edges if e not in subset]
                chi = _ordered_vars(subset, hypergraph.vertices)
                components = hypergraph.connected_components(
                    rest, separator=chi_set)
                if not components:
                    budget[0] -= 1
                    yield GHDNode(chi, list(subset))
                    continue
                child_options = []
                for component in components:
                    comp_indexes = frozenset(e.index for e in component)
                    comp_vars = frozenset().union(
                        *[e.varset for e in component])
                    options = list(rec(comp_indexes, comp_vars & chi_set))
                    child_options.append(options)
                for combo in _product(child_options):
                    if budget[0] <= 0:
                        return
                    budget[0] -= 1
                    yield GHDNode(chi, list(subset), list(combo))

    for root in rec(frozenset(e.index for e in hypergraph.edges),
                    frozenset()):
        yield GHD(root, hypergraph)


def _product(option_lists):
    """Cartesian product of child alternatives (itertools.product over
    lists of nodes, kept explicit for the budget-bounded generator)."""
    if not option_lists:
        yield ()
        return
    head, *tail = option_lists
    for item in head:
        for rest in _product(tail):
            yield (item,) + rest
