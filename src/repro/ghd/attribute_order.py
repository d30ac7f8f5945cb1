"""Global attribute ordering from a GHD (paper §3.2).

Once a GHD is chosen, EmptyHeaded fixes a *global attribute order* that
determines both the order the generic join binds attributes and the index
(level) order of each trie.  The paper derives it from a pre-order
traversal of the GHD, appending each visited bag's attributes to a queue;
within a bag we put selection-bound attributes first (Appendix B.1,
"Within a Node") so constant filters run before any enumeration.
"""


def global_attribute_order(ghd, selected_vars=(), head_vars=()):
    """Pre-order attribute queue over the GHD's bags.

    Within each bag, attributes are enqueued selections-first, then the
    bag's remaining attributes in χ order.  Returns a tuple of attribute
    names covering every query variable exactly once.
    """
    selected = frozenset(selected_vars)
    order = []
    seen = set()
    for node in ghd.nodes_preorder():
        bag_selected = [v for v in node.chi if v in selected]
        bag_rest = [v for v in node.chi if v not in selected]
        for attr in bag_selected + bag_rest:
            if attr not in seen:
                seen.add(attr)
                order.append(attr)
    return tuple(order)


def bag_evaluation_order(bag_chi, out_attrs, global_order, delta_attrs=()):
    """Evaluation order for one bag's generic join.

    The bag's *output* attributes (those retained for its parent or the
    query head) come first so aggregation over the remaining attributes
    can fold at each loop level without materializing the full join —
    the early-aggregation property that GHD plans buy (paper §3.1.1).
    Within each class, attributes follow the global order.

    ``delta_attrs`` — the variables of the atom a seminaive round reads
    its delta through (paper §3.3.2) — go ahead of both classes, so the
    join generates from the few tuples that changed last round instead
    of probing them with everything else.  The outputs are then no
    longer a prefix of the order; only a caller that can group an
    unordered stream of bindings (the block kernel, for idempotent
    folds) may pass them.
    """
    in_bag = [a for a in global_order if a in bag_chi]
    delta = [a for a in in_bag if a in delta_attrs]
    out = [a for a in in_bag if a in out_attrs and a not in delta_attrs]
    rest = [a for a in in_bag
            if a not in out_attrs and a not in delta_attrs]
    return tuple(delta + out + rest)
