"""EXPLAIN ANALYZE: the GHD plan annotated with measured reality.

``Database.explain`` shows what the optimizer *decided*; this module
re-renders the same plan with what actually happened — per-phase wall
time from the span tracer, per-bag measured seconds and simulated lane
ops, the cost model's *predicted* lane ops with the prediction error,
the set layouts the optimizer chose, and cache outcomes.

The prediction deliberately comes from
:func:`repro.sets.cost.predict_intersection_ops` — the same module whose
charge formulas produced the measured ops — accessed through the module
attribute so tests can monkeypatch it and prove EXPLAIN ANALYZE does not
re-derive the model ad hoc.  Predictions are cardinality-only upper
bounds (root cardinalities at trie depth 0, mean fanout below), so the
error ratio reads as *model pessimism*: large ratios flag bags where
actual data was much more selective than the AGM-flavored bound.
"""

from ..sets import cost as _cost
from .trace import CAT_CACHE, CAT_COMPILE

#: Compile-side phase names in lifecycle order, as instrumented by the
#: executor and ``Database``.
PHASE_ORDER = ("parse", "logical_rewrite", "ghd_search",
               "attribute_order", "codegen", "plan_cache.lookup")


# ---------------------------------------------------------------------------
# phase accounting
# ---------------------------------------------------------------------------

def phase_totals(tracer):
    """``{phase name: (count, total seconds)}`` over compile/cache spans."""
    totals = {}
    if tracer is None:
        return totals
    for span in tracer.spans:
        if span.cat in (CAT_COMPILE, CAT_CACHE):
            count, seconds = totals.get(span.name, (0, 0.0))
            totals[span.name] = (count + 1, seconds + span.seconds)
    return totals


def category_seconds(tracer, cat):
    """Total seconds of top-of-category spans with category ``cat``.

    Spans of one category may nest (a bag span around other spans);
    only depth-minimal spans per category are summed so nothing is
    double-counted.
    """
    if tracer is None:
        return 0.0
    spans = [s for s in tracer.spans if s.cat == cat]
    if not spans:
        return 0.0
    top = min(s.depth for s in spans)
    return sum(s.seconds for s in spans if s.depth == top)


# ---------------------------------------------------------------------------
# cost prediction
# ---------------------------------------------------------------------------

def _level_cards(attr, profiles):
    """Estimated cardinalities of the sets intersected at ``attr``.

    An input whose trie binds ``attr`` at depth 0 contributes its root
    cardinality exactly; deeper levels contribute the trie's mean
    fanout (``(tuples / root)^(1/(arity-1))``), the cardinality-only
    stand-in for the actual per-prefix set.
    """
    cards = []
    for profile in profiles:
        variables = profile["variables"]
        if attr not in variables:
            continue
        depth = variables.index(attr)
        root = max(1, int(profile["root_card"]))
        if depth == 0:
            cards.append(root)
        else:
            arity = len(variables)
            ratio = max(1.0, profile["cardinality"] / float(root))
            fanout = ratio ** (1.0 / max(1, arity - 1))
            cards.append(max(1, int(round(fanout))))
    return cards


def predict_bag_ops(eval_order, profiles, simd=True, crossover=None):
    """Predicted simulated lane ops for one bag's generic join.

    Walks the evaluation order like the join's loop nest: at each level
    the participating sets' estimated cardinalities price one multiway
    intersection (via ``repro.sets.cost.predict_intersection_ops``),
    multiplied by the estimated number of open prefixes; the prefix
    count then grows by the level's minimum cardinality (each
    intersection result is bounded by its smallest input).  An upper
    bound in the AGM spirit — compare against measured ops to read the
    model's pessimism per bag.
    """
    total = 0
    prefixes = 1
    for attr in eval_order:
        cards = _level_cards(attr, profiles)
        if not cards:
            continue
        if len(cards) >= 2:
            total += prefixes * _cost.predict_intersection_ops(
                cards, simd=simd, crossover=crossover)
        prefixes *= max(1, min(cards))
    return int(total)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _format_ms(seconds):
    return "%.3f ms" % (seconds * 1e3)


def _render_phases(lines, tracer):
    totals = phase_totals(tracer)
    if not totals:
        return
    lines.append("phases:")
    named = [name for name in PHASE_ORDER if name in totals]
    named += sorted(set(totals) - set(PHASE_ORDER))
    for name in named:
        count, seconds = totals[name]
        times = "  (x%d)" % count if count > 1 else ""
        lines.append("  %-18s %10s%s" % (name, _format_ms(seconds), times))
    from .trace import CAT_EXECUTE
    execute = category_seconds(tracer, CAT_EXECUTE)
    if execute:
        lines.append("  %-18s %10s" % ("execute", _format_ms(execute)))


def _render_bag(lines, index, bag, simd, rounds=0):
    lines.append("  bag %d: %s" % (index, bag.describe()))
    if bag.input_profiles:
        layouts = ", ".join(
            "%s[%s, %d tuples]" % (p["name"], p["kind"], p["cardinality"])
            for p in bag.input_profiles)
        lines.append("      layouts: %s" % layouts)
    if bag.reused_from_signature:
        lines.append("      cache: reused an identical bag's result "
                     "(not re-evaluated)")
        return
    if bag.actual_seconds is None:
        lines.append("      actual: not evaluated")
        return
    actual_ops = bag.actual_ops or 0
    lines.append("      actual%s: %s, %d lane ops"
                 % (" (last of %d rounds)" % rounds if rounds else "",
                    _format_ms(bag.actual_seconds), actual_ops))
    predicted = predict_bag_ops(bag.eval_order, bag.input_profiles,
                                simd=simd)
    lines.append("      predicted: %d lane ops (repro.sets.cost model)"
                 % predicted)
    if actual_ops > 0:
        lines.append("      cost-model error: %.2fx (predicted/actual)"
                     % (predicted / float(actual_ops)))
    else:
        lines.append("      cost-model error: n/a (no lane ops charged "
                     "— empty input or identity scan)")


#: Rounds shown at each end of a longer round table.
ROUND_ROWS = 10


def _render_rounds(lines, rounds):
    """One row per recursion round — the head rows it read, the rows
    it produced and changed (``-``: a ``*[i=k]`` round replaces the
    head), its lane ops and time — and the total; a long run shows its
    first and last :data:`ROUND_ROWS` rounds."""
    row = "  %6s %10s %10s %10s %10s %10s"
    lines.append(row % ("round", "delta in", "produced", "changed",
                        "lane ops", "time"))
    shown = list(enumerate(rounds, 1))
    if len(shown) > 2 * ROUND_ROWS:
        hidden = len(shown) - 2 * ROUND_ROWS
        shown = shown[:ROUND_ROWS] + [None] + shown[-ROUND_ROWS:]
    for entry in shown:
        if entry is None:
            lines.append("  %6s (%d rounds not shown)" % ("...", hidden))
            continue
        number, r = entry
        lines.append(row % (number, r.delta_in, r.produced,
                            "-" if r.changed is None else r.changed,
                            r.lane_ops, _format_ms(r.seconds)))
    lines.append(row % ("total", "", "", "",
                        sum(r.lane_ops for r in rounds),
                        _format_ms(sum(r.seconds for r in rounds))))


def render_explain_analyze(plan, stats, tracer, config, result=None,
                           logical=None):
    """Render the annotated plan; every input may be ``None``-ish.

    ``logical``, when given, is the optimized
    :class:`~repro.lir.ir.LogicalRule` of the last-executed rule; its
    pass trace is rendered as the pass-by-pass logical plan between the
    rule text and the physical plan.
    """
    lines = ["EXPLAIN ANALYZE"]
    if plan is None:
        lines.append("(no plan recorded — the program produced its "
                     "result without a rule plan)")
        return "\n".join(lines)
    mode = stats.execution_mode if stats is not None \
        else config.execution_mode
    lines.append("rule: %s" % plan.rule)
    lines.append("execution mode: %s" % mode)
    if logical is not None and logical.trace is not None:
        lines.append(logical.trace.describe())
    _render_phases(lines, tracer)
    lines.append("GHD plan (width %.2f, %d bags), global order %s:"
                 % (plan.ghd.width(), plan.ghd.n_nodes,
                    list(plan.global_order)))
    for index, bag in enumerate(plan.bags):
        _render_bag(lines, index, bag, simd=config.simd,
                    rounds=plan.rounds)
    lines.append("top-down pass: %s"
                 % ("ran" if plan.used_top_down else "elided (App. B.2)"))
    if stats is not None:
        lines.append(
            "caches: trie %d/%d hit/miss, plan %d/%d"
            % (stats.trie_cache_hits, stats.trie_cache_misses,
               stats.plan_cache_hits, stats.plan_cache_misses))
        if stats.execution_mode == "compiled":
            lines.append(
                "compiled pipeline: %d parse(s), %d GHD build(s), "
                "%d codegen run(s), %d source reuse(s), "
                "%d generated bag call(s) (%d fused)"
                % (stats.parses, stats.ghd_builds, stats.codegen_runs,
                   stats.bag_codegen_reuses, stats.compiled_bag_calls,
                   stats.fused_blocks))
            if stats.recursion_rounds:
                lines.append("recursion: %d round(s), counters above "
                             "summed over all of them"
                             % stats.recursion_rounds)
                _render_rounds(lines, stats.rounds)
    if result is not None:
        cardinality = getattr(result, "cardinality", None)
        if cardinality is not None:
            lines.append("result: %d tuple(s)" % cardinality)
    return "\n".join(lines)
