"""Span arithmetic and the promise that tracing leaves no trace."""

import pytest

from benchmarks.e2e import tracing
from benchmarks.e2e.tracing import ID, NAME, PARENT, OP, END


def span(span_id, name, start, end, parent=None, op=0, counts=None):
    return [span_id, name, "layer", start, end, parent, op, counts]


def test_self_time_subtracts_children_only():
    spans = [span(0, "Database.query", 0.0, 10.0),
             span(1, "parse", 1.0, 2.0, parent=0),
             span(2, "RuleExecutor.execute", 2.0, 9.0, parent=0),
             span(3, "optimize_rule", 2.0, 3.0, parent=2),
             span(4, "TrieCache.get", 3.0, 3.5, parent=2)]
    own = tracing.self_times(spans)
    assert own == {0: 2.0, 1: 1.0, 2: 5.5, 3: 1.0, 4: 0.5}
    assert sum(own.values()) == 10.0  # layers add up to the root


def test_self_time_of_recursion_counts_each_level_once():
    spans = [span(0, "RuleExecutor.execute", 0.0, 6.0),
             span(1, "RuleExecutor.execute", 1.0, 5.0, parent=0),
             span(2, "RuleExecutor.execute", 2.0, 3.0, parent=1)]
    assert tracing.self_times(spans) == {0: 2.0, 1: 3.0, 2: 1.0}


def test_wrappers_link_parents_siblings_and_survive_a_raise():
    tracer = tracing.Tracer()
    tracer.op = 7

    def leaf():
        return "leaf"

    def failing():
        raise KeyError("boom")

    leaf_w = tracing._sync_wrapper(tracer, leaf, "leaf", "x", None)
    failing_w = tracing._sync_wrapper(tracer, failing, "failing", "x", None)

    def root():
        leaf_w()
        with pytest.raises(KeyError):
            failing_w()
        return leaf_w()

    root_w = tracing._sync_wrapper(tracer, root, "root", "x", None)
    assert root_w() == "leaf"
    assert root_w() == "leaf"  # the stack unwound: a fresh root
    names = [s[NAME] for s in tracer.spans]
    assert names == ["root", "leaf", "failing", "leaf"] * 2
    first, second = tracer.spans[0], tracer.spans[4]
    assert first[PARENT] is None and second[PARENT] is None
    assert [s[PARENT] for s in tracer.spans[1:4]] == [first[ID]] * 3
    assert all(s[END] is not None and s[OP] == 7 for s in tracer.spans)
    assert tracing._current.get() is None


def test_probe_counts_land_on_the_span():
    tracer = tracing.Tracer()

    class Cache:
        misses = patches = 0

        def get(self, build):
            self.misses += build
            return build

    probed = tracing._sync_wrapper(tracer, Cache.get, "TrieCache.get",
                                   "storage", tracing.TRIE_PROBE)
    cache = Cache()
    probed(cache, 0)
    probed(cache, 1)
    assert [s[tracing.COUNTS] for s in tracer.spans] == [
        {"hit": 1, "build": 0, "patch": 0},
        {"hit": 0, "build": 1, "patch": 0}]


def test_install_then_remove_restores_every_attribute_by_identity():
    instrumentation = tracing.Instrumentation(tracing.Tracer())
    instrumentation.install()
    patched = list(instrumentation.patched)
    assert len(patched) >= len(tracing.TARGETS)
    for owner, attribute, original in patched:
        assert vars(owner)[attribute] is not original
    # `from x import f` aliases were found, not just the defining module
    import repro.api
    import repro.query.parser
    assert (repro.api, "parse") in [(o, a) for o, a, _ in patched]
    assert repro.api.parse is repro.query.parser.parse
    instrumentation.remove()
    assert not instrumentation.patched
    for owner, attribute, original in patched:
        assert vars(owner)[attribute] is original


def test_traced_query_yields_a_parent_linked_tree_and_counts():
    tracer = tracing.Tracer()
    instrumentation = tracing.Instrumentation(tracer).install()
    try:
        from repro import Database
        db = Database()
        db.load_graph("Edge", [(0, 1), (1, 2), (0, 2)], prune=True)
        tracer.op = 0
        count = db.query("T(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); "
                         "w=<<COUNT(*)>>.").scalar
    finally:
        instrumentation.remove()
    assert count == 1.0
    spans = [s for s in tracer.spans if s[OP] == 0]
    by_name = {s[NAME]: s for s in spans}
    query = by_name["Database.query"]
    assert by_name["parse"][PARENT] == query[ID]
    assert by_name["RuleExecutor.execute"][PARENT] == query[ID]
    assert by_name["TrieCache.get"][PARENT] \
        == by_name["RuleExecutor.execute"][ID]
    wall = sum(s[END] - s[tracing.START] for s in spans
               if s[PARENT] is None)
    metrics = tracing.layer_metrics(spans, 1, wall)
    assert metrics["trace.coverage"] == pytest.approx(1.0)
    assert metrics["storage.trie_builds"] >= 1
    assert metrics["sets.lane_ops"] == query[tracing.COUNTS]["lane_ops"]
    assert metrics["engine.kernel_ms"] > 0
