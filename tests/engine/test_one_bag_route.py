"""The default engine has one bag route: its block kernels.

The interpreter (:class:`~repro.engine.generic_join.BagEvaluator`) is
the oracle the kernels are differentially tested against, which proves
something only while the default engine never runs it.  So no bag
shape the fuzzer generates — relations of arity 1 to 4, three-column
annotated heads read by later rules, recursion, selections, guards —
may make the default engine construct one, at the built-in block
constants or at the ``small-blocks`` ones.  The configs name
``execution_mode="compiled"`` explicitly, so the suite's interpreted
run (``REPRO_EXECUTION_MODE=interpreted``) checks the same thing.
"""

from repro.engine import fused, generic_join
from repro.engine.config import EngineConfig
from repro.fuzz import generate_case, run_case
from repro.fuzz.runner import case_seed


def test_the_default_engine_never_constructs_the_interpreter(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("the default engine constructed a "
                             "BagEvaluator")
    monkeypatch.setattr(generic_join.BagEvaluator, "__init__", refuse)
    arities = []        # the widest input of every kernel call
    call = fused.FusedBagKernel.__call__

    def counted(kernel, tries, config):
        arities.append(max(trie.arity for trie in tries))
        return call(kernel, tries, config)
    monkeypatch.setattr(fused.FusedBagKernel, "__call__", counted)
    config = EngineConfig().ablated(execution_mode="compiled")
    matrix = [("default", config), ("small-blocks", config)]
    for index in range(300):
        failure = run_case(generate_case(case_seed(0, index)), matrix)
        assert failure is None, failure.describe()
    assert 3 in arities         # k-ary bags ran, on the kernel
