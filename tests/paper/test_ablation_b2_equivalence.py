"""Appendix B.2 ablation: redundant-bag elimination.

The paper reports a 2x Barbell speedup from recognizing that the two
triangle bags are identical; on the op model, reusing the bag must
save at least a fifth of the work.
"""

from repro.graphs import BARBELL_COUNT

from tests.paper.conftest import database_for


def test_bag_reuse_saves_ops():
    db_on = database_for("patents", key="b2:full")
    db_on.counter.reset()
    db_on.query(BARBELL_COUNT)
    ops_on = db_on.counter.total_ops
    db_off = database_for("patents", key="b2:no-bag-reuse",
                          eliminate_redundant_bags=False)
    db_off.counter.reset()
    db_off.query(BARBELL_COUNT)
    assert ops_on < 0.8 * db_off.counter.total_ops
