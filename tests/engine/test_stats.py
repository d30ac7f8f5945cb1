"""ExecStats regressions: honest describe() output."""

from repro import Database
from repro.engine.stats import ExecStats

from tests.conftest import random_undirected_edges

TRIANGLES = ("T(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); "
             "w=<<COUNT(*)>>.")


class TestDescribeHonesty:
    def test_serial_run_omits_parallel_fields(self):
        """Regression: describe() used to claim strategy=steal even for
        runs that never engaged a parallel executor."""
        stats = ExecStats()
        text = stats.describe()
        assert text.startswith("execution mode: interpreted")
        assert "strategy" not in text
        assert "morsels" not in text

    def test_compiled_serial_run_mentions_mode_not_strategy(self):
        db = Database(execution_mode="compiled")
        db.load_graph("Edge", random_undirected_edges(20, 60, seed=5),
                      prune=True)
        db.query(TRIANGLES)
        text = db.last_stats.describe()
        assert "execution mode: compiled" in text
        assert "plan cache" in text
        assert "strategy" not in text
