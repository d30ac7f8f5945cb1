"""Serve-mode fuzzer smoke: the daemon's replies must match the
brute-force oracle on generated cases, and the check must actually
*catch* a daemon that lies — or an engine bug that the daemon and the
in-process engine share.

The full sweep runs in CI via ``python -m repro.fuzz --serve``; these
tests keep the harness itself honest with a small budget.
"""

from repro.fuzz.gen import generate_mutation_case
from repro.fuzz.runner import (case_seed, run_serve_case,
                               run_serve_fuzz)
from repro.engine.config import enumerate_mutation_matrix
from tests.conftest import drop_delta_terms, forced_delta_row

#: One config is plenty for the harness smoke — the full matrix runs
#: in the CI fuzz job.
MATRIX = enumerate_mutation_matrix()[:1]


def test_run_serve_fuzz_smoke():
    report = run_serve_fuzz(seed=0, budget=6, matrix=MATRIX)
    assert report.ok, report.describe()
    assert report.executed == 6


def test_serve_case_matches_direct_execution():
    case = generate_mutation_case(case_seed(11, 0))
    assert run_serve_case(case, MATRIX) is None


def test_planted_divergence_is_reported(monkeypatch):
    """Corrupt the served snapshot and the differ must flag it —
    proving the harness compares real payloads, not just statuses."""
    from repro.fuzz import runner as runner_mod
    case = generate_mutation_case(case_seed(11, 0))

    real_snapshot = runner_mod._serve_query_snapshot

    def lying_snapshot(client, checked_case):
        kind, results = real_snapshot(client, checked_case)
        if kind != "ok":
            return kind, results
        return kind, {name: ("scalar", -1.0) for name in results}

    monkeypatch.setattr(runner_mod, "_serve_query_snapshot",
                        lying_snapshot)
    failure = runner_mod.run_serve_case(case, MATRIX)
    assert failure is not None
    assert failure.kind == "serve-mismatch"
    assert "serve[" in failure.detail


def test_crashing_daemon_is_reported(monkeypatch):
    from repro.fuzz import runner as runner_mod
    case = generate_mutation_case(case_seed(11, 0))

    def exploding(checked_case, config):
        raise RuntimeError("daemon fell over")

    monkeypatch.setattr(runner_mod, "_serve_mutation_ops", exploding)
    failure = runner_mod.run_serve_case(case, MATRIX)
    assert failure is not None
    assert failure.kind == "crash"
    assert "daemon fell over" in failure.detail


def test_planted_delta_bug_is_reported(monkeypatch):
    """A delta refresh that drops its terms is wrong through the daemon
    and in process alike; the oracle tells it apart."""
    case = generate_mutation_case(case_seed(0, 10))
    assert run_serve_case(case, forced_delta_row()) is None
    drop_delta_terms(monkeypatch)
    failure = run_serve_case(case, forced_delta_row())
    assert failure is not None and failure.kind == "serve-mismatch"
    assert "oracle vs serve[forced-delta]" in failure.detail
