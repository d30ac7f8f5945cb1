"""The harness end to end on smoke-sized inputs: real children."""

import json
import os

import pytest

from benchmarks.e2e import engines, expected, run, runner, workloads

SEED = 5


def smoke_engine(name):
    plan = workloads.plan(name, SEED, smoke=True)
    answers = expected.block_answers(plan)
    return engines.ENGINES[plan["kind"]](plan, answers, SEED, smoke=True)


def test_benchmark_json_names_what_the_harness_reports():
    with open(os.path.join(engines.ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    assert [w["name"] for w in contract["workloads"]] \
        == list(workloads.SPECS)
    assert [(m["name"], m["unit"]) for m in contract["end_to_end"]] \
        == list(runner.END_TO_END)
    assert [(m["name"], m["unit"]) for m in contract["per_layer"]] \
        == list(runner.PER_LAYER)
    assert contract["run_seconds"] == workloads.RUN_SECONDS
    assert contract["paths"] == ["benchmarks/e2e"]
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])


def test_serve_block_leaves_edge_with_its_base_row_count():
    with smoke_engine("serve_mixed") as engine:
        engine.start()
        pid = engine.process.pid
        block = next(engine.blocks(1))
        assert block["failures"] == []
        assert block["ops"] == 2 * workloads.SMOKE_SERVE_REQUESTS
        assert all(block["kinds"][kind]
                   for kind in ("hit", "miss", "refill", "write"))
        reply = engine.clients[0].relation("Edge")
        assert reply["rows"] == 2 * len(engine.plan["edges"])
        engine.finish()
    assert not os.path.exists("/proc/%d" % pid)
    assert not os.path.exists(engine.scratch)


def test_daemon_is_gone_after_a_failed_run():
    with pytest.raises(RuntimeError, match="mid-run"):
        with smoke_engine("serve_mixed") as engine:
            engine.start()
            process = engine.process
            raise RuntimeError("mid-run failure")
    assert process.poll() is not None
    assert not os.path.exists(engine.scratch)


def test_reads_racing_a_write_may_see_either_state_but_no_other():
    engine = smoke_engine("serve_mixed")
    read = next(op for op in engine.plan["connections"][1]
                if op.get("name") == "view")
    write = next(op for op in engine.plan["connections"][0]
                 if op["kind"] == "append")
    before, after = engine.answers[read["text"]]
    assert before != after

    def judged(value, read_at, write_at=(1.0, 2.0)):
        ok = {"status": "ok", "changed": len(write["rows"])}
        reply = {"status": "ok", "cached": False, "elapsed_seconds": 0.0,
                 "result": {"kind": "scalar", "value": value}}
        return engine._judge([[(write, *write_at, ok)],
                              [(read, *read_at, reply)]])["failures"]
    assert judged(before, (0.0, 0.5)) == []       # ahead of the write
    assert judged(after, (0.0, 0.5)) != []
    assert judged(after, (2.5, 3.0)) == []        # behind it
    assert judged(before, (2.5, 3.0)) != []
    assert judged(before, (1.5, 2.5)) == []       # overlapping: either
    assert judged(after, (1.5, 2.5)) == []
    assert judged(after + 1.0, (1.5, 2.5)) != []


def test_a_corrupted_expected_answer_fails_the_run(monkeypatch, capsys):
    genuine = expected.block_answers

    def corrupted(plan):
        answers = genuine(plan)
        answers[0] += 1.0  # the triangle count
        return answers
    monkeypatch.setattr(expected, "block_answers", corrupted)
    status = run.main(["--smoke", "--workload", "patterns", "--trace", "0"])
    assert status != 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    # one wrong operation per block; the other three still pass
    assert result["failed"] == 3 and result["attempted"] == 12


def test_one_run_prints_every_metric_of_its_pass(capsys):
    assert run.main(["--smoke", "--workload", "analytics",
                     "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [name for name, _ in runner.PER_LAYER]
    assert result["metrics"]["trace.coverage"]["value"] > 0.9
    assert result["metrics"]["engine.recursion_rounds"]["value"] > 0
    assert os.path.exists(os.path.join(engines.OUT, "trace_analytics.json"))
