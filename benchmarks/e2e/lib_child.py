"""Engine process of the library workloads (``patterns``, ``analytics``).

Started fresh by the load generator as
``python -m benchmarks.e2e.lib_child '<json config>'``: rebuilds the
inputs from the seed, constructs default ``Database()`` objects, loads
the graph, runs one warm-up block, says ``ready`` and then runs the
timed blocks, one JSON line per event on stdout.  Expected answers
live in the parent; this process only reports what the engine said.
"""

import json
import resource
import sys
import time

from . import workloads


def emit(event, **fields):
    fields["event"] = event
    sys.stdout.write(json.dumps(fields) + "\n")
    sys.stdout.flush()


def run_block(ops, databases, reference, tracer=None, first_op=0):
    """One pass over the block's operations; per-op wall, CPU, lane
    ops and answer (``same`` when equal to the warm-up's, to keep the
    28k-entry maps off the pipe)."""
    records, answers = [], []
    for index, op in enumerate(ops):
        db = databases[op["db"]]
        if tracer is not None:
            tracer.op = first_op + index
        lane_ops = db.counter.total_ops
        cpu = time.process_time()
        start = time.perf_counter()
        result = db.query(op["text"])
        answer = result.scalar if op["read"] == "scalar" \
            else result.to_dict()
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu
        record = {"wall": wall, "cpu": cpu,
                  "lane_ops": db.counter.total_ops - lane_ops}
        if reference is not None and answer == reference[index]:
            record["same"] = True
        else:
            record["answer"] = _wire(answer)
        records.append(record)
        answers.append(answer)
    return records, answers


def _wire(answer):
    if isinstance(answer, dict):
        return [[key, value] for key, value in answer.items()]
    return answer


def main(argv):
    config = json.loads(argv[0])
    plan = workloads.plan(config["workload"], config["seed"],
                          config["smoke"])
    tracer = instrumentation = None
    if config["traced_blocks"]:
        from . import tracing
        tracer = tracing.Tracer()
        instrumentation = tracing.Instrumentation(tracer).install()
    from repro import Database
    from repro.engine.plan_cache import config_signature
    edge_list = [tuple(edge) for edge in plan["edges"].tolist()]
    databases = {}
    for which in sorted({op["db"] for op in plan["ops"]}):
        databases[which] = Database()
        databases[which].load_graph("Edge", edge_list,
                                    prune=which == "pruned")
    # warm-up block; traced or not, its spans keep the set-up op id
    records, reference = run_block(plan["ops"], databases, None)
    any_db = next(iter(databases.values()))
    emit("ready", ops=records,
         config_signature=repr(config_signature(any_db.config)))
    if config["setup_only"]:
        return 0
    n_ops = len(plan["ops"])
    for block in range(config["traced_blocks"]):
        records, _ = run_block(plan["ops"], databases, reference, tracer,
                               first_op=block * n_ops)
        emit("block", traced=True, ops=records)
    if instrumentation is not None:
        instrumentation.remove()
        tracer.dump(config["spans_out"])
    for _ in range(config["blocks"]):
        records, _ = run_block(plan["ops"], databases, reference)
        emit("block", traced=False, ops=records)
    emit("done", peak_rss_mb=resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
