"""Lane-op pins: the exact cost-model charge of the benchmark's ops.

The reproduction stands in for the paper's SIMD measurements with an
exact lane-op cost model (:mod:`repro.sets.cost`), so the work an op
does is a number that no machine load can move.  These pins hold that
number for every op of the ``patterns`` and ``analytics`` workloads of
``benchmarks/e2e`` at full scale, for the ``serve_mixed`` view
refresh, and for the ``cli_cold`` selection, on the harness's default
and held-out seeds.  The inputs come from
:func:`benchmarks.e2e.workloads.plan`, and each database is loaded the
way the benchmark's engine process loads it.  Every database pins
``execution_mode="compiled"``, the engine the benchmark runs, so a run
of the suite under ``REPRO_EXECUTION_MODE=interpreted`` checks the
same numbers.

A change that moves a pin updates it here and says why in CHANGES.md.
"""

import re

import pytest

from benchmarks.e2e import inputs, workloads
from repro import Database
from repro.cli import _load_database, build_parser, main

DEFAULT = workloads.DEFAULT_SEED
HELD_OUT = workloads.HELD_OUT_SEED

#: Lane ops of each op of one block, in plan order.
BLOCK_PINS = {
    ("patterns", DEFAULT): [3566, 11132, 14031, 14031],
    ("patterns", HELD_OUT): [3494, 10805, 13846, 13846],
    ("analytics", DEFAULT): [283222, 54733, 54735],
    ("analytics", HELD_OUT): [283341, 54757, 54759],
}

#: ``serve_mixed``'s view ``T`` refreshed after appending the plan's
#: batch (delta route) and after deleting it again (full route).
REFRESH_PINS = {DEFAULT: (712, 4146), HELD_OUT: (690, 4167)}

#: ``cli_cold``'s one selection query, as ``repro query`` reports it.
SELECTION_PINS = {DEFAULT: 34, HELD_OUT: 129}


def run_block(plan, databases):
    """Lane ops of each op of one pass over the plan's block."""
    charged = []
    for op in plan["ops"]:
        db = databases[op["db"]]
        before = db.counter.total_ops
        db.query(op["text"])
        charged.append(db.counter.total_ops - before)
    return charged


@pytest.mark.parametrize("seed", [DEFAULT, HELD_OUT])
@pytest.mark.parametrize("workload", ["patterns", "analytics"])
def test_library_ops(workload, seed):
    plan = workloads.plan(workload, seed)
    edge_list = [tuple(edge) for edge in plan["edges"].tolist()]
    databases = {}
    for which in sorted({op["db"] for op in plan["ops"]}):
        databases[which] = Database(execution_mode="compiled")
        databases[which].load_graph("Edge", edge_list,
                                    prune=which == "pruned")
    first = run_block(plan, databases)
    assert first == BLOCK_PINS[workload, seed]
    assert run_block(plan, databases) == first


def edge_file(plan, tmp_path):
    path = str(tmp_path / "edges.txt")
    inputs.write_edgelist(path, plan["edges"])
    return path


@pytest.mark.parametrize("seed", [DEFAULT, HELD_OUT])
def test_view_refresh(seed, tmp_path):
    plan = workloads.plan("serve_mixed", seed)
    db = _load_database(build_parser().parse_args(
        ["serve", "--edges", edge_file(plan, tmp_path),
         "--execution-mode", "compiled"]))
    db.materialize(workloads.VIEW_NAME, workloads.VIEW)
    view = db.views[workloads.VIEW_NAME]
    rows = [list(pair) for u, w in plan["batch"]
            for pair in ((u, w), (w, u))]
    charged = []
    for mutate in (db.append, db.delete):
        assert mutate("Edge", rows) == len(rows)
        before = db.counter.total_ops
        db.relation(workloads.VIEW_NAME)
        charged.append(db.counter.total_ops - before)
    assert tuple(charged) == REFRESH_PINS[seed]
    assert (view.refreshes, view.delta_refreshes) == (2, 1)


@pytest.mark.parametrize("seed", [DEFAULT, HELD_OUT])
def test_cli_selection(seed, tmp_path, capsys):
    plan = workloads.plan("cli_cold", seed)
    argv = ["query", "--edges", edge_file(plan, tmp_path),
            "--execution-mode", "compiled", plan["ops"][0]["text"]]
    charged = []
    for _ in range(2):
        assert main(argv) == 0
        reported = re.search(r"(\d+) simulated ops", capsys.readouterr().err)
        charged.append(int(reported.group(1)))
    assert charged == [SELECTION_PINS[seed]] * 2
