"""Shared JSON emission for the standalone benchmark smoke reports.

The smoke benchmarks (``bench_codegen.py --json``, ``bench_serve.py
--json``, ...) write their rows through :func:`write_results` in the
same shape pytest-benchmark dumps
(``{"benchmarks": [{name, group, stats: {mean}, extra_info}]}``), so
``report.py`` renders and diffs either source.  Writes merge by
experiment: rows whose group belongs to the writing experiment are
replaced, everything else is preserved — the smoke benchmarks can
therefore share one baseline file
(``benchmarks/baselines/bench_results.json``).
"""

import json
import os


def bench_row(name, group, mean_seconds, **extra_info):
    """One pytest-benchmark-shaped result row."""
    return {"name": name, "group": group,
            "stats": {"mean": mean_seconds},
            "extra_info": extra_info}


def write_results(path, experiment, benches):
    """Merge ``benches`` (rows of one ``experiment``) into ``path``."""
    existing = []
    if os.path.exists(path):
        with open(path) as handle:
            existing = json.load(handle).get("benchmarks", [])
    kept = [bench for bench in existing
            if (bench.get("group") or "").split(":", 1)[0] != experiment]
    payload = {"benchmarks": kept + benches}
    directory = os.path.dirname(os.path.abspath(path))
    if directory and not os.path.isdir(directory):
        os.makedirs(directory)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
