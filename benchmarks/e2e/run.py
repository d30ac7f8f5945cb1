"""The repo's benchmark: one command, every metric by name and unit.

    python3 benchmarks/e2e/run.py                 # all workloads, both passes
    python3 benchmarks/e2e/run.py --smoke         # same code paths, < 30 s
    python3 benchmarks/e2e/run.py --selfcheck     # untraced suite twice
    python3 benchmarks/e2e/run.py --workload patterns --seed 7 \\
        --seconds 16 --trace 0                    # one run, as the driver asks

(``python -m benchmarks.e2e.run`` from the repository root is the same
command.)  With ``--workload`` and ``--trace`` the last line of
standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics for ``--trace 0``, the
per-layer metrics for ``--trace 1``.  Exits non-zero when an answer
was wrong, an operation failed, or ``--selfcheck`` found two runs of
the same code further apart than a metric's bound.
"""

import argparse
import json
import os
import platform
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for entry in (os.path.join(ROOT, "src"), ROOT):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.e2e import engines, runner, stats, workloads  # noqa: E402


def bounds():
    """Regression bound per end-to-end metric, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {metric["name"]: metric["bound"]
                for metric in json.load(handle)["end_to_end"]}


def environment():
    """Where the numbers were taken; printed with every report."""
    import numpy
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "loadavg": list(os.getloadavg())}


def show(outcome):
    """Print one pass: every metric by name, value and unit."""
    print("%s (%s pass): %d operations, %d failed"
          % (outcome.workload, "traced" if outcome.traced else "untraced",
             outcome.attempted, outcome.failed))
    for reason in outcome.failures[:5]:
        print("  FAILED %s" % reason)
    if outcome.traced:
        for name, unit in runner.PER_LAYER:
            print("  %-30s %14.6g %s" % (name, outcome.metrics[name], unit))
        return
    for name, unit in runner.END_TO_END:
        line = "  %-12s %12.4f %-3s" % (name, outcome.metrics[name], unit)
        summary = outcome.summaries.get(name, {})
        if "median" in summary:
            line += ("  (p10 of %d blocks; median %.4f, p90 %.4f, "
                     "quiet_share %.2f%s)" % (
                         summary["blocks"], summary["median"],
                         summary["p90"], summary["quiet_share"],
                         ", NOISY" if summary["noisy"] else ""))
        elif "all" in summary:
            line += "  (best of %s)" % ", ".join(
                "%.3f" % value for value in summary["all"])
        print(line)
    print("  lane ops per block: %s"
          % (outcome.summaries["lane_ops"]["per_block"] or "n/a"))


def result_line(outcome):
    units = dict(runner.PER_LAYER if outcome.traced else runner.END_TO_END)
    return json.dumps({
        "correct": outcome.correct, "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in units.items()}})


def selfcheck(names, seed, seconds, smoke):
    """Two untraced runs of the same code, back to back, per workload;
    the gap of every end-to-end metric against its bound."""
    limits = bounds()
    failed = False
    for name in names:
        first = runner.run(name, seed, seconds, smoke=smoke)
        second = runner.run(name, seed, seconds, smoke=smoke)
        show(first)
        show(second)
        failed |= not (first.correct and second.correct)
        for metric, unit in runner.END_TO_END:
            gap = stats.relative_gap(first.metrics[metric],
                                     second.metrics[metric])
            over = abs(gap) > limits[metric]
            failed |= over
            print("  selfcheck %-12s %12.4f -> %12.4f %-3s  gap %+6.2f%% "
                  "(bound %.0f%%)%s"
                  % (metric, first.metrics[metric], second.metrics[metric],
                     unit, 100 * gap, 100 * limits[metric],
                     "  EXCEEDED" if over else ""))
        if first.summaries["lane_ops"] != second.summaries["lane_ops"]:
            failed = True
            print("  selfcheck lane ops differ between the two runs")
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.SPECS),
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                        help="seed of every generated input (held-out "
                             "seed for checks: %d)" % workloads.HELD_OUT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=workloads.RUN_SECONDS,
                        help="measured time the block count is sized for")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: untraced pass only, 1: traced pass only "
                             "(default: both)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny graphs, 3 blocks: a functional check")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the untraced suite twice and compare")
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(workloads.SPECS)
    stamp = environment()
    print("environment: %s" % json.dumps(stamp))
    if args.selfcheck:
        return selfcheck(names, args.seed, args.seconds, args.smoke)
    passes = (False, True) if args.trace is None else (bool(args.trace),)
    outcomes = []
    for name in names:
        for traced in passes:
            outcome = runner.run(name, args.seed, args.seconds,
                                 traced=traced, smoke=args.smoke)
            show(outcome)
            outcomes.append(outcome)
    stamp["loadavg_end"] = list(os.getloadavg())
    stamp["config_signature"] = next(
        (o.config_signature for o in outcomes if o.config_signature), None)
    os.makedirs(engines.OUT, exist_ok=True)
    with open(os.path.join(engines.OUT, "report.json"), "w") as handle:
        json.dump({"environment": stamp, "seed": args.seed,
                   "smoke": args.smoke, "passes": [
                       {"workload": o.workload, "traced": o.traced,
                        "attempted": o.attempted, "failed": o.failed,
                        "metrics": o.metrics} for o in outcomes]},
                  handle, indent=1)
    if args.workload and args.trace is not None:
        print(result_line(outcomes[0]))
    return 0 if all(outcome.correct for outcome in outcomes) else 1


if __name__ == "__main__":
    # a plain kill must still unwind the engines and stop their children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
