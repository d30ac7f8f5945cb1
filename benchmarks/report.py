"""Generate EXPERIMENTS.md from a pytest-benchmark JSON dump.

Usage::

    pytest benchmarks/ --benchmark-only \
        --benchmark-json=bench_results.json
    python benchmarks/report.py bench_results.json > EXPERIMENTS.md

Groups benchmarks by their ``benchmark.group`` (``tableNN:...`` /
``figNN:...``), renders one markdown table per experiment with wall time
and the simulated-SIMD op counts the harness attaches via
``extra_info``, and prefixes each with the paper's expected shape.

Perf-diff mode::

    python benchmarks/report.py --diff \
        benchmarks/baselines/bench_results.json current.json \
        [--threshold 1.25]

Compares the *speedup ratios* each smoke benchmark stamps into
``extra_info["speedup"]`` (wall time relative to that group's baseline
row — e.g. ``interpreted`` for codegen).  Rows present on only one
side (a retired benchmark's, such as the ``parallel:*`` rows the
committed baselines still hold) are listed and never fail the diff.
Ratios are machine-relative, so a committed baseline from one host is
comparable with a CI run on another: absolute times shift together,
the ratio between rows should not.  Exits nonzero when any row's
speedup degraded by more than ``--threshold`` (default 1.25 = a >25%
regression) — the CI ``perf-smoke`` job fails on that signal.

Trajectory mode::

    python benchmarks/report.py --diff-latest \
        benchmarks/baselines current.json
    python benchmarks/report.py current.json \
        --append-trajectory benchmarks/baselines

The trajectory is the sequence ``BENCH_1.json``, ``BENCH_2.json``, ...
under the baselines directory — one entry per recorded run, so perf
history stays diffable in git rather than a single overwritten
baseline.  ``--diff-latest`` compares against the highest-numbered
entry (falling back to the legacy ``bench_results.json`` when no
trajectory exists yet) and ``--append-trajectory`` records the current
results as the next entry.
"""

import argparse
import json
import os
import re
import shutil
import sys
from collections import defaultdict

#: Expected-shape commentary per experiment id, written against the
#: paper's tables/figures.  Rendered above each measured table.
EXPECTATIONS = {
    "codegen": (
        "Paper §3.3: compiled execution with plan caching — on a "
        "repeated small-graph pattern query the default engine "
        "(fused: cached plans, numpy block kernels) beats interpreted "
        "by well over the 2x floor, because a cache hit skips parse, "
        "GHD search, and bag lowering (the counters in extra_info "
        "show zero on the cached path) and no binding costs a Python "
        "loop iteration; the uncached row prices the full pipeline on "
        "top of the kernels and lands between the two.  The "
        "phase_compile_ms / phase_execute_ms columns come from one "
        "extra traced repetition (repro.obs span tracer) and are "
        "re-rendered in the phase-breakdown section at the bottom."),
    "optimizer": (
        "Logical pass pipeline (docs/architecture.md): the overhead "
        "row prices frontend + rewrites + planning alone and must sit "
        "far below one bag evaluation (sub-millisecond per rule at "
        "this scale).  The pruned variant beats unpruned on the "
        "existential-tail path query because attribute pruning "
        "projects the tail away before GHD search; the cse variant "
        "beats no-cse on the two-rule shared-triangle program because "
        "the second rule's bag is a memo hit (cse.bag_hits in "
        "metrics).  Results are identical across all variants."),
    "telemetry": (
        "Continuous telemetry (repro.obs.telemetry): running the full "
        "pipeline — write-ahead in-flight journal, rotating JSONL "
        "query log, flight ring, labeled lifetime series — must cost "
        "at most 2% of wall time on the codegen smoke workload, and "
        "telemetry off stays one `is None` test on the hot path.  The "
        "wall rows (off / telemetry / telemetry+disk) should be "
        "indistinguishable at this scale; the acceptance number is "
        "the wrapper-overhead row, whose speedup column is "
        "budget/measured (>= 1.0 means within the 2% budget, and the "
        "perf-diff gate trips long before instrumentation cost "
        "reaches the budget)."),
    "incremental": (
        "Incremental view maintenance (repro.engine.incremental): on "
        "the triangle-count view, the delta rows append a mutation "
        "batch and refresh through the semi-naive route (7 signed "
        "inclusion–exclusion terms over the batch-sized Δ relation), "
        "the rebuild rows re-run the defining program from scratch "
        "(incremental_views=False).  Delta must beat rebuild >= 5x at "
        "the 0.1% mutation rate at full scale; the gap narrows toward "
        "1x (and inverts) as the rate grows, because the delta terms "
        "approach full-join size while paying 7x the per-rule "
        "overhead.  Both routes return bit-identical view contents — "
        "the mutation fuzzer enforces the same contract across the "
        "whole config matrix."),
    "serve": (
        "Query daemon (repro.serve): the cold row prices the "
        "no-daemon path — full Database construction, trie build, and "
        "cold planning per request; warm-miss is a daemon round trip "
        "with the result cache defeated (fresh head name per request, "
        "so socket + admission + real execution on warm tries); "
        "warm-hit is a repeated query served straight off the event "
        "loop from the keyed result cache.  Warm-hit p50 must beat "
        "cold p50 >= 10x (the acceptance floor; in practice orders of "
        "magnitude — a hit skips parse, planning, and execution).  "
        "The mixed-load rows are client-observed latencies under a "
        "4-client 90/10 read/write storm; the invalidation proof "
        "(asserted by the smoke gate, not a row) shows hits surviving "
        "unrelated-relation mutations while mutated-relation entries "
        "miss, with the daemon cache counters and the telemetry "
        "result_cache tier counters agreeing."),
    "parallel": (
        "Paper §5.1.2: dynamic load balancing on power-law graphs — "
        "4-worker work stealing beats the static np.array_split "
        "partitioner on wall-clock, with a max/min worker-busy ratio "
        "near 1 where static's explodes (~10-20x, every hub lands in "
        "its first chunk under degree ordering).  Absolute speedup "
        "over serial depends on host core count; the busy-ratio gap "
        "does not."),
    "table04": (
        "Paper Table 4: optimizer level vs oracle — set level closest "
        "overall (1.1-1.6x); relation level worst on the high-skew "
        "dataset; block level in between.  Compare the x_oracle column."),
    "table05": (
        "Paper Table 5: triangle counting — EmptyHeaded first on every "
        "dataset in algorithmic work (model_ops), low-level engines "
        "within small factors, high-level engines orders of magnitude "
        "behind (SociaLite t/o on the largest).  Wall time in pure "
        "Python additionally reflects interpreter constants; see the "
        "metrics note in EXPERIMENTS.md."),
    "table06": (
        "Paper Table 6: PageRank x5 — EmptyHeaded within small factors "
        "of the tuned (Galois-class) engine, ahead of the per-vertex "
        "scalar engines, an order of magnitude ahead of "
        "SociaLite/LogicBlox classes."),
    "table07": (
        "Paper Table 7: SSSP — the tuned (Galois-class) engine wins by "
        "2-30x; EmptyHeaded beats the scalar vertex-program and datalog "
        "engines; LogicBlox-class far behind."),
    "table08": (
        "Paper Table 8: K4/L31/B31 with ablations — '-R' costs up to "
        "orders of magnitude (layouts), '-RA' more, '-GHD' blows up or "
        "times out on B31, is skipped for K4 (single bag optimal); "
        "SociaLite/LogicBlox classes t/o or trail by orders of "
        "magnitude."),
    "table09": (
        "Paper Table 9: ordering costs — degree/rev-degree cheapest, "
        "BFS linear in edges, hybrid ≈ BFS + degree, shingle/strong-"
        "runs in between."),
    "table10": (
        "Paper Table 10: random-vs-degree ordering matters little "
        "without symmetric filtering and more with it; the set-level "
        "optimizer is more robust to bad orderings than uint-only."),
    "table11": (
        "Paper Table 11: '-S' (no SIMD) costs ~1-2x, '-R' most on "
        "high-skew data, '-SR' compounds; effects larger on default "
        "(unfiltered) data."),
    "table13": (
        "Paper Table 13: selection push-down wins large factors, most "
        "on low-selectivity (low-degree) nodes; '-GHD' (no push-down) "
        "much slower; LogicBlox-class trails."),
    "table14": (
        "Paper Table 14: neighborhood sets are extremely sparse — mean "
        "range dwarfs mean cardinality."),
    "table15": (
        "Paper Table 15: layout-decision overhead single-digit percent "
        "for the set optimizer, 2-3x more for block level."),
    "fig05": (
        "Paper Figure 5: uint wins sparse, bitset wins dense, with a "
        "density crossover."),
    "fig06": (
        "Paper Figure 6: the block-composite layout beats homogeneous "
        "layouts on sets with internal dense regions (up to 2x)."),
    "fig07": (
        "Paper Figure 7: degree ordering best at low power-law "
        "exponents, BFS best at high; hybrid tracks the winner."),
    "fig09": (
        "Paper Figure 9: best layout pair by density; compressed "
        "layouts (variant/bitpacked) never win due to decode cost."),
    "fig10": (
        "Paper Figure 10: galloping overtakes shuffling past the 32:1 "
        "cardinality ratio and dominates at extreme skew."),
    "fig11": (
        "Paper Figure 11: at equal cardinalities the shuffling family "
        "leads across densities; BMiss pays for prefix collisions on "
        "dense ranges."),
    "asymptotics": (
        "Paper §1 / §2.1: EmptyHeaded's op count tracks the AGM bound "
        "(~N^1.5 on complete graphs, sublinear constants from bitsets); "
        "the pairwise engine's wedge intermediate is Θ(N²) on star "
        "graphs."),
    "appendixC": (
        "Paper Appendix C.1: variant/bitpacked compress clustered "
        "data well below 4 bytes/value but pay a decode on every "
        "use; uint is the fast, incompressible baseline."),
    "ablation-b2": (
        "Paper Appendix B.2: reusing the identical Barbell triangle bag "
        "≈2x; skipping the top-down pass ~10%."),
}


def load(path):
    with open(path) as handle:
        return json.load(handle)


def experiment_of(group):
    return group.split(":", 1)[0] if group else "ungrouped"


def render(data):
    by_experiment = defaultdict(lambda: defaultdict(list))
    for bench in data["benchmarks"]:
        group = bench.get("group") or "ungrouped"
        by_experiment[experiment_of(group)][group].append(bench)

    lines = []
    for experiment in sorted(by_experiment):
        lines.append("### %s" % experiment)
        lines.append("")
        expectation = EXPECTATIONS.get(experiment)
        if expectation:
            lines.append("*Expected shape:* %s" % expectation)
            lines.append("")
        for group in sorted(by_experiment[experiment]):
            benches = by_experiment[experiment][group]
            benches.sort(key=lambda b: b["stats"]["mean"])
            lines.append("**%s**" % group)
            lines.append("")
            extra_keys = sorted({key for bench in benches
                                 for key in bench.get("extra_info", {})})
            header = ["engine/variant", "wall (ms)", "rel"] + extra_keys
            lines.append("| " + " | ".join(header) + " |")
            lines.append("|" + "---|" * len(header))
            best = benches[0]["stats"]["mean"]
            for bench in benches:
                name = bench["name"].replace("test_", "", 1)
                mean_ms = bench["stats"]["mean"] * 1000
                row = [name, "%.1f" % mean_ms,
                       "%.2fx" % (bench["stats"]["mean"] / best)]
                for key in extra_keys:
                    value = bench.get("extra_info", {}).get(key, "")
                    row.append(str(value))
                lines.append("| " + " | ".join(row) + " |")
            lines.append("")
    phase_lines = render_phase_breakdown(data)
    if phase_lines:
        lines.extend(phase_lines)
    return "\n".join(lines)


def render_phase_breakdown(data):
    """Compile-vs-execute table for benchmarks that stamped per-phase
    timings (``phase_compile_ms`` / ``phase_execute_ms`` in
    ``extra_info``, measured by one traced repetition through the
    ``repro.obs`` span tracer)."""
    rows = []
    for bench in data["benchmarks"]:
        extra = bench.get("extra_info", {})
        if "phase_compile_ms" not in extra:
            continue
        compile_ms = float(extra["phase_compile_ms"])
        execute_ms = float(extra["phase_execute_ms"])
        total = compile_ms + execute_ms
        rows.append((bench.get("group") or "ungrouped",
                     bench["name"].replace("test_", "", 1),
                     compile_ms, execute_ms,
                     100.0 * compile_ms / total if total else 0.0))
    if not rows:
        return []
    lines = ["### phase breakdown (compile vs execute)", "",
             "*One traced repetition per row: time in the pipeline "
             "front (parse, GHD search, attribute ordering, codegen, "
             "plan-cache lookups) vs time executing bags.  Cached "
             "rows should spend ~everything in execute.*", "",
             "| group | engine/variant | compile (ms) | execute (ms) "
             "| compile share |",
             "|---|---|---|---|---|"]
    for group, name, compile_ms, execute_ms, share in sorted(rows):
        lines.append("| %s | %s | %.3f | %.3f | %.1f%% |"
                     % (group, name, compile_ms, execute_ms, share))
    lines.append("")
    return lines


def _speedup_index(data):
    """``{(group, name): speedup}`` for rows that stamped one."""
    index = {}
    for bench in data.get("benchmarks", []):
        speedup = bench.get("extra_info", {}).get("speedup")
        if speedup is None:
            continue
        index[(bench.get("group") or "ungrouped",
               bench["name"])] = float(speedup)
    return index


def render_diff(base, current, threshold):
    """Markdown perf-diff of two smoke-benchmark JSON dumps.

    Returns ``(lines, regressions)`` where ``regressions`` lists every
    row whose speedup (machine-relative, see the module docstring)
    degraded by more than ``threshold``.  Rows present on only one
    side are reported but never fail the diff — new benchmarks must
    not break CI before their baseline lands.
    """
    base_index = _speedup_index(base)
    current_index = _speedup_index(current)
    lines = ["### perf diff (speedup ratios, threshold %.2fx)"
             % threshold, "",
             "*Speedups are relative to each group's baseline row, so "
             "the comparison is machine-independent.  ratio = "
             "base / current; above the threshold = regression.*", "",
             "| group | engine/variant | base | current | ratio | |",
             "|---|---|---|---|---|---|"]
    regressions = []
    for key in sorted(set(base_index) | set(current_index)):
        group, name = key
        base_speedup = base_index.get(key)
        current_speedup = current_index.get(key)
        if base_speedup is None or current_speedup is None:
            lines.append("| %s | %s | %s | %s | - | only in %s |"
                         % (group, name,
                            "-" if base_speedup is None
                            else "%.2fx" % base_speedup,
                            "-" if current_speedup is None
                            else "%.2fx" % current_speedup,
                            "current" if base_speedup is None
                            else "base"))
            continue
        ratio = base_speedup / max(current_speedup, 1e-9)
        verdict = ""
        if ratio > threshold:
            verdict = "**REGRESSION**"
            regressions.append("%s/%s: speedup %.2fx -> %.2fx "
                               "(%.2fx worse)"
                               % (group, name, base_speedup,
                                  current_speedup, ratio))
        elif ratio < 1.0 / threshold:
            verdict = "improved"
        lines.append("| %s | %s | %.2fx | %.2fx | %.2f | %s |"
                     % (group, name, base_speedup, current_speedup,
                        ratio, verdict))
    lines.append("")
    return lines, regressions


def trajectory_entries(directory):
    """Sorted ``[(index, path)]`` of ``BENCH_<n>.json`` files."""
    entries = []
    if os.path.isdir(directory):
        for name in os.listdir(directory):
            match = re.match(r"BENCH_(\d+)\.json$", name)
            if match:
                entries.append((int(match.group(1)),
                                os.path.join(directory, name)))
    return sorted(entries)


def latest_baseline(directory):
    """Path of the highest-numbered trajectory entry, falling back to
    the legacy single-file ``bench_results.json``, else ``None``."""
    entries = trajectory_entries(directory)
    if entries:
        return entries[-1][1]
    legacy = os.path.join(directory, "bench_results.json")
    return legacy if os.path.exists(legacy) else None


def append_trajectory(directory, results_path):
    """Record ``results_path`` as the next ``BENCH_<n>.json`` entry."""
    entries = trajectory_entries(directory)
    index = entries[-1][0] + 1 if entries else 1
    if not os.path.isdir(directory):
        os.makedirs(directory)
    destination = os.path.join(directory, "BENCH_%d.json" % index)
    shutil.copyfile(results_path, destination)
    return destination


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="render or diff benchmark JSON dumps")
    parser.add_argument("results", nargs="?",
                        help="pytest-benchmark JSON to render as "
                             "EXPERIMENTS.md tables")
    parser.add_argument("--diff", nargs=2, metavar=("BASE", "CURRENT"),
                        help="compare two smoke-benchmark dumps by "
                             "speedup ratio instead of rendering")
    parser.add_argument("--diff-latest", nargs=2,
                        metavar=("BASEDIR", "CURRENT"),
                        help="like --diff, but the base is the latest "
                             "BENCH_<n>.json trajectory entry in "
                             "BASEDIR (fallback: bench_results.json)")
    parser.add_argument("--append-trajectory", metavar="DIR",
                        help="record the results file as the next "
                             "BENCH_<n>.json entry under DIR")
    parser.add_argument("--threshold", type=float, default=1.25,
                        help="speedup-degradation ratio that fails "
                             "the diff (default 1.25 = >25%% slower)")
    args = parser.parse_args(argv)
    if args.diff or args.diff_latest:
        if args.diff:
            base_path, current_path = args.diff
        else:
            base_dir, current_path = args.diff_latest
            base_path = latest_baseline(base_dir)
            if base_path is None:
                print("no trajectory entries or bench_results.json "
                      "under %s; nothing to diff against" % base_dir)
                return 0
            print("diffing against %s" % base_path)
        lines, regressions = render_diff(load(base_path),
                                         load(current_path),
                                         args.threshold)
        print("\n".join(lines))
        if regressions:
            for regression in regressions:
                print("FAIL: %s" % regression, file=sys.stderr)
            return 1
        return 0
    if not args.results:
        parser.error("provide a results file, --diff BASE CURRENT, "
                     "or --diff-latest BASEDIR CURRENT")
    if args.append_trajectory:
        destination = append_trajectory(args.append_trajectory,
                                        args.results)
        print("recorded %s" % destination)
        return 0
    print(render(load(args.results)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
