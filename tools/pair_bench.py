#!/usr/bin/env python3
"""Interleaved parent/change runs of the end-to-end benchmark.

Every performance claim in ``EXPERIMENTS.md`` rests on the same
protocol (``choosing-metrics`` §8): ten pairs of runs of
``benchmarks/e2e/run.py``, one of the parent commit and one of the
change, each from its own directory, the side that runs first
alternating, then a verdict per metric from medians, quartiles and
pairs won.  This script is that protocol::

    python tools/pair_bench.py --parent <sha> \\
        [--workload W ...] [--seed S] [--pairs 10] [--change <sha>]

The parent (and a ``--change`` commit) is exported with ``git archive``
into a temporary directory; without ``--change`` the change side is a
copy of the working tree's tracked and untracked-but-not-ignored files,
so uncommitted work can be measured.  Nothing is written to the
repository (no ``git worktree`` state is left behind either) and
``benchmarks/e2e/run.py`` runs unmodified, with ``--trace 0``, from the
root of each copy.  Output: the markdown tables ``EXPERIMENTS.md`` uses —
per workload and metric the two medians with their quartiles, the
ratio, pairs won and the verdict — then every run's ``op_ms`` in pair
order.  Bounds come from ``BENCHMARK.json``.

``--traced`` runs one ``--trace 1`` pass per side and workload instead,
reads each side's ``benchmarks/e2e/out/report.json`` from its copy and
prints the parent-vs-change table of every ``per_layer`` metric of
``BENCHMARK.json`` that is not zero on both sides — where a change of
``op_ms`` went, layer by layer.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile


def quantile(values, q):
    """Linear-interpolation quantile of ``values`` (numpy's default)."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    below = int(position)
    above = min(below + 1, len(ordered) - 1)
    return ordered[below] \
        + (position - below) * (ordered[above] - ordered[below])


def summary(values):
    """``(median, q1, q3)``."""
    return quantile(values, 0.5), quantile(values, 0.25), \
        quantile(values, 0.75)


def verdict(parent, change, bound, better="lower"):
    """Judge one metric from paired runs (``parent[i]`` and
    ``change[i]`` ran back to back).  Returns ``(verdict, pairs won)``.

    * ``better``: the change wins at least nine tenths of the pairs
      (ties count for neither side) **and** the medians differ, in the
      good direction, by more than the distance between the quartiles
      of the parent's own runs;
    * ``within bound``: otherwise, the change's median is no worse than
      the parent's by more than ``bound`` (a fraction of the parent's);
    * ``unresolved``: it is beyond the bound, but a side's own
      interquartile distance is wider than the bound — these runs
      cannot tell;
    * ``worse``: beyond the bound, and the spread does not excuse it.
    """
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * c < sign * p for p, c in zip(parent, change))
    p_median, p_q1, p_q3 = summary(parent)
    c_median, c_q1, c_q3 = summary(change)
    gain = sign * (p_median - c_median)
    if won >= 0.9 * len(parent) and gain > p_q3 - p_q1:
        return "better", won
    allowed = bound * abs(p_median)
    if -gain <= allowed:
        return "within bound", won
    if max(p_q3 - p_q1, c_q3 - c_q1) > allowed:
        return "unresolved", won
    return "worse", won


def number(value):
    return "%.4g" % value


def full_number(value):
    """``value`` without rounding away what a per-layer comparison
    reads: whole numbers in full (lane ops must read identical), four
    significant digits below 10 000, one decimal above."""
    if float(value).is_integer():
        return "%d" % value
    return number(value) if abs(value) < 1e4 else "%.1f" % value


def table(results, metrics):
    """The summary table: ``results[workload][side]`` is the list of
    parsed ``run.py`` reports, ``metrics`` the ``end_to_end`` entries
    of ``BENCHMARK.json``."""
    lines = ["| workload | metric | parent median (q1-q3) | change median "
             "(q1-q3) | change/parent | pairs won | verdict |",
             "|---|---|---|---|---|---|---|"]
    for workload, sides in results.items():
        for metric in metrics:
            parent, change = ([run["metrics"][metric["name"]]["value"]
                               for run in sides[side]]
                              for side in ("parent", "change"))
            judged, won = verdict(parent, change, metric["bound"],
                                  metric["better"])
            p_summary, c_summary = summary(parent), summary(change)
            cells = ["%s (%s-%s)" % tuple(map(number, side))
                     for side in (p_summary, c_summary)]
            ratio = c_summary[0] / p_summary[0] if p_summary[0] \
                else float("nan")
            lines.append("| %s | %s | %s | %s | %.3f | %d/%d | %s |" % (
                workload, metric["name"], cells[0], cells[1], ratio, won,
                len(parent), judged))
        lines.append("| %s | failed | %d | %d | | | |" % (
            workload, *(sum(run["failed"] for run in sides[side])
                        for side in ("parent", "change"))))
    return "\n".join(lines)


def traced_table(results, metrics):
    """The per-layer table: ``results[workload][side]`` is one traced
    pass of ``report.json`` (its ``failed`` count and ``metrics``
    values), ``metrics`` the ``per_layer`` entries of
    ``BENCHMARK.json``.  Rows that read zero on both sides are left
    out."""
    lines = ["| workload | layer metric | parent | change | change/parent |",
             "|---|---|---|---|---|"]
    for workload, sides in results.items():
        for metric in metrics:
            parent, change = (sides[side]["metrics"].get(metric["name"], 0)
                              for side in ("parent", "change"))
            if not parent and not change:
                continue
            lines.append("| %s | `%s` | %s | %s | %s |" % (
                workload, metric["name"], full_number(parent),
                full_number(change),
                "%.3f" % (change / parent) if parent else ""))
        lines.append("| %s | failed | %d | %d | |" % (
            workload, sides["parent"]["failed"], sides["change"]["failed"]))
    return "\n".join(lines)


def runs_table(results, metric="op_ms"):
    """Every run's ``metric``, in pair order."""
    lines = ["| workload | side | `%s` of the runs |" % metric,
             "|---|---|---|"]
    for workload, sides in results.items():
        for side in ("parent", "change"):
            lines.append("| %s | %s | %s |" % (workload, side, " ".join(
                number(run["metrics"][metric]["value"])
                for run in sides[side])))
    return "\n".join(lines)


# -- the two copies -----------------------------------------------------------


def git(root, *args):
    return subprocess.run(("git", "-C", root) + args, check=True,
                          stdout=subprocess.PIPE).stdout


def export_commit(root, commit, target):
    """The committed files of ``commit`` under ``target``."""
    os.makedirs(target)
    archive = subprocess.Popen(("git", "-C", root, "archive", commit),
                               stdout=subprocess.PIPE)
    subprocess.run(("tar", "-x", "-C", target), stdin=archive.stdout,
                   check=True)
    if archive.wait():
        raise SystemExit("git archive %s failed" % commit)


def export_working_tree(root, target):
    """The working tree's tracked and untracked-but-not-ignored files."""
    listed = git(root, "ls-files", "-co", "--exclude-standard", "-z")
    for name in filter(None, listed.decode().split("\0")):
        source = os.path.join(root, name)
        if os.path.isfile(source):      # a deleted tracked file is gone
            copy = os.path.join(target, name)
            os.makedirs(os.path.dirname(copy), exist_ok=True)
            shutil.copy2(source, copy)


def command_for(workload, seed, trace):
    command = [sys.executable, "benchmarks/e2e/run.py", "--workload",
               workload, "--trace", str(trace)]
    if seed is not None:
        command += ["--seed", str(seed)]
    return command


def run_once(checkout, workload, seed):
    """One ``run.py`` report (its last stdout line)."""
    done = subprocess.run(command_for(workload, seed, 0), cwd=checkout,
                          stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    report = json.loads(done.stdout.strip().splitlines()[-1])
    report["exit"] = done.returncode
    return report


def run_traced(checkout, workload, seed):
    """The traced pass of one ``run.py --trace 1``, as the copy's
    ``benchmarks/e2e/out/report.json`` records it."""
    path = os.path.join(checkout, "benchmarks", "e2e", "out", "report.json")
    if os.path.exists(path):            # an earlier workload's
        os.remove(path)
    done = subprocess.run(command_for(workload, seed, 1), cwd=checkout,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True)
    if not os.path.exists(path):
        raise SystemExit("run.py --trace 1 wrote no report in %s:\n%s"
                         % (checkout, done.stderr[-2000:]))
    with open(path) as handle:
        (traced,) = [run for run in json.load(handle)["passes"]
                     if run["workload"] == workload and run["traced"]]
    return traced


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True,
                        help="commit the change is measured against")
    parser.add_argument("--change", help="commit to measure (default: "
                        "the working tree, uncommitted files included)")
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload of "
                        "BENCHMARK.json")
    parser.add_argument("--seed", type=int,
                        help="input seed (held-out: 20160701)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--traced", action="store_true",
                        help="one --trace 1 pass per side instead: the "
                        "per-layer table")
    parser.add_argument("--json", help="also write every report here")
    args = parser.parse_args(argv)
    root = git(os.path.dirname(os.path.abspath(__file__)), "rev-parse",
               "--show-toplevel").decode().strip()
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    workloads = args.workload \
        or [entry["name"] for entry in contract["workloads"]]
    scratch = tempfile.mkdtemp(prefix="pair_bench_")
    try:
        checkouts = {side: os.path.join(scratch, side)
                     for side in ("parent", "change")}
        export_commit(root, args.parent, checkouts["parent"])
        if args.change:
            export_commit(root, args.change, checkouts["change"])
        else:
            export_working_tree(root, checkouts["change"])
        results = {}
        for turn, workload in enumerate(workloads):
            if args.traced:
                order = ("parent", "change") if turn % 2 == 0 \
                    else ("change", "parent")
                results[workload] = {
                    side: run_traced(checkouts[side], workload, args.seed)
                    for side in order}
                continue
            sides = results[workload] = {"parent": [], "change": []}
            for pair in range(args.pairs):
                order = ("parent", "change") if (pair + turn) % 2 == 0 \
                    else ("change", "parent")
                for side in order:
                    report = run_once(checkouts[side], workload, args.seed)
                    sides[side].append(report)
                    print("%s pair %d %s: op_ms %s failed %d exit %d" % (
                        workload, pair, side,
                        number(report["metrics"]["op_ms"]["value"]),
                        report["failed"], report["exit"]),
                        file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"parent": args.parent, "change": args.change,
                       "seed": args.seed, "results": results}, handle)
    if args.traced:
        print(traced_table(results, contract["per_layer"]))
        return 0
    print(table(results, contract["end_to_end"]))
    print()
    print(runs_table(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
