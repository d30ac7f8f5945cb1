"""Produce the full EXPERIMENTS.md from a benchmark JSON run.

Usage::

    python benchmarks/make_experiments.py bench_results.json > EXPERIMENTS.md

Prepends the methodology narrative to the per-experiment measured
tables rendered by :mod:`report`.
"""

import sys

from report import load, render

HEADER = """\
# EXPERIMENTS — paper vs. measured

Reproduction of every table and figure in the evaluation of
*EmptyHeaded: A Relational Engine for Graph Processing* (SIGMOD 2016),
measured by `pytest benchmarks/ --benchmark-only` on the synthetic
Table 3 analogs (`repro.graphs.datasets`).  Regenerate with::

    pytest benchmarks/ --benchmark-only --benchmark-json=bench_results.json
    python benchmarks/make_experiments.py bench_results.json > EXPERIMENTS.md

## How to read these numbers

**We reproduce shapes, not absolute times.**  The paper measured a C++
code generator with AVX SIMD on a 48-core Xeon against native
competitors on billion-edge graphs; this reproduction is pure Python on
scaled-down synthetic graphs.  Two metrics appear in every table:

* **wall (ms)** — actual elapsed time in this Python process;
* **model_ops** — simulated hardware operations: every intersection
  kernel and every baseline engine charges the operations *its
  algorithm* performs, priced at the paper's lane widths (4×32-bit
  compares per SSE op, one 256-bit AVX AND per bitset block, one scalar
  op per merge step / hash probe / pairwise-join tuple).

For comparisons *within* the engine (ablations, layout levels, node
orderings, density/cardinality sweeps) both metrics tell the same
story.  For comparisons *across* engines, `model_ops` is primary: a
flat hand-written Python loop enjoys far smaller interpreter constants
than a layered engine, an artifact that would not survive compilation —
the op counts isolate the algorithmic effects (plan shape, layouts,
min-property intersections) that the paper attributes its results to.
Wall clock still reproduces every *asymptotic* separation: engines the
paper reports as "t/o" time out here too (20 s budget standing in for
the paper's 30 minutes), and the pairwise engines blow up quadratically
on exactly the instances theory says they must.

Timeouts appear as *skipped* benchmarks ("t/o"), matching the paper's
table convention.  `rel` is each row's slowdown relative to the
group's fastest row (wall clock).

## Headline checks (deterministic shape assertions)

These are enforced by ``test_shape_*``/claims tests in the repository
(run under plain ``pytest``), independent of timing noise:

| Paper claim | Where verified |
|---|---|
| Triangle work within the AGM bound (~N^1.5 on worst-case instances); pairwise plans Θ(N²) on star instances; gap grows with √N | `benchmarks/bench_asymptotics_worst_case.py`, `tests/test_paper_claims.py` |
| Barbell: GHD plan asymptotically beats the single-node plan (Fig 3c vs 3b); the "-GHD" plan times out on the real analogs | `tests/test_paper_claims.py`, table08 below |
| Set-level layout optimizer within small factor of the oracle; relation level worst on high skew (paper: 7.3x on Google+) | table04 below |
| Galloping overtakes shuffling past the 32:1 cardinality ratio | `bench_fig10`, `tests/sets/test_cost_model.py` |
| Bitset wins dense / uint wins sparse, with a density crossover | `bench_fig05`, `tests/sets/test_cost_model.py` |
| Block-composite beats homogeneous layouts on internal density skew | `bench_fig06` |
| Compressed layouts (variant/bitpacked) never win an intersection | `bench_fig09` |
| Symmetric filtering: 6x output reduction, less total work | `tests/test_paper_claims.py` |
| B.2 bag reuse ≈2x on Barbell | `bench_ablation_b2_equivalence.py` |

## Known divergences from the paper

* **Wall-clock cross-engine order on pattern queries at small scale.**
  On triangle/K4-style queries the lean CSR baselines beat
  EmptyHeaded's wall clock despite doing more algorithmic work —
  interpreter constants, as discussed above.  The PageRank and SSSP
  rows below run on the interpreter as well (the table modules pin the
  oracle), one set intersection per vertex and round; the default
  engine's block kernels — the generated-inner-loop analog, measured
  only by `benchmarks/e2e/` — are what restore the paper's band on
  those two.
* **LogicBlox-class gaps are smaller than three orders of magnitude.**
  The paper's LogicBlox figures include a full commercial system's
  overheads (transactions, pure scalar leapfrog at native speed); our
  stand-in shares this reproduction's numpy substrate except where the
  ablations remove it, so the measured gap is the *algorithmic* share
  (single-bag plans + no layouts + scalar kernels), typically 1–2
  orders of magnitude on the op metric.
* **Absolute density-skew values.**  Pearson-first skew on small
  synthetic graphs doesn't match Table 3's absolute values, but the
  ordering (Google+ ≫ Higgs/Twitter > LiveJournal/Orkut/Patents) does.

## Measured results

"""


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sys.stdout.write(HEADER)
    sys.stdout.write(render(load(argv[1])))
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
