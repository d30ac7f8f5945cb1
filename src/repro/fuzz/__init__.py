"""Differential query fuzzer: randomized datalog programs cross-checked
over every execution path.

The engine has independently-built execution paths — interpreted vs
compiled, optimizer passes on vs off — multiplied by the set-layout
levels.  They are provably equivalent on paper (the GHD plan is
equivalent to the logical query); this package earns that confidence
empirically:

* :mod:`repro.fuzz.gen` — a seeded random generator of schemas, data,
  and datalog programs (multi-way joins, self-joins, selections,
  projections, every semiring aggregate, multi-rule programs, bounded
  and fixpoint recursion);
* :mod:`repro.fuzz.oracle` — an independent brute-force evaluator of
  those programs over plain Python values;
* :mod:`repro.fuzz.runner` — the differential harness: each program
  runs across a config matrix (``enumerate_config_matrix``) plus a
  plan-cache warm re-run, and every result is compared against every
  other and against the oracle(s);
* :mod:`repro.fuzz.shrink` — a delta-debugging minimizer that reduces a
  mismatching program (fewer rules → fewer atoms → fewer tuples →
  smaller domain) while it keeps failing;
* :mod:`repro.fuzz.corpus` — persistence of minimized failures under
  ``tests/fuzz_corpus/``, replayed as regular pytest cases.

Run it from the command line::

    python -m repro.fuzz --seed 0 --budget 500 --shrink

See ``docs/testing.md`` for the full testing-oracle story.
"""

from .gen import FuzzCase, FuzzRelation, generate_case, validate_case
from .oracle import evaluate_case
from .runner import (CaseFailure, FuzzReport, case_seed, run_case,
                     run_fuzz)
from .shrink import shrink_case
from .corpus import corpus_dir, load_corpus, save_case

__all__ = [
    "FuzzCase", "FuzzRelation", "generate_case", "validate_case",
    "evaluate_case",
    "CaseFailure", "FuzzReport", "case_seed", "run_case", "run_fuzz",
    "shrink_case",
    "corpus_dir", "load_corpus", "save_case",
]
