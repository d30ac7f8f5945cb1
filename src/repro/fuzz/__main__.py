"""CLI entry point: ``python -m repro.fuzz --seed 0 --budget 500``.

Also reachable as ``python -m repro.cli fuzz ...``.  Exit status is the
number of failing cases (capped at 99), so CI can gate on it directly.
"""

import argparse
import sys

from ..engine.config import (enumerate_config_matrix,
                             enumerate_mutation_matrix)
from ..obs.metrics import MetricsRegistry
from .corpus import load_corpus, save_case
from .runner import (run_case, run_fuzz, run_mutation_fuzz,
                     run_serve_fuzz)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differential query fuzzer: random datalog programs "
                    "cross-checked across every execution path.")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed (default 0)")
    parser.add_argument("--budget", type=int, default=100,
                        help="number of cases to run (default 100)")
    parser.add_argument("--mutations", action="store_true",
                        help="fuzz incremental maintenance: interleaved "
                             "append/delete/query sequences checked "
                             "against a full-rebuild oracle")
    parser.add_argument("--serve", action="store_true",
                        help="fuzz the query daemon: replay mutation "
                             "cases through a live repro.serve daemon "
                             "and diff every reply against direct "
                             "Database execution")
    parser.add_argument("--shrink", action="store_true",
                        help="minimize failures before reporting them")
    parser.add_argument("--full-matrix", action="store_true",
                        help="full config cross product (16 configs) "
                             "instead of the covering set")
    parser.add_argument("--save-corpus", action="store_true",
                        help="write (shrunk) failures to the corpus "
                             "directory")
    parser.add_argument("--corpus-dir", default=None,
                        help="corpus directory override "
                             "(default tests/fuzz_corpus)")
    parser.add_argument("--replay-corpus", action="store_true",
                        help="re-check every stored corpus case and "
                             "exit")
    parser.add_argument("--max-failures", type=int, default=10,
                        help="stop after this many failures "
                             "(default 10)")
    parser.add_argument("--no-reference", action="store_true",
                        help="skip the tests/reference.py oracle layer")
    parser.add_argument("--metrics", action="store_true",
                        help="print fuzzing metrics at the end")
    parser.add_argument("--quiet", action="store_true",
                        help="no progress ticker")
    return parser


def _replay(args, matrix):
    cases = load_corpus(args.corpus_dir)
    if not cases:
        print("corpus is empty")
        return 0
    failures = 0
    for name, case in cases:
        failure = run_case(case, matrix,
                           check_reference=not args.no_reference)
        status = "ok" if failure is None else "FAIL"
        print("%-50s %s" % (name, status))
        if failure is not None:
            failures += 1
            print(failure.describe())
    print("corpus replay: %d case(s), %d failure(s)"
          % (len(cases), failures))
    return failures


def main(argv=None):
    args = build_parser().parse_args(argv)
    matrix = enumerate_config_matrix(full=args.full_matrix)
    if args.replay_corpus:
        return min(_replay(args, matrix), 99)
    metrics = MetricsRegistry(enabled=True) if args.metrics else None

    def ticker(done, budget, failures):
        if args.quiet:
            return
        if done % 25 == 0 or done == budget:
            print("\r%d/%d cases, %d failure(s)"
                  % (done, budget, failures), end="", flush=True)

    if args.serve:
        report = run_serve_fuzz(seed=args.seed, budget=args.budget,
                                matrix=enumerate_mutation_matrix(),
                                max_failures=args.max_failures,
                                metrics=metrics, progress=ticker)
    elif args.mutations:
        report = run_mutation_fuzz(seed=args.seed, budget=args.budget,
                                   matrix=enumerate_mutation_matrix(),
                                   max_failures=args.max_failures,
                                   metrics=metrics, progress=ticker)
    else:
        report = run_fuzz(seed=args.seed, budget=args.budget,
                          matrix=matrix, shrink=args.shrink,
                          max_failures=args.max_failures,
                          metrics=metrics, progress=ticker,
                          check_reference=not args.no_reference)
    if not args.quiet:
        print()
    print(report.describe())
    if args.save_corpus and not (args.mutations or args.serve):
        # Mutation cases replay from their seed; the corpus format only
        # stores plain FuzzCases.
        for failure in report.failures:
            case = failure.shrunk if failure.shrunk is not None \
                else failure.case
            if not case.description:
                case.description = failure.kind
            path = save_case(case, directory=args.corpus_dir)
            print("saved %s" % path)
    if metrics is not None:
        print(metrics.describe())
    return min(len(report.failures), 99)


if __name__ == "__main__":
    sys.exit(main())
