"""Traced stand-in for ``python -m repro``: installs the layer
wrappers, runs the CLI with the arguments it was given, and writes
the spans out when the CLI returns (for ``serve``: after the drain).

    python -m benchmarks.e2e.traced_entry SPANS.json query --edges ...
"""

import sys

from . import tracing


def main(argv):
    spans_out, cli_args = argv[0], argv[1:]
    tracer = tracing.Tracer()
    # one process is one operation for `query`; for `serve` every
    # request is its own root span
    tracer.op = None if cli_args[0] == "serve" else 0
    tracing.Instrumentation(tracer).install()
    from repro.cli import main as cli_main
    try:
        return cli_main(cli_args)
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
