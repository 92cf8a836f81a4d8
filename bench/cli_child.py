"""Run one magnonlab command line under the tracer and save its trace.

Usage: python3 bench/cli_child.py TRACE_JSON ARG...

Equivalent to `magnonlab ARG...`, except that it times the package import,
installs the span wrappers around `magnonlab.cli.main`, and writes the
spans, counters and replayed peaks to TRACE_JSON before exiting with the
command's exit code.
"""

import json
import sys
import time

t0 = time.perf_counter()
import magnonlab.cli  # noqa: E402

import_s = time.perf_counter() - t0

from tracer import Tracer  # noqa: E402


def main():
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer:
        code = magnonlab.cli.main(argv)
    record = {
        "import_s": import_s,
        "spans": tracer.span_records(),
        "counters": dict(tracer.counters),
        "peaks": tracer.replay_peaks(),
    }
    with open(trace_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
