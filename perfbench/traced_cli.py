"""Run one `groupoidal` CLI job with its layers traced.

    python3 perfbench/traced_cli.py SPANS_OUT COMMAND INPUT [OPTIONS...]

The engine is imported from PYTHONPATH as usual.  The job's spans and
counters are kept in memory and written to SPANS_OUT as JSON when the job
ends, or when SIGTERM stops it at its time limit; a stopped job then
contributes only the spans that had closed.
"""

import json
import os
import signal
import sys
import time

from layers import IMPORT_SPAN, Tracer


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()

    def dump():
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans, "counts": tracer.counts},
                      handle)

    def stop(signum, frame):
        sys.stdout.flush()
        dump()
        os._exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    start = time.perf_counter()
    from groupoidal import cli
    tracer.record(IMPORT_SPAN, start, time.perf_counter())
    tracer.install()
    code = cli.main(argv)
    sys.stdout.flush()
    dump()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
