"""One darkfilter CLI run in a fresh process.

    python3 perfbench/child.py RECORD MODE RUN_ID SUBCOMMAND [CLI ARGS...]

Imports darkfilter from ``src/`` of the checkout this file sits in and
calls ``darkfilter.cli.main`` with SUBCOMMAND and the CLI arguments.
MODE ``untraced`` times only the import and the engine set-up calls;
MODE ``traced`` also records a span around every layer function (see
layers.py).  The timings, and the spans of a traced run, are written to
the RECORD JSON file once the command has returned.  The exit status is
the CLI's.
"""

import json
import os
import sys
import time

import layers
from spans import Tracer, maxrss_kb

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main():
    record_path, mode, run_id = sys.argv[1:4]
    argv = sys.argv[4:]
    if mode not in ("untraced", "traced"):
        raise SystemExit(f"unknown mode {mode!r}")
    sys.path.insert(0, SRC)
    rss_start = maxrss_kb()
    start = time.perf_counter()
    import darkfilter.cli
    import_s = time.perf_counter() - start
    if os.path.dirname(os.path.dirname(darkfilter.cli.__file__)) != SRC:
        raise SystemExit(f"darkfilter imported from {darkfilter.cli.__file__}"
                         f", not from {SRC}")
    tracer = Tracer(run_id)
    tracer.close(tracer.open("cli.import", start, rss_start))
    names = None if mode == "traced" else layers.SETUP_FUNCTIONS
    layers.install(tracer, darkfilter, names)
    status = darkfilter.cli.main(argv)
    setups = [s for s in tracer.spans if s["name"] in layers.SETUP_FUNCTIONS]
    record = {
        "status": status,
        "import_s": import_s,
        "engine_setup_s": sum(s["end"] - s["start"] for s in setups),
        "engine_setup_calls": len(setups),
        "spans": tracer.spans if mode == "traced" else None,
    }
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
