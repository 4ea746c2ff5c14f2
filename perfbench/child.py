"""One pass of a workload in a fresh interpreter.

    python3 perfbench/child.py SRC_DIR PLAN_JSON [--trace SPANS_JSON]
    python3 perfbench/child.py SRC_DIR --setup-only

Imports ``driftlab.cli`` from SRC_DIR, records the monotonic clock
(the parent subtracts its spawn time to get the set-up time), then runs
``driftlab.cli.main(argv)`` for each command of the plan in order.  The
last line of standard output is one JSON object with the pass's figures.
With ``--trace`` the tracer is installed after the import, and the spans
are written to SPANS_JSON once the commands have run.
"""

import os
import sys
import time

sys.path.insert(0, os.path.abspath(sys.argv[1]))
import driftlab.cli  # noqa: E402

IMPORTED = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def main() -> int:
    src = os.path.abspath(sys.argv[1])
    if not os.path.abspath(driftlab.cli.__file__).startswith(src + os.sep):
        print(f"driftlab was imported from {driftlab.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    if sys.argv[2] == "--setup-only":
        print(json.dumps({"imported": IMPORTED}))
        return 0

    with open(sys.argv[2], encoding="utf-8") as fh:
        plan = json.load(fh)
    tracer = None
    if len(sys.argv) > 3 and sys.argv[3] == "--trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    results = []
    t_start = time.perf_counter()
    for cmd in plan:
        try:
            if tracer is None:
                code = driftlab.cli.main(cmd["argv"])
            else:
                with tracer.span(f"cli.cmd.{cmd['command']}"):
                    code = driftlab.cli.main(cmd["argv"])
        except Exception:  # a crash is one failed command; the pass goes on
            traceback.print_exc()
            code = -1
        results.append({"label": cmd["label"], "code": code})
    run_s = time.perf_counter() - t_start

    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    record = {
        "imported": IMPORTED,
        "run_s": run_s,
        "cpu_s": own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime,
        "peak_rss_mb": max(own.ru_maxrss, kids.ru_maxrss) / 1024.0,  # ru_maxrss is KiB on Linux
        "commands": results,
    }
    if tracer is not None:
        out_bytes = sum(os.path.getsize(c["out"]) for c in plan if os.path.exists(c["out"]))
        record["layers"] = tracer.metrics(out_bytes)
        tracer.write_spans(sys.argv[4])
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
