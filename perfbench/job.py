"""Run one set-up or one job of a workload in this fresh interpreter.

    python3 perfbench/job.py WORKLOAD (setup | INDEX) --seed N --workdir DIR
                             [--toy] [--trace] [--baseline]

The package is imported from ``src/`` of the checkout this file sits in,
or with ``--baseline`` from ``perfbench/baseline/``, the frozen copy that
each measured job is timed against.
The last line of standard output is one JSON object: ``ok``, ``seconds``
(the set-up or job body, without interpreter start and import), ``rss_mb``
(peak RSS of this process), ``detail``, ``wrappers`` (tracing wrappers
installed, 0 when untraced) and ``trace`` (the folded spans, or null).
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
BASELINE = os.path.join(HERE, "baseline")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("step")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--toy", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--baseline", action="store_true")
    args = ap.parse_args(argv)

    src = BASELINE if args.baseline else SRC
    sys.path.insert(0, src)
    import vspart
    import vspart.cli  # noqa: F401  (the package does not import it)

    if not os.path.abspath(vspart.__file__).startswith(src + os.sep):
        raise SystemExit(f"vspart imported from {vspart.__file__}, not {src}")

    import workloads
    from tracer import Tracer, count_wrappers

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    result = {}

    def body():
        if args.step == "setup":
            result["detail"] = workloads.setup(
                args.workload, args.seed, args.workdir, args.toy)
            result["ok"] = True
        else:
            spec = workloads.jobs(args.workload, args.workdir, args.toy)[
                int(args.step)]
            result["ok"], result["detail"] = workloads.run_job(spec)

    try:
        if tracer is not None:
            seconds = tracer.root(body)
        else:
            start = time.perf_counter()
            body()
            seconds = time.perf_counter() - start
    except Exception:
        result = {"ok": False, "detail": {"error": traceback.format_exc()[-4000:]}}
        seconds = None
    print(json.dumps({
        "ok": result["ok"],
        "seconds": seconds,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "detail": result["detail"],
        "wrappers": count_wrappers(),
        "trace": tracer.summary() if tracer is not None else None,
    }))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
