"""Self-test of the benchmark at toy sizes (V(4,2), V(3,3)).

    python3 perfbench/selftest.py

Runs every workload at toy size, untraced once and traced twice with two
different seeds, and checks that

* every job passes its output gate;
* the untraced run reports every end-to-end metric;
* the two traced runs give identical counts for search.nodes,
  search.emitted, spaces.points_calls and analysis.cases;
* the layer self times of a traced run sum to its traced total;
* untraced jobs run with no tracing wrapper bound, traced ones with some;
* a tracing target the code does not define is reported as absent, and
  removing the wrappers restores the package.

Exits 0 when every check holds, 1 otherwise.
"""
from __future__ import annotations

import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

STABLE_COUNTS = ("search.nodes", "search.emitted", "spaces.points_calls",
                 "analysis.cases")
END_TO_END = ("wall_vs_baseline", "setup_s", "peak_rss_mb")


def check_workload(name, problems):
    def expect(cond, what):
        if not cond:
            problems.append(f"{name}: {what}")

    plain = run.run_workload(name, 1, 1, trace=False, toy=True)
    expect(plain["correct"], "untraced run is not correct")
    expect(set(plain["metrics"]) == set(END_TO_END),
           f"untraced metrics {sorted(plain['metrics'])}")
    expect(all(c["wrappers"] == 0 for c in plain["children"]),
           "an untraced job ran with tracing wrappers bound")

    traced = [run.run_workload(name, seed, 1, trace=True, toy=True)
              for seed in (1, 2)]
    for rec in traced:
        expect(rec["correct"], f"traced run (seed {rec['seed']}) is not correct")
        for c in rec["children"]:
            expect((c["wrappers"] > 0) == c["traced"],
                   f"step {c['step']} traced={c['traced']} "
                   f"has {c['wrappers']} wrappers")
        total = rec["metrics"]["trace.total_s"]["value"]
        layers = sum(rec["layer_self_s"].values())
        expect(math.isclose(layers, total, rel_tol=1e-9, abs_tol=1e-9),
               f"layer self times sum to {layers}, traced total {total}")
    for key in STABLE_COUNTS:
        values = [rec["metrics"][key]["value"] for rec in traced]
        expect(values[0] == values[1], f"{key} differs between runs: {values}")
    print(f"{name}: " + ", ".join(
        f"{k}={traced[0]['metrics'][k]['value']}" for k in STABLE_COUNTS))


def check_absent_target(problems):
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import vspart  # noqa: F401
    import vspart.cli  # noqa: F401

    t = tracer.Tracer()
    t.install(targets=tracer.TARGETS + (("hstats", "no_such_function"),))
    if "hstats.no_such_function" not in t.absent:
        problems.append("a missing tracing target is not reported absent")
    if tracer.count_wrappers() == 0:
        problems.append("installing bound no wrapper")
    t.uninstall()
    if tracer.count_wrappers() != 0:
        problems.append("uninstalling left wrappers bound")


def main():
    problems = []
    for name in workloads.WORKLOADS:
        check_workload(name, problems)
    check_absent_target(problems)
    for p in problems:
        print("FAIL " + p)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
