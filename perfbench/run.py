"""Benchmark of the vspart verify and search paths.

    python3 perfbench/run.py --workload (verify|oracle|sweep) --seed N
                             --seconds S --trace (0|1)

Run it from the root of a checkout; the package is imported from ``src/``.
Every set-up and every job runs in its own fresh interpreter, so the
per-ambient caches start cold, as they do for each command a user types.
One caller runs the jobs closed loop, one at a time, with one thread.

``--trace 0`` sets up SETUP_REPEATS times, then runs the workload's jobs
round-robin while the next job is expected to end within ``--seconds``
(each job at least once), and reports the end-to-end metrics.  Each job
runs back to back with the same job on the frozen copy of the package in
``perfbench/baseline/``, first one then the other in turn, so that both
meet the same state of a shared host.  ``--trace 1``
sets up once traced, runs one untraced pass and one traced pass, and
reports the per-layer metrics.  Every job's output is checked; any failed
or wrong job makes the result incorrect and the exit code 1.

The last line of standard output is the JSON result; the lines above it
give every metric with its unit, the error rate and the environment.  The
full record is also written to ``perfbench/results/``.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import layer_of  # noqa: E402

SETUP_REPEATS = 5
# Stay inside the three minutes a run may take, whatever the jobs do.
RUN_DEADLINE_S = 170.0


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def steal_ticks():
    """Steal ticks of all CPUs so far (the eighth field of /proc/stat)."""
    text = _read("/proc/stat")
    if not text:
        return None
    fields = text.splitlines()[0].split()
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


def git_commit(root):
    """The checked-out commit, read from .git without running git; None
    outside a git work tree."""
    head = _read(os.path.join(root, ".git", "HEAD"))
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(os.path.join(root, ".git", ref))
    if direct:
        return direct.strip()
    for line in (_read(os.path.join(root, ".git", "packed-refs")) or "").splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[1] == ref:
            return parts[0]
    return None


def loadavg():
    return (_read("/proc/loadavg") or "").strip() or None


def environment():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(ROOT),
        "loadavg_start": loadavg(),
    }


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

class Runner:
    """Starts one child interpreter at a time and collects its result."""

    def __init__(self, workload, seed, workdir, toy):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.toy = toy
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.children = []

    def run(self, step, trace=False, baseline=False):
        # The baseline builds and reads its own corpus, so a later change
        # of the file format cannot break it.
        workdir = self.workdir + ("-baseline" if baseline else "")
        cmd = [sys.executable, os.path.join(HERE, "job.py"), self.workload,
               str(step), "--seed", str(self.seed), "--workdir", workdir]
        if self.toy:
            cmd.append("--toy")
        if trace:
            cmd.append("--trace")
        if baseline:
            cmd.append("--baseline")
        start = time.perf_counter()
        timeout = self.deadline - start
        try:
            if timeout <= 0:
                raise subprocess.TimeoutExpired(cmd, 0)
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=timeout, cwd=ROOT,
                                  env=dict(os.environ,
                                           PYTHONDONTWRITEBYTECODE="1"))
        except subprocess.TimeoutExpired:
            child = {"ok": False, "seconds": None, "rss_mb": None,
                     "detail": {"error": "run deadline reached"},
                     "wrappers": 0, "trace": None}
        else:
            try:
                child = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                child = {"ok": False, "seconds": None, "rss_mb": None,
                         "detail": {"error": "no result from child",
                                    "exit_code": proc.returncode,
                                    "stderr_tail": proc.stderr[-2000:]},
                         "wrappers": 0, "trace": None}
        child["wall"] = time.perf_counter() - start
        child["step"] = step
        child["traced"] = trace
        child["baseline"] = baseline
        self.children.append(child)
        return child

    def run_pass(self, trace=False):
        n = len(workloads.jobs(self.workload, self.workdir, self.toy))
        return [self.run(i, trace) for i in range(n)]

    def repeat(self, seconds):
        """Run the jobs round-robin, each paired with the same job on the
        baseline, until the next pair is expected to end after ``seconds``
        or a job fails; every job runs at least once.  Returns the
        (program, baseline) pairs of each job, in job order."""
        n = len(workloads.jobs(self.workload, self.workdir, self.toy))
        pairs = [[] for _ in range(n)]
        start = time.perf_counter()
        for i in itertools.count():
            step = i % n
            if i >= n:
                last = pairs[step][-1]
                if (time.perf_counter() - start + last[0]["wall"]
                        + last[1]["wall"] > seconds):
                    break
            if i % 2:
                base = self.run(step, baseline=True)
                prog = self.run(step)
            else:
                prog = self.run(step)
                base = self.run(step, baseline=True)
            pairs[step].append((prog, base))
            if not (prog["ok"] and base["ok"]):
                break
        return pairs


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _seconds(jobs):
    """Summed job time of a pass; None if any job failed."""
    if any(j["seconds"] is None for j in jobs):
        return None
    return sum(j["seconds"] for j in jobs)


def end_to_end(setups, pairs):
    """``wall_vs_baseline`` is the workload's job time over the time of the
    same jobs on the baseline.  For each job it takes the median, over the
    job's pairs, of program time over baseline time; the jobs' ratios are
    then weighted by their baseline times.  Wall time alone drifts by up
    to 2x from minute to minute on a shared host, and the two runs of a
    pair drift together, so the ratio spreads far less from run to run."""
    setup = statistics.median(c["wall"] for c in setups)
    done = [[(p, b) for p, b in job
             if p["seconds"] is not None and b["seconds"] is not None]
            for job in pairs]
    if not done or not all(done):
        return {"wall_vs_baseline": (None, "ratio"), "setup_s": (setup, "s"),
                "peak_rss_mb": (None, "MB"), "wall_s": (None, "s")}
    ratios, weights, walls = [], [], []
    for job in done:
        ratios.append(statistics.median(p["seconds"] / b["seconds"]
                                        for p, b in job))
        weights.append(statistics.median(b["seconds"] for _, b in job))
        walls.append(statistics.median(p["seconds"] for p, _ in job))
    return {
        "wall_vs_baseline": (
            sum(r * w for r, w in zip(ratios, weights)) / sum(weights),
            "ratio"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (max(p["rss_mb"] for job in done for p, _ in job),
                        "MB"),
        # Printed and recorded, not gated: see the docstring.
        "wall_s": (sum(walls), "s"),
    }


def merge_traces(children):
    self_s, calls, counts = {}, {}, {}
    prepare = 0.0
    installed = set()
    absent = set()
    for c in children:
        t = c["trace"]
        if t is None:
            continue
        for src, dst in ((t["self_s"], self_s), (t["calls"], calls),
                         (t["counts"], counts)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        prepare += t["prepare_s"]
        installed.update(t["installed"])
        absent.update(t["absent"])
    return self_s, calls, counts, prepare, installed, absent


def per_layer(traced_children, untraced_pass, traced_pass):
    """Per-layer metrics from the traced children.  Each table entry is
    (unit, span names it reads, value); a metric reading a span the code
    at hand does not define is reported as absent."""
    self_s, calls, counts, prepare, installed, absent = merge_traces(
        traced_children)

    def s(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    def layer(name):
        return sum((v for k, v in self_s.items() if layer_of(k) == name), 0.0)

    nodes = (counts.get("search.enumerate_partitions.nodes", 0)
             + counts.get("search.search_min_partition_size.nodes", 0))
    loop = layer("search")
    emitted = counts.get("search.enumerate_partitions.yields", 0)
    traced_total = _seconds(traced_pass)
    untraced_total = _seconds(untraced_pass)
    roots = [c["seconds"] for c in traced_children if c["seconds"] is not None]
    table = {
        "fields.make_field_s": ("s", ("fields.make_field",),
                                s("fields.make_field", "fields.extension_field")),
        "spaces.points_s": ("s", ("spaces.points",), s("spaces.points")),
        "spaces.points_calls": ("count", ("spaces.points",),
                                calls.get("spaces.points", 0)),
        "spaces.mask_of_s": ("s", ("spaces.mask_of",), s("spaces.mask_of")),
        "spaces.mask_of_calls": ("count", ("spaces.mask_of",),
                                 calls.get("spaces.mask_of", 0)),
        "spaces.point_index_s": ("s", ("spaces.point_index",),
                                 s("spaces.point_index")),
        "spaces.span_s": ("s", ("spaces.span",), s("spaces.span")),
        "spaces.span_calls": ("count", ("spaces.span",),
                              calls.get("spaces.span", 0)),
        "spaces.self_s": ("s", (), layer("spaces")),
        "enumeration.all_subspaces_s": ("s", ("enumeration.all_subspaces",),
                                        s("enumeration.all_subspaces")),
        "enumeration.subspaces_yielded": (
            "count", ("enumeration.all_subspaces",),
            counts.get("enumeration.all_subspaces.yields", 0)),
        "enumeration.all_hyperplanes_s": ("s", ("enumeration.all_hyperplanes",),
                                          s("enumeration.all_hyperplanes")),
        "enumeration.recognize_subspace_s": (
            "s", ("enumeration.recognize_subspace",),
            s("enumeration.recognize_subspace")),
        "enumeration.self_s": ("s", (), layer("enumeration")),
        "partitions.validate_s": ("s", ("partitions.validate",),
                                  s("partitions.validate")),
        "partitions.partition_init_s": ("s", ("partitions.partition_init",),
                                        s("partitions.partition_init")),
        "partitions.partitions_built": ("count", ("partitions.partition_init",),
                                        calls.get("partitions.partition_init", 0)),
        "partitions.self_s": ("s", (), layer("partitions")),
        "constructions.build_s": ("s", (), layer("constructions")),
        "fileio.write_s": ("s", ("fileio.write_partition",),
                           s("fileio.write_partition", "fileio.format_partition",
                             "fileio.partition_to_json")),
        "fileio.read_s": ("s", ("fileio.read_partition",),
                          s("fileio.read_partition", "fileio.parse_partition",
                            "fileio.partition_from_json")),
        "hstats.hyperplane_masks_s": ("s", ("hstats.hyperplane_masks",),
                                      s("hstats.hyperplane_masks")),
        "hstats.self_s": ("s", (), layer("hstats")),
        "hstats.identity_checks": ("count", (),
                                   counts.get("hstats.identity_checks", 0)),
        "analysis.self_s": ("s", (), layer("analysis")),
        "analysis.cases": ("count", ("analysis.analyze_supertail",),
                           calls.get("analysis.analyze_supertail", 0)),
        "search.loop_s": ("s", (), loop),
        "search.nodes": ("count", (), nodes),
        "search.nodes_per_s": ("1/s", (), nodes / loop if loop else 0.0),
        "search.prepare_s": ("s", (), prepare),
        "search.streams": ("count", ("search.enumerate_partitions",),
                           calls.get("search.enumerate_partitions", 0)),
        "search.emitted": ("count", ("search.enumerate_partitions",), emitted),
        "search.emitted_per_node": ("ratio", ("search.enumerate_partitions",),
                                    emitted / nodes if nodes else 0.0),
        "cli.self_s": ("s", ("cli.main",), s("cli.main")),
        "harness.self_s": ("s", (), s("harness")),
        "trace.total_s": ("s", (), sum(roots)),
        "trace.overhead_s": (
            "s", (),
            None if traced_total is None or untraced_total is None
            else traced_total - untraced_total),
    }
    metrics = {}
    missing = sorted(absent)
    for name, (unit, needs, value) in table.items():
        if value is None or any(n not in installed for n in needs):
            missing.append(name)
            continue
        metrics[name] = (value, unit)
    layers = {}
    for k, v in self_s.items():
        layers[layer_of(k)] = layers.get(layer_of(k), 0.0) + v
    return metrics, missing, layers


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def run_workload(workload, seed, seconds, trace, toy=False):
    """Run one measured run; return the full record."""
    env = environment()
    steal_start = steal_ticks()
    workdir = os.path.join(HERE, f"work-{workload}-{os.getpid()}")
    runner = Runner(workload, seed, workdir, toy)
    record = {"workload": workload, "seed": seed,
              "seed_used": workloads.seed_used(workload),
              "seconds": seconds, "trace": int(trace), "toy": toy}
    try:
        if not trace:
            setups = [runner.run("setup") for _ in range(SETUP_REPEATS)]
            setups.append(runner.run("setup", baseline=True))
            pairs = []
            if all(c["ok"] for c in setups):
                pairs = runner.repeat(seconds)
            metrics = end_to_end(setups[:-1], pairs)
            record["repetitions"] = [len(job) for job in pairs]
            record["missing"] = sorted(k for k, (v, _) in metrics.items()
                                       if v is None)
            wall = metrics.pop("wall_s")
            record["wall_s"] = wall[0]
            metrics = {k: v for k, v in metrics.items() if v[0] is not None}
        else:
            setup = runner.run("setup", trace=True)
            untraced = traced = []
            if setup["ok"]:
                untraced = runner.run_pass()
                traced = runner.run_pass(trace=True)
            metrics, missing, layers = per_layer(
                [setup] + traced, untraced, traced)
            record["repetitions"] = [2] * len(traced)
            record["missing"] = missing
            record["layer_self_s"] = layers
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(workdir + "-baseline", ignore_errors=True)
    steal_end = steal_ticks()
    env["loadavg_end"] = loadavg()
    env["steal_ticks"] = (None if steal_start is None or steal_end is None
                          else steal_end - steal_start)
    failed = sum(not c["ok"] for c in runner.children)
    attempted = len(runner.children)
    record.update({
        # Absent per-layer metrics are allowed; absent end-to-end ones not.
        "correct": failed == 0 and (trace or not record["missing"]),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "environment": env,
        "children": runner.children,
    })
    return record


def write_record(record):
    outdir = os.path.join(HERE, "results")
    os.makedirs(outdir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = (f"{record['workload']}-seed{record['seed']}-"
            f"trace{record['trace']}-{stamp}-{os.getpid()}.json")
    path = os.path.join(outdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "vspart", "__init__.py")):
        print(f"error: no vspart sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    path = write_record(record)
    print(f"workload {record['workload']}  seed {record['seed']} "
          f"(seed {'moves the inputs' if record['seed_used'] else 'ignored: fixed problem'})  "
          f"repetitions of each job {record['repetitions']}")
    for name, m in record["metrics"].items():
        print(f"  {name:34s} {m['value']:>14.6f} {m['unit']}")
    if record.get("wall_s") is not None:
        print(f"  {'(wall_s, not gated)':34s} {record['wall_s']:>14.6f} s")
    for name in record["missing"]:
        print(f"  {name:34s} {'absent':>14s}")
    print(f"  {'error_rate':34s} {record['error_rate']:>14.6f} "
          f"({record['failed']} of {record['attempted']} processes failed)")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(f"record {os.path.relpath(path, ROOT)}")
    for c in record["children"]:
        if not c["ok"]:
            print(f"failed step {c['step']}: " + json.dumps(c["detail"]),
                  file=sys.stderr)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
