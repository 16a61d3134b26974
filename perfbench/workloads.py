"""Workload definitions, their inputs and the expected output of every job.

The parent process (run.py) only needs the job lists; the functions that
import vspart run in the child processes (job.py).

A job spec is a JSON-ready dict.  ``kind`` is one of

* ``cli``: ``vspart.cli.main(argv)``; ``expect`` is ``clean`` (exit code 0
  and no FAIL or VIOLATION line) or ``oracle`` (exit code 0, the given
  minimum and "agreement: yes").
* ``impossibility``: ``check_no_minimum_supertail(n, cut, q)`` must be
  confirmed with no candidate types.
* ``census``: the first ``count`` partitions of ``enumerate_partitions``,
  each analysed in explore mode at every cut; the type tally must equal
  ``tally`` and no case may report a violation.

Node counts are recorded as measurements, never checked: later changes to
the search are meant to move them.
"""
from __future__ import annotations

import os
import random

WORKLOADS = ("verify", "oracle", "sweep")

# (label, builder, n, t, q): minimal_partition(n, t, GF(q)) or
# spread(n, t, GF(q)).
CORPUS = {
    False: (
        ("v10q2", "minimal", 10, 3, 2),   # type [2^5, 3^144]
        ("v4q16", "spread", 4, 2, 16),    # 257 lines
        ("v6q3", "minimal", 6, 4, 3),     # type [2^81, 4^1]
    ),
    True: (
        ("v4q2", "minimal", 4, 3, 2),
        ("v4q2s", "spread", 4, 2, 2),
        ("v3q3", "minimal", 3, 2, 3),
    ),
}

# (n, t, q, minimum)
ORACLE = {False: (5, 2, 2, 13), True: (3, 2, 3, 10)}

# Tallies by type of the first `count` partitions streamed by
# enumerate_partitions, frozen from the seed implementation.
CENSUS = {
    False: {
        "n": 5, "q": 2, "max_dim": 4, "count": 10000,
        "tally": {
            "[1^13, 2^6]": 192,
            "[1^16, 2^5]": 2264,
            "[1^19, 2^4]": 4405,
            "[1^22, 2^3]": 2558,
            "[1^25, 2^2]": 538,
            "[1^28, 2^1]": 42,
            "[1^31]": 1,
        },
    },
    True: {
        "n": 4, "q": 2, "max_dim": 3, "count": 1227,   # all of them
        "tally": {
            "[1^15]": 1,
            "[1^12, 2^1]": 35,
            "[1^9, 2^2]": 280,
            "[1^6, 2^3]": 560,
            "[1^3, 2^4]": 280,
            "[1^8, 3^1]": 15,
            "[2^5]": 56,
        },
    },
}

# (n, cut, q)
IMPOSSIBILITY = {False: (6, 4, 2), True: (3, 2, 3)}


def has_several_dims(builder, n, t):
    return builder == "minimal" and n % t != 0


def corpus_path(workdir, label):
    return os.path.join(workdir, f"{label}.vspart")


def field_orders(workload, toy):
    if workload == "verify":
        return tuple(sorted({q for *_, q in CORPUS[toy]}))
    if workload == "oracle":
        return (ORACLE[toy][2],)
    return tuple(sorted({IMPOSSIBILITY[toy][2], CENSUS[toy]["q"]}))


def seed_used(workload):
    """Only verify draws its inputs from the seed; the searches are fixed
    problems."""
    return workload == "verify"


def jobs(workload, workdir, toy=False):
    """The job specs of one pass, in the order they run."""
    if workload == "verify":
        out = []
        for label, builder, n, t, _ in CORPUS[toy]:
            path = corpus_path(workdir, label)
            out.append({"kind": "cli", "expect": "clean",
                        "argv": ["verify", "--all-identities", path]})
            if has_several_dims(builder, n, t):
                out.append({"kind": "cli", "expect": "clean",
                            "argv": ["analyze", path, "--cut", str(t),
                                     "--mode", "explore"]})
        return out
    if workload == "oracle":
        n, t, q, minimum = ORACLE[toy]
        return [{"kind": "cli", "expect": "oracle", "minimum": minimum,
                 "argv": ["sigma", "--n", str(n), "--t", str(t),
                          "--q", str(q), "--oracle"]}]
    if workload == "sweep":
        n, cut, q = IMPOSSIBILITY[toy]
        return [{"kind": "impossibility", "n": n, "cut": cut, "q": q},
                dict(CENSUS[toy], kind="census")]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# child side: everything below imports vspart
# ---------------------------------------------------------------------------

def random_invertible(n, field, rng):
    """A random matrix of GL(n, q), drawn until its rows span V(n, q)."""
    import vspart

    while True:
        rows = [tuple(rng.randrange(field.q) for _ in range(n))
                for _ in range(n)]
        if vspart.span(rows, n, field).dim == n:
            return rows


def apply_matrix(P, matrix):
    """The image of partition P under v -> v * matrix."""
    import vspart

    F, n = P.field, P.n
    members = []
    for U in P.members:
        rows = []
        for coeffs in U.basis:
            v = [0] * n
            for c, mrow in zip(coeffs, matrix):
                if c:
                    v = [F.add(x, F.mul(c, y)) for x, y in zip(v, mrow)]
            rows.append(tuple(v))
        members.append(vspart.span(rows, n, F))
    return vspart.SubspacePartition(n, F, members)


def setup(workload, seed, workdir, toy=False):
    """Field tables for the workload and, for verify, the corpus files,
    each moved by its own seeded element of GL(n, q)."""
    import vspart

    fields = {q: vspart.make_field(q) for q in field_orders(workload, toy)}
    if workload != "verify":
        return {"files": 0}
    os.makedirs(workdir, exist_ok=True)
    for label, builder, n, t, q in CORPUS[toy]:
        F = fields[q]
        if builder == "minimal":
            P = vspart.minimal_partition(n, t, F)
        else:
            P = vspart.spread(n, t, F)
        rng = random.Random(f"{seed}:{label}")
        P = apply_matrix(P, random_invertible(n, F, rng))
        vspart.write_partition(P, corpus_path(workdir, label))
    return {"files": len(CORPUS[toy])}


def run_job(spec):
    """Run one job; return (ok, detail).  Functions are looked up on the
    modules at call time so that installed tracing wrappers are used."""
    import contextlib
    import io
    from collections import Counter

    import vspart
    import vspart.cli

    kind = spec["kind"]
    if kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = vspart.cli.main(list(spec["argv"]))
        text = out.getvalue()
        ok = code == 0
        if spec["expect"] == "clean":
            ok = ok and not any(
                {"FAIL", "VIOLATION"} & set(line.split())
                for line in text.splitlines()
            )
        else:
            ok = (ok and f"oracle minimum = {spec['minimum']} " in text
                  and "agreement: yes" in text)
        detail = {"exit_code": code}
        if not ok:
            detail["stdout_tail"] = text[-2000:]
            detail["stderr_tail"] = err.getvalue()[-2000:]
        return ok, detail
    if kind == "impossibility":
        report = vspart.check_no_minimum_supertail(
            spec["n"], spec["cut"], spec["q"])
        ok = report.confirmed and not report.candidate_types
        return ok, {"nodes": report.nodes,
                    "sweep_partitions": report.sweep_partitions,
                    "candidate_types": [str(t) for t in report.candidate_types]}
    if kind == "census":
        tally = Counter()
        cases = violations = 0
        stats = {}
        for P in vspart.enumerate_partitions(
            spec["n"], spec["q"], spec["max_dim"],
            count_limit=spec["count"], stats=stats,
        ):
            tally[str(P.type())] += 1
            for cut in P.dims()[1:]:
                report = vspart.analyze_supertail(P, cut, mode="explore")
                cases += 1
                violations += len(report.violations)
        ok = dict(tally) == spec["tally"] and violations == 0
        detail = {"cases": cases, "violations": violations,
                  "nodes": stats.get("nodes")}
        if dict(tally) != spec["tally"]:
            detail["tally"] = dict(tally)
        return ok, detail
    raise ValueError(f"unknown job kind {kind!r}")
