"""Pinned sha1 fingerprints of search streams.

Each fingerprint hashes the partitions of a stream, member bases in
order, together with the stats dict and any checkpoint, so a change to
the engine or its candidate tables that reorders, drops or adds a
partition, or spends a different number of nodes or units, shows here.  Streams
are fixed outputs: a refactor of the search must leave every digest as
it is.  The size-limited stream hashes its partitions alone: a sharper
prune may cut nodes there, so its stats are pinned on their own, in
test_search.test_stats_count_size_prunes_by_reason.

The CLI reports of `verify --all-identities` and `analyze` are pinned the
same way, on partitions shaped like the benchmark's inputs: a speed-up of
the verify path must print every report byte for byte as before.
"""
import contextlib
import hashlib
import io
import json
import random

import pytest

from vspart.cli import main
from vspart.constructions import minimal_partition, spread
from vspart.errors import BudgetExceeded
from vspart.fields import make_field
from vspart.fileio import write_partition
from vspart.partitions import SubspacePartition
from vspart.search import enumerate_partitions
from vspart.spaces import span

POINT3 = span([(0, 0, 1)], 3, make_field(3))


def _digest(partitions, *extra):
    h = hashlib.sha1()
    count = 0
    for P in partitions:
        count += 1
        h.update(json.dumps([M.basis for M in P.members]).encode())
    for item in extra:
        h.update(json.dumps(item, sort_keys=True).encode())
    return count, h.hexdigest()


def _stream(n, q, max_dim, **options):
    stats = {}
    partitions = list(enumerate_partitions(n, q, max_dim, stats=stats,
                                           **options))
    return _digest(partitions, stats)


def _partitions_only(n, q, max_dim, **options):
    return _digest(enumerate_partitions(n, q, max_dim, **options))


def _budgeted_then_resumed():
    """A budget of 3,800 units stops the spread stream of V(4,2) at its
    41st node, 3,165 of them spent on the point index and the table walk;
    the checkpoint, the partitions before it and the resumed rest."""
    before = []
    try:
        for P in enumerate_partitions(4, 2, 2, type_filter={2: 5},
                                      budget=3800):
            before.append(P)
    except BudgetExceeded as exc:
        checkpoint = exc.checkpoint
    else:
        raise AssertionError("a budget of 3,800 units should not finish")
    stats = {}
    after = list(enumerate_partitions(4, 2, 2, type_filter={2: 5},
                                      resume=checkpoint, stats=stats))
    return _digest(before + after, checkpoint, stats)


STREAMS = {
    "v42-max-dim-3": lambda: _stream(4, 2, 3),
    "v42-size-limit-5": lambda: _partitions_only(4, 2, 3, size_limit=5),
    "v33-seeded": lambda: _stream(3, 3, 2, seed=[POINT3]),
    "v33-type-filter": lambda: _stream(3, 3, 2, type_filter={1: 9, 2: 1}),
    "v42-budget-resume": _budgeted_then_resumed,
}

PINNED = {
    "v42-max-dim-3": (1227, "dc92ceac372e9790eb9f6884638ad9b3697c7298"),
    "v42-size-limit-5": (56, "7443853efb0d98b6abc0397614489b72dcb4e15f"),
    "v33-seeded": (10, "b908b7afc496e73bfcd81b47d490ed9cb30db563"),
    "v33-type-filter": (13, "63563efcdc8e4625b0f82dc3bd4c2a11e9590511"),
    "v42-budget-resume": (56, "13241a31c56dfca6bff170a32a34d37102ed4b79"),
}


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_stream_fingerprint(name):
    assert STREAMS[name]() == PINNED[name]


def _moved(P, seed):
    """The image of P under v -> v * M, for a seeded invertible M."""
    F, n = P.field, P.n
    rng = random.Random(seed)
    while True:
        M = [[rng.randrange(F.q) for _ in range(n)] for _ in range(n)]
        if span(M, n, F).dim == n:
            break
    members = []
    for U in P.members:
        rows = []
        for coeffs in U.basis:
            v = [0] * n
            for c, row in zip(coeffs, M):
                v = [F.add(x, F.mul(c, y)) for x, y in zip(v, row)]
            rows.append(v)
        members.append(span(rows, n, F))
    return SubspacePartition(n, F, members)


# label: (partition, cut for analyze or None)
REPORT_INPUTS = {
    "v10q2": (lambda: minimal_partition(10, 3, make_field(2)), 3),
    "v4q16": (lambda: spread(4, 2, make_field(16)), None),
    "v6q3": (lambda: minimal_partition(6, 4, make_field(3)), 4),
}

PINNED_REPORTS = {
    "v10q2": "8584608978697e807c475933c0ffa891ce36b2a3",
    "v4q16": "56c1bd01b601d3686491e74376641f43a87089ad",
    "v6q3": "0d9aae89a660fdbad6d6eb52f102e634c4693a21",
}


@pytest.mark.parametrize("label", sorted(REPORT_INPUTS))
def test_cli_report_fingerprint(label, tmp_path):
    build, cut = REPORT_INPUTS[label]
    path = str(tmp_path / f"{label}.vspart")
    write_partition(_moved(build(), label), path)
    runs = [["verify", "--all-identities", path]]
    if cut is not None:
        runs.append(["analyze", path, "--cut", str(cut), "--mode", "explore"])
    h = hashlib.sha1()
    for argv in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        h.update(f"{code}\n{out.getvalue()}".encode())
    assert h.hexdigest() == PINNED_REPORTS[label]
