"""Exact-cover search over subspace partitions.

Ground truth independent of the closed-form machinery: partitions of V(n,q)
are found by backtracking over the point set, always branching on the least
uncovered point and extending with candidate subspaces that contain it and
avoid everything chosen so far.  Because the branch point is a function of
the covered set, every partition is reached along exactly one path, so the
enumeration emits each labeled partition once without a deduplication pass.

A size limit prunes by a counting bound, proved in _exact_cover: the
members still to come hold exactly the uncovered points, each has one of
the candidate dimensions, and those through a point that no
still-disjoint candidate of the top dimension D contains have dimension
below D.  A table built once per search gives the fewest members that
can do that by point counts alone.  The table uses theta(k) =
(q^k - 1)/(q - 1) only, never the closed formula for sigma, and it only
cuts branches that hold no partition within the limit, so size-limited
streams are the unbounded ones filtered on size, in the same order.

The minimum-size search additionally pins its first two choices, which
is sound for size queries (it is NOT sound for counting).  The linear
group is transitive on t-subspaces, so any partition whose largest
dimension is t has an image of the same size containing the canonical
t-subspace L0.  The stabiliser of L0 and the least point p1 outside it is
transitive on the t-subspaces through p1 that meet L0 trivially, so the
member through p1 can be taken to be the first such candidate whenever
it has dimension t (proof in search_min_partition_size).

Both searches run on one backtracking engine, _exact_cover.  Budgets are
node counts (and optional wall-clock limits) for the whole call, and
running out raises BudgetExceeded.  Only enumerate_partitions attaches a
checkpoint: a JSON-serializable frontier that it can resume from.

check_no_minimum_supertail rests on a lemma, proved in its docstring:
when n < 2*cut, a partition of V(n,q) has exactly one member of
dimension >= cut, so its supertail at the cut has at least q^cut members,
more than sigma_q(cut, t) <= theta(cut) allows.  Its sweep re-checks that.
"""
from __future__ import annotations

import json
import time
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

from .analysis import analyze_supertail, TailClass
from .enumeration import all_subspaces
from .errors import (
    BadRange,
    BudgetExceeded,
    DimensionMismatch,
    FileFormatError,
    HypothesisNotMet,
)
from .fields import make_field
from .partitions import (
    PartitionType,
    SubspacePartition,
    min_partition_size,
    supertail,
)
from .spaces import num_points, point_index, points_exceed, span

ORACLE_POINT_LIMIT = 127
ORACLE_NODE_BUDGET = 10**8
CHECKPOINT_VERSION = 1
_TIME_CHECK_MASK = 0x3FF


def _checked_field(n, q, point_limit):
    """GF(q), once q is a supported order and V(n,q) has at most
    point_limit points."""
    field = make_field(q)
    if points_exceed(n, q, point_limit):
        raise BadRange(
            f"V({n},{q}) has more than {point_limit} points, the search "
            f"limit; pass point_limit to override"
        )
    return field


class _Candidates:
    """Candidate subspaces of the given dimensions as point bitmasks, plus
    per-point lists of candidate ids (dims in the order given,
    lexicographic within a dimension).

    The lookahead tables describe the candidates of the largest
    dimension D, the top candidates, as bitmasks over their ids counted
    from the first of them: through[p] holds those containing point p
    and clash[c] those meeting candidate c.  fewest counts members by
    their point numbers alone.  All three are built on first use, since
    only size-limited searches read them.
    """

    def __init__(self, n, field, dims):
        self.pi = point_index(n, field)
        self.cands = []
        for d in dims:
            for U in all_subspaces(n, d, field):
                self.cands.append((self.pi.mask_of(U), d, U))
        self.per_point = [[] for _ in self.pi.reps]
        for cid, (mask, _, _) in enumerate(self.cands):
            for p in _bits(mask):
                self.per_point[p].append(cid)
        top = max(dims)
        self._thetas = [num_points(d, field.q) for d in sorted(set(dims))]
        self._top_ids = [
            cid for cid, (_, d, _) in enumerate(self.cands) if d == top
        ]

    @cached_property
    def through(self):
        through = [0] * len(self.per_point)
        for bit, cid in enumerate(self._top_ids):
            for p in _bits(self.cands[cid][0]):
                through[p] |= 1 << bit
        return through

    @cached_property
    def clash(self):
        return [self._meeting(mask) for mask, _, _ in self.cands]

    @cached_property
    def fewest(self):
        """fewest[u][f] is the least number of members, each of a candidate
        dimension, that hold exactly u points with at least f of them in
        members below the top dimension; len(per_point) + 1 where none
        do.  Each row is nondecreasing in f."""
        total = len(self.per_point)
        impossible = total + 1
        *below, top = self._thetas
        # small[s]: fewest members below the top holding exactly s points
        small = [0] + [impossible] * total
        for s in range(1, total + 1):
            small[s] = min([small[s - w] + 1 for w in below if w <= s],
                           default=impossible)
        fewest = []
        for u in range(total + 1):
            row = [impossible] * (u + 1)
            best = impossible
            for f in range(u, -1, -1):
                if (u - f) % top == 0:
                    best = min(best, small[f] + (u - f) // top)
                row[f] = best
            fewest.append(row)
        return fewest

    def _meeting(self, mask):
        """The top candidates that meet the point set mask."""
        met = 0
        for p in _bits(mask):
            met |= self.through[p]
        return met

    def live(self, covered):
        """The top candidates disjoint from the point set covered."""
        return ((1 << len(self._top_ids)) - 1) & ~self._meeting(covered)


def _bits(mask):
    """Positions of the set bits of mask, least first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _canonical_subspace(n, field, d):
    """The span of the last d unit vectors; contains the least point."""
    rows = []
    for i in range(n - d, n):
        v = [0] * n
        v[i] = 1
        rows.append(tuple(v))
    return span(rows, n, field)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _normalize_filter(type_filter):
    if type_filter is None:
        return None
    if isinstance(type_filter, PartitionType):
        type_filter = type_filter.entries
    try:
        filt = dict(type_filter)
    except (TypeError, ValueError) as exc:
        raise BadRange(
            f"the type filter {type_filter!r} does not map dimensions to "
            f"counts"
        ) from exc
    if not filt:
        raise BadRange("the type filter names no dimension")
    for d, c in filt.items():
        if not (_is_int(d) and _is_int(c)) or d < 1 or c < 1:
            raise BadRange(f"bad type filter entry {d}^{c}")
    return filt


def _check_limits(budget=None, time_limit=None, size_limit=None,
                  count_limit=None):
    """Refuse a limit of the wrong type before any table is built: budget,
    size_limit and count_limit must be ints, count_limit at least 1, and
    time_limit an int or a float other than NaN.  None means no limit."""
    for name, value in (("budget", budget), ("size_limit", size_limit),
                        ("count_limit", count_limit)):
        if value is not None and not _is_int(value):
            raise BadRange(f"{name} must be an integer, got {value!r}")
    if time_limit is not None and (
        not (_is_int(time_limit) or isinstance(time_limit, float))
        or time_limit != time_limit
    ):
        raise BadRange(f"time_limit must be a number, got {time_limit!r}")
    if count_limit is not None and count_limit < 1:
        raise BadRange(f"count_limit must be at least 1, got {count_limit}")


def save_checkpoint(path, checkpoint):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(checkpoint, fh, indent=1)
        fh.write("\n")


def load_checkpoint(path):
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"checkpoint is not valid JSON: {exc}")
    if not isinstance(data, dict) or data.get("version") != CHECKPOINT_VERSION:
        raise FileFormatError("unsupported checkpoint version")
    return data


def _exact_cover(tables, frames, covered, taken, *, budget, time_limit,
                 stats, size_limit=None, filt=None, counts=None):
    """Backtrack from the frames stack, yielding at every exact cover of
    the space that extends covered (taken members so far) by candidates
    of tables, a _Candidates.

    A frame is [point, next position in per_point[point], chosen candidate
    id or None]; each yield is the list of chosen ids, frame by frame.
    With filt, counts (dimension to members taken) caps each dimension at
    filt[dimension].  Every disjoint extension attempt is a node, added
    to stats["nodes"]; past budget nodes, or time_limit seconds (read
    every 1024 nodes), BudgetExceeded is raised with the top frame
    positioned to retry that attempt, so frames stays a resumable
    frontier.

    size_limit prunes extensions that cannot finish within that many
    members, and the consumer may then send() a tighter limit back after
    a cover.  Let D be the top dimension, u the points left uncovered by
    the extension, and F those of them on no live top candidate (live:
    disjoint from everything covered).  The members still to come are
    candidates, so they have candidate dimensions and hold exactly the u
    points.  A member through a point of F has dimension below D, since
    a top one would be a live top candidate, so at least |F| of the u
    points lie in members below D.  Hence at least tables.fewest[u][|F|]
    members are to come, and the extension is pruned when that exceeds
    spare = size_limit - taken - 1.  The bound only cuts branches that
    hold no cover within the limit, so the covers yielded and their order
    do not depend on it.  As fewest[u] is nondecreasing, F is counted
    only when fewest[u][u] > spare, and only until |F| passes the largest
    f with fewest[u][f] <= spare.  To keep F cheap, each frame then
    carries a fourth entry: the live top candidates before its choice.
    """
    cands = tables.cands
    per_point = tables.per_point
    full = tables.pi.full_mask
    if size_limit is not None:
        # Past one member per point the limit cuts nothing, and fewest's
        # "impossible" entry stays above every spare.
        size_limit = min(size_limit, len(per_point))
        through = tables.through
        clash = tables.clash
        fewest = tables.fewest
        base = covered
        for frame in frames:
            if frame[2] is not None:
                base &= ~cands[frame[2]][0]
        for frame in frames:
            frame[3:] = [tables.live(base)]
            if frame[2] is not None:
                base |= cands[frame[2]][0]
    nodes = 0
    started = time.monotonic()
    try:
        while frames:
            frame = frames[-1]
            if frame[2] is not None:
                mask, d, _ = cands[frame[2]]
                covered &= ~mask
                taken -= 1
                if filt is not None:
                    counts[d] -= 1
                frame[2] = None
            plist = per_point[frame[0]]
            pos = frame[1]
            while pos < len(plist):
                cid = plist[pos]
                mask, d, _ = cands[cid]
                if mask & covered:
                    pos += 1
                    continue
                nodes += 1
                if nodes > budget or (
                    time_limit is not None
                    and nodes & _TIME_CHECK_MASK == 0
                    and time.monotonic() - started > time_limit
                ):
                    frame[1] = pos
                    spent = (
                        f"{budget} nodes" if nodes > budget
                        else f"{time_limit} seconds"
                    )
                    raise BudgetExceeded(f"search stopped after {spent}")
                pos += 1
                if filt is not None and counts[d] == filt[d]:
                    continue
                rest = full & ~(covered | mask)
                live = None
                if size_limit is not None:
                    spare = size_limit - taken - 1
                    row = fewest[rest.bit_count()]
                    if row[0] > spare:
                        continue
                    live = frame[3] & ~clash[cid]
                    if row[-1] > spare:
                        most = bisect_right(row, spare) - 1
                        stranded = 0
                        r = rest
                        while r and stranded <= most:
                            low = r & -r
                            if not through[low.bit_length() - 1] & live:
                                stranded += 1
                            r ^= low
                        if stranded > most:
                            continue
                frame[1] = pos
                frame[2] = cid
                covered |= mask
                taken += 1
                if filt is not None:
                    counts[d] += 1
                if not rest:
                    tighter = yield [f[2] for f in frames]
                    if tighter is not None:
                        size_limit = tighter
                    break
                frames.append(
                    [(rest & -rest).bit_length() - 1, 0, None, live]
                )
                break
            else:
                frames.pop()
    finally:
        stats["nodes"] = stats.get("nodes", 0) + nodes


def _least_point(mask):
    return (mask & -mask).bit_length() - 1


def enumerate_partitions(
    n,
    q,
    max_dim,
    *,
    type_filter=None,
    size_limit=None,
    count_limit=None,
    budget=None,
    time_limit=None,
    resume=None,
    point_limit=ORACLE_POINT_LIMIT,
    stats=None,
    seed=None,
):
    """Stream every subspace partition of V(n,q) with member dimensions in
    [1, max_dim], each exactly once, in a fixed deterministic order.

    type_filter restricts to one exact type (a nonempty PartitionType or
    dict mapping dimension to count); size_limit caps the member count;
    count_limit (at least 1) stops the stream after that many partitions.
    seed is a list of pairwise disjoint subspaces of V(n,q), over the
    field make_field(q), that every emitted partition must extend; seed
    dimensions are exempt from max_dim and the type filter only
    constrains the non-seed members.  The budget counts extension
    attempts; exhausting it (or time_limit seconds) raises BudgetExceeded
    whose .checkpoint resumes the stream via the resume argument with
    identical options.  When a dict is passed as stats, its "nodes" entry
    accumulates the extension attempts spent.
    """
    if not 1 <= max_dim <= n:
        raise BadRange(f"max_dim {max_dim} not in [1, {n}]")
    _check_limits(budget=budget, time_limit=time_limit,
                  size_limit=size_limit, count_limit=count_limit)
    field = _checked_field(n, q, point_limit)
    stats = {} if stats is None else stats
    stats.setdefault("nodes", 0)
    filt = _normalize_filter(type_filter)
    if filt is not None and max(filt) > max_dim:
        return
    if budget is None:
        budget = ORACLE_NODE_BUDGET
    dims = [d for d in range(1, max_dim + 1) if filt is None or d in filt]
    if not dims:
        return
    tables = _Candidates(n, field, dims)
    pi, cands, per_point = tables.pi, tables.cands, tables.per_point
    full = pi.full_mask

    options = {
        "n": n,
        "q": q,
        "max_dim": max_dim,
        "type_filter": [list(e) for e in sorted(filt.items())] if filt else None,
        "size_limit": size_limit,
        "count_limit": count_limit,
    }
    covered = 0
    taken = 0
    counts = dict.fromkeys(dims, 0)
    seed = list(seed) if seed else []
    for member in seed:
        if member.n != n or member.field is not field:
            raise DimensionMismatch(
                f"seed member lives in V({member.n},{member.field.q}), "
                f"not in V({n},{q})"
            )
        mask = pi.mask_of(member)
        if mask & covered:
            raise BadRange("seed members are not pairwise disjoint")
        covered |= mask
        taken += 1
    options["seed"] = sorted(
        [[int(c) for c in row] for row in member.basis] for member in seed
    )
    if seed and covered == full:
        yield SubspacePartition(n, field, seed)
        return
    free_points = (full & ~covered).bit_count()
    emitted = 0
    nodes_done = 0
    if resume is not None:
        if (not isinstance(resume, dict)
                or resume.get("kind") != "partition-enumeration"):
            raise FileFormatError("checkpoint is not an enumeration checkpoint")
        if resume.get("options") != options:
            raise FileFormatError(
                f"checkpoint options {resume.get('options')} do not match "
                f"the call {options}"
            )
        state = resume.get("state", {})
        if not isinstance(state, dict):
            raise FileFormatError("checkpoint state is not an object")
        emitted = state.get("emitted", 0)
        nodes_done = state.get("nodes_done", 0)
        if not all(_is_int(c) and c >= 0 for c in (emitted, nodes_done)):
            raise FileFormatError(
                "checkpoint counts are not nonnegative integers"
            )
        stack = state.get("stack", [])
        if not isinstance(stack, list) or not stack:
            raise FileFormatError("checkpoint has an empty frontier stack")
        frames = []
        for entry in stack:
            if not (isinstance(entry, list) and len(entry) == 2
                    and all(map(_is_int, entry))):
                raise FileFormatError(
                    f"checkpoint frame {entry!r} is not a [point, position] "
                    f"pair of integers"
                )
            point, pos = entry
            free = full & ~covered
            # The engine branches on the least uncovered point, and every
            # frame below the last one holds its choice at pos - 1.
            last = len(frames) == len(stack) - 1
            if (not free or point != _least_point(free)
                    or not (0 if last else 1) <= pos <= len(per_point[point])):
                raise FileFormatError(
                    f"checkpoint frame {entry!r} is off the frontier"
                )
            cid = None if last else per_point[point][pos - 1]
            if cid is not None:
                mask, d, _ = cands[cid]
                if mask & covered or filt is not None and counts[d] == filt[d]:
                    raise FileFormatError(
                        f"checkpoint frame {entry!r} chooses a member that "
                        f"does not fit"
                    )
                covered |= mask
                taken += 1
                counts[d] += 1
            frames.append([point, pos, cid])
    else:
        frames = [[_least_point(full & ~covered), 0, None]]
    # The filtered members must fill exactly the points the seed leaves.
    if filt is not None and free_points != sum(
        c * num_points(d, q) for d, c in filt.items()
    ):
        return

    nodes_before = stats["nodes"]
    covers = _exact_cover(
        tables,
        frames,
        covered,
        taken,
        budget=budget,
        time_limit=time_limit,
        stats=stats,
        size_limit=size_limit,
        filt=filt,
        counts=counts,
    )
    try:
        for chosen in covers:
            emitted += 1
            yield SubspacePartition(
                n, field, seed + [cands[cid][2] for cid in chosen]
            )
            if count_limit is not None and emitted >= count_limit:
                return
    except BudgetExceeded as exc:
        exc.checkpoint = {
            "version": CHECKPOINT_VERSION,
            "kind": "partition-enumeration",
            "options": options,
            "state": {
                "stack": [[f[0], f[1]] for f in frames],
                "emitted": emitted,
                "nodes_done": nodes_done + stats["nodes"] - nodes_before,
            },
        }
        raise
    finally:
        covers.close()


@dataclass(frozen=True)
class SearchResult:
    size: int
    partition: SubspacePartition
    nodes: int


def search_min_partition_size(
    n,
    t,
    q,
    *,
    budget=None,
    time_limit=None,
    point_limit=ORACLE_POINT_LIMIT,
):
    """Minimum size of a partition of V(n,q) whose largest member has
    dimension exactly t, by seeded branch and bound.

    The first member is pinned to L0, the canonical t-subspace (sound
    for the minimum since GL(n,q) is transitive on t-subspaces).  The
    search then branches on the least uncovered point with candidates of
    dimension at most t, larger dimensions first.  After each cover it
    asks for one member fewer, pruning by the counting bound of
    _exact_cover: the uncovered points must be held exactly by members
    of theta(1), ..., theta(t) points, and those on no live t-candidate
    by members of fewer than theta(t).  (For t = 2 in V(5,2), a lines
    and b points need 3a + b = 31, so a + b is 11 when b = 1 and at least
    13 otherwise: once two points are stranded, 12 members cannot do.)

    The second member is pinned too.  Let p1 be the least point outside
    L0, the first branch point.  Of the t-dimensional candidates through
    p1 only the first one disjoint from L0, K, is kept; smaller ones all
    stay.  Claim: the stabiliser G of L0 and p1 = <v1> in GL(n,q) is
    transitive on the t-subspaces M through p1 with M meet L0 = 0.  So a
    partition containing L0 whose member through p1 has dimension t has
    an image under G, of the same size and type, containing L0 and K.

    Proof.  Fix a complement C of L0 containing v1, and let pi: V -> C
    be the projection along L0.  As M meets L0 trivially, pi is
    injective on M, so M is the graph {w + f(w) : w in W} of a linear map
    f: W -> L0, where W = pi(M) is a t-subspace of C; and f(v1) = 0,
    since v1 is in M and in C.  Extend f to a linear F: C -> L0 with
    F(v1) = 0 and let u(c + l) = c + l - F(c) for c in C, l in L0.  The
    unipotent u fixes L0 pointwise and v1, and maps M onto W.  For a
    second such M', with W' = pi(M'), some g in GL(C) fixes v1 and maps
    W onto W': extend v1 to bases of W and W', then both to bases of
    C.  Extended by the identity on L0, g is in G, and u'^-1 g u maps M
    onto M'.  (When 2t > n no such M exists, and only smaller candidates
    remain at p1.)
    """
    if not 1 <= t < n:
        raise BadRange(f"need 1 <= t < n, got t={t}, n={n}")
    _check_limits(budget=budget, time_limit=time_limit)
    field = _checked_field(n, q, point_limit)
    if budget is None:
        budget = ORACLE_NODE_BUDGET
    tables = _Candidates(n, field, range(t, 0, -1))
    cands = tables.cands
    full = tables.pi.full_mask
    root = _canonical_subspace(n, field, t)
    covered = tables.pi.mask_of(root)
    p1 = _least_point(full & ~covered)
    plist = tables.per_point[p1]
    second = next(
        (c for c in plist if cands[c][1] == t and not cands[c][0] & covered),
        None,
    )
    tables.per_point[p1] = [c for c in plist if c == second or cands[c][1] < t]
    stats = {}
    # A partition has at most one member per point, so the first limit
    # prunes nothing.
    covers = _exact_cover(
        tables,
        [[p1, 0, None]],
        covered,
        1,
        budget=budget,
        time_limit=time_limit,
        stats=stats,
        size_limit=num_points(n, q),
    )
    # Every cover found is smaller than the last: the engine prunes to
    # one member fewer after each.
    chosen = next(covers)
    while True:
        members = [root] + [cands[cid][2] for cid in chosen]
        try:
            chosen = covers.send(len(members) - 1)
        except StopIteration:
            break
    return SearchResult(
        len(members), SubspacePartition(n, field, members), stats["nodes"]
    )


@dataclass(frozen=True)
class ImpossibilityReport:
    """Tallies of check_no_minimum_supertail.  candidate_types is always
    () and type_hits always 0: by the lemma proved there, no tail type can
    meet the bound, so none is searched.  The fields stay for callers that
    read them."""

    n: int
    cut: int
    q: int
    candidate_types: tuple
    type_hits: int
    sweep_partitions: int
    sweep_hits: int
    nodes: int

    @property
    def confirmed(self):
        return self.type_hits == 0 and self.sweep_hits == 0


def check_no_minimum_supertail(
    n,
    cut,
    q,
    *,
    budget=None,
    time_limit=None,
    point_limit=ORACLE_POINT_LIMIT,
):
    """Confirm by exhaustive search that no partition of V(n,q) with
    n < 2*cut has a supertail ST of minimum size sigma_q(cut, t) at the
    cut, t being the top dimension of the tail.

    Lemma: none exists.  The cut occurs, so some member M has dimension
    m >= cut, and only one does: two disjoint ones would need 2*cut <= n.
    Every other member is disjoint from M, so it has dimension at most
    n - m < cut (it lies in ST) and at most theta(n-m) points, where
    theta(k) = (q^k - 1)/(q - 1).  Covering the theta(n) - theta(m) =
    q^m theta(n-m) points outside M therefore takes |ST| >= q^m >= q^cut
    members.  But sigma_q(cut, t) <= theta(cut) <= q^cut - 1, because a
    partition of V(cut,q) has at most one member per point.

    The sweep checks the lemma by brute force: it extends every
    cut-subspace by members of dimension at most min(cut-1, n-cut), up
    to 1 + max_t sigma_q(cut, t) members in all, and tests each partition
    found.  By the lemma it finds none, so sweep_partitions is 0.  The
    budget and time limit cover the whole call.
    """
    if not 1 <= cut < n:
        raise BadRange(f"need 1 <= cut < n, got cut={cut}, n={n}")
    if not n < 2 * cut:
        raise HypothesisNotMet(
            "only the n < 2*cut regime forces a unique member above the cut"
        )
    _check_limits(budget=budget, time_limit=time_limit)
    field = _checked_field(n, q, point_limit)
    if budget is None:
        budget = ORACLE_NODE_BUDGET
    counters = {"nodes": 0}
    started = time.monotonic()
    max_tail_dim = min(cut - 1, n - cut)
    targets = [
        min_partition_size(cut, top, q) for top in range(1, max_tail_dim + 1)
    ]
    sweep_partitions = 0
    sweep_hits = 0
    if targets:
        limit = 1 + max(targets)
        tables = _Candidates(n, field, range(1, max_tail_dim + 1))
        full = tables.pi.full_mask
        for M in all_subspaces(n, cut, field):
            # Most searches stop long before the engine's first clock read,
            # so the clock is also read here.
            time_left = None
            if time_limit is not None:
                time_left = time_limit - (time.monotonic() - started)
                if time_left < 0:
                    raise BudgetExceeded(
                        f"search stopped after {time_limit} seconds"
                    )
            covered = tables.pi.mask_of(M)
            for chosen in _exact_cover(
                tables,
                [[_least_point(full & ~covered), 0, None]],
                covered,
                1,
                budget=budget - counters["nodes"],
                time_limit=time_left,
                stats=counters,
                size_limit=limit,
            ):
                sweep_partitions += 1
                P = SubspacePartition(
                    n, field, [M] + [tables.cands[cid][2] for cid in chosen]
                )
                st = supertail(P, cut)
                if st.size == min_partition_size(cut, st.top_dim, q):
                    sweep_hits += 1
    return ImpossibilityReport(
        n, cut, q, (), 0, sweep_partitions, sweep_hits, counters["nodes"]
    )


@dataclass(frozen=True)
class ConjectureCase:
    type_str: str
    cut: int
    tail_top: int
    size: int
    bound: int
    conditions: tuple
    classification: str
    union_dim: object


@dataclass(frozen=True)
class ConjectureFindings:
    n: int
    q: int
    cut_range: tuple
    partitions_examined: int
    cases_examined: int
    narrow_cases: int
    minimum_narrow_cases: int
    condition_counts: tuple   # per side condition, over minimum narrow cases
    class_counts: tuple       # ((classification, count), ...) over all cases
    open_cases: tuple         # minimum narrow cases with no side condition
    counterexamples: tuple    # open cases whose union breaks the conjecture
    violations: tuple         # proven conclusions that failed (expect empty)

    @property
    def ok(self):
        return not self.counterexamples and not self.violations


def conjecture_search(
    n,
    q,
    cut_range=None,
    *,
    max_dim=None,
    budget=None,
    time_limit=None,
    point_limit=ORACLE_POINT_LIMIT,
):
    """Sweep every partition of V(n,q) (member dimensions up to max_dim,
    default n-1) and record how each supertail in cut_range behaves.

    A case is a (partition, occurring cut) pair with members below the cut.
    Narrow cases (cut < 2 * top tail dimension) of minimum size are the
    conjecture's territory: when none of the three side conditions holds
    the case is reported as open, and open cases whose union is not a
    spread or near-spread are counterexamples.  Findings are reported,
    never asserted.
    """
    if max_dim is None:
        max_dim = n - 1
    _check_limits(budget=budget, time_limit=time_limit)
    _checked_field(n, q, point_limit)
    if cut_range is None:
        cut_range = range(2, n)
    cuts = tuple(cut_range)
    if not cuts:
        return ConjectureFindings(
            n, q, cuts, 0, 0, 0, 0, (0, 0, 0), (), (), (), ()
        )
    partitions = 0
    cases = 0
    narrow = 0
    minimum_narrow = 0
    condition_counts = [0, 0, 0]
    class_counts = {}
    open_cases = []
    counterexamples = []
    violations = []
    for P in enumerate_partitions(
        n,
        q,
        max_dim,
        budget=budget,
        time_limit=time_limit,
        point_limit=point_limit,
    ):
        partitions += 1
        dims = P.dims()
        for cut in dims[1:]:
            if cut not in cuts:
                continue
            cases += 1
            report = analyze_supertail(P, cut, mode="explore")
            cls = report.classification.value
            class_counts[cls] = class_counts.get(cls, 0) + 1
            for text in report.violations:
                violations.append(f"{P.type()} cut {cut}: {text}")
            if not report.narrow_gap:
                continue
            narrow += 1
            if not report.is_minimum:
                continue
            minimum_narrow += 1
            held = [holds for _, holds in report.conditions]
            for i, h in enumerate(held):
                condition_counts[i] += h
            if any(held):
                continue
            case = ConjectureCase(
                str(P.type()),
                cut,
                report.tail_top,
                report.size,
                report.bound,
                tuple(held),
                cls,
                report.union_dim,
            )
            open_cases.append(case)
            if report.classification not in (
                TailClass.SPREAD,
                TailClass.TWO_DIM,
            ):
                counterexamples.append(case)
    return ConjectureFindings(
        n,
        q,
        cuts,
        partitions,
        cases,
        narrow,
        minimum_narrow,
        tuple(condition_counts),
        tuple(sorted(class_counts.items())),
        tuple(open_cases),
        tuple(counterexamples),
        tuple(violations),
    )
