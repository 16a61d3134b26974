"""Exact-cover search over subspace partitions.

Ground truth independent of the closed-form machinery: partitions of V(n,q)
are found by backtracking over the point set, always branching on the least
uncovered point and extending with candidate subspaces that contain it and
avoid everything chosen so far.  Because the branch point is a function of
the covered set, every partition is reached along exactly one path, so the
enumeration emits each labeled partition once without a deduplication pass.

A size limit prunes by one table, proved in _exact_cover.  The members
still to come hold exactly the uncovered points and each has one of the
candidate dimensions, so some vector of member counts within the limit
must hold that many points, and the table lists those vectors.  It also
counts by hyperplanes, the argument behind |ST| >= sigma_q(d, t): a
d-member meets a hyperplane H in theta(d) or theta(d-1) points, so for
one listed vector every |uncovered & H| must be a sum of such terms.
Its totals add that a d-member lies in exactly theta(n-d) hyperplanes,
so the numbers of d-members inside each hyperplane must sum to that many
per member.  The table uses theta(k) = (q^k - 1)/(q - 1) only, never
the closed formula for sigma, and it only cuts branches that hold no
partition within the limit, so size-limited streams are the unbounded
ones filtered on size, in the same order.

The minimum-size search starts from a witness: minimal_partition(n, t),
used only when it passes validate and has top dimension t, so the
engine asks for one member fewer from the start, and the witness is the
answer when no such cover exists.  A validated partition is a witness,
not a formula, so the search stays independent of sigma.  When the
construction raises or fails those checks, the search starts at one
member per point.

search_min_partition_size and check_no_minimum_supertail ask size
questions that GL(n,q) leaves invariant, so both pin their first two
choices, in _pinned (it is NOT sound for counting).  The linear group is
transitive on k-subspaces, so any partition with a k-member has an image
of the same type containing the canonical k-subspace L0: k is t for the
minimum and the cut for the sweep.  The stabiliser of L0 and the least
point p1 outside it is transitive on the d-subspaces through p1 that
meet L0 trivially, for each d, so the member through p1 can be taken to
be the first such candidate of its dimension (proof in
search_min_partition_size).

The three searches, enumerate_partitions, search_min_partition_size and
check_no_minimum_supertail, drive one backtracking engine, _exact_cover,
through one front end, _covers: it takes the pinned members as a covered
mask and their count, and starts at the least uncovered point unless it
is given a resumed frontier.  conjecture_search streams
enumerate_partitions.  The candidate tables come from candidates.py:
every subspace of the member dimensions as a point mask, walked from its
echelon shape, and a Subspace only for a member of an emitted partition.
The subspaces are walked only when the engine first reads a point that
has no list: at the first node of enumerate_partitions, so a call that
returns before its first node walks none, and past p1 in the two size
searches, which write their pins down (_pinned), so a search that the
pins settle, as most oracle calls are, walks none.
Each call checks its limits once, in _checked_call, which fixes one
budget for the whole call.  The budget counts units of work, and it is
the only bound of a search, so a given budget stops a call at the same
node on every machine: a space with more points than the budget is
refused at once, and every other step is charged through _Call.charge,
which raises BudgetExceeded past the budget.  The point index costs
theta(n) units, the engine one per candidate scanned and _NODE_UNITS per
node, and the tables of candidates.py their walks and sumset steps; a
walk is refused whole, before it allocates, when it would pass the
budget.  Only enumerate_partitions attaches a checkpoint: a
JSON-serializable frontier that it can resume from, written by
save_checkpoint so that a failed write leaves the last one whole.

check_no_minimum_supertail rests on a lemma, proved in its docstring:
when n < 2*cut, a partition of V(n,q) has exactly one member of
dimension >= cut, so its supertail at the cut has at least q^cut members,
more than sigma_q(cut, t) <= theta(cut) allows.  Its sweep re-checks that
in one cover stream, from the pinned cut-subspace.
"""
from __future__ import annotations

import json
import os

from ._record import record
from .analysis import analyze_supertail, TailClass
from .candidates import _Candidates
from .constructions import minimal_partition
from .errors import (
    BadRange,
    BudgetExceeded,
    DimensionMismatch,
    FileFormatError,
    HypothesisNotMet,
    VspartError,
)
from .fields import _check_int, make_field
from .partitions import (
    PartitionType,
    SubspacePartition,
    min_partition_size,
    supertail,
    validate,
)
from .spaces import Subspace, _check_space, num_points, point_index, span

# The budget of a search call that passes none, in units of work (README,
# Budgets): about a minute and well under 1 GB on any search.
SEARCH_UNIT_BUDGET = 3 * 10**8
CHECKPOINT_VERSION = 1
# The units of one engine node, its own candidate scan included.
_NODE_UNITS = 12


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
        _check_int("a type filter dimension", d, 1)
        _check_int(f"the type filter count of dimension {d}", c, 1)
    return filt


class _Call:
    """The budget of one search call in units of work, fixed when
    _checked_call checks it, the units and nodes its work has spent so
    far, and the stats dict that both are added to.  All work is charged
    through charge()."""

    __slots__ = ("budget", "units", "nodes", "stats")

    def __init__(self, budget, stats):
        self.budget = budget
        self.units = self.nodes = 0
        self.stats = {} if stats is None else stats
        self.stats.setdefault("nodes", 0)
        self.stats.setdefault("units", 0)

    def charge(self, units, ahead=0):
        """Add units of work to the call.  Raise BudgetExceeded when the
        call, with ahead more units still to come, is past its budget."""
        self.units += units
        self.stats["units"] += units
        if self.units + ahead > self.budget:
            raise BudgetExceeded(
                f"search stopped at its budget of {self.budget} units")


def _checked_call(n, q, budget=None, size_limit=None, count_limit=None,
                  stats=None):
    """Check a search call's limits, field and space before any table is
    built, and return the field and the call's _Call, charged theta(n)
    units for the point index.  budget, size_limit and count_limit must
    be ints, count_limit at least 1 and budget at least 0; stats, when
    given, must be a dict.  None means no limit, except for the budget,
    which is then SEARCH_UNIT_BUDGET; a space with more points than the
    budget is a BadRange."""
    if size_limit is not None:
        _check_int("size_limit", size_limit)
    if count_limit is not None:
        _check_int("count_limit", count_limit, 1)
    if stats is not None and not isinstance(stats, dict):
        raise BadRange(f"stats {stats!r} is not a dict")
    budget = (SEARCH_UNIT_BUDGET if budget is None
              else _check_int("budget", budget, 0))
    field = make_field(q)
    _check_space(n, q, budget)
    call = _Call(budget, stats)
    call.charge(num_points(n, q))
    return field, call


def save_checkpoint(path, checkpoint):
    """Write checkpoint to path as JSON.  It is written to path + ".tmp"
    first, flushed to disk and then renamed onto path, so a write that
    fails leaves the checkpoint already at path whole."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(checkpoint, fh, indent=1)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def load_checkpoint(path):
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # also text that is not UTF-8
            raise FileFormatError(f"checkpoint is not UTF-8 JSON: {exc}")
    if not isinstance(data, dict) or data.get("version") != CHECKPOINT_VERSION:
        raise FileFormatError("unsupported checkpoint version")
    return data


def _exact_cover(tables, frames, covered, taken, call, size_limit, filt,
                 counts):
    """Backtrack from the frames stack, yielding at every exact cover of
    the space that extends covered (taken members so far) by candidates
    of tables, a candidates._Candidates.

    A frame is [point, next position in per_point[point], chosen candidate
    id or None]; each yield is the list of chosen ids, frame by frame.
    With filt, counts (dimension to members taken) caps each dimension at
    filt[dimension].  Every disjoint extension attempt is a node, counted
    in call.nodes over all the call's streams and added to
    call.stats["nodes"].  The work is charged to call in units: one per
    candidate scanned, read off the list positions at each node and each
    frame pop, and _NODE_UNITS per node, its own scan included.  The
    engine keeps the count in a local and hands it to call.charge()
    before any table charges call itself, and once the count passes
    call.budget at a node or a pop.  Past call.budget units,
    BudgetExceeded is raised with the top frame positioned to retry that
    attempt (or to pop), so frames stays a resumable frontier.  The first
    read of a point that has no list lists the table (tables.listed),
    which may raise it too, before the frame is touched.

    size_limit prunes extensions that cannot finish within that many
    members, and the consumer may then send() a tighter limit back after
    a cover.  Let u be the number of points left uncovered by the
    extension and spare = size_limit - taken - 1.  The members still to
    come are candidates, so they have candidate dimensions and hold
    exactly the u points: a_d of each dimension d, sum a_d theta(d) = u
    and sum a_d <= spare.  tables.hyperplanes_fit reads the table of
    these count vectors, and the extension is pruned when it lists none.
    The table is read only while spare < u, which loses nothing: in
    every state the engine reaches, u is such a sum with a_d >= 0 (u
    single points when 1 is a candidate dimension, the filtered members
    still to come otherwise), and such a vector has at most u members, as
    each holds a point, so with spare >= u the table lists it.  No prune of
    the table cuts a branch that holds a cover within the limit, so the
    covers yielded and their order do not depend on them.

    The hyperplane check refines it.  A d-member meets a hyperplane H in
    dimension d or d-1, so h_H = |rest & H| = sum a_d theta(d-1) +
    sum x_d q^(d-1), x_d in [0, a_d] counting the d-members inside H.
    The table holds, per vector, the heights that can be written so, as
    a sumset bitset, and the extension is pruned when no vector fits
    every h_H.

    The totals refine it: a d-subspace U lies in exactly theta(n-d)
    hyperplanes, as those through U are the hyperplanes of V/U, so
    sum_H x_{H,d} = a_d theta(n-d) over all hyperplanes H.  Each x_{H,d}
    lies between the least and the greatest x_d of the solutions for
    h_H (tables.totals), so a vector whose sums of those bounds miss
    a_d theta(n-d) for some d is cut as well.

    call.stats also accumulates the prunes of each reason: "size_prunes"
    (the table lists no vector) and "hyperplane_prunes" (no vector fits
    the hyperplanes, one at a time or in total).
    """
    cands = tables.cands
    per_point = tables.per_point
    full = tables.pi.full_mask
    nodes, units, budget = call.nodes, call.units, call.budget
    size_prunes = hyperplane_prunes = 0
    try:
        while frames:
            frame = frames[-1]
            if frame[2] is not None:
                mask, d = cands[frame[2]]
                covered &= ~mask
                taken -= 1
                if filt is not None:
                    counts[d] -= 1
                frame[2] = None
            try:
                plist = per_point[frame[0]]
            except KeyError:
                call.charge(units - call.units)
                plist = tables.listed(call)[frame[0]]
                units = call.units
            pos = mark = frame[1]
            while pos < len(plist):
                cid = plist[pos]
                mask, d = cands[cid]
                if mask & covered:
                    pos += 1
                    continue
                nodes += 1
                units += pos - mark + _NODE_UNITS
                if units > budget:
                    frame[1] = pos
                    call.charge(units - call.units)
                pos = mark = pos + 1
                if filt is not None and counts[d] == filt[d]:
                    continue
                rest = full & ~(covered | mask)
                if size_limit is not None:
                    spare = size_limit - taken - 1
                    u = rest.bit_count()
                    if spare < u:
                        frame[1] = pos - 1
                        call.charge(units - call.units)
                        fit = tables.hyperplanes_fit(rest, spare, call)
                        units = call.units
                        if fit is None:
                            size_prunes += 1
                            continue
                        if not fit:
                            hyperplane_prunes += 1
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
                frames.append([(rest & -rest).bit_length() - 1, 0, None])
                break
            else:
                units += len(plist) - mark
                if units > budget:
                    frame[1] = pos
                    call.charge(units - call.units)
                frames.pop()
    finally:
        stats = call.stats
        stats["nodes"] += nodes - call.nodes
        call.nodes = nodes
        if units > call.units:  # else a table charged call and raised
            stats["units"] += units - call.units
            call.units = units
        for key, value in (("size_prunes", size_prunes),
                           ("hyperplane_prunes", hyperplane_prunes)):
            stats[key] = stats.get(key, 0) + value


def _least_point(mask):
    return (mask & -mask).bit_length() - 1


def _pinned(n, field, dims, top):
    """The candidate tables of the dimensions dims, pinned for a size
    question that GL(n,q) leaves invariant, with the pinned member L0 and
    its point mask.  L0 is the span of the last top unit vectors; it
    holds the least point.  At p1, the least point outside L0 and so the
    first branch point, only the first candidate of each dimension that
    meets L0 trivially is kept.  A partition with a member of dimension
    top has an image under GL(n,q), of the same type, that contains L0
    and, through p1, the kept candidate of its dimension (proof in
    search_min_partition_size).  The pins are not sound for counting.

    The kept candidates are written down.  Let m = n - top - 1.  L0's
    points lead at a column after m, so they rank first and p1 = e_m.
    A d-subspace M through e_m that meets L0 trivially has every pivot
    at most m, as a row pivoted after m lies in L0, and m is a pivot,
    as e_m is 0 at every pivot before m.  So the least pivot tuple in
    shape order is (0, ..., d-2, m) and its first fill is the zero one:
    K_d = <e_0, ..., e_{d-2}, e_m>, for each d <= n - top, and there is
    none for larger d.  The other points' lists are built only when the
    engine first reads one (candidates._Candidates.listed)."""
    pi = point_index(n, field)
    rows = [tuple(int(i == j) for j in range(n)) for i in range(n - top, n)]
    root = span(rows, n, field)
    covered = pi.mask_of(root)
    p1 = _least_point(pi.full_mask & ~covered)
    pins = [(pi._unit_mask([*range(d - 1), n - top - 1]), d)
            for d in dims if d <= n - top]
    return _Candidates(pi, dims, pins, p1), root, covered


def _covers(tables, call, covered, taken, size_limit=None, filt=None,
            counts=None, frames=None):
    """The stream of _exact_cover: the exact covers by candidates of
    tables that extend the pinned members, taken of them holding the
    points of covered.  A caller that saves the frontier after
    BudgetExceeded passes frames, the resumed stack or an empty list,
    which the engine then backtracks on in place; an empty stack starts
    at the least uncovered point."""
    frames = [] if frames is None else frames
    if not frames:
        frames.append([_least_point(tables.pi.full_mask & ~covered), 0, None])
    return _exact_cover(tables, frames, covered, taken, call, size_limit,
                        filt, counts)


def _partition(tables, pins, chosen):
    """The partition of the pinned members pins and the candidates
    chosen, one cover of _covers."""
    return SubspacePartition(tables.pi.n, tables.pi.field,
                             pins + list(map(tables.member, chosen)))


def enumerate_partitions(
    n,
    q,
    max_dim,
    *,
    type_filter=None,
    size_limit=None,
    count_limit=None,
    budget=None,
    resume=None,
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
    constrains the non-seed members.  The budget counts units of work
    (see _Call and README, Budgets); exhausting it raises BudgetExceeded,
    at the same node on every machine, whose .checkpoint resumes the
    stream via the resume argument with identical options.  When a dict
    is passed as stats, its "nodes" entry accumulates the extension
    attempts spent and its "units" entry the units, and once the search
    runs, "size_prunes" and "hyperplane_prunes" the extensions that
    size_limit cut because no vector of member counts holds the
    uncovered points and because none fits the hyperplanes.
    """
    _check_int("n", n, 1)
    _check_int("max_dim", max_dim, 1, n)
    field, call = _checked_call(n, q, budget, size_limit, count_limit,
                                stats)
    filt = _normalize_filter(type_filter)
    if filt is not None and max(filt) > max_dim:
        return
    dims = [d for d in range(1, max_dim + 1) if filt is None or d in filt]
    tables = _Candidates(point_index(n, field), dims)
    pi = tables.pi

    options = {
        "n": n,
        "q": q,
        "max_dim": max_dim,
        "type_filter": [list(e) for e in sorted(filt.items())] if filt else None,
        "size_limit": size_limit,
        "count_limit": count_limit,
    }
    covered = 0
    counts = dict.fromkeys(dims, 0)
    try:
        seed = list(seed) if seed else []
    except TypeError as exc:
        raise BadRange(f"seed {seed!r} is not a list of subspaces") from exc
    for member in seed:
        if not isinstance(member, Subspace):
            raise BadRange(f"seed member {member!r} is not a subspace")
        if member.n != n or member.field is not field:
            raise DimensionMismatch(
                f"seed member lives in V({member.n},{member.field.q}), "
                f"not in V({n},{q})"
            )
        mask = pi.mask_of(member)
        if mask & covered:
            raise BadRange("seed members are not pairwise disjoint")
        covered |= mask
    taken = len(seed)
    options["seed"] = sorted(
        [[int(c) for c in row] for row in member.basis] for member in seed
    )
    free_points = (pi.full_mask & ~covered).bit_count()
    if seed and not free_points:
        # The seed is the whole partition: it has no filtered members.
        if filt is None and (size_limit is None or len(seed) <= size_limit):
            yield SubspacePartition(n, field, seed)
        return
    emitted = 0
    nodes_done = 0
    frames = []
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
        stack = state.get("stack", [])
        if not isinstance(stack, list) or not stack:
            raise FileFormatError("checkpoint has an empty frontier stack")
        try:
            per_point = tables.listed(call)
        except BudgetExceeded as exc:
            # Stopped before its first node, the call resumes from where
            # it was resumed.
            exc.checkpoint = resume
            raise
        try:
            # The stream stops at count_limit, so it saves fewer.
            emitted = _check_int("emitted", state.get("emitted", 0), 0,
                                 count_limit - 1 if count_limit else None)
            nodes_done = _check_int("nodes_done",
                                    state.get("nodes_done", 0), 0)
            for entry in stack:
                if not (isinstance(entry, list) and len(entry) == 2):
                    raise FileFormatError(f"checkpoint frame {entry!r} is "
                                          f"not a [point, position] pair")
                point = _check_int("frame point", entry[0])
                free = pi.full_mask & ~covered
                # The engine branches on the least uncovered point, and
                # every frame below the last one holds its choice at pos - 1.
                if not free or point != _least_point(free):
                    raise FileFormatError(f"checkpoint frame {entry!r} is "
                                          f"off the frontier")
                last = len(frames) == len(stack) - 1
                pos = _check_int("frame position", entry[1], 0 if last else 1,
                                 len(per_point[point]))
                cid = None if last else per_point[point][pos - 1]
                if cid is not None:
                    mask, d = tables.cands[cid]
                    if (mask & covered
                            or filt is not None and counts[d] == filt[d]):
                        raise FileFormatError(f"checkpoint frame {entry!r} "
                                              f"chooses a member that does "
                                              f"not fit")
                    covered |= mask
                    taken += 1
                    counts[d] += 1
                frames.append([point, pos, cid])
        except BadRange as exc:
            raise FileFormatError(f"checkpoint {exc}") from exc
    # The filtered members must fill exactly the points the seed leaves.
    if filt is not None and free_points != sum(
        c * num_points(d, q) for d, c in filt.items()
    ):
        return

    covers = _covers(tables, call, covered, taken, size_limit, filt, counts,
                     frames)
    try:
        for chosen in covers:
            emitted += 1
            yield _partition(tables, seed, chosen)
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
                "nodes_done": nodes_done + call.nodes,
            },
        }
        raise
    finally:
        covers.close()


@record
class SearchResult:
    """size and partition: a minimum partition.  witness: the size of the
    validated construction the search started below, or None when there
    was none; beat_witness says whether the search found a smaller one."""

    size: int
    partition: SubspacePartition
    nodes: int
    witness: int | None = None

    @property
    def beat_witness(self):
        return self.witness is not None and self.size < self.witness


def _witness(n, t, field):
    """minimal_partition(n, t, field) if it builds, passes validate and
    has top dimension t, else None."""
    try:
        W = minimal_partition(n, t, field)
    except VspartError:
        return None
    if W.n != n or W.field is not field or not validate(W).ok:
        return None
    return W if max(W.dims()) == t else None


def search_min_partition_size(
    n,
    t,
    q,
    *,
    budget=None,
):
    """Minimum size of a partition of V(n,q) whose largest member has
    dimension exactly t, by seeded branch and bound.

    The first member is pinned to L0, the canonical t-subspace (sound
    for the minimum since GL(n,q) is transitive on t-subspaces).  The
    search then branches on the least uncovered point with candidates of
    dimension at most t, larger dimensions first.  It starts one member
    below its witness (see the module docstring), or at one member per
    point without one, and after each cover asks for one member fewer,
    pruning by the counting bounds of _exact_cover: the uncovered points
    must be held exactly by members of theta(1), ..., theta(t) points,
    and each hyperplane must meet those members in a fitting number of
    them.  (For t = 2 in V(5,2), a lines and b points need 3a + b = 31,
    so a + b is 11 when b = 1 and at least 13 otherwise: 12 members must
    be a = 10 lines and b = 1 point.  The hyperplane check rules that
    out: each line meets a hyperplane in 1 or 3 points, so the 15 points
    of every hyperplane would need the single point, which 16 hyperplanes
    miss.)

    The second member is pinned too, by _pinned, which
    check_no_minimum_supertail shares.  Let p1 be the least point outside
    L0, the first branch point.  Of the d-dimensional candidates through
    p1, for each d, only the first one disjoint from L0, K_d, is kept.
    Claim: for every d <= n - t, the stabiliser G of L0 and p1 = <v1> in
    GL(n,q) is transitive on the d-subspaces M through p1 with M meet
    L0 = 0.  So a partition containing L0 whose member through p1 has
    dimension d has an image under G, of the same size and type,
    containing L0 and K_d.

    Proof.  Fix a complement C of L0 containing v1, and let pi: V -> C
    be the projection along L0.  As M meets L0 trivially, pi is
    injective on M, so M is the graph {w + f(w) : w in W} of a linear map
    f: W -> L0, where W = pi(M) is a d-subspace of C; and f(v1) = 0,
    since v1 is in M and in C.  Extend f to a linear F: C -> L0 with
    F(v1) = 0 and let u(c + l) = c + l - F(c) for c in C, l in L0.  The
    unipotent u fixes L0 pointwise and v1, and maps M onto W.  For a
    second such M', with W' = pi(M'), some g in GL(C) fixes v1 and maps
    W onto W': extend v1 to bases of W and W', then both to bases of
    C.  Extended by the identity on L0, g is in G, and u'^-1 g u maps M
    onto M'.  (Every candidate disjoint from L0 has d <= n - t, as
    dim C = n - t; and the proof reads dim L0 only there, so it holds
    for the cut-subspace of the sweep with n - cut in place of n - t.)
    """
    _check_int("n", n, 2)
    _check_int("t", t, 1, n - 1)
    field, call = _checked_call(n, q, budget)
    tables, root, covered = _pinned(n, field, range(t, 0, -1), t)
    # Without a witness the first limit prunes nothing: a partition has
    # at most one member per point.
    witness = _witness(n, t, field)
    covers = _covers(tables, call, covered, 1,
                     num_points(n, q) if witness is None else witness.size - 1)
    # Every cover found is smaller than the last: the engine prunes to
    # one member fewer after each.
    best = None
    try:
        best = next(covers)
        while True:
            best = covers.send(len(best))
    except StopIteration:
        pass
    P = witness if best is None else _partition(tables, [root], best)
    return SearchResult(P.size, P, call.nodes,
                        None if witness is None else witness.size)


@record
class ImpossibilityReport:
    """Tallies of check_no_minimum_supertail.  sweep_partitions and
    sweep_hits count only the partitions that its pinned sweep reaches:
    every partition up to GL(n,q), not every labeled one.
    candidate_types is always () and type_hits always 0: by the lemma
    proved there, no tail type can meet the bound, so none is searched.
    The fields stay for callers that read them."""

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

    The sweep checks the lemma by brute force: it extends the canonical
    cut-subspace L0 by members of dimension at most min(cut-1, n-cut), up
    to 1 + max_t sigma_q(cut, t) members in all, and tests each partition
    found.  Supertail sizes and top dimensions are invariant under
    GL(n,q), so it runs one cover stream with the pins of
    search_min_partition_size (proof there), which reach every partition
    with a cut-member up to GL(n,q).  By the lemma it finds none, so
    sweep_partitions is 0.  The budget covers the whole call.
    """
    _check_int("n", n, 2)
    _check_int("cut", cut, 1, n - 1)
    if not n < 2 * cut:
        raise HypothesisNotMet(
            "only the n < 2*cut regime forces a unique member above the cut"
        )
    field, call = _checked_call(n, q, budget)
    # Not empty: n < 2*cut and cut < n give cut >= 2.
    tail_dims = range(1, min(cut - 1, n - cut) + 1)
    limit = 1 + max(min_partition_size(cut, top, q) for top in tail_dims)
    tables, root, covered = _pinned(n, field, tail_dims, cut)
    sweep_partitions = 0
    sweep_hits = 0
    for chosen in _covers(tables, call, covered, 1, limit):
        sweep_partitions += 1
        st = supertail(_partition(tables, [root], chosen), cut)
        if st.size == min_partition_size(cut, st.top_dim, q):
            sweep_hits += 1
    return ImpossibilityReport(
        n, cut, q, (), 0, sweep_partitions, sweep_hits, call.nodes
    )


@record
class ConjectureCase:
    type_str: str
    cut: int
    tail_top: int
    size: int
    bound: int
    conditions: tuple
    classification: str
    union_dim: object


@record
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
):
    """Sweep every partition of V(n,q) (member dimensions up to max_dim,
    default n-1) and record how each supertail in cut_range behaves.

    A case is a (partition, occurring cut) pair with members below the cut,
    so every cut in cut_range must lie in [2, min(max_dim, n - 1)];
    BadRange is raised otherwise, before any search.  Narrow cases (cut <
    2 * top tail dimension) of minimum size are the conjecture's
    territory: when none of the three side conditions holds the case is
    reported as open, and open cases whose union is not a spread or
    near-spread are counterexamples.  Findings are reported,
    never asserted.
    """
    _check_int("n", n, 1)
    if max_dim is None:
        max_dim = n - 1
    _check_int("max_dim", max_dim)
    _checked_call(n, q, budget)
    try:
        cuts = tuple(range(2, n) if cut_range is None else cut_range)
    except TypeError as exc:
        raise BadRange(f"cut_range {cut_range!r} is not a list of cuts") from exc
    if not cuts:
        return ConjectureFindings(
            n, q, cuts, 0, 0, 0, 0, (0, 0, 0), (), (), (), ()
        )
    if cut_range is not None:
        # A cut is a member dimension above the least, and no partition
        # with a member of dimension n has another member.
        top = min(max_dim, n - 1)
        for cut in cuts:
            _check_int("cut", cut, 2, top)
    partitions = 0
    cases = 0
    narrow = 0
    minimum_narrow = 0
    condition_counts = [0, 0, 0]
    class_counts = {}
    open_cases = []
    counterexamples = []
    violations = []
    for P in enumerate_partitions(n, q, max_dim, budget=budget):
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
