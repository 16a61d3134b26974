"""Candidate tables of the exact-cover engine.

The engine in search.py covers the points of V(n, q) by candidates, each
a point bitmask with a dimension.  _Candidates holds such a list, in any
order and from any source, with the tables the engine reads: the
candidates through each point, and the count-vector table whose two
prunes are proved in search._exact_cover.  _SubspaceCandidates fills the
list with every subspace of some dimensions, walked from echelon shapes
(enumeration.shape_masks).  _PinnedCandidates holds the same subspaces
for a search whose first branch point is pinned (search._pinned): its
list starts as the pinned candidates, and the subspaces are walked, and
every other point's list filled, on the first read of a point that has
no list, so a search settled at its first branch point walks none.  A
Subspace is made only for a candidate that an emitted cover names,
spanned by its points once and kept, so that covers streamed one after
another share their member objects; it reads only the candidate's mask,
so any list of subspace masks decodes, in any order.
"""
from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import islice

from .enumeration import shape_masks
from .spaces import num_points, point_index, span


class _Candidates:
    """Candidates cands, a list of (point mask, dimension) pairs over the
    point index pi, plus per_point, the ids of the candidates through
    each point in list order: lists built here, or the per_point given,
    which a subclass fills as the engine reads it.  dims are the
    candidate dimensions, by default those of cands.  A mask that member
    reads must be the point set of a subspace.

    The size limit reads one table per (uncovered points, spare members):
    the vectors of member counts of the candidate dimensions that can hold
    the points, and how members so counted can meet hyperplanes.  It is
    built on first read, since only size-limited searches read it.
    """

    def __init__(self, pi, cands, dims=None, per_point=None):
        self.pi = pi
        self.cands = cands
        self._dims = sorted({d for _, d in cands} if dims is None
                            else set(dims))
        self._tables = {}
        self.per_point = (_point_lists(pi.size, cands) if per_point is None
                          else per_point)
        q = pi.field.q
        self._thetas = [num_points(d, q) for d in self._dims]
        # (theta(d-1), q^(d-1)) and theta(n-d), the number of hyperplanes
        # containing a d-subspace, per candidate dimension d
        self._steps = [(num_points(d - 1, q), q ** (d - 1))
                       for d in self._dims]
        self._in_hyperplanes = [num_points(pi.n - d, q) for d in self._dims]
        self._members = {}

    def member(self, cid):
        """Candidate cid as a Subspace, spanned by its points on first call
        and kept, with its point mask already filled in."""
        U = self._members.get(cid)
        if U is None:
            mask = self.cands[cid][0]
            pi = self.pi
            U = self._members[cid] = span(pi.vectors_of_mask(mask), pi.n,
                                          pi.field)
            U._mask = mask
        return U

    @cached_property
    def hyperplanes(self):
        """Point masks of the hyperplanes of V(n, q), in shape order."""
        return list(shape_masks(self.pi, self.pi.n - 1))

    def _table(self, u, spare):
        """The count vectors a (a_d members of each candidate dimension d,
        holding u points, at most spare of them), fits, and the totals
        rows of the vectors read so far; kept per (u, spare).  fits[h] is
        a bitmask over the vectors: bit i is set when members counted by
        the i-th vector can meet a hyperplane in exactly h points."""
        # Beyond u // theta(least dimension) members, spare admits no
        # further vector.
        key = (u, min(spare, u // self._thetas[0]))
        table = self._tables.get(key)
        if table is None:
            vectors = list(_count_vectors(self._thetas, *key))
            fits = [0] * (u + 1)
            for bit, counts in enumerate(vectors):
                for h in _bits(self._heights(u, counts)):
                    fits[h] |= 1 << bit
            table = self._tables[key] = (vectors, fits, {})
        return table

    def _heights(self, u, counts, skip=None):
        """The heights h <= u of members counted by counts (a_d of each
        candidate dimension d) with the skip-th dimension's members kept
        out of the hyperplane, as a bitset: h = sum a_d theta(d-1) +
        sum x_d q^(d-1) for some 0 <= x_d <= a_d, x_d = 0 when skipped."""
        width = (1 << u + 1) - 1
        base = sum(a * below for a, (below, _) in zip(counts, self._steps))
        reach = 1 << base
        for e, (a, (_, w)) in enumerate(zip(counts, self._steps)):
            if e != skip:
                for _ in range(a):
                    reach |= (reach << w) & width
        return reach

    def totals(self, u, counts):
        """For each candidate dimension d with a_d = counts[i] > 0, the
        triple (a_d theta(n-d), lo, hi): lo[h] and hi[h] are the least and
        greatest x_d over the solutions of h - sum a_e theta(e-1) =
        sum x_e q^(e-1) with 0 <= x_e <= a_e, for each h that has one."""
        width = (1 << u + 1) - 1
        rows = []
        for k, a in enumerate(counts):
            if not a:
                continue
            reach = self._heights(u, counts, k)
            w = self._steps[k][1]
            lo = [0] * (u + 1)
            hi = [0] * (u + 1)
            for bound, xs in ((lo, range(a + 1)), (hi, range(a, -1, -1))):
                seen = 0
                for x in xs:
                    new = (reach << x * w) & width & ~seen
                    seen |= new
                    for h in _bits(new):
                        bound[h] = x
            rows.append((a * self._in_hyperplanes[k], lo, hi))
        return rows

    def hyperplanes_fit(self, rest, spare):
        """None when no vector of member counts, at most spare members in
        all, holds the points of rest; else whether one fits |rest & H|
        for every hyperplane H, with totals that allow each dimension's
        members to lie in as many hyperplanes as they must (see
        search._exact_cover).  Only the numbers of hyperplanes with each
        count are read, so their order does not matter."""
        u = rest.bit_count()
        vectors, fits, totals = self._table(u, spare)
        if not vectors:
            return None
        heights = list(map(int.bit_count, map(rest.__and__, self.hyperplanes)))
        alive = (1 << len(vectors)) - 1
        for h in set(heights):
            alive &= fits[h]
        if not alive:
            return False
        tally = Counter(heights).items()
        for bit in _bits(alive):
            if bit not in totals:
                totals[bit] = self.totals(u, vectors[bit])
            if all(sum(lo[h] * c for h, c in tally) <= need
                   <= sum(hi[h] * c for h, c in tally)
                   for need, lo, hi in totals[bit]):
                return True
        return False


class _SubspaceCandidates(_Candidates):
    """Every subspace of V(n, q) of the dimensions dims as a candidate:
    dims in the order given, all_subspaces order within a dimension."""

    def __init__(self, n, field, dims):
        pi = point_index(n, field)
        super().__init__(pi, _every_subspace(pi, dims))


class _PinnedCandidates(_Candidates):
    """The candidates pins, (point mask, dimension) pairs over pi, then
    every subspace of the dimensions dims as _SubspaceCandidates lists
    them, walked only when the engine needs them.  per_point starts with
    no list: search._pinned sets the first branch point's list to pins.
    The first read of a point that has no list appends the subspaces to
    cands and gives every point without a list the ids of those through
    it, in list order."""

    def __init__(self, pi, dims, pins):
        cands = list(pins)
        super().__init__(pi, cands, dims, _Unlisted(pi, cands, dims))


class _Unlisted(dict):
    """The per_point of a _PinnedCandidates, a dict by point.  Its first
    missing point appends every subspace of the dimensions dims to cands
    and lists them at each point that has no list yet."""

    def __init__(self, pi, cands, dims):
        super().__init__()
        self.pi = pi
        self.cands = cands
        self.dims = dims

    def __missing__(self, point):
        start = len(self.cands)
        self.cands.extend(_every_subspace(self.pi, self.dims))
        lists = _point_lists(self.pi.size, self.cands, start)
        for p, plist in enumerate(lists):
            self.setdefault(p, plist)
        return self[point]


def _every_subspace(pi, dims):
    """(point mask, d) of every d-subspace of pi's V(n, q), d in dims:
    dims in the order given, all_subspaces order within a dimension."""
    return [(mask, d) for d in dims for mask in shape_masks(pi, d)]


def _point_lists(size, cands, start=0):
    """For each of the size points, the ids from start on of the
    candidates of cands through it, in list order."""
    lists = [[] for _ in range(size)]
    for cid, (mask, _) in enumerate(islice(cands, start, None), start):
        for p in _bits(mask):
            lists[p].append(cid)
    return lists


def _count_vectors(thetas, u, spare):
    """Every tuple of counts a, one per entry of thetas, with
    sum a_i thetas[i] = u and sum a_i <= spare."""
    if not thetas:
        if not u:
            yield ()
        return
    *below, w = thetas
    for a in range(min(u // w, spare) + 1):
        for head in _count_vectors(below, u - a * w, spare - a):
            yield head + (a,)


def _bits(mask):
    """Positions of the set bits of mask, least first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
