"""Candidate tables of the exact-cover engine.

The engine in search.py covers the points of V(n, q) by candidates, each
a point bitmask with a dimension.  _Candidates holds the list of one
search, with the tables the engine reads: the candidates through each
point, and the count-vector table whose two prunes are proved in
search._exact_cover.  The list starts as the given pins, listed at one
point (search._pinned writes them down).  Every subspace of the
candidate dimensions, walked from its echelon shape
(enumeration.shape_masks), is appended and listed at every other point
only on the first read of a point that has no list, so a search that
never leaves its pins, or returns before its first node, walks none.
A Subspace is made only for a candidate that an emitted cover names,
spanned by its points once and kept, so that covers streamed one after
another share their member objects; it reads only the candidate's mask,
so any list of subspace masks decodes, in any order.

Every table charges its work to the search call, through
search._Call.charge, in the units of the call's budget.  A walked mask
costs _walk_units: _ENTRY_UNITS per point, a list entry in the candidate
walk, and per 64 points of the space, a word of the mask.  The candidate
walk is refused whole, before it starts, when it would pass the budget,
and the hyperplane masks are charged when first read.  The count
vectors and their totals cost _STEP_UNITS per sumset step and per
height listed, and each check of the hyperplanes _STEP_UNITS per
hyperplane.
"""
from __future__ import annotations

from collections import Counter
from functools import cached_property

from .enumeration import gaussian_binomial, shape_masks
from .spaces import num_points, span

# The units of one list entry walked (_walk_units) and of one sumset
# step, height or hyperplane of the count-vector tables, a unit being
# one candidate scanned by the engine (README, Budgets).
_ENTRY_UNITS = 30
_STEP_UNITS = 8


class _Candidates:
    """Candidates cands, a list of (point mask, dimension) pairs over the
    point index pi, and per_point, a dict from a point to the ids of the
    candidates through it, in list order.  cands starts as pins, listed
    only at the point at (at none when at is None); listed() appends
    every subspace of the dimensions dims, dims in the order given and
    shape order within one, and lists them at every other point.  A mask
    that member reads must be the point set of a subspace.

    The size limit reads one table per (uncovered points, spare members):
    the vectors of member counts of the candidate dimensions that can hold
    the points, and how members so counted can meet hyperplanes.  It is
    built on first read, since only size-limited searches read it.
    """

    def __init__(self, pi, dims, pins=(), at=None):
        self.pi = pi
        self.cands = list(pins)
        self.per_point = ({} if at is None
                          else {at: list(range(len(self.cands)))})
        self._walk_dims = tuple(dims)
        self._dims = sorted(self._walk_dims)
        self._tables = {}
        q = pi.field.q
        self._thetas = [num_points(d, q) for d in self._dims]
        # (theta(d-1), q^(d-1)) and theta(n-d), the number of hyperplanes
        # containing a d-subspace, per candidate dimension d
        self._steps = [(num_points(d - 1, q), q ** (d - 1))
                       for d in self._dims]
        self._in_hyperplanes = [num_points(pi.n - d, q) for d in self._dims]
        self._members = {}

    def listed(self, call):
        """per_point with every point listed.  The first call walks every
        subspace of the candidate dimensions, appends them to cands and
        lists them at each point that has no list yet.  It charges call,
        the search._Call, _ENTRY_UNITS per list entry: the whole walk,
        counted by gaussian_binomial, before anything is walked, and each
        subspace as it is walked; when that raises, nothing is appended
        or listed."""
        pi, per_point = self.pi, self.per_point
        if len(per_point) < pi.size:
            call.charge(0, sum(gaussian_binomial(pi.n, d, pi.field.q)
                               * _walk_units(pi, d) for d in self._walk_dims))
            start = len(self.cands)
            walked = []
            lists = [[] for _ in range(pi.size)]
            for d in self._walk_dims:
                units = _walk_units(pi, d)
                for mask in shape_masks(pi, d):
                    call.charge(units)
                    cid = start + len(walked)
                    for p in _bits(mask):
                        lists[p].append(cid)
                    walked.append((mask, d))
            self.cands += walked
            for p, plist in enumerate(lists):
                per_point.setdefault(p, plist)
        return per_point

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

    def _table(self, u, spare, call):
        """The count vectors a (a_d members of each candidate dimension d,
        holding u points, at most spare of them), fits, and the totals
        rows of the vectors read so far; kept per (u, spare), and each
        vector charged to call by its sumset steps as it is listed.
        fits maps a height h to a bitmask over the vectors: bit i is set
        when members counted by the i-th vector can meet a hyperplane in
        exactly h points; a height no vector reaches is left out."""
        # Beyond u // theta(least dimension) members, spare admits no
        # further vector.
        key = (u, min(spare, u // self._thetas[0]))
        table = self._tables.get(key)
        if table is None:
            vectors = []
            fits = {}
            for counts in _count_vectors(self._thetas, *key):
                reach = self._heights(u, counts)
                call.charge(_STEP_UNITS * (sum(counts) + reach.bit_count()))
                for h in _bits(reach):
                    fits[h] = fits.get(h, 0) | 1 << len(vectors)
                vectors.append(counts)
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

    def totals(self, u, counts, call):
        """For each candidate dimension d with a_d = counts[i] > 0, the
        triple (a_d theta(n-d), lo, hi): lo[h] and hi[h] are the least and
        greatest x_d over the solutions of h - sum a_e theta(e-1) =
        sum x_e q^(e-1) with 0 <= x_e <= a_e, for each h that has one.
        Each row is charged to call by its sumset steps."""
        width = (1 << u + 1) - 1
        rows = []
        for k, a in enumerate(counts):
            if not a:
                continue
            call.charge(_STEP_UNITS * (sum(counts) + a + 2))
            reach = self._heights(u, counts, k)
            w = self._steps[k][1]
            lo, hi = {}, {}
            for bound, xs in ((lo, range(a + 1)), (hi, range(a, -1, -1))):
                seen = 0
                for x in xs:
                    new = (reach << x * w) & width & ~seen
                    seen |= new
                    for h in _bits(new):
                        bound[h] = x
            rows.append((a * self._in_hyperplanes[k], lo, hi))
        return rows

    def hyperplanes_fit(self, rest, spare, call):
        """None when no vector of member counts, at most spare members in
        all, holds the points of rest; else whether one fits |rest & H|
        for every hyperplane H, with totals that allow each dimension's
        members to lie in as many hyperplanes as they must (see
        search._exact_cover).  Only the numbers of hyperplanes with each
        count are read, so their order does not matter.  The work is
        charged to call, the search._Call."""
        u = rest.bit_count()
        vectors, fits, totals = self._table(u, spare, call)
        if not vectors:
            return None
        pi = self.pi
        if "hyperplanes" not in vars(self):
            call.charge(pi.size * _walk_units(pi, pi.n - 1))
        call.charge(_STEP_UNITS * pi.size)
        heights = list(map(int.bit_count, map(rest.__and__, self.hyperplanes)))
        alive = (1 << len(vectors)) - 1
        for h in set(heights):
            alive &= fits.get(h, 0)
        if not alive:
            return False
        tally = Counter(heights).items()
        for bit in _bits(alive):
            if bit not in totals:
                totals[bit] = self.totals(u, vectors[bit], call)
            if all(sum(lo[h] * c for h, c in tally) <= need
                   <= sum(hi[h] * c for h, c in tally)
                   for need, lo, hi in totals[bit]):
                return True
        return False


def _walk_units(pi, d):
    """The units of walking the mask of one d-subspace: _ENTRY_UNITS for
    each of its points, a list entry of the candidate walk, and for each
    64 points of V(n, q), a word of the mask."""
    return _ENTRY_UNITS * (num_points(d, pi.field.q) + pi.size // 64)


def _count_vectors(thetas, u, spare):
    """Every tuple of counts a, one per entry of thetas (increasing), with
    sum a_i thetas[i] = u and sum a_i <= spare.  A count of the last entry
    that leaves more than spare - a members of the largest entry below it
    can hold is skipped, so only a dead end of divisibility is walked."""
    if not thetas:
        if not u:
            yield ()
        return
    *below, w = thetas
    top = below[-1] if below else 0
    for a in range(max(0, -(-(u - spare * top) // (w - top))),
                   min(u // w, spare) + 1):
        for head in _count_vectors(below, u - a * w, spare - a):
            yield head + (a,)


def _bits(mask):
    """Positions of the set bits of mask, least first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
