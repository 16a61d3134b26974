"""Candidate tables of the exact-cover engine.

The engine in search.py covers the points of V(n, q) by candidates, each
a point bitmask with a dimension.  _Candidates holds such a list, in any
order and from any source, with the tables the engine reads: the
candidates through each point, and the size-limit tables proved in
search._exact_cover.  _SubspaceCandidates fills the list with every
subspace of some dimensions, walked from echelon shapes
(enumeration.shape_masks), and makes a Subspace only for a candidate that
an emitted cover names, decoded from its shape once and kept, so that
covers streamed one after another share their member objects.
"""
from __future__ import annotations

from collections import Counter
from functools import cache, cached_property

from .enumeration import shape_basis, shape_masks
from .spaces import Subspace, num_points, point_index


class _Candidates:
    """Candidates cands, a list of (point mask, dimension) pairs over the
    point index pi, plus per-point lists of candidate ids in list order.

    The size-limit tables count members of the candidate dimensions:
    fewest by their point numbers alone, fits and hyperplanes_fit by how
    they meet hyperplanes.  They are built on first use, since only
    size-limited searches read them.
    """

    def __init__(self, pi, cands):
        self.pi = pi
        self.cands = cands
        self._dims = sorted({d for _, d in cands})
        self._tables = {}
        self.per_point = [[] for _ in range(pi.size)]
        for cid, (mask, _) in enumerate(cands):
            for p in _bits(mask):
                self.per_point[p].append(cid)
        q = pi.field.q
        self._thetas = [num_points(d, q) for d in self._dims]
        # (theta(d-1), q^(d-1)) and theta(n-d), the number of hyperplanes
        # containing a d-subspace, per candidate dimension d
        self._steps = [(num_points(d - 1, q), q ** (d - 1))
                       for d in self._dims]
        self._in_hyperplanes = [num_points(pi.n - d, q) for d in self._dims]

    @cached_property
    def fewest(self):
        """fewest[u] is the least number of members, each of a candidate
        dimension, that hold exactly u points; len(per_point) + 1 where
        none do."""
        total = len(self.per_point)
        fewest = [0] + [total + 1] * total
        for u in range(1, total + 1):
            for w in self._thetas:
                if w <= u:
                    fewest[u] = min(fewest[u], fewest[u - w] + 1)
        return fewest

    @cached_property
    def hyperplanes(self):
        """Point masks of the hyperplanes of V(n, q), in shape order."""
        return list(shape_masks(self.pi, self.pi.n - 1))

    def _table(self, u, spare):
        """The count vectors a (a_d members of each candidate dimension d,
        holding u points, at most spare of them), fits, and the totals
        rows of each vector, built on first read; kept per (u, spare)."""
        # Beyond u // theta(least dimension) members, spare admits no
        # further vector.
        key = (u, min(spare, u // self._thetas[0]))
        table = self._tables.get(key)
        if table is None:
            vectors = list(_count_vectors(self._thetas, *key))
            fits = [0] * (u + 1)
            for bit, counts in enumerate(vectors):
                pairs = list(zip(counts, self._steps))[::-1]
                base = sum(a * below for a, (below, _) in pairs)
                for h in range(base, u + 1):
                    v = h - base
                    for a, (_, w) in pairs:
                        v -= min(a, v // w) * w
                    if not v:
                        fits[h] |= 1 << bit
            totals = _Rows(lambda bit: self.totals(u, vectors[bit]))
            table = self._tables[key] = (vectors, fits, totals)
        return table

    def fits(self, u, spare):
        """fits[h] is a bitmask over the count vectors a (a_d members of
        each candidate dimension d, holding u points, at most spare of
        them): bit i is set when members counted by the i-th vector can
        meet a hyperplane in exactly h points, that is when h - sum a_d
        theta(d-1) = sum x_d q^(d-1) for some 0 <= x_d <= a_d (greedy,
        see search._exact_cover)."""
        return self._table(u, spare)[1]

    def totals(self, u, counts):
        """For each candidate dimension d with a_d = counts[i] > 0, the
        triple (a_d theta(n-d), lo, hi): lo[h] and hi[h] are the least and
        greatest x_d over the solutions of h - sum a_e theta(e-1) =
        sum x_e q^(e-1) with 0 <= x_e <= a_e, for each h that has one."""
        base = sum(a * below for a, (below, _) in zip(counts, self._steps))
        width = (1 << (u - base + 1)) - 1
        rows = []
        for k, a in enumerate(counts):
            if not a:
                continue
            # reach: the sums of the other dimensions' terms, as a bitset
            reach = 1
            for e, (b, (_, z)) in enumerate(zip(counts, self._steps)):
                if e != k:
                    for _ in range(b):
                        reach |= (reach << z) & width
            w = self._steps[k][1]
            most = min(a, (u - base) // w)
            lo = [0] * (u + 1)
            hi = [0] * (u + 1)
            for bound, xs in ((lo, range(most + 1)),
                              (hi, range(most, -1, -1))):
                seen = 0
                for x in xs:
                    new = (reach << x * w) & width & ~seen
                    seen |= new
                    for v in _bits(new):
                        bound[base + v] = x
            rows.append((a * self._in_hyperplanes[k], lo, hi))
        return rows

    def hyperplanes_fit(self, rest, spare):
        """Whether one vector of member counts, at most spare members in
        all, fits |rest & H| for every hyperplane H, with totals that
        allow each dimension's members to lie in as many hyperplanes as
        they must (see search._exact_cover).  Only the numbers of
        hyperplanes with each count are read, so their order does not
        matter."""
        u = rest.bit_count()
        vectors, fits, totals = self._table(u, spare)
        heights = list(map(int.bit_count, map(rest.__and__, self.hyperplanes)))
        alive = (1 << len(vectors)) - 1
        for h in set(heights):
            alive &= fits[h]
        if not alive:
            return False
        tally = Counter(heights).items()
        for bit in _bits(alive):
            if all(sum(lo[h] * c for h, c in tally) <= need
                   <= sum(hi[h] * c for h, c in tally)
                   for need, lo, hi in totals[bit]):
                return True
        return False


class _SubspaceCandidates(_Candidates):
    """Every subspace of V(n, q) of the dimensions dims as a candidate:
    dims in the order given, all_subspaces order within a dimension.
    member(cid) is candidate cid as a Subspace, decoded from its shape on
    first call and kept, with its point mask already filled in."""

    def __init__(self, n, field, dims):
        pi = point_index(n, field)
        cands = []
        # (first id, dimension) of each dimension's block of ids
        blocks = []
        for d in dims:
            blocks.append((len(cands), d))
            cands += [(mask, d) for mask in shape_masks(pi, d)]
        super().__init__(pi, cands)

        @cache
        def member(cid):
            start, d = max(b for b in blocks if b[0] <= cid)
            U = Subspace(field, n, shape_basis(n, field.q, d, cid - start))
            U._mask = cands[cid][0]
            return U

        self.member = member


class _Rows(dict):
    """A table whose row for key is build(key), made on first read."""

    def __init__(self, build):
        super().__init__()
        self._build = build

    def __missing__(self, key):
        row = self[key] = self._build(key)
        return row


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
