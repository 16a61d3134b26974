"""Vectors and subspaces of V(n, q).

Vectors are tuples of field codes.  A subspace is stored by the reduced row
echelon basis of its row space, which is unique, so equality and hashing are
structural.  Point representatives (canonical generators of 1-subspaces) are
the vectors whose first nonzero coordinate is 1, listed in lexicographic
order.

A point is ranked by arithmetic.  Let its representative have its leading 1
at position i, with m = n - 1 - i codes after it.  The theta(m) points with
fewer codes after the lead come first, so its rank is theta(m) plus the
base-q value of those m codes.  With V the base-q value of the whole
vector, that is V - (q^m - theta(m)): a constant per leading position, and
V - 1 for q = 2.

PointIndex._ranks walks the span of an echelon basis r_0, ..., r_{d-1},
last row first.  Row k has its pivot entry 1 and zeros before the pivot
and in every other pivot column, so r_k plus any combination of later rows
already leads with 1 at the pivot of r_k.  These vectors are the points
whose first nonzero coefficient is that of row k, and none needs scaling.
Each vector of the walk is an earlier one plus c * r_k, which changes only
the pivot of r_k (from 0 to c) and the free columns where r_k is nonzero,
so its base-q value is updated from those columns alone.

In characteristic 2 the update is one XOR.  With q = 2^e a code of GF(q)
is its e polynomial bits (see fields), so a vector's base-q value is its
codes' bits written end to end, and since adding two codes XORs their
bits, the value of s + c * r_k is the value of s XOR that of c * r_k.  The
walk computes the q - 1 values of c * r_k once per row and XORs them into
the values of the later rows' span.

orthogonal(U) reads the reduced basis of U^perp off U's basis reduced
from the right, with no second elimination.  Reduce U's d rows from the
right, eliminating the last column first: row u_i ends in 1 at column
rho_i, and every other u_j is 0 there.  For each column c that is not a
rho_i, put w_c = e_c - sum_i u_i[c] e_{rho_i}.  As u_j[rho_i] is 1 for
i = j and 0 otherwise, w_c . u_j = u_j[c] - u_j[c] = 0.  Since u_i[c] != 0
only when c < rho_i, w_c leads with 1 at c, and every other w is 0 at c.
So the n - d rows w_c are independent and span U^perp, and in increasing
c they are already in reduced row echelon form.
"""
from __future__ import annotations

from functools import cached_property

from .errors import BadRange, DimensionMismatch
from .fields import _check_int


def num_points(dim, q):
    """Number of 1-subspaces of a space of the given dimension over GF(q).

    Equals (q**dim - 1) // (q - 1); zero for dimension 0.
    """
    _check_int("dim", dim, 0)
    _check_int("q", q, 2)
    return (q ** dim - 1) // (q - 1)


# Partition files and the constructions refuse ambient spaces with more
# points than this: theta(4) over GF(16), the largest space the package is
# meant to verify.  Bigger spaces would start computations that do not
# finish.
FILE_POINT_LIMIT = 4369


def _check_space(n, q, limit):
    """Refuse with BadRange an ambient dimension n below 1, or a V(n, q),
    q >= 2, with more than limit points.  Points are counted up one
    dimension at a time, so a huge n costs no more than about
    log_q(limit) steps."""
    _check_int("n", n, 1)
    points = 0
    for _ in range(n):
        points = points * q + 1
        if points > limit:
            raise BadRange(f"V({n},{q}) has more than {limit} points")


def _check_vector(vec, n, q):
    if len(vec) != n:
        raise DimensionMismatch(
            f"vector of length {len(vec)} in ambient of dimension {n}"
        )
    for x in vec:
        if not (type(x) is int and 0 <= x < q):
            raise BadRange(f"element code {x!r} outside GF({q})")


def _rref(rows, n, field, cols=None, pivots=None):
    """Unique reduced row echelon form of the row space, zero rows dropped.

    Columns are eliminated in the order cols, left to right by default; a
    reversed order reduces from the right.  The pivot column of each
    returned row is appended to the list pivots when one is given."""
    add, mul, neg, inv = field._add, field._mul, field._neg, field._inv
    mat = [list(r) for r in rows if any(r)]
    rank = 0
    for col in range(n) if cols is None else cols:
        piv = None
        for r in range(rank, len(mat)):
            if mat[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        c = mat[rank][col]
        if c != 1:
            scale = mul[inv[c]]
            mat[rank] = [scale[x] for x in mat[rank]]
        row = mat[rank]
        for r in range(len(mat)):
            f = mat[r][col]
            if r != rank and f != 0:
                # x - f*y as x + (-f)*y
                scale = mul[neg[f]]
                mat[r] = [add[x][scale[y]] for x, y in zip(mat[r], row)]
        if pivots is not None:
            pivots.append(col)
        rank += 1
        if rank == len(mat):
            break
    return tuple(tuple(r) for r in mat[:rank])


class Subspace:
    """A subspace of V(n, q), identified by its canonical basis.

    Instances should be built through :func:`span`; the constructor trusts
    that the rows passed in are already in reduced row echelon form.
    """

    __slots__ = ("field", "n", "basis", "_points", "_pivots", "_mask")

    def __init__(self, field, n, basis):
        self.field = field
        self.n = n
        self.basis = basis
        self._points = None
        # Point mask of this subspace, filled in and read by
        # PointIndex.mask_of.
        self._mask = None
        # An echelon row is 0 before its pivot and 1 at it.
        self._pivots = tuple([row.index(1) for row in basis])

    @property
    def dim(self):
        return len(self.basis)

    def points(self):
        """Canonical representatives of the 1-subspaces, sorted."""
        if self._points is None:
            pi = point_index(self.n, self.field)
            self._points = tuple(map(pi.unrank, sorted(pi._ranks(self))))
        return self._points

    def contains(self, vec):
        F = self.field
        _check_vector(vec, self.n, F.q)
        v = list(vec)
        for row, pc in zip(self.basis, self._pivots):
            c = v[pc]
            if c:
                v = [F.sub(x, F.mul(c, y)) for x, y in zip(v, row)]
        return not any(v)

    def contains_subspace(self, other):
        _check_ambient(self, other)
        return all(self.contains(row) for row in other.basis)

    def sort_key(self):
        return (len(self.basis), self.basis)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.n == other.n
            and self.field.q == other.field.q
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.n, self.field.q, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, n={self.n}, q={self.field.q})"


def _check_ambient(U, W):
    if U.n != W.n or U.field.q != W.field.q:
        raise DimensionMismatch(
            f"subspaces live in different ambients: "
            f"V({U.n},{U.field.q}) vs V({W.n},{W.field.q})"
        )


def span(vectors, n, field):
    _check_int("n", n, 0)
    for v in vectors:
        _check_vector(v, n, field.q)
    return Subspace(field, n, _rref(vectors, n, field))


def zero_subspace(n, field):
    _check_int("n", n, 0)
    return Subspace(field, n, ())


def full_space(n, field):
    _check_int("n", n, 0)
    rows = tuple(
        tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
    )
    return Subspace(field, n, rows)


def subspace_sum(U, W):
    _check_ambient(U, W)
    return span(U.basis + W.basis, U.n, U.field)


def intersect(U, W):
    """Intersection by the Zassenhaus block trick."""
    _check_ambient(U, W)
    n, F = U.n, U.field
    zeros = (0,) * n
    rows = [r + r for r in U.basis] + [r + zeros for r in W.basis]
    reduced = _rref(rows, 2 * n, F)
    inter = [r[n:] for r in reduced if not any(r[:n])]
    return span(inter, n, F)


def nullspace(rows, n, field):
    """Solution space of the homogeneous system with the given constraint rows."""
    return orthogonal(span(rows, n, field))


def orthogonal(U):
    """U^perp, read off U's basis reduced from the right (see the module
    docstring): one reduction of U's d rows, none of U^perp's n - d."""
    n, neg = U.n, U.field._neg
    ends = []
    rows = _rref(U.basis, n, U.field, range(n - 1, -1, -1), ends)
    # rows[i] ends in 1 at column ends[i].
    basis = []
    for c in range(n):
        if c in ends:
            continue
        w = [0] * n
        w[c] = 1
        for r, rho in zip(rows, ends):
            w[rho] = neg[r[c]]
        basis.append(tuple(w))
    return Subspace(U.field, n, tuple(basis))


class PointIndex:
    """Bit-indexed universe of the points of V(n, q).

    Point sets are carried as Python integers with bit i standing for the
    point of rank i (see the module docstring).
    """

    def __init__(self, n, field):
        self.n = n
        self.field = field
        q = field.q
        self.size = num_points(n, q)
        # place[j]: base-q value of a unit at coordinate j; shift[j]: base-q
        # value minus rank of any representative led at coordinate j.
        self._place = [q ** (n - 1 - j) for j in range(n)]
        self._shift = [
            w - num_points(n - 1 - j, q) for j, w in enumerate(self._place)
        ]

    @cached_property
    def full_mask(self):
        return (1 << self.size) - 1

    def rep_of(self, vec):
        """Canonical representative of the 1-subspace spanned by vec."""
        F = self.field
        _check_vector(vec, self.n, F.q)
        lead = next((c for c in vec if c), 0)
        if lead == 0:
            raise BadRange("the zero vector spans no point")
        if lead == 1:
            return tuple(vec)
        ic = F.inv(lead)
        return tuple(F.mul(ic, c) for c in vec)

    def rank(self, vec):
        """Rank of the point spanned by the nonzero vector vec."""
        q, value, lead = self.field.q, 0, None
        for j, x in enumerate(self.rep_of(vec)):
            if lead is None and x:
                lead = j
            value = value * q + x
        return value - self._shift[lead]

    def unrank(self, i):
        """Canonical representative of the point of rank i."""
        _check_int("point rank", i, 0, self.size - 1)
        q, m, below = self.field.q, 0, 0
        while below * q + 1 <= i:
            below = below * q + 1
            m += 1
        rest, tail = i - below, []
        for _ in range(m):
            rest, x = divmod(rest, q)
            tail.append(x)
        return (0,) * (self.n - 1 - m) + (1,) + tuple(reversed(tail))

    def _check(self, U):
        if U.n != self.n or U.field.q != self.field.q:
            raise DimensionMismatch(
                f"subspace of V({U.n},{U.field.q}) in the point index of "
                f"V({self.n},{self.field.q})"
            )

    def _row_step(self, later, p, entries, scalars):
        """Base-q values of s + c * r for each c in scalars (outer) and s in
        later (inner).  The row r has its pivot 1 at column p and nonzero
        codes only at the (column, code) pairs entries after it, and every
        s is 0 at p, so only column p and the entry columns change (see
        the module docstring)."""
        F, q, place = self.field, self.field.q, self._place
        grown = []
        for c in scalars:
            mul = F._mul[c]
            lift = c * place[p]
            steps = [(place[j], F._add[mul[x]]) for j, x in entries]
            for s in later:
                v = s + lift
                for w, add in steps:
                    x = s // w % q
                    v += (add[x] - x) * w
                grown.append(v)
        return grown

    def _ranks(self, U):
        """Ranks of the points of U, in walk order."""
        self._check(U)
        F = U.field
        if F.p == 2:
            return self._xor_ranks(U)
        q = F.q
        out = []
        later = [0]  # base-q values of the span of the rows after row k
        for k in range(U.dim - 1, -1, -1):
            row, p = U.basis[k], U._pivots[k]
            entries = [(j, x) for j, x in enumerate(row) if x and j > p]
            # Row 0 needs only c = 1: no row before it reads the span.
            grown = self._row_step(later, p, entries, range(1, q if k else 2))
            shift = self._shift[p]
            out += [v - shift for v in grown[: len(later)]]
            if k:
                later += grown
        return out

    def _xor_ranks(self, U):
        """_ranks in characteristic 2, where adding c * r_k to a vector
        XORs its base-q value with that of c * r_k (module docstring)."""
        place, mul = self._place, U.field._mul
        basis, pivots = U.basis, U._pivots
        out = []
        later = [0]  # base-q values of the span of the rows after row k
        for k in range(U.dim - 1, 0, -1):
            row, p = basis[k], pivots[k]
            # mults[c - 1]: base-q value of c * r_k
            w = place[p]
            mults = [c * w for c in range(1, len(mul))]
            for j in range(p + 1, self.n):
                x = row[j]
                if x:
                    w = place[j]
                    mults = [m + y * w for m, y in zip(mults, mul[x][1:])]
            shift, t = self._shift[p], mults[0]
            out += [(s ^ t) - shift for s in later]
            later += [s ^ t for t in mults for s in later]
        if basis:
            t = sum([x * w for x, w in zip(basis[0], place) if x])
            shift = self._shift[pivots[0]]
            out += [(s ^ t) - shift for s in later]
        return out

    def mask_of(self, U):
        """Point mask of U, built once per subspace and kept in its _mask
        slot.  The ambient is checked first, so a kept mask is only ever
        read by an index of U's own V(n, q)."""
        self._check(U)
        if U._mask is None:
            mask = 0
            for r in self._ranks(U):
                mask |= 1 << r
            U._mask = mask
        return U._mask

    def _unit_mask(self, cols):
        """Point mask of the span of the unit vectors e_j, j in the
        increasing cols, with no Subspace built: its points lead with 1
        at some j in cols and have any codes at the later columns of
        cols, so each rank is read off its base-q value."""
        place, shift = self._place, self._shift
        mask = 0
        later = [0]  # base-q values of the vectors on the columns after j
        for j in reversed(cols):
            for v in later:
                mask |= 1 << v + place[j] - shift[j]
            later = [v + c * place[j] for c in range(self.field.q)
                     for v in later]
        return mask

    def vectors_of_mask(self, mask):
        out = []
        while mask:
            low = mask & -mask
            out.append(self.unrank(low.bit_length() - 1))
            mask ^= low
        return tuple(out)


_POINT_INDEX_CACHE: dict = {}


def point_index(n, field):
    _check_int("n", n, 0)
    key = (n, field.key)
    if key not in _POINT_INDEX_CACHE:
        _POINT_INDEX_CACHE[key] = PointIndex(n, field)
    return _POINT_INDEX_CACHE[key]
