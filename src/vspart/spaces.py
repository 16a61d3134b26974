"""Vectors and subspaces of V(n, q).

Vectors are tuples of field codes.  A subspace is stored by the reduced row
echelon basis of its row space, which is unique, so equality and hashing are
structural.  Point representatives (canonical generators of 1-subspaces) are
the vectors whose first nonzero coordinate is 1, listed in lexicographic
order.
"""
from __future__ import annotations

from itertools import product

from .errors import BadRange, DimensionMismatch


def num_points(dim, q):
    """Number of 1-subspaces of a space of the given dimension over GF(q).

    Equals (q**dim - 1) // (q - 1); zero for dimension 0.
    """
    if dim < 0:
        raise BadRange(f"dimension must be nonnegative, got {dim}")
    return (q ** dim - 1) // (q - 1)


def points_exceed(dim, q, limit):
    """Whether a space of the given dimension over GF(q), q >= 2, has more
    than limit points.  Points are counted up one dimension at a time, so a
    huge dimension costs no more than about log_q(limit) steps."""
    points = 0
    for _ in range(dim):
        points = points * q + 1
        if points > limit:
            return True
    return False


def dot(field, u, v):
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths differ: {len(u)} vs {len(v)}")
    acc = 0
    for a, b in zip(u, v):
        if a and b:
            acc = field.add(acc, field.mul(a, b))
    return acc


def _rref(rows, n, field):
    """Unique reduced row echelon form of the row space, zero rows dropped."""
    mat = [list(r) for r in rows if any(r)]
    rank = 0
    for col in range(n):
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
            ic = field.inv(c)
            mat[rank] = [field.mul(ic, x) for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                row = mat[rank]
                mat[r] = [field.sub(x, field.mul(f, y)) for x, y in zip(mat[r], row)]
        rank += 1
        if rank == len(mat):
            break
    return tuple(tuple(r) for r in mat[:rank])


class Subspace:
    """A subspace of V(n, q), identified by its canonical basis.

    Instances should be built through :func:`span`; the constructor trusts
    that the rows passed in are already in reduced row echelon form.
    """

    __slots__ = ("field", "n", "basis", "_points", "_pivots", "_dual_mask")

    def __init__(self, field, n, basis):
        self.field = field
        self.n = n
        self.basis = basis
        self._points = None
        # Mask of the hyperplanes containing this subspace, filled in and
        # read by hstats.
        self._dual_mask = None
        self._pivots = tuple(
            next(i for i, x in enumerate(row) if x) for row in basis
        )

    @property
    def dim(self):
        return len(self.basis)

    def points(self):
        """Canonical representatives of the 1-subspaces, sorted."""
        if self._points is None:
            F, n, d = self.field, self.n, len(self.basis)
            q = F.q
            reps = []
            # Coefficient vectors whose first nonzero entry is 1 hit every
            # point exactly once because the basis is in echelon form.
            for lead in range(d):
                for rest in product(range(q), repeat=d - 1 - lead):
                    coeffs = (0,) * lead + (1,) + rest
                    v = [0] * n
                    for c, row in zip(coeffs, self.basis):
                        if c == 0:
                            continue
                        if c == 1:
                            v = [F.add(x, y) for x, y in zip(v, row)]
                        else:
                            v = [F.add(x, F.mul(c, y)) for x, y in zip(v, row)]
                    reps.append(tuple(v))
            self._points = tuple(sorted(reps))
        return self._points

    def contains(self, vec):
        if len(vec) != self.n:
            raise DimensionMismatch(
                f"vector of length {len(vec)} in ambient of dimension {self.n}"
            )
        F = self.field
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
    for v in vectors:
        if len(v) != n:
            raise DimensionMismatch(
                f"vector of length {len(v)} in ambient of dimension {n}"
            )
    return Subspace(field, n, _rref(vectors, n, field))


def zero_subspace(n, field):
    return Subspace(field, n, ())


def full_space(n, field):
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
    reduced = _rref(rows, n, field)
    pivots = [next(i for i, x in enumerate(row) if x) for row in reduced]
    pivot_set = set(pivots)
    basis = []
    for f in range(n):
        if f in pivot_set:
            continue
        v = [0] * n
        v[f] = 1
        for row, pc in zip(reduced, pivots):
            v[pc] = field.neg(row[f])
        basis.append(tuple(v))
    return span(basis, n, field)


class PointIndex:
    """Bit-indexed universe of the points of V(n, q).

    Point sets are carried as Python integers with bit i standing for the
    i-th canonical representative; for q = 2 this matches packing vectors
    into machine words, and for other q it is the same trick one index up.
    """

    def __init__(self, n, field):
        self.n = n
        self.field = field
        self.reps = full_space(n, field).points()
        self.index = {v: i for i, v in enumerate(self.reps)}
        self.full_mask = (1 << len(self.reps)) - 1

    def rep_of(self, vec):
        """Canonical representative of the 1-subspace spanned by vec."""
        F = self.field
        lead = next((c for c in vec if c), 0)
        if lead == 0:
            raise BadRange("the zero vector spans no point")
        if lead == 1:
            return tuple(vec)
        ic = F.inv(lead)
        return tuple(F.mul(ic, c) for c in vec)

    def mask_of(self, U):
        m = 0
        idx = self.index
        for v in U.points():
            m |= 1 << idx[v]
        return m

    def vectors_of_mask(self, mask):
        out = []
        i = 0
        while mask:
            if mask & 1:
                out.append(self.reps[i])
            mask >>= 1
            i += 1
        return tuple(out)


_POINT_INDEX_CACHE: dict = {}


def point_index(n, field):
    key = (n, field.key)
    if key not in _POINT_INDEX_CACHE:
        _POINT_INDEX_CACHE[key] = PointIndex(n, field)
    return _POINT_INDEX_CACHE[key]
