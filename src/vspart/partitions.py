"""Subspace partitions of V(n, q) and their basic numerology.

A subspace partition is a collection of nontrivial subspaces such that every
nonzero vector lies in exactly one member.  The type of a partition records
the occurring dimensions d_1 < d_2 < ... < d_m with their multiplicities.
"""
from __future__ import annotations

from ._record import record
from .errors import (
    BadCut,
    BadRange,
    DimensionMismatch,
)
from .fields import _check_int
from .spaces import point_index


@record
class PartitionType:
    """Occurring dimensions with multiplicities, ascending by dimension."""

    entries: tuple  # ((dim, count), ...), dims strictly increasing

    @staticmethod
    def of(counts):
        """Build from a dim -> count mapping, dropping zero counts."""
        for d, c in counts.items():
            _check_int(f"the count of dimension {d!r}", c, 0)
            if c:
                _check_int("a type dimension", d, 1)
        return PartitionType(
            tuple(sorted((d, c) for d, c in counts.items() if c))
        )

    def dims(self):
        return tuple(d for d, _ in self.entries)

    def count(self, dim):
        for d, c in self.entries:
            if d == dim:
                return c
        return 0

    def size(self):
        return sum(c for _, c in self.entries)

    def packing_sum(self, q):
        return sum(c * (q ** d - 1) for d, c in self.entries)

    def __str__(self):
        inner = ", ".join(f"{d}^{c}" for d, c in self.entries)
        return f"[{inner}]"


def check_packing(ptype, n, q):
    """Whether the type meets the exact counting condition for V(n, q):
    the members' nonzero vectors add up to q**n - 1."""
    _check_int("n", n, 0)
    _check_int("q", q, 2)
    return ptype.packing_sum(q) == q ** n - 1


def check_dimension(ptype, n):
    """Whether any two members can be disjoint in V(n, q): n >= d + d' for
    every pair of occurring dimensions taken by two distinct members."""
    _check_int("n", n, 0)
    dims = ptype.dims()
    for i, d in enumerate(dims):
        if ptype.count(d) >= 2 and n < 2 * d:
            return False
        for dprime in dims[i + 1:]:
            if n < d + dprime:
                return False
    return True


class SubspacePartition:
    """An ordered-insensitive collection of members of V(n, q).

    Members are stored sorted by (dimension, basis) so that two partitions
    with the same member set compare equal.
    """

    __slots__ = ("n", "field", "members", "_type", "_counts")

    def __init__(self, n, field, members):
        for m in members:
            if m.n != n or m.field.q != field.q:
                raise DimensionMismatch(
                    f"member of V({m.n},{m.field.q}) in partition of V({n},{field.q})"
                )
        self.n = n
        self.field = field
        self.members = tuple(sorted(members, key=lambda u: u.sort_key()))
        self._type = None
        # Per-hyperplane member counts by dimension, filled in and read by
        # hstats.
        self._counts = {}

    @property
    def size(self):
        return len(self.members)

    def type(self):
        """The partition's type, built on the first call and kept."""
        if self._type is None:
            counts = {}
            for m in self.members:
                counts[m.dim] = counts.get(m.dim, 0) + 1
            self._type = PartitionType.of(counts)
        return self._type

    def dims(self):
        return self.type().dims()

    def members_of_dim(self, d):
        """The d-members: a slice of the members, which are sorted by
        dimension first."""
        start = 0
        for dim, count in self.type().entries:
            if dim == d:
                return self.members[start:start + count]
            start += count
        return ()

    def __eq__(self, other):
        if not isinstance(other, SubspacePartition):
            return NotImplemented
        return (
            self.n == other.n
            and self.field.q == other.field.q
            and self.members == other.members
        )

    def __hash__(self):
        return hash((self.n, self.field.q, self.members))

    def __repr__(self):
        return f"SubspacePartition(n={self.n}, q={self.field.q}, type={self.type()})"


@record
class ValidationReport:
    ok: bool
    uncovered: tuple
    doubly_covered: tuple  # (point, (member indexes...))
    trivial_members: tuple


def validate(P):
    """Check the partition axioms point by point.

    Every nonzero vector of the ambient must lie in exactly one member, and
    no member may be the zero subspace.
    """
    pi = point_index(P.n, P.field)
    trivial = tuple(i for i, m in enumerate(P.members) if m.dim == 0)
    acc = 0
    dup = 0
    masks = []
    for m in P.members:
        mask = pi.mask_of(m)
        dup |= acc & mask
        acc |= mask
        masks.append(mask)
    uncovered_mask = pi.full_mask & ~acc
    uncovered = pi.vectors_of_mask(uncovered_mask)
    doubly = []
    probe = dup
    while probe:
        bit = probe & -probe
        owners = tuple(i for i, mask in enumerate(masks) if mask & bit)
        doubly.append((pi.unrank(bit.bit_length() - 1), owners))
        probe &= probe - 1
    ok = not uncovered and not doubly and not trivial
    return ValidationReport(ok, uncovered, tuple(doubly), trivial)


# Largest n the closed form accepts.  With q <= 16, sigma_q(n, t) then has
# at most about 1205 digits, inside Python's 4300-digit limit for turning an
# integer into text, and computing it takes no measurable time.
SIGMA_MAX_N = 1000


def min_partition_size(n, t, q):
    """Minimum size of a subspace partition of V(n, q) whose largest member
    has dimension exactly t, in closed form.

    Three regimes: t divides n (a t-spread is optimal); t < n < 2t (one
    t-member plus a complement of size q**t); and n >= 2t with remainder,
    where peeling t-layers leaves a short tail.
    """
    _check_int("n", n, 2, SIGMA_MAX_N)
    _check_int("t", t, 1, n - 1)
    _check_int("q", q, 2)
    k, r = divmod(n, t)
    if r == 0:
        return (q ** n - 1) // (q ** t - 1)
    if n < 2 * t:
        return q ** t + 1
    head = q ** (t + r) * sum(q ** (i * t) for i in range(k - 1))
    tail = q ** ((t + r + 1) // 2)
    return head + tail + 1


@record
class Supertail:
    """Members of dimension strictly below the cut, with the cut bookkeeping."""

    cut: int          # d_s, an occurring dimension
    top_dim: int      # d_{s-1}: largest dimension inside the tail (0 if empty)
    members: tuple

    @property
    def size(self):
        return len(self.members)


def supertail(P, cut, strict=True):
    """Split off the members of dimension < cut.

    In strict mode the cut must be an occurring dimension with something
    below it.  With strict=False any positive cut is accepted and the tail
    may be empty, which the exploratory statistics need.
    """
    _check_int("cut", cut)
    dims = P.dims()
    if strict:
        if cut not in dims:
            raise BadCut(f"cut {cut} is not an occurring dimension {dims}")
        if cut == dims[0]:
            raise BadCut(f"cut {cut} leaves an empty supertail")
    elif cut < 1:
        raise BadCut(f"cut must be positive, got {cut}")
    members = tuple(m for m in P.members if m.dim < cut)
    top = max((m.dim for m in members), default=0)
    return Supertail(cut, top, members)


def drake_freeman_bound(n, d, q):
    """The strict upper bound on the size of a partial d-spread of V(n, q)
    when d does not divide n, as an exact rational.

    Valid sizes satisfy size < bound.  Raises BadRange for arguments
    min_partition_size would refuse, and when d divides n (the bound
    needs 1 <= n mod d < d).
    """
    # Imported here, where it is used: fractions loads decimal, and no
    # command-line run needs either.
    from fractions import Fraction

    _check_int("n", n, 2, SIGMA_MAX_N)
    _check_int("d", d, 1, n - 1)
    _check_int("q", q, 2)
    k, r = divmod(n, d)
    if r == 0:
        raise BadRange(f"{d} divides {n}; the bound needs a nonzero remainder")
    ell = q ** r * sum(q ** (i * d) for i in range(k - 1))
    return Fraction(ell * q ** d) + Fraction(q ** r + q ** (r - 1), 2) + 1


def max_partial_spread_size(n, d, q):
    """Largest integer strictly below drake_freeman_bound(n, d, q)."""
    b = drake_freeman_bound(n, d, q)
    if b.denominator == 1:
        return b.numerator - 1
    return b.numerator // b.denominator
