"""Builders for concrete subspace partitions.

The two primitive builders realize the classical existence results: a
t-spread of V(n, q) through the field tower V(n, q) = V(n/t, q^t), and the
near-spread of type [(n-d)^1, d^(q^(n-d))] through graphs of multiplication
maps.  Everything else is composition: refine replaces one member by an
embedded partition of it, and minimal_partition peels near-spreads until a
short tail remains.  spread, beutelspacher and minimal_partition refuse
with BadRange, before building anything, an n below 1 and a V(n, q) with
more than FILE_POINT_LIMIT points, the limit partition files keep too.
"""
from __future__ import annotations

from ._record import record
from .errors import NotAPartitionOfMember, NotDivisible
from .fields import _check_int, extension_field
from .partitions import (
    PartitionType,
    SubspacePartition,
    min_partition_size,
    validate,
)
from .spaces import FILE_POINT_LIMIT, _check_space, full_space, span


def _digits(code, q, width):
    out = []
    for _ in range(width):
        out.append(code % q)
        code //= q
    return tuple(out)


def spread(n, t, field):
    """The t-spread of V(n, q) induced by scalar multiplication of GF(q^t).

    Viewing V(n, q) as V(n/t, q^t) coordinate block by coordinate block,
    each point of the big-field geometry becomes a t-dimensional member.
    """
    _check_space(n, field.q, FILE_POINT_LIMIT)
    _check_int("t", t, 1)
    if n % t != 0:
        raise NotDivisible(f"{t} does not divide {n}")
    q = field.q
    B = extension_field(field, t)
    m = n // t
    members = []
    basis_codes = [q ** j for j in range(t)]  # the polynomial basis of B
    for w in full_space(m, B).points():
        rows = []
        for beta in basis_codes:
            row = []
            for coord in w:
                row.extend(_digits(B.mul(beta, coord), q, t))
            rows.append(tuple(row))
        members.append(span(rows, n, field))
    return SubspacePartition(n, field, members)


def beutelspacher(n, d, field):
    """A partition of V(n, q) of type [(n-d)^1, d^(q^(n-d))] for d <= n - d.

    Write V(n, q) = E x K with E = GF(q^(n-d)) and K = GF(q^d).  K embeds
    into E coefficientwise, and for each b in E the graph
    {(b * y, y) : y in K} is a d-dimensional member; distinct graphs meet
    only at zero because b - b' is invertible, and together with E x {0}
    they cover everything.  For d = 1 the only y is x^0 = 1, so each
    graph is spanned by (b, 1) and no table of E is built.
    """
    _check_space(n, field.q, FILE_POINT_LIMIT)
    _check_int("d", d, 1, n // 2)
    m = n - d
    q = field.q
    E = extension_field(field, m) if d > 1 else None
    members = []
    big_rows = tuple(
        tuple(1 if j == i else 0 for j in range(n)) for i in range(m)
    )
    members.append(span(big_rows, n, field))
    for b in range(q ** m):
        rows = []
        for j in range(d):
            y = q ** j  # x^j, both as a K code and as its image in E
            left = _digits(E.mul(b, y) if j else b, q, m)
            right = tuple(1 if i == j else 0 for i in range(d))
            rows.append(left + right)
        members.append(span(rows, n, field))
    return SubspacePartition(n, field, members)


def refine(P, index, Q):
    """Replace member ``index`` of P by the image of a partition Q of it.

    Q lives in V(d, q) where d is the member's dimension; its members are
    carried into the ambient through the member's canonical basis.  Raises
    NotAPartitionOfMember when Q is not a valid partition of that space.
    """
    _check_int("index", index, 0, len(P.members) - 1)
    M = P.members[index]
    if Q.n != M.dim or Q.field.q != P.field.q:
        raise NotAPartitionOfMember(
            f"replacement partitions V({Q.n},{Q.field.q}), "
            f"member is V({M.dim},{P.field.q})"
        )
    if not validate(Q).ok:
        raise NotAPartitionOfMember("replacement fails partition validation")
    F = P.field
    members = [m for i, m in enumerate(P.members) if i != index]
    for piece in Q.members:
        rows = []
        for coeffs in piece.basis:
            v = [0] * P.n
            for c, row in zip(coeffs, M.basis):
                if c == 0:
                    continue
                if c == 1:
                    v = [F.add(x, y) for x, y in zip(v, row)]
                else:
                    v = [F.add(x, F.mul(c, y)) for x, y in zip(v, row)]
            rows.append(tuple(v))
        members.append(span(rows, P.n, F))
    return SubspacePartition(P.n, F, members)


def _closing(n2, field):
    """Minimum-size partition of V(n2, q) with all dimensions <= ceil(n2/2)."""
    if n2 % 2 == 0:
        return spread(n2, n2 // 2, field)
    return beutelspacher(n2, n2 // 2, field)


def minimal_partition(n, t, field):
    """A partition of V(n, q) with largest dimension exactly t and size
    equal to min_partition_size(n, t, q).

    When t divides n this is a spread.  When t < n < 2t one near-spread
    suffices.  Otherwise near-spreads peel off q^(n-t) members of
    dimension t at a time until the leftover is shorter than 2t, and the
    leftover closes with a half-dimension construction.
    """
    _check_space(n, field.q, FILE_POINT_LIMIT)
    _check_int("t", t, 1, n - 1)
    if n % t == 0:
        return spread(n, t, field)
    if n < 2 * t:
        return beutelspacher(n, n - t, field)
    P = beutelspacher(n, t, field)
    big_index = max(range(len(P.members)), key=lambda i: P.members[i].dim)
    n2 = n - t
    if n2 >= 2 * t:
        Q = minimal_partition(n2, t, field)
    else:
        Q = _closing(n2, field)
    return refine(P, big_index, Q)


@record
class TailSizeExample:
    """Arithmetic-only record of a huge partition type: its supertail meets
    the lower bound even though the partition misses the global minimum."""

    n: int
    ptype: PartitionType
    cut: int
    tail_size: int
    tail_bound: int
    size: int
    minimum: int
    gap: int


def non_minimal_supertail_example(q):
    """The V(34, q) family [5^(q^7), 7^1, 11^(q^23 + q^12)].

    Its 11-supertail has exactly the minimum size q^7 + 1, yet the
    partition is larger than the minimum for top dimension 11 by
    q^7 - q^6.  The type is returned as numbers only; the space is far too
    large to instantiate.
    """
    _check_int("q", q, 2)
    n = 34
    cut = 11
    ptype = PartitionType.of({5: q ** 7, 7: 1, 11: q ** 23 + q ** 12})
    tail_size = q ** 7 + 1
    tail_bound = min_partition_size(cut, 7, q)
    size = ptype.size()
    minimum = min_partition_size(n, cut, q)
    return TailSizeExample(
        n, ptype, cut, tail_size, tail_bound, size, minimum, size - minimum
    )
