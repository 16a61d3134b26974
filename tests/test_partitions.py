"""Partition containers, validation, the size formula, and tail bounds."""
from fractions import Fraction

import pytest

from vspart.analysis import check_supertail_bound
from vspart.constructions import beutelspacher, refine, spread
from vspart.errors import BadCut, BadRange, DimensionMismatch
from vspart.fields import make_field
from vspart.partitions import (
    PartitionType,
    SubspacePartition,
    check_dimension,
    check_packing,
    drake_freeman_bound,
    max_partial_spread_size,
    min_partition_size,
    supertail,
    validate,
)
from vspart.spaces import full_space, span, zero_subspace


def test_partition_type_basics():
    t = PartitionType.of({3: 16, 2: 5})
    assert t.dims() == (2, 3)
    assert t.count(2) == 5
    assert t.count(3) == 16
    assert t.count(1) == 0
    assert t.size() == 21
    assert str(t) == "[2^5, 3^16]"
    assert t.packing_sum(2) == 5 * 3 + 16 * 7
    assert PartitionType.of({2: 0, 1: 7}).dims() == (1,)
    with pytest.raises(BadRange):
        PartitionType.of({0: 1})
    with pytest.raises(BadRange):
        PartitionType.of({2: -1})


def test_check_packing():
    assert check_packing(PartitionType.of({2: 5}), 4, 2)
    assert check_packing(PartitionType.of({3: 16, 2: 5}), 7, 2)
    assert not check_packing(PartitionType.of({2: 4}), 4, 2)
    assert check_packing(PartitionType.of({1: 13}), 3, 3)


def test_check_dimension():
    assert check_dimension(PartitionType.of({2: 5}), 4)
    assert not check_dimension(PartitionType.of({3: 2}), 5)
    assert check_dimension(PartitionType.of({3: 1, 2: 1}), 5)
    assert not check_dimension(PartitionType.of({3: 1, 2: 1}), 4)
    # one big member on its own is fine even with n < 2d
    assert check_dimension(PartitionType.of({3: 1, 1: 2}), 4)


def test_min_partition_size_divisible_branch():
    assert min_partition_size(4, 2, 2) == 5
    assert min_partition_size(6, 3, 2) == 9
    assert min_partition_size(6, 2, 2) == 21
    assert min_partition_size(4, 2, 3) == 10
    assert min_partition_size(6, 1, 2) == 63


def test_min_partition_size_short_branch():
    """t < n < 2t: one member of dimension t plus q^t complements."""
    assert min_partition_size(3, 2, 2) == 5
    assert min_partition_size(5, 3, 2) == 9
    assert min_partition_size(5, 4, 2) == 17
    assert min_partition_size(3, 2, 3) == 10
    assert min_partition_size(7, 4, 3) == 82


def test_min_partition_size_long_branch():
    assert min_partition_size(5, 2, 2) == 13
    assert min_partition_size(7, 3, 2) == 21
    assert min_partition_size(10, 3, 2) == 149
    assert min_partition_size(34, 11, 2) == 8392769
    # V(7, 3): peel 3^5 then 3^3 planes, close V(3, 3) with 10 members
    assert min_partition_size(7, 2, 3) == 3 ** 5 + 3 ** 3 + 10 == 280


def test_min_partition_size_rejects_bad_ranges():
    with pytest.raises(BadRange):
        min_partition_size(4, 0, 2)
    with pytest.raises(BadRange):
        min_partition_size(4, 4, 2)
    with pytest.raises(BadRange):
        min_partition_size(4, 5, 2)
    with pytest.raises(BadRange):
        min_partition_size(4, 2, 1)
    # Not ints, though they compare like ones: these gave 6.0 and 31.
    with pytest.raises(BadRange):
        min_partition_size(5, 2.5, 2)
    with pytest.raises(BadRange):
        min_partition_size(5, True, 2)


def test_validate_spread():
    F = make_field(2)
    P = spread(4, 2, F)
    rep = validate(P)
    assert rep.ok
    assert rep.uncovered == ()
    assert rep.doubly_covered == ()
    assert rep.trivial_members == ()


def test_validate_reports_gaps_and_overlaps():
    F = make_field(2)
    e1 = span([(1, 0, 0)], 3, F)
    e2 = span([(0, 1, 0)], 3, F)
    plane = span([(1, 0, 0), (0, 1, 0)], 3, F)
    # gap: two points cover 2 of the 7 points
    gappy = SubspacePartition(3, F, [e1, e2])
    rep = validate(gappy)
    assert not rep.ok
    assert len(rep.uncovered) == 5
    assert rep.doubly_covered == ()
    # overlap: the plane contains both points
    lappy = SubspacePartition(3, F, [plane, e1])
    rep = validate(lappy)
    assert not rep.ok
    assert len(rep.doubly_covered) == 1
    point, owners = rep.doubly_covered[0]
    assert point == (1, 0, 0)
    assert len(owners) == 2
    # zero subspace members are flagged
    trivial = SubspacePartition(3, F, [full_space(3, F), zero_subspace(3, F)])
    rep = validate(trivial)
    assert not rep.ok
    assert rep.trivial_members != ()


def test_partition_members_of_wrong_space_rejected():
    F = make_field(2)
    with pytest.raises(DimensionMismatch):
        SubspacePartition(3, F, [span([(1, 0, 0, 0)], 4, F)])
    with pytest.raises(DimensionMismatch):
        SubspacePartition(3, make_field(3), [span([(1, 0, 0)], 3, F)])


def test_partition_equality_ignores_member_order():
    F = make_field(2)
    e1 = span([(1, 0, 0)], 3, F)
    e2 = span([(0, 1, 0)], 3, F)
    a = SubspacePartition(3, F, [e1, e2])
    b = SubspacePartition(3, F, [e2, e1])
    assert a == b
    assert hash(a) == hash(b)


def test_supertail_split():
    F = make_field(2)
    P = spread(6, 3, F)
    with pytest.raises(BadCut):
        supertail(P, 3)  # occurring, but nothing below it
    with pytest.raises(BadCut):
        supertail(P, 4)  # not an occurring dimension
    st = supertail(P, 4, strict=False)
    assert st.members == P.members
    assert st.top_dim == 3
    empty = supertail(P, 2, strict=False)
    assert empty.members == ()
    assert empty.top_dim == 0
    assert empty.size == 0
    with pytest.raises(BadCut):
        supertail(P, 0, strict=False)


def test_supertail_size_bound():
    """The tail below the cut is at least a minimum partition of the
    cut-dimensional space with the tail's top dimension."""
    F = make_field(2)
    P = beutelspacher(6, 3, F)
    assert P.dims() == (3,)
    Q = beutelspacher(3, 1, F)
    R = refine(P, 0, Q)
    assert R.dims() == (1, 2, 3)
    rep = check_supertail_bound(R, 3)
    assert rep.bound == min_partition_size(3, 2, 2) == 5
    with pytest.raises(BadCut):
        check_supertail_bound(spread(4, 2, F), 2)


def test_drake_freeman_bound():
    assert drake_freeman_bound(7, 3, 2) == Fraction(37, 2)
    assert max_partial_spread_size(7, 3, 2) == 18
    assert drake_freeman_bound(5, 2, 2) == Fraction(21, 2)
    assert max_partial_spread_size(5, 2, 2) == 10
    assert drake_freeman_bound(5, 2, 3) == Fraction(30, 1)
    assert max_partial_spread_size(5, 2, 3) == 29
    with pytest.raises(BadRange):
        drake_freeman_bound(6, 3, 2)  # divides: no remainder to exploit
    with pytest.raises(BadRange):
        drake_freeman_bound(3, 3, 2)


def test_partial_spread_bound_admits_known_constructions():
    """The near-spread of V(7, 2) realizes 16 disjoint 3-subspaces, below
    the strict cap of 18."""
    F = make_field(2)
    P = beutelspacher(7, 3, F)
    assert P.type().count(3) == 16
    assert P.type().count(3) <= max_partial_spread_size(7, 3, 2)
