"""Supertail structure: bound slack, union classification, gap and
nested-bound consequences."""
import itertools

import pytest

from vspart import analysis
from vspart.analysis import (
    TailClass,
    analyze_supertail,
    check_dimension_gap,
    check_nested_bound,
    check_supertail_bound,
    union_structure,
)
from vspart.constructions import beutelspacher, minimal_partition, refine, spread
from vspart.enumeration import all_subspaces, recognize_subspace
from vspart.errors import (
    BadRange,
    EmptySupertail,
    HypothesisNotMet,
    NotDisjoint,
    StructureViolation,
)
from vspart.fields import make_field
from vspart.partitions import SubspacePartition, supertail
from vspart.search import enumerate_partitions
from vspart.spaces import point_index, span

F2 = make_field(2)


def tailed_v6():
    return refine(spread(6, 3, F2), 0, beutelspacher(3, 1, F2))


def wide_v6():
    return refine(spread(6, 3, F2), 0, spread(3, 1, F2))


def test_check_supertail_bound():
    rep = check_supertail_bound(tailed_v6(), 3)
    assert (rep.size, rep.bound, rep.slack) == (5, 5, 0)
    assert rep.ok and rep.is_minimum
    rep = check_supertail_bound(beutelspacher(4, 1, F2), 3)
    assert (rep.size, rep.bound, rep.slack) == (8, 7, 1)
    assert rep.ok and not rep.is_minimum


def test_union_structure_shapes():
    P = minimal_partition(7, 3, F2)
    tail = [m for m in P.members if m.dim == 2]
    union, cls, detail = union_structure(tail, 7, F2)
    assert cls is TailClass.SPREAD
    assert union.dim == 4
    assert detail["point_count"] == 15
    Q = tailed_v6()
    tail = [m for m in Q.members if m.dim < 3]
    union, cls, detail = union_structure(tail, 6, F2)
    assert cls is TailClass.TWO_DIM
    assert union.dim == 3
    assert detail["dims"] == (1, 2)
    assert detail["counts"] == (4, 1)


def test_union_structure_degenerate_shapes():
    """Seven points of a 3-subspace are a subspace union of neither special
    shape; two skew points union to no subspace at all."""
    H = span([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)], 4, F2)
    singles = [span([v], 4, F2) for v in H.points()]
    union, cls, detail = union_structure(singles, 4, F2)
    assert cls is TailClass.SUBSPACE
    assert union == H
    e1 = span([(1, 0, 0, 0)], 4, F2)
    e2 = span([(0, 1, 0, 0)], 4, F2)
    union, cls, detail = union_structure([e1, e2], 4, F2)
    assert union is None
    assert cls is TailClass.NOT_SUBSPACE
    assert detail["union_dim"] is None


def test_union_structure_spans_only_a_subspace_point_count(monkeypatch):
    """Two disjoint lines of V(4, 2) hold 6 points, which is theta(j) for
    no j, so the union is no subspace and no span is taken."""
    lines = [span([(1, 0, 0, 0), (0, 1, 0, 0)], 4, F2),
             span([(0, 0, 1, 0), (0, 0, 0, 1)], 4, F2)]

    def no_span(*args):
        raise AssertionError("span taken of a union of 6 points")
    monkeypatch.setattr(analysis, "span", no_span)
    union, cls, detail = union_structure(lines, 4, F2)
    assert (union, cls) == (None, TailClass.NOT_SUBSPACE)
    assert (detail["point_count"], detail["union_dim"]) == (6, None)


def test_union_structure_agrees_with_recognize_subspace_on_census():
    """On all 1170 supertails of the V(4,2) census, the union decided from
    the members' bases and point masks is the subspace (or None) that
    recognize_subspace finds from the point set."""
    tails = 0
    for P in enumerate_partitions(4, 2, 3):
        for cut in P.dims()[1:]:
            members = supertail(P, cut).members
            union, _, detail = union_structure(members, 4, F2)
            pts = {v for m in members for v in m.points()}
            assert union == recognize_subspace(pts, 4, F2)
            assert detail["point_count"] == len(pts)
            tails += 1
    assert tails == 1170


def test_union_structure_errors():
    plane = span([(1, 0, 0, 0), (0, 1, 0, 0)], 4, F2)
    line = span([(1, 0, 0, 0)], 4, F2)
    with pytest.raises(NotDisjoint):
        union_structure([plane, line], 4, F2)
    with pytest.raises(EmptySupertail):
        union_structure([], 4, F2)


def test_analyze_spread_tail():
    rep = analyze_supertail(minimal_partition(7, 3, F2), 3)
    assert rep.classification is TailClass.SPREAD
    assert rep.is_minimum and rep.narrow_gap
    assert rep.tail_dims == (2,)
    assert rep.tail_counts == (5,)
    assert rep.union_dim == 4
    assert rep.beta0 == 4
    assert rep.c0 == 2
    assert rep.ok
    assert dict(rep.conditions)["at most two tail dimensions"]


def test_analyze_two_dim_tail():
    rep = analyze_supertail(tailed_v6(), 3)
    assert rep.classification is TailClass.TWO_DIM
    assert rep.is_minimum and rep.narrow_gap
    assert rep.union_dim == 3
    assert rep.beta0 == 4
    assert rep.c0 == 1
    assert rep.ok


def test_analyze_wide_gap_tail():
    """With the cut at least twice the tail top, a minimum tail must union
    to a cut-subspace."""
    rep = analyze_supertail(wide_v6(), 3)
    assert rep.classification is TailClass.CUT_SUBSPACE
    assert rep.is_minimum and not rep.narrow_gap
    assert rep.union_dim == 3
    assert rep.beta0 is None and rep.c0 is None
    assert rep.ok


def test_analyze_non_minimum_tail():
    P = beutelspacher(4, 1, F2)
    rep = analyze_supertail(P, 3, mode="explore")
    assert rep.classification is TailClass.NOT_MINIMUM
    assert not rep.is_minimum
    assert rep.ok
    # assert mode does not raise either: nothing is proven here
    assert analyze_supertail(P, 3).classification is TailClass.NOT_MINIMUM


def scattered_fake_partition():
    """Pairwise disjoint 2-subspaces of V(5, 2) of minimum-tail count whose
    union is not a subspace, below one 4-subspace member.  Not a valid
    partition; the analyzer checks structure, not coverage."""
    pi = point_index(5, F2)
    planes = list(all_subspaces(5, 2, F2))
    for combo in itertools.combinations(planes[:40], 5):
        acc = 0
        for U in combo:
            mask = pi.mask_of(U)
            if acc & mask:
                break
            acc |= mask
        else:
            pts = set()
            for U in combo:
                pts.update(U.points())
            union, cls, _ = union_structure(list(combo), 5, F2)
            if cls in (TailClass.SUBSPACE, TailClass.NOT_SUBSPACE):
                big = span(
                    [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)],
                    5, F2,
                )
                return SubspacePartition(5, F2, list(combo) + [big])
    raise AssertionError("no scattered quintuple found")


def test_analyze_detects_structure_violations():
    """A fake minimum narrow-gap tail that unions to nothing special is a
    violation: explore records it, assert raises."""
    P = scattered_fake_partition()
    rep = analyze_supertail(P, 3, mode="explore")
    assert rep.is_minimum and rep.narrow_gap
    assert not rep.ok
    assert rep.violations
    assert not rep.asserted
    with pytest.raises(StructureViolation):
        analyze_supertail(P, 3)


def test_analyze_unknown_mode():
    with pytest.raises(HypothesisNotMet):
        analyze_supertail(tailed_v6(), 3, mode="guess")


def test_dimension_gap():
    rep = check_dimension_gap(tailed_v6(), 3)
    assert (rep.cut, rep.tail_top, rep.smallest_dim) == (3, 2, 1)
    assert rep.ok
    rep = check_dimension_gap(minimal_partition(7, 3, F2), 3)
    assert (rep.cut, rep.tail_top, rep.smallest_dim) == (3, 2, 2)
    assert rep.ok
    with pytest.raises(HypothesisNotMet):
        check_dimension_gap(wide_v6(), 3)  # wide gap
    with pytest.raises(HypothesisNotMet):
        check_dimension_gap(beutelspacher(4, 1, F2), 3)  # not minimum


def test_nested_bound_both_branches():
    """Type [1^4, 2^1, 3^15, 4^1]: the 4-supertail of size 20 clears both
    the chained bound 14 and the relaxed bound 13."""
    P = beutelspacher(7, 3, F2)
    idx = next(i for i, m in enumerate(P.members) if m.dim == 3)
    P = refine(P, idx, beutelspacher(3, 1, F2))
    assert P.type().entries == ((1, 4), (2, 1), (3, 15), (4, 1))
    rep = check_nested_bound(P, 3)
    assert rep.next_dim == 4
    assert rep.tail_size == 5
    assert rep.nested_size == 20
    assert dict(
        (name, bound) for name, bound, _ in rep.branches
    ) == {"narrow chain": 14, "wide or additive": 13}
    assert rep.ok


def test_nested_bound_equality_case():
    """Type [1^3, 2^4, 4^16]: the 4-supertail meets the relaxed bound with
    equality (7 = 5 + 3 - 1)."""
    inner = refine(spread(4, 2, F2), 0, spread(2, 1, F2))
    P = refine(spread(8, 4, F2), 0, inner)
    assert P.type().entries == ((1, 3), (2, 4), (4, 16))
    rep = check_nested_bound(P, 2)
    assert rep.next_dim == 4
    assert rep.nested_size == 7
    assert rep.branches == (("wide or additive", 7, True),)
    assert rep.ok


@pytest.mark.parametrize("cut", ["x", 2.5, True])
def test_nested_bound_checks_the_cut_first(cut):
    """A cut that is not an int is a BadRange naming cut, not a cut that
    does not occur."""
    with pytest.raises(BadRange, match="cut"):
        check_nested_bound(spread(4, 2, F2), cut)


def test_nested_bound_hypotheses():
    P = beutelspacher(7, 3, F2)
    idx = next(i for i, m in enumerate(P.members) if m.dim == 3)
    P = refine(P, idx, beutelspacher(3, 1, F2))
    with pytest.raises(HypothesisNotMet):
        check_nested_bound(P, 2)  # the 2-supertail [1^4] is not minimum
    with pytest.raises(HypothesisNotMet):
        check_nested_bound(P, 5)  # not an occurring dimension
    with pytest.raises(HypothesisNotMet):
        check_nested_bound(P, 1)  # nothing below the cut
    with pytest.raises(HypothesisNotMet):
        check_nested_bound(minimal_partition(7, 3, F2), 3)  # nothing above
