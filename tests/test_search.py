"""Exhaustive enumeration, minimum-size search, and the sweep oracles."""
import json
import random
import time
from functools import cache
from itertools import islice, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vspart.search as search
from vspart.analysis import SupertailReport, TailClass, analyze_supertail
import vspart.candidates as candidates
from vspart.candidates import _Candidates
from vspart.constructions import minimal_partition, refine, spread
from vspart.enumeration import all_hyperplanes, all_subspaces
from vspart.errors import (
    BadRange,
    BudgetExceeded,
    DimensionMismatch,
    FileFormatError,
    HypothesisNotMet,
    UnsupportedField,
)
from vspart.fields import make_field
from vspart.hstats import hyperplane_masks
from vspart.partitions import (
    PartitionType,
    SubspacePartition,
    min_partition_size,
    validate,
)
from vspart.search import (
    check_no_minimum_supertail,
    conjecture_search,
    enumerate_partitions,
    load_checkpoint,
    save_checkpoint,
    search_min_partition_size,
)
from vspart.spaces import Subspace, full_space, point_index, span

F2 = make_field(2)


def _unlimited():
    """A search call with a budget that no test reaches."""
    return search._Call(10**18, None)


def test_enumerate_small_spaces():
    assert len(list(enumerate_partitions(2, 2, 1))) == 1
    assert len(list(enumerate_partitions(2, 2, 2))) == 2
    assert len(list(enumerate_partitions(3, 2, 2))) == 8
    assert len(list(enumerate_partitions(3, 2, 3))) == 9


def test_enumerate_v42_census():
    """All 1227 partitions of V(4, 2) with dimensions up to 3, by type."""
    from collections import Counter

    tally = Counter()
    for P in enumerate_partitions(4, 2, 3):
        tally[str(P.type())] += 1
    assert tally == {
        "[1^15]": 1,
        "[1^12, 2^1]": 35,
        "[1^9, 2^2]": 280,
        "[1^6, 2^3]": 560,
        "[1^3, 2^4]": 280,
        "[2^5]": 56,
        "[1^8, 3^1]": 15,
    }
    assert sum(tally.values()) == 1227


def test_enumerate_emits_each_partition_once():
    got = list(enumerate_partitions(3, 2, 2))
    assert len(set(got)) == len(got)
    for P in got:
        assert validate(P).ok
    again = list(enumerate_partitions(3, 2, 2))
    assert got == again


def test_enumerate_spreads_golden_count():
    """56 labeled 2-spreads of V(4, 2), all valid and distinct."""
    spreads = list(enumerate_partitions(4, 2, 2, type_filter={2: 5}))
    assert len(spreads) == 56
    assert len(set(spreads)) == 56
    for P in spreads:
        assert P.type().entries == ((2, 5),)
        assert validate(P).ok


def test_enumerate_type_filter_infeasible():
    assert list(enumerate_partitions(3, 2, 2, type_filter={2: 2})) == []
    assert list(enumerate_partitions(3, 2, 1, type_filter={2: 1})) == []


def test_enumerate_size_and_count_limits():
    sized = list(enumerate_partitions(3, 2, 2, size_limit=5))
    assert len(sized) == 7
    assert all(P.size <= 5 for P in sized)
    first3 = list(enumerate_partitions(3, 2, 2, count_limit=3))
    assert first3 == list(enumerate_partitions(3, 2, 2))[:3]


@pytest.mark.parametrize("count_limit", [0, -3])
def test_enumerate_count_limit_below_one(count_limit):
    stats = {}
    stream = enumerate_partitions(
        3, 2, 2, count_limit=count_limit, stats=stats
    )
    with pytest.raises(BadRange):
        next(stream)
    assert stats == {}


@pytest.mark.parametrize("type_filter", [{}, PartitionType.of({})])
def test_enumerate_empty_type_filter(type_filter):
    with pytest.raises(BadRange):
        list(enumerate_partitions(3, 2, 2, type_filter=type_filter))


@pytest.mark.parametrize(
    "type_filter",
    [{2: "a"}, [1, 2], 5, "ab", {2: float("inf")}, {2: 4.5}, {None: 1}],
)
def test_enumerate_malformed_type_filter(type_filter):
    with pytest.raises(BadRange):
        list(enumerate_partitions(3, 2, 2, type_filter=type_filter))


@pytest.mark.parametrize("call", [
    lambda: list(enumerate_partitions(4, 2, 2, budget="10")),
    lambda: list(enumerate_partitions(4, 2, 2, size_limit="3")),
    lambda: list(enumerate_partitions(4, 2, 2, count_limit="3")),
    lambda: list(enumerate_partitions(4, 2, 2, budget=True)),
    lambda: list(enumerate_partitions(4, 2, 2, size_limit=3.0)),
    lambda: search_min_partition_size(4, 2, 2, budget="10"),
    lambda: check_no_minimum_supertail(5, 3, 2, budget=10.0),
    lambda: conjecture_search(3, 2, budget="10"),
    lambda: list(enumerate_partitions(4, 2, 3, budget=-1)),
    lambda: search_min_partition_size(5, 2, 2, budget=-5),
    lambda: check_no_minimum_supertail(5, 3, 2, budget=-1),
    lambda: conjecture_search(3, 2, budget=-1),
    lambda: conjecture_search(3, 2, cut_range=(0,)),
    lambda: conjecture_search(3, 2, cut_range=(5,)),
    lambda: conjecture_search(3, 2, cut_range=(1, 2)),
    lambda: conjecture_search(3, 2, cut_range=(2, 3)),
    lambda: conjecture_search(3, 2, cut_range=(2.0,)),
    lambda: conjecture_search(5, 2, cut_range=(5,)),
    lambda: conjecture_search(5, 2, cut_range=(4,), max_dim=3),
    lambda: list(enumerate_partitions(3, 2, 2.5)),
    lambda: list(enumerate_partitions(3.0, 2, 2)),
    lambda: list(enumerate_partitions(3, 2.0, 2)),
    lambda: list(enumerate_partitions(3, 2, True)),
    lambda: search_min_partition_size(3, 1.5, 2),
    lambda: search_min_partition_size(3, True, 2),
    lambda: search_min_partition_size("3", 1, 2),
    lambda: check_no_minimum_supertail(4, 2.5, 2),
    lambda: check_no_minimum_supertail(5.0, 3, 2),
    lambda: conjecture_search(3, 2, max_dim=2.5),
    lambda: conjecture_search(3.0, 2),
    lambda: conjecture_search(3, "2"),
    lambda: make_field(2.0),
    lambda: make_field("4"),
    lambda: make_field(True),
], ids=[
    "enumerate-budget", "enumerate-size", "enumerate-count",
    "enumerate-bool-budget", "enumerate-float-size", "minimum-budget",
    "impossibility-float-budget", "conjecture-budget",
    "enumerate-negative-budget", "minimum-negative-budget",
    "impossibility-negative-budget", "conjecture-negative-budget",
    "conjecture-cut-0", "conjecture-cut-5", "conjecture-cut-1",
    "conjecture-cut-n", "conjecture-float-cut", "conjecture-v52-cut-5",
    "conjecture-cut-above-max-dim",
    "enumerate-float-max-dim", "enumerate-float-n", "enumerate-float-q",
    "enumerate-bool-max-dim", "minimum-float-t", "minimum-bool-t",
    "minimum-str-n", "impossibility-float-cut", "impossibility-float-n",
    "conjecture-float-max-dim", "conjecture-float-n", "conjecture-str-q",
    "field-float", "field-str", "field-bool",
])
def test_numeric_arguments_checked_before_any_table(monkeypatch, call):
    """A limit of the wrong type, a negative budget, a conjecture cut
    that can never be a case (outside [2, min(max_dim, n - 1)]), or an
    n, t, max_dim, cut or q that is not an int (a bool is not one), is
    refused before any candidate table is built."""

    def no_tables(*args, **kwargs):
        raise AssertionError("candidate tables built")

    monkeypatch.setattr(_Candidates, "__init__", no_tables)
    with pytest.raises(BadRange):
        call()


def test_numeric_arguments_of_the_right_type_still_work():
    assert len(list(enumerate_partitions(
        3, 2, 2, budget=10**6, size_limit=10**100, count_limit=10**9,
    ))) == 8
    assert search_min_partition_size(3, 2, 2, budget=10**6).size == 5


@pytest.mark.parametrize("call", [
    lambda: enumerate_partitions(4, 2, 2, time_limit=60),
    lambda: search_min_partition_size(4, 2, 2, time_limit=60),
    lambda: check_no_minimum_supertail(5, 3, 2, time_limit=60),
    lambda: conjecture_search(3, 2, time_limit=60),
], ids=["enumerate", "minimum", "impossibility", "conjecture"])
def test_no_search_takes_a_time_limit(monkeypatch, call):
    """The budget of units is the one bound of a search call: a time
    limit is an unknown keyword, refused before any candidate table is
    built."""

    def no_tables(*args, **kwargs):
        raise AssertionError("candidate tables built")

    monkeypatch.setattr(_Candidates, "__init__", no_tables)
    with pytest.raises(TypeError, match="time_limit"):
        call()


def test_enumerate_seed_from_another_ambient():
    plane = span([(1, 0, 0, 0), (0, 1, 0, 0)], 4, F2)
    with pytest.raises(DimensionMismatch):
        list(enumerate_partitions(3, 2, 2, seed=[plane]))
    line = span([(0, 1, 0), (0, 0, 1)], 3, F2)
    with pytest.raises(DimensionMismatch):
        list(enumerate_partitions(3, 3, 2, seed=[line]))


LINE4 = span([(0, 0, 1, 0), (0, 0, 0, 1)], 4, F2)
LINE3 = span([(0, 1, 0), (0, 0, 1)], 3, make_field(3))
POINT4 = span([(0, 0, 0, 1)], 4, F2)


@pytest.mark.parametrize(
    "n, q, max_dim, type_filter, seed",
    [
        (4, 2, 2, None, None),
        (4, 2, 3, None, None),
        (3, 3, 2, None, None),
        (4, 2, 2, {1: 6, 2: 3}, None),
        (4, 2, 3, {1: 8, 3: 1}, None),
        (3, 3, 2, {1: 9, 2: 1}, None),
        (4, 2, 2, None, [LINE4]),
        (4, 2, 3, None, [LINE4]),
        (3, 3, 2, None, [LINE3]),
        (4, 2, 3, {1: 3, 2: 3}, [LINE4]),
        (3, 3, 2, {1: 9}, [LINE3]),
        (4, 2, 3, {1: 7, 3: 1}, [POINT4]),
    ],
)
def test_size_limit_prune_is_sound(n, q, max_dim, type_filter, seed):
    """A size-limited stream is the unbounded stream filtered on size, in
    the same order, at every limit: the prune never cuts a partition."""
    everything = list(enumerate_partitions(
        n, q, max_dim, type_filter=type_filter, seed=seed
    ))
    sizes = [P.size for P in everything]
    assert sizes
    for limit in range(min(sizes) - 1, max(sizes) + 1):
        bounded = list(enumerate_partitions(
            n, q, max_dim, type_filter=type_filter, seed=seed,
            size_limit=limit,
        ))
        assert bounded == [P for P in everything if P.size <= limit], limit


def _least_members_by_count_vectors(n, q, dims):
    """The least number of members of dims that hold u points, best[u],
    over every vector of member counts, one count per dimension."""
    total = (q**n - 1) // (q - 1)
    thetas = [(q**d - 1) // (q - 1) for d in dims]
    best = [total + 1] * (total + 1)
    for counts in product(*(range(total // w + 1) for w in thetas)):
        u = sum(c * w for c, w in zip(counts, thetas))
        if u <= total:
            best[u] = min(best[u], sum(counts))
    return best


AMBIENTS = [(4, 2), (3, 3), (5, 2)]
DIM_SETS = [(1, 2), (1, 2, 3), (1, 3), (2, 3)]


@pytest.mark.parametrize("n, q", AMBIENTS)
@pytest.mark.parametrize("dims", DIM_SETS)
def test_count_vector_table_matches_brute_force(n, q, dims):
    """The size prune is exact: the table for u points and spare members
    lists no count vector exactly when the fewest members of dims that
    hold u points, by brute force, are more than spare."""
    tables = _Candidates(point_index(n, make_field(q)), dims)
    minima = _least_members_by_count_vectors(n, q, dims)
    for u, least in enumerate(minima):
        for spare in range(-1, u + 2):
            vectors = tables._table(u, spare, _unlimited())[0]
            assert (not vectors) == (least > spare), (u, spare)


@pytest.mark.parametrize("n, q", AMBIENTS)
@pytest.mark.parametrize("dims", DIM_SETS)
def test_count_vector_table_never_below_the_ceiling_bound(n, q, dims):
    """The ceiling bound the table refines: u points in members of at
    most theta(D) points each, D the top dimension, take ceil(u /
    theta(D)) of them, so with fewer spare members the table lists no
    count vector."""
    top = (q**max(dims) - 1) // (q - 1)
    tables = _Candidates(point_index(n, make_field(q)), dims)
    for u in range(tables.pi.size + 1):
        assert not tables._table(u, -(-u // top) - 1, _unlimited())[0], u
    if (n, q, dims) == (4, 2, (2, 3)):
        # 7a + 3b = 15 only for a = 0: five lines, where the ceiling
        # bound says three members.
        assert not tables._table(15, 4, _unlimited())[0]
        assert tables._table(15, 5, _unlimited())[0] == [(5, 0)]


@pytest.mark.parametrize("q", [2, 3, 4])
def test_count_vectors_are_listed_in_product_order(q):
    """The listing skips only counts that cannot finish within spare
    members, so it equals the filtered product of every count range,
    last entry slowest, for dimension sets with and without points."""
    for dims in [(1, 2), (1, 2, 3), (2, 3), (3,)]:
        thetas = [(q**d - 1) // (q - 1) for d in dims]
        for u in range(2 * thetas[-1] + 2):
            every = [tuple(reversed(a)) for a in product(
                *(range(u // w + 1) for w in reversed(thetas)))
                if sum(x * w for x, w in zip(a, reversed(thetas))) == u]
            for spare in range(-1, u + 2):
                assert list(candidates._count_vectors(thetas, u, spare)) == [
                    a for a in every if sum(a) <= spare], (dims, u, spare)


def test_impossibility_lists_no_dead_count_vectors():
    """At its first node the (12,7,2) sweep asks for count vectors of
    3,967 points in at most 126 members of at most 31 points each, which
    hold at most 3,906.  None exists, and the listing rules the counts
    out level by level instead of walking every combination of them, so
    the sweep ends at once."""
    started = time.monotonic()
    rep = check_no_minimum_supertail(12, 7, 2)
    assert rep.confirmed and rep.sweep_partitions == 0
    assert time.monotonic() - started < 2


@cache
def _hyperplane_point_sets(n, q):
    F = make_field(q)
    pi = point_index(n, F)
    return [
        {p for p in range(pi.size) if H.contains(pi.unrank(p))}
        for H in all_hyperplanes(n, F)
    ]


def _hyperplanes_fit_by_brute_force(n, q, dims, rest, spare):
    """Whether some vector of member counts a, at most spare members in
    all, meets every hyperplane in exactly its share of rest, trying every
    count vector and every tuple of numbers x_d of d-members inside the
    hyperplane (each meets it in theta(d) points when inside, theta(d-1)
    when not); and whether, summed over the hyperplanes, the least and
    greatest x_d of those tuples allow a_d theta(n-d), the number of
    hyperplanes that a_d d-subspaces lie in."""
    theta = lambda d: (q**d - 1) // (q - 1)
    points = {p for p in range(theta(n)) if rest >> p & 1}
    heights = [len(points & H) for H in _hyperplane_point_sets(n, q)]
    u = len(points)
    for counts in product(*(range(u // theta(d) + 1) for d in dims)):
        if sum(counts) > spare or u != sum(
            c * theta(d) for c, d in zip(counts, dims)
        ):
            continue
        solutions = {}
        for xs in product(*(range(c + 1) for c in counts)):
            h = sum(x * theta(d) + (c - x) * theta(d - 1)
                    for x, c, d in zip(xs, counts, dims))
            solutions.setdefault(h, []).append(xs)
        if not all(h in solutions for h in heights):
            continue
        if all(
            sum(min(xs[i] for xs in solutions[h]) for h in heights)
            <= c * theta(n - d)
            <= sum(max(xs[i] for xs in solutions[h]) for h in heights)
            for i, (c, d) in enumerate(zip(counts, dims))
        ):
            return True
    return False


@pytest.mark.parametrize("n, q, max_dim", [(4, 2, 3), (3, 3, 2)])
def test_hyperplane_check_accepts_every_union_of_members(n, q, max_dim):
    """Any set S of members of a partition covers its union with |S|
    members, so the check must let that state through."""
    tables = _Candidates(point_index(n, make_field(q)),
                         range(1, max_dim + 1))
    states = set()
    for P in enumerate_partitions(n, q, max_dim):
        unions = [(0, 0)]
        for member in P.members:
            mask = tables.pi.mask_of(member)
            unions += [(rest | mask, k + 1) for rest, k in unions]
        states.update(unions)
    for rest, spare in states:
        assert tables.hyperplanes_fit(rest, spare, _unlimited()), (rest, spare)


def test_hyperplane_check_refutes_ten_lines_and_a_point():
    """V(5,2) with L0, K and one point placed leaves 24 points, which 9
    members can only cover as 8 lines; every hyperplane would then hold
    an even number of them, but those missing the point hold 13."""
    tables, _, covered = search._pinned(5, F2, (2, 1), 2)
    p1 = search._least_point(tables.pi.full_mask & ~covered)
    covered |= tables.cands[tables.per_point[p1][0]][0]
    covered |= 1 << search._least_point(tables.pi.full_mask & ~covered)
    rest = tables.pi.full_mask & ~covered
    assert not tables.hyperplanes_fit(rest, 12 - 3, _unlimited())
    assert not _hyperplanes_fit_by_brute_force(5, 2, (1, 2), rest, 9)
    assert tables.hyperplanes_fit(rest, 10, _unlimited())


def test_hyperplane_totals_refute_a_plane_as_two_lines_and_a_point():
    """A plane of V(4,2) is a hyperplane, and at most three members can
    hold its 7 points only as two lines and a point.  Each hyperplane on
    its own allows that: itself holds all three, and each of the other
    14 meets the plane in a line, so it must hold the point and neither
    line.  But then the point lies in 15 hyperplanes, where a point lies
    in theta(3) = 7."""
    F = F2
    tables = _Candidates(point_index(4, F), (1, 2))
    rest = tables.pi.mask_of(next(all_subspaces(4, 3, F)))
    assert not tables.hyperplanes_fit(rest, 3, _unlimited())
    assert not _hyperplanes_fit_by_brute_force(4, 2, (1, 2), rest, 3)
    heights = {(rest & H).bit_count()
               for H in tables.hyperplanes(_unlimited())}
    fits = tables._table(7, 3, _unlimited())[1]
    assert all(fits[h] for h in heights) and heights == {3, 7}


def test_hyperplanes_are_charged_once_when_built():
    """The 15 hyperplanes of V(4,2) are charged as a walk of 15 masks,
    3,150 units, when first listed; the kept list is handed back
    without a further charge."""
    tables = _Candidates(point_index(4, F2), (1, 2))
    call = search._Call(10**6, None)
    hyperplanes = tables.hyperplanes(call)
    assert call.units == 3150
    assert tables.hyperplanes(call) is hyperplanes
    assert call.units == 3150
    assert sorted(hyperplanes) == sorted(
        mask for _, mask in hyperplane_masks(4, F2))


def test_hyperplanes_beyond_the_budget_are_never_built(monkeypatch):
    """A budget below the 3,150 units of the hyperplane list refuses it
    before a mask is built, and a later call with room builds it."""
    tables = _Candidates(point_index(4, F2), (1, 2))
    with monkeypatch.context() as patch:
        _refuse_walks(patch)
        with pytest.raises(BudgetExceeded):
            tables.hyperplanes(search._Call(3149, None))
    assert len(tables.hyperplanes(search._Call(3150, None))) == 15


@cache
def _spanned_candidates(n, q, dims):
    """The reference candidate list, (point mask, d) of every d-subspace,
    d in dims in the order given and all_subspaces order within one,
    each mask from PointIndex.mask_of, and the ids through each point in
    list order: no code shared with enumeration.shape_masks."""
    F = make_field(q)
    pi = point_index(n, F)
    cands = [(pi.mask_of(U), d) for d in dims for U in all_subspaces(n, d, F)]
    per_point = [[cid for cid, (mask, _) in enumerate(cands) if mask >> p & 1]
                 for p in range(pi.size)]
    return cands, per_point


@settings(max_examples=200, deadline=None)
@given(
    case=st.sampled_from([
        (4, 2, (1, 2, 3)), (4, 2, (2, 3)), (4, 2, (2,)),
        (3, 3, (1, 2)), (3, 3, (2,)),
    ]),
    data=st.data(),
)
def test_hyperplane_check_matches_brute_force(case, data):
    """On any point set, and on unions of disjoint subspaces, where the
    totals decide most often."""
    n, q, dims = case
    size = (q**n - 1) // (q - 1)
    rest = data.draw(st.integers(0, (1 << size) - 1), label="rest")
    if data.draw(st.booleans(), label="union"):
        cands, _ = _spanned_candidates(n, q, dims)
        picks = data.draw(st.lists(st.integers(0, len(cands) - 1)),
                          label="members")
        rest = 0
        for i in picks:
            if not cands[i][0] & rest:
                rest |= cands[i][0]
    spare = data.draw(st.integers(0, size), label="spare")
    tables = _Candidates(point_index(n, make_field(q)), dims)
    fit = tables.hyperplanes_fit(rest, spare, _unlimited())
    assert bool(fit) == _hyperplanes_fit_by_brute_force(n, q, dims, rest,
                                                         spare)
    # None, the size prune, exactly when no count vector holds rest.
    least = _least_members_by_count_vectors(n, q, dims)[rest.bit_count()]
    assert (fit is None) == (least > spare)


def test_enumerate_seeded():
    """Fixing one member: exactly 56 * 5 / 35 = 8 spreads contain any
    given 2-subspace."""
    U = span([(0, 0, 1, 0), (0, 0, 0, 1)], 4, F2)
    got = list(enumerate_partitions(4, 2, 2, type_filter={2: 4}, seed=[U]))
    assert len(got) == 8
    for P in got:
        assert U in P.members
        assert P.type().entries == ((2, 5),)
        assert validate(P).ok
    # cross-check against the unseeded stream
    everything = list(enumerate_partitions(4, 2, 2, type_filter={2: 5}))
    containing = [P for P in everything if U in P.members]
    key = lambda P: [m.basis for m in P.members]
    assert sorted(containing, key=key) == sorted(got, key=key)


def test_enumerate_seed_edge_cases():
    U = span([(1, 0, 0)], 3, F2)
    with pytest.raises(BadRange):
        list(enumerate_partitions(3, 2, 2, seed=[U, U]))
    with pytest.raises(BadRange):
        list(enumerate_partitions(3, 2, 2, seed=[1]))
    with pytest.raises(BadRange):
        list(enumerate_partitions(3, 2, 2, seed=5))
    with pytest.raises(DimensionMismatch):
        list(enumerate_partitions(3, 2, 2, seed=[span([(1, 0)], 2, F2)]))
    whole = [full_space(2, F2)]
    got = list(enumerate_partitions(2, 2, 1, seed=whole))
    assert len(got) == 1
    assert got[0].members == tuple(whole)
    assert len(list(enumerate_partitions(2, 2, 1, seed=whole,
                                         size_limit=1))) == 1
    # A seed that covers the space obeys a filter and a size limit as
    # one that leaves points does: a plane of V(3,2) leaves 4 points.
    plane = [span([(0, 1, 0), (0, 0, 1)], 3, F2)]
    for n, seed, limit in ((2, whole, 0), (3, plane, 1)):
        assert list(enumerate_partitions(n, 2, 1, seed=seed,
                                         type_filter={1: 3})) == []
        assert list(enumerate_partitions(n, 2, 1, seed=seed,
                                         size_limit=limit)) == []


def test_enumerate_rejects_bad_ranges():
    with pytest.raises(BadRange):
        list(enumerate_partitions(3, 2, 0))
    with pytest.raises(BadRange):
        list(enumerate_partitions(3, 2, 4))
    with pytest.raises(BadRange, match="more than 14 points"):
        list(enumerate_partitions(4, 2, 2, budget=14))  # 15 points


def test_enumerate_budget_resume_stream():
    """A budget of units splits the spread enumeration, and a
    size-limited one, into several sessions; stitching the sessions
    reproduces the one-shot stream.  Each session pays again for its
    point index and table walk, 3,165 units for the spreads and 3,615
    for the size limit, which also lists its hyperplanes (3,150)."""
    for options, budget in (({"type_filter": {2: 5}}, 3800),
                            ({"size_limit": 8}, 20000)):
        one_shot = list(enumerate_partitions(4, 2, 2, **options))
        collected = []
        resume = None
        sessions = 0
        while True:
            stream = enumerate_partitions(
                4, 2, 2, budget=budget, resume=resume, **options
            )
            try:
                for P in stream:
                    collected.append(P)
            except BudgetExceeded as exc:
                resume = exc.checkpoint
                sessions += 1
                assert resume["kind"] == "partition-enumeration"
                continue
            break
        assert sessions >= 2
        assert collected == one_shot


def test_checkpoint_file_round_trip(tmp_path):
    path = tmp_path / "search.ckpt"
    try:
        for _ in enumerate_partitions(4, 2, 2, type_filter={2: 5}, budget=40):
            pass
    except BudgetExceeded as exc:
        save_checkpoint(path, exc.checkpoint)
        loaded = load_checkpoint(path)
        assert loaded == json.loads(json.dumps(exc.checkpoint))
    else:
        raise AssertionError("budget of 40 should not finish the search")
    # resuming with mismatched options is refused
    with pytest.raises(FileFormatError):
        list(enumerate_partitions(4, 2, 2, budget=40, resume=loaded))
    with pytest.raises(FileFormatError):
        list(
            enumerate_partitions(
                4, 2, 2, type_filter={2: 4}, budget=40, resume=loaded
            )
        )
    bad_kind = dict(loaded, kind="something-else")
    with pytest.raises(FileFormatError):
        list(
            enumerate_partitions(
                4, 2, 2, type_filter={2: 5}, budget=40, resume=bad_kind
            )
        )


def test_a_failed_checkpoint_write_keeps_the_last_one(tmp_path,
                                                      monkeypatch):
    """A checkpoint is written beside its path and renamed onto it, so a
    write that fails part way, as on a full disk, leaves the checkpoint
    that the session resumed from whole, and it still resumes."""
    path = tmp_path / "search.ckpt"
    with pytest.raises(BudgetExceeded) as info:
        list(enumerate_partitions(4, 2, 2, budget=5000))
    first = info.value.checkpoint
    save_checkpoint(path, first)
    with pytest.raises(BudgetExceeded) as info:
        list(enumerate_partitions(4, 2, 2, budget=5000, resume=first))
    assert info.value.checkpoint != first

    def torn(obj, fh, **kwargs):
        fh.write('{"version": 1, "kind": ')
        raise OSError(28, "No space left on device")

    with monkeypatch.context() as patch:
        patch.setattr(json, "dump", torn)
        with pytest.raises(OSError):
            save_checkpoint(path, info.value.checkpoint)
    loaded = load_checkpoint(path)
    assert loaded == json.loads(json.dumps(first))
    resumed = list(enumerate_partitions(4, 2, 2, resume=loaded))
    whole = list(enumerate_partitions(4, 2, 2))
    assert resumed == whole[first["state"]["emitted"]:]


def test_a_saved_checkpoint_replaces_the_last_one(tmp_path):
    """A later checkpoint saved to the same path replaces the earlier
    one, and the file it was written to first is not left behind."""
    path = tmp_path / "search.ckpt"
    checkpoints = []
    for budget in (5000, 20000):
        with pytest.raises(BudgetExceeded) as info:
            list(enumerate_partitions(4, 2, 2, budget=budget))
        checkpoints.append(info.value.checkpoint)
        save_checkpoint(path, info.value.checkpoint)
    assert checkpoints[0] != checkpoints[1]
    assert load_checkpoint(path) == json.loads(json.dumps(checkpoints[1]))
    assert [p.name for p in tmp_path.iterdir()] == ["search.ckpt"]


def test_checkpoint_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("not json at all {", encoding="utf-8")
    with pytest.raises(FileFormatError):
        load_checkpoint(path)
    path.write_text('{"version": 99}', encoding="utf-8")
    with pytest.raises(FileFormatError):
        load_checkpoint(path)
    path.write_text('"just a string"', encoding="utf-8")
    with pytest.raises(FileFormatError):
        load_checkpoint(path)


def test_checkpoint_emitted_stays_below_the_count_limit():
    """The stream stops at count_limit, so a saved checkpoint has emitted
    below it; one that claims count_limit or more partitions is refused
    instead of emitting one more."""
    with pytest.raises(BudgetExceeded) as info:
        for _ in enumerate_partitions(4, 2, 3, count_limit=50, budget=40):
            pass
    ck = info.value.checkpoint
    assert ck["state"]["emitted"] < 50
    ck["state"]["emitted"] = 49
    assert len(list(enumerate_partitions(4, 2, 3, count_limit=50,
                                         resume=ck))) == 1
    for emitted in (50, 10**6):
        ck["state"]["emitted"] = emitted
        with pytest.raises(FileFormatError, match="emitted must be at most"):
            list(enumerate_partitions(4, 2, 3, count_limit=50, resume=ck))


def test_stats_that_is_not_a_dict_is_refused():
    with pytest.raises(BadRange, match="stats"):
        list(enumerate_partitions(3, 2, 2, stats=[]))


def test_cut_range_that_is_not_a_list_is_refused():
    with pytest.raises(BadRange, match="cut_range"):
        conjecture_search(3, 2, 5)


def _checkpoint_after(budget, options):
    try:
        for _ in enumerate_partitions(4, 2, 2, budget=budget, **options):
            pass
    except BudgetExceeded as exc:
        return exc.checkpoint
    raise AssertionError(f"a budget of {budget} should not finish the search")


RESUMABLE = [{"type_filter": {2: 5}}, {"size_limit": 8}, {}]
CHECKPOINTS = [_checkpoint_after(40, options) for options in RESUMABLE]


@cache
def _stream(which):
    return set(enumerate_partitions(4, 2, 2, **RESUMABLE[which]))


JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 40), st.integers(),
              st.floats(), st.text(max_size=3)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=5), inner, max_size=3),
    ),
    max_leaves=8,
)


@st.composite
def spoiled_checkpoints(draw):
    """A budgeted checkpoint with its state, a counter, a frame or one
    coordinate replaced, or a frame dropped or added."""
    which = draw(st.integers(0, len(RESUMABLE) - 1))
    doc = json.loads(json.dumps(CHECKPOINTS[which]))
    state = doc["state"]
    stack = state["stack"]
    i = draw(st.integers(0, len(stack) - 1))
    action = draw(st.sampled_from(
        ["state", "field", "frame", "coordinate", "drop", "add"]
    ))
    if action == "state":
        doc["state"] = draw(JSON_VALUES)
    elif action == "field":
        key = draw(st.sampled_from(["stack", "emitted", "nodes_done"]))
        state[key] = draw(JSON_VALUES)
    elif action == "frame":
        stack[i] = draw(JSON_VALUES)
    elif action == "coordinate":
        stack[i][draw(st.integers(0, 1))] = draw(
            st.one_of(st.integers(-2, 40), JSON_VALUES)
        )
    elif action == "drop":
        del stack[i]
    else:
        stack.insert(i, draw(st.lists(st.integers(-1, 20), max_size=3)))
    return which, doc


@settings(max_examples=300, deadline=None)
@given(spoiled_checkpoints())
def test_fuzz_resume_checkpoint(case):
    """A spoiled checkpoint resumes a stream of the same search or raises
    FileFormatError before resuming."""
    which, doc = case
    stream = enumerate_partitions(
        4, 2, 2, budget=300, resume=doc, **RESUMABLE[which]
    )
    try:
        for P in islice(stream, 5):
            assert P in _stream(which)
    except (FileFormatError, BudgetExceeded):
        pass


def test_enumerate_stats_accumulate():
    counters = {}
    list(enumerate_partitions(3, 2, 2, stats=counters))
    assert counters["nodes"] > 0 and counters["units"] > 0
    before = dict(counters)
    list(enumerate_partitions(3, 2, 2, stats=counters))
    assert counters == {key: 2 * value for key, value in before.items()}
    empty = {}
    assert list(enumerate_partitions(3, 2, 2, type_filter={2: 2},
                                     stats=empty)) == []
    assert empty == {"nodes": 0, "units": 7}  # the point index only


def test_stats_count_size_prunes_by_reason():
    """The 56 spreads are the partitions of V(4,2) with at most 5
    members; each size prune is counted under its own reason.  The
    hyperplane totals took the stream from 369 nodes to 358; the
    partitions are pinned in test_fingerprints.  Without the prune by
    points on no disjoint top candidate, the hyperplane check cuts the
    35 extensions that prune cut first: 8 hyperplane prunes became 43,
    at the same 358 nodes."""
    counters = {}
    assert len(list(enumerate_partitions(4, 2, 3, size_limit=5,
                                         stats=counters))) == 56
    assert counters == {"nodes": 358, "units": 40065, "size_prunes": 112,
                        "hyperplane_prunes": 43}


def test_stats_keys_are_documented():
    """Every key a size-limited search writes to stats is named in README
    section Budgets and in the enumerate_partitions docstring, so that
    adding or dropping a prune shows in the docs."""
    counters = {}
    list(enumerate_partitions(4, 2, 3, size_limit=5, stats=counters))
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    budgets = readme.split("\n## Budgets\n")[1].split("\n## ")[0]
    for key in counters:
        assert f"`{key}`" in budgets, key
        assert f'"{key}"' in enumerate_partitions.__doc__, key


def test_size_limit_7_stream_is_pinned():
    """The partitions of V(4,2) with at most 7 members, and their nodes,
    which the prune by points on no disjoint top candidate did not move
    though it fired 5 times here."""
    counters = {}
    assert len(list(enumerate_partitions(4, 2, 3, size_limit=7,
                                         stats=counters))) == 336
    assert counters["nodes"] == 1718


def test_unbounded_streams_skip_the_hyperplane_check(monkeypatch):
    def refuse(*args):
        raise AssertionError("hyperplane table read without a size limit")

    monkeypatch.setattr(_Candidates, "_table", refuse)
    monkeypatch.setattr(_Candidates, "hyperplanes_fit", refuse)
    counters = {}
    assert len(list(enumerate_partitions(4, 2, 3, stats=counters))) == 1227
    assert counters == {"nodes": 6231, "units": 150381, "size_prunes": 0,
                        "hyperplane_prunes": 0}


def test_search_min_small_cases():
    for n, t, q in [(2, 1, 2), (3, 1, 2), (3, 2, 2), (4, 2, 2), (3, 2, 3)]:
        res = search_min_partition_size(n, t, q)
        assert res.size == min_partition_size(n, t, q)
        assert res.partition.size == res.size
        assert max(res.partition.dims()) == t
        assert validate(res.partition).ok
        assert res.nodes > 0


def test_search_min_agrees_with_brute_force():
    """The two pinned members and the lookahead bound lose no minimum:
    the search matches the smallest partition with top dimension t in the
    full enumeration."""
    for n, q in [(3, 2), (4, 2), (3, 3)]:
        for t in range(1, n):
            smallest = min(
                P.size
                for P in enumerate_partitions(n, q, t)
                if max(P.dims()) == t
            )
            assert search_min_partition_size(n, t, q).size == smallest


def test_search_min_oracle_node_count():
    """Node counts repeat exactly, so losing the second pin or the
    lookahead bound, or reordering the candidates, shows here: each of
    the first two alone leaves over a million nodes, the ceiling bound
    that the member-count table replaced 270,055, the table without the
    hyperplane check 75,246, and the check without the totals 382.  The
    validated construction then leaves two nodes: both choices at the
    first branch point are cut at the limit of 12 members."""
    res = search_min_partition_size(5, 2, 2)
    assert (res.size, res.nodes, res.witness) == (13, 2, 13)
    assert not res.beat_witness


def _refuse(n, t, field):
    raise UnsupportedField(f"no construction for ({n},{t},{field.q})")


@pytest.mark.parametrize("n, t, q, size, nodes", [
    (5, 3, 2, 9, 58),
    (6, 4, 2, 17, 97),
    (4, 2, 3, 10, 28),
    (5, 2, 2, 13, 86),
    (7, 2, 2, 45, 3_108),
    (5, 2, 3, 37, 6_721),
    (7, 4, 2, 17, 708),
])
def test_search_min_node_counts_are_pinned(monkeypatch, n, t, q, size,
                                           nodes):
    """From one member per point, as when no construction is usable,
    where the hyperplane totals decide: before them (5,2,2) took 382
    nodes, and (7,2,2) and (5,2,3) did not finish in a minute.  From
    there (7,3,2) does not finish in 30 s: it finds no 21-member cover.
    With the prune by points on no disjoint top candidate, (7,2,2) took
    2,933 nodes and (5,2,3) 3,109.  Pinning at p1 only the candidates
    of dimension t gives (5,3,2) 65 nodes, (6,4,2) 112 and (7,4,2)
    1,010; for t <= 2 it is the same pin."""
    monkeypatch.setattr(search, "minimal_partition", _refuse)
    res = search_min_partition_size(n, t, q)
    assert (res.size, res.nodes, res.witness) == (size, nodes, None)


@pytest.mark.parametrize("n, t, q, size, nodes", [
    (5, 3, 2, 9, 2),
    (6, 4, 2, 17, 2),
    (4, 2, 3, 10, 2),
    (7, 2, 2, 45, 2),
    (5, 2, 3, 37, 2),
    (6, 3, 2, 9, 3),
    (7, 3, 2, 21, 3),
    (7, 4, 2, 17, 3),
    (5, 3, 3, 28, 2),
])
def test_search_min_node_counts_from_the_witness(n, t, q, size, nodes):
    """With one candidate per dimension kept at p1, each search from its
    witness cuts every choice there.  Pinning only the candidates of
    dimension t at p1 gives (5,3,2) 9 nodes, (6,4,2) 17, (6,3,2) 26,
    (7,3,2) 58, (7,4,2) 305 and (5,3,3) 28."""
    res = search_min_partition_size(n, t, q)
    assert (res.size, res.nodes, res.witness) == (size, nodes, size)
    assert not res.beat_witness


def _triples_up_to(points):
    """Every (n, t, q) with 1 <= t < n, a supported q and theta(n) at most
    points."""
    out = []
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        n = 2
        while (q**n - 1) // (q - 1) <= points:
            out += [(n, t, q) for t in range(1, n)]
            n += 1
    return out


@pytest.mark.parametrize("n, t, q", _triples_up_to(127))
def test_search_min_settles_every_triple_up_to_127_points(n, t, q):
    res = search_min_partition_size(n, t, q)
    assert res.size == min_partition_size(n, t, q)
    assert validate(res.partition).ok
    assert max(res.partition.dims()) == t


@pytest.mark.parametrize("n, t, q", [
    triple for triple in _triples_up_to(255) if triple[2] <= 13])
def test_search_min_agrees_with_the_formula_up_to_255_points(n, t, q):
    """The pins settle the oracle within the default budget: it lists no
    table of subspaces while its witness holds, so every triple with at
    most 255 points answers with the formula's minimum."""
    res = search_min_partition_size(n, t, q)
    assert res.size == min_partition_size(n, t, q)


def test_pinned_budget_stops_before_any_table():
    """A budget of 255 units for the point index of V(8,2) and one node
    stops the (8,4,2) oracle at its first node, at p1, in its first
    count vector, where only the pinned candidates are listed: the table
    of every subspace, which took 1.9 s and 107 MB, is never built."""
    budget = 255 + search._NODE_UNITS
    started = time.monotonic()
    with pytest.raises(BudgetExceeded,
                       match=f"^search stopped at its budget of {budget} "
                             f"units$"):
        search_min_partition_size(8, 4, 2, budget=budget)
    assert time.monotonic() - started < 0.1


def _refuse_walks(monkeypatch):
    def refuse(*args):
        raise AssertionError("subspaces walked")

    monkeypatch.setattr(candidates, "shape_masks", refuse)


@pytest.mark.parametrize("n, t", [(8, 4), (9, 4), (10, 6)])
def test_a_budget_alone_refuses_the_walk_past_p1(monkeypatch, n, t):
    """Without a witness the oracle leaves p1, where (8,4,2) must walk
    309,000 subspaces, 3.7 million list entries.  A budget of 10^6
    units, with no time limit, refuses the walk before it starts."""
    monkeypatch.setattr(search, "minimal_partition", _refuse)
    _refuse_walks(monkeypatch)
    started = time.monotonic()
    with pytest.raises(BudgetExceeded,
                       match="^search stopped at its budget of 1000000 "
                             "units$"):
        search_min_partition_size(n, t, 2, budget=10**6)
    assert time.monotonic() - started < 0.5


@pytest.mark.parametrize("n", [10, 12])
def test_enumerate_refuses_a_walk_beyond_the_budget(monkeypatch, n):
    """The walk of enumerate_partitions(n, 2, 3) has more units than a
    budget of 10^6, so the call is refused before it walks a subspace,
    having spent only the point index, and its checkpoint starts the
    stream afresh."""
    _refuse_walks(monkeypatch)
    counters = {}
    with pytest.raises(BudgetExceeded,
                       match="^search stopped at its budget of 1000000 "
                             "units$") as info:
        next(enumerate_partitions(n, 2, 3, budget=10**6, stats=counters))
    assert counters["units"] == 2**n - 1 and counters["nodes"] == 0
    assert info.value.checkpoint["state"] == {
        "stack": [[0, 0]], "emitted": 0, "nodes_done": 0}


def _first_disjoint_at_p1(n, q, dims, top):
    """The pins by their definition: in the reference list, the first
    candidate of each dimension through p1 that meets L0 trivially."""
    pi = point_index(n, make_field(q))
    L0 = span([tuple(int(i == j) for j in range(n))
               for i in range(n - top, n)], n, pi.field)
    covered = pi.mask_of(L0)
    p1 = search._least_point(pi.full_mask & ~covered)
    cands, per_point = _spanned_candidates(n, q, dims)
    first = {}
    for cid in per_point[p1]:
        mask, d = cands[cid]
        if not mask & covered:
            first.setdefault(d, (mask, d))
    return p1, list(first.values())


@pytest.mark.parametrize("n, q", [(n, 2) for n in range(2, 8)]
                         + [(n, 3) for n in range(2, 6)]
                         + [(3, 4), (4, 4), (3, 5)])
def test_written_down_pins_are_the_first_disjoint_candidates(n, q):
    """K_d = <e_0, ..., e_{d-2}, p1> is the candidate that scanning p1's
    full list keeps, for every top and every dimension d, and pinning
    lists no other candidate."""
    F = make_field(q)
    dims = range(n - 1, 0, -1)
    for top in range(1, n):
        p1, first = _first_disjoint_at_p1(n, q, tuple(dims), top)
        tables, _, _ = search._pinned(n, F, dims, top)
        assert [tables.cands[cid] for cid in tables.per_point[p1]] == first
        assert [d for _, d in first] == [d for d in dims if d <= n - top]
        assert list(tables.per_point) == [p1]
        assert len(tables.cands) == len(first)


def _kept_pins(monkeypatch):
    """The dimensions, tables and covered mask of each _pinned call."""
    made = []
    pinned = search._pinned

    def keep(n, field, dims, top):
        tables, root, covered = pinned(n, field, dims, top)
        made.append((dims, tables, covered))
        return tables, root, covered

    monkeypatch.setattr(search, "_pinned", keep)
    return made


def test_oracle_settled_at_p1_lists_no_other_point(monkeypatch):
    """The (5,2,2) oracle cuts both pins at p1, so no other point's list
    and no candidate but the two pins is ever listed."""
    made = _kept_pins(monkeypatch)
    assert search_min_partition_size(5, 2, 2).nodes == 2
    [(_, tables, covered)] = made
    p1 = search._least_point(tables.pi.full_mask & ~covered)
    assert list(tables.per_point) == [p1]
    assert [d for _, d in tables.cands] == [2, 1]


@pytest.mark.parametrize("n, t, q", [(5, 2, 2), (4, 2, 3), (5, 3, 2)])
def test_lists_past_p1_are_those_of_the_full_tables(monkeypatch, n, t, q):
    """A search that leaves p1, here the oracle without a witness, lists
    every subspace after the pins, in the order of the reference list,
    and each other point reads the reference list there, so node counts
    and streams do not move."""
    monkeypatch.setattr(search, "minimal_partition", _refuse)
    made = _kept_pins(monkeypatch)
    search_min_partition_size(n, t, q)
    [(dims, tables, covered)] = made
    pi = tables.pi
    p1 = search._least_point(pi.full_mask & ~covered)
    cands, per_point = _spanned_candidates(n, q, tuple(dims))
    k = len(tables.per_point[p1])
    assert tables.cands[k:] == cands
    assert sorted(tables.per_point) == list(range(pi.size))
    for p in range(pi.size):
        if p != p1:
            assert tables.per_point[p] == [cid + k for cid in per_point[p]]


def _spoiled(how):
    """A construction that fails: raises, is no partition, has the wrong
    top dimension or lives in another space."""
    def build(n, t, field):
        if how == "raises":
            _refuse(n, t, field)
        if how == "top":
            return minimal_partition(n, t - 1, field)
        if how == "space":
            return minimal_partition(n + 1, t, field)
        P = minimal_partition(n, t, field)
        return SubspacePartition(n, field, P.members[1:])
    return build


@pytest.mark.parametrize("how", ["raises", "invalid", "top", "space"])
def test_search_min_falls_back_without_a_witness(monkeypatch, how):
    """A construction that raises, fails validate or has the wrong top
    dimension or ambient is no witness: the search starts at one member
    per point and still finds the minimum."""
    monkeypatch.setattr(search, "minimal_partition", _spoiled(how))
    res = search_min_partition_size(5, 3, 2)
    assert (res.size, res.nodes, res.witness) == (9, 58, None)
    assert not res.beat_witness
    assert validate(res.partition).ok and max(res.partition.dims()) == 3


def test_witness_unavailable_above_the_extension_cap():
    """(5,3,8) builds a near-spread of 2-dimensional graphs over
    GF(8^3) = GF(512), above the extension cap, so the search would start
    at one member per point."""
    assert search._witness(5, 3, make_field(8)) is None
    assert search._witness(4, 2, F2).size == 5


def _larger_partition(n, t, field):
    """A valid partition of top dimension t, one member split into
    points: the search has a smaller one to find."""
    P = minimal_partition(n, t, field)
    index = next(i for i, M in enumerate(P.members) if M.dim == 2)
    return refine(P, index, spread(2, 1, field))


def test_search_builds_a_subspace_only_per_member(monkeypatch):
    """The candidates are point masks: when the (5,2,2) search beats its
    witness, it makes one Subspace for L0 and one per member of the
    partition it returns, not one for each of its 186 candidates.  The
    Subspaces of the construction are not counted."""
    built = []
    counting_on = [True]
    init = Subspace.__init__

    def counting(self, *args):
        if counting_on[0]:
            built.append(self)
        init(self, *args)

    def construct(*args):
        counting_on[0] = False
        try:
            return _larger_partition(*args)
        finally:
            counting_on[0] = True

    monkeypatch.setattr(Subspace, "__init__", counting)
    monkeypatch.setattr(search, "minimal_partition", construct)
    res = search_min_partition_size(5, 2, 2)
    assert (res.size, res.witness, res.beat_witness) == (13, 15, True)
    assert validate(res.partition).ok
    assert len(built) <= res.size
    assert all(any(M is U for U in built) for M in res.partition.members)


def test_stream_members_are_shared():
    """Partitions of one stream hold the same object for the same member,
    decoded once, with its point mask already kept."""
    pi = point_index(4, F2)
    first = {}
    held = 0
    for P in enumerate_partitions(4, 2, 2):
        for M in P.members:
            assert first.setdefault(M, M) is M
            assert M._mask == pi.mask_of(span(M.basis, 4, F2))
            held += 1
    assert len(first) == 15 + 35 < held


@pytest.mark.parametrize("n, q", [(4, 2), (3, 3)])
def test_candidates_decode_members_from_their_masks_in_any_order(n, q):
    """member(cid) reads only the mask of candidate cid, so a shuffled
    list of every subspace mask, given as pins, decodes: each member is
    the subspace with that mask, already holds it, and is made once."""
    F = make_field(q)
    pi = point_index(n, F)
    subspaces = {pi.mask_of(U): U for d in range(1, n + 1)
                 for U in all_subspaces(n, d, F)}
    cands = [(mask, U.dim) for mask, U in subspaces.items()]
    random.Random(n * q).shuffle(cands)
    tables = _Candidates(pi, range(1, n + 1), cands)
    for cid, (mask, d) in enumerate(cands):
        M = tables.member(cid)
        assert (M, M.dim, M._mask) == (subspaces[mask], d, mask)
        assert tables.member(cid) is M


def test_subspace_candidates_decode_all_subspaces():
    """Candidate ids run over the dimensions in the order given, each in
    all_subspaces order, and each point lists them in that order;
    member(cid) is that subspace, with its mask."""
    for n, q, dims in [(4, 2, (3, 1, 2)), (3, 3, (2, 1)), (3, 4, (1, 2, 3))]:
        F = make_field(q)
        pi = point_index(n, F)
        tables = _Candidates(pi, dims)
        per_point = tables.listed(_unlimited())
        assert per_point == dict(enumerate(_spanned_candidates(n, q, dims)[1]))
        expected = [U for d in dims for U in all_subspaces(n, d, F)]
        assert len(tables.cands) == len(expected)
        for cid, U in enumerate(expected):
            mask, d = tables.cands[cid]
            M = tables.member(cid)
            assert (M, M.dim, d, mask, M._mask) == (
                U, d, U.dim, pi.mask_of(U), mask
            )
            assert tables.member(cid) is M
        assert sorted(tables.hyperplanes(_unlimited())) == sorted(
            mask for _, mask in hyperplane_masks(n, F)
        )


def test_search_min_settles_v62_top_dimension_4():
    """Every 3- or 4-subspace meets L0, so 48 points are left to lines and
    points; the hyperplanes refute 16 members at once, where point counts
    alone do not."""
    res = search_min_partition_size(6, 4, 2)
    assert res.size == 17 == min_partition_size(6, 4, 2)
    assert validate(res.partition).ok


def test_search_min_budget_payload():
    """The minimum-size search cannot resume, so it carries no checkpoint;
    a budget below the points of the space is a BadRange."""
    with pytest.raises(BudgetExceeded) as info:
        search_min_partition_size(5, 2, 2, budget=100)
    assert info.value.checkpoint is None
    with pytest.raises(BadRange, match="more than 30 points"):
        search_min_partition_size(5, 2, 2, budget=30)


def test_a_budget_stops_the_table_walk():
    """The walk of enumerate_partitions(6, 2, 3), 2,109 subspaces, takes
    more units than a budget of 10^4, so the call stops before its first
    node, charged only the 63 units of its point index.  The checkpoint
    resumes the identical stream, and a resumed call stopped again in
    the walk, by the same budget, hands back its checkpoint."""
    counters = {}
    with pytest.raises(BudgetExceeded,
                       match="^search stopped at its budget of 10000 "
                             "units$") as info:
        next(enumerate_partitions(6, 2, 3, budget=10**4, stats=counters))
    ck = info.value.checkpoint
    assert ck["state"] == {"stack": [[0, 0]], "emitted": 0, "nodes_done": 0}
    assert (counters["nodes"], counters["units"]) == (0, 63)
    with pytest.raises(BudgetExceeded) as again:
        next(enumerate_partitions(6, 2, 3, budget=10**4, resume=ck))
    assert again.value.checkpoint == ck
    resumed = enumerate_partitions(6, 2, 3, resume=ck)
    assert list(islice(resumed, 50)) == list(
        islice(enumerate_partitions(6, 2, 3), 50))


@pytest.mark.parametrize("call, emitted", [
    (lambda: enumerate_partitions(5, 2, 2, type_filter={2: 3}), 0),
    (lambda: enumerate_partitions(3, 2, 2, seed=[full_space(3, F2)]), 1),
], ids=["filter-cannot-fill", "seed-covers-all"])
def test_an_early_return_walks_no_table(monkeypatch, call, emitted):
    """A type filter whose members cannot fill the free points, or a seed
    that covers them all, settles the call before its first node, so no
    subspace is walked."""

    def refuse(*args):
        raise AssertionError("subspaces walked")

    monkeypatch.setattr(candidates, "shape_masks", refuse)
    assert len(list(call())) == emitted


def test_search_min_range_and_guard():
    with pytest.raises(BadRange):
        search_min_partition_size(4, 4, 2)
    with pytest.raises(BadRange, match=r"V\(8,2\) has more than 254 points"):
        search_min_partition_size(8, 2, 2, budget=254)


def test_impossibility_v52_cut3():
    """No partition of V(5, 2) carries a minimum supertail at cut 3: the
    packing equation has no solution and the seeded sweep finds nothing."""
    rep = check_no_minimum_supertail(5, 3, 2)
    assert rep.confirmed
    assert rep.candidate_types == ()
    assert rep.type_hits == 0
    assert rep.sweep_hits == 0
    assert rep.nodes > 0


@pytest.mark.parametrize("n, cut, q, nodes", [
    (5, 3, 2, 2), (6, 4, 2, 2), (5, 4, 2, 1), (3, 2, 3, 1),
    (7, 5, 2, 2), (5, 3, 3, 2), (7, 4, 2, 3),
])
def test_impossibility_reports_are_pinned(n, cut, q, nodes):
    """One cover stream from the pinned cut-subspace.  One stream per
    cut-subspace gives 1,395, 11,067, 31, 13, 88,011, 33,880 and
    3,602,355 nodes."""
    rep = check_no_minimum_supertail(n, cut, q)
    assert rep == search.ImpossibilityReport(n, cut, q, (), 0, 0, 0, nodes)


@pytest.mark.parametrize("n, cut, q", [(5, 3, 2), (5, 4, 2), (6, 4, 2),
                                       (3, 2, 3)])
def test_impossibility_matches_the_sweep_over_every_cut_subspace(n, cut, q):
    """The pin-free reference: every cut-subspace, extended by the tail
    dimensions up to the size limit of the sweep, as a seeded
    enumeration.  It finds no partition, so no minimum supertail, as the
    pinned sweep does."""
    F = make_field(q)
    top = min(cut - 1, n - cut)
    limit = 1 + max(min_partition_size(cut, d, q) for d in range(1, top + 1))
    found = [P for M in all_subspaces(n, cut, F)
             for P in enumerate_partitions(n, q, top, seed=[M],
                                           size_limit=limit)]
    assert found == []
    rep = check_no_minimum_supertail(n, cut, q)
    assert rep.confirmed and rep.sweep_partitions == 0


@pytest.mark.parametrize("n, t, q", [(5, 3, 2), (6, 3, 2), (5, 3, 3),
                                     (7, 4, 2)])
def test_search_min_matches_the_unpinned_enumeration(n, t, q):
    """The pin-free reference for the minimum: no partition with top
    dimension t has fewer members than the oracle's, by a size-limited
    enumeration with no member pinned.  ((6,4,2) is left out: there it
    spent 5M nodes without finishing.)"""
    res = search_min_partition_size(n, t, q)
    assert not [P for P in enumerate_partitions(n, q, t,
                                                size_limit=res.size - 1)
                if max(P.dims()) == t]


@pytest.mark.parametrize("n, q, top, dims", [
    (4, 2, 2, (2, 1)), (4, 2, 3, (3, 2, 1)), (4, 2, 3, (1,)),
    (3, 3, 2, (2, 1)), (3, 4, 2, (1,)),
])
def test_pinned_covers_reach_every_type(n, q, top, dims):
    """Types are invariant under GL(n,q), so the covers of the pinned
    tables, with no size limit, realize every type that the pin-free
    enumeration does among partitions with a top-member and otherwise
    members of the dimensions dims."""
    tables, root, covered = search._pinned(n, make_field(q), dims, top)
    call = search._Call(10**6, None)
    pinned = {search._partition(tables, [root], chosen).type()
              for chosen in search._covers(tables, call, covered, 1)}
    every = {P.type() for P in enumerate_partitions(n, q, max(top, *dims))
             if top in P.dims() and set(P.dims()) <= {top, *dims}}
    assert pinned == every


def _kept_calls(monkeypatch):
    """The _Call of each search call made from here on."""
    made = []

    class Kept(search._Call):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(search, "_Call", Kept)
    return made


@pytest.mark.parametrize("options", [
    {"max_dim": 2}, {"max_dim": 3, "size_limit": 5},
    {"max_dim": 2, "type_filter": {2: 5}},
], ids=["points-and-lines", "size-limit", "spreads"])
def test_stats_units_are_the_least_budget_that_finishes(options):
    """The units a stream reports are exactly what it spends: a budget of
    that many streams every partition, and one unit less stops it."""
    counters = {}
    stream = list(enumerate_partitions(4, 2, stats=counters, **options))
    units = counters["units"]
    assert list(enumerate_partitions(4, 2, budget=units, **options)) == stream
    with pytest.raises(BudgetExceeded,
                       match=f"^search stopped at its budget of {units - 1} "
                             f"units$"):
        list(enumerate_partitions(4, 2, budget=units - 1, **options))


def test_impossibility_budget_covers_the_whole_call(monkeypatch):
    """The budget bounds the units of the whole call, 163 here, and
    running out names the budget of the call."""
    made = _kept_calls(monkeypatch)
    rep = check_no_minimum_supertail(7, 4, 2)
    units = made[0].units
    assert units == 163
    with pytest.raises(BudgetExceeded,
                       match=f"^search stopped at its budget of {units - 1} "
                             f"units$"):
        check_no_minimum_supertail(7, 4, 2, budget=units - 1)
    assert check_no_minimum_supertail(7, 4, 2, budget=units) == rep


def test_search_min_budget_covers_the_whole_call(monkeypatch):
    """The same holds across the tightening passes of the minimum search,
    its table walk and its count-vector tables: without a witness,
    (7,2,2) takes 3,108 nodes and 3,994,121 units in all."""
    monkeypatch.setattr(search, "minimal_partition", _refuse)
    made = _kept_calls(monkeypatch)
    assert search_min_partition_size(7, 2, 2).nodes == 3108
    units = made[0].units
    assert units == 3994121
    with pytest.raises(BudgetExceeded,
                       match=f"^search stopped at its budget of {units - 1} "
                             f"units$"):
        search_min_partition_size(7, 2, 2, budget=units - 1)
    assert search_min_partition_size(7, 2, 2, budget=units).nodes == 3108


@pytest.mark.parametrize("call", [
    lambda: list(enumerate_partitions(4, 2, 2, budget=20000)),
    lambda: search_min_partition_size(7, 2, 2, budget=10**6),
    lambda: check_no_minimum_supertail(7, 4, 2, budget=150),
    lambda: conjecture_search(4, 2, budget=20000),
], ids=["enumerate", "minimum", "impossibility", "conjecture"])
def test_a_budget_stops_each_search_at_the_same_node(monkeypatch, call):
    """Work is counted in units, not read off a clock, so a given budget
    stops a search part way through at the same node, with the same
    units spent and the same checkpoint, each time it runs."""
    monkeypatch.setattr(search, "minimal_partition", _refuse)
    made = _kept_calls(monkeypatch)
    stops = []
    for _ in range(2):
        made.clear()
        with pytest.raises(BudgetExceeded) as info:
            call()
        stops.append(([(c.nodes, c.units) for c in made],
                      info.value.checkpoint))
    assert stops[0] == stops[1]
    assert made[-1].nodes > 0


def test_impossibility_guards():
    with pytest.raises(HypothesisNotMet):
        check_no_minimum_supertail(6, 3, 2)
    with pytest.raises(BadRange):
        check_no_minimum_supertail(5, 5, 2)
    with pytest.raises(BadRange):
        check_no_minimum_supertail(5, 0, 2)


def test_conjecture_search_v32():
    """V(3, 2): seven cases, every tail oversized, nothing narrow."""
    f = conjecture_search(3, 2)
    assert f.partitions_examined == 8
    assert f.cases_examined == 7
    assert f.narrow_cases == 0
    assert f.minimum_narrow_cases == 0
    assert dict(f.class_counts) == {"not-minimum": 7}
    assert f.open_cases == ()
    assert f.counterexamples == ()
    assert f.violations == ()
    assert f.ok


def _split_spread_stream(monkeypatch):
    """Make conjecture_search stream one partition of V(6, 2), a 3-spread
    with one member split into a line and four points, and return it."""
    P = refine(spread(6, 3, F2), 0, minimal_partition(3, 2, F2))
    assert str(P.type()) == "[1^4, 2^1, 3^8]"
    monkeypatch.setattr(search, "enumerate_partitions",
                        lambda *args, **kwargs: iter([P]))
    return P


def test_conjecture_search_counts_a_narrow_minimum_case(monkeypatch):
    """Labeled enumeration finishes only where no narrow case exists, so
    the narrow bookkeeping runs on a streamed [1^4, 2^1, 3^8]: at cut 3
    its tail [1^4, 2^1] is narrow (3 < 2 * 2), has the minimum size 5,
    meets all three side conditions and is two-dim; cut 2 is not in the
    range and is skipped."""
    _split_spread_stream(monkeypatch)
    f = conjecture_search(6, 2, (3,))
    assert (f.partitions_examined, f.cases_examined) == (1, 1)
    assert (f.narrow_cases, f.minimum_narrow_cases) == (1, 1)
    assert f.condition_counts == (1, 1, 1)
    assert f.class_counts == (("two-dim", 1),)
    assert (f.open_cases, f.counterexamples, f.violations) == ((), (), ())
    assert f.ok


def test_conjecture_search_reports_open_cases_and_violations(monkeypatch):
    """A minimum narrow case that meets no side condition is open, and a
    counterexample when its union is not a subspace; every violation
    text of a report is kept with its type and cut."""
    P = _split_spread_stream(monkeypatch)
    real = analyze_supertail(P, 3, mode="explore")
    fields = {f: getattr(real, f) for f in SupertailReport.__annotations__}
    held = tuple((name, False) for name, _ in real.conditions)
    reports = iter([
        SupertailReport(**{**fields, "conditions": held,
                           "classification": TailClass.NOT_SUBSPACE}),
        SupertailReport(**{**fields, "violations": ("broken",)}),
    ])
    monkeypatch.setattr(search, "analyze_supertail",
                        lambda *args, **kwargs: next(reports))
    f = conjecture_search(6, 2, (2, 3))
    assert (f.cases_examined, f.narrow_cases, f.minimum_narrow_cases) == (
        2, 2, 2)
    assert f.condition_counts == (1, 1, 1)
    assert f.class_counts == (("not-subspace", 1), ("two-dim", 1))
    case = search.ConjectureCase("[1^4, 2^1, 3^8]", 2, 2, 5, 5,
                                 (False, False, False), "not-subspace", 3)
    assert f.open_cases == f.counterexamples == (case,)
    assert f.violations == ("[1^4, 2^1, 3^8] cut 3: broken",)
    assert not f.ok


def test_searches_blame_n_below_its_least_value():
    """An ambient dimension below what a search takes is refused by the
    check on n, not by a bound on max_dim, t or cut derived from it."""
    for call, least in [
        (lambda n: list(enumerate_partitions(n, 2, 1)), 1),
        (lambda n: conjecture_search(n, 2), 1),
        (lambda n: search_min_partition_size(n, 1, 2), 2),
        (lambda n: check_no_minimum_supertail(n, 1, 2), 2),
    ]:
        for n in range(-1, least):
            with pytest.raises(BadRange, match=f"^n must be at least "
                                               f"{least}, got {n}$"):
                call(n)


def test_conjecture_search_empty_range():
    f = conjecture_search(3, 2, cut_range=())
    assert f.cases_examined == 0
    assert f.partitions_examined == 0
    assert f.ok


def test_conjecture_search_budget():
    with pytest.raises(BudgetExceeded):
        conjecture_search(4, 2, budget=50)
