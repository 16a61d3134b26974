"""Subspace enumeration against the q-binomial counts, plus recognition."""
import itertools
import random

import pytest

from vspart.enumeration import (
    all_hyperplanes,
    all_subspaces,
    gaussian_binomial,
    hyperplane_functional,
    hyperplanes_containing,
    recognize_subspace,
    shape_masks,
)
from vspart.errors import BadRange, BudgetExceeded
from vspart.fields import extension_field, make_field
from vspart.spaces import (
    full_space,
    num_points,
    point_index,
    span,
    zero_subspace,
)


def _dot(F, u, v):
    """Standard bilinear form, from the field's public operations."""
    acc = 0
    for a, b in zip(u, v):
        acc = F.add(acc, F.mul(a, b))
    return acc


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(4, 1, 2) == 15
    assert gaussian_binomial(4, 3, 2) == 15
    assert gaussian_binomial(5, 2, 3) == 1210
    assert gaussian_binomial(3, 0, 2) == 1
    assert gaussian_binomial(3, 3, 2) == 1
    assert gaussian_binomial(3, 4, 2) == 0


@pytest.mark.parametrize("call", [
    lambda: num_points(3, 2.5),
    lambda: num_points(True, 2),
    lambda: gaussian_binomial(4, 2, 2.5),
    lambda: gaussian_binomial(4, 2.5, 2),
    lambda: gaussian_binomial(4, 2, 1),
    lambda: next(all_subspaces(4, 2.0, make_field(2))),
    lambda: extension_field(make_field(2), 2.5),
], ids=["num_points-q", "num_points-bool", "gaussian-q", "gaussian-d",
        "gaussian-q1", "all_subspaces-d", "extension-degree"])
def test_numeric_helpers_take_only_ints(call):
    """A float or bool where an int is meant, or a field order below 2, is
    refused with BadRange, not counted (9.0, 65.0) or left to a raw
    TypeError or ZeroDivisionError."""
    with pytest.raises(BadRange):
        call()


@pytest.mark.parametrize("args, error", [
    ((4, 9, None), BadRange),
    ((4, 2.0, None), BadRange),
    ((-1, 0, None), BadRange),
    ((4, 2, "many"), BadRange),
    ((4, 2, -1), BadRange),
    ((6, 3, 100), BudgetExceeded),
], ids=["d-above-n", "d-float", "n-negative", "budget-text",
        "budget-negative", "over-budget"])
def test_all_subspaces_checks_at_the_call(args, error):
    """all_subspaces refuses its arguments, and a count over the budget,
    when it is called, not when the walk is first iterated."""
    n, d, budget = args
    with pytest.raises(error):
        all_subspaces(n, d, make_field(2), budget=budget)


def test_gaussian_binomial_symmetry():
    for q in (2, 3):
        for n in range(7):
            for d in range(n + 1):
                assert gaussian_binomial(n, d, q) == gaussian_binomial(
                    n, n - d, q
                )


def test_subspace_counts_match_q_binomials():
    """Every (n, d) cell up to n = 6 over GF(2) and n = 4 over GF(3)."""
    for q, n_max in ((2, 6), (3, 4)):
        F = make_field(q)
        for n in range(1, n_max + 1):
            for d in range(n + 1):
                got = list(all_subspaces(n, d, F))
                assert len(got) == gaussian_binomial(n, d, q)
                assert len(set(got)) == len(got)
                for U in got:
                    assert U.dim == d


def test_enumeration_is_deterministic():
    F = make_field(3)
    first = list(all_subspaces(4, 2, F))
    second = list(all_subspaces(4, 2, F))
    assert first == second


def test_enumeration_budget():
    F = make_field(2)
    with pytest.raises(BudgetExceeded):
        list(all_subspaces(6, 3, F, budget=100))
    # a budget large enough for the full run changes nothing
    full = list(all_subspaces(4, 2, F, budget=10 ** 6))
    assert len(full) == 35


def test_hyperplanes_and_functionals():
    for q in (2, 3):
        F = make_field(q)
        for n in (2, 3, 4):
            hs = list(all_hyperplanes(n, F))
            assert len(hs) == num_points(n, q)
            assert len(set(hs)) == len(hs)
            for H in hs:
                assert H.dim == n - 1
                a = hyperplane_functional(H)
                for v in H.points():
                    assert _dot(F, a, v) == 0


def test_hyperplanes_containing_counts():
    """A d-subspace of V(n, q) lies in exactly theta(n - d) hyperplanes."""
    F = make_field(2)
    for d in range(1, 4):
        for U in itertools.islice(all_subspaces(4, d, F), 8):
            hs = list(hyperplanes_containing(U))
            assert len(hs) == num_points(4 - d, 2)
            for H in hs:
                assert H.contains_subspace(U)


def test_recognize_subspace_round_trip():
    for q in (2, 3):
        F = make_field(q)
        for d in (1, 2, 3):
            for U in itertools.islice(all_subspaces(3, d, F), 5):
                pts = list(U.points())
                assert recognize_subspace(pts, 3, F) == U
                assert recognize_subspace(
                    pts, 3, F, mode="hyperplane-count"
                ) == U


def test_recognize_subspace_rejections():
    """Point sets that are not full subspaces are rejected in both modes."""
    F = make_field(2)
    rng = random.Random(7)
    V = full_space(4, F)
    all_pts = list(V.points())
    plane = span([(1, 0, 0, 0), (0, 1, 0, 0)], 4, F)
    good = set(plane.points())
    for _ in range(20):
        pts = set(rng.sample(all_pts, 3))
        expected = pts == good or (
            recognize_subspace(sorted(pts), 4, F) is not None
        )
        got_span = recognize_subspace(pts, 4, F)
        got_count = recognize_subspace(pts, 4, F, mode="hyperplane-count")
        assert (got_span is not None) == expected
        assert (got_count is None) == (got_span is None)
    # drop one point from a plane: wrong size for any dimension
    broken = sorted(good)[:-1]
    assert recognize_subspace(broken, 4, F) is None
    assert recognize_subspace(broken, 4, F, mode="hyperplane-count") is None
    # right size, wrong shape: three points not closed under addition
    e1, e2, e3 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)
    assert recognize_subspace([e1, e2, e3], 4, F) is None
    assert (
        recognize_subspace([e1, e2, e3], 4, F, mode="hyperplane-count")
        is None
    )


def test_recognize_empty_set_is_zero_subspace():
    F = make_field(2)
    assert recognize_subspace([], 3, F) == zero_subspace(3, F)


def test_recognize_unknown_mode():
    """The mode is checked before the empty set gets the zero subspace."""
    F = make_field(2)
    with pytest.raises(BadRange):
        recognize_subspace([(1, 0)], 2, F, mode="guess")
    with pytest.raises(BadRange):
        recognize_subspace([], 3, F, mode="bogus")


# (q, largest n) for the shape walk checks
SHAPE_AMBIENTS = [(2, 5), (3, 4), (4, 4), (5, 3), (7, 3), (8, 3), (9, 3),
                  (16, 2)]


def _reference_mask(F, n, basis):
    """Point mask of the row space of a reduced echelon basis, from every
    vector of V(n, q): the points are the vectors that lead with 1, ranked
    in lexicographic order, and v lies in the row space exactly when it
    equals the combination of the rows by its own pivot entries."""
    pivots = [next(j for j, x in enumerate(row) if x) for row in basis]
    mask, rank = 0, 0
    for v in itertools.product(range(F.q), repeat=n):
        if next((x for x in v if x), 0) != 1:
            continue
        w = [0] * n
        for row, p in zip(basis, pivots):
            w = [F.add(a, F.mul(v[p], b)) for a, b in zip(w, row)]
        if tuple(w) == v:
            mask |= 1 << rank
        rank += 1
    return mask


@pytest.mark.parametrize("q, top", SHAPE_AMBIENTS)
def test_shape_masks_match_every_vector(q, top):
    """The i-th mask of the shape walk is the point set of all_subspaces'
    i-th subspace, found from every vector of the ambient, and its
    mask_of."""
    F = make_field(q)
    for n in range(1, top + 1):
        pi = point_index(n, F)
        for d in range(1, n + 1):
            subspaces = list(all_subspaces(n, d, F))
            masks = list(shape_masks(pi, d))
            assert len(masks) == len(subspaces) == gaussian_binomial(n, d, q)
            for i, (U, mask) in enumerate(zip(subspaces, masks)):
                assert mask == _reference_mask(F, n, U.basis), (n, d, i)
                assert mask == pi.mask_of(U)


def test_shape_walk_edges():
    F = make_field(3)
    pi = point_index(3, F)
    assert list(shape_masks(pi, 0)) == [0]
    assert list(shape_masks(pi, 3)) == [pi.full_mask]
    for d in (-1, 4):
        with pytest.raises(BadRange):
            shape_masks(pi, d)
