"""Subspace objects: canonical bases, lattice dimensions, point indexing."""
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vspart.enumeration import all_subspaces
from vspart.errors import BadRange, DimensionMismatch
from vspart.fields import extension_field, make_field
from vspart.spaces import (
    full_space,
    intersect,
    nullspace,
    num_points,
    orthogonal,
    point_index,
    span,
    subspace_sum,
    zero_subspace,
)


def _dot(F, u, v):
    """Standard bilinear form, from the field's public operations."""
    acc = 0
    for a, b in zip(u, v):
        acc = F.add(acc, F.mul(a, b))
    return acc


def test_num_points_values():
    assert num_points(0, 2) == 0
    assert num_points(1, 2) == 1
    assert num_points(2, 2) == 3
    assert num_points(4, 2) == 15
    assert num_points(3, 3) == 13
    with pytest.raises(BadRange):
        num_points(-1, 2)


def test_span_is_canonical_under_presentation():
    """The same subspace reached through shuffled, scaled, and summed
    generating sets compares equal and hashes equal."""
    F = make_field(3)
    rows = [(1, 0, 2, 1), (0, 1, 1, 0)]
    U = span(rows, 4, F)
    variants = [
        [rows[1], rows[0]],
        [rows[0], tuple(F.add(a, b) for a, b in zip(rows[0], rows[1]))],
        [tuple(F.mul(2, x) for x in rows[0]), rows[1]],
        rows + [rows[0]],
    ]
    for vs in variants:
        W = span(vs, 4, F)
        assert W == U
        assert hash(W) == hash(U)
        assert W.basis == U.basis


@settings(max_examples=60, deadline=None)
@given(
    vs=st.lists(
        st.tuples(*[st.integers(0, 2)] * 4), min_size=1, max_size=4
    ),
    seed=st.integers(0, 2 ** 16),
)
def test_span_ignores_generator_order_and_scaling(vs, seed):
    F = make_field(3)
    U = span(vs, 4, F)
    rng = random.Random(seed)
    shuffled = list(vs)
    rng.shuffle(shuffled)
    scaled = []
    for v in shuffled:
        c = rng.choice([1, 2])
        scaled.append(tuple(F.mul(c, x) for x in v))
    assert span(scaled, 4, F) == U


def test_point_count_matches_dimension():
    F = make_field(2)
    for d in range(1, 4):
        for U in all_subspaces(4, d, F):
            pts = list(U.points())
            assert len(pts) == num_points(d, 2)
            assert len(set(pts)) == len(pts)
            for v in pts:
                assert U.contains(v)


def test_modular_dimension_identity():
    """dim(U + W) + dim(U meet W) = dim U + dim W for all pairs of
    2-subspaces of V(4, 2)."""
    F = make_field(2)
    planes = list(all_subspaces(4, 2, F))
    assert len(planes) == 35
    for U, W in itertools.combinations(planes, 2):
        S = subspace_sum(U, W)
        I = intersect(U, W)
        assert S.dim + I.dim == U.dim + W.dim
        assert S.contains_subspace(U) and S.contains_subspace(W)
        assert U.contains_subspace(I) and W.contains_subspace(I)


def test_zero_and_full_space():
    F = make_field(3)
    Z = zero_subspace(3, F)
    V = full_space(3, F)
    assert Z.dim == 0
    assert list(Z.points()) == []
    assert V.dim == 3
    assert V.contains((2, 1, 0))
    assert V.contains_subspace(Z)
    for v in V.points():
        assert V.contains(v)


def test_contains_rejects_outside_vectors():
    F = make_field(2)
    U = span([(1, 0, 0, 0), (0, 1, 0, 0)], 4, F)
    assert U.contains((1, 1, 0, 0))
    assert not U.contains((0, 0, 1, 0))
    assert not U.contains((1, 0, 1, 0))


def test_nullspace_is_orthogonal_complement():
    F = make_field(3)
    rows = [(1, 2, 0, 1), (0, 1, 1, 1)]
    N = nullspace(rows, 4, F)
    assert N.dim == 2
    for v in N.points():
        for r in rows:
            assert _dot(F, r, v) == 0
    # the double complement returns the original span
    NN = nullspace(N.basis, 4, F)
    assert NN == span(rows, 4, F)


def test_point_index_round_trip():
    F = make_field(3)
    pi = point_index(3, F)
    V = full_space(3, F)
    reps = set()
    for v in V.points():
        reps.add(pi.rep_of(v))
        for c in F.nonzero():
            scaled = tuple(F.mul(c, x) for x in v)
            assert pi.rep_of(scaled) == pi.rep_of(v)
    assert len(reps) == num_points(3, 3)


def test_point_index_masks():
    F = make_field(2)
    pi = point_index(4, F)
    for d in range(1, 5):
        for U in itertools.islice(all_subspaces(4, d, F), 6):
            mask = pi.mask_of(U)
            assert bin(mask).count("1") == num_points(d, 2)
            back = pi.vectors_of_mask(mask)
            assert sorted(back) == sorted(U.points())


# Largest n per q with q^n small enough to list every vector.
DIFF_AMBIENTS = {
    2: 8, 3: 5, 4: 4, 5: 3, 8: 3, 9: 3, 16: 3, 32: 2, 64: 2, 256: 2
}
# Orders above 16 occur as the towers GF(b^t) that spread walks.
TOWER_OF = {32: (2, 5), 64: (8, 2), 256: (16, 2)}


def _listing_field(q):
    if q in TOWER_OF:
        b, t = TOWER_OF[q]
        return extension_field(make_field(b), t)
    return make_field(q)


@st.composite
def random_subspaces(draw):
    q = draw(st.sampled_from(sorted(DIFF_AMBIENTS)))
    n = draw(st.integers(1, DIFF_AMBIENTS[q]))
    rows = draw(st.lists(
        st.tuples(*[st.integers(0, q - 1)] * n), min_size=0, max_size=n
    ))
    return span(rows, n, _listing_field(q))


@settings(max_examples=120, deadline=None)
@given(U=random_subspaces())
def test_point_layer_matches_listing_every_vector(U):
    """mask_of, points, rank and unrank against a reference that lists all
    q^n vectors and keeps those with leading code 1, in product order,
    which is lexicographic."""
    n, F = U.n, U.field
    every = [
        v for v in itertools.product(range(F.q), repeat=n)
        if next((x for x in v if x), 0) == 1
    ]
    inside = [v for v in every if U.contains(v)]
    position = {v: i for i, v in enumerate(every)}
    pi = point_index(n, F)
    assert pi.size == len(every)
    assert U.points() == tuple(inside)
    assert pi.mask_of(U) == sum(1 << position[v] for v in inside)
    for i, v in enumerate(every):
        assert pi.unrank(i) == v
        assert pi.rank(v) == i
    for v in inside:
        for c in F.nonzero():
            assert pi.rank(tuple(F.mul(c, x) for x in v)) == position[v]


def test_bad_vectors_are_rejected():
    F2, F3 = make_field(2), make_field(3)
    with pytest.raises(BadRange):
        span([(5, 0)], 2, F2)
    with pytest.raises(BadRange):
        span([(1, -1)], 2, F2)
    with pytest.raises(BadRange):
        span([(1, 1.0)], 2, F2)
    with pytest.raises(DimensionMismatch):
        span([(1, 0, 0)], 2, F2)
    with pytest.raises(BadRange):
        nullspace([(0, 3)], 2, F3)
    with pytest.raises(BadRange):
        full_space(2, F2).contains((0, 2))
    pi = point_index(3, F3)
    with pytest.raises(DimensionMismatch):
        pi.rep_of((1, 0))
    with pytest.raises(BadRange):
        pi.rep_of((1, 3, 0))
    with pytest.raises(BadRange):
        pi.rank((0, 0, 0))
    for i in (-1, num_points(3, 3)):
        with pytest.raises(BadRange):
            pi.unrank(i)
    with pytest.raises(DimensionMismatch):
        pi.mask_of(full_space(2, F3))
    with pytest.raises(DimensionMismatch):
        pi.mask_of(full_space(3, F2))
    for q in (1, 0):
        with pytest.raises(BadRange):
            num_points(3, q)


def test_bool_element_codes_are_rejected():
    """A bool is not an element code, as in both file readers."""
    F2 = make_field(2)
    with pytest.raises(BadRange):
        span([(True, 0)], 2, F2)
    with pytest.raises(BadRange):
        span([(1, 0)], 2, F2).contains((True, 0))
    with pytest.raises(BadRange):
        point_index(2, F2).rep_of((True, 1))


def test_point_index_is_cached():
    F = make_field(2)
    assert point_index(4, F) is point_index(4, F)
    assert point_index(4, F) is not point_index(3, F)


def test_ambient_mismatch_rejected():
    F2 = make_field(2)
    F3 = make_field(3)
    U = span([(1, 0, 0)], 3, F2)
    W = span([(1, 0, 0, 0)], 4, F2)
    X = span([(1, 0, 0)], 3, F3)
    with pytest.raises(DimensionMismatch):
        subspace_sum(U, W)
    with pytest.raises(DimensionMismatch):
        intersect(U, X)


def test_subspace_ordering_key_is_total():
    F = make_field(2)
    planes = list(all_subspaces(3, 2, F))
    keys = [U.sort_key() for U in planes]
    assert len(set(keys)) == len(keys)
    assert sorted(planes, key=lambda u: u.sort_key()) == sorted(
        planes, key=lambda u: u.sort_key()
    )


def test_span_output_is_reduced_row_echelon():
    """Pivot columns strictly increase, pivot entries are 1, and every
    pivot column is zero away from its pivot row."""
    F = make_field(3)
    U = span([(2, 1, 0, 1), (1, 1, 1, 0), (0, 2, 1, 2)], 4, F)
    pivots = []
    for row in U.basis:
        j = next(i for i, x in enumerate(row) if x)
        assert row[j] == 1
        pivots.append(j)
    assert pivots == sorted(set(pivots))
    for r, row in enumerate(U.basis):
        for other, j in enumerate(pivots):
            if other != r:
                assert row[j] == 0


# Largest n per q with q^n <= 5000.
KERNEL_AMBIENTS = {2: 12, 3: 7, 4: 6, 5: 5, 7: 4, 8: 4, 9: 3, 16: 3}


@st.composite
def kernel_cases(draw):
    q = draw(st.sampled_from(sorted(KERNEL_AMBIENTS)))
    n = draw(st.integers(1, KERNEL_AMBIENTS[q]))
    rows = draw(st.lists(
        st.tuples(*[st.integers(0, q - 1)] * n), min_size=0, max_size=n
    ))
    return span(rows, n, make_field(q))


def _reduced_echelon(rows):
    """Pivots 1 and strictly increasing, pivot columns zero elsewhere."""
    pivots = []
    for row in rows:
        j = next((i for i, x in enumerate(row) if x), None)
        if j is None or row[j] != 1 or (pivots and j <= pivots[-1]):
            return False
        pivots.append(j)
    return all(
        row[j] == 0
        for r, row in enumerate(rows)
        for k, j in enumerate(pivots)
        if k != r
    )


@settings(max_examples=100, deadline=None)
@given(U=kernel_cases())
def test_orthogonal_matches_brute_force_kernel(U):
    """orthogonal(U) against the kernel found by testing all q^n vectors
    with a local dot product, and against the span of its basis closed
    up by local field arithmetic."""
    n, F = U.n, U.field
    kernel = {
        v for v in itertools.product(range(F.q), repeat=n)
        if all(_dot(F, v, u) == 0 for u in U.basis)
    }
    W = orthogonal(U)
    assert W.dim == n - U.dim
    assert _reduced_echelon(W.basis)
    spanned = {(0,) * n}
    for w in W.basis:
        spanned = {
            tuple(F.add(x, F.mul(c, y)) for x, y in zip(s, w))
            for s in spanned
            for c in range(F.q)
        }
    assert spanned == kernel
    assert W.points() == tuple(sorted(
        v for v in kernel if next((x for x in v if x), 0) == 1
    ))
    assert orthogonal(W) == U
