"""Exhaustive enumeration of subspaces and hyperplanes.

Subspaces of a fixed dimension are generated from their reduced row echelon
shape: choose the pivot columns, then run an odometer over the free entries.
The stream order (pivot patterns lexicographic, free entries row-major) is
deterministic and documented so downstream searches are reproducible.
"""
from __future__ import annotations

from itertools import combinations, product

from .errors import BadRange, BudgetExceeded, NotAHyperplane
from .spaces import (
    Subspace,
    num_points,
    nullspace,
    orthogonal,
    point_index,
    span,
    zero_subspace,
)

ENUMERATION_BUDGET = 10 ** 8


def gaussian_binomial(n, d, q):
    """Number of d-dimensional subspaces of V(n, q), exactly."""
    if d < 0 or n < 0:
        raise BadRange(f"negative arguments: n={n}, d={d}")
    if d > n:
        return 0
    result = 1
    for i in range(1, d + 1):
        result = result * (q ** (n - d + i) - 1) // (q ** i - 1)
    return result


def all_subspaces(n, d, field, budget=None):
    """Yield every d-dimensional subspace of V(n, q) once.

    Raises BudgetExceeded up front when the exact count is beyond the
    budget (ENUMERATION_BUDGET by default).
    """
    if not 0 <= d <= n:
        raise BadRange(f"dimension {d} out of range for ambient {n}")
    limit = budget if budget is not None else ENUMERATION_BUDGET
    total = gaussian_binomial(n, d, field.q)
    if total > limit:
        raise BudgetExceeded(
            f"{total} subspaces of dimension {d} in V({n},{field.q}) "
            f"exceed the budget {limit}"
        )
    if d == 0:
        yield zero_subspace(n, field)
        return
    q = field.q
    for pivots in combinations(range(n), d):
        pivot_set = set(pivots)
        free = [
            (i, j)
            for i in range(d)
            for j in range(pivots[i] + 1, n)
            if j not in pivot_set
        ]
        base = [[0] * n for _ in range(d)]
        for i, pc in enumerate(pivots):
            base[i][pc] = 1
        for values in product(range(q), repeat=len(free)):
            rows = [list(r) for r in base]
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            yield Subspace(field, n, tuple(tuple(r) for r in rows))


def all_hyperplanes(n, field):
    """The num_points(n, q) hyperplanes of V(n, q), as kernels of the
    canonical functionals, in representative order."""
    pi = point_index(n, field)
    return [nullspace([pi.unrank(i)], n, field) for i in range(pi.size)]


def hyperplane_functional(H):
    """The canonical functional whose kernel is the hyperplane H."""
    if H.dim != H.n - 1:
        raise NotAHyperplane(f"dimension {H.dim} in ambient {H.n}")
    duals = orthogonal(H)
    return duals.points()[0]


def hyperplanes_containing(U):
    """All hyperplanes of the ambient that contain U; there are exactly
    num_points(n - dim U, q) of them."""
    n, field = U.n, U.field
    if U.dim == n:
        return []
    duals = orthogonal(U)
    return [nullspace([a], n, field) for a in duals.points()]


def recognize_subspace(points, n, field, mode="span"):
    """Decide whether a set of point representatives is exactly the point set
    of a subspace; return that subspace or None.

    The default mode closes the set under span.  Mode "hyperplane-count"
    instead checks the incidence criterion: a set of num_points(d, q)
    points is a d-subspace if and only if it lies in num_points(n - d, q)
    hyperplanes.  The two modes agree; the second exists as an independent
    cross-check and is much slower.
    """
    pts = set(points)
    if not pts:
        return zero_subspace(n, field)
    if mode == "span":
        S = span(sorted(pts), n, field)
        if num_points(S.dim, field.q) == len(pts) and set(S.points()) == pts:
            return S
        return None
    if mode == "hyperplane-count":
        d = None
        for cand in range(1, n + 1):
            if num_points(cand, field.q) == len(pts):
                d = cand
                break
        if d is None:
            return None
        containing = 0
        for H in all_hyperplanes(n, field):
            hset = set(H.points())
            if pts <= hset:
                containing += 1
        if containing != num_points(n - d, field.q):
            return None
        return span(sorted(pts), n, field)
    raise BadRange(f"unknown mode {mode!r}")
