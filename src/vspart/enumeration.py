"""Exhaustive enumeration of subspaces and hyperplanes.

Subspaces of a fixed dimension are generated from their reduced row echelon
shape: choose the pivot columns, then run an odometer over the free entries.
The stream order (pivot patterns lexicographic, free entries row-major) is
deterministic and documented so downstream searches are reproducible.

shape_masks walks the same shapes in the same order but yields point masks
and builds no Subspace.  The free columns of row k are the columns after
its pivot that are no later pivot, so rows k..d-1 of a shape are filled the
same way whatever rows come before them.  The walk therefore fills rows
last first: for each tuple of later pivots it keeps the point mask and the
span values of every fill of those rows, and a shape with those later rows
adds only the points its first row leads (PointIndex._row_step, the step
PointIndex._ranks takes for odd q).
"""
from __future__ import annotations

from itertools import chain, combinations, product

from .errors import BadRange, BudgetExceeded, NotAHyperplane
from .fields import _check_int
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
    _check_int("n", n, 0)
    _check_int("d", d, 0)
    _check_int("q", q, 2)
    if d > n:
        return 0
    result = 1
    for i in range(1, d + 1):
        result = result * (q ** (n - d + i) - 1) // (q ** i - 1)
    return result


def all_subspaces(n, d, field, budget=None):
    """An iterator over every d-dimensional subspace of V(n, q), each once.

    The arguments are checked at the call, and BudgetExceeded is raised
    there when the exact count is beyond the budget (ENUMERATION_BUDGET
    by default), before anything is iterated.
    """
    _check_int("n", n, 0)
    _check_int("d", d, 0, n)
    limit = ENUMERATION_BUDGET if budget is None else budget
    _check_int("budget", limit, 0)
    total = gaussian_binomial(n, d, field.q)
    if total > limit:
        raise BudgetExceeded(
            f"{total} subspaces of dimension {d} in V({n},{field.q}) "
            f"exceed the budget {limit}"
        )
    if d == 0:
        return iter([zero_subspace(n, field)])
    return _walk(n, d, field)


def _walk(n, d, field):
    """The d-subspaces of V(n, q), d >= 1, in all_subspaces order."""
    q = field.q
    for pivots in combinations(range(n), d):
        # The free entries (row, column), row-major: the columns after
        # each row's pivot that are no pivot.
        free = [(i, j) for i, p in enumerate(pivots)
                for j in range(p + 1, n) if j not in pivots]
        base = [[0] * n for _ in range(d)]
        for i, pc in enumerate(pivots):
            base[i][pc] = 1
        for values in product(range(q), repeat=len(free)):
            rows = [list(r) for r in base]
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            yield Subspace(field, n, tuple(tuple(r) for r in rows))


def shape_masks(pi, d):
    """Point mask of every d-subspace of pi's V(n, q), in all_subspaces
    order, walked from echelon shapes with no Subspace built (see the
    module docstring)."""
    n, q = pi.n, pi.field.q
    _check_int("d", d, 0, n)
    if d == 0:
        return iter([0])
    # later pivots -> (span values of every fill, q^len each, end to end;
    # point mask of every fill)
    known = {(): ([0], [0])}

    def fills(pivots, spanned):
        """The point mask of each fill of rows with these pivots, in
        odometer order, paired with the base-q values of its span when
        spanned."""
        p, later = pivots[0], pivots[1:]
        if later not in known:
            values, masks = [], []
            for mask, span_values in fills(later, True):
                masks.append(mask)
                values += span_values
            known[later] = values, masks
        values, masks = known[later]
        size = len(values)
        m = size // len(masks)
        shift = pi._shift[p]
        scalars = range(1, q) if spanned else (1,)
        cols = [j for j in range(p + 1, n) if j not in later]
        for codes in product(range(q), repeat=len(cols)):
            entries = [(j, x) for j, x in zip(cols, codes) if x]
            grown = pi._row_step(values, p, entries, scalars)
            # grown[:size] (c = 1) are the points this row leads.
            bits = [1 << (v - shift) for v in grown[:size]]
            for i, mask in enumerate(masks):
                a = i * m
                mask |= sum(bits[a:a + m])
                if spanned:
                    yield mask, values[a:a + m] + [
                        v for b in range(a, len(grown), size)
                        for v in grown[b:b + m]
                    ]
                else:
                    yield mask

    return chain.from_iterable(
        fills(pivots, False) for pivots in combinations(range(n), d)
    )


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
    if mode not in ("span", "hyperplane-count"):
        raise BadRange(f"unknown mode {mode!r}")
    pts = set(points)
    if not pts:
        return zero_subspace(n, field)
    if mode == "span":
        S = span(sorted(pts), n, field)
        if num_points(S.dim, field.q) == len(pts) and set(S.points()) == pts:
            return S
        return None
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
