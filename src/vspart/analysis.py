"""Structural analysis of supertails.

The supertail of a partition at an occurring dimension d_s collects every
member of smaller dimension.  Its size is bounded below by the minimum
partition size of V(d_s, q) with top dimension d_{s-1}, and when that bound
is met the union of the tail is forced to carry structure: for a wide gap
(d_s >= 2 d_{s-1}) it is a d_s-subspace, and in the narrow-gap cases proved
so far it is either a spread of a 2d_1-subspace or a near-spread
[d_2^1, d_1^(q^d_2)] of a (d_1 + d_2)-subspace.

Assert mode raises StructureViolation when a proven conclusion fails on a
concrete instance; explore mode records findings and never raises, which is
what conjecture sweeps over open parameter ranges need.
"""
from __future__ import annotations

from collections import Counter
from enum import Enum

from ._record import record
from .errors import (
    EmptySupertail,
    HypothesisNotMet,
    IdentityViolation,
    NotDisjoint,
    StructureViolation,
)
from .fields import _check_int
from .hstats import beta_stats
from .partitions import min_partition_size, supertail
from .spaces import num_points, point_index, span


class TailClass(str, Enum):
    SPREAD = "spread"              # q^d + 1 members of one dimension d
    TWO_DIM = "two-dim"            # [d2^1, d1^(q^d2)] shape
    CUT_SUBSPACE = "cut-subspace"  # union is a subspace of dimension d_s
    SUBSPACE = "subspace"          # union is a subspace of some other shape
    NOT_SUBSPACE = "not-subspace"
    NOT_MINIMUM = "not-minimum"


@record
class BoundReport:
    cut: int
    tail_top: int
    size: int
    bound: int
    slack: int

    @property
    def ok(self):
        return self.slack >= 0

    @property
    def is_minimum(self):
        return self.slack == 0


def check_supertail_bound(P, cut):
    """Compare the tail size with its proven lower bound, the minimum size
    of a partition of V(cut, q) with largest dimension the tail's top, and
    report slack."""
    st = supertail(P, cut)
    bound = min_partition_size(cut, st.top_dim, P.field.q)
    return BoundReport(cut, st.top_dim, st.size, bound, st.size - bound)


def union_structure(members, n, field):
    """Union of pairwise disjoint subspaces: the recognized subspace (or
    None) together with a shape classification and the tail numerology."""
    if not members:
        raise EmptySupertail("no members to take a union of")
    pi = point_index(n, field)
    acc = 0
    for m in members:
        mask = pi.mask_of(m)
        if acc & mask:
            raise NotDisjoint("members share a point")
        acc |= mask
    q = field.q
    point_count = acc.bit_count()
    # A subspace of dimension j has theta(j) points, so a union with any
    # other count is none and needs no span.  Otherwise the span of the
    # members holds every member, and the union is that span exactly when
    # the two have the same number of points.
    theta = 0
    while theta < point_count:
        theta = theta * q + 1
    union = None
    if theta == point_count:
        union = span([row for m in members for row in m.basis], n, field)
        if num_points(union.dim, q) != point_count:
            union = None
    counts = Counter(m.dim for m in members)
    dims = sorted(counts)
    detail = {
        "dims": tuple(dims),
        "counts": tuple(counts[d] for d in dims),
        "point_count": point_count,
        "union_dim": None if union is None else union.dim,
    }
    if union is None:
        return None, TailClass.NOT_SUBSPACE, detail
    if len(dims) == 1:
        d = dims[0]
        if counts[d] == q ** d + 1 and union.dim == 2 * d:
            return union, TailClass.SPREAD, detail
    elif len(dims) == 2:
        d1, d2 = dims
        if counts[d2] == 1 and counts[d1] == q ** d2 and union.dim == d1 + d2:
            return union, TailClass.TWO_DIM, detail
    return union, TailClass.SUBSPACE, detail


@record
class SupertailReport:
    cut: int
    tail_top: int
    tail_dims: tuple
    tail_counts: tuple
    size: int
    bound: int
    is_minimum: bool
    narrow_gap: bool
    conditions: tuple        # ((name, holds), ...)
    union_dim: object        # int or None
    classification: TailClass
    beta0: object            # int or None
    c0: object               # int or None
    violations: tuple
    asserted: bool

    @property
    def ok(self):
        return not self.violations


def analyze_supertail(P, cut, mode="assert"):
    """Full structural report for the supertail at ``cut``.

    The proven conclusions are checked whenever their hypotheses hold: a
    minimum tail with d_s >= 2 d_{s-1} must union to a d_s-subspace, and a
    minimum tail with d_s < 2 d_{s-1} must match the spread or two-dimension
    template provided one of the structural side conditions holds (at most
    two tail dimensions, d_s = 2 d_{s-1} - 1, or all remaining members of
    one dimension).  Outside those hypotheses nothing is asserted; explore
    mode records what was found instead of raising.
    """
    if mode not in ("assert", "explore"):
        raise HypothesisNotMet(f"unknown mode {mode!r}")
    q = P.field.q
    st = supertail(P, cut)
    bound = min_partition_size(cut, st.top_dim, q)
    is_minimum = st.size == bound
    narrow = cut < 2 * st.top_dim
    tail_dims = sorted({m.dim for m in st.members})
    rest_dims = {m.dim for m in P.members if m.dim >= cut}
    conditions = (
        ("at most two tail dimensions", len(tail_dims) <= 2),
        ("cut equals 2*top - 1", cut == 2 * st.top_dim - 1),
        ("uniform dimensions above the cut", len(rest_dims) == 1),
    )
    union, cls, detail = union_structure(st.members, P.n, P.field)
    violations = []
    beta0 = c0 = None
    if is_minimum and narrow:
        try:
            stats = beta_stats(P, cut)
            beta0, c0 = stats.beta0, stats.c0
        except IdentityViolation as exc:
            violations.append(str(exc))
    if not is_minimum:
        cls = TailClass.NOT_MINIMUM
    else:
        if not narrow:
            if union is None or union.dim != cut:
                violations.append(
                    f"minimum wide-gap tail must union to a {cut}-subspace, "
                    f"got {detail['union_dim']}"
                )
            elif cls is TailClass.SUBSPACE:
                cls = TailClass.CUT_SUBSPACE
        elif any(holds for _, holds in conditions):
            if cls not in (TailClass.SPREAD, TailClass.TWO_DIM):
                violations.append(
                    f"minimum narrow-gap tail under a side condition must be "
                    f"a spread or near-spread, got {cls.value} with "
                    f"dims {detail['dims']} counts {detail['counts']} "
                    f"union_dim {detail['union_dim']}"
                )
    report = SupertailReport(
        cut=cut,
        tail_top=st.top_dim,
        tail_dims=tuple(tail_dims),
        tail_counts=tuple(
            sum(1 for m in st.members if m.dim == d) for d in tail_dims
        ),
        size=st.size,
        bound=bound,
        is_minimum=is_minimum,
        narrow_gap=narrow,
        conditions=conditions,
        union_dim=detail["union_dim"],
        classification=cls,
        beta0=beta0,
        c0=c0,
        violations=tuple(violations),
        asserted=mode == "assert",
    )
    if mode == "assert" and violations:
        raise StructureViolation("; ".join(violations))
    return report


@record
class GapReport:
    cut: int
    tail_top: int
    smallest_dim: int

    @property
    def ok(self):
        return self.cut <= self.tail_top + self.smallest_dim


def check_dimension_gap(P, cut):
    """For a minimum narrow-gap supertail, the cut cannot outrun the tail:
    d_s <= d_{s-1} + d_1.  Raises HypothesisNotMet outside that regime and
    StructureViolation if the proven inequality fails."""
    st = supertail(P, cut)
    q = P.field.q
    if st.size != min_partition_size(cut, st.top_dim, q):
        raise HypothesisNotMet("tail is not of minimum size")
    if not cut < 2 * st.top_dim:
        raise HypothesisNotMet("need d_s < 2 d_{s-1}")
    report = GapReport(cut, st.top_dim, P.dims()[0])
    if not report.ok:
        raise StructureViolation(
            f"d_s = {cut} exceeds d_(s-1) + d_1 = "
            f"{st.top_dim + P.dims()[0]}"
        )
    return report


@record
class NestedBoundReport:
    cut: int
    next_dim: int
    tail_size: int
    nested_size: int
    branches: tuple  # ((name, bound, ok), ...)

    @property
    def ok(self):
        return all(ok for _, _, ok in self.branches)


def check_nested_bound(P, cut):
    """Bounds for the supertail one occurring dimension up.

    With |ST| minimum at the cut, the (d_{s+1})-supertail obeys
    |ST'| >= sigma(d_{s+1}, d_s) + sigma(d_s, d_{s-1})      when s <= 3,
             d_s < 2 d_{s-1} and d_{s+1} < 2 d_s,
    |ST'| >= sigma(d_{s+1}, d_s) + sigma(d_s, d_{s-1}) - 1  when
             d_s >= 2 d_{s-1}, or s = 3 with d_3 = d_2 + d_1.
    Raises HypothesisNotMet when no branch applies.
    """
    _check_int("cut", cut)
    dims = P.dims()
    q = P.field.q
    if cut not in dims:
        raise HypothesisNotMet(f"cut {cut} does not occur")
    idx = dims.index(cut)
    s = idx + 1
    if s < 2:
        raise HypothesisNotMet("the cut needs a dimension below it")
    if idx + 1 >= len(dims):
        raise HypothesisNotMet("the cut needs a dimension above it")
    st = supertail(P, cut)
    if st.size != min_partition_size(cut, st.top_dim, q):
        raise HypothesisNotMet("tail is not of minimum size")
    next_dim = dims[idx + 1]
    nested = supertail(P, next_dim)
    base = min_partition_size(next_dim, cut, q) + min_partition_size(
        cut, st.top_dim, q
    )
    branches = []
    if s <= 3 and cut < 2 * st.top_dim and next_dim < 2 * cut:
        branches.append(("narrow chain", base, nested.size >= base))
    if cut >= 2 * st.top_dim or (s == 3 and cut == dims[0] + dims[1]):
        branches.append(("wide or additive", base - 1, nested.size >= base - 1))
    if not branches:
        raise HypothesisNotMet("no nested-bound branch applies")
    report = NestedBoundReport(
        cut, next_dim, st.size, nested.size, tuple(branches)
    )
    if not report.ok:
        failing = [name for name, _, ok in report.branches if not ok]
        raise StructureViolation(
            f"nested supertail bound failed for {failing}: "
            f"size {nested.size}, branches {report.branches}"
        )
    return report
