"""Hyperplane incidence statistics for subspace partitions.

For a partition P of V(n, q) and a hyperplane H, the profile of H counts,
for each occurring dimension d, the number b_{H,d} of d-members contained
in H.  Summing profile data over all hyperplanes double-counts incidences
in two ways, which yields a family of exact identities; these are the
workhorse consistency checks of the whole package.

Everything rests on the per-hyperplane counts b_{H,d}, kept on the
partition one column per dimension, so the size, incidence, moment, beta
and profile checks of one partition count each dimension once.  Column
entry i belongs to the i-th hyperplane in canonical functional order (the
order of all_hyperplanes): the kernel of the functional of point rank i.
Two paths fill a column, chosen by the field order of the partition.

Over GF(2) the counts come from the point side.  For a d-subspace U,
d >= 1, and a functional a != 0, ker(a) & U is U or a hyperplane of U,
and theta(d) - theta(d - 1) = 2^(d-1), so in points
    |ker(a) & U| = theta(d - 1) + [U <= ker(a)] * 2^(d-1).
Summing over the n_d listed d-members, whatever they are,
    b_{ker a, d} = (sum_p m_d(p) [a.p = 0] - n_d theta(d - 1)) / 2^(d-1),
where m_d(p) counts the listed d-members through the point p.  Nothing
here assumes the members are disjoint or distinct, so the counts are
exact for any member list, and broken partitions report what they are.
The member point masks are added as binary numbers into bit planes M_k
of m_d (a ripple carry per member).  Over GF(2) a point of rank r is the
vector with binary value r + 1, and the functional of rank i has value
a = i + 1, so the points with a.p = 1 are the XOR, over the set bits b
of a, of the masks X_b of the points whose value has bit b set.  Walking
a = 1, ..., 2^n - 1 in Gray order flips one bit per step, so each step
updates that odd-side mask by one XOR, and then
    sum_p m_d(p) [a.p = 0] = sum_k 2^k (|M_k| - |odd & M_k|).
This walks each member's own theta(d) points once (the same masks serve
validate and union_structure) and spends a few big-integer operations
per hyperplane.

For q > 2 incidences are counted from the member side, by duality.  The
hyperplane ker(a) contains a member U exactly when a lies in U^perp, so
the i-th hyperplane contains U exactly when the point of rank i lies in
U^perp.  Each member's dual is walked once (theta(n - d) points), adding
1 to the column at the rank of each of its points; nothing is kept on
the member.

hyperplane_masks, the hyperplane-side path, is kept as the reference the
tests compare both paths against.

Throughout, theta(j) denotes the number of points of a j-dimensional space,
with theta(j) = 0 for j <= 0.
"""
from __future__ import annotations

from collections import Counter
from math import comb

from ._record import record
from .enumeration import (
    all_hyperplanes,
    hyperplane_functional,
)
from .errors import (
    BadRange,
    EmptySupertail,
    HypothesisNotMet,
    IdentityViolation,
    NotAHyperplane,
)
from .fields import _check_int
from .partitions import supertail
from .spaces import num_points, orthogonal, point_index


def _theta(j, q):
    return 0 if j <= 0 else num_points(j, q)


_HYPERPLANE_MASKS: dict = {}


def hyperplane_masks(n, field):
    """The hyperplanes of V(n, q) paired with their point-set bit masks,
    in canonical functional order.  Cached per ambient."""
    key = (n, field.key)
    if key not in _HYPERPLANE_MASKS:
        pi = point_index(n, field)
        pairs = tuple(
            (H, pi.mask_of(H)) for H in all_hyperplanes(n, field)
        )
        _HYPERPLANE_MASKS[key] = pairs
    return _HYPERPLANE_MASKS[key]


def _add_mask(planes, mask):
    """Add the 0/1 vector mask to the bit-sliced counts planes, in place:
    planes[k] holds bit k of every count."""
    carry = mask
    for k, plane in enumerate(planes):
        planes[k] = plane ^ carry
        carry &= plane
        if not carry:
            return
    planes.append(carry)


_VALUE_BIT_MASKS: dict = {}


def _value_bit_masks(n):
    """X[b] for 0 <= b < n: the rank mask of the points of V(n, 2) whose
    binary value r + 1 has bit b set, built by doubling one period of
    2^b unset and 2^b set values."""
    if n not in _VALUE_BIT_MASKS:
        masks = []
        for b in range(n):
            run = 1 << b
            pattern, width = ((1 << run) - 1) << run, 2 * run
            while width < 1 << n:
                pattern |= pattern << width
                width *= 2
            masks.append(pattern >> 1)
        _VALUE_BIT_MASKS[n] = masks
    return _VALUE_BIT_MASKS[n]


def _point_side_counts(P, dims):
    """Columns for dims over GF(2), from the point multiplicities of each
    dimension and one Gray walk of the functionals (module docstring)."""
    pi = point_index(P.n, P.field)
    specs = []
    for d in dims:
        members = P.members_of_dim(d)
        planes = []
        for m in members:
            _add_mask(planes, pi.mask_of(m))
        total = sum(plane.bit_count() << k for k, plane in enumerate(planes))
        const = total - len(members) * _theta(d - 1, 2)
        specs.append(
            ([0] * pi.size, const, tuple(enumerate(planes)), d - 1)
        )
    flips = _value_bit_masks(P.n)
    odd = 0
    for i in range(1, pi.size + 1):
        odd ^= flips[(i & -i).bit_length() - 1]
        a = i ^ i >> 1
        for col, const, planes, shift in specs:
            inside = const
            for k, plane in planes:
                inside -= (odd & plane).bit_count() << k
            col[a - 1] = inside >> shift
    return [col for col, *_ in specs]


def _dual_counts(P, d):
    """The column for d: each d-member adds 1 at the rank of every point
    of its dual (module docstring)."""
    pi = point_index(P.n, P.field)
    col = [0] * pi.size
    for m in P.members_of_dim(d):
        for i in pi._ranks(orthogonal(m)):
            col[i] += 1
    return col


def _hyperplane_counts(P, dims):
    """For each d in dims, the list over hyperplanes (canonical order) of
    the number of d-members each hyperplane contains.  Each list is built
    once per partition and kept in its _counts slot; callers must not
    change it.  Over GF(2) the counts come from the point side, otherwise
    from the members' duals (module docstring)."""
    missing = [d for d in dims if d not in P._counts]
    if missing:
        if P.field.q == 2:
            cols = _point_side_counts(P, missing)
        else:
            cols = [_dual_counts(P, d) for d in missing]
        P._counts.update(zip(missing, cols))
    return [P._counts[d] for d in dims]


@record
class HyperplaneProfile:
    """Counts of members inside one hyperplane, by occurring dimension."""

    dims: tuple
    counts: tuple

    def count(self, d):
        for dim, c in zip(self.dims, self.counts):
            if dim == d:
                return c
        return 0


def profile(P, H):
    """The counts b_{H,d} of H, read from the kept columns at the rank of
    H's functional."""
    if H.n != P.n or H.field.q != P.field.q:
        raise NotAHyperplane("hyperplane from a different ambient")
    if H.dim != P.n - 1:
        raise NotAHyperplane(f"dimension {H.dim} in ambient {P.n}")
    i = point_index(P.n, P.field).rank(hyperplane_functional(H))
    dims = P.dims()
    return HyperplaneProfile(
        dims, tuple(col[i] for col in _hyperplane_counts(P, dims))
    )


@record
class ProfileHistogram:
    """Multiplicities s_b of each profile vector b over all hyperplanes."""

    dims: tuple
    classes: tuple  # ((counts, multiplicity), ...) sorted by counts

    def total(self):
        return sum(mult for _, mult in self.classes)

    def as_dict(self):
        return dict(self.classes)


def _profile_vectors(P):
    """Profile count vector for every hyperplane, in canonical order."""
    cols = _hyperplane_counts(P, P.dims())
    if not cols:
        return [()] * num_points(P.n, P.field.q)
    return list(zip(*cols))


def histogram(P):
    counter = Counter(_profile_vectors(P))
    classes = tuple(sorted(counter.items()))
    return ProfileHistogram(P.dims(), classes)


@record
class IdentityCheck:
    name: str
    lhs: object
    rhs: object
    ok: bool
    skipped: bool = False
    reason: str = ""


@record
class IdentityReport:
    checks: tuple

    @property
    def ok(self):
        return all(c.ok for c in self.checks if not c.skipped)

    def lines(self):
        out = []
        for c in self.checks:
            if c.skipped:
                out.append(f"skip {c.name}: {c.reason}")
            else:
                mark = "ok " if c.ok else "FAIL"
                out.append(f"{mark} {c.name}: {c.lhs} vs {c.rhs}")
        return out


def verify_incidence_identities(P):
    """The four double-counting identities relating profile multiplicities
    to the type of the partition.

    With s_b the multiplicity of profile b and n_d the number of d-members:
    (1) sum_b s_b = theta(n);
    (2) sum_b b_d s_b = n_d theta(n - d);
    (3) sum_b C(b_d, 2) s_b = C(n_d, 2) theta(n - 2d);
    (4) sum_b b_d b_e s_b = n_d n_e theta(n - d - e) for d != e.
    Identities (2) to (4) are stated for 1 <= d, e <= n - 2; dimensions
    outside that window are reported as skipped.

    Identity (2) counts the hyperplanes through each member, and any
    d-subspace lies in exactly theta(n - d) hyperplanes, so it holds for
    every member list: it checks the incidence counting code, not the
    partition, as (1) checks only the number of hyperplanes; the tests
    check that code against the hyperplane-side masks.  Identities (3) and
    (4) count hyperplanes through pairs of members, which span dimension
    d + e only when the two meet trivially, so they check the partition.
    """
    n, q = P.n, P.field.q
    hist = histogram(P)
    ptype = P.type()
    checks = [
        IdentityCheck(
            "profile classes cover all hyperplanes",
            hist.total(),
            num_points(n, q),
            hist.total() == num_points(n, q),
        )
    ]
    dims = hist.dims
    pos = {d: i for i, d in enumerate(dims)}
    in_window = {d for d in dims if 1 <= d <= n - 2}
    for d in dims:
        if d not in in_window:
            checks.append(
                IdentityCheck(
                    f"first and second moments at dim {d}",
                    None,
                    None,
                    True,
                    skipped=True,
                    reason=f"dimension {d} outside [1, {n - 2}]",
                )
            )
            continue
        nd = ptype.count(d)
        lhs1 = sum(b[pos[d]] * s for b, s in hist.classes)
        rhs1 = nd * _theta(n - d, q)
        checks.append(
            IdentityCheck(f"member incidences at dim {d}", lhs1, rhs1, lhs1 == rhs1)
        )
        lhs2 = sum(comb(b[pos[d]], 2) * s for b, s in hist.classes)
        rhs2 = comb(nd, 2) * _theta(n - 2 * d, q)
        checks.append(
            IdentityCheck(f"member pair incidences at dim {d}", lhs2, rhs2, lhs2 == rhs2)
        )
    window = sorted(in_window)
    for i, d in enumerate(window):
        for e in window[i + 1:]:
            lhs = sum(b[pos[d]] * b[pos[e]] * s for b, s in hist.classes)
            rhs = ptype.count(d) * ptype.count(e) * _theta(n - d - e, q)
            checks.append(
                IdentityCheck(
                    f"cross incidences at dims {d},{e}", lhs, rhs, lhs == rhs
                )
            )
    return IdentityReport(tuple(checks))


def verify_size_identity(P):
    """Every hyperplane sees the whole partition size through its profile:
    |P| = 1 + sum_d b_{H,d} q^d."""
    q = P.field.q
    size = P.size
    dims = P.dims()
    vectors = _profile_vectors(P)
    wrong = {}
    for vec in set(vectors):
        rhs = 1 + sum(b * q ** d for d, b in zip(dims, vec))
        if rhs != size:
            wrong[vec] = rhs
    checks = []
    if wrong:
        for i, vec in enumerate(vectors):
            if vec in wrong:
                checks.append(IdentityCheck(
                    f"hyperplane {i} size identity", size, wrong[vec], False
                ))
    checks.append(
        IdentityCheck(
            "size identity over all hyperplanes",
            size,
            "1 + sum b_d q^d",
            not checks,
        )
    )
    return IdentityReport(tuple(checks))


def supertail_quotient(P, cut, H):
    """The integer c_H with sum_{d < cut} (n_d - b_{H,d}) q^d = c_H q^cut.

    Equivalently c_H = q^(n - cut) - sum_{d >= cut} (n_d - b_{H,d})
    q^(d - cut).  Raises IdentityViolation if the two expressions disagree
    or c_H is negative, which cannot happen for a valid partition.
    """
    n, q = P.n, P.field.q
    dims = P.dims()
    _check_int("cut", cut)
    if cut not in dims:
        raise BadRange(f"cut {cut} is not an occurring dimension {dims}")
    prof = profile(P, H)
    ptype = P.type()
    c = q ** (n - cut)
    for d in dims:
        if d >= cut:
            c -= (ptype.count(d) - prof.count(d)) * q ** (d - cut)
    low = sum(
        (ptype.count(d) - prof.count(d)) * q ** d for d in dims if d < cut
    )
    if c < 0:
        raise IdentityViolation(f"negative supertail quotient {c}")
    if low != c * q ** cut:
        raise IdentityViolation(
            f"quotient mismatch: low-dimension excess {low} != {c} * q^{cut}"
        )
    return c


@record
class BetaStats:
    """Weighted tail loads beta_H = sum_{d <= t} b_{H,d} q^d per hyperplane."""

    cut: int
    tail_top: int
    tail_size: int
    values: tuple
    beta0: int
    minimum_tail: bool
    c0: object  # int in the minimum regime, else None


def beta_stats(P, cut):
    """Tail loads over all hyperplanes, their minimum beta0, and in the
    extremal regime (tail of size q^t + 1 with cut < 2t) the integer c0
    with sum_{d <= t} n_d theta(d) = (c0 q^cut - 1) / (q - 1).

    The tail size always satisfies |ST| >= beta0 + 1.
    """
    st = supertail(P, cut, strict=False)
    if not st.members:
        raise EmptySupertail(f"no members below dimension {cut}")
    n, q = P.n, P.field.q
    t = st.top_dim
    dims = [d for d in P.dims() if d < cut]
    values = [0] * num_points(n, q)
    for d, col in zip(dims, _hyperplane_counts(P, dims)):
        weight = q ** d
        values = [v + b * weight for v, b in zip(values, col)]
    beta0 = min(values)
    if len(st.members) < beta0 + 1:
        raise IdentityViolation(
            f"tail size {len(st.members)} below beta0 + 1 = {beta0 + 1}"
        )
    minimum_tail = len(st.members) == q ** t + 1 and cut < 2 * t
    c0 = None
    if minimum_tail:
        if beta0 != q ** t:
            raise IdentityViolation(
                f"extremal tail must have beta0 = q^{t}, got {beta0}"
            )
        ptype = P.type()
        total = sum(ptype.count(d) * num_points(d, q) for d in dims)
        num = (q - 1) * total + 1
        if num % q ** cut:
            raise IdentityViolation(
                f"tail point count {total} does not solve the c0 equation"
            )
        c0 = num // q ** cut
    return BetaStats(cut, t, len(st.members), tuple(values), beta0, minimum_tail, c0)


@record
class ExtremalRegime:
    """Parameters of the top-dimension histogram in the peeled regime."""

    k: int
    r: int
    ell: int
    delta: int
    gamma: int
    tail_top: int
    tail_size: int


@record
class AlphaContext:
    """Histogram alpha_i = number of hyperplanes containing exactly i
    members of the chosen dimension, with its first two moments."""

    family_dim: int
    family_size: int
    alpha: tuple  # ((i, count), ...) sorted, zero counts omitted
    x: int        # sum i alpha_i
    y: int        # sum C(i, 2) alpha_i
    z: int        # sum alpha_i = theta(n)
    regime: object  # ExtremalRegime or None

    def as_dict(self):
        return dict(self.alpha)

    def count(self, i):
        return self.as_dict().get(i, 0)


def alpha_histogram(P, family_dim):
    """Distribution of family members over hyperplanes for one dimension.

    When the family is the top dimension of a partition obtained by
    peeling (n = k*f + r with k >= 2, 1 <= r < f, n_f = ell * q^f, and a
    tail of extremal size q^t + 1 with f < 2t), the returned regime
    parameters locate the support of the histogram at {delta, ell}.
    """
    n, q = P.n, P.field.q
    _check_int("family_dim", family_dim)
    if family_dim not in P.dims():
        raise BadRange(f"no members of dimension {family_dim}")
    fam = P.members_of_dim(family_dim)
    (inside,) = _hyperplane_counts(P, (family_dim,))
    alpha = tuple(sorted(Counter(inside).items()))
    x = sum(i * c for i, c in alpha)
    y = sum(comb(i, 2) * c for i, c in alpha)
    z = sum(c for _, c in alpha)
    regime = None
    f = family_dim
    if f == max(P.dims()):
        k, r = divmod(n, f)
        if k >= 2 and 1 <= r < f:
            ell = q ** r * sum(q ** (i * f) for i in range(k - 1))
            st = supertail(P, f, strict=False)
            t = st.top_dim
            if (
                st.members
                and len(fam) == ell * q ** f
                and len(st.members) == q ** t + 1
                and t < f < 2 * t
            ):
                regime = ExtremalRegime(
                    k, r, ell, ell - q ** r, q ** ((k - 1) * f + r),
                    t, len(st.members),
                )
    return AlphaContext(f, len(fam), alpha, x, y, z, regime)


def verify_moment_identities(P, family_dim):
    """Exact first and second moments of the alpha histogram:
    x = n_f theta(n - f), y = C(n_f, 2) theta(n - 2f), z = theta(n)."""
    n, q = P.n, P.field.q
    ctx = alpha_histogram(P, family_dim)
    nf = ctx.family_size
    checks = (
        IdentityCheck(
            f"first moment at dim {family_dim}",
            ctx.x,
            nf * _theta(n - family_dim, q),
            ctx.x == nf * _theta(n - family_dim, q),
        ),
        IdentityCheck(
            f"second moment at dim {family_dim}",
            ctx.y,
            comb(nf, 2) * _theta(n - 2 * family_dim, q),
            ctx.y == comb(nf, 2) * _theta(n - 2 * family_dim, q),
        ),
        IdentityCheck(
            "histogram totals theta(n)",
            ctx.z,
            num_points(n, q),
            ctx.z == num_points(n, q),
        ),
    )
    return IdentityReport(checks)


def tail_implication_checks(P, cut):
    """Checks specific to a supertail of type [t^1, a^(q^t)]:

    divisibility: alpha_i != 0 for the a-family implies q^(t-a) divides i;
    implication:  b_{H,a} = 0 forces b_{H,t} = 1 for every hyperplane.

    Raises HypothesisNotMet when the tail does not have that exact type.
    """
    st = supertail(P, cut)
    counts = Counter(m.dim for m in st.members)
    dims = sorted(counts)
    q = P.field.q
    if len(dims) != 2:
        raise HypothesisNotMet(f"tail has dimensions {dims}, need exactly two")
    a, t = dims
    if counts[t] != 1 or counts[a] != q ** t:
        raise HypothesisNotMet(
            f"tail type [{t}^{counts[t]}, {a}^{counts[a]}] is not [t^1, a^(q^t)]"
        )
    ctx = alpha_histogram(P, a)
    step = q ** (t - a)
    checks = []
    for i, c in ctx.alpha:
        checks.append(
            IdentityCheck(
                f"alpha support at {i} divisible by q^(t-a)",
                i % step,
                0,
                i % step == 0,
            )
        )
    dims_all = P.dims()
    pos = {d: i for i, d in enumerate(dims_all)}
    bad = 0
    for vec in _profile_vectors(P):
        if vec[pos[a]] == 0 and vec[pos[t]] != 1:
            bad += 1
    checks.append(
        IdentityCheck(
            "hyperplanes missing the point family contain the t-member",
            bad,
            0,
            bad == 0,
        )
    )
    return IdentityReport(tuple(checks))
