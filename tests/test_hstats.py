"""Hyperplane incidence statistics: profiles, identities, beta and alpha."""
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vspart.enumeration as enumeration
import vspart.hstats as hstats
import vspart.spaces as spaces
from vspart.cli import main
from vspart.constructions import beutelspacher, minimal_partition, refine, spread
from vspart.enumeration import all_hyperplanes
from vspart.errors import (
    BadRange,
    EmptySupertail,
    HypothesisNotMet,
    NotAHyperplane,
)
from vspart.fields import make_field
from vspart.fileio import write_partition
from vspart.hstats import (
    _dual_counts,
    _hyperplane_counts,
    _profile_vectors,
    alpha_histogram,
    beta_stats,
    histogram,
    hyperplane_masks,
    profile,
    supertail_quotient,
    tail_implication_checks,
    verify_incidence_identities,
    verify_moment_identities,
    verify_size_identity,
)
from vspart.partitions import SubspacePartition, validate
from vspart.spaces import full_space, num_points, point_index, span

F2 = make_field(2)
F3 = make_field(3)


def near_spread_v3():
    """Type [2^1, 1^4] in V(3, 2)."""
    return beutelspacher(3, 1, F2)


def tailed_v6():
    """Type [1^4, 2^1, 3^8] in V(6, 2): a 3-spread with one member split."""
    return refine(spread(6, 3, F2), 0, beutelspacher(3, 1, F2))


def test_profile_of_spread():
    P = spread(4, 2, F2)
    for H in all_hyperplanes(4, F2):
        p = profile(P, H)
        assert p.dims == (2,)
        assert p.counts == (1,)
        assert p.count(2) == 1
        assert p.count(1) == 0


def test_profile_distinguishes_hyperplanes():
    """In [2^1, 1^4] only the hyperplane equal to the 2-member contains
    any member at all, and it contains exactly that one."""
    P = near_spread_v3()
    two = next(m for m in P.members if m.dim == 2)
    special = 0
    for H in all_hyperplanes(3, F2):
        p = profile(P, H)
        if H == two:
            assert p.counts == (0, 1)
            special += 1
        else:
            assert p.counts == (2, 0)
    assert special == 1


def test_profile_rejects_non_hyperplanes():
    P = spread(4, 2, F2)
    with pytest.raises(NotAHyperplane):
        profile(P, span([(1, 0, 0, 0)], 4, F2))
    with pytest.raises(NotAHyperplane):
        profile(P, full_space(3, F2))


def test_histogram_frozen_values():
    P = near_spread_v3()
    h = histogram(P)
    assert h.dims == (1, 2)
    assert h.as_dict() == {(0, 1): 1, (2, 0): 6}
    assert h.total() == num_points(3, 2)
    hs = histogram(spread(4, 2, F2))
    assert hs.as_dict() == {(1,): 15}


def test_incidence_identities_on_corpus():
    for P in (spread(4, 2, F2), near_spread_v3(), tailed_v6(),
              minimal_partition(7, 3, F2), spread(4, 2, make_field(3))):
        rep = verify_incidence_identities(P)
        assert rep.ok
        assert all(c.ok for c in rep.checks)


def test_identities_skip_out_of_window_dimensions():
    """Dimensions outside [1, n-2] are skipped, not failed: the report
    stays ok and records the reason."""
    P = near_spread_v3()  # has a member of dimension n - 1
    rep = verify_incidence_identities(P)
    assert rep.ok
    skipped = [c for c in rep.checks if c.skipped]
    assert len(skipped) == 1
    assert "outside" in skipped[0].reason
    lines = rep.lines()
    assert any(line.startswith("skip") for line in lines)


def test_dual_path_incidence_sums():
    """Member-in-hyperplane totals from the hyperplane masks match the
    histogram moments."""
    P = minimal_partition(7, 3, F2)
    pi = point_index(P.n, P.field)
    sums = {}
    for _, hmask in hyperplane_masks(P.n, P.field):
        for m in P.members:
            if pi.mask_of(m) & ~hmask == 0:
                sums[m.dim] = sums.get(m.dim, 0) + 1
    assert sums == {2: 155, 3: 240}
    h = histogram(P)
    for i, d in enumerate(h.dims):
        assert sums[d] == sum(b[i] * s for b, s in h.classes)


def test_size_identity():
    for P in (spread(4, 2, F2), near_spread_v3(), tailed_v6(),
              minimal_partition(7, 3, F2)):
        rep = verify_size_identity(P)
        assert rep.ok
    one = SubspacePartition(3, F2, [full_space(3, F2)])
    assert verify_size_identity(one).ok


def test_supertail_quotient_values():
    P = near_spread_v3()
    two = next(m for m in P.members if m.dim == 2)
    assert supertail_quotient(P, 2, two) == 2
    others = [H for H in all_hyperplanes(3, F2) if H != two]
    assert sorted(supertail_quotient(P, 2, H) for H in others) == [1] * 6
    S = spread(4, 2, F2)
    for H in all_hyperplanes(4, F2):
        assert supertail_quotient(S, 2, H) == 0
    with pytest.raises(BadRange):
        supertail_quotient(P, 3, two)


def test_supertail_quotient_nonnegative_everywhere():
    for P in (tailed_v6(), minimal_partition(7, 3, F2)):
        cut = max(P.dims())
        for H in all_hyperplanes(P.n, P.field):
            assert supertail_quotient(P, cut, H) >= 0


def test_beta_stats_minimum_tails():
    """Both corpus minimum tails have beta0 = q^t = 4; the c0 equation
    gives 1 and 2 respectively."""
    b6 = beta_stats(tailed_v6(), 3)
    assert b6.tail_size == 5
    assert b6.beta0 == 4
    assert b6.minimum_tail
    assert b6.c0 == 1
    b7 = beta_stats(minimal_partition(7, 3, F2), 3)
    assert b7.tail_size == 5
    assert b7.beta0 == 4
    assert b7.minimum_tail
    assert b7.c0 == 2
    for b in (b6, b7):
        assert b.tail_size >= b.beta0 + 1
        assert min(b.values) == b.beta0


def test_beta_stats_non_minimum_tail():
    """A tail larger than q^t + 1 only gets the generic floor."""
    P = refine(spread(4, 2, F2), 0, spread(2, 1, F2))
    b = beta_stats(P, 2)
    assert b.tail_size == 3
    assert not b.minimum_tail
    assert b.c0 is None
    assert b.tail_size >= b.beta0 + 1
    with pytest.raises(EmptySupertail):
        beta_stats(spread(4, 2, F2), 2)


def test_alpha_histogram_extremal_regime():
    P = minimal_partition(7, 3, F2)
    ctx = alpha_histogram(P, 3)
    assert ctx.alpha == ((0, 7), (2, 120))
    assert ctx.x == 240
    assert ctx.y == 120
    assert ctx.z == 127
    assert ctx.count(0) == 7
    assert ctx.count(1) == 0
    assert ctx.count(5) == 0
    r = ctx.regime
    assert r is not None
    assert (r.k, r.r, r.ell, r.delta, r.gamma) == (2, 1, 2, 0, 16)
    assert set(dict(ctx.alpha)) == {r.delta, r.ell}
    assert ctx.count(r.delta) == num_points((r.k - 1) * 3, 2)


def test_alpha_histogram_spread():
    ctx = alpha_histogram(spread(4, 2, F2), 2)
    assert ctx.alpha == ((1, 15),)
    assert ctx.regime is None
    with pytest.raises(BadRange):
        alpha_histogram(spread(4, 2, F2), 3)


def test_moment_identities():
    P = tailed_v6()
    rep = verify_moment_identities(P, 1)
    assert rep.ok
    ctx = alpha_histogram(P, 1)
    assert (ctx.x, ctx.y, ctx.z) == (124, 90, 63)
    assert verify_moment_identities(P, 3).ok
    assert verify_moment_identities(minimal_partition(7, 3, F2), 2).ok
    # single-member family: second moment degenerates to 0 = 0
    one = verify_moment_identities(beutelspacher(7, 3, F2), 4)
    assert one.ok


def test_tail_implication_checks():
    rep = tail_implication_checks(tailed_v6(), 3)
    assert rep.ok
    ctx = alpha_histogram(tailed_v6(), 1)
    for i, c in ctx.alpha:
        assert i % 2 == 0
    with pytest.raises(HypothesisNotMet):
        tail_implication_checks(minimal_partition(7, 3, F2), 3)
    P = refine(spread(4, 2, F2), 0, spread(2, 1, F2))
    with pytest.raises(HypothesisNotMet):
        tail_implication_checks(P, 2)


AMBIENTS = [(n, 2) for n in range(2, 7)] + [(2, 3), (3, 3), (4, 3), (3, 4)]


def _replacements(d, field):
    """Partitions of V(d, q) with at least two members, from the builders,
    with the split into points last so that chains keep large members."""
    out = [minimal_partition(d, t, field) for t in range(d - 1, 1, -1)]
    out += [beutelspacher(d, k, field) for k in range(1, d // 2 + 1)]
    out += [spread(d, t, field) for t in range(d - 1, 0, -1) if d % t == 0]
    return out


def _moved(Q, rows):
    """Q under the linear map v -> v * rows, or Q itself when the rows are
    singular."""
    F, d = Q.field, Q.n
    if span(rows, d, F).dim < d:
        return Q
    members = []
    for U in Q.members:
        images = []
        for coeffs in U.basis:
            v = [0] * d
            for c, row in zip(coeffs, rows):
                v = [F.add(x, F.mul(c, y)) for x, y in zip(v, row)]
            images.append(tuple(v))
        members.append(span(images, d, F))
    return SubspacePartition(d, F, members)


@st.composite
def refined_partitions(draw):
    """A partition of a small V(n, q) built from the one-member partition
    {V} by a chain of refine calls, each splitting a member of dimension at
    least 2 by a moved copy of a constructed partition of it."""
    n, q = draw(st.sampled_from(AMBIENTS))
    F = make_field(q)
    P = SubspacePartition(n, F, [full_space(n, F)])
    for _ in range(draw(st.integers(1, 4))):
        splittable = [i for i, m in enumerate(P.members) if m.dim >= 2]
        if not splittable:
            break
        index = draw(st.sampled_from(splittable))
        d = P.members[index].dim
        Q = draw(st.sampled_from(_replacements(d, F)))
        entries = st.integers(0, q - 1)
        rows = draw(st.lists(
            st.tuples(*[entries] * d), min_size=d, max_size=d
        ))
        P = refine(P, index, _moved(Q, rows))
    return P


def test_dual_counts_reduce_each_member_once(monkeypatch):
    """U^perp is read off U's reduced basis, so counting the hyperplanes
    through each member takes one row reduction per member."""
    P = minimal_partition(7, 3, F2)
    calls = []
    rref = spaces._rref
    monkeypatch.setattr(
        spaces, "_rref", lambda *args: calls.append(1) or rref(*args)
    )
    for d in P.dims():
        _dual_counts(P, d)
    assert len(calls) == P.size


@settings(max_examples=150, deadline=None)
@given(P=refined_partitions())
def test_dual_counts_match_hyperplane_masks(P):
    """Every count read from the members' duals equals the count of
    members whose point mask lies inside each hyperplane's point mask."""
    pi = point_index(P.n, P.field)
    dims = P.dims()
    members = [(m.dim, pi.mask_of(m)) for m in P.members]
    pairs = hyperplane_masks(P.n, P.field)
    reference = [
        tuple(
            sum(1 for dim, mask in members if dim == d and mask & ~hmask == 0)
            for d in dims
        )
        for _, hmask in pairs
    ]
    assert validate(P).ok
    assert _profile_vectors(P) == reference
    h = histogram(P)
    assert h.dims == dims
    assert h.classes == tuple(sorted(Counter(reference).items()))
    for i, d in enumerate(dims):
        column = Counter(vec[i] for vec in reference)
        assert alpha_histogram(P, d).alpha == tuple(sorted(column.items()))
        assert verify_moment_identities(P, d).ok
    for (H, _), vec in zip(pairs, reference):
        assert profile(P, H).counts == vec
    assert verify_incidence_identities(P).ok
    assert verify_size_identity(P).ok


@st.composite
def broken_partitions(draw):
    """A refined partition spoiled one of three ways, with the way named:
    a member swapped for a subspace of its dimension that meets another
    member, a member listed twice, or a member dropped."""
    P = draw(refined_partitions())
    n, F, members = P.n, P.field, list(P.members)
    i = draw(st.integers(0, len(members) - 1))
    how = draw(st.sampled_from(("meet", "duplicate", "drop")))
    if how == "duplicate":
        members.append(members[i])
    elif how == "drop":
        del members[i]
    else:
        other = members[draw(st.sampled_from(
            [j for j in range(len(members)) if j != i]))]
        d = members[i].dim
        extra = draw(st.lists(
            st.tuples(*[st.integers(0, F.q - 1)] * n), max_size=d
        ))
        units = [tuple(int(k == j) for k in range(n)) for j in range(n)]
        rows = [other.basis[0]]
        for v in extra + units:
            if span(rows + [v], n, F).dim <= d:
                rows.append(v)
        members[i] = span(rows, n, F)
        assert members[i].dim == d
    return how, SubspacePartition(n, F, members)


@settings(max_examples=150, deadline=None)
@given(case=broken_partitions())
def test_identities_catch_broken_partitions(case):
    """Every spoiled partition fails validate and fails identity (3), (4)
    or the size identity; identity (2) holds for any member list, so it
    does not count.  A dropped member keeps (3) and (4), which count only
    pairs of members, so the size identity must catch it."""
    how, B = case
    assert not validate(B).ok
    failed = [
        c.name for c in verify_incidence_identities(B).checks
        if not c.ok and not c.skipped
    ]
    pairs = [name for name in failed
             if name.startswith(("member pair incidences", "cross incidences"))]
    size = verify_size_identity(B)
    assert pairs or not size.ok
    if how == "drop":
        assert not size.ok
    # The failing hyperplanes are named, each with its own right-hand side,
    # as counted from the hyperplanes' point masks.
    pi = point_index(B.n, B.field)
    members = [(m.dim, pi.mask_of(m)) for m in B.members]
    expected = []
    for i, (_, hmask) in enumerate(hyperplane_masks(B.n, B.field)):
        rhs = 1 + sum(
            B.field.q ** dim for dim, mask in members if mask & ~hmask == 0
        )
        if rhs != B.size:
            expected.append((f"hyperplane {i} size identity", B.size, rhs))
    named = [(c.name, c.lhs, c.rhs) for c in size.checks[:-1]]
    assert named == expected


def _fresh(P):
    """P rebuilt from fresh copies of its members, with nothing kept."""
    return SubspacePartition(
        P.n, P.field, [span(m.basis, P.n, P.field) for m in P.members]
    )


def _count_calls(monkeypatch, module, name):
    """Record the arguments of every call of module.name."""
    calls = []
    inner = getattr(module, name)
    monkeypatch.setattr(
        module, name, lambda *args: calls.append(args) or inner(*args)
    )
    return calls


@pytest.mark.parametrize("P", [
    tailed_v6(), minimal_partition(7, 3, F2), minimal_partition(5, 3, F3),
])
def test_checks_count_each_dimension_once(P, monkeypatch):
    """The size, incidence and moment checks share one count per
    dimension, kept on the partition.  Over GF(2) the counts come from the
    members' point masks, which validate already walked: no member's dual
    is built, and each member's span is walked once in all.  For q > 2
    each member's dual is built and walked once.  The kept counts equal
    those of a fresh partition built from fresh copies of the same
    members."""
    P = _fresh(P)
    orthogonal = [
        _count_calls(monkeypatch, module, "orthogonal")
        for module in (spaces, hstats, enumeration)
    ]
    walks = _count_calls(monkeypatch, spaces.PointIndex, "_ranks")
    assert validate(P).ok
    assert verify_size_identity(P).ok
    assert verify_incidence_identities(P).ok
    for d in P.dims():
        assert verify_moment_identities(P, d).ok
    if P.field.q == 2:
        assert orthogonal == [[], [], []]
        walked = sorted(id(U) for _, U in walks)
        assert walked == sorted(id(U) for U in P.members)
    else:
        dual = orthogonal[1]
        assert sorted(id(U) for (U,) in dual) == sorted(
            id(U) for U in P.members
        )
    fresh = _fresh(P)
    assert sorted(P._counts) == list(P.dims())
    for d in P.dims():
        assert P._counts[d] == _hyperplane_counts(fresh, (d,))[0]


def _reference_vectors(P):
    """Profile vectors of every hyperplane, counted by testing each
    member's point mask against each hyperplane's point mask."""
    pi = point_index(P.n, P.field)
    members = [(m.dim, pi.mask_of(m)) for m in P.members]
    return [
        tuple(
            sum(1 for dim, mask in members if dim == d and mask & ~hmask == 0)
            for d in P.dims()
        )
        for _, hmask in hyperplane_masks(P.n, P.field)
    ]


def _moved_at_random(Q, seed):
    """Q under a random element of GL(n, q) drawn from the seed."""
    rng = random.Random(seed)
    n, q = Q.n, Q.field.q
    while True:
        rows = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(n)]
        if span(rows, n, Q.field).dim == n:
            return _moved(Q, rows)


@pytest.mark.parametrize("n, t", [(8, 3), (9, 4)])
def test_point_side_counts_match_hyperplane_masks(n, t):
    """The GF(2) point-side counts equal the hyperplane-side reference on
    moved minimal partitions of V(8, 2) and V(9, 2), and profile reads
    the same vectors."""
    P = _moved_at_random(minimal_partition(n, t, F2), f"{n}:{t}")
    assert validate(P).ok
    assert len(P.dims()) > 1
    reference = _reference_vectors(P)
    assert _profile_vectors(P) == reference
    for (H, _), vec in zip(hyperplane_masks(n, F2), reference):
        assert profile(P, H).counts == vec


def _spoiled_v8():
    """A moved minimal partition of V(8, 2) spoiled four ways, by name."""
    P = _moved_at_random(minimal_partition(8, 3, F2), "spoiled")
    members = list(P.members)
    low, top = members[0], members[-1]
    # A top-dimension member through a point of the lowest member.
    meet = span([low.basis[0]] + list(top.basis[1:]), 8, F2)
    if meet.dim < top.dim:
        meet = span([low.basis[0]] + list(top.basis[:-1]), 8, F2)
    assert meet.dim == top.dim and meet != top
    return {
        "duplicate": members + [top, top, low],
        "overlap": members[:-1] + [meet],
        "drop": members[1:-1],
    }


@pytest.mark.parametrize("how", ["duplicate", "overlap", "drop"])
def test_point_side_counts_on_spoiled_members(how):
    """The point-side identity holds for any member list, so duplicated,
    overlapping and dropped members are counted exactly as the
    hyperplane-side reference counts them."""
    B = SubspacePartition(8, F2, _spoiled_v8()[how])
    assert not validate(B).ok
    assert _profile_vectors(B) == _reference_vectors(B)


def test_gf2_cli_checks_build_no_duals(tmp_path, monkeypatch, capsys):
    """verify --all-identities and analyze over GF(2) build no dual."""
    path = tmp_path / "min73.vspart"
    write_partition(minimal_partition(7, 3, F2), path)
    orthogonal = [
        _count_calls(monkeypatch, module, "orthogonal")
        for module in (spaces, hstats, enumeration)
    ]
    assert main(["verify", "--all-identities", str(path)]) == 0
    assert main(["analyze", str(path), "--cut", "3", "--mode", "explore"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert orthogonal == [[], [], []]
