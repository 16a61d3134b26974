"""Spreads, near-spreads, refinement, and minimum-size constructions."""
import pytest

from vspart import constructions
from vspart.cli import main
from vspart.constructions import (
    beutelspacher,
    minimal_partition,
    non_minimal_supertail_example,
    refine,
    spread,
)
from vspart.errors import BadRange, NotAPartitionOfMember, NotDivisible
from vspart.fields import make_field
from vspart.partitions import (
    SubspacePartition,
    check_dimension,
    check_packing,
    min_partition_size,
    validate,
)
from vspart.spaces import FILE_POINT_LIMIT, num_points, span


def forbid_building(monkeypatch):
    """Make every field, space and member a construction could build
    fail the test, so a missing size check fails fast."""
    def never(*args, **kwargs):
        raise AssertionError("built before the size check")
    for name in ("extension_field", "full_space", "span"):
        monkeypatch.setattr(constructions, name, never)


def test_spread_types_and_validity():
    cases = [
        (4, 2, 2, 5),
        (6, 2, 2, 21),
        (6, 3, 2, 9),
        (4, 2, 3, 10),
        (6, 2, 3, 91),
    ]
    for n, t, q, size in cases:
        P = spread(n, t, make_field(q))
        assert P.size == size
        assert P.dims() == (t,)
        assert validate(P).ok


def test_spread_requires_divisibility():
    with pytest.raises(NotDivisible):
        spread(5, 2, make_field(2))
    with pytest.raises(NotDivisible):
        spread(7, 3, make_field(2))


def test_beutelspacher_types_and_validity():
    F = make_field(2)
    P = beutelspacher(7, 3, F)
    assert P.type().entries == ((3, 16), (4, 1))
    assert validate(P).ok
    P = beutelspacher(3, 1, F)
    assert P.type().entries == ((1, 4), (2, 1))
    assert validate(P).ok
    P = beutelspacher(6, 3, F)
    assert P.type().entries == ((3, 9),)
    assert validate(P).ok
    P3 = beutelspacher(3, 1, make_field(3))
    assert P3.type().entries == ((1, 9), (2, 1))
    assert validate(P3).ok


def test_beutelspacher_range():
    F = make_field(2)
    with pytest.raises(BadRange):
        beutelspacher(4, 3, F)  # d must not exceed n - d
    with pytest.raises(BadRange):
        beutelspacher(4, 0, F)


@pytest.mark.parametrize("build, args", [
    (spread, (4, 2.0)),
    (spread, (4.0, 2)),
    (spread, (4, 0)),
    (minimal_partition, (5.0, 2)),
    (minimal_partition, (5, True)),
    (beutelspacher, (5, 2.0)),
    (beutelspacher, (5.0, 2)),
    (beutelspacher, (3, True)),
])
def test_constructions_reject_non_integer_dimensions(build, args):
    """A dimension that is not an int, or a spread of t = 0, is refused
    before any arithmetic reads it."""
    with pytest.raises(BadRange):
        build(*args, make_field(2))


@pytest.mark.parametrize("build", [spread, minimal_partition, beutelspacher])
def test_constructions_refuse_spaces_above_the_point_limit(build, monkeypatch):
    """V(40, 2) has far more than FILE_POINT_LIMIT points: each builder
    refuses it with BadRange before building anything."""
    forbid_building(monkeypatch)
    with pytest.raises(BadRange, match=f"{FILE_POINT_LIMIT} points"):
        build(40, 2, make_field(2))


def test_cli_construct_refuses_a_space_above_the_point_limit(
        tmp_path, capsys, monkeypatch):
    """V(40, 2) is refused with exit 3 before anything is built."""
    forbid_building(monkeypatch)
    out = tmp_path / "never.vspart"
    assert main([
        "construct", "spread", "--n", "40", "--t", "2", "--q", "2",
        "--out", str(out),
    ]) == 3
    assert not out.exists()
    assert "more than 4369 points" in capsys.readouterr().err


def test_cli_construct_refuses_the_zero_space(tmp_path, capsys, monkeypatch):
    """V(0, q) has no point, so no partition file may hold it: construct
    exits 3 and writes nothing, where it used to write a file that verify
    then refused."""
    forbid_building(monkeypatch)
    out = tmp_path / "z.vspart"
    assert main([
        "construct", "spread", "--n", "0", "--t", "1", "--q", "2",
        "--out", str(out),
    ]) == 3
    assert not out.exists()
    assert "n must be at least 1, got 0" in capsys.readouterr().err


def test_constructions_build_at_the_point_limit():
    """V(4, 16) has exactly FILE_POINT_LIMIT points and still builds."""
    F16 = make_field(16)
    assert num_points(4, 16) == FILE_POINT_LIMIT
    P = spread(4, 2, F16)
    assert (P.size, P.dims()) == (257, (2,))
    assert validate(P).ok
    assert minimal_partition(4, 2, F16) == P
    assert beutelspacher(4, 2, F16).size == 257


def test_refine_replaces_one_member():
    F = make_field(2)
    P = spread(6, 3, F)
    Q = spread(3, 1, F)
    R = refine(P, 0, Q)
    assert R.type().entries == ((1, 7), (3, 8))
    assert validate(R).ok
    # refining twice hits two distinct members
    idx = next(i for i, m in enumerate(R.members) if m.dim == 3)
    R2 = refine(R, idx, beutelspacher(3, 1, F))
    assert R2.type().entries == ((1, 11), (2, 1), (3, 7))
    assert validate(R2).ok


def test_refine_rejects_bad_input():
    F = make_field(2)
    P = spread(4, 2, F)
    with pytest.raises(BadRange):
        refine(P, 9, spread(2, 1, F))
    with pytest.raises(NotAPartitionOfMember):
        refine(P, 0, spread(3, 1, F))  # wrong ambient dimension
    bad = SubspacePartition(2, F, [span([(1, 0)], 2, F)])
    with pytest.raises(NotAPartitionOfMember):
        refine(P, 0, bad)  # misses the point (0, 1)


def test_minimal_partition_known_types():
    F = make_field(2)
    P = minimal_partition(7, 3, F)
    assert P.size == 21
    assert P.type().entries == ((2, 5), (3, 16))
    assert validate(P).ok
    P = minimal_partition(5, 3, F)
    assert P.size == 9
    assert P.type().entries == ((2, 8), (3, 1))
    assert validate(P).ok
    # A near-spread of points builds no table of GF(8^3) = GF(512), which
    # is above the extension cap.
    P = minimal_partition(4, 3, make_field(8))
    assert P.size == 513
    assert P.type().entries == ((1, 512), (3, 1))
    assert validate(P).ok


def test_minimal_partition_matches_formula_grid():
    """Constructed size equals the closed form for every (n, t) in a grid,
    and the partitions are valid with largest dimension exactly t."""
    grid = [(2, n, t) for n in range(2, 9) for t in range(1, n)]
    grid += [(3, n, t) for n in range(2, 6) for t in range(1, n)]
    for q, n, t in grid:
        P = minimal_partition(n, t, make_field(q))
        assert P.size == min_partition_size(n, t, q), (q, n, t)
        assert max(P.dims()) == t, (q, n, t)
        assert validate(P).ok, (q, n, t)


def test_minimal_partition_large_case():
    """V(10, 2) with top dimension 3: the full 149-member construction."""
    P = minimal_partition(10, 3, make_field(2))
    assert P.size == min_partition_size(10, 3, 2) == 149
    assert P.type().entries == ((2, 5), (3, 144))
    assert validate(P).ok


def test_minimal_partition_range():
    F = make_field(2)
    with pytest.raises(BadRange):
        minimal_partition(4, 0, F)
    with pytest.raises(BadRange):
        minimal_partition(4, 4, F)


def test_non_minimal_supertail_example_numerology():
    """The V(34, q) family: minimum-size supertail inside a partition that
    misses the global minimum by q^7 - q^6."""
    for q in (2, 3):
        ex = non_minimal_supertail_example(q)
        assert ex.n == 34
        assert ex.cut == 11
        assert dict(ex.ptype.entries) == {
            5: q ** 7,
            7: 1,
            11: q ** 23 + q ** 12,
        }
        assert check_packing(ex.ptype, 34, q)
        assert check_dimension(ex.ptype, 34)
        assert ex.tail_size == q ** 7 + 1
        assert ex.tail_bound == min_partition_size(11, 7, q) == ex.tail_size
        assert ex.size == ex.ptype.size()
        assert ex.minimum == min_partition_size(34, 11, q)
        assert ex.gap == ex.size - ex.minimum == q ** 7 - q ** 6
    assert non_minimal_supertail_example(2).minimum == 8392769
    with pytest.raises(BadRange):
        non_minimal_supertail_example(1)
