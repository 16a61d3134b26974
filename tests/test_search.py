"""Exhaustive enumeration, minimum-size search, and the sweep oracles."""
import json
from itertools import islice

import pytest

from vspart.enumeration import all_subspaces
from vspart.errors import (
    BadRange,
    BudgetExceeded,
    DimensionMismatch,
    FileFormatError,
    HypothesisNotMet,
)
from vspart.fields import make_field
from vspart.partitions import PartitionType, min_partition_size, validate
from vspart.search import (
    check_no_minimum_supertail,
    conjecture_search,
    enumerate_partitions,
    load_checkpoint,
    save_checkpoint,
    search_min_partition_size,
)
from vspart.spaces import full_space, span

F2 = make_field(2)


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


def test_enumerate_seed_from_another_ambient():
    plane = span([(1, 0, 0, 0), (0, 1, 0, 0)], 4, F2)
    with pytest.raises(DimensionMismatch):
        list(enumerate_partitions(3, 2, 2, seed=[plane]))
    line = span([(0, 1, 0), (0, 0, 1)], 3, F2)
    with pytest.raises(DimensionMismatch):
        list(enumerate_partitions(3, 3, 2, seed=[line]))


LINE4 = span([(0, 0, 1, 0), (0, 0, 0, 1)], 4, F2)
LINE3 = span([(0, 1, 0), (0, 0, 1)], 3, make_field(3))


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
    whole = [full_space(2, F2)]
    got = list(enumerate_partitions(2, 2, 1, seed=whole))
    assert len(got) == 1
    assert got[0].members == tuple(whole)


def test_enumerate_rejects_bad_ranges():
    with pytest.raises(BadRange):
        list(enumerate_partitions(3, 2, 0))
    with pytest.raises(BadRange):
        list(enumerate_partitions(3, 2, 4))
    with pytest.raises(BadRange):
        list(enumerate_partitions(8, 2, 2))  # 255 points, above the guard
    with pytest.raises(BadRange):
        list(enumerate_partitions(4, 2, 2, point_limit=7))


def test_enumerate_budget_resume_stream():
    """A budget of 40 nodes splits the spread enumeration, and a
    size-limited one, into several sessions; stitching the sessions
    reproduces the one-shot stream."""
    for options in ({"type_filter": {2: 5}}, {"size_limit": 8}):
        one_shot = list(enumerate_partitions(4, 2, 2, **options))
        collected = []
        resume = None
        sessions = 0
        while True:
            stream = enumerate_partitions(
                4, 2, 2, budget=40, resume=resume, **options
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


def test_enumerate_stats_accumulate():
    counters = {}
    list(enumerate_partitions(3, 2, 2, stats=counters))
    assert counters["nodes"] > 0
    before = counters["nodes"]
    list(enumerate_partitions(3, 2, 2, stats=counters))
    assert counters["nodes"] == 2 * before
    empty = {}
    assert list(enumerate_partitions(3, 2, 2, type_filter={2: 2},
                                     stats=empty)) == []
    assert empty == {"nodes": 0}


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
    lookahead bound shows here: each alone leaves over a million nodes."""
    res = search_min_partition_size(5, 2, 2)
    assert res.size == 13
    assert res.nodes <= 300_000


def test_search_min_budget_payload():
    """The minimum-size search cannot resume, so it carries no checkpoint."""
    with pytest.raises(BudgetExceeded) as info:
        search_min_partition_size(5, 2, 2, budget=1000)
    assert info.value.checkpoint is None


def test_time_limit_stops_both_searches():
    """The clock is read every 1024 nodes, so a zero time limit stops both
    searches early; the enumeration still leaves a checkpoint that
    resumes the stream where it stopped."""
    with pytest.raises(BudgetExceeded):
        search_min_partition_size(5, 2, 2, time_limit=0)
    collected = []
    with pytest.raises(BudgetExceeded) as info:
        for P in enumerate_partitions(5, 2, 4, time_limit=0):
            collected.append(P)
    ck = info.value.checkpoint
    assert ck["kind"] == "partition-enumeration"
    assert ck["state"]["nodes_done"] == 1024
    want = len(collected) + 20
    rest = enumerate_partitions(5, 2, 4, resume=ck)
    collected += islice(rest, want - len(collected))
    assert collected == list(islice(enumerate_partitions(5, 2, 4), want))


def test_search_min_range_and_guard():
    with pytest.raises(BadRange):
        search_min_partition_size(4, 4, 2)
    with pytest.raises(BadRange):
        search_min_partition_size(8, 2, 2)


def test_impossibility_v52_cut3():
    """No partition of V(5, 2) carries a minimum supertail at cut 3: the
    packing equation has no solution and the seeded sweep finds nothing."""
    rep = check_no_minimum_supertail(5, 3, 2)
    assert rep.confirmed
    assert rep.candidate_types == ()
    assert rep.type_hits == 0
    assert rep.sweep_hits == 0
    assert rep.nodes > 0


def test_impossibility_budget_covers_the_whole_call():
    """The budget bounds the nodes of all inner streams together."""
    rep = check_no_minimum_supertail(5, 3, 2)
    with pytest.raises(BudgetExceeded):
        check_no_minimum_supertail(5, 3, 2, budget=rep.nodes - 1)
    assert check_no_minimum_supertail(5, 3, 2, budget=rep.nodes) == rep
    with pytest.raises(BudgetExceeded):
        check_no_minimum_supertail(5, 3, 2, time_limit=0)


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


def test_conjecture_search_empty_range():
    f = conjecture_search(3, 2, cut_range=())
    assert f.cases_examined == 0
    assert f.partitions_examined == 0
    assert f.ok


def test_conjecture_search_budget():
    with pytest.raises(BudgetExceeded):
        conjecture_search(4, 2, budget=50)
