"""The frozen result records: construction, text, equality, hashing."""
import pytest

from vspart import analysis, constructions, hstats, partitions, search
from vspart._record import record

RECORDS = [
    partitions.PartitionType,
    partitions.ValidationReport,
    partitions.Supertail,
    constructions.TailSizeExample,
    hstats.HyperplaneProfile,
    hstats.ProfileHistogram,
    hstats.IdentityCheck,
    hstats.IdentityReport,
    hstats.BetaStats,
    hstats.ExtremalRegime,
    hstats.AlphaContext,
    analysis.BoundReport,
    analysis.SupertailReport,
    analysis.GapReport,
    analysis.NestedBoundReport,
    search.SearchResult,
    search.ImpossibilityReport,
    search.ConjectureCase,
    search.ConjectureFindings,
]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_behaviour(cls):
    names = list(cls.__annotations__)
    values = [(i, "v") for i in range(len(names))]
    r = cls(*values)
    inner = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(r) == f"{cls.__name__}({inner})"
    assert [getattr(r, name) for name in names] == values

    same = cls(**dict(zip(names, values)))
    assert r == same and not r != same
    assert hash(r) == hash(same) == hash(tuple(values))
    assert r != cls(*values[:-1], "other")
    # Equal only within one class, even to a record of the same fields.
    twin = record(type(cls.__name__, (), {"__annotations__": dict.fromkeys(names)}))
    assert twin(*values) != r and r != tuple(values)

    for change in (lambda: setattr(r, names[0], 1),
                   lambda: delattr(r, names[0]),
                   lambda: setattr(r, "extra", 1)):
        with pytest.raises(AttributeError):
            change()
    assert getattr(r, names[0]) == values[0]

    for bad in (lambda: cls(),
                lambda: cls(*values, unknown=1),
                lambda: cls(*values, (99, "v")),
                lambda: cls(*values, **{names[0]: values[0]})):
        with pytest.raises(TypeError):
            bad()


def test_record_defaults():
    r = search.SearchResult(13, None, 2)
    assert repr(r) == (
        "SearchResult(size=13, partition=None, nodes=2, witness=None)"
    )
    assert r == search.SearchResult(size=13, partition=None, nodes=2)
    assert not r.beat_witness
    assert search.SearchResult(13, None, 2, witness=14).beat_witness
    c = hstats.IdentityCheck("x", 1, 1, True)
    assert (c.skipped, c.reason) == (False, "")
    assert c == hstats.IdentityCheck("x", 1, 1, True, False, "")
    skipped = hstats.IdentityCheck("x", None, None, True, reason="why",
                                   skipped=True)
    assert (skipped.skipped, skipped.reason) == (True, "why")
    assert hstats.IdentityCheck("x", 1, 1, True, True) == hstats.IdentityCheck(
        "x", 1, 1, True, skipped=True, reason=""
    )
    with pytest.raises(TypeError):
        hstats.IdentityCheck("x", 1, 1)
    with pytest.raises(TypeError):
        hstats.IdentityCheck("x", 1, 1, reason="why")


def test_record_needs_defaults_last():
    with pytest.raises(TypeError):
        record(type("Bad", (), {"__annotations__": {"a": int, "b": int},
                                "a": 0}))
