"""Partition files: both encodings, sniffing, and malformed input."""
import json

import pytest

from vspart.constructions import beutelspacher, refine, spread
from vspart.errors import FileFormatError
from vspart.fields import extension_field, make_field
from vspart.fileio import (
    format_partition,
    parse_partition,
    partition_from_json,
    partition_to_json,
    read_partition,
    write_partition,
)


def corpus():
    F2 = make_field(2)
    return [
        spread(4, 2, F2),
        beutelspacher(3, 1, F2),
        refine(spread(6, 3, F2), 0, beutelspacher(3, 1, F2)),
        spread(4, 2, make_field(3)),
        spread(2, 1, make_field(4)),
        beutelspacher(3, 1, make_field(9)),
    ]


def test_text_round_trip():
    for P in corpus():
        text = format_partition(P)
        Q = parse_partition(text)
        assert Q == P
        assert Q.field is P.field
        assert format_partition(Q) == text


def test_json_round_trip():
    for P in corpus():
        doc = partition_to_json(P)
        # through an actual serialization, not just the dict
        Q = partition_from_json(json.loads(json.dumps(doc)))
        assert Q == P
        assert Q.field is P.field


def test_file_round_trip_and_sniffing(tmp_path):
    P = spread(4, 2, make_field(3))
    tpath = tmp_path / "spread.vspart"
    jpath = tmp_path / "spread.json"
    write_partition(P, tpath)
    write_partition(P, jpath, form="json")
    assert read_partition(tpath) == P
    assert read_partition(jpath) == P
    assert tpath.read_text().startswith("vspart-partition 1\n")
    assert jpath.read_text().lstrip().startswith("{")
    with pytest.raises(FileFormatError):
        write_partition(P, tmp_path / "x", form="xml")


def test_text_header_layout():
    P = spread(2, 1, make_field(4))
    lines = format_partition(P).splitlines()
    assert lines[0] == "vspart-partition 1"
    assert lines[1] == "n 2"
    assert lines[2] == "q 4"
    assert lines[3] == "p 2"
    assert lines[4] == "e 2"
    assert lines[5] == "modulus 1 1 1"
    assert all(ln.startswith("member ") for ln in lines[6:])
    assert len(lines[6:]) == P.size


def test_parse_accepts_blank_lines_and_whitespace():
    P = beutelspacher(3, 1, make_field(2))
    text = format_partition(P)
    padded = "\n\n" + text.replace("\n", "\n\n") + "   \n"
    assert parse_partition(padded) == P


def test_malformed_text_inputs():
    P = spread(4, 2, make_field(2))
    good = format_partition(P)
    cases = [
        "",                                        # empty file
        "other-format 1\nn 4\n",                   # wrong magic
        "vspart-partition 2\nn 4\n",               # wrong version
        good.replace("q 2", "q 3"),                # q inconsistent with p^e
        good.replace("n 4", "q 4"),                # header out of order
        good.replace("n 4", "n x"),                # non-integer header
        "vspart-partition 1\nn 4\nq 2\np 2\ne 1\n",  # no members
        good + "intruder 1 2\n",                   # unknown line
        good.replace("member 1", "member 7"),      # code outside the field
        good.replace(
            "vspart-partition 1\nn 4", "vspart-partition 1\nn 3"
        ),                                         # wrong row width
    ]
    for text in cases:
        with pytest.raises(FileFormatError):
            parse_partition(text)


def test_non_canonical_member_rows_rejected():
    """Stored rows must be the canonical basis, not just any basis."""
    F = make_field(2)
    P = spread(4, 2, F)
    text = format_partition(P)
    member_lines = [
        ln for ln in text.splitlines() if ln.startswith("member ")
    ]
    codes = member_lines[0].split()[1:]
    assert len(codes) == 8
    swapped = " ".join(codes[4:] + codes[:4])
    with pytest.raises(FileFormatError):
        parse_partition(text.replace(member_lines[0], "member " + swapped))


def test_modulus_validation():
    P = spread(2, 1, make_field(4))
    good = format_partition(P)
    with pytest.raises(FileFormatError):
        parse_partition(good.replace("modulus 1 1 1", "modulus 1 1"))
    with pytest.raises(FileFormatError):
        parse_partition(good.replace("modulus 1 1 1", "modulus 1 0 1"))
    without = "\n".join(
        ln for ln in good.splitlines() if not ln.startswith("modulus")
    )
    with pytest.raises(FileFormatError):
        parse_partition(without)
    prime = format_partition(spread(4, 2, make_field(2)))
    with_modulus = prime.replace("e 1", "e 1\nmodulus 1 1 1")
    with pytest.raises(FileFormatError):
        parse_partition(with_modulus)


def test_nonstandard_modulus_round_trips():
    """A field built on a modulus other than the default survives the trip
    with its own modulus, not the default one."""
    F = extension_field(make_field(3), 2, modulus=(2, 2, 1))  # x^2 + 2x + 2
    P = spread(2, 1, F)
    Q = parse_partition(format_partition(P))
    assert Q.field is F
    assert Q.field.modulus == (2, 2, 1)
    assert Q == P


def test_malformed_json_documents():
    P = spread(4, 2, make_field(2))
    doc = partition_to_json(P)
    variants = []
    v = dict(doc)
    v["format"] = "other"
    variants.append(v)
    v = dict(doc)
    v["version"] = 9
    variants.append(v)
    v = dict(doc)
    del v["members"]
    variants.append(v)
    v = dict(doc)
    v["members"] = []
    variants.append(v)
    v = dict(doc)
    v["p"] = 3
    variants.append(v)
    v = dict(doc)
    v["n"] = 0
    variants.append(v)
    variants.append(["not", "an", "object"])
    for v in variants:
        with pytest.raises(FileFormatError):
            partition_from_json(v)


@pytest.mark.parametrize("members", [[5], "ab", [[["x"]]]])
def test_malformed_members_entries(members):
    doc = partition_to_json(spread(4, 2, make_field(2)))
    doc["members"] = members
    with pytest.raises(FileFormatError):
        partition_from_json(doc)


def test_read_partition_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ this is not json", encoding="utf-8")
    with pytest.raises(FileFormatError):
        read_partition(path)
