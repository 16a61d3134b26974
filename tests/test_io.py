"""Partition files: both encodings, sniffing, and malformed input."""
import json
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vspart.spaces as spaces
from vspart.cli import main
from vspart.constructions import beutelspacher, minimal_partition, refine, spread
from vspart.errors import FileFormatError
from vspart.fields import extension_field, make_field
from vspart.fileio import (
    FILE_POINT_LIMIT,
    format_partition,
    parse_partition,
    partition_from_json,
    partition_to_json,
    read_partition,
    write_partition,
)
from vspart.partitions import SubspacePartition
from vspart.spaces import full_space, num_points, span


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
        good.replace("q 2", "q 1000000007").replace(
            "p 2", "p 1000000007"
        ),                                         # prime field too large
        good.replace("e 1", "e 1000000000"),       # huge extension degree
        good.replace("n 4", "n 1000000000"),       # huge ambient dimension
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


def test_characteristic_must_be_prime(tmp_path):
    """A header with p = 4, e = 1 and no modulus names no field: GF(4)
    needs a modulus the file does not state.  Both readers and CLI verify
    refuse it."""
    good = format_partition(spread(2, 1, make_field(4)))
    text = good.replace("p 2\ne 2\nmodulus 1 1 1\n", "p 4\ne 1\n")
    assert text.count("member") == 5 and "modulus" not in text
    doc = partition_to_json(spread(2, 1, make_field(4)))
    doc.update(p=4, e=1, modulus=None)
    with pytest.raises(FileFormatError, match="not prime"):
        parse_partition(text)
    with pytest.raises(FileFormatError, match="not prime"):
        partition_from_json(doc)
    for name, payload in [("p4.vspart", text), ("p4.json", json.dumps(doc))]:
        path = tmp_path / name
        path.write_text(payload, encoding="utf-8")
        assert main(["verify", str(path)]) == 2


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
    v = dict(doc)
    v["q"] = v["p"] = 1000000007
    variants.append(v)
    v = dict(doc)
    v["e"] = 1000000000
    variants.append(v)
    v = dict(doc)
    v["n"] = 1000000000
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


def _spoiled(key, value):
    doc = partition_to_json(spread(4, 2, make_field(4)))
    if key == "code":
        doc["members"][0][0] = value
    elif key == "coefficient":
        doc["modulus"][0] = value
    else:
        doc[key] = value
    return doc


@pytest.mark.parametrize("doc", [
    _spoiled("n", 4.5),
    _spoiled("n", 4.0),
    _spoiled("q", 4.0),
    _spoiled("p", "2"),
    _spoiled("coefficient", True),
    _spoiled("modulus", "111"),
    _spoiled("code", True),
    _spoiled("code", 1.0),
    _spoiled("members", [[1, 0, 0, 0, 0, 1, 0, 0], "1000"]),
], ids=[
    "n-fraction", "n-float", "q-float", "p-string", "modulus-bool",
    "modulus-string", "code-bool", "code-float", "member-string",
])
def test_json_reader_takes_only_integers_and_arrays(doc, tmp_path):
    """n, q, p, e, the modulus coefficients and the member codes must be
    JSON integers (not bools), and the members, each member and the
    modulus JSON arrays, as the text reader takes only integers; `verify`
    on such a file exits 2."""
    with pytest.raises(FileFormatError):
        partition_from_json(doc)
    path = tmp_path / "spoiled.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", str(path)]) == 2


def test_read_partition_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ this is not json", encoding="utf-8")
    with pytest.raises(FileFormatError):
        read_partition(path)


def test_read_partition_undecodable_files(tmp_path):
    """A JSON number too long to convert and bytes that are not UTF-8 are
    format errors, not raw ValueErrors."""
    path = tmp_path / "long.json"
    path.write_text('{"n": 1' + "0" * 5000 + "}", encoding="utf-8")
    with pytest.raises(FileFormatError):
        read_partition(path)
    path = tmp_path / "binary.vspart"
    path.write_bytes(b"vspart-partition 1\n\xff\xfe\n")
    with pytest.raises(FileFormatError):
        read_partition(path)


def whole_space(n, q):
    """The one-member partition {V(n,q)}: a valid file of any size."""
    F = make_field(q)
    return SubspacePartition(n, F, [full_space(n, F)])


def test_point_limit_on_both_readers():
    """Both readers accept V(12,2) (4095 points) and V(4,16) (4369) and
    refuse any ambient space with more points than FILE_POINT_LIMIT."""
    assert FILE_POINT_LIMIT == num_points(4, 16)
    for n, q in [(12, 2), (4, 16)]:
        P = whole_space(n, q)
        assert parse_partition(format_partition(P)) == P
        assert partition_from_json(partition_to_json(P)) == P
    for n, q in [(13, 2), (5, 16), (30, 2)]:
        P = whole_space(n, q)
        with pytest.raises(FileFormatError, match="points"):
            parse_partition(format_partition(P))
        with pytest.raises(FileFormatError, match="points"):
            partition_from_json(partition_to_json(P))


@st.composite
def member_codes(draw):
    """The codes of one member entry of V(n, q), q in {2, 3, 4, 5, 16}: a
    canonical basis, or one spoiled by a zero row, a lead other than 1,
    rows out of order, a row not reduced, or arbitrary rows; flattened,
    then maybe given a negative code or one outside GF(q), and maybe cut
    or padded to a ragged length."""
    q = draw(st.sampled_from([2, 3, 4, 5, 16]))
    n = draw(st.integers(1, 4))
    F = make_field(q)
    vectors = st.tuples(*[st.integers(0, q - 1)] * n)
    rows = list(span(draw(st.lists(vectors, max_size=n)), n, F).basis)
    how = draw(st.sampled_from(
        ("keep", "zero", "scale", "swap", "add", "arbitrary")
    ))
    if how == "zero" or not rows:
        rows.insert(draw(st.integers(0, len(rows))), (0,) * n)
    elif how == "scale":
        i, c = draw(st.integers(0, len(rows) - 1)), draw(st.integers(2, q))
        rows[i] = tuple(F.mul(c % q, x) for x in rows[i])
    elif how == "swap" and len(rows) > 1:
        i = draw(st.integers(0, len(rows) - 2))
        rows[i], rows[i + 1] = rows[i + 1], rows[i]
    elif how == "add" and len(rows) > 1:
        i, j = draw(st.permutations(range(len(rows))))[:2]
        c = draw(st.integers(1, q - 1))
        rows[i] = tuple(F.add(x, F.mul(c, y)) for x, y in zip(rows[i], rows[j]))
    elif how == "arbitrary":
        rows = draw(st.lists(vectors, min_size=1, max_size=n + 1))
    codes = [c for row in rows for c in row]
    bad = draw(st.sampled_from(("none", "none", "negative", "high")))
    if bad != "none":
        i = draw(st.integers(0, len(codes) - 1))
        codes[i] = draw(
            st.integers(-30, -1) if bad == "negative" else st.integers(q, 300)
        )
    if draw(st.integers(0, 9)) == 0:
        codes = codes[:-1] if draw(st.booleans()) else codes + [0]
    return F, n, codes


def _reference_rejection(F, n, codes):
    """The message the reader must raise for these codes, or None, found
    by counting, range tests and a row reduction, with nothing taken from
    the reader."""
    if not codes or len(codes) % n:
        return f"member holds {len(codes)} codes, not a multiple of n={n}"
    for c in codes:
        if not 0 <= c < F.q:
            return f"element code {c} outside GF({F.q})"
    rows = tuple(tuple(codes[i:i + n]) for i in range(0, len(codes), n))
    if spaces._rref(rows, n, F) != rows:
        return "member rows are not a canonical basis"
    return None


@settings(max_examples=300, deadline=None)
@given(case=member_codes())
def test_reader_accepts_exactly_the_canonical_bases(case):
    """Both readers accept a member exactly when its codes lie in GF(q) and
    the rows are their own reduced row echelon form, keep those rows with
    their lead columns, and otherwise raise the reference's message."""
    F, n, codes = case
    whole = whole_space(n, F.q)
    head = format_partition(whole).splitlines()[:-1]
    text = "\n".join(head + ["member " + " ".join(map(str, codes))]) + "\n"
    doc = dict(partition_to_json(whole), members=[codes])
    expected = _reference_rejection(F, n, codes)
    for read, payload in ((parse_partition, text), (partition_from_json, doc)):
        if expected is None:
            (M,) = read(payload).members
            rows = tuple(tuple(codes[i:i + n]) for i in range(0, len(codes), n))
            assert M.basis == rows
            assert M._pivots == tuple(
                min(j for j, x in enumerate(row) if x) for row in rows
            )
        else:
            with pytest.raises(FileFormatError) as info:
                read(payload)
            assert str(info.value) == expected


def test_reading_makes_no_row_reduction(tmp_path, monkeypatch):
    """Stored rows are checked by looking at them, not by reducing them."""
    P = minimal_partition(7, 3, make_field(2))
    path = tmp_path / "v7.vspart"
    write_partition(P, path)
    calls = []
    rref = spaces._rref
    monkeypatch.setattr(
        spaces, "_rref", lambda *args: calls.append(1) or rref(*args)
    )
    assert read_partition(path) == P
    assert calls == []


# -- fuzzing: every input parses to a partition or raises FileFormatError ---

HUGE = st.sampled_from([10**9, 1000000007, 2**64, 10**100, -(10**9)])
INTS = st.one_of(st.integers(-2, 20), HUGE, st.integers())
SEEDS = [spread(4, 2, make_field(2)), spread(2, 1, make_field(4)),
         beutelspacher(3, 1, make_field(3))]


class TooSlow(BaseException):
    """Raised by the alarm; a BaseException, so that no handler for
    ordinary errors inside the reader can turn it into a format error."""


def _too_slow(signum, frame):
    raise TooSlow("the reader ran for more than 5 seconds")


def _accepts_or_rejects(read, payload):
    """read(payload) returns a partition or raises FileFormatError, and
    does so within 5 seconds."""
    previous = signal.signal(signal.SIGALRM, _too_slow)
    signal.alarm(5)
    try:
        P = read(payload)
    except FileFormatError:
        return
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert isinstance(P, SubspacePartition)


@st.composite
def mutated_texts(draw):
    """A valid file with one token replaced, one line dropped, or one
    line added."""
    lines = format_partition(draw(st.sampled_from(SEEDS))).splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    action = draw(st.sampled_from(["token", "drop", "add"]))
    if action == "token":
        parts = lines[i].split()
        j = draw(st.integers(0, len(parts) - 1))
        parts[j] = draw(st.one_of(INTS.map(str), st.text(max_size=4)))
        lines[i] = " ".join(parts)
    elif action == "drop":
        del lines[i]
    else:
        word = draw(st.sampled_from(["member", "modulus", "n", "q", "e"]))
        codes = draw(st.lists(INTS, max_size=8))
        lines.insert(i, " ".join([word] + [str(c) for c in codes]))
    return "\n".join(lines)


@st.composite
def built_texts(draw):
    """Headers from arbitrary integers, biased toward consistent fields."""
    q, p, e = draw(st.one_of(
        st.sampled_from([(2, 2, 1), (3, 3, 1), (4, 2, 2), (9, 3, 2)]),
        st.tuples(INTS, INTS, INTS),
        HUGE.map(lambda big: (big, big, 1)),
        HUGE.map(lambda big: (2, 2, big)),
    ))
    n = draw(st.one_of(st.integers(1, 5), INTS))
    lines = ["vspart-partition 1", f"n {n}", f"q {q}", f"p {p}", f"e {e}"]
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-1, 9), max_size=4))
        lines.append(" ".join(["modulus"] + [str(c) for c in coeffs]))
    for codes in draw(st.lists(st.lists(st.integers(-1, 9), max_size=10),
                               max_size=5)):
        lines.append(" ".join(["member"] + [str(c) for c in codes]))
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(st.one_of(mutated_texts(), built_texts(), st.text(max_size=40)))
def test_fuzz_parse_partition(text):
    _accepts_or_rejects(parse_partition, text)


JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), INTS, st.floats(),
              st.text(max_size=4)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
    ),
    max_leaves=12,
)
# JSON numbers and strings that int() treats in special ways
ODD_SCALARS = st.sampled_from(
    [float("inf"), float("-inf"), float("nan"), 1e300, 2.5, "7", " 3 ", True]
)
DOC_KEYS = ["format", "version", "n", "q", "p", "e", "modulus", "members"]


@st.composite
def mutated_documents(draw):
    """A valid document with one entry replaced, dropped, or one member
    code changed."""
    doc = partition_to_json(draw(st.sampled_from(SEEDS)))
    key = draw(st.sampled_from(DOC_KEYS))
    action = draw(st.sampled_from(["replace", "drop", "code"]))
    if action == "replace":
        doc[key] = draw(st.one_of(INTS, ODD_SCALARS, JSON_VALUES))
    elif action == "drop":
        del doc[key]
    else:
        member = doc["members"][draw(st.integers(0, len(doc["members"]) - 1))]
        member[draw(st.integers(0, len(member) - 1))] = draw(INTS)
    return doc


@settings(max_examples=300, deadline=None)
@given(st.one_of(mutated_documents(), JSON_VALUES))
def test_fuzz_partition_from_json(doc):
    _accepts_or_rejects(partition_from_json, doc)
