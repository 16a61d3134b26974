"""Reading and writing partition files.

Two encodings of the same content: a line-oriented text format meant for
golden files and diffs, and a JSON document with identical fields.  Both
carry the field construction (characteristic, extension degree, modulus
coefficients) so element codes mean the same thing to every reader, then
one entry per member holding its canonical basis rows flattened
row-major.  Reading takes the stored rows as the member's basis once it
has checked that they are a canonical basis: every row is nonzero and
leads with 1, the leads strictly increase, and every other row is 0 in
each lead column.  That is exactly the reduced row echelon form, which
is unique, so the check accepts the rows exactly when spanning them
would give them back, and reading needs no elimination.  A write/read
round trip is the identity on canonical bases.
"""
from __future__ import annotations

import json
from itertools import chain
from operator import itemgetter

from .errors import BadRange, FileFormatError, VspartError
from .fields import MAX_EXTENSION_ORDER, _check_int, _prime_power
from .fields import extension_field, make_field
from .partitions import SubspacePartition
from .spaces import FILE_POINT_LIMIT, Subspace, _check_space

FORMAT_NAME = "vspart-partition"
FORMAT_VERSION = 1
# The header numbers, in the order of the text form's lines.
_HEADER = ("n", "q", "p", "e")


def _field_from_header(q, p, e, modulus):
    # Bound q before _prime_power, which takes time linear in q.
    _check_int("q", q, 2, MAX_EXTENSION_ORDER)
    if _prime_power(q) != (p, e):
        raise FileFormatError(
            f"inconsistent field header q={q}, p={p}, e={e}: p is not "
            f"prime or p^e is not q"
        )
    base = make_field(p)
    if e == 1:
        if modulus is not None:
            raise FileFormatError("prime field must not carry a modulus")
        return base
    if modulus is None:
        raise FileFormatError(f"extension field GF({q}) needs a modulus")
    return extension_field(base, e, modulus=modulus)


def _member_from_codes(codes, n, field):
    if not codes or len(codes) % n != 0:
        raise FileFormatError(
            f"member holds {len(codes)} codes, not a multiple of n={n}"
        )
    q = field.q
    if min(codes) < 0 or max(codes) >= q:
        bad = next(c for c in codes if not 0 <= c < q)
        raise FileFormatError(f"element code {bad} outside GF({q})")
    rows = tuple(zip(*[iter(codes)] * n))  # n codes to a row
    if not _is_canonical(rows):
        raise FileFormatError("member rows are not a canonical basis")
    return Subspace(field, n, rows)


def _is_canonical(rows):
    """Whether rows are in reduced row echelon form with no zero row: each
    row leads with 1 (its first 1 has only zeros before it), the leads
    increase, and the earlier rows are 0 in each lead column (the later
    ones are, as their leads come after it)."""
    last = -1
    for i, row in enumerate(rows):
        try:
            lead = row.index(1)
        except ValueError:
            return False
        if lead <= last or any(row[:lead]):
            return False
        for earlier in rows[:i]:
            if earlier[lead]:
                return False
        last = lead
    return True


def _from_document(doc):
    """The partition a document of ints describes, after every check the
    two forms share; any refusal is a FileFormatError."""
    try:
        if doc.get("format") != FORMAT_NAME:
            raise FileFormatError("not a partition document")
        if doc.get("version") != FORMAT_VERSION:
            raise FileFormatError(
                f"unsupported version {doc.get('version')!r}"
            )
        n, members = doc["n"], doc["members"]
        field = _field_from_header(doc["q"], doc["p"], doc["e"],
                                   doc["modulus"])
        _check_space(n, field.q, FILE_POINT_LIMIT)
        if not members:
            raise FileFormatError("partition document has no members")
        subs = [_member_from_codes(codes, n, field) for codes in members]
    except FileFormatError:
        raise
    except VspartError as exc:
        raise FileFormatError(f"bad partition document: {exc}") from exc
    return SubspacePartition(n, field, subs)


def partition_to_json(P):
    F = P.field
    return {
        "format": FORMAT_NAME, "version": FORMAT_VERSION, "n": P.n,
        "q": F.q, "p": F.p, "e": F.e,
        "modulus": None if F.modulus is None else list(F.modulus),
        "members": [[int(c) for row in m.basis for c in row]
                    for m in P.members],
    }


def partition_from_json(doc):
    """Read a partition document.  The text form is split into the same
    document, and both go through one validator; this reader first
    checks what only a JSON value can get wrong: n, q, p, e, the modulus
    coefficients and the member codes must be JSON integers (not bools),
    and the members, each member and the modulus JSON arrays."""
    if not isinstance(doc, dict):
        raise FileFormatError("partition document must be a JSON object")
    try:
        header = [doc[key] for key in _HEADER]
        modulus, members = doc["modulus"], doc["members"]
    except KeyError as exc:
        raise FileFormatError(f"malformed partition document: no {exc}")
    if not (isinstance(members, list)
            and all(isinstance(m, list) for m in members)
            and (modulus is None or isinstance(modulus, list))):
        raise FileFormatError(
            "members, each member and the modulus must be JSON arrays"
        )
    try:
        for key, value in zip(_HEADER, header):
            _check_int(key, value)
        for code in chain(modulus or (), *members):
            _check_int("a modulus coefficient or member code", code)
    except BadRange as exc:
        raise FileFormatError(str(exc)) from exc
    return _from_document(doc)


def format_partition(P):
    """Render the text form of a partition: each key of its document on
    a line of its own, then one line per member."""
    doc = partition_to_json(P)
    lines = [f"{FORMAT_NAME} {FORMAT_VERSION}"]
    lines += [f"{key} {doc[key]}" for key in _HEADER]
    if doc["modulus"] is not None:
        lines.append("modulus " + " ".join(map(str, doc["modulus"])))
    lines += ["member " + " ".join(map(str, m)) for m in doc["members"]]
    return "\n".join(lines) + "\n"


def parse_partition(text):
    """Parse the text form of a partition: split its lines into the
    document partition_from_json reads, for the same validator."""
    lines = [words for words in map(str.split, text.splitlines()) if words]
    keys = list(map(itemgetter(0), lines))
    if keys[1:5] != list(_HEADER) or any(len(w) != 2 for w in lines[:5]):
        raise FileFormatError(
            f"a partition file starts with {FORMAT_NAME} and its version, "
            f"then one line each for n, q, p and e"
        )
    body = 6 if keys[5:6] == ["modulus"] else 5
    extra = set(keys[body:]) - {"member"}
    if extra:
        raise FileFormatError(f"unexpected lines {sorted(extra)} after the "
                              f"header of a partition file")
    try:
        values = [list(map(int, words[1:])) for words in lines]
    except ValueError:
        raise FileFormatError("partition file values must be integers")
    doc = {key: value for key, (value,) in zip(("version", *_HEADER), values)}
    doc.update(format=keys[0], modulus=values[5] if body == 6 else None,
               members=values[body:])
    return _from_document(doc)


def write_partition(P, path, form="text"):
    """Write a partition file; form is "text" or "json"."""
    if form == "text":
        payload = format_partition(P)
    elif form == "json":
        payload = json.dumps(partition_to_json(P), indent=1) + "\n"
    else:
        raise FileFormatError(f"unknown partition file form {form!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)


def read_partition(path):
    """Read a partition file, sniffing text versus JSON."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"partition file is not UTF-8 text: {exc}")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except ValueError as exc:  # also numbers too long to convert
            raise FileFormatError(f"invalid JSON partition file: {exc}")
        return partition_from_json(doc)
    return parse_partition(text)
