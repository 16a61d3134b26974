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

from .errors import FileFormatError
from .fields import (
    MAX_EXTENSION_ORDER,
    _is_int,
    extension_field,
    make_field,
)
from .partitions import SubspacePartition
from .spaces import FILE_POINT_LIMIT, Subspace, points_exceed

FORMAT_NAME = "vspart-partition"
FORMAT_VERSION = 1


def _field_header(field):
    header = {"q": field.q, "p": field.p, "e": field.e}
    if field.e > 1:
        header["modulus"] = list(field.modulus)
    else:
        header["modulus"] = None
    return header


def _field_from_header(q, p, e, modulus):
    # Bound q and e before computing p**e: p**e == q needs e < q.bit_length().
    if not 2 <= q <= MAX_EXTENSION_ORDER:
        raise FileFormatError(
            f"field order {q} outside [2, {MAX_EXTENSION_ORDER}]"
        )
    if p < 2 or not 1 <= e < q.bit_length() or p**e != q:
        raise FileFormatError(f"inconsistent field header: q={q}, p={p}, e={e}")
    if any(p % d == 0 for d in range(2, p)):
        raise FileFormatError(f"characteristic p={p} is not prime")
    try:
        base = make_field(p)
        if e == 1:
            if modulus is not None:
                raise FileFormatError("prime field must not carry a modulus")
            return base
        if modulus is None:
            raise FileFormatError(f"extension field GF({q}) needs a modulus")
        return extension_field(base, e, modulus=modulus)
    except FileFormatError:
        raise
    except Exception as exc:
        raise FileFormatError(f"cannot reconstruct the field: {exc}")


def _check_ambient(n, q):
    """Reject an ambient dimension below 1 or a V(n,q) with more than
    FILE_POINT_LIMIT points."""
    if n < 1:
        raise FileFormatError(f"bad ambient dimension {n}")
    if points_exceed(n, q, FILE_POINT_LIMIT):
        raise FileFormatError(
            f"V({n},{q}) has more than {FILE_POINT_LIMIT} points, "
            f"the limit for partition files"
        )


def _member_codes(member):
    return [int(c) for row in member.basis for c in row]


def _member_from_codes(codes, n, field):
    if not codes or len(codes) % n != 0:
        raise FileFormatError(
            f"member holds {len(codes)} codes, not a multiple of n={n}"
        )
    q = field.q
    if min(codes) < 0 or max(codes) >= q:
        bad = next(c for c in codes if not 0 <= c < q)
        raise FileFormatError(f"element code {bad} outside GF({q})")
    rows = tuple([tuple(codes[i : i + n]) for i in range(0, len(codes), n)])
    if not _is_canonical(rows):
        raise FileFormatError("member rows are not a canonical basis")
    return Subspace(field, n, rows)


def _is_canonical(rows):
    """Whether rows are in reduced row echelon form with no zero row: one
    scan of each row finds its lead, and the earlier rows must be 0 in
    that column (the later ones are, as their leads come after it)."""
    last = -1
    for i, row in enumerate(rows):
        for lead, x in enumerate(row):
            if x:
                break
        else:
            return False
        if x != 1 or lead <= last:
            return False
        for earlier in rows[:i]:
            if earlier[lead]:
                return False
        last = lead
    return True


def partition_to_json(P):
    doc = {"format": FORMAT_NAME, "version": FORMAT_VERSION, "n": P.n}
    doc.update(_field_header(P.field))
    doc["members"] = [_member_codes(m) for m in P.members]
    return doc


def partition_from_json(doc):
    if not isinstance(doc, dict):
        raise FileFormatError("partition document must be a JSON object")
    if doc.get("format") != FORMAT_NAME:
        raise FileFormatError("not a partition document")
    if doc.get("version") != FORMAT_VERSION:
        raise FileFormatError(f"unsupported version {doc.get('version')!r}")
    try:
        n, q, p, e, modulus, members = (
            doc[key] for key in ("n", "q", "p", "e", "modulus", "members")
        )
    except KeyError as exc:
        raise FileFormatError(f"malformed partition document: no {exc}")
    # As the text reader takes only integers, this one takes only JSON
    # integers, in JSON arrays where a list is meant.
    if not (isinstance(members, list)
            and all(isinstance(m, list) for m in members)
            and (modulus is None or isinstance(modulus, list))):
        raise FileFormatError(
            "members, each member and the modulus must be JSON arrays"
        )
    numbers = [n, q, p, e, *(modulus or ()), *(c for m in members for c in m)]
    if not all(map(_is_int, numbers)):
        raise FileFormatError(
            "n, q, p, e, modulus coefficients and member codes must be "
            "JSON integers"
        )
    field = _field_from_header(q, p, e, modulus)
    _check_ambient(n, field.q)
    subs = [_member_from_codes(m, n, field) for m in members]
    if not subs:
        raise FileFormatError("partition document has no members")
    return SubspacePartition(n, field, subs)


def format_partition(P):
    """Render the text form of a partition."""
    header = _field_header(P.field)
    lines = [
        f"{FORMAT_NAME} {FORMAT_VERSION}",
        f"n {P.n}",
        f"q {header['q']}",
        f"p {header['p']}",
        f"e {header['e']}",
    ]
    if header["modulus"] is not None:
        lines.append("modulus " + " ".join(str(c) for c in header["modulus"]))
    for m in P.members:
        lines.append("member " + " ".join(str(c) for c in _member_codes(m)))
    return "\n".join(lines) + "\n"


def _parse_int_fields(lines, want):
    got = {}
    for key in want:
        if not lines:
            raise FileFormatError(f"missing header line {key!r}")
        parts = lines.pop(0).split()
        if len(parts) != 2 or parts[0] != key:
            raise FileFormatError(f"expected {key!r} header, got {parts!r}")
        try:
            got[key] = int(parts[1])
        except ValueError:
            raise FileFormatError(f"header {key!r} is not an integer")
    return got


def parse_partition(text):
    """Parse the text form of a partition."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise FileFormatError("empty partition file")
    head = lines.pop(0).split()
    if head[:1] != [FORMAT_NAME]:
        raise FileFormatError("not a partition file")
    if head[1:] != [str(FORMAT_VERSION)]:
        raise FileFormatError(f"unsupported version {head[1:]}")
    fields = _parse_int_fields(lines, ["n", "q", "p", "e"])
    modulus = None
    if lines and lines[0].startswith("modulus"):
        try:
            modulus = [int(c) for c in lines.pop(0).split()[1:]]
        except ValueError:
            raise FileFormatError("modulus coefficients must be integers")
    field = _field_from_header(fields["q"], fields["p"], fields["e"], modulus)
    n = fields["n"]
    _check_ambient(n, field.q)
    subs = []
    for ln in lines:
        parts = ln.split()
        if parts[0] != "member":
            raise FileFormatError(f"unexpected line {ln!r}")
        try:
            codes = list(map(int, parts[1:]))
        except ValueError:
            raise FileFormatError(f"member codes must be integers: {ln!r}")
        subs.append(_member_from_codes(codes, n, field))
    if not subs:
        raise FileFormatError("partition file has no members")
    return SubspacePartition(n, field, subs)


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
