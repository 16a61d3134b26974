"""Exhaustive checks of the lookup-table field arithmetic."""
import random

import pytest

from vspart import fields
from vspart.errors import BadRange, NotPrimePower, UnsupportedField
from vspart.fields import extension_field, make_field
from vspart.fileio import parse_partition

SUPPORTED_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


def test_field_axioms_exhaustive():
    """Commutativity, associativity, distributivity, identities, inverses,
    checked over every element of every supported field order."""
    for q in SUPPORTED_ORDERS:
        F = make_field(q)
        els = list(F.elements())
        assert els == list(range(q))
        for a in els:
            assert F.add(a, 0) == a
            assert F.mul(a, 1) == a
            assert F.mul(a, 0) == 0
            assert F.add(a, F.neg(a)) == 0
            for b in els:
                assert F.add(a, b) == F.add(b, a)
                assert F.mul(a, b) == F.mul(b, a)
                assert F.sub(a, b) == F.add(a, F.neg(b))
                for c in els:
                    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                    assert F.mul(a, F.add(b, c)) == F.add(
                        F.mul(a, b), F.mul(a, c)
                    )
        for a in F.nonzero():
            inv = F.inv(a)
            assert F.mul(a, inv) == 1
            assert F.mul(inv, a) == 1


def test_no_zero_divisors():
    for q in SUPPORTED_ORDERS:
        F = make_field(q)
        for a in F.nonzero():
            for b in F.nonzero():
                assert F.mul(a, b) != 0


def test_frobenius_is_additive():
    """x -> x^p respects addition in every supported field."""
    for q in SUPPORTED_ORDERS:
        F = make_field(q)
        p = F.p
        for a in F.elements():
            for b in F.elements():
                lhs = F.pow(F.add(a, b), p)
                rhs = F.add(F.pow(a, p), F.pow(b, p))
                assert lhs == rhs


def test_multiplicative_group_order():
    """a^(q-1) = 1 for nonzero a, and a^q = a for all a."""
    for q in SUPPORTED_ORDERS:
        F = make_field(q)
        for a in F.nonzero():
            assert F.pow(a, q - 1) == 1
        for a in F.elements():
            assert F.pow(a, q) == a


def test_pow_edge_cases():
    F = make_field(4)
    assert F.pow(0, 0) == 1
    assert F.pow(0, 5) == 0
    assert F.pow(3, 1) == 3
    with pytest.raises(BadRange):
        F.pow(2, -1)


def test_inverse_of_zero_rejected():
    F = make_field(5)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_default_moduli():
    assert make_field(4).modulus == (1, 1, 1)
    assert make_field(8).modulus == (1, 1, 0, 1)
    assert make_field(16).modulus == (1, 1, 0, 0, 1)
    assert make_field(9).modulus == (1, 0, 1)
    assert make_field(7).modulus is None


def test_gf4_sample_products():
    """In GF(4) with modulus x^2 + x + 1 the element x (code 2) squares
    to x + 1 (code 3)."""
    F = make_field(4)
    assert F.mul(2, 2) == 3
    assert F.mul(2, 3) == 1


def test_fields_are_cached_singletons():
    assert make_field(9) is make_field(9)
    assert make_field(3) is make_field(9).base
    assert extension_field(make_field(2), 2) is make_field(4)


def test_extension_degree_one_is_base():
    F = make_field(3)
    assert extension_field(F, 1) is F


def test_coords_round_trip():
    for q in [4, 8, 9, 16]:
        F = make_field(q)
        e = F.e
        for a in F.elements():
            cs = F.coords(a)
            assert len(cs) == e
            assert all(0 <= c < F.p for c in cs)
            assert F.from_coords(cs) == a
    F3 = make_field(3)
    assert F3.coords(2) == (2,)
    assert F3.from_coords((2,)) == 2


def test_tower_gf16_over_gf4():
    """GF(16) built as a quadratic extension of GF(4) is a field too."""
    F4 = make_field(4)
    F16 = extension_field(F4, 2)
    assert F16.q == 16
    assert F16.p == 2
    assert F16.base is F4
    for a in F16.nonzero():
        assert F16.mul(a, F16.inv(a)) == 1
    for a in F16.elements():
        for b in F16.elements():
            assert F16.mul(a, b) == F16.mul(b, a)


# Every tower GF(b^t) over a supported GF(b) that fits the extension cap.
TOWERS = [
    (b, t) for b in SUPPORTED_ORDERS for t in range(2, 9) if b ** t <= 256
]


def _schoolbook(F):
    """add, neg and mul of F on coefficient lists modulo F.modulus, from the
    base field's public operations only."""
    K, k, t, m = F.base, F.base.q, F.degree, F.modulus

    def digits(a):
        return [a // k ** i % k for i in range(t)]

    def code(u):
        return sum(c * k ** i for i, c in enumerate(u))

    def add(a, b):
        return code([K.add(x, y) for x, y in zip(digits(a), digits(b))])

    def neg(a):
        return code([K.neg(x) for x in digits(a)])

    def mul(a, b):
        prod = [0] * (2 * t - 1)
        for i, x in enumerate(digits(a)):
            for j, y in enumerate(digits(b)):
                prod[i + j] = K.add(prod[i + j], K.mul(x, y))
        for d in range(2 * t - 2, t - 1, -1):  # x^d = x^(d-t) * x^t
            lead = prod[d]
            for j in range(t):
                prod[d - t + j] = K.add(
                    prod[d - t + j], K.neg(K.mul(lead, m[j]))
                )
        return code(prod[:t])

    return add, neg, mul


@pytest.mark.parametrize("b, t", TOWERS, ids=[f"{b}^{t}" for b, t in TOWERS])
def test_tower_tables_match_schoolbook_arithmetic(b, t):
    """Every table of GF(b^t) agrees with polynomial arithmetic modulo its
    modulus: on all pairs up to 64 elements, and above that on every
    product by a basis element x^j plus a seeded sample of pairs."""
    F = extension_field(make_field(b), t)
    add, neg, mul = _schoolbook(F)
    q = F.q
    if q <= 64:
        pairs = [(a, c) for a in range(q) for c in range(q)]
    else:
        rng = random.Random(q)
        pairs = [(a, b ** j) for a in range(q) for j in range(t)]
        pairs += [(rng.randrange(q), rng.randrange(q)) for _ in range(1000)]
    for a, c in pairs:
        assert F.mul(a, c) == mul(a, c), (a, c)
        assert F.add(a, c) == add(a, c), (a, c)
    for a in range(q):
        assert F.neg(a) == neg(a), a


def _read_field(q, e, modulus):
    """The field of a one-point file of V(1, q) with this modulus."""
    text = (
        f"vspart-partition 1\nn 1\nq {q}\np 2\ne {e}\n"
        f"modulus {' '.join(map(str, modulus))}\nmember 1\n"
    )
    return parse_partition(text).field


def test_characteristic_two_addition_is_xor():
    """The span walk over GF(2^e) adds vectors by XOR of their base-q
    values, which needs a + b == a ^ b on codes: checked on every
    characteristic-2 field the package builds, the ambient orders, every
    tower, and fields read from headers with moduli other than the
    defaults."""
    fields = [make_field(q) for q in (2, 4, 8, 16)]
    fields += [
        extension_field(make_field(b), t) for b, t in TOWERS if b % 2 == 0
    ]
    for e, modulus in ((3, (1, 0, 1, 1)), (4, (1, 0, 0, 1, 1))):
        F = _read_field(2 ** e, e, modulus)
        assert F.modulus == modulus
        fields.append(F)
    assert {F.q for F in fields} == {2, 4, 8, 16, 32, 64, 128, 256}
    for F in fields:
        assert F.p == 2
        for a, row in enumerate(F._add):
            assert row == [a ^ b for b in range(F.q)], (F, a)


def test_default_modulus_is_found_once(monkeypatch):
    """The default modulus of each (base, degree) is searched for once: a
    later call for a cached field tests no polynomial for irreducibility."""
    F4 = make_field(4)
    tower = extension_field(F4, 2)
    F16 = make_field(16)
    tested = []
    irreducible = fields._is_irreducible
    monkeypatch.setattr(fields, "_is_irreducible",
                        lambda m, K: tested.append(m) or irreducible(m, K))
    assert extension_field(F4, 2) is tower
    assert make_field(16) is F16
    assert tested == []


def test_bad_orders_rejected():
    with pytest.raises(NotPrimePower):
        make_field(6)
    with pytest.raises(NotPrimePower):
        make_field(12)
    with pytest.raises(NotPrimePower):
        make_field(1)
    with pytest.raises(UnsupportedField):
        make_field(32)
    # the range is checked before any arithmetic on q
    with pytest.raises(UnsupportedField):
        make_field(18)
    with pytest.raises(UnsupportedField):
        make_field(1000000007)
    with pytest.raises(UnsupportedField):
        make_field(10**100 + 267)


def test_reducible_modulus_rejected():
    F2 = make_field(2)
    with pytest.raises(UnsupportedField):
        extension_field(F2, 2, modulus=(1, 0, 1))  # x^2 + 1 = (x + 1)^2


def test_extension_degree_must_be_positive():
    with pytest.raises(BadRange):
        extension_field(make_field(2), 0)


@pytest.mark.parametrize("p, degree, modulus", [
    (2, 2, (1, 1)),        # degree 1 for a degree-2 extension
    (2, 3, (1, 1, 1)),     # degree 2 for a degree-3 extension
    (2, 2, (1, 1, 3)),     # 3 is no code of GF(2)
    (3, 2, (2, 0, 2)),     # not monic
    (2, 2, (1, 1.0, 1)),   # a float coefficient
    (2, 2, 7),             # not a sequence
    (2, 1, (1, 1, 1)),     # degree 2 for a degree-1 extension
])
def test_given_modulus_must_be_monic_of_the_degree(p, degree, modulus):
    """A given modulus needs degree + 1 int codes of the base ending in
    1; anything else is refused with BadRange."""
    with pytest.raises(BadRange, match="monic"):
        extension_field(make_field(p), degree, modulus=modulus)


def test_given_modulus_in_any_sequence_builds_the_same_field():
    F3 = make_field(3)
    F = extension_field(F3, 2, modulus=[2, 2, 1])
    assert F is extension_field(F3, 2, modulus=(2, 2, 1))
    assert F.modulus == (2, 2, 1)
    assert extension_field(F3, 2, modulus=[1, 0, 1]) is make_field(9)
    assert extension_field(F3, 1, modulus=(1, 1)) is F3
