"""Exact arithmetic in small finite fields GF(q).

Field elements are plain integer codes in ``range(q)``.  For a prime field
the code is the residue itself.  For ``q = p^e`` the base-``p`` digits of the
code are the coefficients of the element in the polynomial basis
``1, x, ..., x^(e-1)`` modulo a fixed irreducible polynomial, lowest degree
first.  That polynomial is the first monic irreducible one of degree e
over GF(p) in ``_monic_polys`` order, found by search when the field is
first built; no table of moduli is kept.  For GF(4), GF(8), GF(16) and
GF(9) it is x^2 + x + 1, x^3 + x + 1, x^4 + x + 1 and x^2 + 1.  All
operations go through dense lookup tables built once per field, so
arithmetic in inner loops is a couple of list indexes.

An extension of a field with k elements builds every table from one digit
recurrence: a code a is its constant digit a0 = a % k plus x times the code
a' = a // k.  Sums, negatives, base-scalar multiples and digits of a come
digit by digit from those of a'; x * a shifts the digits up and folds the
top digit back through x^t = -(m_0 + ... + m_{t-1} x^(t-1)); and
a * b = b0 * a + x * (a * b') fills each multiplication row from its own
earlier entries.  Polynomial remainders (``_pmod``) serve only the
irreducibility test of a modulus.

Fields are cached singletons: two calls to :func:`make_field` with the same
order return the same object, which makes identity comparison safe.

Towers are supported through :func:`extension_field`, which builds GF(q^t)
as a degree-``t`` extension of an already constructed GF(q).  The spread and
near-spread constructions rely on this; element codes of an extension are
integers whose base-``q`` digits are the coordinates over the base field.

In characteristic 2 this layout is a guarantee that other modules rely on.
A code of GF(2^e), prime field or tower, is the e bits of its polynomial
coordinates over GF(2), each digit of a tower over GF(2^f) taking f bits
of its own, so ``a + b`` is ``a ^ b`` on codes.  PointIndex in spaces walks
spans over GF(2^e) by XOR of base-q values on that ground.
"""
from __future__ import annotations

from functools import cache

from .errors import BadRange, NotPrimePower, UnsupportedField

# Orders offered to callers for the ambient field of V(n, q).
MAX_FIELD_ORDER = 16
# Internal towers used by constructions may be larger, but table size is
# quadratic in the order so they are capped too.
MAX_EXTENSION_ORDER = 256


def _check_int(name, value, lo=None, hi=None):
    """Return value if it is an int (a bool is not one) in [lo, hi], a
    bound of None being open; else raise BadRange naming the argument.
    Every integer argument of the package is checked here, before any
    arithmetic or table reads it."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise BadRange(f"{name} must be an integer, got {value!r}")
    if lo is not None and value < lo:
        raise BadRange(f"{name} must be at least {lo}, got {value}")
    if hi is not None and value > hi:
        raise BadRange(f"{name} must be at most {hi}, got {value}")
    return value


def _prime_power(q):
    """Split q into (p, e) with p prime, or raise NotPrimePower."""
    if q < 2:
        raise NotPrimePower(f"field order must be at least 2, got {q}")
    p = None
    for cand in range(2, q + 1):
        if q % cand == 0:
            p = cand
            break
    e = 0
    m = q
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise NotPrimePower(f"{q} is not a prime power")
    return p, e


# ---------------------------------------------------------------------------
# polynomial helpers over an existing field, used by the irreducibility test
# ---------------------------------------------------------------------------

def _ptrim(u):
    i = len(u)
    while i > 0 and u[i - 1] == 0:
        i -= 1
    return u[:i]


def _pmod(u, m, K):
    """Remainder of u modulo a monic polynomial m."""
    r = list(_ptrim(tuple(u)))
    dm = len(m) - 1
    while len(r) > dm:
        lead = r[-1]
        if lead != 0:
            shift = len(r) - 1 - dm
            for j in range(dm + 1):
                r[shift + j] = K.sub(r[shift + j], K.mul(lead, m[j]))
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return tuple(r)


def _monic_polys(K, deg):
    """All monic polynomials of the given degree over K, coefficients low first."""
    q = K.q
    for code in range(q ** deg):
        coeffs = []
        c = code
        for _ in range(deg):
            coeffs.append(c % q)
            c //= q
        yield tuple(coeffs) + (1,)


def _is_irreducible(m, K):
    deg = len(m) - 1
    for d in range(1, deg // 2 + 1):
        for div in _monic_polys(K, d):
            if not _pmod(m, div, K):
                return False
    return True


@cache
def _find_irreducible(K, degree):
    for m in _monic_polys(K, degree):
        if _is_irreducible(m, K):
            return m
    raise UnsupportedField(
        f"no irreducible polynomial of degree {degree} over GF({K.q}) found"
    )


class FiniteField:
    """A finite field with dense operation tables.

    Do not call the constructor directly; use :func:`make_field` or
    :func:`extension_field` so instances are cached.
    """

    def __init__(self, p=None, base=None, modulus=None):
        if p is not None:
            self.p = p
            self.base = None
            self.degree = 1
            self.e = 1
            self.modulus = None
            self.q = p
            self._build_prime_tables()
        else:
            if not _is_irreducible(modulus, base):
                raise UnsupportedField(
                    f"modulus {modulus} is reducible over GF({base.q})"
                )
            self.p = base.p
            self.base = base
            self.modulus = tuple(modulus)
            self.degree = len(modulus) - 1
            self.e = base.e * self.degree
            self.q = base.q ** self.degree
            self._build_extension_tables()
        self._build_inverses()

    @property
    def key(self):
        if self.base is None:
            return ("p", self.p)
        return (self.base.key, self.modulus)

    # -- table construction -------------------------------------------------

    def _build_prime_tables(self):
        p = self.p
        self._add = [[(a + b) % p for b in range(p)] for a in range(p)]
        self._mul = [[(a * b) % p for b in range(p)] for a in range(p)]
        self._neg = [(-a) % p for a in range(p)]

    def _build_extension_tables(self):
        K, k, q, t = self.base, self.base.q, self.q, self.degree
        top = q // k  # place value of the highest digit
        # Row a of every table follows from row a' = a // k, built earlier.
        digits, add, neg = [(0,) * t], [list(range(q))], [0]
        scaled = [[0] for _ in range(k)]  # scaled[c][a] = c * a, c in K
        for a in range(1, q):
            a0, a1 = a % k, a // k
            digits.append((a0,) + digits[a1][:-1])
            add_a0, add_a1 = K._add[a0], add[a1]
            add.append([add_a0[b % k] + k * add_a1[b // k] for b in range(q)])
            neg.append(K._neg[a0] + k * neg[a1])
            for c in range(k):
                scaled[c].append(K._mul[c][a0] + k * scaled[c][a1])
        # x^t = -(m_0 + ... + m_{t-1} x^(t-1)) takes the digit x*a shifts out.
        xt = sum(K._neg[m] * k ** i for i, m in enumerate(self.modulus[:t]))
        times_x = [add[(a % top) * k][scaled[a // top][xt]] for a in range(q)]
        mul = []
        for a in range(q):
            row = [0] * q
            for b in range(1, q):  # a * b = b0 * a + x * (a * b')
                row[b] = add[scaled[b % k][a]][times_x[row[b // k]]]
            mul.append(row)
        self._digit_cache = digits
        self._add, self._neg, self._mul = add, neg, mul

    def _build_inverses(self):
        q = self.q
        inv = [0] * q
        for a in range(1, q):
            b = self.pow(a, q - 2)
            if self._mul[a][b] != 1:
                raise UnsupportedField(
                    f"element {a} has no inverse; GF({q}) tables inconsistent"
                )
            inv[a] = b
        self._inv = inv

    # -- arithmetic ----------------------------------------------------------

    def add(self, a, b):
        return self._add[a][b]

    def neg(self, a):
        return self._neg[a]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def mul(self, a, b):
        return self._mul[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.q})")
        return self._inv[a]

    def pow(self, a, k):
        """a**k with 0**0 == 1."""
        _check_int("the exponent", k, 0)
        result = 1
        acc = a
        while k:
            if k & 1:
                result = self._mul[result][acc]
            acc = self._mul[acc][acc]
            k >>= 1
        return result

    # -- structure -----------------------------------------------------------

    def elements(self):
        return range(self.q)

    def nonzero(self):
        return range(1, self.q)

    def coords(self, a):
        """Coordinates of an element over the base field, low position first."""
        if self.base is None:
            return (a,)
        return self._digit_cache[a]

    def from_coords(self, cs):
        if self.base is None:
            (c,) = cs
            return c
        code = 0
        for i, c in enumerate(cs):
            code += c * self.base.q ** i
        return code

    def __repr__(self):
        if self.base is None:
            return f"GF({self.q})"
        return f"GF({self.q})/GF({self.base.q})"


_FIELD_CACHE: dict = {}


def make_field(q):
    """Return the cached GF(q) for a prime power q up to MAX_FIELD_ORDER.

    Raises BadRange when q is not an int (a bool is not one),
    UnsupportedField for any order above the supported maximum, checked
    before any arithmetic on q, and NotPrimePower for the other orders
    that are not prime powers.
    """
    _check_int("q", q)
    if q > MAX_FIELD_ORDER:
        raise UnsupportedField(
            f"GF({q}) is above the supported maximum order {MAX_FIELD_ORDER}"
        )
    p, e = _prime_power(q)
    if e == 1:
        key = ("p", p)
        if key not in _FIELD_CACHE:
            _FIELD_CACHE[key] = FiniteField(p=p)
        return _FIELD_CACHE[key]
    return extension_field(make_field(p), e)


def extension_field(base, degree, modulus=None):
    """Return the cached degree-``degree`` extension of ``base``.

    With ``degree == 1`` the base field itself is returned.  A given
    modulus must be a monic polynomial of that degree over the base:
    ``degree + 1`` int codes of the base, lowest degree first, ending in 1;
    anything else, like a degree that is not a positive int, raises
    BadRange, and a reducible modulus raises UnsupportedField.  The
    modulus, if not given, is the first monic irreducible polynomial of
    that degree in ``_monic_polys`` order, the least code
    m_0 + m_1 q + ... + m_{t-1} q^(t-1) of the coefficients below the
    leading 1; no table of moduli is kept.
    """
    _check_int("degree", degree, 1)
    if modulus is not None:
        try:
            modulus = tuple(modulus)
        except TypeError:
            modulus = (modulus,)
        if len(modulus) != degree + 1 or modulus[-1] != 1:
            raise BadRange(
                f"modulus {modulus!r} is not a monic polynomial of degree "
                f"{degree} over GF({base.q})"
            )
        for c in modulus:
            _check_int("each coefficient of a monic modulus", c, 0, base.q - 1)
    if degree == 1:
        return base
    order = base.q ** degree
    if order > MAX_EXTENSION_ORDER:
        raise UnsupportedField(
            f"GF({order}) exceeds the internal extension cap {MAX_EXTENSION_ORDER}"
        )
    if modulus is None:
        modulus = _find_irreducible(base, degree)
    key = (base.key, modulus)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = FiniteField(base=base, modulus=modulus)
    return _FIELD_CACHE[key]
