"""Exact arithmetic in the cyclotomic fields Q(zeta_N).

An element of order N is a coordinate vector over the power basis
1, z, ..., z^(phi(N)-1), where z is a fixed primitive N-th root of unity,
reduced modulo the N-th cyclotomic polynomial, and stored as integer
numerators over one positive common denominator with no factor shared by
all of them.  The representation is canonical, so equality is a
comparison of the stored integers and zero-testing is exact; products,
sums and conjugates are integer arithmetic followed by one gcd, and
nothing here ever touches floating point.  Fractions appear only at the
boundary: `Cyclotomic(order, coeffs)`, `rational`, `coeffs` and
`as_fraction`.

Values of different orders interoperate through `embed`, which realizes
Q(zeta_d) inside Q(zeta_N) for d | N via zeta_d -> zeta_N^(N/d); binary
operations lift both operands into the compound field of order
lcm(a.order, b.order) automatically; the rest of the package holds values
of mixed orders and leaves every lift to this.  The Galois conjugations
zeta -> zeta^j are the same power map, and division multiplies by the
other conjugates over the norm, an integer for the integral numerator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, sub


def _exact_div(num, den):
    # num, den: integer coefficient lists, ascending degree, den monic;
    # the remainder must vanish
    num = list(num)
    width = len(den)
    q = [0] * (len(num) - width + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + width - 1]
        q[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    if any(num[: width - 1]):
        raise ArithmeticError("polynomial division left a remainder")
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Integer coefficients (ascending degree, monic) of the cyclotomic
    polynomial of the given order, by exact division of x^order - 1 by the
    polynomials of all proper divisors."""
    if order < 1:
        raise ValueError("order must be a positive integer")
    poly = [0] * (order + 1)
    poly[0], poly[-1] = -1, 1
    for d in range(1, order):
        if order % d == 0:
            poly = _exact_div(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def field_degree(order: int) -> int:
    """Degree of Q(zeta_order) over Q."""
    return len(cyclotomic_polynomial(order)) - 1


@lru_cache(maxsize=None)
def _zeta_power_rows(order):
    # z^k reduced into the power basis, for k in range(order + deg); the
    # upper range covers reduction of products of two reduced elements
    poly = cyclotomic_polynomial(order)
    deg = len(poly) - 1
    top = tuple(-c for c in poly[:deg])
    rows = []
    cur = (1,) + (0,) * (deg - 1)
    for _ in range(order + deg):
        rows.append(cur)
        carry = cur[-1]
        shifted = (0,) + cur[:-1]
        if carry:
            cur = tuple(s + carry * t for s, t in zip(shifted, top))
        else:
            cur = shifted
    return rows


@lru_cache(maxsize=None)
def _sparse_power_rows(order):
    # the rows of `_zeta_power_rows` as (index, coefficient) pairs of the
    # nonzero entries
    return [tuple((i, r) for i, r in enumerate(row) if r)
            for row in _zeta_power_rows(order)]


def _power_map(num, order, step):
    # sum_j c_j * zeta_order^(j*step), each power reduced through the table
    rows = _sparse_power_rows(order)
    out = [0] * field_degree(order)
    for j, c in enumerate(num):
        if c:
            for i, r in rows[(j * step) % order]:
                out[i] += c * r
    return out


class Cyclotomic:
    """An element of Q(zeta_order) in canonical reduced form: integer
    coordinates `num` over the power basis and one positive common
    denominator `den`, with gcd(den, *num) == 1 (so den == 1 exactly for
    the algebraic integers of Z[zeta_order]).

    `Cyclotomic(order, coeffs)` takes ints or Fractions; `coeffs` reads
    the coordinates back as Fractions.  Instances are immutable, so they
    are safe to share across threads; all operations return new values.
    """

    __slots__ = ("order", "num", "den")

    def __init__(self, order, coeffs, _den=None):
        # _den: internal fast path; coeffs are then integer numerators over
        # the positive _den, reduced here by their common gcd
        if _den is None:
            deg = field_degree(order)
            coeffs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
            if len(coeffs) != deg:
                raise ValueError(f"order {order} needs {deg} coordinates, got {len(coeffs)}")
            _den = lcm(*(c.denominator for c in coeffs))
            coeffs = [c.numerator * (_den // c.denominator) for c in coeffs]
        elif _den != 1:
            g = gcd(_den, *coeffs)
            if g != 1:
                _den //= g
                coeffs = [c // g for c in coeffs]
        self.order = order
        self.num = tuple(coeffs)
        self.den = _den

    @classmethod
    def rational(cls, value, order=1):
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        return cls(order, (value.numerator,) + (0,) * (field_degree(order) - 1),
                   _den=value.denominator)

    @property
    def coeffs(self):
        """The coordinates over the power basis, as Fractions."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    def _pair(self, other):
        if isinstance(other, Cyclotomic):
            if self.order == other.order:
                return self, other
            target = lcm(self.order, other.order)
            return self.embed(target), other.embed(target)
        if isinstance(other, (int, Fraction)):
            return self, Cyclotomic.rational(other, self.order)
        return None

    def _combine(self, other, op):
        # op(self, other) for op in (operator.add, operator.sub), over the
        # lcm of the two denominators
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        da, db = a.den, b.den
        if da == db:
            num = list(map(op, a.num, b.num))
        else:
            g = gcd(da, db)
            ma, mb = db // g, da // g
            num = [op(x * ma, y * mb) for x, y in zip(a.num, b.num)]
            da *= ma
        return Cyclotomic(a.order, num, _den=da)

    def __add__(self, other):
        return self._combine(other, add)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, [-x for x in self.num], _den=self.den)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Cyclotomic):
            if self.order == other.order:
                a, b = self, other
            else:
                a, b = self._pair(other)
        elif isinstance(other, int):
            return Cyclotomic(self.order, [x * other for x in self.num], _den=self.den)
        elif isinstance(other, Fraction):
            scale = other.numerator
            return Cyclotomic(self.order, [x * scale for x in self.num],
                              _den=self.den * other.denominator)
        else:
            return NotImplemented
        an, bn = a.num, b.num
        deg = len(an)
        if deg == 1:
            return Cyclotomic(a.order, (an[0] * bn[0],), _den=a.den * b.den)
        prod = [0] * (2 * deg - 1)
        for i, x in enumerate(an):
            if x:
                for k, y in enumerate(bn, i):
                    if y:
                        prod[k] += x * y
        rows = _sparse_power_rows(a.order)
        out = prod[:deg]
        for k in range(deg, 2 * deg - 1):
            c = prod[k]
            if c:
                for j, r in rows[k]:
                    out[j] += c * r
        return Cyclotomic(a.order, out, _den=a.den * b.den)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse: den times the product of the Galois
        conjugates sigma_j(num), 1 < j < order coprime to it, over the norm
        of num (num times that product), read by `as_fraction`, which
        raises unless rational.  num is integral, so every product is.

        The conjugates pair up under sigma_-1: the product is sigma_-1(num)
        times sigma_j(num * sigma_-1(num)) over the j in 1 < j < order / 2,
        about phi(order) / 2 products."""
        if not self:
            raise ZeroDivisionError("division by zero in cyclotomic field")
        order = self.order
        whole = self if self.den == 1 else Cyclotomic(order, self.num, _den=1)
        if order <= 2:
            others, norm = Cyclotomic.rational(1, order), whole
        else:
            others = whole.galois(order - 1)
            norm = whole * others
            rest = None
            for j in range(2, (order + 1) // 2):
                if gcd(j, order) == 1:
                    sigma = norm.galois(j)
                    rest = sigma if rest is None else rest * sigma
            if rest is not None:
                others, norm = others * rest, norm * rest
        norm = norm.as_fraction()
        scale = self.den * norm.denominator
        den = others.den * norm.numerator
        if den < 0:
            den, scale = -den, -scale
        return Cyclotomic(order, [x * scale for x in others.num], _den=den)

    def __truediv__(self, other):
        if isinstance(other, Cyclotomic):
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero in cyclotomic field")
            return self * (1 / Fraction(other))
        return NotImplemented

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = Cyclotomic.rational(1, self.order)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def embed(self, order):
        """Image in Q(zeta_order) under zeta_d -> zeta_order^(order/d);
        requires self.order to divide order."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError(f"cannot embed order {self.order} into order {order}")
        return Cyclotomic(order, _power_map(self.num, order, order // self.order),
                          _den=self.den)

    def galois(self, j):
        """Image under the automorphism sigma_j: zeta -> zeta^j of
        Q(zeta_order); j must be coprime to the order."""
        return Cyclotomic(self.order, _power_map(self.num, self.order, j), _den=self.den)

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a.den == b.den and a.num == b.num

    def as_fraction(self):
        if any(self.num[1:]):
            raise ValueError(f"not a rational value: {self}")
        return Fraction(self.num[0], self.den)

    def __str__(self):
        parts = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            if j == 0:
                parts.append(str(c))
                continue
            var = "z" if j == 1 else f"z^{j}"
            if c == 1:
                parts.append(var)
            elif c == -1:
                parts.append(f"-{var}")
            else:
                parts.append(f"{c}*{var}")
        if not parts:
            return "0"
        text = parts[0]
        for part in parts[1:]:
            text += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return text

    def __repr__(self):
        return f"Cyclotomic({self.order}, {self})"


def zeta(order, power=1):
    """zeta_order raised to the given power (taken mod order), reduced."""
    return Cyclotomic(order, _zeta_power_rows(order)[power % order], _den=1)


def as_cyclotomic(value):
    """Coerce an int, Fraction, or Cyclotomic into a Cyclotomic value."""
    if isinstance(value, Cyclotomic):
        return value
    if isinstance(value, (int, Fraction)):
        return Cyclotomic.rational(value)
    raise TypeError(f"cannot interpret {value!r} as a cyclotomic number")
