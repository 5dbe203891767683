"""Exact arithmetic in the cyclotomic fields Q(zeta_N).

An element of order N is a coordinate vector over the power basis
1, z, ..., z^(phi(N)-1), where z is a fixed primitive N-th root of unity,
reduced modulo the N-th cyclotomic polynomial.  The representation is
canonical, so equality is a coefficient comparison and zero-testing is
exact.  Coordinates are `fractions.Fraction`; nothing here ever touches
floating point.

Values of different orders interoperate through `embed`, which realizes
Q(zeta_d) inside Q(zeta_N) for d | N via zeta_d -> zeta_N^(N/d); binary
operations lift both operands into the compound field of order
lcm(a.order, b.order) automatically.  The Galois conjugations
zeta -> zeta^j are the same power map, and division multiplies by the
other conjugates over the norm, a rational number.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

Rational = Fraction


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


def _power_map(coeffs, order, step):
    # sum_j c_j * zeta_order^(j*step), each power reduced through the table
    rows = _zeta_power_rows(order)
    out = [Fraction(0)] * field_degree(order)
    for j, c in enumerate(coeffs):
        if c:
            for i, r in enumerate(rows[(j * step) % order]):
                if r:
                    out[i] += c * r
    return out


class Cyclotomic:
    """An element of Q(zeta_order) in canonical reduced form.

    Instances are immutable, so they are safe to share across threads;
    all operations return new values.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        deg = field_degree(order)
        coeffs = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in coeffs)
        if len(coeffs) != deg:
            raise ValueError(f"order {order} needs {deg} coordinates, got {len(coeffs)}")
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def rational(cls, value, order=1):
        deg = field_degree(order)
        return cls(order, (Fraction(value),) + (Fraction(0),) * (deg - 1))

    def _pair(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.rational(other, self.order)
        elif not isinstance(other, Cyclotomic):
            return None
        if self.order == other.order:
            return self, other
        target = lcm(self.order, other.order)
        return self.embed(target), other.embed(target)

    def __add__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return Cyclotomic(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return Cyclotomic(a.order, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.order, tuple(x * other for x in self.coeffs))
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        deg = len(a.coeffs)
        if deg == 1:
            return Cyclotomic(a.order, (a.coeffs[0] * b.coeffs[0],))
        prod = [Fraction(0)] * (2 * deg - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        prod[i + j] += x * y
        rows = _zeta_power_rows(a.order)
        out = prod[:deg]
        for k in range(deg, 2 * deg - 1):
            c = prod[k]
            if c:
                for j, r in enumerate(rows[k]):
                    if r:
                        out[j] += c * r
        return Cyclotomic(a.order, tuple(out))

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse: the product of the Galois conjugates
        sigma_j(self), 1 < j < order coprime to it, over the norm (self times
        that product), read by `as_fraction`, which raises unless rational."""
        if not self:
            raise ZeroDivisionError("division by zero in cyclotomic field")
        others = Cyclotomic.rational(1, self.order)
        for j in range(2, self.order):
            if gcd(j, self.order) == 1:
                others = others * self.galois(j)
        return others / (self * others).as_fraction()

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero in cyclotomic field")
            return Cyclotomic(self.order, tuple(x / other for x in self.coeffs))
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

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
        return Cyclotomic(order, _power_map(self.coeffs, order, order // self.order))

    def galois(self, j):
        """Image under the automorphism sigma_j: zeta -> zeta^j of
        Q(zeta_order); j must be coprime to the order."""
        return Cyclotomic(self.order, _power_map(self.coeffs, self.order, j))

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a.coeffs == b.coeffs

    @property
    def is_rational(self):
        return not any(self.coeffs[1:])

    def as_fraction(self):
        if not self.is_rational:
            raise ValueError(f"not a rational value: {self}")
        return self.coeffs[0]

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
    row = _zeta_power_rows(order)[power % order]
    return Cyclotomic(order, row)


def as_cyclotomic(value, order=1):
    """Coerce an int, Fraction, or Cyclotomic into a Cyclotomic value."""
    if isinstance(value, Cyclotomic):
        return value
    if isinstance(value, (int, Fraction)):
        return Cyclotomic.rational(value, order)
    raise TypeError(f"cannot interpret {value!r} as a cyclotomic number")
