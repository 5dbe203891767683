"""Sparse multivariate Laurent polynomials with exact coefficients.

Terms live in a dict mapping integer exponent tuples (negative exponents
allowed) to nonzero coefficients, Cyclotomic values from the constructor
and `constant`, ints from `characters.multiply_out` with the int 1:

    {(2, -1): z, (0, 3): 2}   <->   (z) * t1^2 t2^-1  +  (2) * t2^3

Each coefficient keeps its own field order: `Cyclotomic` lifts two
coefficients to a common order when they meet in a sum, product or
comparison, so this module never handles orders.  Values are immutable.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import Cyclotomic, as_cyclotomic, zeta

_SCALARS = (int, Fraction, Cyclotomic)


class LaurentPoly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        for exps, value in (terms or {}).items():
            value = as_cyclotomic(value)
            if not value:
                continue
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent tuple {exps} does not have {nvars} entries")
            self.terms[exps] = value

    @classmethod
    def _raw(cls, nvars, terms):
        # internal: terms already pruned
        poly = object.__new__(cls)
        poly.nvars = nvars
        poly.terms = terms
        return poly

    @classmethod
    def zero(cls, nvars):
        return cls._raw(nvars, {})

    @classmethod
    def constant(cls, value, nvars):
        return cls(nvars, {(0,) * nvars: value})

    def _coerce(self, other):
        if isinstance(other, _SCALARS):
            other = LaurentPoly.constant(other, self.nvars)
        elif not isinstance(other, LaurentPoly):
            return None
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for exps, value in other.terms.items():
            total = terms.get(exps)
            total = value if total is None else total + value
            if total:
                terms[exps] = total
            else:
                terms.pop(exps, None)
        return LaurentPoly._raw(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self.scale(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exps = tuple(x + y for x, y in zip(ea, eb))
                value = ca * cb
                total = terms.get(exps)
                total = value if total is None else total + value
                if total:
                    terms[exps] = total
                else:
                    terms.pop(exps, None)
        return LaurentPoly._raw(self.nvars, terms)

    __rmul__ = __mul__

    def scale(self, value):
        if not value:
            return LaurentPoly.zero(self.nvars)
        return LaurentPoly._raw(self.nvars, {e: c * value for e, c in self.terms.items()})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, _SCALARS):
            other = LaurentPoly.constant(other, self.nvars)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def scalar_ratio(self, other):
        """The value c with self == other.scale(c), or None if no single
        scalar matches every term."""
        if not isinstance(other, LaurentPoly) or self.nvars != other.nvars:
            return None
        if not other.terms or set(self.terms) != set(other.terms):
            return None
        probe = next(iter(other.terms))
        ratio = as_cyclotomic(self.terms[probe]) / other.terms[probe]
        for exps, value in other.terms.items():
            if self.terms[exps] != value * ratio:
                return None
        return ratio

    def to_text(self):
        """Render as `(coeff) * t1^a1 t2^a2 ...`, coefficients written as
        polynomials in z, terms in graded lexicographic order."""
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            factors = " ".join(
                f"t{i + 1}" if e == 1 else f"t{i + 1}^{e}"
                for i, e in enumerate(exps) if e
            )
            coeff = f"({self.terms[exps]})"
            parts.append(f"{coeff} * {factors}" if factors else coeff)
        return " + ".join(parts)

    __str__ = to_text

    def __repr__(self):
        return f"LaurentPoly({self.nvars}, {self.to_text()})"


def block_specialize(exponents, m, n):
    """Monomial picked up by substituting coordinate k*m+s -> zeta_n^k * t_s.

    `exponents` has length m*n, read as n consecutive blocks of m; the
    result is a single-term polynomial in t_1..t_m over Q(zeta_n).
    """
    if len(exponents) != m * n:
        raise ValueError("exponent vector length must be m*n")
    texp = [0] * m
    twist = 0
    for pos, e in enumerate(exponents):
        k, s = divmod(pos, m)
        texp[s] += e
        twist += k * e
    return LaurentPoly(m, {tuple(texp): zeta(n, twist)})
