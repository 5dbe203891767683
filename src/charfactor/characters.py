"""Alternants, twisted-point specializations, and Schur character values.

The twisted point attaches the m parameters t_1..t_m to every power of a
primitive n-th root of unity: coordinate k*m+s carries zeta_n^k * t_s.
Everything here is exact over Q(zeta_N).

The alternating sums (`twisted_numerator`, `coset_block_sum`, `alternant`)
are products of block minors det(x_p^v), each built once by one S_m
enumeration as +-zeta_n^c times a canonical minor.  Sorted by residue
class mod n, the twisted matrix factors as (F_n x I_m) diag(B_0, ...,
B_(n-1)), F_n = (zeta_n^(kr)) and B_r = (t_s^v) over the values v of
class r, so the numerator is det(F_n)^m times the n minors det(B_r) when
every class holds m distinct values and zero otherwise.  With the rows
fixed to a coset, the sum is the sign of the representative times the n
minors on its rows; a block on a pair of proportional rows makes it zero
before any minor is built.  `factorize.verify_terms` decides the symbolic
identity on the tuple of minors, and `multiply_out` turns it into a
Laurent polynomial, once.  The twisted Vandermonde is the numerator of
the staircase, det(x_p^(rho_j)) = prod_(a<b) (x_a - x_b), so it takes
the same route.  The row-set expansion, unfactored and factored, the
brute-force (mn)! and row-subgroup sums, the identity compared
multiplied out through `alternant`, and the Vandermonde multiplied out
factor by factor are test oracles.

Character values come from one route, Jacobi-Trudi: one determinant over
the elementary or the complete symmetric functions of a concrete point,
on the shorter side of the diagram, so of size at most N - 1.  As
prod_(k<n) (1 + zeta_n^k x z) = 1 - (-x z)^n, those of t.c_n are e_(nj) =
(-1)^((n+1)j) e_j and h_(nj) = h_j of the t_s^n, and zero in degrees not
divisible by n, so a rational t keeps the determinant over Q.  It is a
polynomial identity, so the point need not be regular.  The tableau Schur
polynomial, the alternant ratio and the literal point t.c_n that
cross-check it live with the test oracles.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce
from math import comb, gcd, lcm
from operator import add, mul

from .cyclotomic import Cyclotomic, _power_map, as_cyclotomic, zeta
from .laurent import LaurentPoly
from .perms import (DEFAULT_ENUMERATION_BOUND, check_enumeration_bound,
                    permutation_parity)
from .weights import check_dominant, is_residue_balanced


def block_key(places, values, m, n):
    """The monomial prod x_p^v with x_(k*m+s) = zeta_n^k * t_s, given one
    place (k, s) per value, as the integer key (t_1..t_m exponents, power
    of zeta_n mod n)."""
    key = [0] * (m + 1)
    for (k, s), v in zip(places, values):
        key[s] += v
        key[m] += k * v
    key[m] %= n
    return tuple(key)


@lru_cache(maxsize=None)
def _parities(m):
    # parities of the arrangements of range(m), in itertools.permutations order
    return tuple(map(permutation_parity, itertools.permutations(range(m))))


def _block_minor(values, places, m, n):
    # det(x_p^v), p at the places (k, s) in order and v in values, by
    # `block_key` counts, as (form, c, sign): sign * zeta_n^c times the
    # canonical form; None when the counts cancel
    counts = {}
    for arranged, parity in zip(itertools.permutations(values), _parities(m)):
        key = block_key(places, arranged, m, n)
        counts[key] = counts.get(key, 0) + parity
    first = min((key for key, cnt in counts.items() if cnt), default=None)
    if first is None:
        return None
    c, sign = first[m], 1 if counts[first] > 0 else -1
    form = frozenset([(key[:m], (key[m] - c) % n, sign * cnt)
                      for key, cnt in counts.items() if cnt])
    return form, c, sign


def _minor_tuple(blocks, m, n):
    # the minors of the (values, places) blocks as (tuple of canonical
    # forms, sum of their powers of zeta_n, product of their signs); None
    # when one of them vanishes
    forms, c, sign = [], 0, 1
    for values, places in blocks:
        minor = _block_minor(values, places, m, n)
        if minor is None:
            return None
        forms.append(minor[0])
        c += minor[1]
        sign *= minor[2]
    return tuple(forms), c, sign


def multiply_out(terms, m, n):
    """The Laurent polynomial of terms {tuple of canonical minors: scalar
    in Z[zeta_n]}: each tuple multiplied out once, by prefix, summed once."""
    if not terms:
        return LaurentPoly.zero(m)  # an unbalanced mu
    total, products = {}, {(): {(0,) * (m + 1): 1}}

    def product(idt):
        if idt not in products:
            products[idt] = out = {}
            for ka, ca in product(idt[:-1]).items():
                for kb, zb, cb in idt[-1]:
                    key = (*map(add, ka, kb), (ka[m] + zb) % n)
                    out[key] = out.get(key, 0) + ca * cb
        return products[idt]

    for idt, scalar in terms.items():
        coords = [(i, x) for i, x in enumerate(scalar.num) if x]
        for key, cnt in product(idt).items():
            row = total.setdefault(key[:m], [0] * n)
            for i, x in coords:
                row[(key[m] + i) % n] += cnt * x
    terms = {texp: _power_map(row, n, 1) for texp, row in total.items()}
    return LaurentPoly._raw(m, {t: Cyclotomic(n, v, _den=1) for t, v in terms.items() if any(v)})


def coset_block_sum(mu, m, n, rep):
    """Signed sum of the block-specialized monomials of mu over the left
    coset of the row subgroup represented by rep: sgn(rep) times the n
    minors of block k of mu on the rows rep(block k), multiplied out; it
    holds for any mu.  A block on a pair of proportional rows makes the
    sum zero before any minor is built."""
    if len(mu) != m * n:
        raise ValueError("mu length must be m*n")
    blocks = [(mu[k:k + m], [divmod(p - 1, m) for p in rep.images[k:k + m]])
              for k in range(0, m * n, m)]
    for values, places in blocks:
        # rows (k, s) and (k', s) are proportional on the values exactly
        # when (k' - k)(v - v0) = 0 mod n for every v, so when step | k' - k
        step = n // gcd(n, *(v - values[0] for v in values))
        if len({(k % step, s) for k, s in places}) < m:
            return LaurentPoly.zero(m)
    minors = _minor_tuple(blocks, m, n)
    if minors is None:
        return LaurentPoly.zero(m)
    forms, c, sign = minors
    scalar = zeta(n, c)
    return multiply_out({forms: scalar if sign * rep.sign > 0 else -scalar}, m, n)


def twisted_numerator_terms(mu, m, n, bound=DEFAULT_ENUMERATION_BOUND):
    """The twisted alternant det(x_p^(mu_j)), x_(k*m+s) = zeta_n^k * t_s, as
    {tuple of n canonical minors (frozensets of (t-exponents, power of
    zeta_n, count)): nonzero scalar in Q(zeta_n)}.  Sorted by residue
    class mod n, with the parity of the sort, the matrix is (F_n x I_m)
    diag(B_0, ..., B_(n-1)), F_n = (zeta_n^(kr)) and B_r = (t_s^v) over
    the values v of class r.  So a mu with a repeated entry or classes of
    unequal size gives {}, and any other one tuple: the minors det(B_r),
    with det(F_n)^m = (-1)^(C(n,2) C(m+1,2)) `denominator_scalar(m, n)`."""
    check_enumeration_bound(m * n, bound)
    if len(mu) != m * n:
        raise ValueError("mu length must be m*n")
    if len(set(mu)) < len(mu) or not is_residue_balanced(mu, m, n):
        return {}
    order = sorted(range(m * n), key=lambda j: mu[j] % n)
    tops = [(0, s) for s in range(m)]
    # the values are distinct, so no minor vanishes
    forms, _, sign = _minor_tuple([([mu[j] for j in order[k:k + m]], tops)
                                   for k in range(0, m * n, m)], m, n)
    if (n * (n - 1) // 2) * (m * (m + 1) // 2) % 2:
        sign = -sign
    scalar = denominator_scalar(m, n)
    return {forms: scalar if sign * permutation_parity(order) > 0 else -scalar}


def twisted_numerator(mu, m, n, bound=DEFAULT_ENUMERATION_BOUND):
    """`twisted_numerator_terms` multiplied out: an exact Laurent polynomial
    in t_1..t_m over Q(zeta_n), antisymmetric in mu, and zero exactly when
    mu has a repeated entry or residue classes mod n of unequal size."""
    return multiply_out(twisted_numerator_terms(mu, m, n, bound), m, n)


def alternant(exponents):
    """det(t_s^(e_j)), the alternating sum over all arrangements of the
    exponent vector, as a Laurent polynomial: the case n = 1 of the
    twisted numerator, a single minor, at any length."""
    m = len(exponents)
    return multiply_out(twisted_numerator_terms(exponents, m, 1, bound=m), m, 1)


@lru_cache(maxsize=None)
def denominator_scalar(m, n):
    """The constant in the factored twisted Vandermonde:
    (-1)^(C(m,2)*C(n,2)) * prod_(i<j) (zeta_n^i - zeta_n^j)^m."""
    c = Cyclotomic.rational(1, n)
    for i in range(n):
        for j in range(i + 1, n):
            c = c * (zeta(n, i) - zeta(n, j))
    c = c ** m
    if (m * (m - 1) // 2) * (n * (n - 1) // 2) % 2:
        c = -c
    return c


def twisted_vandermonde_closed(m, n):
    """Factored form of the twisted Vandermonde: the scalar above times
    prod_(i<j) (t_i^n - t_j^n)^n, multiplied out over Z in u_s = t_s^n,
    times (t_1 ... t_m)^(n(n-1)/2); each coefficient meets Q(zeta_n) once."""
    poly = {(0,) * m: 1}
    binomial = [(-1) ** k * comb(n, k) for k in range(n + 1)]
    for i, j in itertools.combinations(range(m), 2):
        out = {}
        for exps, c in poly.items():
            # times (u_i - u_j)^n, term by term from u_i^n down to u_j^n
            key = list(exps)
            key[i] += n
            for b in binomial:
                at = tuple(key)
                out[at] = out.get(at, 0) + b * c
                key[i] -= 1
                key[j] += 1
        poly = {key: c for key, c in out.items() if c}
    scalar, shift = denominator_scalar(m, n), n * (n - 1) // 2
    return LaurentPoly._raw(m, {tuple(n * u + shift for u in exps): scalar * c
                                for exps, c in poly.items()})


def det_fraction_free(matrix):
    """Exact determinant by fraction-free (Bareiss) elimination with row
    pivoting; entries may mix rationals and cyclotomic values of any
    orders, which `Cyclotomic` lifts where they meet.  Each pivot but the
    last is inverted once and the next step multiplies by its inverse; the
    first step divides by nothing.  Every Bareiss quotient is a minor of
    the matrix, so for integral entries (den == 1, as at integer sample
    points) each intermediate entry and the result stay integral."""
    size = len(matrix)
    if size == 0:
        return Cyclotomic.rational(1)
    rows = []
    for row in matrix:
        if len(row) != size:
            raise ValueError("matrix must be square")
        rows.append([as_cyclotomic(x) for x in row])
    sign = 1
    zero = Cyclotomic.rational(0)
    for p in range(size - 1):
        if not rows[p][p]:
            for r in range(p + 1, size):
                if rows[r][p]:
                    rows[p], rows[r] = rows[r], rows[p]
                    sign = -sign
                    break
            else:
                return zero
        pivot = rows[p][p]
        scale = rows[p - 1][p - 1].inverse() if p else None
        for r in range(p + 1, size):
            head = rows[r][p]
            for c in range(p + 1, size):
                entry = pivot * rows[r][c] - head * rows[p][c]
                rows[r][c] = entry * scale if p else entry
            rows[r][p] = zero
    det = rows[-1][-1]
    return -det if sign < 0 else det


def schur_at_point(lam, point, n=1):
    """Character value at point.c_n, the coordinates zeta_n^k * x over x
    in point and k < n, by Jacobi-Trudi on the shorter side of the diagram
    of kappa, the positive parts of lam - lam_N: det(e_(kappa'_i - i + j))
    of size kappa_1 when kappa_1 <= len(kappa), else det(h_(kappa_i - i + j))
    of size len(kappa), never larger than N - 1, times (prod of the
    coordinates)^lam_N; a zero coordinate is a pole only when lam_N < 0.
    e_(nj) = (-1)^((n+1)j) e_j and h_(nj) = h_j of the x^n, the other e_k
    and h_k are 0, and the product is (-1)^((n-1)m) prod x^n."""
    lam = tuple(lam)
    check_dominant(lam)
    coords = [as_cyclotomic(x if n == 1 else x ** n) for x in point]
    size = len(lam)
    if len(coords) * n != size:
        raise ValueError("point arity mismatch")
    # lift every coordinate once, so the e_k / h_k updates meet one order
    order = lcm(*(c.order for c in coords))
    coords = [c.embed(order) for c in coords]
    base = lam[-1] if lam else 0
    if base < 0 and any(not c for c in coords):
        raise ValueError("pole at evaluation point")
    kappa = [x - base for x in lam if x > base]
    width = kappa[0] if kappa else 0
    elementary = width <= len(kappa)
    # the largest index any entry needs; e_k vanishes past k = N
    top = width + len(kappa) - 1
    if elementary:
        rows = [sum(1 for x in kappa if x > i) for i in range(width)]
        top = min(top, size)
    else:
        rows = kappa
    zero = Cyclotomic.rational(0, order)
    seq = [Cyclotomic.rational(1, order)] + [zero] * (top // n)
    for i, x in enumerate(coords, 1):
        # one coordinate at a time, seq_k <- seq_k + x * seq_(k-1): with k
        # descending this multiplies by 1 + x z (e_k), ascending by
        # 1 / (1 - x z) (h_k); e_k has no terms past k = i yet
        for k in range(min(i, top // n), 0, -1) if elementary else range(1, top // n + 1):
            seq[k] = seq[k] + x * seq[k - 1]
    if elementary and n % 2 == 0:
        seq[1::2] = [-e for e in seq[1::2]]
    value = det_fraction_free([[seq[d // n] if 0 <= d <= top and d % n == 0 else zero
                                for d in range(r - i, r - i + len(rows))]
                               for i, r in enumerate(rows)])
    if base:
        total = reduce(mul, coords)
        value = value * (-total if (n - 1) * len(coords) % 2 else total) ** base
    return value


def coxeter_value(lam, conjugate=False):
    """Character value at the regular point (1, w, w^2, ...), w a primitive
    root of unity of order len(lam); always 0, 1, or -1.

    With conjugate=True the point is built from the inverse root instead;
    the result must agree whenever it is determined.
    """
    size = len(lam)
    step = -1 if conjugate else 1
    value = schur_at_point(lam, [zeta(size, step * i) for i in range(size)])
    if not (value == 0 or value == 1 or value == -1):
        raise RuntimeError(f"character value at a Coxeter point outside 0,+1,-1: {value}")
    return value
