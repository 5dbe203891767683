"""Alternants, twisted-point specializations, and Schur character values.

The twisted point attaches the m parameters t_1..t_m to every power of a
primitive n-th root of unity: coordinate k*m+s carries zeta_n^k * t_s.
Everything is exact: ints stay ints, and `Cyclotomic` lifts field orders.

The alternating sums (`twisted_numerator`, `coset_block_sums`, `alternant`)
are products of plain alternants det(t_s^v).  Sorted by residue class mod
n, the twisted matrix factors as (F_n x I_m) diag(B_0, ..., B_(n-1)), F_n
= (zeta_n^(kr)) and B_r = (t_s^v) over the values v of class r, so the
numerator is det(F_n)^m times the n alternants det(B_r) when every class
holds m distinct values and zero otherwise.  With the rows fixed to a
coset and each block of mu in one class r, row (k, s) of the block is
zeta_n^(kr) t_s^v, so the sum is a signed root of unity times the n
alternants, and zero when a block has two rows in one t-column; one call
checks mu once for all the cosets it is given.  A
numerator is one pair (n tuples of exponents, scalar), so no key holds a
power of zeta_n: `factorize.verify_terms` decides the symbolic identity
on the tuples, and `multiply_out` expands each alternant over Z and
multiplies them out in turn, once; `alternant` is one tuple with the int
1.  The twisted Vandermonde det(x_p^(rho_j)) = prod_(a<b) (x_a - x_b) is
the numerator of the staircase, so it takes the same route, its constant
from n - 1 powers of the 1 - zeta_n^d.  The row-set expansion, factored
or not, the brute-force and row-subgroup sums, the identity multiplied
out through `alternant`, the Vandermonde factor by factor and its
constant over all C(n,2) root differences are test oracles.

Character values come from one route, Jacobi-Trudi: one determinant over
the elementary or the complete symmetric functions of a concrete point,
on the shorter side of the diagram, so of size at most N - 1.  As
prod_(k<n) (1 + zeta_n^k x z) = 1 - (-x z)^n, those of t.c_n are e_(nj) =
(-1)^((n+1)j) e_j and h_(nj) = h_j of the t_s^n, and zero in degrees not
divisible by n, so an integer t keeps the determinant on Python ints.
At the Coxeter point 1.c_N, `coxeter_value` takes the m = 1 certificate's
sign instead; Jacobi-Trudi there is the tests' sign oracle.  The plan,
which e_(nj) or h_(nj) goes in which cell, is cached per (lam, n), at
most 1,024 plans; a raise is not cached.  The identity is polynomial, so
the point need not be regular.  The tableau Schur polynomial, alternant
ratio and literal point t.c_n are test oracles.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb
from operator import add, mul

from .cyclotomic import Cyclotomic, as_cyclotomic, zeta
from .laurent import LaurentPoly
from .perms import (DEFAULT_ENUMERATION_BOUND, check_enumeration_bound,
                    permutation_parity)
from .weights import _staircase_sign, check_dominant, residue_normal_form, shifted_weight


@lru_cache(maxsize=None)
def _parities(m):
    # parities of the arrangements of range(m), in itertools.permutations order
    return tuple(map(permutation_parity, itertools.permutations(range(m))))


def multiply_out(terms, m):
    """The Laurent polynomial of terms, a pair (n tuples of m exponents,
    scalar) or None for zero: the alternant det(t_s^(v_j)) of each tuple,
    its values in the order given, expanded over Z and multiplied into
    the product in turn, then every term times the scalar once (the int 1
    keeps int coefficients)."""
    if terms is None:
        return LaurentPoly.zero(m)  # an unbalanced mu
    blocks, scalar = terms
    product = {(0,) * m: 1}
    for values in blocks:
        arrangements = list(zip(itertools.permutations(values), _parities(m)))
        out = {}
        for key, c in product.items():
            for arranged, parity in arrangements:
                at = tuple(map(add, key, arranged))
                out[at] = out.get(at, 0) + parity * c
        product = out
    return LaurentPoly._raw(m, {key: scalar * c for key, c in product.items() if c})


@lru_cache(maxsize=256)
def check_residue_blocks(mu, m, n):
    """Raise ValueError when a row block of the tuple mu mixes residue
    classes mod n.  A passing (mu, m, n) is cached, so each mu is checked
    once; a raise is not, so a mixing mu raises on every call."""
    if any((v - mu[p - p % m]) % n for p, v in enumerate(mu)):
        raise ValueError("a block of mu mixes residue classes mod n")


def coset_block_sums(mu, m, n, reps):
    """The signed sums of the block-specialized monomials of mu over the
    left cosets of the row subgroup that reps represent, a list in their
    order.  A mu of the wrong length, or with a block that mixes residue
    classes mod n (`check_residue_blocks`), raises ValueError before any
    rep; a rep not of length m*n, before its coset.  Row (k, s) of a block
    of class r is zeta_n^(kr) t_s^v, so a sum is sgn(rep) times, per block,
    the sign of its t-columns and zeta_n^(r * sum of its k), times the n
    alternants, multiplied out.  Two rows of a block in one t-column, that
    is fewer than m*n distinct keys k*m + (image mod m) as in
    `perms.is_column_row_product`, make a sum zero before anything else is
    built: one zero polynomial, shared by every such rep."""
    mu, size = tuple(mu), m * n
    if len(mu) != size:
        raise ValueError("mu length must be m*n")
    check_residue_blocks(mu, m, n)
    zero, sums = LaurentPoly.zero(m), []
    for rep in reps:
        if len(rep.images) != size:
            raise ValueError("rep length must be m*n")
        if len({q // m * m + p % m for q, p in enumerate(rep.images)}) < size:
            sums.append(zero)
            continue
        places = [divmod(p - 1, m) for p in rep.images]
        cols = [s for _, s in places]
        sign = rep.sign
        for q in range(0, size, m):
            sign *= permutation_parity(cols[q:q + m])
        scalar = zeta(n, sum(mu[p] % n * k for p, (k, _) in enumerate(places)))
        sums.append(multiply_out((tuple(mu[q:q + m] for q in range(0, size, m)),
                                  scalar if sign > 0 else -scalar), m))
    return sums


def coset_block_sum(mu, m, n, rep):
    """The `coset_block_sums` of the one coset of rep."""
    return coset_block_sums(mu, m, n, (rep,))[0]


def twisted_numerator_terms(mu, m, n, bound=DEFAULT_ENUMERATION_BOUND):
    """The twisted alternant det(x_p^(mu_j)), x_(k*m+s) = zeta_n^k * t_s, as
    one pair (n tuples of m exponents, nonzero scalar in Z[zeta_n]).
    Rearranged by `weights.residue_normal_form`, with the sign of the
    rearrangement, the matrix is (F_n x I_m) diag(B_0, ..., B_(n-1)), F_n =
    (zeta_n^(kr)) and B_r = (t_s^v) over the values v of class r mod n in
    decreasing order.  So a mu with a repeated entry or classes of unequal
    size gives None (a zero numerator), and any other one the n classes
    with det(F_n)^m = (-1)^(C(n,2) C(m+1,2)) `denominator_scalar(m, n)`."""
    check_enumeration_bound(m * n, bound)
    if len(mu) != m * n:
        raise ValueError("mu length must be m*n")
    normal = residue_normal_form(mu, m, n) if len(set(mu)) == len(mu) else None
    if normal is None:
        return None
    normal, sign = normal
    if (n * (n - 1) // 2) * (m * (m + 1) // 2) % 2:
        sign = -sign
    return tuple([normal[q:q + m] for q in range(0, m * n, m)]), _signed_scalar(m, n, sign)


def twisted_numerator(mu, m, n, bound=DEFAULT_ENUMERATION_BOUND):
    """`twisted_numerator_terms` multiplied out: an exact Laurent polynomial
    in t_1..t_m over Q(zeta_n), antisymmetric in mu, and zero exactly when
    mu has a repeated entry or residue classes mod n of unequal size."""
    return multiply_out(twisted_numerator_terms(mu, m, n, bound), m)


def alternant(exponents):
    """det(t_s^(e_j)), the alternating sum over all arrangements of the
    exponent vector, its values in the order given, as a Laurent
    polynomial with int coefficients, at any length."""
    return multiply_out(((tuple(exponents),), 1), len(exponents))


@lru_cache(maxsize=None)
def denominator_scalar(m, n):
    """The constant in the factored twisted Vandermonde:
    (-1)^(C(m,2)*C(n,2)) * prod_(i<j) (zeta_n^i - zeta_n^j)^m.  As
    zeta^i - zeta^j = zeta^i (1 - zeta^(j-i)), the product over i < j is
    zeta^C(n,3) prod_(d<n) (1 - zeta^d)^(n-d), n - 1 powers."""
    c = zeta(n, comb(n, 3))
    for d in range(1, n):
        c = c * (1 - zeta(n, d)) ** (n - d)
    c = c ** m
    if (m * (m - 1) // 2) * (n * (n - 1) // 2) % 2:
        c = -c
    return c


@lru_cache(maxsize=256)
def _signed_scalar(m, n, sign):
    """sign times `denominator_scalar(m, n)`, one shared value per (m, n, sign)."""
    return denominator_scalar(m, n) if sign > 0 else -denominator_scalar(m, n)


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
    pivoting.  Every Bareiss quotient is a minor of the matrix, so an
    all-int matrix stays on Python ints: each step divides by the previous
    pivot with exact `//`.  Any other matrix may mix ints, Fractions and
    cyclotomic values of any orders, which `Cyclotomic` lifts where they
    meet; each pivot but the last is inverted once and the next step
    multiplies by its inverse.  The first step divides by nothing."""
    size = len(matrix)
    if size == 0:
        return 1
    if size == 1 and len(matrix[0]) == 1:  # no step: the entry, lifted as below
        return matrix[0][0] if type(matrix[0][0]) is int else as_cyclotomic(matrix[0][0])
    # `type`, not isinstance: `//` floors a Fraction, and bool stays out
    exact = all(type(x) is int for row in matrix for x in row)
    rows = []
    for row in matrix:
        if len(row) != size:
            raise ValueError("matrix must be square")
        rows.append(list(row) if exact else [as_cyclotomic(x) for x in row])
    sign = 1
    zero = 0 if exact else Cyclotomic.rational(0)
    for p in range(size - 1):
        if not rows[p][p]:
            for r in range(p + 1, size):
                if rows[r][p]:
                    rows[p], rows[r] = rows[r], rows[p]
                    sign = -sign
                    break
            else:
                return zero
        pivot, prev = rows[p][p], rows[p - 1][p - 1] if p else 1
        scale = prev.inverse() if p and not exact else None
        for r in range(p + 1, size):
            head = rows[r][p]
            for c in range(p + 1, size):
                entry = pivot * rows[r][c] - head * rows[p][c]
                rows[r][c] = entry // prev if exact else entry * scale if p else entry
            rows[r][p] = zero
    det = rows[-1][-1]
    return -det if sign < 0 else det


@lru_cache(maxsize=1024)
def _jacobi_trudi_plan(lam, n):
    # the point-free part of schur_at_point: (lam_N, e or h?, top // n, cells)
    check_dominant(lam)
    base = lam[-1] if lam else 0
    kappa = [x - base for x in lam if x > base]
    if not kappa:  # lam is constant: a power of the coordinate product
        return base, True, -1, ()
    width = kappa[0]
    elementary = width <= len(kappa)
    # the largest index any entry needs; e_k vanishes past k = N
    top = width + len(kappa) - 1
    if elementary:
        rows = []  # kappa', filled from its shortest part up
        for k in range(len(kappa), 0, -1):
            rows += [k] * (kappa[k - 1] - len(rows))
        top = min(top, len(lam))
    else:
        rows = kappa
    # cell (i, j): d // n for d = rows_i - i + j, or -1 where e_d or h_d is 0
    size = len(rows)
    line = [-1] * (size + width + len(kappa))
    line[size:size + top + 1:n] = range(top // n + 1)
    return base, elementary, top // n, tuple([tuple(line[r - i + size:r - i + 2 * size])
                                              for i, r in enumerate(rows)])


def schur_at_point(lam, point, n=1):
    """Character value at point.c_n, the coordinates zeta_n^k * x over x
    in point and k < n, by Jacobi-Trudi on the shorter side of the diagram
    of kappa, the positive parts of lam - lam_N: det(e_(kappa'_i - i + j))
    of size kappa_1 when kappa_1 <= len(kappa), else det(h_(kappa_i - i + j))
    of size len(kappa), never larger than N - 1, times (prod of the
    coordinates)^lam_N; a zero coordinate is a pole only when lam_N < 0.
    e_(nj) = (-1)^((n+1)j) e_j and h_(nj) = h_j of the x^n, the other e_k
    and h_k are 0, and the product is (-1)^((n-1)m) prod x^n.  Ints x^n
    give an int (a Fraction when lam_N < 0); other x^n enter as they are,
    and `Cyclotomic` lifts their orders where two meet.  n < 1 raises."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    lam = tuple(lam)
    coords = list(point) if n == 1 else [x ** n for x in point]
    if len(coords) * n != len(lam):
        raise ValueError("point arity mismatch")
    base, elementary, length, cells = _jacobi_trudi_plan(lam, n)
    if base < 0 and any(not c for c in coords):
        raise ValueError("pole at evaluation point")
    seq = [1] + [0] * (length + 1)  # seq[-1] stays 0, for the cells that are 0
    for i, x in enumerate(coords, 1):
        # one coordinate at a time, seq_k <- seq_k + x * seq_(k-1): with k
        # descending this multiplies by 1 + x z (e_k), ascending by
        # 1 / (1 - x z) (h_k); e_k has no terms past k = i yet
        for k in range(min(i, length), 0, -1) if elementary else range(1, length + 1):
            seq[k] = seq[k] + x * seq[k - 1]
    if elementary and n % 2 == 0:
        seq[1::2] = [-e for e in seq[1::2]]
    value = det_fraction_free([list(map(seq.__getitem__, row)) for row in cells]) if cells else 1
    if base:
        total = reduce(mul, coords)
        total = -total if (n - 1) * len(coords) % 2 else total
        if base < 0 and type(total) is int:
            return Fraction(value, total ** -base)
        value = value * total ** base
    return value


def coxeter_value(lam):
    """Character value at the regular point (1, w, w^2, ...), w a primitive
    root of unity of order N = len(lam), as an int.  That point is 1.c_N,
    where the factors of the m = 1 certificate are 1, so the value is its
    epsilon, by `factorize`'s route, or 0 when lam + rho is not residue-
    balanced mod N: O(N log N) whatever the entries, 1 for the empty weight."""
    normal = residue_normal_form(shifted_weight(lam), 1, len(lam))
    return 0 if normal is None else normal[1] * _staircase_sign(1, len(lam))
