"""Alternants, twisted-point specializations, and Schur character values.

The twisted point attaches the m parameters t_1..t_m to every power of a
primitive n-th root of unity: coordinate k*m+s carries zeta_n^k * t_s.
Everything here is exact over Q(zeta_N).

The alternating sums (`twisted_numerator`, `coset_block_sum`, `alternant`)
share one route, the row-set expansion: generalized Laplace expansion along
the n blocks of the exponent vector in order, each block picking m of the
rows still free.  Rows (k, s) and (k', s) are proportional on a block's
values exactly when (k' - k)(v - v0) = 0 mod n for every value v, so no
pick holding such a pair is built; with the rows fixed, one such block
makes the sum zero before any minor is built.  Each minor that is built is
+-zeta_n^c times a canonical minor, and a state (the rows still free)
carries one integer count per power of zeta_n for each tuple of canonical
minors picked so far; the tuples whose counts survive in Q(zeta_n) are the
terms.  `factorize.verify_terms` decides the symbolic identity on them,
and `multiply_out` turns them into each sum's Laurent polynomial, once.
With the rows free, mu is first sorted by residue class mod n, the fullest
class first (the sum is antisymmetric in mu), so that a block's values
mostly share a residue and few picks survive.  The twisted Vandermonde
is the numerator of the staircase, det(x_p^(rho_j)) = prod_(a<b) (x_a -
x_b), so it takes the same route.  The unfactored expansion, the
brute-force (mn)! and row-subgroup sums, the identity compared multiplied
out through `alternant`, and the Vandermonde multiplied out factor by
factor are test oracles.

Character values come from one route, Jacobi-Trudi: one determinant over
the elementary or the complete symmetric functions of a concrete point,
on the shorter side of the diagram, so of size at most N - 1.  It is a
polynomial identity, so the point need not be regular.  The tableau Schur
polynomial and the alternant ratio that cross-check it live with the test
oracles.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd, lcm
from operator import add, gt

from .cyclotomic import Cyclotomic, _power_map, as_cyclotomic, zeta
from .laurent import LaurentPoly
from .perms import (DEFAULT_ENUMERATION_BOUND, check_enumeration_bound,
                    permutation_parity)
from .weights import check_dominant


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


def _block_minor(values, places, m, n, forms):
    # det(x_p^v), p at the places (k, s) in order and v in values, by
    # `block_key` counts, as (form, c, sign): sign * zeta_n^c times the
    # canonical form, kept once in forms; None when the counts cancel
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
    return forms.setdefault(form, form), c, sign


def _row_set_expansion(mu, m, n, rows=None):
    # {tuple of canonical minors, one per block: its scalar in Q(zeta_n)};
    # a state is the tuple of rows still free, its value a count per (tuple
    # of the canonical minors picked so far, power of zeta_n); block k picks
    # m free rows in distinct classes (any, or the set rows[k:k+m])
    if len(mu) != m * n:
        raise ValueError("mu length must be m*n")
    if rows is None and len(set(mu)) < len(mu):
        return {}  # two equal columns
    # rows (k, s) and (k', s) are proportional exactly when step | k' - k
    blocks = [(k, mu[k:k + m], n // gcd(n, *(v - mu[k] for v in mu[k:k + m])))
              for k in range(0, m * n, m)]

    def classes(free, step):
        out = {}
        for p in free:
            out.setdefault(((p - 1) // m % step, (p - 1) % m), []).append(p)
        return sorted(out.items())

    if rows and any(len(classes(rows[k:k + m], step)) < m for k, _, step in blocks):
        return {}
    jumps, forms = m * (m - 1) // 2, {}
    states = {tuple(range(1, m * n + 1)): {((), 0): 1}}
    for k, values, step in blocks:
        minors, following = {}, {}
        lift = [values[0] * step * ((p - 1) // (m * step)) for p in range(m * n + 1)]
        for free, partial in states.items():
            for group in itertools.combinations(classes(rows[k:k + m] if rows else free, step), m):
                combo, picks = zip(*group)
                if combo not in minors:
                    minors[combo] = _block_minor(values, combo, m, n, forms)
                if not minors[combo]:
                    continue
                form, c, minor_sign = minors[combo]
                # row (k, s) is zeta_n^(v0 (k - k % step)) times its class's
                # row; chosen is in class order, so its inversions count too
                for chosen in itertools.product(*picks):
                    shift = c + sum(map(lift.__getitem__, chosen))
                    odd = (sum(map(free.index, chosen)) - jumps + (minor_sign < 0)
                           + sum(itertools.starmap(gt, itertools.combinations(chosen, 2)))) & 1
                    target = following.setdefault(tuple(p for p in free if p not in chosen), {})
                    for (idt, z), x in partial.items():
                        key = idt + (form,), (z + shift) % n
                        target[key] = target.get(key, 0) + (-x if odd else x)
        states = following
    # reduce the counts of each tuple of minors to Q(zeta_n); keep the nonzero
    scalars = {}
    for (idt, z), x in states.get((), {}).items():
        scalars.setdefault(idt, [0] * n)[z] += x
    terms = {idt: Cyclotomic(n, _power_map(counts, n, 1), _den=1) for idt, counts in scalars.items()}
    return {idt: scalar for idt, scalar in terms.items() if scalar}


def multiply_out(terms, m, n):
    """The Laurent polynomial of row-set terms (scalars in Z[zeta_n]): each
    tuple of canonical minors multiplied out once, by prefix, summed once."""
    if not terms:
        return LaurentPoly.zero(m)  # most cosets of a coset audit
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
    coset of the row subgroup represented by rep: the row-set expansion
    with block k of mu fixed to the rows rep(block k); it holds for any mu."""
    return multiply_out(_row_set_expansion(mu, m, n, rep.images), m, n)


def twisted_numerator_terms(mu, m, n, bound=DEFAULT_ENUMERATION_BOUND):
    """The twisted alternant det(x_p^(mu_j)), x_(k*m+s) = zeta_n^k * t_s, as
    {tuple of n canonical minors (frozensets of (t-exponents, power of
    zeta_n, count)): nonzero scalar in Q(zeta_n)}: the row-set expansion
    with every block free to pick any m rows, on mu sorted by residue
    class, fullest first, the parity of the sort folded into the scalars."""
    check_enumeration_bound(m * n, bound)
    residues = [v % n for v in mu]
    order = sorted(range(len(mu)), key=lambda j: (-residues.count(residues[j]), residues[j]))
    terms = _row_set_expansion([mu[j] for j in order], m, n)
    return terms if permutation_parity(order) > 0 else {t: -c for t, c in terms.items()}


def twisted_numerator(mu, m, n, bound=DEFAULT_ENUMERATION_BOUND):
    """`twisted_numerator_terms` multiplied out: an exact Laurent polynomial
    in t_1..t_m over Q(zeta_n), antisymmetric in mu, and zero exactly when
    the residue classes of mu mod n differ in size."""
    return multiply_out(twisted_numerator_terms(mu, m, n, bound), m, n)


def alternant(exponents):
    """det(t_s^(e_j)), the alternating sum over all arrangements of the
    exponent vector, as a Laurent polynomial: the case n = 1 of the
    row-set expansion."""
    return multiply_out(_row_set_expansion(exponents, len(exponents), 1), len(exponents), 1)


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
    prod_(i<j) (t_i^n - t_j^n)^n times (t_1 ... t_m)^(n(n-1)/2)."""
    poly = LaurentPoly.monomial((n * (n - 1) // 2,) * m)
    for i in range(m):
        for j in range(i + 1, m):
            ei = [0] * m
            ej = [0] * m
            ei[i] = n
            ej[j] = n
            diff = LaurentPoly(m, {tuple(ei): 1, tuple(ej): -1})
            poly = poly * diff ** n
    # the rational product first, so each term meets Q(zeta_n) once
    return poly.scale(denominator_scalar(m, n))


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


def schur_at_point(lam, point):
    """Character value at any point, by Jacobi-Trudi on the shorter side
    of the diagram of kappa, the positive parts of lam - lam_N:
    det(e_(kappa'_i - i + j)) of size kappa_1 when kappa_1 <= len(kappa),
    else det(h_(kappa_i - i + j)) of size len(kappa), times
    (x_1 ... x_N)^lam_N.  The determinant is never larger than N - 1; a
    zero coordinate is a pole only when lam_N < 0."""
    lam = tuple(lam)
    check_dominant(lam)
    coords = [as_cyclotomic(x) for x in point]
    size = len(lam)
    if len(coords) != size:
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
    seq = [Cyclotomic.rational(1, order)] + [zero] * top
    for i, x in enumerate(coords, 1):
        # one coordinate at a time, seq_k <- seq_k + x * seq_(k-1): with k
        # descending this multiplies by 1 + x z (e_k), ascending by
        # 1 / (1 - x z) (h_k); e_k has no terms past k = i yet
        for k in range(min(i, top), 0, -1) if elementary else range(1, top + 1):
            seq[k] = seq[k] + x * seq[k - 1]
    value = det_fraction_free([[seq[r - i + j] if 0 <= r - i + j <= top else zero
                                for j in range(len(rows))]
                               for i, r in enumerate(rows)])
    if base:
        total = coords[0]
        for c in coords[1:]:
            total = total * c
        value = value * total ** base
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
