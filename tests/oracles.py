"""Second routes kept only to check the package against: the tableau Schur
polynomial, the alternant-ratio character value, the literal twisted
point t.c_n that `schur_at_point(lam, t, n)` stands for, the row-set expansion
unfactored and factored, the twisted Vandermonde multiplied out factor
by factor, the symbolic identity with its right-hand side rebuilt
through `alternant` and compared multiplied out, the substitution
t_s -> t_s^k, evaluation of a Laurent polynomial at a point, all of S_N,
the column-row products by explicit multiplication, the permutation that
normalizes the residue blocks, and Littlewood's n-sign by ribbon
removal.  None of them runs on a product path.
"""

import itertools
from functools import lru_cache
from math import gcd
from operator import add, gt

from charfactor.characters import (_block_minor, alternant, block_key,
                                   denominator_scalar, det_fraction_free)
from charfactor.cyclotomic import (Cyclotomic, _power_map, _sparse_power_rows,
                                   as_cyclotomic, field_degree, zeta)
from charfactor.laurent import LaurentPoly
from charfactor.perms import (DEFAULT_ENUMERATION_BOUND, Perm,
                              check_enumeration_bound, column_subgroup,
                              permutation_parity, row_subgroup)
from charfactor.weights import check_dominant, shifted_weight, staircase


def _ssyt_weights(shape, nvars):
    # content vectors of all semistandard tableaux of the given shape with
    # entries in 1..nvars: rows weakly increase, columns strictly increase
    rows = [r for r in shape if r > 0]
    if not rows:
        yield (0,) * nvars
        return
    cells = [(r, c) for r, width in enumerate(rows) for c in range(width)]
    grid = [[0] * width for width in rows]
    weight = [0] * nvars

    def fill(idx):
        if idx == len(cells):
            yield tuple(weight)
            return
        r, c = cells[idx]
        lo = 1
        if c > 0:
            lo = grid[r][c - 1]
        if r > 0 and grid[r - 1][c] + 1 > lo:
            lo = grid[r - 1][c] + 1
        for val in range(lo, nvars + 1):
            grid[r][c] = val
            weight[val - 1] += 1
            yield from fill(idx + 1)
            weight[val - 1] -= 1
        grid[r][c] = 0

    yield from fill(0)


@lru_cache(maxsize=None)
def schur_polynomial(lam):
    """Schur character of the dominant weight lam as an explicit Laurent
    polynomial in len(lam) variables, summed over semistandard tableaux.

    Negative entries are handled by twisting with a power of the
    determinant character: shift every entry by -lam[-1], then multiply
    the result by (t_1 ... t_N)^lam[-1].
    """
    lam = tuple(lam)
    check_dominant(lam)
    nvars = len(lam)
    base = lam[-1]
    shape = tuple(x - base for x in lam)
    counts = {}
    for w in _ssyt_weights(shape, nvars):
        key = tuple(x + base for x in w)
        counts[key] = counts.get(key, 0) + 1
    return LaurentPoly(nvars, counts)


def alternant_at_point(exponents, point):
    """det(point_i ^ exponents_j), the alternant value at a concrete point."""
    coords = [as_cyclotomic(x) for x in point]
    if len(coords) != len(exponents):
        raise ValueError("point arity mismatch")
    top = max((0, *exponents))
    bottom = -min((0, *exponents))
    if bottom and any(not c for c in coords):
        raise ValueError("pole at evaluation point")
    rows = []
    for c in coords:
        up = _power_ladder(c, top)
        down = _power_ladder(c.inverse(), bottom) if bottom else None
        rows.append([up[e] if e >= 0 else down[-e] for e in exponents])
    return det_fraction_free(rows)


def _power_ladder(c, top):
    # c^0, c^1, ..., c^top (at least up to c^1) by one running product
    powers = [Cyclotomic.rational(1, c.order), c]
    while len(powers) <= top:
        powers.append(powers[-1] * c)
    return powers


def schur_ratio_at_point(lam, point):
    """Character value at a regular point as the Weyl ratio: the alternant
    of the shifted weight over the Vandermonde of the point, one
    determinant of size len(lam)."""
    lam = tuple(lam)
    coords = [as_cyclotomic(x) for x in point]
    if len(coords) != len(lam):
        raise ValueError("point arity mismatch")
    denom = Cyclotomic.rational(1)
    for i in range(len(coords)):
        for j in range(i + 1, len(coords)):
            denom = denom * (coords[i] - coords[j])
    if not denom:
        raise ValueError("point not regular")
    return alternant_at_point(shifted_weight(lam), coords) / denom


def twisted_point(t, n):
    """The literal twisted point t.c_n: the m*n coordinates
    (t, w t, ..., w^(n-1) t), w = zeta_n."""
    roots = [zeta(n, k) for k in range(n)]
    return [w * x for w in roots for x in t]


def _minor_counts(values, rows, m, n):
    # det(x_p^v), p in the 1-based rows and v in values, as integer counts
    # by `block_key` (so a minor with proportional rows cancels to nothing)
    places = [divmod(p - 1, m) for p in rows]
    counts = {}
    for arranged in itertools.permutations(range(m)):
        key = block_key(places, [values[i] for i in arranged], m, n)
        counts[key] = counts.get(key, 0) + permutation_parity(arranged)
    return {key: c for key, c in counts.items() if c}


def numerator_by_row_sets(mu, m, n, rows=None):
    """The twisted alternant of mu by the unfactored row-set expansion:
    each block of mu picks m of the rows still free (any m, or the set
    rows[k:k+m]) and multiplies the whole signed partial sum, kept as
    `block_key` counts, by their minor; reduced to Q(zeta_n) at the end."""
    if len(mu) != m * n:
        raise ValueError("mu length must be m*n")
    jumps = m * (m - 1) // 2
    states = {tuple(range(1, m * n + 1)): {(0,) * (m + 1): 1}}
    for k in range(0, m * n, m):
        minors, following = {}, {}
        for free, partial in states.items():
            picks = ((tuple(sorted(rows[k:k + m])),) if rows
                     else itertools.combinations(free, m))
            for chosen in picks:
                minor = minors.get(chosen)
                if minor is None:
                    minor = minors[chosen] = _minor_counts(mu[k:k + m], chosen, m, n)
                if not minor:
                    continue
                sign = -1 if (sum(map(free.index, chosen)) - jumps) & 1 else 1
                target = following.setdefault(tuple(p for p in free if p not in chosen), {})
                for ka, ca in partial.items():
                    ca *= sign
                    for kb, cb in minor.items():
                        key = tuple(map(add, ka, kb))
                        target[key] = target.get(key, 0) + ca * cb
        states = following
    vecs = {}
    for key, cnt in states.get((), {}).items():
        vec = vecs.setdefault(key[:m], [0] * field_degree(n))
        for i, r in _sparse_power_rows(n)[key[m] % n]:
            vec[i] += cnt * r
    terms = {texp: Cyclotomic(n, vec, _den=1) for texp, vec in vecs.items() if any(vec)}
    return LaurentPoly._raw(m, terms)


def terms_by_row_sets(mu, m, n, rows=None):
    """The twisted alternant of mu by the factored row-set expansion, as
    {tuple of canonical minors, one per block: its scalar in Q(zeta_n)}.
    A state is the tuple of rows still free, its value a count per (tuple
    of the canonical minors picked so far, power of zeta_n); block k picks
    m free rows in distinct classes (any, or the set rows[k:k+m]), since
    rows (k, s) and (k', s) are proportional on its values exactly when
    n / gcd(n, value differences) divides k' - k."""
    if len(mu) != m * n:
        raise ValueError("mu length must be m*n")
    if rows is None and len(set(mu)) < len(mu):
        return {}  # two equal columns
    blocks = [(k, mu[k:k + m], n // gcd(n, *(v - mu[k] for v in mu[k:k + m])))
              for k in range(0, m * n, m)]

    def classes(free, step):
        out = {}
        for p in free:
            out.setdefault(((p - 1) // m % step, (p - 1) % m), []).append(p)
        return sorted(out.items())

    if rows and any(len(classes(rows[k:k + m], step)) < m for k, _, step in blocks):
        return {}
    jumps = m * (m - 1) // 2
    states = {tuple(range(1, m * n + 1)): {((), 0): 1}}
    for k, values, step in blocks:
        minors, following = {}, {}
        lift = [values[0] * step * ((p - 1) // (m * step)) for p in range(m * n + 1)]
        for free, partial in states.items():
            for group in itertools.combinations(classes(rows[k:k + m] if rows else free, step), m):
                combo, picks = zip(*group)
                if combo not in minors:
                    minors[combo] = _block_minor(values, combo, m, n)
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
    scalars = {}
    for (idt, z), x in states.get((), {}).items():
        scalars.setdefault(idt, [0] * n)[z] += x
    terms = {idt: Cyclotomic(n, _power_map(counts, n, 1), _den=1)
             for idt, counts in scalars.items()}
    return {idt: scalar for idt, scalar in terms.items() if scalar}


def twisted_vandermonde_product(m, n):
    """prod_(a<b) (x_a - x_b) over the m*n twisted coordinates
    x_(k*m+s) = zeta_n^k * t_s, multiplied out exactly."""
    total = m * n
    coords = []
    for p in range(total):
        k, s = divmod(p, m)
        exps = [0] * m
        exps[s] = 1
        coords.append(LaurentPoly(m, {tuple(exps): zeta(n, k)}))
    out = LaurentPoly.one(m)
    for a in range(total):
        for b in range(a + 1, total):
            out = out * (coords[a] - coords[b])
    return out


def power_substitute(poly, k):
    """Substitute t_s -> t_s^k for every variable of the Laurent
    polynomial `poly`."""
    if not isinstance(k, int) or k < 1:
        raise ValueError("substitution power must be a positive integer")
    return LaurentPoly._raw(poly.nvars,
                            {tuple(x * k for x in e): c for e, c in poly.terms.items()})


def verify_numerator(cert, lhs):
    """`verify_symbolic` given lhs, the twisted numerator of cert.mu."""
    m, n = cert.m, cert.n
    rho = staircase(m)
    rhs = LaurentPoly.monomial((n * (n - 1) // 2,) * m, 1)
    for eta in cert.etas:
        rhs = rhs * power_substitute(alternant(tuple(e + r for e, r in zip(eta, rho))), n)
    scalar = lhs.scalar_ratio(rhs)
    if scalar is None:
        return False, None
    ok = scalar * cert.w0_sign == denominator_scalar(m, n) * cert.epsilon
    return ok, scalar


def evaluate(poly, point):
    """Substitute the coordinates of `point` for the variables of the
    Laurent polynomial `poly`; exact.

    Coordinates may be ints, Fractions, or Cyclotomic values.  A zero
    coordinate under a variable that occurs with a negative exponent is
    rejected as a pole.
    """
    if len(point) != poly.nvars:
        raise ValueError("point arity mismatch")
    coords = [as_cyclotomic(x) for x in point]
    for i in range(poly.nvars):
        if any(e[i] < 0 for e in poly.terms) and not coords[i]:
            raise ValueError("pole at evaluation point")
    powers = [{} for _ in coords]
    total = Cyclotomic.rational(0)
    for exps, coeff in poly.terms.items():
        value = coeff
        for i, e in enumerate(exps):
            if e:
                cached = powers[i].get(e)
                if cached is None:
                    cached = coords[i] ** e
                    powers[i][e] = cached
                value = value * cached
        total = total + value
    return total


def symmetric_group(size, bound=DEFAULT_ENUMERATION_BOUND):
    """All of S_size, lexicographic on image vectors."""
    check_enumeration_bound(size, bound)
    for images in itertools.permutations(range(1, size + 1)):
        yield Perm._unchecked(images)


def column_row_products(blocks):
    """The set {c * r : c in the column subgroup, r in the row subgroup},
    built by explicit products; oracle for is_column_row_product."""
    cols = list(column_subgroup(blocks.m, blocks.n))
    rows = list(row_subgroup(blocks.m, blocks.n))
    return {c * r for c in cols for r in rows}


def residue_permutation(vec, m, n):
    """The permutation w with w.act(vec) == normalize_residue_blocks(vec)[0]:
    a stable sort of the positions by residue mod n, then by decreasing
    value."""
    if len(vec) != m * n:
        raise ValueError("vector length must be m*n")
    order = sorted(range(m * n), key=lambda i: (vec[i] % n, -vec[i]))
    return Perm(i + 1 for i in order).inverse()


def littlewood_sign(lam, n):
    """Littlewood's n-sign of the dominant weight lam, with its n-core:
    (sign, core is empty).  The sign is (-1) to the sum of the leg lengths
    of the n-ribbons removed down to the n-core (Macdonald, Symmetric
    Functions and Hall Polynomials, I.1 Ex. 8), read off the beta-numbers
    lam + staircase: a ribbon removal moves a bead b to the free place
    b - n, its leg length the number of beads in between.  A weight with
    negative entries is first shifted by an even constant, which leaves
    the sign of the factorization alone."""
    lam = tuple(lam)
    shift = -lam[-1] + lam[-1] % 2 if lam and lam[-1] < 0 else 0
    beads = set(shifted_weight(tuple(x + shift for x in lam)))
    legs = 0
    while True:
        bead = next((b for b in sorted(beads) if b >= n and b - n not in beads), None)
        if bead is None:
            return (-1) ** legs, beads == set(range(len(lam)))
        legs += sum(1 for x in beads if bead - n < x < bead)
        beads.remove(bead)
        beads.add(bead - n)
