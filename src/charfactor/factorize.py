"""End-to-end factorization of twisted-point character values.

Given a dominant weight for the rank m*n group, the pipeline shifts by the
staircase, tests the residue-balance condition, normalizes into residue
blocks, reads off one rank-m weight per block, and pins the overall sign.
The resulting certificate is exact and independently checkable two ways:
numerically (exact equality at random rational points) and symbolically
(`verify_terms`, on the block minors of the numerator; the identity
multiplied out through `alternant` is its test oracle).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd
from operator import mul

from .cyclotomic import Cyclotomic
from .perms import (DEFAULT_ENUMERATION_BOUND, BlockStructure, Perm,
                    check_enumeration_bound, is_column_row_product,
                    row_coset_reps, column_subgroup)
from .characters import (_minor_tuple, coset_block_sum, coxeter_value,
                         denominator_scalar, multiply_out, schur_at_point,
                         twisted_numerator_terms)
from .weights import (check_dominant, factor_weights, is_residue_balanced,
                      normalize_residue_blocks, shifted_weight, staircase)

DEFAULT_SEED = 1729


@dataclass(frozen=True)
class FactorizationCertificate:
    """Outcome of `factorize`.

    When balanced is False the character is identically zero at every
    twisted point and the remaining fields stay None.  Otherwise mu is the
    residue-normalized shifted weight, w0_sign the sign of the normalizing
    rearrangement, etas the n factor weights of rank m, and epsilon the
    global sign of the factorization.
    """

    m: int
    n: int
    lam: tuple
    balanced: bool
    mu: tuple | None = None
    w0_sign: int | None = None
    etas: tuple | None = None
    epsilon: int | None = None

    def to_dict(self):
        return {
            "m": self.m,
            "n": self.n,
            "lambda": list(self.lam),
            "balanced": self.balanced,
            "mu": list(self.mu) if self.mu is not None else None,
            "w0_sign": self.w0_sign,
            "etas": [list(e) for e in self.etas] if self.etas is not None else None,
            "epsilon": self.epsilon,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            m=int(data["m"]),
            n=int(data["n"]),
            lam=tuple(data["lambda"]),
            balanced=bool(data["balanced"]),
            mu=tuple(data["mu"]) if data.get("mu") is not None else None,
            w0_sign=data.get("w0_sign"),
            etas=tuple(tuple(e) for e in data["etas"])
            if data.get("etas") is not None else None,
            epsilon=data.get("epsilon"),
        )


def factorize(lam, m, n):
    """Produce the factorization certificate for a dominant weight of
    length m*n; a vanishing certificate when the residue balance fails."""
    lam = tuple(lam)
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    if len(lam) != m * n:
        raise ValueError(f"weight length {len(lam)} does not match m*n = {m * n}")
    check_dominant(lam)
    shifted = shifted_weight(lam)
    if not is_residue_balanced(shifted, m, n):
        return FactorizationCertificate(m=m, n=n, lam=lam, balanced=False)
    mu, w0_sign = normalize_residue_blocks(shifted, m, n)
    etas = factor_weights(mu, m, n)
    # mu and the normalized staircase share one row-block scalar at t.c_n (Littlewood's n-core sign)
    epsilon = w0_sign * normalize_residue_blocks(staircase(m * n), m, n)[1]
    return FactorizationCertificate(m=m, n=n, lam=lam, balanced=True,
                                    mu=mu, w0_sign=w0_sign, etas=etas,
                                    epsilon=epsilon)


def sign_via_coxeter(lam, etas, conjugate=False):
    """Determinant oracle for the sign of the factorization.

    Both sides of the identity take values in {0, +1, -1} at the
    primitive-root point (1, a, a^2, ...) with a of order m*n, whose n-th
    powers give the analogous rank-m point; when both are nonzero their
    ratio is the sign.  Returns None when both vanish there.
    """
    big = coxeter_value(tuple(lam), conjugate=conjugate)
    small = Cyclotomic.rational(1)
    for eta in etas:
        small = small * coxeter_value(tuple(eta), conjugate=conjugate)
    if not small and not big:
        return None
    if not big:
        raise RuntimeError("factored side nonzero but direct side zero "
                           "at the Coxeter point")
    if not small:
        raise RuntimeError("direct side nonzero but factored side zero "
                           "at the Coxeter point")
    value = big / small
    if value == 1:
        return 1
    if value == -1:
        return -1
    raise RuntimeError(f"factorization sign is not +-1: {value}")


def random_regular_point(rng, m):
    """m distinct integers drawn from [2, max(97, m + 1)], as Fractions.
    Distinct positive numbers have distinct n-th powers for every n, so
    the twisted point on them is regular."""
    return [Fraction(x) for x in rng.sample(range(2, 2 + max(96, m)), m)]


def sample_points(m, samples, seed=DEFAULT_SEED):
    """The sample points of every numeric check: samples vectors t of
    length m drawn by `random_regular_point` from a Random seeded by seed,
    each when the caller reaches it, for `schur_at_point(lam, t, n)` at
    t.c_n.  A count below 1 raises at once: zero checks cannot pass."""
    if samples < 1:
        raise ValueError("samples must be at least 1; zero checks cannot pass")
    rng = random.Random(seed)
    return (random_regular_point(rng, m) for _ in range(samples))


def factored_value(cert, t):
    """The factored side of the identity at t: epsilon times the product
    of the factor characters at the n-th powers of t."""
    value = Cyclotomic.rational(cert.epsilon)
    powers = [x ** cert.n for x in t]
    for eta in cert.etas:
        value = value * schur_at_point(eta, powers)
    return value


def verify_numeric(cert, samples=5, seed=DEFAULT_SEED):
    """Exact spot-check of the certificate: at each sampled t the direct
    character value at t.c_n, over Q, must equal `factored_value`."""
    points = sample_points(cert.m, samples, seed)
    if not cert.balanced:
        raise ValueError("certificate is a vanishing certificate; nothing to factor")
    return all(schur_at_point(cert.lam, t, cert.n) == factored_value(cert, t)
               for t in points)


def verify_symbolic(cert, bound=DEFAULT_ENUMERATION_BOUND):
    """Check the alternating-sum identity behind the certificate: the twisted
    numerator of mu must be a single scalar times the product over the
    blocks k of det(t_s^(k + n(eta_k + rho)_j)), which is (t_1..t_m)^(n(n-1)/2)
    times the block alternants in t^n; and that scalar, with the
    rearrangement sign and the denominator constant, must reproduce
    epsilon.  Returns (ok, scalar) from `verify_terms` on the block minors
    of the numerator; scalar is None when no single scalar matches."""
    if not cert.balanced:
        raise ValueError("certificate is a vanishing certificate; nothing to factor")
    return verify_terms(cert, twisted_numerator_terms(cert.mu, cert.m, cert.n, bound=bound))


def verify_terms(cert, terms):
    """`verify_symbolic` given terms, the `twisted_numerator_terms` of
    cert.mu.  The factored side is the tuple of the n canonical minors of
    det(t_s^(k + n(eta_k + rho)_j)); terms that are exactly that tuple pass
    with its scalar times their signs, anything else is compared multiplied
    out.  Etas not n weights of length m, or a zero minor, match no scalar."""
    m, n = cert.m, cert.n
    if len(cert.etas) != n or any(len(eta) != m for eta in cert.etas):
        return False, None
    tops = [(0, s) for s in range(m)]
    minors = _minor_tuple([([k + n * (e + r) for e, r in zip(eta, staircase(m))], tops)
                           for k, eta in enumerate(cert.etas)], m, n)
    if minors is None:
        return False, None
    rhs, _, sign = minors
    if terms.keys() == {rhs}:
        scalar = terms[rhs] if sign > 0 else -terms[rhs]
    else:
        scalar = multiply_out(terms, m, n).scalar_ratio(
            multiply_out({rhs: Cyclotomic.rational(sign, n)}, m, n))
    ok = scalar is not None and scalar * cert.w0_sign == denominator_scalar(m, n) * cert.epsilon
    return ok, scalar


def vanishes_numerically(lam, m, n, samples=5, seed=DEFAULT_SEED):
    """Spot-check that the character is exactly zero at random twisted
    points (the expected behavior of an unbalanced weight)."""
    points = sample_points(m, samples, seed)
    lam = tuple(lam)
    return not any(schur_at_point(lam, t, n) for t in points)


@dataclass
class CosetAuditReport:
    """Findings of `coset_audit`; empty failures means everything passed."""

    m: int
    n: int
    lam: tuple
    tested_outside: int
    tested_inside: int
    omega_powers: dict
    invariance_checked: bool
    failures: list

    @property
    def passed(self):
        return not self.failures

    def to_dict(self):
        return {
            "m": self.m,
            "n": self.n,
            "lambda": list(self.lam),
            "tested_outside": self.tested_outside,
            "tested_inside": self.tested_inside,
            "constants": [
                {"perm": list(perm.images), "omega_power": self.omega_powers[perm]}
                for perm in sorted(self.omega_powers, key=lambda p: p.images)
            ],
            "invariance_checked": self.invariance_checked,
            "failures": list(self.failures),
            "passed": self.passed,
        }


def _sample_outside_cosets(m, n, count, rng):
    # count distinct row-subgroup cosets with no column-row representative,
    # each drawn uniformly: shuffle the positions, sort each row block's
    # images into the canonical representative, reject column-row draws
    # and repeats
    blocks = BlockStructure(m, n)
    images = list(range(1, m * n + 1))
    drawn = {}
    while len(drawn) < count:
        rng.shuffle(images)
        rep = Perm(x for k in range(0, m * n, m) for x in sorted(images[k:k + m]))
        if rep not in drawn and not is_column_row_product(rep, blocks):
            drawn[rep] = None
    return list(drawn)


def _t_shift(cols, values, m):
    # t-exponents of eta.values minus those of values, where eta carries
    # the value at position p from column p % m to column cols[p]
    t = [0] * m
    for p, (col, v) in enumerate(zip(cols, values)):
        t[col] += v
        t[p % m] -= v
    return t


def _breaking_row_element(cols, rows, mu, m, n):
    # The first row element permuting one row block whose arrangement of mu
    # has another key shift than mu.  The shift adds up over the row
    # blocks, so when the row subgroup moves it, one such element does.
    # Every row arrangement of mu has the power of zeta_n of key(mu), so
    # that of key(eta.values) stands for the power of the shift.
    def shift(values):
        return _t_shift(cols, values, m), sum(map(mul, rows, values)) % n

    images = list(range(1, m * n + 1))
    for q in range(0, m * n, m):
        for block in itertools.permutations(images[q:q + m]):
            sigma = Perm(images[:q] + list(block) + images[q + m:])
            if shift(sigma.act(mu)) != shift(mu):
                return sigma
    raise RuntimeError("the row subgroup leaves the key shift alone")


def coset_audit(lam, m, n, outside_sample=None,
                seed=DEFAULT_SEED, bound=DEFAULT_ENUMERATION_BOUND):
    """Audit the coset structure of the alternating sum for one balanced
    weight.

    Checks (a) every sampled coset with no column-row representative sums
    to the zero polynomial, and (b) every column element rescales the base
    monomial by a power of zeta_n that is unchanged under the row action.

    (a) walks every row-subgroup coset, or, when outside_sample is below
    the (mn)!/(m!)^n - (n!)^m outside cosets, draws that many distinct ones
    with a Random seeded by seed, without listing the rest.  (b) is in
    closed form: for a column element eta, key(eta.w) - key(w) is linear in
    the arrangement w, with coefficients read off eta in one pass, so the
    constant is a dot product with mu and its row invariance a condition on
    each row block's value differences.  m*n above bound raises
    EnumerationTooLarge before any coset is summed.
    """
    if outside_sample is not None and outside_sample < 1:
        raise ValueError("outside_sample must be at least 1; zero cosets cannot pass")
    lam = tuple(lam)
    mu, _ = normalize_residue_blocks(shifted_weight(lam), m, n)
    check_enumeration_bound(m * n, bound)
    failures = []

    if outside_sample is not None and \
            outside_sample < factorial(m * n) // factorial(m) ** n - factorial(n) ** m:
        outside = _sample_outside_cosets(m, n, outside_sample, random.Random(seed))
    else:
        blocks = BlockStructure(m, n)
        outside = [rep for rep in row_coset_reps(m, n, bound=bound)
                   if not is_column_row_product(rep, blocks)]
    for rep in outside:
        if coset_block_sum(mu, m, n, rep):
            failures.append(f"nonzero block sum on the coset of {rep!r}")

    # key(eta.w) - key(w) is linear in the arrangement w: the value at
    # position p moves its t-exponent from column p % m to cols[p] and adds
    # rows[p] - p // m times itself to the power of zeta_n, where cols[p]
    # and rows[p] place eta(p).  The shift is fixed by the whole row
    # subgroup exactly when no swap inside a row block changes it on any
    # arrangement: in each row block with unequal values, no value changes
    # column and rows[p] times the gcd of the block's value differences
    # (spread_at[p]) is one residue mod n.
    col_at = [p % m for p in range(m * n)]
    first_at = [p - p % m for p in range(m * n)]
    spread_at = [gcd(*(mu[p] - mu[q] for p in range(q, q + m))) for q in first_at]
    base = sum(p // m * v for p, v in enumerate(mu))
    omega_powers = {}
    changed = []
    for eta in column_subgroup(m, n):
        cols = [(q - 1) % m for q in eta.images]
        rows = [(q - 1) // m for q in eta.images]
        moved = cols != col_at
        if moved and any(_t_shift(cols, mu, m)):
            failures.append(f"column element {eta!r} does not rescale by a root of unity")
            continue
        omega_powers[eta] = (sum(map(mul, rows, mu)) - base) % n
        scaled = [r * g % n for r, g in zip(rows, spread_at)]
        if scaled != [scaled[q] for q in first_at] or (moved and any(
                g and c != c0 for c, c0, g in zip(cols, col_at, spread_at))):
            sigma = _breaking_row_element(cols, rows, mu, m, n)
            changed.append(f"constant of {eta!r} changes under row element {sigma!r}")

    return CosetAuditReport(m=m, n=n, lam=lam,
                            tested_outside=len(outside),
                            tested_inside=len(omega_powers),
                            omega_powers=omega_powers,
                            invariance_checked=bool(omega_powers),
                            failures=failures + changed)
