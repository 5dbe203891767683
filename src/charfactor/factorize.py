"""End-to-end factorization of twisted-point character values.

Given a dominant weight for the rank m*n group, the pipeline shifts by the
staircase, tests the residue-balance condition, normalizes into residue
blocks, reads off one rank-m weight per block, and pins the overall sign.
The resulting certificate is exact and checkable two ways: numerically
by `verify_numeric` at random integer points (equal factored values, or
zero for a vanishing certificate) and symbolically by `verify_terms` on
the n tuples of exponents whose alternants make up the numerator (the
identity multiplied out through `alternant` is its test oracle).
"""

from __future__ import annotations

import random
from collections import namedtuple
from functools import lru_cache
from itertools import chain
from math import factorial, prod
from operator import mul

from .perms import (DEFAULT_ENUMERATION_BOUND, BlockStructure, Perm,
                    check_enumeration_bound, is_column_row_product,
                    row_coset_reps, column_subgroup)
from .characters import (_signed_scalar, check_residue_blocks, coset_block_sum,
                         coset_block_sums, multiply_out, schur_at_point,
                         twisted_numerator_terms)
from .weights import (_block_offsets, _staircase_sign, factor_weights,
                      normalize_residue_blocks, residue_normal_form, shifted_weight)

DEFAULT_SEED = 1729


class FactorizationCertificate(namedtuple("FactorizationCertificate",
                                          "m n lam mu w0_sign etas epsilon",
                                          defaults=(None,) * 4)):
    """Outcome of `factorize`, an immutable named tuple.

    balanced is whether mu is present.  When it is not, the character is
    identically zero at every twisted point and the other fields are None.
    Otherwise mu is the residue-normalized shifted weight, w0_sign the sign
    of the normalizing rearrangement, etas the n factor weights of rank m,
    and epsilon the global sign of the factorization.
    """

    __slots__ = ()

    @property
    def balanced(self):
        return self.mu is not None

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


def _check_shape(lam, m, n):
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    if len(lam) != m * n:
        raise ValueError(f"weight length {len(lam)} does not match m*n = {m * n}")


def factorize(lam, m, n):
    """Produce the factorization certificate for a dominant weight of
    length m*n; a vanishing certificate when the residue balance fails."""
    lam = tuple(lam)
    _check_shape(lam, m, n)
    normal = residue_normal_form(shifted_weight(lam), m, n)
    if normal is None:
        return FactorizationCertificate(m, n, lam)
    mu, w0_sign = normal
    # mu and the normalized staircase share one row-block scalar at t.c_n (Littlewood's n-core sign)
    return FactorizationCertificate(m, n, lam, mu, w0_sign, factor_weights(mu, m, n),
                                    w0_sign * _staircase_sign(m, n))


def sign_via_coxeter(lam, etas):
    """Determinant oracle for the sign of the factorization.

    Both sides of the identity take values in {0, +1, -1} at the
    primitive-root point (1, a, a^2, ...) with a of order m*n, whose n-th
    powers give the analogous rank-m point; when both are nonzero their
    ratio, an int, is the sign.  Returns None when both vanish there.
    Each value is Jacobi-Trudi at 1.c_N, not `coxeter_value` (epsilon's route).
    """
    big, *factors = (int(schur_at_point(x, [1], len(x))) if x else 1
                     for x in map(tuple, (lam, *etas)))
    small = prod(factors)
    if not small and not big:
        return None
    if not big:
        raise RuntimeError("factored side nonzero but direct side zero "
                           "at the Coxeter point")
    if not small:
        raise RuntimeError("direct side nonzero but factored side zero "
                           "at the Coxeter point")
    return big * small


def random_regular_point(rng, m):
    """m distinct integers drawn from [2, max(97, m + 1)], as Python ints.
    Distinct positive numbers have distinct n-th powers for every n, so
    the twisted point on them is regular."""
    return rng.sample(range(2, 2 + max(96, m)), m)


def sample_points(m, samples, seed=DEFAULT_SEED):
    """The sample points of every numeric check: samples lists t of m ints
    drawn by `random_regular_point` from a Random seeded by seed, each when
    the caller reaches it, for `schur_at_point(lam, t, n)` at t.c_n.  A
    count below 1 raises at once: zero checks cannot pass."""
    if samples < 1:
        raise ValueError("samples must be at least 1; zero checks cannot pass")
    rng = random.Random(seed)
    return (random_regular_point(rng, m) for _ in range(samples))


def factored_value(cert, t):
    """The factored side of the identity at t: the int epsilon times the
    product of the factor characters at the n-th powers of t; a vanishing
    certificate has no factors, so it raises ValueError."""
    if not cert.balanced:
        raise ValueError("certificate is a vanishing certificate; nothing to factor")
    value = cert.epsilon
    powers = [x ** cert.n for x in t]
    for eta in cert.etas:
        value = value * schur_at_point(eta, powers)
    return value


def verify_numeric(cert, samples=5, seed=DEFAULT_SEED):
    """Exact spot-check of any certificate at each sampled t: the int (or
    Fraction) character value at t.c_n must equal `factored_value`, or,
    for a vanishing certificate, be zero (`vanishes_numerically`)."""
    if not cert.balanced:
        return vanishes_numerically(cert.lam, cert.m, cert.n, samples, seed)
    return all(schur_at_point(cert.lam, t, cert.n) == factored_value(cert, t)
               for t in sample_points(cert.m, samples, seed))


def verify_symbolic(cert, bound=DEFAULT_ENUMERATION_BOUND):
    """Check the alternating-sum identity behind the certificate: the twisted
    numerator of mu must be a single scalar times the product over the
    blocks k of det(t_s^(k + n(eta_k + rho)_j)), which is (t_1..t_m)^(n(n-1)/2)
    times the block alternants in t^n; and that scalar, with the
    rearrangement sign and the denominator constant, must reproduce
    epsilon.  Returns (ok, scalar) from `verify_terms` on the numerator's
    pair; scalar is None when no single scalar matches."""
    if not cert.balanced:
        raise ValueError("certificate is a vanishing certificate; nothing to factor")
    return verify_terms(cert, twisted_numerator_terms(cert.mu, cert.m, cert.n, bound))


def verify_terms(cert, terms):
    """`verify_symbolic` given terms, the `twisted_numerator_terms` pair
    of cert.mu.  The factored side is the n tuples k + n(eta_k + rho) of
    exponents; terms whose tuples are exactly those pass with their
    scalar, anything else is compared multiplied out, the right-hand side
    with the int 1, so the ratio divides only by ints.  Etas not n weights
    of length m, or with a zero alternant, match no scalar, and signs
    other than 1 and -1 fail."""
    m, n = cert.m, cert.n
    if tuple(map(len, cert.etas)) != (m,) * n:
        return False, None
    flat = [n * e + o for e, o in zip(chain.from_iterable(cert.etas), _block_offsets(m, n)[1])]
    rhs = tuple([tuple(flat[m * k:m * k + m]) for k in range(n)])
    if terms and terms[0] == rhs:
        scalar = terms[1]
    else:
        scalar = multiply_out(terms, m).scalar_ratio(multiply_out((rhs, 1), m))
    ok = (scalar is not None and cert.w0_sign in (1, -1) and cert.epsilon in (1, -1)
          and scalar == _signed_scalar(m, n, cert.epsilon * cert.w0_sign))
    return ok, scalar


def vanishes_numerically(lam, m, n, samples=5, seed=DEFAULT_SEED):
    """Spot-check that the character is exactly zero at random twisted
    points (the expected behavior of an unbalanced weight)."""
    points = sample_points(m, samples, seed)
    lam = tuple(lam)
    return not any(schur_at_point(lam, t, n) for t in points)


class CosetAuditReport(namedtuple("CosetAuditReport",
                                  "m n lam tested_outside omega_powers failures")):
    """Findings of `coset_audit`, a named tuple; empty failures means everything
    passed.  tested_inside and invariance_checked are read from omega_powers."""

    __slots__ = ()

    @property
    def tested_inside(self):
        return len(self.omega_powers)

    @property
    def invariance_checked(self):
        return bool(self.omega_powers)

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
    # images into the canonical representative (a permutation by
    # construction, so unchecked), reject column-row draws and repeats
    blocks = BlockStructure(m, n)
    images = list(range(1, m * n + 1))
    drawn = {}
    while len(drawn) < count:
        rng.shuffle(images)
        rep = Perm._unchecked(x for k in range(0, m * n, m) for x in sorted(images[k:k + m]))
        if rep not in drawn and not is_column_row_product(rep, blocks):
            drawn[rep] = None
    return list(drawn)


# The audit's shape-only work, cached up to _CACHED_COSETS row cosets (the
# (2, 4) count, under 0.5 MB a shape) and built per call above that.  The
# key holds the enumerator, so a rebound one (a test stub, a tracer wrapper)
# is never served stale; values are tuples, so no report owns them.
_CACHED_COSETS = 2520


@lru_cache(maxsize=8)
def _outside_reps(walk, m, n):
    return tuple(walk(m, n, m * n, outside=True))


@lru_cache(maxsize=8)
def _column_rows(elements, m, n):
    # (eta, rows) for each column element that keeps every value in its
    # column, rows[p] the row block it carries position p to; and the
    # failure text of each element that does not
    col_at = [p % m for p in range(m * n)]
    kept, moved = [], []
    for eta in elements(m, n):
        if [(q - 1) % m for q in eta.images] != col_at:
            moved.append(f"column element {eta!r} moves a value to another column")
        else:
            kept.append((eta, tuple((q - 1) // m for q in eta.images)))
    return tuple(kept), tuple(moved)


def coset_audit(lam, m, n, outside_sample=None,
                seed=DEFAULT_SEED, bound=DEFAULT_ENUMERATION_BOUND):
    """Audit the coset structure of the alternating sum for one balanced
    weight.

    Checks (a) every sampled coset with no column-row representative sums
    to the zero polynomial, and (b) every column element rescales the base
    monomial by a power of zeta_n that is unchanged under the row action.

    (a) walks the canonical representatives of the outside cosets only
    (`row_coset_reps`, outside=True, flagged once per row-block choice) and
    sums them in one `coset_block_sums` call; or, when outside_sample is
    below the (mn)!/(m!)^n - (n!)^m outside cosets, it draws that many
    distinct ones with a Random seeded by seed, without listing the rest,
    and sums those in one call.  (b) checks two facts: each column element
    keeps every value in its column, and, once per audit, every row block
    of the residue-normalized mu lies in one residue class mod n
    (`check_residue_blocks`, cached for that call).  A column element that
    keeps columns moves no t-exponent, so it multiplies the base monomial by
    zeta_n to the power sum(rows * mu) - base, where rows[p] is the row
    block it carries position p to; and a row swap inside a block of one
    residue class leaves that power alone, so the constant is row-invariant.
    m*n above bound raises EnumerationTooLarge before any coset is summed.

    The outside walk and each column element's check and rows depend on
    the shape alone: up to _CACHED_COSETS row cosets they are built once per
    (enumerator, m, n), in caches of 8 shapes.  The bound, the residue
    check, every coset sum and every constant still run per mu.
    """
    lam = tuple(lam)
    _check_shape(lam, m, n)
    if outside_sample is not None and outside_sample < 1:
        raise ValueError("outside_sample must be at least 1; zero cosets cannot pass")
    mu, _ = normalize_residue_blocks(shifted_weight(lam), m, n)
    check_enumeration_bound(m * n, bound)
    check_residue_blocks(mu, m, n)
    cosets = factorial(m * n) // factorial(m) ** n
    cached = cosets <= _CACHED_COSETS
    if outside_sample is not None and outside_sample < cosets - factorial(n) ** m:
        outside = _sample_outside_cosets(m, n, outside_sample, random.Random(seed))
    else:
        outside = (_outside_reps if cached else _outside_reps.__wrapped__)(row_coset_reps, m, n)
    failures = [f"nonzero block sum on the coset of {rep!r}"
                for rep, total in zip(outside, coset_block_sums(mu, m, n, outside)) if total]

    kept, moved = (_column_rows if cached else _column_rows.__wrapped__)(column_subgroup, m, n)
    failures += moved
    base = sum(p // m * v for p, v in enumerate(mu))
    omega_powers = {eta: (sum(map(mul, rows, mu)) - base) % n for eta, rows in kept}
    return CosetAuditReport(m=m, n=n, lam=lam, tested_outside=len(outside),
                            omega_powers=omega_powers, failures=failures)
