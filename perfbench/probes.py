"""Kernel probes: direct calls into single layers on fixed inputs.

Each probe computes its result once and checks it exactly against an
independent value before any call is timed; a probe that fails its check
raises and no time is reported for it.
"""

from __future__ import annotations

import importlib
import statistics
import time
from fractions import Fraction

MUL_ORDERS = (4, 9, 12, 16, 20)
DET_SIZES = (4, 8, 12, 16)
# (m, n) with m * n = 6, 7, 8
NUMERATOR_SHAPES = ((2, 3), (1, 7), (2, 4))

# a batch of calls lasts at least this long, and the median of
# BATCHES batches is reported
MIN_BATCH_S = 0.02
BATCHES = 5
SLOW_BATCHES = 2
SLOW_CALL_S = 0.2


class ProbeCheckFailed(RuntimeError):
    pass


def _module(name):
    return importlib.import_module(f"charfactor.{name}")


def _per_call_seconds(fn):
    start = time.perf_counter()
    fn()
    once = time.perf_counter() - start
    per_batch = max(1, int(MIN_BATCH_S / once) if once > 0 else 1)
    batches = SLOW_BATCHES if once > SLOW_CALL_S else BATCHES
    samples = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(per_batch):
            fn()
        samples.append((time.perf_counter() - start) / per_batch)
    return statistics.median(samples)


def _element(cyclotomic, order, shift):
    # dense element whose coordinates are small non-integral rationals
    degree = cyclotomic.field_degree(order)
    return cyclotomic.Cyclotomic(
        order, [Fraction((-1) ** j * (3 * j + shift), 2 * j + 5) for j in range(degree)])


def reference_product(a, b, modulus):
    """Schoolbook product of two coordinate vectors reduced by long division
    by the monic modulus; independent of `Cyclotomic.__mul__`."""
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    degree = len(modulus) - 1
    for k in range(len(prod) - 1, degree - 1, -1):
        c = prod[k]
        if c:
            for j, d in enumerate(modulus):
                prod[k - degree + j] -= c * d
    return tuple(prod[:degree])


def _check(ok, what):
    if not ok:
        raise ProbeCheckFailed(f"probe {what} returned a wrong result")


def probe_mul(order):
    cyclotomic = _module("cyclotomic")
    a, b = _element(cyclotomic, order, 1), _element(cyclotomic, order, 2)
    poly = cyclotomic.cyclotomic_polynomial(order)
    _check((a * b).coeffs == reference_product(a.coeffs, b.coeffs, poly), f"mul o{order}")
    return _per_call_seconds(lambda: a * b)


def probe_inverse(order):
    cyclotomic = _module("cyclotomic")
    a = _element(cyclotomic, order, 1)
    inv = a.inverse()
    product = reference_product(a.coeffs, inv.coeffs, cyclotomic.cyclotomic_polynomial(order))
    _check(product == (1,) + (0,) * (len(product) - 1), f"inverse o{order}")
    return _per_call_seconds(a.inverse)


def probe_det(size):
    """Bareiss on the Coxeter-point Vandermonde (zeta^(i*(size-1-j))) over
    Q(zeta_size), the matrix `sign_via_coxeter` reduces for the zero
    weight; checked against the product of the root differences."""
    cyclotomic = _module("cyclotomic")
    characters = _module("characters")
    zeta = cyclotomic.zeta
    matrix = [[zeta(size, i * (size - 1 - j)) for j in range(size)] for i in range(size)]
    expected = cyclotomic.Cyclotomic.rational(1, size)
    for i in range(size):
        for j in range(i + 1, size):
            expected = expected * (zeta(size, i) - zeta(size, j))
    _check(characters.det_fraction_free(matrix) == expected, f"det s{size}")
    return _per_call_seconds(lambda: characters.det_fraction_free(matrix))


def probe_numerator(m, n):
    """The alternating sum of the residue-normalized staircase, which must
    equal the normalization sign times the factored twisted Vandermonde."""
    characters = _module("characters")
    weights = _module("weights")
    mu, sign = weights.normalize_residue_blocks(weights.staircase(m * n), m, n)
    expected = characters.twisted_vandermonde_closed(m, n).scale(sign)
    _check(characters.twisted_numerator(mu, m, n) == expected, f"numerator {m}x{n}")
    return _per_call_seconds(lambda: characters.twisted_numerator(mu, m, n))


def metric_names():
    names = [f"probe.cyclotomic.mul.o{o}.us" for o in MUL_ORDERS]
    names += [f"probe.cyclotomic.inverse.o{o}.us" for o in MUL_ORDERS]
    names += [f"probe.characters.det_fraction_free.s{s}.ms" for s in DET_SIZES]
    names += [f"probe.characters.twisted_numerator.mn{m * n}.ms" for m, n in NUMERATOR_SHAPES]
    return names


def run_probes():
    """Every probe metric, in the order of `metric_names()`."""
    values = [probe_mul(o) * 1e6 for o in MUL_ORDERS]
    values += [probe_inverse(o) * 1e6 for o in MUL_ORDERS]
    values += [probe_det(s) * 1e3 for s in DET_SIZES]
    values += [probe_numerator(m, n) * 1e3 for m, n in NUMERATOR_SHAPES]
    return dict(zip(metric_names(), values))
