import cmath
import functools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from charfactor.characters import det_fraction_free
from charfactor.cyclotomic import (Cyclotomic, as_cyclotomic,
                                   cyclotomic_polynomial, field_degree, zeta)
from oracles import cyclotomic_text


def poly_as_dict(coeffs):
    return {i: c for i, c in enumerate(coeffs) if c}


class TestCyclotomicPolynomial:
    def test_order_one(self):
        assert cyclotomic_polynomial(1) == (-1, 1)  # x - 1

    def test_order_two(self):
        assert cyclotomic_polynomial(2) == (1, 1)  # x + 1

    def test_order_four(self):
        assert cyclotomic_polynomial(4) == (1, 0, 1)  # x^2 + 1

    def test_order_six(self):
        # frozen from dividing x^6 - 1 by the order 1, 2, 3 polynomials
        assert cyclotomic_polynomial(6) == (1, -1, 1)

    def test_order_twelve(self):
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    def test_degree_is_euler_phi(self):
        def phi(n):
            return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)

        for n in range(1, 25):
            assert field_degree(n) == phi(n)

    def test_product_over_divisors_recovers_power_poly(self):
        # independent reconstruction: prod of all divisor polynomials must
        # equal x^n - 1, checked with plain integer convolution
        for n in range(1, 21):
            prod = [1]
            for d in range(1, n + 1):
                if n % d == 0:
                    phi_d = cyclotomic_polynomial(d)
                    out = [0] * (len(prod) + len(phi_d) - 1)
                    for i, a in enumerate(prod):
                        for j, b in enumerate(phi_d):
                            out[i + j] += a * b
                    prod = out
            expected = [0] * (n + 1)
            expected[0], expected[-1] = -1, 1
            assert prod == expected

    def test_roots_are_primitive_roots_numerically(self):
        for n in range(1, 16):
            coeffs = cyclotomic_polynomial(n)
            for k in range(n):
                if math.gcd(k, n) != 1 and not (n == 1 and k == 0):
                    continue
                x = cmath.exp(2j * cmath.pi * k / n)
                value = sum(c * x ** i for i, c in enumerate(coeffs))
                assert abs(value) < 1e-9

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            cyclotomic_polynomial(0)


class TestRootsOfUnity:
    def test_i_squared(self):
        assert zeta(4, 2) == -1

    def test_power_zero_is_one(self):
        for n in (1, 2, 5, 12):
            assert zeta(n, 0) == 1

    def test_cube_root_sum(self):
        assert zeta(3, 1) + zeta(3, 2) == -1

    def test_power_wraps_mod_order(self):
        assert zeta(6, 7) == zeta(6, 1)
        assert zeta(6, -1) == zeta(6, 5)

    def test_inverse_powers_multiply_to_one(self):
        for n in range(1, 25):
            for k in range(n):
                assert zeta(n, k) * zeta(n, n - k) == 1

    def test_all_roots_sum_to_zero(self):
        for n in range(2, 25):
            total = Cyclotomic.rational(0, n)
            for k in range(n):
                total = total + zeta(n, k)
            assert total == 0


class TestFieldOperations:
    def test_difference_of_squares(self):
        assert (zeta(4) + 1) * (zeta(4) - 1) == -2

    def test_inverse_of_one_plus_zeta5(self):
        a = 1 + zeta(5)
        assert a * a.inverse() == 1

    def test_neg_zero_is_zero(self):
        assert -Cyclotomic.rational(0, 8) == 0

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError, match="division by zero in cyclotomic field"):
            Cyclotomic.rational(0, 3).inverse()

    def test_wrong_coordinate_count_rejected(self):
        with pytest.raises(ValueError, match="order 5 needs 4 coordinates, got 5"):
            Cyclotomic(5, [1, 0, 0, 0, 0])

    def test_division(self):
        a = zeta(8) + 2
        assert (a * a) / a == a

    def test_negative_power(self):
        a = 1 + zeta(7)
        assert a ** -2 == (a * a).inverse()

    def test_rational_scalar_mixing(self):
        a = zeta(3)
        assert a * Fraction(1, 2) + a * Fraction(1, 2) == a
        assert 2 - a - a == 2 * (1 - a)

    def test_as_fraction(self):
        assert (zeta(6) * zeta(6, 5)).as_fraction() == 1
        with pytest.raises(ValueError):
            zeta(5).as_fraction()

    def test_str_round_readable(self):
        assert str(Cyclotomic.rational(0, 5)) == "0"
        assert str(zeta(4)) == "z"
        assert str(1 - zeta(4)) == "1 - z"
        assert str(zeta(5, 2) * Fraction(3, 2)) == "3/2*z^2"

    def test_str_non_integral(self):
        assert str(Cyclotomic(5, [Fraction(5, 4), 0, Fraction(-3, 2), 0])) == "5/4 - 3/2*z^2"
        assert str(Cyclotomic(5, [0, Fraction(-1, 3), 0, Fraction(7, 2)])) == "-1/3*z + 7/2*z^3"
        assert repr((1 + zeta(3)) / 6) == "Cyclotomic(3, 1/6 + 1/6*z)"


class TestNormInverse:
    def test_inverse_at_every_order(self):
        # the Hypothesis strategy draws orders up to 12 only
        for order in range(1, 25):
            deg = field_degree(order)
            dense = Cyclotomic(order, [Fraction(2 * i + 1, i % 3 + 2) for i in range(deg)])
            for a in (dense, 1 + zeta(order), zeta(order, -1)):
                if order == 2 and a == 0:
                    continue  # 1 + zeta_2 is zero
                assert a * a.inverse() == 1, (order, a)
                assert a.inverse().inverse() == a, (order, a)

    def test_non_rational_norm_raises(self, monkeypatch):
        # with conjugation broken the "norm" is zeta^4, which must not be
        # divided by its constant coordinate
        monkeypatch.setattr(Cyclotomic, "galois", lambda self, j: self)
        with pytest.raises(ValueError, match="not a rational value"):
            zeta(5).inverse()

    @pytest.mark.parametrize("order,j", [(3, 2), (5, 2), (8, 3), (9, 4), (12, 5), (20, 7)])
    def test_galois_is_multiplicative(self, order, j):
        deg = field_degree(order)
        a = Cyclotomic(order, [Fraction(i - 1, i + 1) for i in range(deg)])
        b = Cyclotomic(order, [Fraction(3 - 2 * i, 2) for i in range(deg)])
        assert (a * b).galois(j) == a.galois(j) * b.galois(j)
        assert zeta(order).galois(j) == zeta(order, j)


class TestEmbed:
    def test_rational_passthrough(self):
        assert Cyclotomic.rational(-1, 2).embed(4) == -1

    def test_zeta2_into_order_six(self):
        assert zeta(2).embed(6) == zeta(6, 3)

    def test_cube_root_sum_into_order_six(self):
        assert (zeta(3) + zeta(3, 2)).embed(6) == -1

    def test_requires_divisibility(self):
        with pytest.raises(ValueError):
            zeta(4).embed(6)

    def test_embedding_preserves_value(self):
        # zeta_d and its image satisfy the same power relations
        for d, n in ((2, 8), (3, 12), (4, 12), (6, 12)):
            img = zeta(d).embed(n)
            assert img ** d == 1
            assert img == zeta(n, n // d)


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def cyclo_triples(draw):
    order = draw(st.integers(min_value=1, max_value=12))
    deg = field_degree(order)
    vecs = [draw(st.lists(small_fractions, min_size=deg, max_size=deg))
            for _ in range(3)]
    return [Cyclotomic(order, v) for v in vecs]


class TestFieldAxioms:
    @settings(max_examples=40, deadline=None)
    @given(cyclo_triples())
    def test_associativity_and_distributivity(self, triple):
        a, b, c = triple
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a

    @settings(max_examples=40, deadline=None)
    @given(cyclo_triples())
    def test_inverses(self, triple):
        a, _, _ = triple
        if a:
            assert a * a.inverse() == 1
            assert a.inverse().inverse() == a

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=4),
           st.data())
    def test_embed_is_ring_homomorphism(self, d, k, data):
        n = d * k
        deg = field_degree(d)
        a = Cyclotomic(d, data.draw(st.lists(small_fractions, min_size=deg, max_size=deg)))
        b = Cyclotomic(d, data.draw(st.lists(small_fractions, min_size=deg, max_size=deg)))
        assert (a * b).embed(n) == a.embed(n) * b.embed(n)
        assert (a + b).embed(n) == a.embed(n) + b.embed(n)


class TestHelpers:
    def test_as_cyclotomic(self):
        assert as_cyclotomic(3) == 3
        assert as_cyclotomic(Fraction(1, 2)).as_fraction() == Fraction(1, 2)
        with pytest.raises(TypeError):
            as_cyclotomic(1.5)


# Fraction schoolbook oracle: coordinate lists over the power basis, with
# every power of z reduced by long division by the cyclotomic polynomial.
# It shares nothing with the integer arithmetic of `Cyclotomic` but the
# polynomial itself.

def oracle_reduce(poly, order):
    modulus = cyclotomic_polynomial(order)
    degree = len(modulus) - 1
    rem = [Fraction(c) for c in poly] + [Fraction(0)] * max(0, degree - len(poly))
    for k in range(len(rem) - 1, degree - 1, -1):
        c = rem[k]
        if c:
            for j, d in enumerate(modulus):
                rem[k - degree + j] -= c * d
    return rem[:degree]


def oracle_mul(a, b, order):
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return oracle_reduce(prod, order)


@functools.lru_cache(maxsize=None)
def oracle_zeta_power(order, k):
    return tuple(oracle_reduce([0] * k + [1], order))


def oracle_power_map(a, order, step):
    # sum_j a_j z^(j * step) in Q(zeta_order)
    out = [Fraction(0)] * field_degree(order)
    for j, c in enumerate(a):
        for i, r in enumerate(oracle_zeta_power(order, (j * step) % order)):
            if r:
                out[i] += c * r
    return out


def assert_canonical(value):
    assert value.den > 0
    assert math.gcd(value.den, *value.num) == 1
    assert all(isinstance(c, int) for c in value.num)


coordinates = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
    st.builds(Fraction, st.integers(min_value=-10 ** 24, max_value=10 ** 24),
              st.integers(min_value=1, max_value=10 ** 6)),
)


def coordinate_lists(order):
    deg = field_degree(order)
    return st.lists(coordinates, min_size=deg, max_size=deg)


class TestFractionOracle:
    @pytest.mark.parametrize("order", range(1, 25))
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_field_operations(self, order, data):
        u = data.draw(coordinate_lists(order))
        v = data.draw(coordinate_lists(order))
        a, b = Cyclotomic(order, u), Cyclotomic(order, v)
        assert a.coeffs == tuple(Fraction(x) for x in u)
        results = {
            "product": (a * b, oracle_mul(u, v, order)),
            "sum": (a + b, [x + y for x, y in zip(u, v)]),
            "difference": (a - b, [x - y for x, y in zip(u, v)]),
            "negation": (-a, [-x for x in u]),
        }
        if any(u):
            # the inverse is the unique v with u * v == 1
            inverse = a.inverse()
            one = [Fraction(int(i == 0)) for i in range(len(u))]
            assert oracle_mul(u, inverse.coeffs, order) == one
            assert_canonical(inverse)
        for j in range(1, order):
            if math.gcd(j, order) == 1:
                results[f"galois {j}"] = (a.galois(j), oracle_power_map(u, order, j))
        for k in (2, 3):
            results[f"embed {order * k}"] = (a.embed(order * k),
                                             oracle_power_map(u, order * k, k))
        for name, (value, expected) in results.items():
            assert value.coeffs == tuple(expected), name
            assert_canonical(value)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12),
           st.data())
    def test_mixed_orders_meet_in_the_compound_field(self, d, e, data):
        u = data.draw(coordinate_lists(d))
        v = data.draw(coordinate_lists(e))
        order = math.lcm(d, e)
        lifted_u = oracle_power_map(u, order, order // d)
        lifted_v = oracle_power_map(v, order, order // e)
        value = Cyclotomic(d, u) * Cyclotomic(e, v)
        assert value.order == order
        assert value.coeffs == tuple(oracle_mul(lifted_u, lifted_v, order))
        assert_canonical(value)


class TestPrinter:
    @pytest.mark.parametrize("order", range(1, 25))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_the_two_pass_reference(self, order, data):
        value = Cyclotomic(order, data.draw(coordinate_lists(order)))
        assert str(value) == cyclotomic_text(value)
        for k in range(order):
            for unit in (zeta(order, k), -zeta(order, k)):
                assert str(unit) == cyclotomic_text(unit)


class TestCanonicalForm:
    def test_same_value_same_fields(self):
        third = Fraction(1, 3)
        builds = [
            Cyclotomic(8, [Fraction(3, 4), 0, 0, 0]),
            Cyclotomic.rational(Fraction(3, 4), 8),
            Cyclotomic.rational(Fraction(6, 8), 8),
            Cyclotomic.rational(3, 8) / 4,
            Cyclotomic.rational(third, 8) * Fraction(9, 4),
            zeta(8) * zeta(8, 7) * Fraction(3, 4),
            Cyclotomic.rational(Fraction(5, 4), 8) - Fraction(1, 2),
            Cyclotomic.rational(4, 8).inverse() * 3,
            Cyclotomic.rational(Fraction(3, 4), 2).embed(8),
        ]
        for value in builds:
            assert (value.order, value.num, value.den) == (8, (3, 0, 0, 0), 4), value
            assert_canonical(value)

    def test_non_rational_and_zero_values(self):
        half_sum = [
            Cyclotomic(12, [Fraction(1, 2), Fraction(1, 2), 0, 0]),
            (zeta(12) + 1) / 2,
            zeta(12) * Fraction(1, 2) + Fraction(1, 2),
            (zeta(12) * 3 + 3) * Cyclotomic.rational(6, 12).inverse(),
        ]
        for value in half_sum:
            assert (value.num, value.den) == ((1, 1, 0, 0), 2), value
        a = Cyclotomic(7, [Fraction(1, 4), Fraction(-5, 6), 0, 2, 0, Fraction(1, 9)])
        for zero in (a - a, a * 0, a + (-a), Cyclotomic(7, [0] * 6)):
            assert (zero.num, zero.den) == ((0,) * 6, 1)
        assert (a * a.inverse()).num == (1, 0, 0, 0, 0, 0)
        assert (a * a.inverse()).den == 1

    def test_integer_determinant_stays_integral(self):
        rows = [[zeta(8, i * j) + i - j for j in range(5)] for i in range(5)]
        value = det_fraction_free(rows)
        assert value.den == 1
        assert_canonical(value)
        assert value == det_fraction_free([[x * 2 for x in row] for row in rows]) / 32
