import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from charfactor.cyclotomic import (Cyclotomic, as_cyclotomic,
                                   cyclotomic_polynomial, field_degree, zeta)


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
