from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from charfactor.characters import multiply_out
from charfactor.cyclotomic import zeta
from charfactor.laurent import LaurentPoly, block_specialize
from oracles import evaluate, power_substitute, variable


def t(i, nvars=2):
    return variable(i, nvars)


class TestRingOperations:
    def test_add_cancels(self):
        assert t(0) + t(1) + (-t(0)) == t(1)

    def test_difference_of_squares(self):
        t1, t2 = t(0), t(1)
        expected = LaurentPoly(2, {(2, 0): 1, (0, 2): -1})
        assert (t1 - t2) * (t1 + t2) == expected

    def test_scale_by_root_of_unity(self):
        p = LaurentPoly(2, {(1, -1): 1})
        assert p.scale(zeta(3)) == LaurentPoly(2, {(1, -1): zeta(3)})

    def test_scale_by_zero(self):
        assert not t(0).scale(0)

    def test_self_minus_self_is_zero(self):
        p = LaurentPoly(2, {(1, 2): zeta(5), (-1, 0): Fraction(2, 3)})
        assert not (p - p)

    def test_nvars_mismatch(self):
        with pytest.raises(ValueError, match="variable count mismatch"):
            t(0, 2) + t(0, 3)

    def test_exponent_tuple_length_mismatch(self):
        with pytest.raises(ValueError, match=r"exponent tuple \(1,\) does not have 2 entries"):
            LaurentPoly(2, {(1,): 1})

    def test_mixed_order_coefficients_lift(self):
        p = LaurentPoly(1, {(1,): zeta(2)})
        q = LaurentPoly(1, {(1,): zeta(3)})
        assert (p + q).terms == {(1,): zeta(2) + zeta(3)}
        assert p + q == q + p


class TestEvaluate:
    def test_integer_point(self):
        p = LaurentPoly(2, {(2, 0): 1, (0, 2): -1})
        assert evaluate(p, [2, 1]) == 3

    def test_ratio_monomial_at_equal_roots(self):
        p = LaurentPoly(2, {(1, -1): 1})
        assert evaluate(p, [zeta(4), zeta(4)]) == 1

    def test_sum_of_fourth_roots(self):
        p = LaurentPoly(4, {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1,
                            (0, 0, 1, 0): 1, (0, 0, 0, 1): 1})
        assert evaluate(p, [1, zeta(4), -1, zeta(4, 3)]) == 0

    def test_pole_detection(self):
        p = LaurentPoly(2, {(1, -1): 1})
        with pytest.raises(ValueError, match="pole at evaluation point"):
            evaluate(p, [1, 0])

    def test_zero_coordinate_without_negative_exponent(self):
        p = LaurentPoly(2, {(1, 1): 1, (2, 0): 3})
        assert evaluate(p, [2, 0]) == 12

    def test_arity_check(self):
        with pytest.raises(ValueError, match="arity"):
            evaluate(t(0), [1])


class TestPowerSubstitute:
    def test_squares(self):
        assert power_substitute(t(0) + t(1), 2) == \
            LaurentPoly(2, {(2, 0): 1, (0, 2): 1})

    def test_constant_fixed(self):
        one = LaurentPoly.constant(1, 3)
        assert power_substitute(one, 5) == one

    def test_negative_exponents(self):
        p = LaurentPoly(2, {(1, -1): 1})
        assert power_substitute(p, 3) == LaurentPoly(2, {(3, -3): 1})

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            power_substitute(t(0), 0)


class TestBlockSpecialize:
    def test_single_block_pair(self):
        # m=1, n=2: coordinate 2 is -t1, so x1^0 x2^1 -> -t1
        assert block_specialize((0, 1), 1, 2) == LaurentPoly(1, {(1,): -1})

    def test_untwisted_coordinate(self):
        assert block_specialize((1, 0, 0, 0), 2, 2) == LaurentPoly(2, {(1, 0): 1})

    def test_twisted_coordinate(self):
        # coordinate 3 is zeta_2 * t1 = -t1
        assert block_specialize((0, 0, 1, 0), 2, 2) == \
            LaurentPoly(2, {(1, 0): -1})

    def test_length_check(self):
        with pytest.raises(ValueError):
            block_specialize((1, 0, 0), 2, 2)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.data())
    def test_matches_full_evaluation_at_rational_parameters(self, m, n, data):
        # oracle: evaluate the m*n-variable monomial at the explicit twisted
        # point with rational parameters and compare coefficients
        exps = data.draw(st.lists(st.integers(-2, 3), min_size=m * n, max_size=m * n))
        tvals = data.draw(st.lists(st.integers(2, 9), min_size=m, max_size=m,
                                   unique=True))
        big = LaurentPoly(m * n, {tuple(exps): 1})
        point = []
        for k in range(n):
            for s in range(m):
                point.append(zeta(n, k) * tvals[s])
        direct = evaluate(big, point)
        specialized = evaluate(block_specialize(exps, m, n), tvals)
        assert direct == specialized


class TestScalarRatio:
    def test_exact_multiple(self):
        p = LaurentPoly(2, {(1, 0): 2, (0, 1): -4})
        q = LaurentPoly(2, {(1, 0): 1, (0, 1): -2})
        assert p.scalar_ratio(q) == 2

    def test_no_single_scalar(self):
        p = LaurentPoly(2, {(1, 0): 2, (0, 1): -4})
        q = LaurentPoly(2, {(1, 0): 1, (0, 1): 2})
        assert p.scalar_ratio(q) is None

    def test_support_mismatch(self):
        p = LaurentPoly(2, {(1, 0): 2})
        q = LaurentPoly(2, {(0, 1): 2})
        assert p.scalar_ratio(q) is None
        assert p.scalar_ratio(LaurentPoly.zero(2)) is None

    def test_cyclotomic_scalar(self):
        q = LaurentPoly(2, {(1, 1): 1, (2, 0): 3})
        assert q.scale(zeta(5, 2)).scalar_ratio(q) == zeta(5, 2)

    def test_int_coefficients_give_an_exact_ratio(self):
        # multiply_out with an int scalar keeps int coefficients, as the
        # right-hand side of verify_terms' fallback does; int / int is a float
        p = multiply_out((((1, 0),), 1), 2)
        q = multiply_out((((1, 0),), 2), 2)
        ratio = p.scalar_ratio(q)
        assert ratio == Fraction(1, 2) and not isinstance(ratio, float)


class TestText:
    def test_zero(self):
        assert LaurentPoly.zero(2).to_text() == "0"

    def test_graded_lex_order_and_coefficients(self):
        p = LaurentPoly(2, {(1, 0): zeta(4), (0, 3): -2, (0, 0): Fraction(1, 2)})
        assert p.to_text() == "(-2) * t2^3 + (z) * t1 + (1/2)"

    def test_negative_exponents(self):
        assert LaurentPoly(2, {(2, -1): 1}).to_text() == "(1) * t1^2 t2^-1"


coeff_st = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def small_polys(draw):
    nterms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(nterms):
        key = tuple(draw(st.lists(st.integers(-2, 2), min_size=2, max_size=2)))
        terms[key] = draw(coeff_st)
    return LaurentPoly(2, terms)


class TestEvaluationHomomorphism:
    @settings(max_examples=40, deadline=None)
    @given(small_polys(), small_polys(), st.integers(1, 9), st.integers(1, 9))
    def test_product_evaluates_to_product(self, p, q, x1, x2):
        point = [Fraction(x1), Fraction(x2, 2)]
        assert evaluate(p * q, point) == evaluate(p, point) * evaluate(q, point)
        assert evaluate(p + q, point) == evaluate(p, point) + evaluate(q, point)
