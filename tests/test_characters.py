import importlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from charfactor.cyclotomic import Cyclotomic, as_cyclotomic, field_degree, zeta
from charfactor.laurent import LaurentPoly
from charfactor.perms import EnumerationTooLarge, Perm, permutation_parity, row_coset_reps
from charfactor.characters import (alternant, coset_block_sum, coxeter_value,
                                   det_fraction_free, multiply_out, schur_at_point,
                                   twisted_numerator, twisted_numerator_terms,
                                   twisted_vandermonde_closed)
from charfactor.factorize import random_regular_point
from charfactor.weights import (check_dominant, dominant_weights, is_residue_balanced,
                                normalize_residue_blocks, staircase)
from oracles import (alternant_at_point, evaluate, numerator_by_row_sets,
                     power_substitute, residue_permutation, schur_polynomial,
                     schur_ratio_at_point, symmetric_group, terms_by_row_sets,
                     twisted_point, twisted_vandermonde_product)


def weyl_dimension(lam):
    # independent oracle: the product formula over pairs of shifted entries
    size = len(lam)
    nu = [lam[i] + size - 1 - i for i in range(size)]
    num = den = 1
    for i in range(size):
        for j in range(i + 1, size):
            num *= nu[i] - nu[j]
            den *= j - i
    assert num % den == 0
    return num // den


def numerator_by_symmetric_group(mu, m, n):
    # independent oracle: the alternating sum over all of S_(m*n) of the
    # block-specialized monomials of mu, term by term
    total = m * n
    counts = {}
    for images in itertools.permutations(range(total)):
        parity = permutation_parity(images)
        texp = [0] * m
        twist = 0
        for p in range(total):
            e = mu[images[p]]
            texp[p % m] += e
            twist += (p // m) * e
        row = counts.setdefault(tuple(texp), [0] * n)
        row[twist % n] += parity
    basis = [zeta(n, j).coeffs for j in range(n)]
    terms = {}
    for key, row in counts.items():
        vec = [Fraction(0)] * field_degree(n)
        for j, cnt in enumerate(row):
            for i, b in enumerate(basis[j]):
                vec[i] += cnt * b
        if any(vec):
            terms[key] = Cyclotomic(n, vec)
    return LaurentPoly(m, terms)


def balanced_shuffle(rng, m, n, low, high):
    # m distinct values from each residue class mod n, in random order: an
    # unnormalized mu whose twisted numerator does not vanish
    mu = []
    for r in range(n):
        mu += rng.sample([v for v in range(low, high + 1) if v % n == r], m)
    rng.shuffle(mu)
    return tuple(mu)


SMALL_SHAPES = [(m, n) for m in range(1, 9) for n in range(1, 9) if m * n <= 8]
# every m*n <= 9 but (8, 1) and (9, 1), where each S_m oracle sum alone
# takes seconds
HYPOTHESIS_SHAPES = [(m, n) for m in range(1, 8) for n in range(1, 10) if m * n <= 9]


class TestTwistedNumerator:
    @pytest.mark.parametrize("m,n", SMALL_SHAPES)
    def test_matches_symmetric_group_oracle(self, m, n):
        rng = random.Random(1000 * m + n)
        cases = [balanced_shuffle(rng, m, n, -3, 9) for _ in range(2)]
        cases.append(tuple(rng.randint(-3, 9) for _ in range(m * n)))
        for mu in cases:
            expected = numerator_by_symmetric_group(mu, m, n)
            assert twisted_numerator(mu, m, n) == expected, mu
        assert numerator_by_symmetric_group(cases[0], m, n)

    def test_two_term_case(self):
        # m=1, n=2, mu=(2,1): t1^2*(-t1) - t1*(-t1)^2 = -2 t1^3
        assert twisted_numerator((2, 1), 1, 2) == LaurentPoly(1, {(3,): -2})

    def test_unbalanced_weight_vanishes(self):
        # shifted weight of (1,0,0,0) is (4,2,1,0): three even entries
        assert not twisted_numerator((4, 2, 1, 0), 2, 2)

    def test_antisymmetry(self):
        mu = (4, 0, 3, 1)
        base = twisted_numerator(mu, 2, 2)
        rng = random.Random(7)
        for _ in range(5):
            sigma = rng.choice(list(symmetric_group(4)))
            permuted = twisted_numerator(sigma.act(mu), 2, 2)
            if sigma.sign == 1:
                assert permuted == base
            else:
                assert permuted == -base

    def test_homogeneity(self):
        mu = (6, 0, 4, 1, 5, 2)
        total = sum(mu)
        poly = twisted_numerator(mu, 2, 3)
        assert poly
        assert all(sum(e) == total for e in poly.terms)

    def test_bound(self):
        with pytest.raises(EnumerationTooLarge):
            twisted_numerator(tuple(range(10)), 2, 5)

    def test_bound_checked_before_any_work(self, monkeypatch):
        # past the bound, not even the S_m arrangements may be listed
        def refuse(images):
            raise AssertionError("work started before the bound was checked")

        monkeypatch.setattr(importlib.import_module("charfactor.characters"),
                            "permutation_parity", refuse)
        with pytest.raises(EnumerationTooLarge):
            twisted_numerator(tuple(range(9, -1, -1)), 10, 1)

    def test_length_check(self):
        with pytest.raises(ValueError):
            twisted_numerator((1, 0), 2, 2)


def with_repeated_entry(rng, m, n):
    # a balanced shuffle with its last entry overwritten by its first
    mu = list(balanced_shuffle(rng, m, n, -3, 3 * m * n))
    mu[-1] = mu[0]
    return tuple(mu)


def off_normal_form(rng, m, n):
    # mu in no residue order: distinct entries (mostly unbalanced), entries
    # drawn with repeats, a balanced shuffle and one with a repeated entry
    return [tuple(rng.sample(range(-3, 3 * m * n), m * n)),
            tuple(rng.sample(range(-3, 3 * m * n), m * n)),
            tuple(rng.randint(-3, 9) for _ in range(m * n)),
            balanced_shuffle(rng, m, n, -3, 3 * m * n),
            with_repeated_entry(rng, m, n)]


class TestFactoredExpansion:
    # the block minors against the row-set expansions, past the m*n <= 8
    # of numerator_by_symmetric_group
    @pytest.mark.parametrize("m,n", [(3, 3), (5, 2), (2, 5), (3, 4), (4, 3), (2, 6), (1, 10)])
    def test_matches_unfactored_expansion_past_size_eight(self, m, n):
        # the unfactored expansion of a shuffle takes minutes at m*n = 12,
        # so it gets the residue-ordered weight and the sign of the order
        rng = random.Random(100 * m + n)
        zero, _ = normalize_residue_blocks(staircase(m * n), m, n)
        for mu in (zero, *(balanced_shuffle(rng, m, n, -3, 9) for _ in range(2))):
            w = residue_permutation(mu, m, n)
            expected = numerator_by_row_sets(w.act(mu), m, n)
            numerator = twisted_numerator(mu, m, n, bound=m * n)
            assert numerator and numerator == expected.scale(w.sign), mu

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3),
                                     (1, 6), (1, 10)])
    def test_matches_unfactored_expansion_off_normal_form(self, m, n):
        rng = random.Random(200 * m + n)
        for mu in off_normal_form(rng, m, n):
            assert twisted_numerator(mu, m, n, bound=10) == numerator_by_row_sets(mu, m, n), mu

    @settings(derandomize=True, deadline=None)
    @given(st.data())
    def test_matches_both_row_set_expansions(self, data):
        # mu balanced (m distinct values per residue class, shuffled) or
        # drawn freely; the block minors against the row-set expansion,
        # unfactored and factored, and the factored terms one for one
        m, n = data.draw(st.sampled_from(HYPOTHESIS_SHAPES))
        if data.draw(st.booleans()):
            mu = data.draw(st.permutations(
                [r + n * j for r in range(n)
                 for j in data.draw(st.lists(st.integers(-1, m + 1), min_size=m, max_size=m,
                                             unique=True))]))
        else:
            mu = data.draw(st.lists(st.integers(-3, 3 * m * n), min_size=m * n,
                                    max_size=m * n, unique=data.draw(st.booleans())))
        mu = tuple(mu)
        numerator = twisted_numerator(mu, m, n)
        assert numerator == numerator_by_row_sets(mu, m, n)
        assert numerator == multiply_out(terms_by_row_sets(mu, m, n), m, n)
        terms = twisted_numerator_terms(mu, m, n)
        if len(set(mu)) < len(mu) or not is_residue_balanced(mu, m, n):
            assert terms == {} and not numerator
        else:
            order = sorted(range(m * n), key=lambda j: mu[j] % n)
            sign = permutation_parity(order)
            expected = terms_by_row_sets(tuple(mu[j] for j in order), m, n)
            assert terms == {idt: c if sign > 0 else -c for idt, c in expected.items()}

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (2, 4)])
    def test_every_row_coset_matches_unfactored_expansion(self, m, n):
        # with the rows fixed nothing is sorted by residue, so a block's
        # values may mix residues and survive with their minors nonzero; at
        # n = 4 a block whose values differ by 2 mod 4 has classes k mod 2
        rng = random.Random(300 * m + n)
        zero, _ = normalize_residue_blocks(staircase(m * n), m, n)
        nonzero = 0
        for mu in (zero, *off_normal_form(rng, m, n)):
            for rep in row_coset_reps(m, n):
                total = coset_block_sum(mu, m, n, rep)
                assert total == numerator_by_row_sets(mu, m, n, rep.images), (mu, rep)
                nonzero += bool(total)
        assert nonzero

    def test_normal_form_builds_one_minor_per_block(self, monkeypatch):
        # in residue order every pick with two rows in one t-column is
        # proportional, and the rest share one minor up to a root of unity
        module = importlib.import_module("charfactor.characters")
        built = []

        def counted(*args):
            built.append(args)
            return block_minor(*args)

        block_minor = module._block_minor
        monkeypatch.setattr(module, "_block_minor", counted)
        mu, sign = normalize_residue_blocks(staircase(12), 4, 3)
        expected = twisted_vandermonde_closed(4, 3).scale(sign)
        assert twisted_numerator(mu, 4, 3, bound=12) == expected
        assert len(built) == 3

    def test_fixed_rows_with_a_proportional_pair_build_no_minor(self, monkeypatch):
        # rows 3 and 5 are zeta_3^k t_1 with k = 1 and 2: proportional on
        # values of one residue, so the coset sum is zero before any minor
        def refuse(*args):
            raise AssertionError("a minor was built")

        monkeypatch.setattr(importlib.import_module("charfactor.characters"),
                            "_block_minor", refuse)
        mu, _ = normalize_residue_blocks(staircase(6), 2, 3)
        assert not coset_block_sum(mu, 2, 3, Perm((1, 2, 3, 5, 4, 6)))


class TestAlternant:
    def test_rank_two(self):
        assert alternant((1, 0)) == LaurentPoly(2, {(1, 0): 1, (0, 1): -1})

    def test_power_substitution(self):
        assert power_substitute(alternant((2, 0)), 2) == \
            LaurentPoly(2, {(4, 0): 1, (0, 4): -1})

    def test_staircase_is_vandermonde(self):
        for m in (2, 3, 4):
            rho = staircase(m)
            vandermonde = LaurentPoly.one(m)
            for i in range(m):
                for j in range(i + 1, m):
                    vandermonde = vandermonde * (LaurentPoly.variable(i, m)
                                                 - LaurentPoly.variable(j, m))
            assert alternant(rho) == vandermonde

    def test_repeated_exponents_vanish(self):
        assert not alternant((2, 2))


class TestTwistedVandermonde:
    def test_direct_one_two(self):
        assert twisted_vandermonde_product(1, 2) == LaurentPoly(1, {(1,): 2})

    def test_closed_two_two_frozen(self):
        # -4 t1 t2 (t1^2 - t2^2)^2 expanded
        expected = LaurentPoly(2, {(5, 1): -4, (3, 3): 8, (1, 5): -4})
        assert twisted_vandermonde_closed(2, 2) == expected
        assert twisted_vandermonde_product(2, 2) == expected

    def test_closed_one_n(self):
        for n in (2, 3, 4):
            scalar = Cyclotomic.rational(1, n)
            for i in range(n):
                for j in range(i + 1, n):
                    scalar = scalar * (zeta(n, i) - zeta(n, j))
            expected = LaurentPoly(1, {(n * (n - 1) // 2,): scalar})
            assert twisted_vandermonde_closed(1, n) == expected

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2)])
    def test_direct_equals_closed(self, m, n):
        assert twisted_vandermonde_product(m, n) == twisted_vandermonde_closed(m, n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_telescoping_root_product(self, n):
        # prod_l (t1 - zeta^l t2) collapses to t1^n - t2^n
        t1, t2 = LaurentPoly.variable(0, 2), LaurentPoly.variable(1, 2)
        prod = LaurentPoly.one(2)
        for l in range(n):
            prod = prod * (t1 - t2.scale(zeta(n, l)))
        assert prod == LaurentPoly(2, {(n, 0): 1, (0, n): -1})

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2)])
    def test_direct_is_numerator_of_normalized_staircase(self, m, n):
        rho = staircase(m * n)
        mu, sign = normalize_residue_blocks(rho, m, n)
        numerator = twisted_numerator(mu, m, n)
        direct = twisted_vandermonde_product(m, n)
        assert direct == (numerator if sign == 1 else -numerator)

    @pytest.mark.parametrize("m,n", [(1, 10), (2, 5), (5, 2), (3, 3)])
    def test_closed_is_numerator_of_normalized_staircase_above_nine(self, m, n):
        # past the default bound of 9; the closed form does not expand
        mu, sign = normalize_residue_blocks(staircase(m * n), m, n)
        numerator = twisted_numerator(mu, m, n, bound=10)
        assert numerator == twisted_vandermonde_closed(m, n).scale(sign)


# every (m, n) of the sweep and certify benchmark grids, and six past them
SCHUR_ORACLE_SHAPES = ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 4), (4, 3),
                       (4, 4), (3, 5), (2, 6), (1, 10))


def jacobi_trudi_side(lam):
    # "e" when kappa = lam - lam_N has kappa_1 <= len(kappa), else "h"
    kappa = [x - lam[-1] for x in lam if x > lam[-1]]
    return "e" if not kappa or kappa[0] <= len(kappa) else "h"


def oracle_weights(size, rng):
    # weights of length size on both Jacobi-Trudi sides, with lam_N < 0 on
    # each, one long first part, and three random ones in [-2, 3]
    pad = size - 1
    out = [
        (1,) * (size // 2) + (0,) * (size - size // 2),
        (2, 2) + (1,) * (size - 3) + (0,) if size >= 3 else (2, 1),
        (3, 1) + (0,) * (size - 2),
        (4, 2, 1) + (0,) * (size - 3) if size >= 3 else (4, 0),
        (1,) + (0,) * (size - 2) + (-2,),
        (2,) + (-1,) * pad,
        (1, -1) + (-2,) * (size - 2),
        (30,) + (0,) * pad,
    ]
    for _ in range(3):
        out.append(tuple(sorted((rng.randint(-2, 3) for _ in range(size)),
                                reverse=True)))
    for lam in out:
        check_dominant(lam)
    return out


class TestSchur:
    def test_trivial_weight(self):
        assert schur_polynomial((0, 0, 0)) == LaurentPoly.one(3)
        assert schur_at_point((0, 0, 0), [2, 3, 5]) == 1

    def test_standard_weight_at_fourth_roots(self):
        point = [1, zeta(4), -1, zeta(4, 3)]
        assert schur_at_point((1, 0, 0, 0), point) == 0

    def test_elementary_symmetric(self):
        expected = LaurentPoly(4, {
            tuple(sorted_exps): 1
            for sorted_exps in (
                (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1),
                (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1))
        })
        assert schur_polynomial((1, 1, 0, 0)) == expected

    def test_dimension_oracle(self):
        for lam in ((2, 1, 0), (3, 1, 1), (2, 2, 1, 0), (1, 1, 1, 1), (4, 2)):
            dim = weyl_dimension(lam)
            assert evaluate(schur_polynomial(lam), [1] * len(lam)) == dim

    def test_negative_entries_via_determinant_twist(self):
        # s_(0,-1)(x) = (x1 + x2) / (x1 x2)
        poly = schur_polynomial((0, -1))
        assert poly == LaurentPoly(2, {(0, -1): 1, (-1, 0): 1})
        assert schur_at_point((0, -1), [Fraction(2), Fraction(3)]) == Fraction(5, 6)

    def test_tableau_matches_ratio_at_random_points(self):
        rng = random.Random(11)
        for lam in ((2, 1, 0), (3, 2, 1, 0), (2, 2, 0), (1, 1, 1)):
            poly = schur_polynomial(lam)
            for _ in range(5):
                point = [Fraction(x) for x in rng.sample(range(2, 40), len(lam))]
                assert evaluate(poly, point) == schur_at_point(lam, point)

    def test_matches_tableau_at_non_regular_points(self):
        # Jacobi-Trudi is a polynomial identity, so it needs no regular
        # point: repeated and all-equal coordinates, zeros, mixed orders
        # (zeta_6^2 is zeta_3) and t.c_2 at t = (2, -2), i.e. (2, -2, -2, 2)
        points = [[2, 2, 5], [3, 3, 3], [0, 4, 7], [0, 0, 0],
                  [zeta(3), zeta(3), 1], [zeta(6, 2), zeta(3), zeta(4)],
                  [Fraction(1, 2)] * 4, [2, 0, 2, 0], [zeta(4), 1, zeta(4), zeta(3)],
                  twisted_point([2, -2], 2)]
        poles = 0
        for point in points:
            for lam in dominant_weights(len(point), -2, 3):
                if lam[-1] < 0 and not all(point):
                    poles += 1
                    with pytest.raises(ValueError, match="pole at evaluation point"):
                        schur_at_point(lam, point)
                    continue
                assert schur_at_point(lam, point) == \
                    evaluate(schur_polynomial(lam), point), (lam, point)
        assert poles

    def test_pole_at_zero_coordinate(self):
        with pytest.raises(ValueError, match="pole at evaluation point"):
            schur_at_point((0, -1), [1, 0])
        # lam_N = 0 puts no power of the coordinates in a denominator
        assert schur_at_point((1, 0), [1, 0]) == 1

    def test_matches_alternant_ratio_at_twisted_points(self):
        rng = random.Random(4096)
        sides = set()
        for m, n in SCHUR_ORACLE_SHAPES:
            for lam in oracle_weights(m * n, rng):
                sides.add((jacobi_trudi_side(lam), lam[-1] < 0))
                t = random_regular_point(rng, m)
                point = twisted_point(t, n)
                assert schur_at_point(lam, point) == \
                    schur_ratio_at_point(lam, point), (m, n, lam)
        assert sides == {(side, neg) for side in "eh" for neg in (False, True)}

    def test_twisted_route_matches_literal_point(self):
        # schur_at_point(lam, t, n) runs Jacobi-Trudi on the n-th powers of
        # t; at the literal point t.c_n the same function (n = 1) and, where
        # the point is regular, the Weyl ratio must give the same value.
        # Odd and even m and n up to m*n = 12, both sides, lam_N of either
        # sign, and t with a zero, negative, fractional or cyclotomic entry
        rng = random.Random(31337)
        shapes = ((1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (3, 2), (2, 3), (3, 3),
                  (1, 4), (4, 2), (2, 5), (5, 2), (3, 4), (4, 3), (1, 12), (6, 2))
        sides, poles, irregular = set(), 0, 0
        for m, n in shapes:
            for lam in oracle_weights(m * n, rng)[:6]:
                sides.add((jacobi_trudi_side(lam), lam[-1] < 0))
                for t in (random_regular_point(rng, m),
                          [Fraction(-3, 2), 5, Fraction(1, 3), -7, Fraction(2, 5), 4][:m],
                          [0, -2, 3, Fraction(5, 2), 7, -11][:m],
                          [zeta(3), Fraction(-1, 2), 2 * zeta(4), 3, -5, 7][:m]):
                    point = twisted_point(t, n)
                    if lam[-1] < 0 and not all(t):
                        poles += 1
                        for args in ((lam, t, n), (lam, point)):
                            with pytest.raises(ValueError, match="pole at evaluation point"):
                                schur_at_point(*args)
                        continue
                    value = schur_at_point(lam, t, n)
                    assert value == schur_at_point(lam, point), (m, n, lam, t)
                    # t.c_n is regular when the t_s^n are nonzero and distinct
                    powers = [as_cyclotomic(x) ** n for x in t]
                    if all(powers) and all(a != b for a, b in itertools.combinations(powers, 2)):
                        assert value == schur_ratio_at_point(lam, point), (m, n, lam, t)
                    else:
                        irregular += 1
        assert sides == {(side, neg) for side in "eh" for neg in (False, True)}
        assert poles and irregular

    def test_coxeter_value_matches_alternant_ratio(self):
        rng = random.Random(8192)
        for size in range(2, 9):
            point = [zeta(size, i) for i in range(size)]
            for lam in oracle_weights(size, rng):
                assert coxeter_value(lam) == schur_ratio_at_point(lam, point), lam

    def test_ssyt_count_known_value(self):
        # number of semistandard tableaux of shape (2,1) with entries <= 3
        # equals the dimension 8 of the corresponding rank-3 representation
        poly = schur_polynomial((2, 1, 0))
        assert sum(c.as_fraction() for c in poly.terms.values()) == 8


class TestDeterminant:
    @staticmethod
    def det_cofactor(rows):
        size = len(rows)
        if size == 1:
            return rows[0][0]
        total = Cyclotomic.rational(0)
        for j in range(size):
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            term = rows[0][j] * TestDeterminant.det_cofactor(minor)
            total = total + term if j % 2 == 0 else total - term
        return total

    def test_matches_cofactor_expansion(self):
        rng = random.Random(3)
        for _ in range(8):
            size = rng.randint(1, 4)
            rows = [[Cyclotomic.rational(Fraction(rng.randint(-6, 6),
                                                  rng.randint(1, 3)))
                     for _ in range(size)] for _ in range(size)]
            assert det_fraction_free([row[:] for row in rows]) == \
                self.det_cofactor(rows)

    def test_cyclotomic_entries(self):
        rows = [[zeta(3), 1], [1, zeta(3, 2)]]
        assert det_fraction_free(rows) == zeta(3) * zeta(3, 2) - 1

    def test_mixed_orders_match_matrix_lifted_by_hand(self):
        # ints and entries of orders 3 and 4 meet inside the elimination;
        # the second matrix needs a row swap first
        for rows in ([[2, zeta(3), zeta(4)],
                      [zeta(4, 3), 1, zeta(3, 2)],
                      [zeta(3), zeta(4), 5]],
                     [[0, zeta(3), 1],
                      [zeta(4), 2, zeta(3)],
                      [1, zeta(4, 3), zeta(3, 2)]]):
            lifted = [[as_cyclotomic(x).embed(12) for x in row] for row in rows]
            value = det_fraction_free([row[:] for row in rows])
            assert value
            assert value == det_fraction_free(lifted)
            assert value == self.det_cofactor(lifted)

    def test_singular(self):
        assert det_fraction_free([[1, 2], [2, 4]]) == 0

    def test_pivoting(self):
        assert det_fraction_free([[0, 1], [1, 0]]) == -1
        assert det_fraction_free([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1

    def test_one_inverse_per_pivot(self, monkeypatch):
        calls = []
        invert = Cyclotomic.inverse

        def counted(self):
            calls.append(self)
            return invert(self)

        monkeypatch.setattr(Cyclotomic, "inverse", counted)
        for size in range(1, 6):
            rows = [[zeta(7, i * j) + i for j in range(size)] for i in range(size)]
            calls.clear()
            value = det_fraction_free([row[:] for row in rows])
            assert len(calls) <= size - 1
            assert value == self.det_cofactor(rows)

    def test_one_inverse_per_coordinate(self, monkeypatch):
        calls = []
        invert = Cyclotomic.inverse

        def counted(self):
            calls.append(self)
            return invert(self)

        monkeypatch.setattr(Cyclotomic, "inverse", counted)
        lam = (0, 0, 0, -3, -5, -5)
        point = [2, 3, 5, 7, 11, 13]
        value = schur_at_point(lam, point)
        # kappa = (5, 5, 5, 2): a size-4 h-side determinant, whose Bareiss
        # inverts 2 pivots, and one inverse for (x_1 ... x_6)^-5
        assert len(calls) == 3
        assert value == evaluate(schur_polynomial(lam), point)

    def test_alternant_at_point_negative_exponents(self):
        value = alternant_at_point((1, -1), [Fraction(2), Fraction(3)])
        assert value == Fraction(2, 3) - Fraction(3, 2)

    def test_alternant_pole(self):
        with pytest.raises(ValueError, match="pole"):
            alternant_at_point((1, -1), [1, 0])


class TestCoxeterValue:
    def test_trivial(self):
        assert coxeter_value((0, 0, 0, 0)) == 1

    def test_standard_rank_four(self):
        assert coxeter_value((1, 0, 0, 0)) == 0

    def test_exterior_square_rank_four(self):
        # e2 at the fourth roots of unity sums to zero
        assert coxeter_value((1, 1, 0, 0)) == 0

    def test_adjoint_like_rank_three(self):
        # s_(2,1,0)(1, w, w^2) = (p1^3 - p3)/3 = -1 at the cube roots
        assert coxeter_value((2, 1, 0)) == -1

    def test_rank_one(self):
        assert coxeter_value((5,)) == 1

    def test_conjugate_point_agrees(self):
        for lam in ((0, 0, 0), (2, 1, 0), (1, 1, 0), (3, 2, 1, 0)):
            assert coxeter_value(lam) == coxeter_value(lam, conjugate=True)

    def test_range_small_sweep(self):
        for size in (2, 3, 4):
            for lam in dominant_weights(size, 0, 3):
                value = coxeter_value(lam)
                assert value == 0 or value == 1 or value == -1
