import importlib
import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from charfactor.cyclotomic import Cyclotomic, as_cyclotomic, field_degree, zeta
from charfactor.laurent import LaurentPoly
from charfactor.perms import EnumerationTooLarge, Perm, permutation_parity, row_coset_reps
from charfactor.characters import (_jacobi_trudi_plan, alternant, coset_block_sum,
                                   coset_block_sums, coxeter_value, denominator_scalar,
                                   det_fraction_free, multiply_out, schur_at_point,
                                   twisted_numerator, twisted_numerator_terms,
                                   twisted_vandermonde_closed)
from charfactor.factorize import random_regular_point
from charfactor.weights import (check_dominant, dominant_weights, is_residue_balanced,
                                normalize_residue_blocks, staircase)
from oracles import (alternant_at_point, canonical_pair, coxeter_by_jacobi_trudi,
                     denominator_by_pairs, evaluate, multiply_out_forms,
                     numerator_by_row_sets, power_substitute, residue_permutation,
                     schur_polynomial, schur_ratio_at_point, symmetric_group,
                     terms_by_row_sets, twisted_point, twisted_vandermonde_product,
                     variable)


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


def single_residue_blocks(rng, m, n):
    # mu whose blocks each lie in one residue class: the normalized
    # staircase and a normalized balanced shuffle, that one with its blocks
    # in random order and shuffled inside, and blocks of classes drawn with
    # repeats (an unbalanced mu whose coset sums need not vanish)
    zero, _ = normalize_residue_blocks(staircase(m * n), m, n)
    normal, _ = normalize_residue_blocks(balanced_shuffle(rng, m, n, -3, 3 * m * n), m, n)
    blocks = [rng.sample(normal[q:q + m], m) for q in range(0, m * n, m)]
    rng.shuffle(blocks)
    drawn = [rng.sample(range(r - n, r + 3 * m * n, n), m)
             for r in (rng.randrange(n) for _ in range(n))]
    return [zero, normal, tuple(itertools.chain(*blocks)), tuple(itertools.chain(*drawn))]


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
        # the oracle may keep several tuples; each is one pair multiplied out
        assert numerator == sum((multiply_out_forms(pair, m, n)
                                 for pair in terms_by_row_sets(mu, m, n).items()),
                                LaurentPoly.zero(m))
        terms = twisted_numerator_terms(mu, m, n)
        if len(set(mu)) < len(mu) or not is_residue_balanced(mu, m, n):
            assert terms is None and not numerator
        else:
            # the n residue classes, decreasing, with the sign of the sort
            normal, sign = normalize_residue_blocks(mu, m, n)
            assert terms[0] == tuple(normal[q:q + m] for q in range(0, m * n, m))
            [(idt, c)] = terms_by_row_sets(normal, m, n).items()
            assert canonical_pair(terms, m, n) == (idt, c if sign > 0 else -c)

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (2, 4)])
    def test_every_row_coset_matches_unfactored_expansion(self, m, n):
        # with the rows fixed, each block of mu lies in one residue class
        # but the blocks come in any class order and any order inside
        rng = random.Random(300 * m + n)
        nonzero = 0
        for mu in single_residue_blocks(rng, m, n):
            for rep in row_coset_reps(m, n):
                total = coset_block_sum(mu, m, n, rep)
                assert total == numerator_by_row_sets(mu, m, n, rep.images), (mu, rep)
                nonzero += bool(total)
        assert nonzero

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (2, 4)])
    def test_one_call_sums_every_row_coset(self, m, n):
        # every row coset in one call, the inside ones (nonzero for the
        # normalized staircase) among them, one sum per rep in order
        rng = random.Random(500 * m + n)
        reps = list(row_coset_reps(m, n))
        nonzero = 0
        for mu in single_residue_blocks(rng, m, n):
            sums = coset_block_sums(mu, m, n, reps)
            assert sums == [numerator_by_row_sets(mu, m, n, rep.images) for rep in reps], mu
            nonzero += sum(map(bool, sums))
        assert nonzero
        assert coset_block_sums(mu, m, n, ()) == []

    @pytest.mark.parametrize("mu,message", [
        ((4, 1, 2, 0), "mixes residue classes"),
        ((3, 1, 2), r"mu length must be m\*n"),
        ((3, 1, 2, 0, 1, 2), r"mu length must be m\*n"),
    ], ids=["mixing", "short", "long"])
    def test_bad_mu_raises_before_any_rep(self, mu, message):
        # checked before reps is first advanced, also when it is empty
        def untouched():
            raise AssertionError("a rep was drawn")
            yield

        for reps in ((), untouched()):
            with pytest.raises(ValueError, match=message):
                coset_block_sums(mu, 2, 2, reps)

    @pytest.mark.parametrize("images", [(1, 2, 3), (1, 2, 3, 4, 5, 6)], ids=["short", "long"])
    def test_wrong_length_rep_rejected(self, images):
        # no coset of S_4: a short rep's key set would read as a vanishing
        # coset, and a long one's images reach past mu
        mu, good = (3, 1, 2, 0), Perm((1, 2, 3, 4))
        with pytest.raises(ValueError, match=r"rep length must be m\*n"):
            coset_block_sum(mu, 2, 2, Perm(images))
        for reps in ((Perm(images),), (good, Perm(images))):
            with pytest.raises(ValueError, match=r"rep length must be m\*n"):
                coset_block_sums(mu, 2, 2, reps)

    @pytest.mark.parametrize("mu", [(4, 1, 2, 0), (3, 1, 2, 5), (0, 1, 2, 3)])
    def test_block_mixing_residue_classes_rejected(self, mu):
        # the check is remembered only for a mu that passes it, so a mixing
        # mu raises on every call, also after a good mu of the same shape
        for rep in row_coset_reps(2, 2):
            with pytest.raises(ValueError, match="mixes residue classes"):
                coset_block_sum(mu, 2, 2, rep)
        coset_block_sum((3, 1, 2, 0), 2, 2, Perm((1, 2, 3, 4)))
        with pytest.raises(ValueError, match="mixes residue classes"):
            coset_block_sum(list(mu), 2, 2, Perm((1, 2, 3, 4)))

    def test_list_mu_sums_as_its_tuple(self):
        mu, _ = normalize_residue_blocks(staircase(6), 2, 3)
        sums = [coset_block_sum(mu, 2, 3, rep) for rep in row_coset_reps(2, 3)]
        assert any(sums)
        assert [coset_block_sum(list(mu), 2, 3, rep) for rep in row_coset_reps(2, 3)] == sums

    def test_normal_form_builds_one_minor_per_block(self):
        # the pair holds the 3 residue classes of the staircase, decreasing,
        # one alternant each
        mu, sign = normalize_residue_blocks(staircase(12), 4, 3)
        blocks, _ = twisted_numerator_terms(mu, 4, 3, bound=12)
        assert blocks == ((9, 6, 3, 0), (10, 7, 4, 1), (11, 8, 5, 2))
        expected = twisted_vandermonde_closed(4, 3).scale(sign)
        assert twisted_numerator(mu, 4, 3, bound=12) == expected

    def test_fixed_rows_with_a_proportional_pair_build_no_minor(self, monkeypatch):
        # rows 3 and 5 are zeta_3^k t_1 with k = 1 and 2: proportional on
        # values of one residue, so the coset sum is zero before anything
        # is multiplied out
        def refuse(*args):
            raise AssertionError("a minor was multiplied out")

        monkeypatch.setattr(importlib.import_module("charfactor.characters"),
                            "multiply_out", refuse)
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
            vandermonde = LaurentPoly.constant(1, m)
            for i in range(m):
                for j in range(i + 1, m):
                    vandermonde = vandermonde * (variable(i, m) - variable(j, m))
            assert alternant(rho) == vandermonde

    def test_repeated_exponents_vanish(self):
        assert not alternant((2, 2))

    def test_matches_the_twisted_numerator_at_n_one(self):
        # the former route, a twisted numerator at n = 1, gives the same
        # value and text; alternant keeps int coefficients
        rng = random.Random(24)
        vectors = [(3, -1, 3), (-2, -2), (0, -4, 5, -4), (-1,), (2, 0, -3, 1, -5)]
        vectors += [tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 5)))
                    for _ in range(200)]
        for e in vectors:
            new = alternant(e)
            old = twisted_numerator(e, len(e), 1, bound=len(e))
            assert new == old and str(new) == str(old), e
            assert all(type(c) is int for c in new.terms.values()), e
        assert any(len(set(e)) < len(e) for e in vectors)
        assert any(alternant(e) for e in vectors if min(e) < 0)


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
            expected = LaurentPoly(1, {(n * (n - 1) // 2,): denominator_by_pairs(1, n)})
            assert twisted_vandermonde_closed(1, n) == expected

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_denominator_scalar_matches_the_pair_product(self, m):
        for n in range(1, 25):
            assert denominator_scalar(m, n) == denominator_by_pairs(m, n), (m, n)

    def test_denominator_scalar_budget(self):
        # n - 1 powers of the 1 - zeta^d take about 0.2 s at n = 160 on a
        # 2-vCPU VM; the C(n,2) root differences one by one take about 3 s
        denominator_scalar.cache_clear()
        start = time.perf_counter()
        denominator_scalar(1, 160)
        elapsed = time.perf_counter() - start
        assert elapsed < 1, f"{elapsed:.2f}s"

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2)])
    def test_direct_equals_closed(self, m, n):
        assert twisted_vandermonde_product(m, n) == twisted_vandermonde_closed(m, n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_telescoping_root_product(self, n):
        # prod_l (t1 - zeta^l t2) collapses to t1^n - t2^n
        t1, t2 = variable(0, 2), variable(1, 2)
        prod = LaurentPoly.constant(1, 2)
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
        assert schur_polynomial((0, 0, 0)) == LaurentPoly.constant(1, 3)
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

    def test_point_arity_mismatch(self):
        # N = 4 takes 4 coordinates, or 2 at n = 2
        for n in (1, 2):
            with pytest.raises(ValueError, match="point arity mismatch"):
                schur_at_point((1, 0, 0, 0), [2, 3, 5], n)

    @pytest.mark.parametrize("n", [0, -1, -3])
    def test_n_below_one_raises(self, n):
        # before the arity test: the empty weight once read 1 there, and a
        # zero coordinate at n < 0 must not reach a division
        for lam, point in (((), []), ((1, 0), [2, 3]), ((1, 0), []), ((2, 1, 0, -1), [0, 2])):
            with pytest.raises(ValueError, match=f"^n must be at least 1, got {n}$"):
                schur_at_point(lam, point, n)

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

    def test_int_route_matches_cyclotomic_route(self):
        # at an int t the e/h recurrence, the determinant and the
        # coordinate product stay on Python ints; the same t given as
        # Cyclotomic values runs through Cyclotomic arithmetic and must give
        # the same value and text.  Both sides, lam_N of either sign,
        # negative and zero entries, and m*n up to 12
        rng = random.Random(1729)
        shapes = ((2, 1), (1, 2), (3, 1), (2, 2), (3, 2), (2, 3), (4, 2), (3, 3),
                  (2, 5), (3, 4), (4, 3), (2, 6), (6, 2), (1, 12))
        sides, poles = set(), 0
        for m, n in shapes:
            for lam in oracle_weights(m * n, rng):
                sides.add((jacobi_trudi_side(lam), lam[-1] < 0))
                for t in (random_regular_point(rng, m),
                          [rng.randint(-9, 9) for _ in range(m)],
                          [-3, 0, 5, -7, 2, 11][:m]):
                    lifted = [Cyclotomic.rational(x) for x in t]
                    if lam[-1] < 0 and not all(t):
                        poles += 1
                        for point in (t, lifted):
                            with pytest.raises(ValueError, match="pole at evaluation point"):
                                schur_at_point(lam, point, n)
                        continue
                    value = schur_at_point(lam, t, n)
                    expected = schur_at_point(lam, lifted, n)
                    assert type(value) is (Fraction if lam[-1] < 0 else int)
                    assert value == expected and str(value) == str(expected), (m, n, lam, t)
        assert sides == {(side, neg) for side in "eh" for neg in (False, True)}
        assert poles

    def test_value_lives_in_the_ring_of_the_point(self):
        # the trivial weight and rank-1 weights have an empty Jacobi-Trudi
        # matrix; at a Fraction or cyclotomic point the value is the
        # tableau value, and it follows the coordinates at an int point (an
        # int or a Fraction) and at the Coxeter point 1.c_N (an int)
        for lam, point in (((0, 0, 0), [zeta(3, i) for i in range(3)]),
                           ((5,), [zeta(1)]), ((-2,), [zeta(4)]),
                           ((0, 0), [Fraction(1, 2), 3]), ((1, 0), [Fraction(1, 2), 3])):
            value, expected = schur_at_point(lam, point), evaluate(schur_polynomial(lam), point)
            assert value == expected and str(value) == str(expected), (lam, point)
        for lam in ((0, 0, 0), (5,), (-2,), (0, -2)):
            value = coxeter_value(lam)
            assert type(value) is int and value == 1, lam
        for lam, point, expected in (((0, 0, 0), [2, 3, 5], 1), ((5,), [3], 243),
                                     ((3, 3), [2, 3], 216), ((-2,), [3], Fraction(1, 9)),
                                     ((0, -2), [-1, 2], Fraction(3, 4))):
            value = schur_at_point(lam, point)
            assert type(value) is type(expected) and value == expected, (lam, point)

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


class TestJacobiTrudiPlan:
    # schur_at_point keeps the point-free part of its matrix per (lam, n) in
    # a bounded cache; a plan keyed wrongly shows only on a warm second call

    @staticmethod
    def grid():
        # every dominant lam with m*n <= 6 and entries in [-1, 2], so that
        # lam_N < 0 gives a Fraction, at every n dividing its length
        return [(lam, n) for size in range(1, 7) for lam in dominant_weights(size, -1, 2)
                for n in range(1, size + 1) if size % n == 0]

    def test_warm_plan_matches_the_oracles(self):
        # the first pass fills the plans with lam as a list at int t; the
        # second, in another order, reads each of them with lam as a tuple
        # at a Fraction or Cyclotomic t; the same lam comes at two or more n
        # in each pass, between other weights, and every value must equal
        # the Weyl ratio at the literal point t.c_n
        _jacobi_trudi_plan.cache_clear()
        rng = random.Random(2029)
        grid = self.grid()
        assert len({lam for lam, _ in grid}) < len(grid)
        for warm in (False, True):
            rng.shuffle(grid)
            for lam, n in grid:
                m = len(lam) // n
                if not warm:
                    t = random_regular_point(rng, m)
                elif rng.random() < 0.5:
                    t = [Fraction(r, r + 1) + 2 * s + 1
                         for s, r in enumerate(rng.sample(range(1, 9), m))]
                else:
                    t = [zeta(rng.choice((3, 4)), rng.randrange(4)) * (s + 2) for s in range(m)]
                value = schur_at_point(lam if warm else list(lam), t, n)
                assert value == schur_ratio_at_point(lam, twisted_point(t, n)), (lam, n, t)
                if not warm:
                    assert type(value) is (Fraction if lam[-1] < 0 else int), (lam, n)
        info = _jacobi_trudi_plan.cache_info()
        assert info.misses == info.hits == len(grid)

    def test_raises_are_not_cached(self):
        _jacobi_trudi_plan.cache_clear()
        for lam in ((0, 1), [1, 2, 0], (2, 0, 1, 0)):
            for n in (1, 1, len(lam)):
                with pytest.raises(ValueError, match="weight not dominant"):
                    schur_at_point(lam, [2] * (len(lam) // n), n)
        assert _jacobi_trudi_plan.cache_info().currsize == 0
        for lam in ((2, 1, 0, 0), (1, 0, 0, -1)):
            for n, good, bad in ((1, [2, 3, 5, 7], [2, 3, 5]), (2, [2, 3], [2, 3, 5])):
                assert schur_at_point(lam, good, n) == \
                    schur_ratio_at_point(lam, twisted_point(good, n))
                for _ in range(2):
                    with pytest.raises(ValueError, match="point arity mismatch"):
                        schur_at_point(lam, bad, n)
        # lam_N < 0: a zero coordinate is a pole on a warm plan too
        for n, point in ((1, [2, 0, 5, 7]), (2, [0, 3]), (4, [0])):
            schur_at_point((1, 0, 0, -1), [x or 1 for x in point], n)
            for _ in range(2):
                with pytest.raises(ValueError, match="pole at evaluation point"):
                    schur_at_point((1, 0, 0, -1), point, n)

    def test_cache_is_bounded(self):
        # a long sweep keeps at most maxsize plans: (k, k) has an empty
        # matrix, so each of these calls is cheap and needs its own plan
        maxsize = _jacobi_trudi_plan.cache_parameters()["maxsize"]
        assert type(maxsize) is int and maxsize > 0
        _jacobi_trudi_plan.cache_clear()
        for k in range(maxsize + 10):
            assert schur_at_point((k, k), [1, 1]) == 1
        assert _jacobi_trudi_plan.cache_info().currsize == maxsize


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

    def test_empty_matrix_is_the_int_one(self):
        # an empty matrix is all-int, so it stays on ints
        value = det_fraction_free([])
        assert type(value) is int and value == 1

    def test_one_by_one_is_its_entry(self):
        # no elimination step: an int stays an int, any other entry comes
        # back as `as_cyclotomic` lifts it, and a non-square row still raises
        value = det_fraction_free([[-7]])
        assert type(value) is int and value == -7
        value = det_fraction_free([[Fraction(2, 3)]])
        assert isinstance(value, Cyclotomic) and value == Fraction(2, 3)
        value = det_fraction_free([[zeta(5, 2)]])
        assert isinstance(value, Cyclotomic) and value == zeta(5, 2)
        with pytest.raises(ValueError, match="matrix must be square"):
            det_fraction_free([[1, 2]])

    def test_non_square_rejected(self):
        for matrix in ([[1, 2], [3]], [[1, 2, 3], [4, 5, 6]], [[Fraction(1, 2)], [1]]):
            with pytest.raises(ValueError, match="matrix must be square"):
                det_fraction_free(matrix)

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
        ints = [2, 3, 5, 7, 11, 13]
        point = [Cyclotomic.rational(x) for x in ints]
        value = schur_at_point(lam, point)
        # kappa = (5, 5, 5, 2): a size-4 h-side determinant, whose Bareiss
        # inverts 2 pivots, and one inverse for (x_1 ... x_6)^-5
        assert len(calls) == 3
        assert value == evaluate(schur_polynomial(lam), point)
        # the same point as ints: Bareiss divides with exact //, and the
        # power of the product is one Fraction at the end, so no inverse
        calls.clear()
        assert schur_at_point(lam, ints) == value
        assert calls == []

    def test_int_matrices_stay_on_ints(self):
        # an all-int matrix divides by the previous pivot with exact //;
        # zero entries force row swaps, at the first pivot and later ones
        rng = random.Random(1968)
        swapped = 0
        for _ in range(60):
            size = rng.randint(1, 5)
            rows = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(size)]
                    for _ in range(size)]
            value = det_fraction_free([row[:] for row in rows])
            assert type(value) is int
            assert value == self.det_cofactor(rows), rows
            swapped += bool(value) and not rows[0][0]
        assert swapped
        for rows in ([[0, 1], [1, 0]], [[0, 2, 1], [3, 0, 1], [1, 1, 0]],
                     [[1, 1, 2], [1, 1, 3], [2, 5, 1]]):
            value = det_fraction_free([row[:] for row in rows])
            assert type(value) is int and value == self.det_cofactor(rows), rows

    def test_fraction_entries_never_floor(self):
        # // floors a Fraction, so only entries of type int take it
        value = det_fraction_free([[Fraction(1, 2), 1], [1, Fraction(1, 3)]])
        assert isinstance(value, Cyclotomic) and value == Fraction(-5, 6)
        rng = random.Random(22)
        for _ in range(20):
            size = rng.randint(2, 4)
            rows = [[rng.choice((rng.randint(-5, 5), Fraction(rng.randint(-5, 5), 3)))
                     for _ in range(size)] for _ in range(size)]
            assert det_fraction_free([row[:] for row in rows]) == self.det_cofactor(rows)

    def test_alternant_at_point_negative_exponents(self):
        value = alternant_at_point((1, -1), [Fraction(2), Fraction(3)])
        assert value == Fraction(2, 3) - Fraction(3, 2)

    def test_alternant_pole(self):
        with pytest.raises(ValueError, match="pole"):
            alternant_at_point((1, -1), [1, 0])


class TestCoxeterValue:
    def test_trivial(self):
        assert coxeter_value((0, 0, 0, 0)) == 1
        # 1.c_0 has no coordinates; the empty weight is pinned at 1
        value = coxeter_value(())
        assert type(value) is int and value == 1

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
        # the point built from the inverse root holds the same coordinates,
        # so the Weyl ratio there gives the same value
        for lam in ((0, 0, 0), (2, 1, 0), (1, 1, 0), (3, 2, 1, 0), (2, 0, -1), (1, 1, 1, 0, -2)):
            size = len(lam)
            point = [zeta(size, -i) for i in range(size)]
            assert coxeter_value(lam) == schur_ratio_at_point(lam, point), lam

    def test_range_small_sweep(self):
        for size in (2, 3, 4):
            for lam in dominant_weights(size, 0, 3):
                value = coxeter_value(lam)
                assert value == 0 or value == 1 or value == -1
        # the certificate route against Jacobi-Trudi at 1.c_N on 3,002 weights
        checked = 0
        for size in range(1, 9):
            for lam in dominant_weights(size, -2, 3):
                checked += 1
                assert coxeter_value(lam) == coxeter_by_jacobi_trudi(lam), lam
        assert checked == 3002

    def test_cost_does_not_grow_with_the_entries(self):
        # h_w(1, -1) is 1 for even w and 0 for odd w; Jacobi-Trudi would
        # build an index line of about w cells
        for lam, expected in (((10**9, 0), 1), ((10**9 + 1, 0), 0)):
            start = time.perf_counter()
            assert coxeter_value(lam) == expected
            assert time.perf_counter() - start < 0.01, lam
