import importlib
import itertools
import json
import random
from fractions import Fraction
from math import comb

import pytest

from charfactor.cyclotomic import zeta
from charfactor.laurent import LaurentPoly, block_specialize
from charfactor.perms import (BlockStructure, EnumerationTooLarge, Perm,
                              is_column_row_product, row_coset_reps,
                              row_subgroup, column_subgroup)
from charfactor.characters import (alternant, coset_block_sums, denominator_scalar,
                                   multiply_out, schur_at_point, twisted_numerator,
                                   twisted_numerator_terms)
from charfactor.weights import (dominant_weights, factor_weights, is_residue_balanced,
                                normalize_residue_blocks, residue_normal_form,
                                shifted_weight, staircase)
from charfactor.factorize import (FactorizationCertificate, coset_audit,
                                  coset_block_sum, factored_value, factorize,
                                  random_regular_point, sample_points, sign_via_coxeter,
                                  vanishes_numerically, verify_numeric,
                                  verify_symbolic, verify_terms)
from charfactor.cli import run_benchmark
from oracles import (block_key, factor_weights_by_blocks, factored_exponents,
                     littlewood_sign, power_substitute, schur_ratio_at_point,
                     twisted_point, verify_numerator)

# the weights of TestSignViaCoxeter.test_closed_form_matches_determinant_oracle
SIGN_GRID = (((2, 2), -2, 3), ((2, 3), -1, 2), ((3, 2), -1, 2),
             ((2, 4), 0, 2), ((4, 2), 0, 2))
# the grids of the perfbench sweep and symbolic workloads
SWEEP_GRID = (((2, 2), 0, 3), ((2, 3), 0, 2), ((3, 2), 0, 2))
SYMBOLIC_GRID = (((2, 3), 0, 2), ((3, 2), 0, 2), ((2, 4), 0, 1), ((4, 2), 0, 1))


def balanced_weights(m, n, lo, hi):
    return [lam for lam in sorted(dominant_weights(m * n, lo, hi))
            if is_residue_balanced(shifted_weight(lam), m, n)]


def past_twelve_weights(m, n):
    # as in the acceptance test past m*n = 12: the zero weight and the first
    # two balanced weights in [0, 3] that are not constant
    return [(0,) * (m * n)] + [lam for lam in balanced_weights(m, n, 0, 3)
                               if lam[0] != lam[-1]][:2]


class TestFactorize:
    def test_trivial_weight_all_sizes(self):
        for m, n in ((1, 2), (2, 2), (1, 3), (3, 2), (2, 3)):
            cert = factorize((0,) * (m * n), m, n)
            assert cert.balanced
            assert cert.etas == ((0,) * m,) * n
            assert cert.epsilon == 1

    def test_exterior_square_two_two(self):
        cert = factorize((1, 1, 0, 0), 2, 2)
        assert cert.balanced
        assert cert.mu == (4, 0, 3, 1)
        assert cert.w0_sign == 1
        assert cert.etas == ((1, 0), (0, 0))
        assert cert.epsilon == -1

    def test_standard_weight_vanishes(self):
        cert = factorize((1, 0, 0, 0), 2, 2)
        assert not cert.balanced
        assert cert.mu is None and cert.etas is None and cert.epsilon is None

    def test_rank_one_blocks(self):
        cert = factorize((2, 1, 0), 1, 3)
        assert cert.balanced
        assert cert.etas == ((0,), (1,), (0,))
        assert cert.epsilon == -1

    def test_non_dominant_rejected(self):
        with pytest.raises(ValueError, match="weight not dominant"):
            factorize((0, 1, 0, 0), 2, 2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            factorize((1, 0, 0), 2, 2)

    @pytest.mark.parametrize("m,n", [(0, 2), (2, 0), (-1, 2)])
    def test_nonpositive_shape_rejected(self, m, n):
        with pytest.raises(ValueError, match="m and n must be positive"):
            factorize((0, 0), m, n)

    def test_balanced_field_matches_balance_test(self):
        for lam in dominant_weights(4, 0, 2):
            cert = factorize(lam, 2, 2)
            assert cert.balanced == is_residue_balanced(shifted_weight(lam), 2, 2)

    def test_round_trip_serialization(self):
        balanced = factorize((1, 1, 1, 0, 0, 0), 2, 3)
        vanishing = factorize((2, 1, 1, 0, 0, 0), 2, 3)
        assert balanced.balanced and not vanishing.balanced
        for cert in (balanced, vanishing):
            data = cert.to_dict()
            assert json.loads(json.dumps(data)) == data
            nulls = [data[k] is None for k in ("mu", "w0_sign", "etas", "epsilon")]
            assert data["balanced"] == cert.balanced == (cert.mu is not None)
            assert nulls == [not cert.balanced] * 4


class TestSignViaCoxeter:
    def test_trivial(self):
        assert sign_via_coxeter((0, 0, 0, 0), ((0, 0), (0, 0))) == 1

    def test_fallback_when_coxeter_point_vanishes(self):
        # both sides are zero at the Coxeter point here, so the oracle
        # cannot decide the sign
        assert sign_via_coxeter((1, 1, 0, 0), ((1, 0), (0, 0))) is None

    def test_one_side_vanishing_raises(self):
        with pytest.raises(RuntimeError, match="direct side zero"):
            sign_via_coxeter((1, 1, 0, 0), ((0, 0), (0, 0)))

    def test_conjugate_point_gives_same_sign(self):
        # the Weyl ratios at the points built from the inverse roots of
        # orders m*n and m give the same sign; (2, 2, 1, 1) vanishes at the
        # Coxeter point, so the oracle is undecided there
        def conjugate(size):
            return [zeta(size, -i) for i in range(size)]

        for lam, m, n, expected in (((0, 0, 0, 0), 2, 2, 1), ((2, 1, 0), 1, 3, -1),
                                    ((2, 2, 1, 1), 2, 2, None)):
            cert = factorize(lam, m, n)
            big = schur_ratio_at_point(lam, conjugate(m * n))
            small = 1
            for eta in cert.etas:
                small = small * schur_ratio_at_point(eta, conjugate(m))
            if expected is None:
                assert not big and not small
            else:
                assert big == small * expected and expected == cert.epsilon
            assert sign_via_coxeter(lam, cert.etas) == expected

    def test_closed_form_matches_determinant_oracle(self):
        grid = (((2, 2), -2, 3), ((2, 3), -1, 2), ((3, 2), -1, 2),
                ((2, 4), 0, 2), ((4, 2), 0, 2))
        total = decided = 0
        for (m, n), lo, hi in grid:
            for lam in dominant_weights(m * n, lo, hi):
                if not is_residue_balanced(shifted_weight(lam), m, n):
                    continue
                total += 1
                cert = factorize(lam, m, n)
                sign = sign_via_coxeter(lam, cert.etas)
                if sign is None:
                    assert verify_numeric(cert, samples=1), lam
                else:
                    decided += 1
                    assert sign == cert.epsilon, lam
        assert (total, decided) == (161, 48)

    def test_closed_form_matches_littlewood_sign(self):
        # the n-sign decides every weight the Coxeter oracle above leaves open
        total = 0
        for (m, n), lo, hi in SIGN_GRID:
            for lam in dominant_weights(m * n, lo, hi):
                if is_residue_balanced(shifted_weight(lam), m, n):
                    total += 1
                    assert littlewood_sign(lam, n)[0] == factorize(lam, m, n).epsilon, lam
        assert total == 161

    def test_balanced_exactly_when_n_core_empty(self):
        checked = 0
        for (m, n), lo, hi in SIGN_GRID:
            for lam in dominant_weights(m * n, lo, hi):
                checked += 1
                assert littlewood_sign(lam, n)[1] == \
                    is_residue_balanced(shifted_weight(lam), m, n), lam
        assert checked == 384

    @pytest.mark.parametrize("m,n", [(4, 4), (3, 5), (6, 6)])
    def test_factorize_needs_no_determinant(self, monkeypatch, m, n):
        def refuse(matrix):
            raise AssertionError("factorize evaluated a determinant")

        for name in ("charfactor.characters", "charfactor.factorize"):
            monkeypatch.setattr(importlib.import_module(name),
                                "det_fraction_free", refuse, raising=False)
        assert factorize((0,) * (m * n), m, n).epsilon == 1
        # e_n at t.c_n is (-1)^(n+1) * (t_1^n + ... + t_m^n), from
        # prod_(j,s) (1 + zeta^j t_s z) = prod_s (1 - (-t_s z)^n)
        cert = factorize((1,) * n + (0,) * (m * n - n), m, n)
        assert cert.etas == ((1,) + (0,) * (m - 1),) + ((0,) * m,) * (n - 1)
        assert cert.epsilon == (-1) ** (n + 1)

    def test_epsilon_matches_generic_point_ratio(self):
        # independent oracle at t = (2, 3): e2(2,3,-2,-3) = -13 while
        # s_(1)(4, 9) = 13
        t = [Fraction(2), Fraction(3)]
        lhs = schur_at_point((1, 1, 0, 0), twisted_point(t, 2))
        assert lhs == -13
        rhs = schur_at_point((1, 0), [Fraction(4), Fraction(9)])
        assert rhs == 13
        cert = factorize((1, 1, 0, 0), 2, 2)
        assert lhs == rhs * cert.epsilon


class TestVerifyNumeric:
    def test_trivial_weight(self):
        cert = factorize((0, 0, 0, 0, 0, 0), 2, 3)
        assert verify_numeric(cert, samples=3)

    def test_nontrivial_weights(self):
        for lam, m, n in (((1, 1, 0, 0), 2, 2), ((1, 1, 1, 0, 0, 0), 2, 3),
                          ((2, 2, 1, 1, 0, 0), 3, 2)):
            cert = factorize(lam, m, n)
            assert cert.balanced
            assert verify_numeric(cert, samples=3)

    def test_corrupted_epsilon_fails(self):
        cert = factorize((1, 1, 0, 0), 2, 2)
        bad = cert._replace(epsilon=-cert.epsilon)
        assert not verify_numeric(bad, samples=2)

    def test_vanishing_certificate_gets_the_vanishing_verdict(self):
        # a vanishing certificate is checked for zeros at the same points
        cert = factorize((1, 0, 0, 0), 2, 2)
        assert not cert.balanced
        assert verify_numeric(cert, samples=3) is True
        for seed in range(4):
            assert verify_numeric(cert, samples=2, seed=seed) is \
                vanishes_numerically(cert.lam, 2, 2, samples=2, seed=seed)
        # a balanced weight wrapped as vanishing is nonzero at the samples
        forged = FactorizationCertificate(m=2, n=2, lam=(1, 1, 0, 0))
        assert verify_numeric(forged, samples=3) is False

    @pytest.mark.parametrize("samples", [0, -3])
    def test_no_samples_rejected(self, samples):
        cert = factorize((1, 1, 0, 0), 2, 2)
        with pytest.raises(ValueError, match="samples must be at least 1"):
            verify_numeric(cert, samples=samples)

    def test_deterministic_under_seed(self):
        cert = factorize((1, 1, 0, 0), 2, 2)
        assert verify_numeric(cert, samples=2, seed=5) == \
            verify_numeric(cert, samples=2, seed=5)


class TestFactoredValue:
    def test_equals_the_character_on_the_sweep_grid(self):
        # the identity is polynomial, so it holds at irregular, negative
        # and fractional points as well as at the sampled ones
        checked = 0
        for (m, n), lo, hi in SWEEP_GRID:
            points = [[0] * m, [-2] * m, [Fraction(1, k + 2) for k in range(m)],
                      *sample_points(m, 2)]
            for lam in balanced_weights(m, n, lo, hi):
                cert = factorize(lam, m, n)
                for t in points:
                    assert factored_value(cert, t) == schur_at_point(lam, t, n), (lam, t)
                checked += 1
        assert checked == 43

    def test_vanishing_certificate_rejected(self):
        cert = factorize((1, 0, 0, 0), 2, 2)
        with pytest.raises(ValueError, match="vanishing certificate; nothing to factor"):
            factored_value(cert, [2, 3])


class TestVerifySymbolic:
    def test_trivial_two_two(self):
        cert = factorize((0, 0, 0, 0), 2, 2)
        ok, scalar = verify_symbolic(cert)
        assert ok
        assert scalar == 4

    def test_vanishing_certificate_rejected(self):
        # an unbalanced weight has no numerator pair to compare
        with pytest.raises(ValueError, match="vanishing certificate"):
            verify_symbolic(factorize((1, 0, 0, 0), 2, 2))

    def test_exterior_square_two_two(self):
        cert = factorize((1, 1, 0, 0), 2, 2)
        ok, scalar = verify_symbolic(cert)
        assert ok
        assert scalar == 4

    def test_forged_factor_weight_has_no_scalar(self):
        cert = factorize((1, 1, 0, 0), 2, 2)
        bad = cert._replace(etas=((2, 0), (0, 0)))
        ok, scalar = verify_symbolic(bad)
        assert not ok
        assert scalar is None

    def test_factored_check_decides_every_certificate(self, monkeypatch):
        # verify_symbolic gives the oracle's multiplied-out (ok, scalar) on
        # the balanced weights of the perfbench symbolic grid and of the
        # acceptance test past m*n = 12, while multiplying out is refused
        # inside factorize, so the factored match decides them all.  At
        # (5, 3) and (6, 2) the oracle takes 3-6 s a weight, so the scalar
        # it gave there is pinned instead.
        weights = [(m, n, lam) for (m, n), lo, hi in SYMBOLIC_GRID
                   for lam in balanced_weights(m, n, lo, hi)]
        weights += [(m, n, lam) for m, n in ((4, 4), (3, 5)) for lam in past_twelve_weights(m, n)]
        cases = []
        for m, n, lam in weights:
            cert = factorize(lam, m, n)
            ok, scalar = verify_numerator(cert, twisted_numerator(cert.mu, m, n, bound=m * n))
            cases.append((cert, ok, str(scalar)))
        for (m, n), scalar in (((5, 3), "-2187 - 4374*z"), ((6, 2), "64")):
            cases += [(factorize(lam, m, n), True, scalar) for lam in past_twelve_weights(m, n)]

        def refuse(terms, m):
            raise AssertionError("the factored check left a certificate undecided")

        monkeypatch.setattr(importlib.import_module("charfactor.factorize"),
                            "multiply_out", refuse)
        assert len(cases) == 45
        for cert, ok, scalar in cases:
            got, got_scalar = verify_symbolic(cert, bound=cert.m * cert.n)
            assert (got, str(got_scalar)) == (ok, scalar), cert.lam
            assert got

    def test_forged_certificates_get_the_multiplied_out_answer(self):
        cert = factorize((2, 2, 2, 2, 1, 0), 2, 3)
        assert cert.etas == ((1, 0), (1, 1), (0, 0))
        ok, scalar = verify_symbolic(cert)
        assert ok and str(scalar) == "-27"
        # eta swapped between two blocks: the product is unchanged, so the
        # multiplied-out fallback passes with the same scalar
        swapped = cert._replace(etas=((1, 1), (1, 0), (0, 0)))
        assert verify_symbolic(swapped) == (True, scalar)
        assert verify_symbolic(swapped) == verify_numerator(
            swapped, twisted_numerator(cert.mu, 2, 3))
        shifted = cert._replace(etas=((2, 1), (1, 1), (0, 0)))
        assert verify_symbolic(shifted) == (False, None)
        flipped = cert._replace(epsilon=-cert.epsilon)
        assert verify_symbolic(flipped) == (False, scalar)

    @pytest.mark.parametrize("etas", [
        ((1, 0, 0), (1, 1, 0), (0, 0, 0)),  # an extra entry in every eta
        ((1,), (1, 1), (0, 0)),  # a short eta
        ((1, 0), (1, 1), (0, 0), (0, 0)),  # one eta too many
        ((1, 0), (1, 1), (0, 1)),  # eta + rho repeats a value: the minor is zero
    ])
    def test_malformed_etas_have_no_scalar(self, etas):
        cert = factorize((2, 2, 2, 2, 1, 0), 2, 3)
        assert verify_symbolic(cert._replace(etas=etas)) == (False, None)

    def test_another_weights_minors_are_multiplied_out(self, monkeypatch):
        # minors that are not the factored side's go through the
        # multiplied-out comparison, which finds no single scalar
        cert = factorize((2, 2, 2, 2, 1, 0), 2, 3)
        terms = twisted_numerator_terms(cert.mu, 2, 3)
        other = twisted_numerator_terms(factorize((0,) * 6, 2, 3).mu, 2, 3)
        assert terms[0] != other[0]
        module = importlib.import_module("charfactor.factorize")
        calls = []

        def counted(pair, m):
            calls.append(pair)
            return multiply_out(pair, m)

        monkeypatch.setattr(module, "twisted_numerator_terms", lambda *args, **kwargs: other)
        monkeypatch.setattr(module, "multiply_out", counted)
        assert verify_symbolic(cert) == (False, None)
        assert calls[0] == other and len(calls) == 2

    @pytest.mark.parametrize("w0_sign, epsilon", [(0, 0), (2, 2), (-2, Fraction(1, 2))])
    def test_signs_other_than_one_fail(self, w0_sign, epsilon):
        # (0, 0) zeroes both sides of scalar * w0_sign == constant * epsilon,
        # and (-2, 1/2) has the genuine product w0_sign * epsilon = -1
        cert = factorize((1, 1, 1, 0, 0, 0), 2, 3)
        ok, scalar = verify_symbolic(cert)
        assert ok and cert.w0_sign * cert.epsilon == -1
        bad = cert._replace(w0_sign=w0_sign, epsilon=epsilon)
        assert verify_symbolic(bad) == (False, scalar)
        assert not verify_numeric(bad)

    def test_agrees_with_numeric_on_stock(self):
        for lam in dominant_weights(4, 0, 2):
            cert = factorize(lam, 2, 2)
            if not cert.balanced:
                continue
            ok, _ = verify_symbolic(cert)
            assert ok == verify_numeric(cert, samples=2)
            assert ok


class TestVanishing:
    def test_unbalanced_character_is_zero_at_many_points(self):
        assert vanishes_numerically((1, 0, 0, 0), 2, 2, samples=20)

    def test_balanced_character_is_not(self):
        assert not vanishes_numerically((0, 0, 0, 0), 2, 2, samples=1)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_no_samples_rejected(self, samples):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            vanishes_numerically((1, 0, 0, 0), 2, 2, samples=samples)


class TestSamplePoints:
    def test_twisted_coordinates_pairwise_distinct(self):
        # distinct t_s in [2, 97] have distinct n-th powers, so one draw
        # always gives a regular twisted point and none is ever redrawn
        for m, n in ((m, n) for m in range(1, 13) for n in range(1, 12 // m + 1)):
            for seed in range(8):
                points = list(sample_points(m, 4, seed))
                assert len(points) == 4
                first = [Fraction(x) for x in random.Random(seed).sample(range(2, 98), m)]
                assert points[0] == first
                for t in points:
                    coords = twisted_point(t, n)
                    assert all(a != b for a, b in itertools.combinations(coords, 2)), \
                        (m, n, t)

    @pytest.mark.parametrize("m", [96, 97, 150])
    def test_draws_past_the_default_range(self, m):
        # up to m = 96 the draw is the one from [2, 97]; past it, from [2, m + 1]
        t = random_regular_point(random.Random(m), m)
        assert len(set(t)) == m and min(t) >= 2 and max(t) <= max(97, m + 1)
        if m <= 96:
            assert t == [Fraction(x) for x in random.Random(m).sample(range(2, 98), m)]

    @pytest.mark.parametrize("samples", [0, -3])
    def test_no_samples_rejected_before_any_point(self, samples):
        # verify_numeric and vanishes_numerically have their own tests;
        # the count is checked on the call, not on the first point
        with pytest.raises(ValueError, match="samples must be at least 1"):
            sample_points(2, samples)
        with pytest.raises(ValueError, match="samples must be at least 1"):
            run_benchmark(factorize((1, 1, 0, 0), 2, 2), samples=samples)

    def test_verify_numeric_checks_samples_before_the_certificate(self):
        # the count raises for either kind of certificate; past it, a
        # vanishing certificate gets a verdict, not an error
        vanishing = factorize((1, 0, 0, 0), 2, 2)
        for cert in (vanishing, factorize((1, 1, 0, 0), 2, 2)):
            with pytest.raises(ValueError, match="samples must be at least 1"):
                verify_numeric(cert, samples=0)
        assert verify_numeric(vanishing, samples=1) is True


def coset_sum_by_row_subgroup(mu, m, n, rep):
    # independent oracle: the signed block-specialized monomials of the
    # coset of rep, term by term over the row subgroup
    total = LaurentPoly.zero(m)
    for sigma in row_subgroup(m, n):
        term = block_specialize((rep * sigma).act(mu), m, n)
        total = total + (term if rep.sign * sigma.sign > 0 else -term)
    return total


class TestCosetBlockSum:
    def test_identity_coset_factors(self):
        # the identity coset sum carries the product of the block alternants
        # in t^n and the monomial (t1..tm)^(n(n-1)/2), up to one scalar
        mu, _ = normalize_residue_blocks(shifted_weight((1, 1, 0, 0)), 2, 2)
        total = coset_block_sum(mu, 2, 2, Perm.identity(4))
        rho = staircase(2)
        product = LaurentPoly(2, {(1, 1): 1})
        for k in range(2):
            block = sorted(mu[2 * k: 2 * k + 2], reverse=True)
            product = product * power_substitute(alternant(
                tuple((x - k) // 2 for x in block)), 2)
        scalar = total.scalar_ratio(product)
        assert scalar is not None and scalar != 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"mu length must be m\*n"):
            coset_block_sum((3, 1, 2), 2, 2, Perm.identity(4))

    def test_outside_cosets_vanish(self):
        mu, _ = normalize_residue_blocks(staircase(4), 2, 2)
        blocks = BlockStructure(2, 2)
        outside = [rep for rep in row_coset_reps(2, 2)
                   if not is_column_row_product(rep, blocks)]
        assert len(outside) == 2
        for rep in outside:
            assert not coset_block_sum(mu, 2, 2, rep)

    def test_column_element_rescales_identity_sum(self):
        mu, _ = normalize_residue_blocks(staircase(4), 2, 2)
        base = coset_block_sum(mu, 2, 2, Perm.identity(4))
        for eta in column_subgroup(2, 2):
            ratio = block_specialize(eta.act(mu), 2, 2).scalar_ratio(
                block_specialize(mu, 2, 2))
            expected = base.scale(ratio * eta.sign)
            assert coset_block_sum(mu, 2, 2, eta) == expected

    @pytest.mark.parametrize("m,n", [(2, 2), (1, 3), (3, 2), (2, 3)])
    def test_coset_sums_decompose_full_numerator(self, m, n):
        # every coset sum against the row-subgroup oracle, for mu whose
        # blocks each lie in one residue class: the normalized staircase, a
        # normalized balanced weight, and that one with its blocks permuted
        # and shuffled inside (whose outside cosets need not vanish); the
        # oracle sums add up to the full numerator
        rng = random.Random(10 * m + n)
        normal, _ = normalize_residue_blocks(
            tuple(r + n * j for r in range(n) for j in rng.sample(range(-1, m + 2), m)), m, n)
        blocks = [rng.sample(normal[q:q + m], m) for q in range(0, m * n, m)]
        rng.shuffle(blocks)
        nonzero = 0
        for mu in (normalize_residue_blocks(staircase(m * n), m, n)[0], normal,
                   tuple(itertools.chain(*blocks))):
            total = LaurentPoly.zero(m)
            for rep in row_coset_reps(m, n):
                expected = coset_sum_by_row_subgroup(mu, m, n, rep)
                assert coset_block_sum(mu, m, n, rep) == expected, (mu, rep)
                total = total + expected
                nonzero += bool(expected)
            assert total == twisted_numerator(mu, m, n)
        assert nonzero


def constants_by_row_subgroup(mu, m, n, etas):
    # independent oracle for the audit's constants: compare the `block_key`s
    # of eta.w and w, for w = mu and then for every arrangement of mu by the
    # row subgroup; returns ({eta: power of zeta_n} for the etas that
    # rescale mu, {eta: {sigma: (t-exponents moved, power changed)}} for
    # the sigma that change the constant)
    places = [divmod(p, m) for p in range(m * n)]

    def key_shift(moved, w):
        a, b = block_key(places, moved, m, n), block_key(places, w, m, n)
        return a[:m] != b[:m], (a[m] - b[m]) % n

    sigmas = list(row_subgroup(m, n))
    powers, changers = {}, {}
    for eta in etas:
        moved, power = key_shift(eta.act(mu), mu)
        if moved:
            continue
        powers[eta] = power
        changers[eta] = {}
        for sigma in sigmas:
            shuffled = sigma.act(mu)
            moved, other = key_shift(eta.act(shuffled), shuffled)
            if moved or other != power:
                changers[eta][sigma] = (moved, other != power)
    return powers, changers


@pytest.fixture
def summed(monkeypatch):
    # the coset representatives that coset_audit sums, in order, through
    # its one coset_block_sums call per weight
    reps = []

    def recording(mu, m, n, outside):
        reps.extend(outside)
        return coset_block_sums(mu, m, n, outside)

    monkeypatch.setattr(importlib.import_module("charfactor.factorize"),
                        "coset_block_sums", recording)
    return reps


def summing_to_one(mu, m, n, outside):
    # a stub of the audit's coset_block_sums: every coset sums to 1
    return [LaurentPoly.constant(1, m) for _ in outside]


class TestCosetAudit:
    def test_two_two_trivial_weight(self):
        report = coset_audit((0, 0, 0, 0), 2, 2)
        assert report.passed
        assert report.tested_outside == 2
        assert report.tested_inside == 4
        assert report.invariance_checked
        identity = Perm.identity(4)
        assert report.omega_powers[identity] == 0
        assert all(0 <= p < 2 for p in report.omega_powers.values())

    def test_constants_are_roots_of_unity(self):
        # oracle: each column constant is the power p of zeta_n with
        # block_specialize(eta.mu) = zeta_n^p * block_specialize(mu)
        for m, n, high in ((2, 2, 3), (2, 3, 1), (3, 2, 1), (1, 3, 1), (3, 1, 1)):
            audited = 0
            for lam in dominant_weights(m * n, 0, high):
                if not is_residue_balanced(shifted_weight(lam), m, n):
                    continue
                mu, _ = normalize_residue_blocks(shifted_weight(lam), m, n)
                report = coset_audit(lam, m, n, outside_sample=1)
                assert report.passed
                assert report.tested_inside == len(list(column_subgroup(m, n)))
                base = block_specialize(mu, m, n)
                for eta, power in report.omega_powers.items():
                    ratio = block_specialize(eta.act(mu), m, n).scalar_ratio(base)
                    assert 0 <= power < n
                    assert ratio == zeta(n, power), (lam, eta)
                audited += 1
            assert audited, (m, n)

    def test_column_check_can_fail(self, monkeypatch):
        # a swap inside one row block moves the t-exponents of mu; the
        # rebinding is seen after a real audit of the shape has filled the
        # cache, on every call, and undoing it restores the real elements
        assert coset_audit((2, 1, 1, 0), 2, 2).passed
        swap = Perm.transposition(4, 1, 2)
        with monkeypatch.context() as patch:
            patch.setattr(importlib.import_module("charfactor.factorize"),
                          "column_subgroup", lambda m, n: iter([swap]))
            for _ in range(2):
                report = coset_audit((2, 1, 1, 0), 2, 2)
                assert not report.passed
                assert report.failures == [
                    f"column element {swap!r} moves a value to another column"]
                # no constant was left to check for row invariance
                assert report.tested_inside == 0
                assert report.invariance_checked is False
                assert report.to_dict()["invariance_checked"] is False
        report = coset_audit((2, 1, 1, 0), 2, 2)
        assert report.passed
        assert report.tested_inside == 4

    def test_walk_rebinding_is_seen_after_a_warm_call(self, monkeypatch):
        assert coset_audit((2, 1, 1, 0), 2, 2).tested_outside == 2
        monkeypatch.setattr(importlib.import_module("charfactor.factorize"),
                            "row_coset_reps", lambda *args, **kwargs: iter(()))
        assert coset_audit((2, 1, 1, 0), 2, 2).tested_outside == 0

    def test_reports_never_share_the_cached_failures(self, monkeypatch):
        # a report owns a fresh list: growing it leaves the next audit of
        # the shape alone
        report = coset_audit((2, 1, 1, 0), 2, 2)
        report.failures.append("added by the caller")
        again = coset_audit((2, 1, 1, 0), 2, 2)
        assert again.passed
        assert again.failures == []
        # and the column failures come after part (a)'s, on each report
        fz = importlib.import_module("charfactor.factorize")
        swap = Perm.transposition(4, 1, 2)
        monkeypatch.setattr(fz, "column_subgroup", lambda m, n: iter([swap]))
        monkeypatch.setattr(fz, "coset_block_sums", summing_to_one)
        first = coset_audit((2, 1, 1, 0), 2, 2)
        first.failures.clear()
        failures = coset_audit((2, 1, 1, 0), 2, 2).failures
        assert len(failures) == 3
        assert all("nonzero block sum" in failure for failure in failures[:2])
        assert failures[2] == f"column element {swap!r} moves a value to another column"

    def test_shape_caches_are_bounded(self):
        fz = importlib.import_module("charfactor.factorize")
        for cache in (fz._outside_reps, fz._column_rows):
            maxsize = cache.cache_info().maxsize
            assert isinstance(maxsize, int) and 0 < maxsize <= 8
        # a shape with more row cosets than the cap is built per call and
        # left out of both caches: (1, 7) has 7! = 5040, (2, 4) exactly 2520
        for cache in (fz._outside_reps, fz._column_rows):
            cache.cache_clear()
        report = coset_audit((0,) * 7, 1, 7)
        assert report.passed and report.tested_inside == 5040
        assert [cache.cache_info().currsize
                for cache in (fz._outside_reps, fz._column_rows)] == [0, 0]
        assert coset_audit((0,) * 8, 2, 4).passed
        assert [cache.cache_info().currsize
                for cache in (fz._outside_reps, fz._column_rows)] == [1, 1]

    def test_warm_cache_never_bypasses_the_bound(self, summed):
        assert coset_audit((0,) * 9, 3, 3).passed
        summed.clear()
        with pytest.raises(EnumerationTooLarge):
            coset_audit((0,) * 9, 3, 3, bound=8)
        assert summed == []

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2)])
    def test_cached_walk_equals_a_fresh_one(self, summed, m, n):
        fresh = list(row_coset_reps(m, n, outside=True))
        lam = (0,) * (m * n)
        first = coset_audit(lam, m, n)
        assert summed == fresh
        summed.clear()
        second = coset_audit(lam, m, n)
        assert summed == fresh
        assert first.to_dict() == second.to_dict()

    def test_row_invariance_check_can_fail(self, monkeypatch):
        # left unnormalized, the staircase has row blocks that mix residue
        # classes mod n, inside which a row swap could change a column
        # constant; the audit refuses such a mu by its own check, before
        # any coset sum, which is stubbed to zero
        fz = importlib.import_module("charfactor.factorize")
        summed = []
        monkeypatch.setattr(fz, "coset_block_sums", lambda mu, m, n, outside: [
            summed.append(rep) or LaurentPoly.zero(m) for rep in outside])
        for _ in range(2):
            with monkeypatch.context() as patch:
                patch.setattr(fz, "normalize_residue_blocks", lambda v, m, n: (tuple(v), 1))
                with pytest.raises(ValueError, match="mixes residue classes"):
                    coset_audit((0, 0, 0, 0, 0, 0), 2, 3)
            assert summed == []
            # a passing audit of the same shape leaves the refusal in place
            coset_audit((0, 0, 0, 0, 0, 0), 2, 3)
            summed.clear()
        # a nonzero coset sum is one failure per outside coset
        monkeypatch.setattr(fz, "coset_block_sums", summing_to_one)
        report = coset_audit((0, 0, 0, 0, 0, 0), 2, 3)
        assert report.tested_outside == 54
        assert sum("nonzero block sum" in failure for failure in report.failures) == 54
        assert len(report.failures) == 54

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2)])
    def test_closed_form_matches_row_subgroup_oracle(self, m, n):
        # the inputs the audit builds, its column elements and the
        # residue-normalized mu of every balanced weight in [-1, 2], against
        # the brute force over the row subgroup: each constant is the
        # oracle's power of zeta_n, and no row element changes any constant,
        # the invariance that the audit infers from its two checks
        etas = list(column_subgroup(m, n))
        weights = balanced_weights(m, n, -1, 2)
        for lam in weights:
            mu, _ = normalize_residue_blocks(shifted_weight(lam), m, n)
            report = coset_audit(lam, m, n, outside_sample=1)
            assert report.passed
            powers, changers = constants_by_row_subgroup(mu, m, n, etas)
            assert report.omega_powers == powers, lam
            assert len(powers) == len(etas)
            assert not any(changers.values()), lam
        assert len(weights) >= 18

    def test_sampled_audit_two_three(self):
        report = coset_audit((0, 0, 0, 0, 0, 0), 2, 3, outside_sample=10)
        assert report.passed
        assert report.tested_outside == 10
        assert report.tested_inside == 36

    def test_sampled_cosets_are_distinct_outside_cosets(self, summed):
        lam = (1, 1, 1, 0, 0, 0)
        report = coset_audit(lam, 2, 3, outside_sample=20, seed=7)
        assert report.passed
        assert report.tested_outside == 20
        first = list(summed)
        summed.clear()
        assert len(set(first)) == 20
        blocks = BlockStructure(2, 3)
        for rep in first:
            # the canonical representative: each row block sorted
            assert all(rep.images[k] < rep.images[k + 1] for k in (0, 2, 4))
            assert not is_column_row_product(rep, blocks)
        assert coset_audit(lam, 2, 3, outside_sample=20, seed=7).to_dict() \
            == report.to_dict()
        assert summed == first
        summed.clear()
        coset_audit(lam, 2, 3, outside_sample=20, seed=8)
        assert summed != first

    @pytest.mark.parametrize("outside_sample", [2, 3, None])
    def test_sample_of_every_outside_coset_walks_them_all(self, summed,
                                                          outside_sample):
        # (2, 2) has 2 outside cosets
        report = coset_audit((2, 1, 1, 0), 2, 2, outside_sample=outside_sample)
        assert report.passed
        blocks = BlockStructure(2, 2)
        assert summed == [rep for rep in row_coset_reps(2, 2)
                          if not is_column_row_product(rep, blocks)]
        assert report.to_dict() == coset_audit((2, 1, 1, 0), 2, 2).to_dict()

    def test_sampled_audit_checks_the_bound_first(self, monkeypatch):
        def refuse(mu, m, n, outside):
            raise AssertionError("coset summed above the bound")

        monkeypatch.setattr(importlib.import_module("charfactor.factorize"),
                            "coset_block_sums", refuse)
        with pytest.raises(EnumerationTooLarge):
            coset_audit((0,) * 10, 2, 5, outside_sample=5)
        with pytest.raises(EnumerationTooLarge):
            coset_audit((0,) * 6, 2, 3, outside_sample=5, bound=5)

    def test_unbalanced_weight_rejected(self):
        with pytest.raises(ValueError, match="residue condition fails"):
            coset_audit((1, 0, 0, 0), 2, 2)

    @pytest.mark.parametrize("lam,m,n,message", [
        ((1, 0, 0), 2, 2, r"weight length 3 does not match m\*n = 4"),
        ((0, 0), 0, 2, "m and n must be positive"),
    ], ids=["length", "shape"])
    def test_shape_rejected_as_in_factorize(self, lam, m, n, message):
        for check in (factorize, coset_audit):
            with pytest.raises(ValueError, match=message):
                check(lam, m, n)

    @pytest.mark.parametrize("outside_sample", [0, -1])
    def test_outside_sample_below_one_rejected(self, outside_sample):
        # (2, 2) has 2 outside cosets; sampling none of them checks nothing
        with pytest.raises(ValueError, match="outside_sample must be at least 1"):
            coset_audit((2, 1, 1, 0), 2, 2, outside_sample=outside_sample)

    def test_report_serialization(self):
        report = coset_audit((0, 0, 0, 0), 2, 2)
        data = report.to_dict()
        assert data["passed"] is True
        assert len(data["constants"]) == 4
        assert data["lambda"] == [0, 0, 0, 0]


class TestCertificateInvariants:
    def test_eta_blocks_rebuild_mu_quotients(self):
        for lam in ((2, 1, 1, 0), (3, 3, 1, 1), (2, 2, 2, 2)):
            cert = factorize(lam, 2, 2)
            if not cert.balanced:
                continue
            rho = staircase(cert.m)
            for k, eta in enumerate(cert.etas):
                block = sorted(cert.mu[cert.m * k: cert.m * (k + 1)],
                               reverse=True)
                quotients = tuple((x - k) // cert.n for x in block)
                assert tuple(e + r for e, r in zip(eta, rho)) == quotients

    def test_normalization_sign_recorded(self):
        cert = factorize((0, 0, 0, 0), 2, 2)
        mu, sign = normalize_residue_blocks(shifted_weight(cert.lam), 2, 2)
        assert cert.mu == mu
        assert cert.w0_sign == sign


class TestShapeTables:
    # the sign grid with negative entries, where floor division matters,
    # and the one-block and one-class shapes
    GRID = SIGN_GRID + (((1, 5), -1, 1), ((5, 1), -1, 1))

    def certificates(self):
        return [factorize(lam, m, n) for (m, n), lo, hi in self.GRID
                for lam in balanced_weights(m, n, lo, hi)]

    def test_factor_weights_match_the_block_by_block_route(self):
        certs = self.certificates()
        assert len(certs) == 186
        for cert in certs:
            expected = factor_weights_by_blocks(cert.mu, cert.m, cert.n)
            assert factor_weights(cert.mu, cert.m, cert.n) == cert.etas == expected, cert.lam

    def test_factored_side_matches_the_eta_by_eta_route(self, monkeypatch):
        # with multiplying out refused, verify_terms passes only when the
        # exponent tuples it builds equal the oracle's; the etas lowered by
        # one check the tuples off the factor_weights round trip
        def refuse(terms, m):
            raise AssertionError("the factored side did not match")

        monkeypatch.setattr(importlib.import_module("charfactor.factorize"),
                            "multiply_out", refuse)
        for cert in self.certificates():
            m, n = cert.m, cert.n
            scalar = twisted_numerator_terms(cert.mu, m, n)[1]
            lowered = cert._replace(etas=tuple(tuple(e - 1 for e in eta) for eta in cert.etas))
            for c in (cert, lowered):
                assert verify_terms(c, (factored_exponents(c.etas, m, n), scalar)) == (True, scalar)

    def test_numerator_scalar_is_the_signed_constant(self):
        # the shifted weight before normalizing takes the rearrangement sign
        # w0 times (-1)^(C(n,2) C(m+1,2)), and both signs occur
        signs = set()
        for cert in self.certificates():
            m, n = cert.m, cert.n
            sign = cert.w0_sign * (-1) ** (comb(n, 2) * comb(m + 1, 2))
            expected = denominator_scalar(m, n) * sign
            assert twisted_numerator_terms(shifted_weight(cert.lam), m, n)[1] == expected
            assert twisted_numerator_terms(cert.mu, m, n)[1] == expected * cert.w0_sign
            signs.add(sign)
        assert signs == {1, -1}


class TestStaircaseSign:
    def test_matches_the_closed_exponent_on_every_shape(self):
        # the closed exponent is the oracle; factorize keeps its own route
        module = importlib.import_module("charfactor.factorize")
        shapes = [(m, n) for m in range(1, 9) for n in range(1, 9) if m * n <= 40]
        assert len(shapes) == 56
        for m, n in shapes:
            assert module._staircase_sign(m, n) == (-1) ** (comb(n, 2) * comb(m + 1, 2)), (m, n)

    def test_normalized_once_per_shape(self, monkeypatch):
        module = importlib.import_module("charfactor.factorize")
        module._staircase_sign.cache_clear()
        calls = []

        def counted(vec, m, n):
            calls.append(tuple(vec))
            return residue_normal_form(vec, m, n)

        # factorize normalizes each weight, weights the staircase
        monkeypatch.setattr(module, "residue_normal_form", counted)
        monkeypatch.setattr(importlib.import_module("charfactor.weights"),
                            "residue_normal_form", counted)
        first = factorize((2, 2, 2, 2, 1, 0), 2, 3)
        second = factorize((1, 1, 1, 0, 0, 0), 2, 3)
        assert calls.count(staircase(6)) == 1
        assert len(calls) == 3
        assert (first.epsilon, second.epsilon) == (-1, 1)
