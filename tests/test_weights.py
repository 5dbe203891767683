import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from charfactor.weights import (dominant_weights, factor_weights,
                                is_residue_balanced, normalize_residue_blocks,
                                residue_normal_form, shifted_weight, staircase)
from oracles import factor_weights_by_blocks, residue_permutation


class TestStaircase:
    def test_single(self):
        assert staircase(1) == (0,)

    def test_four(self):
        assert staircase(4) == (3, 2, 1, 0)

    def test_six(self):
        assert staircase(6) == (5, 4, 3, 2, 1, 0)


class TestShift:
    def test_zero_weight(self):
        assert shifted_weight((0, 0, 0, 0)) == (3, 2, 1, 0)

    def test_entrywise(self):
        assert shifted_weight((1, 1, 0, 0)) == (4, 3, 1, 0)

    def test_short(self):
        assert shifted_weight((2, 0)) == (3, 0)

    def test_rejects_non_dominant(self):
        with pytest.raises(ValueError, match="weight not dominant"):
            shifted_weight((0, 1, 0, 0))

    def test_negative_entries_allowed(self):
        assert shifted_weight((0, -1)) == (1, -1)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-4, 4), min_size=1, max_size=7))
    def test_shift_then_subtract_is_identity(self, entries):
        lam = tuple(sorted(entries, reverse=True))
        shifted = shifted_weight(lam)
        rho = staircase(len(lam))
        assert tuple(a - b for a, b in zip(shifted, rho)) == lam


class TestResidueBalance:
    def test_staircase_two_two(self):
        assert is_residue_balanced((3, 2, 1, 0), 2, 2)

    def test_unbalanced_example(self):
        assert not is_residue_balanced((4, 2, 1, 0), 2, 2)

    def test_staircase_always_balanced(self):
        for m in range(1, 10):
            for n in range(1, 10):
                if m * n <= 9:
                    assert is_residue_balanced(staircase(m * n), m, n)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-6, 6), st.lists(st.integers(0, 4), min_size=4, max_size=4))
    def test_invariant_under_constant_shift(self, c, entries):
        lam = tuple(sorted(entries, reverse=True))
        v = shifted_weight(lam)
        shifted_v = tuple(x + c for x in v)
        assert is_residue_balanced(v, 2, 2) == is_residue_balanced(shifted_v, 2, 2)


class TestNormalize:
    def test_staircase_case(self):
        mu, sign = normalize_residue_blocks((3, 2, 1, 0), 2, 2)
        assert mu == (2, 0, 3, 1)
        # the index rearrangement (2,4,1,3) has 3 inversions
        assert sign == -1

    def test_three_cycle_case(self):
        mu, sign = normalize_residue_blocks((4, 3, 1, 0), 2, 2)
        assert mu == (4, 0, 3, 1)
        assert sign == 1

    def test_already_ordered(self):
        mu, sign = normalize_residue_blocks((4, 0, 3, 1), 2, 2)
        assert mu == (4, 0, 3, 1)
        assert sign == 1

    def test_rejects_unbalanced(self):
        with pytest.raises(ValueError, match="residue condition fails"):
            normalize_residue_blocks((4, 2, 1, 0), 2, 2)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match=r"vector length must be m\*n"):
            normalize_residue_blocks((4, 2, 1), 2, 2)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.data())
    def test_permutation_realizes_normal_form(self, m, n, data):
        entries = data.draw(st.lists(st.integers(0, 4), min_size=m * n,
                                     max_size=m * n))
        lam = tuple(sorted(entries, reverse=True))
        v = shifted_weight(lam)
        if not is_residue_balanced(v, m, n):
            return
        mu, sign = normalize_residue_blocks(v, m, n)
        w = residue_permutation(v, m, n)
        assert w.act(v) == mu
        assert w.sign == sign
        # block k holds exactly the residue-k entries, decreasing
        for k in range(n):
            block = mu[m * k: m * (k + 1)]
            assert all(x % n == k for x in block)
            assert list(block) == sorted(block, reverse=True)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.booleans(), st.data())
    def test_any_vector_against_the_oracle(self, m, n, balanced, data):
        # any order, repeats and negative entries; half the draws are built
        # balanced, m entries k + n*q per class k, then shuffled
        if balanced:
            quotients = st.lists(st.integers(-3, 3), min_size=m, max_size=m)
            entries = [k + n * q for k in range(n) for q in data.draw(quotients)]
            v = tuple(data.draw(st.permutations(entries)))
        else:
            v = tuple(data.draw(st.lists(st.integers(-9, 9), min_size=m * n,
                                         max_size=m * n)))
        counts = Counter(x % n for x in v)
        if all(counts[k] == m for k in range(n)):
            w = residue_permutation(v, m, n)
            assert normalize_residue_blocks(v, m, n) == (w.act(v), w.sign)
            assert residue_normal_form(v, m, n) == (w.act(v), w.sign)
        else:
            assert not balanced
            with pytest.raises(ValueError, match="residue condition fails"):
                normalize_residue_blocks(v, m, n)
            assert residue_normal_form(v, m, n) is None


class TestFactorWeights:
    def test_zero_weight_gives_zero_factors(self):
        for m, n in ((1, 2), (2, 2), (2, 3), (3, 2), (1, 5)):
            mu, _ = normalize_residue_blocks(staircase(m * n), m, n)
            assert factor_weights(mu, m, n) == ((0,) * m,) * n

    def test_spec_case(self):
        assert factor_weights((4, 0, 3, 1), 2, 2) == ((1, 0), (0, 0))

    def test_staircase_blocks(self):
        assert factor_weights((2, 0, 3, 1), 2, 2) == ((0, 0), (0, 0))

    @pytest.mark.parametrize("mu", [(4, 0, 3), (4, 0, 3, 1, 7, 6)])
    def test_rejects_a_length_other_than_m_n(self, mu):
        # a short mu once gave ((1, 0), (0,)) and a long one dropped its tail
        with pytest.raises(ValueError, match=r"length must be m\*n"):
            factor_weights(mu, 2, 2)

    def test_rejects_a_block_outside_its_class(self):
        # at n = 2, block 0 takes the even entries and block 1 the odd ones
        with pytest.raises(ValueError, match="residue condition fails"):
            factor_weights((4, 1, 3, 0), 2, 2)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.data())
    def test_factors_are_dominant(self, m, n, data):
        entries = data.draw(st.lists(st.integers(0, 5), min_size=m * n,
                                     max_size=m * n))
        lam = tuple(sorted(entries, reverse=True))
        v = shifted_weight(lam)
        if not is_residue_balanced(v, m, n):
            return
        mu, _ = normalize_residue_blocks(v, m, n)
        for eta in factor_weights(mu, m, n):
            assert all(eta[i] >= eta[i + 1] for i in range(len(eta) - 1))


class TestFactorWeightsAgainstSorting:
    def test_every_balanced_weight_up_to_size_eight(self):
        # residue_normal_form leaves each block decreasing, so reading the
        # blocks as they are gives what sorting them first gives
        checked = 0
        for size in range(1, 9):
            for m in (d for d in range(1, size + 1) if size % d == 0):
                n = size // m
                for lam in dominant_weights(size, -1, 2):
                    normal = residue_normal_form(shifted_weight(lam), m, n)
                    if normal is not None:
                        mu = normal[0]
                        blocks = (sorted(mu[q:q + m], reverse=True) for q in range(0, size, m))
                        expected = factor_weights_by_blocks(sum(blocks, []), m, n)
                        assert factor_weights(mu, m, n) == expected
                        checked += 1
        assert checked == 735


class TestDominantWeights:
    def test_count(self):
        # weakly decreasing 4-tuples over {0..3}: C(7, 4)
        assert len(list(dominant_weights(4, 0, 3))) == math.comb(7, 4)

    def test_all_dominant_and_in_range(self):
        for lam in dominant_weights(3, -1, 2):
            assert all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))
            assert all(-1 <= x <= 2 for x in lam)

    def test_empty_range(self):
        assert list(dominant_weights(3, 2, 1)) == []
