import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from charfactor.perms import (BlockStructure, EnumerationTooLarge, Perm,
                              column_subgroup, is_column_row_product,
                              permutation_parity, row_coset_reps, row_subgroup)
from oracles import (column_row_products, inversion_parity, row_coset_reps_by_sorting,
                     symmetric_group)


class TestPermutationParity:
    def test_matches_inversion_count_up_to_size_seven(self):
        # every permutation of sizes 0-7, against a route that shares no
        # code with the cycle count (the S_mn oracles call permutation_parity)
        checked = 0
        for size in range(8):
            for images in itertools.permutations(range(size)):
                assert permutation_parity(images) == inversion_parity(images), images
                checked += 1
        assert checked == sum(math.factorial(size) for size in range(8))


class TestPerm:
    def test_identity_sign(self):
        assert Perm.identity(5).sign == 1

    def test_transposition_sign(self):
        assert Perm.transposition(4, 1, 2).sign == -1

    def test_three_cycle_sign(self):
        # (2 3 4) in S_4 is even
        assert Perm((1, 3, 4, 2)).sign == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            Perm((1, 1, 3))

    def test_act_identity(self):
        v = (4, 3, 1, 0)
        assert Perm.identity(4).act(v) == v

    def test_act_transposition(self):
        assert Perm.transposition(4, 1, 2).act((4, 3, 1, 0)) == (3, 4, 1, 0)

    def test_act_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            Perm.identity(3).act((1, 2))

    def test_inverse(self):
        p = Perm((3, 1, 4, 2))
        assert p * p.inverse() == Perm.identity(4)
        assert p.inverse() * p == Perm.identity(4)

    @settings(max_examples=50, deadline=None)
    @given(st.permutations(range(1, 7)), st.permutations(range(1, 7)),
           st.lists(st.integers(-5, 5), min_size=6, max_size=6))
    def test_action_axiom(self, a, b, v):
        sigma, tau = Perm(a), Perm(b)
        assert (sigma * tau).act(v) == sigma.act(tau.act(v))

    @settings(max_examples=50, deadline=None)
    @given(st.permutations(range(1, 8)), st.permutations(range(1, 8)))
    def test_sign_homomorphism(self, a, b):
        sigma, tau = Perm(a), Perm(b)
        assert (sigma * tau).sign == sigma.sign * tau.sign


class TestEnumerations:
    def test_symmetric_group_size(self):
        assert len(list(symmetric_group(4))) == 24

    def test_symmetric_group_lex_order(self):
        perms = list(symmetric_group(3))
        assert perms[0] == Perm.identity(3)
        assert [p.images for p in perms] == sorted(p.images for p in perms)

    def test_bound(self):
        with pytest.raises(EnumerationTooLarge):
            list(symmetric_group(10))
        with pytest.raises(EnumerationTooLarge):
            list(symmetric_group(5, bound=4))

    def test_row_subgroup_size(self):
        assert len(list(row_subgroup(2, 2))) == 4
        assert len(list(row_subgroup(2, 3))) == 8
        assert len(list(row_subgroup(3, 2))) == 36

    def test_column_subgroup_size(self):
        assert len(list(column_subgroup(2, 2))) == 4
        assert len(list(column_subgroup(2, 3))) == 36
        assert len(list(column_subgroup(3, 2))) == 8

    def test_no_duplicates(self):
        for gen in (row_subgroup(2, 3), column_subgroup(2, 3)):
            elems = list(gen)
            assert len(set(elems)) == len(elems)

    def test_row_subgroup_fixes_row_blocks(self):
        rows = [range(2 * k + 1, 2 * k + 3) for k in range(3)]
        for sigma in row_subgroup(2, 3):
            for row in rows:
                assert {sigma(i) for i in row} == set(row)


class TestColumnRowProducts:
    def test_identity_is_member(self):
        assert is_column_row_product(Perm.identity(4), BlockStructure(2, 2))

    def test_row_transposition_is_member(self):
        assert is_column_row_product(Perm.transposition(4, 1, 2),
                                     BlockStructure(2, 2))

    def test_count_two_by_two(self):
        blocks = BlockStructure(2, 2)
        count = sum(is_column_row_product(p, blocks) for p in symmetric_group(4))
        assert count == 16

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (4, 2), (2, 4)])
    def test_count_formula(self, m, n):
        blocks = BlockStructure(m, n)
        count = sum(is_column_row_product(p, blocks)
                    for p in symmetric_group(m * n))
        assert count == math.factorial(m) ** n * math.factorial(n) ** m

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (1, 3), (3, 1)])
    def test_criterion_matches_brute_force(self, m, n):
        blocks = BlockStructure(m, n)
        brute = column_row_products(blocks)
        assert brute == {p for p in symmetric_group(m * n)
                         if is_column_row_product(p, blocks)}

    def test_criterion_matches_brute_force_sampled_degree_eight(self):
        import random

        blocks = BlockStructure(4, 2)
        brute = column_row_products(blocks)
        rng = random.Random(42)
        for _ in range(500):
            images = list(range(1, 9))
            rng.shuffle(images)
            perm = Perm(images)
            assert is_column_row_product(perm, blocks) == (perm in brute)
        for perm in brute:
            assert is_column_row_product(perm, blocks)

    def test_criterion_matches_brute_force_sampled_three_three(self):
        import random

        blocks = BlockStructure(3, 3)
        brute = column_row_products(blocks)
        assert len(brute) == math.factorial(3) ** 6
        rng = random.Random(33)
        verdicts = set()
        for _ in range(2000):
            images = list(range(1, 10))
            rng.shuffle(images)
            perm = Perm(images)
            verdict = is_column_row_product(perm, blocks)
            assert verdict == (perm in brute), perm
            verdicts.add(verdict)
        assert verdicts == {True, False}
        assert all(is_column_row_product(perm, blocks) for perm in brute)

    def test_groups_intersect_trivially(self):
        rows = set(row_subgroup(2, 3))
        cols = set(column_subgroup(2, 3))
        assert rows & cols == {Perm.identity(6)}

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2)])
    def test_product_map_is_injective(self, m, n):
        seen = set()
        for c in column_subgroup(m, n):
            for r in row_subgroup(m, n):
                prod = c * r
                assert prod not in seen
                seen.add(prod)
        assert len(seen) == math.factorial(m) ** n * math.factorial(n) ** m


class TestCosetReps:
    def test_counts(self):
        assert len(list(row_coset_reps(2, 2))) == 6
        assert len(list(row_coset_reps(2, 3))) == 90
        assert len(list(row_coset_reps(3, 2))) == 20

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 3), (3, 1), (2, 2), (2, 3),
                                     (3, 2), (2, 4), (4, 2), (1, 4), (4, 1)])
    def test_matches_sorted_blocks_of_every_permutation(self, m, n):
        # same set and same order, each leftover block read off the
        # complement identity; at n = 1 the last block is the only one
        assert [rep.images for rep in row_coset_reps(m, n)] == \
            row_coset_reps_by_sorting(m, n)

    def test_reps_cover_all_cosets_once(self):
        reps = list(row_coset_reps(2, 2))
        rows = list(row_subgroup(2, 2))
        union = set()
        for rep in reps:
            coset = {rep * sigma for sigma in rows}
            assert not (coset & union)
            union |= coset
        assert union == set(symmetric_group(4))

    def test_reps_are_lex_minimal_in_their_coset(self):
        rows = list(row_subgroup(2, 3))
        for rep in row_coset_reps(2, 3):
            assert rep.images == min((rep * sigma).images for sigma in rows)

    def test_column_subgroup_is_transversal_inside_products(self):
        # distinct column elements represent distinct row cosets
        rows = list(row_subgroup(2, 2))
        cosets = [frozenset((eta * sigma).images for sigma in rows)
                  for eta in column_subgroup(2, 2)]
        assert len(set(cosets)) == len(cosets)

    def test_bound(self):
        with pytest.raises(EnumerationTooLarge):
            list(row_coset_reps(5, 2))

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 3), (3, 1), (2, 2), (2, 3),
                                     (3, 2), (3, 3), (2, 4), (4, 2)])
    def test_outside_reps_are_the_filtered_walk(self, m, n):
        # the verdict carried down the walk, with the leftover block
        # untested, against the one-coset-at-a-time criterion
        blocks = BlockStructure(m, n)
        outside = list(row_coset_reps(m, n, outside=True))
        assert outside == [rep for rep in row_coset_reps(m, n)
                           if not is_column_row_product(rep, blocks)]
        assert len(outside) == math.factorial(m * n) // math.factorial(m) ** n \
            - math.factorial(n) ** m

    def test_outside_reps_check_the_bound_before_any_work(self):
        with pytest.raises(EnumerationTooLarge):
            row_coset_reps(5, 2, outside=True)
