"""Representative families: the star product, pruning, and the defining property."""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

import pytest

from gerrysolve.repset import (
    FIELD_PRIME,
    _dual_vector,
    _independent,
    _random_matrix,
    _wedge_vector,
    family_cardinality,
    represent,
    star,
    verify_representative,
)


def random_family(rng, universe, card, size):
    if card > universe:
        return set()
    pool = list(combinations(range(universe), card))
    rng.shuffle(pool)
    out = set()
    for picks in pool[:size]:
        mask = 0
        for i in picks:
            mask |= 1 << i
        out.add(mask)
    return out


class TestStar:
    def test_simple_products(self):
        assert star({0b001}, {0b010}) == {0b011}
        assert star({0b001}, {0b001}) == set()  # overlap dropped
        assert star({0b001, 0b010}, {0b100}) == {0b101, 0b110}

    def test_empty_set_is_identity(self):
        fam = {0b011, 0b101}
        assert star(fam, {0}) == fam
        assert star({0}, fam) == fam

    def test_empty_family_annihilates(self):
        assert star({0b1}, set()) == set()
        assert star(set(), {0b1}) == set()

    def test_commutative_and_associative(self):
        rng = random.Random(31)
        for _ in range(50):
            u = rng.randint(2, 9)
            a = random_family(rng, u, rng.randint(0, 2), rng.randint(0, 6))
            b = random_family(rng, u, rng.randint(0, 2), rng.randint(0, 6))
            c = random_family(rng, u, rng.randint(0, 2), rng.randint(0, 6))
            assert star(a, b) == star(b, a)
            assert star(star(a, b), c) == star(a, star(b, c))

    def test_cardinalities_add(self):
        rng = random.Random(32)
        for _ in range(40):
            u = rng.randint(3, 10)
            ca, cb = rng.randint(0, 3), rng.randint(0, 3)
            a = random_family(rng, u, ca, 6)
            b = random_family(rng, u, cb, 6)
            prod = star(a, b)
            if prod:
                assert family_cardinality(prod) == ca + cb


class TestFamilyCardinality:
    def test_uniform(self):
        assert family_cardinality({0b011, 0b110}) == 2
        assert family_cardinality(set()) == 0
        assert family_cardinality({0}) == 0

    def test_mixed_rejected(self):
        with pytest.raises(ValueError, match="mixed"):
            family_cardinality({0b1, 0b11})


class TestRepresent:
    def test_small_family_returned_unchanged(self):
        fam = {0b0011, 0b1100}
        assert represent(fam, 1, 4) == fam

    def test_q_zero_keeps_one_set(self):
        fam = {0b001, 0b010, 0b100}
        sub = represent(fam, 0, 3)
        assert len(sub) == 1 and sub <= fam

    def test_q_negative_drops_everything(self):
        assert represent({0b11}, -1, 2) == set()

    def test_empty_family(self):
        assert represent(set(), 3, 5) == set()

    def test_family_of_empty_set(self):
        assert represent({0}, 2, 5) == {0}

    def test_size_bound_and_property_random(self):
        rng = random.Random(33)
        for trial in range(120):
            u = rng.randint(2, 10)
            p_card = rng.randint(1, min(3, u))
            q = rng.randint(0, min(3, u - p_card))
            fam = random_family(rng, u, p_card, rng.randint(1, comb(u, p_card)))
            sub = represent(fam, q, u, seed=trial)
            assert sub <= fam
            assert len(sub) <= comb(p_card + q, p_card)
            assert verify_representative(fam, sub, q, u)

    def test_pruning_actually_happens(self):
        # All 1-subsets of a 6-universe, q=1: bound is C(2,1)=2 < 6.
        fam = {1 << i for i in range(6)}
        sub = represent(fam, 1, 6)
        assert len(sub) == 2
        assert verify_representative(fam, sub, 1, 6)

    def test_full_slice_family_prunes_to_bound(self):
        # Every 2-subset of 6 elements, q=2: bound C(4,2)=6 < C(6,2)=15.
        fam = random_family(random.Random(34), 6, 2, 15)
        assert len(fam) == 15
        sub = represent(fam, 2, 6)
        assert len(sub) <= 6
        assert verify_representative(fam, sub, 2, 6)

    def test_deterministic_for_seed(self):
        fam = random_family(random.Random(35), 8, 2, 20)
        assert represent(fam, 2, 8, seed=5) == represent(fam, 2, 8, seed=5)


class TestDualRoute:
    @pytest.mark.parametrize("p_card, q", [(2, 4), (1, 6), (2, 2), (3, 3), (5, 2), (6, 1), (7, 1)])
    def test_dual_and_wedge_vectors_keep_the_same_masks(self, p_card, q):
        rng = random.Random(50 + 10 * p_card + q)
        pruned = 0
        for trial in range(8):
            u = rng.randint(p_card + q + 1, p_card + q + 3)
            bound = comb(p_card + q, p_card)
            size = rng.randint(1, min(comb(u, p_card), bound + 20))
            fam = sorted(random_family(rng, u, p_card, size))
            matrix = _random_matrix(p_card + q, u, trial)
            for c in range(0, u, 2):  # zero leading entries make the elimination pivot
                matrix[0][c] = 0
            primal = _independent(((a, _wedge_vector(a, matrix, p_card)) for a in fam), bound)
            dual = _independent(((a, _dual_vector(a, matrix, p_card)) for a in fam), bound)
            assert primal == dual
            pruned += len(primal) < len(fam)
        assert pruned > 0

    def test_each_minor_is_a_signed_multiple_of_the_complementary_dual_minor(self):
        # p x p minor on rows I = lambda_A * (-1)^sum(I) * q x q minor of the
        # kernel basis on the other rows, one nonzero lambda_A per set.
        rng = random.Random(60)
        for trial in range(20):
            p_card, q = rng.randint(1, 5), rng.randint(1, 3)
            d, u = p_card + q, p_card + q + rng.randint(0, 3)
            matrix = _random_matrix(d, u, trial)
            (mask,) = random_family(rng, u, p_card, 1)
            primal = _wedge_vector(mask, matrix, p_card)
            dual = dict(zip(combinations(range(d), q), _dual_vector(mask, matrix, p_card)))
            ratios = set()
            for rows, minor in zip(combinations(range(d), p_card), primal):
                other = tuple(r for r in range(d) if r not in rows)
                signed = minor if sum(rows) % 2 == 0 else -minor % FIELD_PRIME
                assert (signed == 0) == (dual[other] == 0)
                if signed:
                    ratios.add(signed * pow(dual[other], -1, FIELD_PRIME) % FIELD_PRIME)
            assert len(ratios) == 1 and 0 not in ratios

    @pytest.mark.parametrize("p_card, q", [(3, 2), (2, 3), (4, 1)])
    def test_equal_columns_give_zero_on_both_routes(self, p_card, q):
        d, u = p_card + q, p_card + q + 2
        matrix = _random_matrix(d, u, 61)
        for row in matrix:
            row[5] = row[1]
        mask = (1 << 1) | (1 << 5) | sum(1 << c for c in (0, 2, 3, 4, 6)[: p_card - 2])
        assert not any(_wedge_vector(mask, matrix, p_card))
        assert not any(_dual_vector(mask, matrix, p_card))

    def test_q_zero_keeps_the_smallest_set_for_every_seed(self):
        rng = random.Random(62)
        for seed in range(30):
            u = rng.randint(2, 9)
            fam = random_family(rng, u, rng.randint(1, u - 1), rng.randint(2, 12))
            if len(fam) < 2:
                continue
            assert represent(fam, 0, u, seed=seed) == {min(fam)}

    def test_kept_set_pinned(self):
        # p = 5, q = 2, d = 7: the dual route; the value is the one the
        # primal route produces for the same seed.
        pool = [sum(1 << i for i in c) for c in combinations(range(9), 5)]
        fam = set(random.Random(7).sample(pool, 40))
        assert sorted(represent(fam, 2, 9, seed=11)) == [
            55, 59, 62, 87, 94, 103, 107, 110, 118, 121, 124,
            151, 155, 181, 199, 211, 248, 271, 301, 348, 405,
        ]


class TestVerify:
    def test_rejects_non_subfamily(self):
        assert not verify_representative({0b01}, {0b10}, 1, 2)

    def test_detects_broken_representation(self):
        # Family {a}, {b} over universe {a, b}; keeping only {a} fails for
        # B = {a}, which {b} avoided.
        assert not verify_representative({0b01, 0b10}, {0b01}, 1, 2)
        assert verify_representative({0b01, 0b10}, {0b01, 0b10}, 1, 2)

    def test_vacuous_for_negative_q(self):
        assert verify_representative({0b1}, set(), -1, 1)


class TestClosureProperties:
    def test_transitivity(self):
        rng = random.Random(36)
        for trial in range(40):
            u = rng.randint(3, 9)
            p_card = rng.randint(1, 3)
            if p_card > u:
                continue
            q = rng.randint(0, min(3, u - p_card))
            fam = random_family(rng, u, p_card, rng.randint(2, 12))
            mid = represent(fam, q, u, seed=trial)
            small = represent(mid, q, u, seed=trial + 1000)
            assert verify_representative(fam, small, q, u)

    def test_union_closure(self):
        rng = random.Random(37)
        for trial in range(40):
            u = rng.randint(3, 9)
            p_card = rng.randint(1, 3)
            if p_card > u:
                continue
            q = rng.randint(0, min(3, u - p_card))
            fam1 = random_family(rng, u, p_card, rng.randint(1, 10))
            fam2 = random_family(rng, u, p_card, rng.randint(1, 10))
            sub1 = represent(fam1, q, u, seed=trial)
            sub2 = represent(fam2, q, u, seed=trial + 500)
            assert verify_representative(fam1 | fam2, sub1 | sub2, q, u)

    def test_star_closure(self):
        # If sub1 (q + p2)-represents fam1 and sub2 (q + p1)-represents fam2,
        # their star products stand in the q-representation relation.
        rng = random.Random(38)
        checked = 0
        for trial in range(60):
            u = rng.randint(4, 9)
            p1, p2 = rng.randint(1, 2), rng.randint(1, 2)
            q = rng.randint(0, 2)
            if p1 + p2 + q > u:
                continue
            fam1 = random_family(rng, u, p1, rng.randint(1, 10))
            fam2 = random_family(rng, u, p2, rng.randint(1, 10))
            sub1 = represent(fam1, q + p2, u, seed=trial)
            sub2 = represent(fam2, q + p1, u, seed=trial + 700)
            prod = star(fam1, fam2)
            sub_prod = star(sub1, sub2)
            assert sub_prod <= prod
            assert verify_representative(prod, sub_prod, q, u)
            checked += 1
        assert checked >= 30
