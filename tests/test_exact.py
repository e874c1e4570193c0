"""Subset-polynomial solver: algebra laws, enumeration cross-checks, and
differential agreement with the brute-force oracle on every graph class."""

from __future__ import annotations

import dataclasses
import random
import tracemalloc
from math import comb

import numpy as np
import pytest

from conftest import random_instance
from gerrysolve import exact
from gerrysolve.exact import (
    DistrictFamily,
    SetPolynomial,
    build_Q1,
    enumerate_districts,
    hamming_projection,
    poly_multiply,
    solve_target_exact,
)
from gerrysolve.cli import solve_targets, solve_wgm
from gerrysolve.model import (
    DEFAULT_RULE,
    Instance,
    TieBreakRule,
    district_winner,
    evaluate_partition,
    is_connected_subset,
    satisfies_target,
)
from gerrysolve.oracle import first_target, solve_target_oracle
from gerrysolve.detfpt import solve_target_det

LEX = TieBreakRule("lex_min_candidate")
PREF = TieBreakRule("prefer_p_then_lex")


def make_path(voter_candidates, candidates, k, p=0, weight=1):
    """Single-approval path instance: vertex v approves voter_candidates[v]."""
    n = len(voter_candidates)
    index = {name: i for i, name in enumerate(candidates)}
    return Instance(
        n=n,
        edges=tuple((i, i + 1) for i in range(n - 1)),
        graph_class="path",
        candidates=tuple(candidates),
        p=p,
        k=k,
        weights=tuple({index[c]: weight} for c in voter_candidates),
    )


def random_poly(rng, n_bits, terms, coeff_max=6):
    poly = SetPolynomial.zero(n_bits)
    for _ in range(terms):
        poly.coeffs[rng.randrange(1 << n_bits)] = rng.randint(0, coeff_max)
    return poly


def dict_multiply(p, q):
    """Schoolbook product over a dict, the slow reference for poly_multiply."""
    out = {}
    for ea in np.flatnonzero(p.coeffs):
        for eb in np.flatnonzero(q.coeffs):
            key = int(ea) + int(eb)
            out[key] = out.get(key, 0) + int(p.coeffs[ea]) * int(q.coeffs[eb])
    return {e: c for e, c in out.items() if c}


class TestPolynomials:
    def test_hamming_projection_examples(self):
        poly = SetPolynomial.from_exponents(3, [3, 4])
        assert list(hamming_projection(poly, 1).exponents()) == [4]
        assert list(hamming_projection(poly, 2).exponents()) == [3]
        const = SetPolynomial.from_exponents(3, [0, 5])
        assert list(hamming_projection(const, 0).exponents()) == [0]

    def test_hamming_projection_idempotent(self):
        rng = random.Random(0)
        for _ in range(20):
            poly = random_poly(rng, 6, terms=12)
            once = hamming_projection(poly, 3)
            twice = hamming_projection(once, 3)
            assert np.array_equal(once.coeffs, twice.coeffs)

    def test_representative_idempotent_and_commutes_with_projection(self):
        rng = random.Random(1)
        for _ in range(20):
            poly = random_poly(rng, 6, terms=15)
            rep = poly.representative()
            assert np.array_equal(rep.coeffs, rep.representative().coeffs)
            assert set(rep.coeffs.tolist()) <= {0, 1}
            h = rng.randrange(7)
            left = hamming_projection(poly, h).representative()
            right = hamming_projection(poly.representative(), h)
            assert np.array_equal(left.coeffs, right.coeffs)

    def test_multiply_examples(self):
        a = SetPolynomial.from_exponents(2, [1])
        b = SetPolynomial.from_exponents(2, [2])
        prod = poly_multiply(a, b)
        assert prod.n_bits == 3
        assert list(prod.exponents()) == [3]
        square = poly_multiply(a, a)
        assert list(square.exponents()) == [2]
        assert hamming_projection(square, 2).is_zero()

    def test_multiply_against_schoolbook_dict(self):
        rng = random.Random(3)
        for _ in range(60):
            n_bits = rng.randint(1, 10)
            p = random_poly(rng, n_bits, terms=rng.randint(0, 12))
            q = random_poly(rng, n_bits, terms=rng.randint(0, 12))
            prod = poly_multiply(p, q)
            want = dict_multiply(p, q)
            got = {int(e): int(prod.coeffs[e]) for e in prod.exponents()}
            assert got == want

    def test_oversized_coefficients_are_refused(self):
        # Past the FFT's stated rounding bound the product raises instead of
        # rounding to a wrong integer; well inside it, large coefficients
        # still come out exact.
        p = SetPolynomial.zero(4)
        q = SetPolynomial.zero(4)
        p.coeffs[[1, 2, 4]] = 1 << 16
        q.coeffs[[1, 8]] = 1 << 16
        prod = poly_multiply(p, q)
        assert {int(e): int(prod.coeffs[e]) for e in prod.exponents()} == dict_multiply(p, q)
        p.coeffs[[1, 2, 4]] = 3_000_000_000
        q.coeffs[[1, 8]] = 3_000_000_000
        with pytest.raises(ValueError):
            poly_multiply(p, q)

    def test_ntt_matches_numpy_convolve(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            a = rng.integers(0, 64, size=int(rng.integers(1, 900)))
            b = rng.integers(0, 64, size=int(rng.integers(1, 900)))
            got = exact._ntt_convolve(a.astype(np.int64), b.astype(np.int64))
            assert np.array_equal(got, np.convolve(a, b))

    def test_all_ones_product_is_the_triangle_sequence(self):
        ones = np.ones(1 << 20, dtype=np.int64)
        got = exact._ntt_convolve(ones, ones)
        idx = np.arange(got.size)
        assert np.array_equal(got, np.minimum(idx + 1, got.size - idx))
        assert got.max() == 1 << 20

    @pytest.mark.parametrize("bits", [13, 14])
    def test_dense_zero_one_products_match_numpy_convolve(self, bits):
        # the dense operand sizes the graph_exact benchmark reaches
        rng = np.random.default_rng(bits)
        a = rng.integers(0, 2, size=1 << bits, dtype=np.int64)
        b = rng.integers(0, 2, size=1 << bits, dtype=np.int64)
        assert np.array_equal(exact._ntt_convolve(a, b), np.convolve(a, b))

    def test_disjoint_sets_add_without_carries(self):
        rng = random.Random(5)
        n = 10
        for _ in range(200):
            universe = list(range(n))
            rng.shuffle(universe)
            cut = rng.randint(1, n - 1)
            take_a = rng.randint(1, cut)
            take_b = rng.randint(1, n - cut)
            s1 = universe[:take_a]
            s2 = universe[cut : cut + take_b]
            e1 = sum(1 << v for v in s1)
            e2 = sum(1 << v for v in s2)
            assert bin(e1 + e2).count("1") == len(s1) + len(s2)
        # overlapping pair: the projected product drops the term
        a = SetPolynomial.from_exponents(3, [0b011])
        b = SetPolynomial.from_exponents(3, [0b110])
        prod = poly_multiply(a, b)
        assert hamming_projection(prod, 4).is_zero()

    def test_width_mismatch_rejected(self):
        a = SetPolynomial.zero(3)
        b = SetPolynomial.zero(4)
        with pytest.raises(ValueError):
            poly_multiply(a, b)
        with pytest.raises(ValueError):
            a.add(b)


def count_connected_subsets(inst):
    """Independent counter: test every nonempty subset with the model check."""
    total = 0
    for mask in range(1, 1 << inst.n):
        verts = [v for v in range(inst.n) if (mask >> v) & 1]
        if is_connected_subset(inst.adjacency, verts):
            total += 1
    return total


def brute_family(inst, rule):
    """Winner buckets by testing every nonempty mask with the model's checks."""
    buckets = [[] for _ in range(inst.m)]
    for mask in range(1, 1 << inst.n):
        verts = [v for v in range(inst.n) if (mask >> v) & 1]
        if is_connected_subset(inst.adjacency, verts):
            buckets[district_winner(inst, verts, rule)].append(mask)
    return [tuple(b) for b in buckets]


def general_instance(n, edges, rng, m=3):
    """A general-class instance on the given edges, connected or not."""
    inst = Instance(
        n=n,
        edges=tuple(edges),
        graph_class="general",
        candidates=tuple(f"c{i}" for i in range(m)),
        p=rng.randrange(m),
        k=1,
        weights=tuple({rng.randrange(m): rng.randint(1, 3)} for _ in range(n)),
    )
    inst.validate()
    return inst


class TestEnumerateDistricts:
    def test_two_vertex_path(self):
        inst = make_path(["p", "c"], ["p", "c"], k=1)
        fam = enumerate_districts(inst)
        assert sorted(fam.sets_for(0) + fam.sets_for(1)) == [1, 2, 3]
        assert 1 in fam.sets_for(0)
        assert 2 in fam.sets_for(1)
        assert fam.total() == 3

    def test_edgeless_pair_skips_disconnected_set(self):
        inst = Instance(
            n=2,
            edges=(),
            graph_class="general",
            candidates=("p", "c"),
            p=0,
            k=2,
            weights=({0: 1}, {1: 1}),
        )
        inst.validate()
        fam = enumerate_districts(inst)
        combined = fam.sets_for(0) + fam.sets_for(1)
        assert sorted(combined) == [1, 2]

    def test_total_matches_independent_counter(self):
        rng = random.Random(6)
        for gclass in ("path", "tree", "general"):
            for _ in range(8):
                inst = random_instance(rng, graph_class=gclass, n=rng.randint(1, 8))
                fam = enumerate_districts(inst)
                assert fam.total() == count_connected_subsets(inst)

    def test_buckets_are_disjoint_connected_and_winner_tagged(self):
        rng = random.Random(7)
        for _ in range(12):
            inst = random_instance(rng, graph_class="general", n=rng.randint(2, 8))
            fam = enumerate_districts(inst)
            seen = set()
            for c in range(inst.m):
                for mask in fam.sets_for(c):
                    assert mask not in seen
                    seen.add(mask)
                    verts = [v for v in range(inst.n) if (mask >> v) & 1]
                    assert is_connected_subset(inst.adjacency, verts)
                    assert district_winner(inst, verts) == c

    def test_cap_enforced(self):
        inst = random_instance(random.Random(8), n=6)
        with pytest.raises(ValueError):
            enumerate_districts(inst, cap=5)

    @pytest.mark.parametrize("rule", [LEX, PREF], ids=["LEX", "PREF"])
    def test_equals_brute_force_on_every_mask(self, rule):
        rng = random.Random(41)
        cases = []
        for gclass in ("path", "tree", "general"):
            for n in range(1, 13):
                cases.append(random_instance(rng, graph_class=gclass, n=n, m=rng.randint(1, 5)))
        cases += [
            general_instance(5, [], rng),
            general_instance(9, [(0, 1), (1, 2), (2, 0), (3, 4), (5, 6), (6, 7), (7, 5)], rng),
        ]
        heavy = random_instance(rng, graph_class="general", n=9, m=4)
        weights = list(heavy.weights)
        weights[3] = {0: 2**70, 2: 2**70}  # a tie far past int64
        weights[6] = {1: 2**70 + 5}
        cases.append(dataclasses.replace(heavy, weights=tuple(weights)))
        # Whole weight 2**63 - 1 stays on int64, 2**63 takes the object route.
        for whole in (2**63 - 1, 2**63):
            inst = make_path(["p", "c", "p"], ["p", "c"], k=1)
            inst.weights = ({0: 2**62}, {1: whole - 2**62 - 2}, {0: 1, 1: 1})
            cases.append(inst)
        for inst in cases:
            fam = enumerate_districts(inst, rule)
            assert [fam.sets_for(c) for c in range(inst.m)] == brute_family(inst, rule), inst

    def test_sets_are_sorted_tuples_of_python_ints(self):
        inst = random_instance(random.Random(42), graph_class="general", n=10, m=3)
        fam = enumerate_districts(inst)
        for c in range(inst.m):
            sets = fam.sets_for(c)
            assert type(sets) is tuple
            assert all(type(mask) is int for mask in sets)
            assert list(sets) == sorted(sets)

    def test_no_python_call_per_district(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("per-district Python call")

        monkeypatch.setattr(exact, "district_winner", forbidden, raising=False)
        monkeypatch.setattr(exact, "connected_subsets_with_seed", forbidden, raising=False)
        inst = random_instance(random.Random(43), graph_class="general", n=8, m=3)
        assert enumerate_districts(inst).total() == count_connected_subsets(inst)

    @pytest.mark.parametrize("scale", [1, 2**70], ids=["int64", "object"])
    def test_peak_memory_per_mask(self, scale):
        # enumerate_districts must fit in the 13 words (104 bytes) per mask
        # that solve_target_exact's memory estimate gives it, on either
        # dtype, on a complete graph where every mask is a district.
        n, rng = 16, random.Random(44)
        inst = Instance(
            n=n,
            edges=tuple((u, v) for u in range(n) for v in range(u + 1, n)),
            graph_class="general",
            candidates=("a", "b", "c"),
            p=0,
            k=2,
            weights=tuple({c: rng.randint(1, 9) * scale + 1 for c in range(3)} for _ in range(n)),
        )
        tracemalloc.start()
        try:
            fam = enumerate_districts(inst, PREF)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fam.total() == 2**n - 1
        assert peak < 104 * 2**n, peak / 2**n


def brute_q1_support(fam, p, j, n):
    """Unions of j+1 pairwise disjoint p-districts, by exhaustive choice."""
    sets = fam.sets_for(p)
    found = set()

    def rec(start, used, depth):
        if depth == j + 1:
            found.add(used)
            return
        for idx in range(start, len(sets)):
            d = sets[idx]
            if d & used:
                continue
            rec(idx + 1, used | d, depth + 1)

    rec(0, 0, 0)
    return found


class TestBuildQ1:
    def test_no_p_district_gives_empty_table(self):
        inst = make_path(["c", "c", "c"], ["p", "c"], k=2)
        fam = enumerate_districts(inst)
        assert fam.sets_for(0) == ()
        table = build_Q1(fam, 3, inst.n, p=0)
        assert all(not level for level in table.values())

    def test_two_singletons_give_pair_union(self):
        inst = make_path(["p", "p"], ["p", "c"], k=2)
        fam = enumerate_districts(inst)
        table = build_Q1(fam, 2, 2, p=0)
        assert table[1][2].coefficient(3) == 1

    def test_k_star_one_table_empty(self):
        inst = make_path(["p", "p"], ["p", "c"], k=1)
        fam = enumerate_districts(inst)
        assert build_Q1(fam, 1, 2, p=0) == {}

    def test_membership_matches_tuple_enumeration(self):
        rng = random.Random(9)
        for _ in range(25):
            gclass = rng.choice(("path", "tree", "general"))
            n = rng.randint(2, 8)
            inst = random_instance(rng, graph_class=gclass, n=n)
            fam = enumerate_districts(inst)
            k_star = rng.randint(2, 4)
            table = build_Q1(fam, k_star, n, p=inst.p)
            for j in range(1, k_star):
                want = brute_q1_support(fam, inst.p, j, n)
                got = set()
                for s, poly in table.get(j, {}).items():
                    exps = poly.exponents()
                    assert set(poly.coeffs[exps].tolist()) <= {1}
                    for e in exps:
                        assert bin(int(e)).count("1") == s
                        got.add(int(e))
                assert got == want


def brute_unions(old, family, room, keep=()):
    """keep plus every union of a disjoint pair from old x family of <= room vertices."""
    out = set(keep)
    for a in old:
        for b in family:
            if a & b == 0 and bin(a | b).count("1") <= room:
                out.add(a | b)
    return sorted(out)


class TestExtend:
    @pytest.mark.parametrize(
        "limit, chunk", [(None, None), (0, None), (None, 5)], ids=["default", "dense", "chunked"]
    )
    def test_equals_brute_force_disjoint_unions(self, monkeypatch, limit, chunk):
        if limit is not None:
            monkeypatch.setattr(exact, "_PAIR_LIMIT", limit)
        if chunk is not None:
            monkeypatch.setattr(exact, "_PAIR_CHUNK", chunk)
        rng = random.Random(31)
        checked = 0
        for _ in range(60):
            n = rng.randint(1, 9)
            old = sorted(rng.sample(range(1, 1 << n), rng.randint(0, min(40, (1 << n) - 1))))
            fam = sorted(rng.sample(range(1, 1 << n), rng.randint(0, min(60, (1 << n) - 1))))
            keep = sorted(rng.sample(range(1, 1 << n), rng.randint(0, min(3, (1 << n) - 1))))
            room = rng.randint(1, n)
            family = exact._by_popcount(np.array(fam, dtype=np.int64), n)
            got = exact._extend(np.array(old, dtype=np.int64), family, n)
            assert got.tolist() == brute_unions(old, fam, n)
            got = exact._extend(
                np.array(old, dtype=np.int64), family, n, np.array(keep, dtype=np.int64), room=room
            )
            assert got.tolist() == brute_unions(old, fam, room, keep)
            checked += len(got)
        assert checked > 500

    def test_spare_zero_makes_k_star_minus_two_products(self, monkeypatch):
        # With k_star = k the last p-district is looked up by complement, so
        # the Q1 chain stops one product short of the full table.
        calls = []
        extend = exact._extend

        def counting(*args, **kwargs):
            calls.append(1)
            return extend(*args, **kwargs)

        monkeypatch.setattr(exact, "_extend", counting)
        rng = random.Random(32)
        yes_seen = 0
        for _ in range(20):
            k = rng.randint(3, 5)
            inst = random_instance(rng, graph_class="general", n=rng.randint(k, 9), k=k)
            calls.clear()
            yes_seen += solve_target_exact(inst, k)
            assert len(calls) == k - 2
        assert yes_seen > 0


class TestSolveTargetExact:
    def test_single_district(self):
        rng = random.Random(10)
        for _ in range(25):
            inst = random_instance(rng, graph_class="general", n=rng.randint(1, 7), k=1)
            want = district_winner(inst, range(inst.n)) == inst.p
            assert solve_target_exact(inst, 1) == want

    def test_split_path_rejects_tied_rival(self):
        inst = Instance(
            n=2,
            edges=((0, 1),),
            graph_class="path",
            candidates=("p", "c"),
            p=0,
            k=2,
            weights=({0: 2}, {1: 1}),
        )
        assert solve_target_exact(inst, 1) is False

    def test_agrees_with_oracle_all_classes(self):
        rng = random.Random(11)
        yes_seen = 0
        for gclass in ("path", "tree", "general"):
            for _ in range(30):
                n = rng.randint(2, 9)
                inst = random_instance(rng, graph_class=gclass, n=n)
                for k_star in range(1, inst.k + 1):
                    want = solve_target_oracle(inst, k_star)[0]
                    got = solve_target_exact(inst, k_star)
                    assert got == want, (gclass, inst, k_star)
                    yes_seen += want
        assert yes_seen > 40

    def test_agrees_with_oracle_prefer_p(self):
        rng = random.Random(12)
        for _ in range(25):
            inst = random_instance(rng, graph_class="general", n=rng.randint(2, 8))
            for k_star in range(1, inst.k + 1):
                assert solve_target_exact(inst, k_star, PREF) == solve_target_oracle(
                    inst, k_star, PREF
                )[0]

    def test_dense_route_agrees_with_oracle(self, monkeypatch):
        monkeypatch.setattr(exact, "_PAIR_LIMIT", 0)
        rng = random.Random(13)
        yes_seen = 0
        for _ in range(25):
            gclass = rng.choice(("path", "tree", "general"))
            inst = random_instance(rng, graph_class=gclass, n=rng.randint(2, 8))
            for k_star in range(1, inst.k + 1):
                want = solve_target_oracle(inst, k_star)[0]
                assert solve_target_exact(inst, k_star) == want
                yes_seen += want
        assert yes_seen > 10

    def test_k_star_range_enforced(self):
        inst = make_path(["p", "c", "p"], ["p", "c"], k=2)
        with pytest.raises(ValueError):
            solve_target_exact(inst, 0)
        with pytest.raises(ValueError):
            solve_target_exact(inst, 3)

    def test_vertex_cap_enforced(self):
        n = exact.VERTEX_CAP + 1
        inst = Instance(
            n=n,
            edges=tuple((i, i + 1) for i in range(n - 1)),
            graph_class="path",
            candidates=("p", "c"),
            p=0,
            k=2,
            weights=tuple({0: 1} for _ in range(n)),
        )
        with pytest.raises(ValueError):
            solve_target_exact(inst, 1)

    def test_memory_cap_enforced(self):
        inst = make_path(["p"] * 12, ["p", "c"], k=3)
        with pytest.raises(MemoryError):
            solve_target_exact(inst, 2, memory_cap=100_000)

    def test_memory_guard_runs_before_enumeration(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("allocated before the memory guard")

        monkeypatch.setattr(exact, "enumerate_districts", forbidden)
        inst = make_path(["p"] * 12, ["p", "c"], k=3)
        for k_star in (1, 2, 3):
            with pytest.raises(MemoryError):
                solve_target_exact(inst, k_star, memory_cap=100_000)

    def test_one_base_event_per_solve(self):
        # perfbench splits Q1 time from round time at the "base" event, so it
        # fires exactly once on every solve past the guards: spare = 0 ones,
        # empty bases, and solves that reach the full set in a round.
        rng = random.Random(33)
        spare_zero = early_yes = 0
        for _ in range(80):
            gclass = rng.choice(("path", "tree", "general"))
            inst = random_instance(rng, graph_class=gclass, n=rng.randint(2, 9))
            for k_star in range(1, inst.k + 1):
                events = []
                got = solve_target_exact(
                    inst, k_star, trace=lambda kind, data: events.append((kind, data))
                )
                assert [kind for kind, _ in events].count("base") == 1
                assert events[0][0] == "base"
                spare = inst.k - k_star
                last = events[-1][1]["tables"][spare]
                assert last.tolist() == ([(1 << inst.n) - 1] if got else [])
                spare_zero += spare == 0
                early_yes += got and spare > 0
        assert spare_zero > 40 and early_yes > 10

    def test_round_bound_formulas_agree(self):
        # The loop range folded with the per-rival cap equals the plain
        # two-term minimum on every (k, k_star) pair we can ever run.
        for k in range(1, 15):
            for k_star in range(1, k + 1):
                folded = min(k - 1, k - k_star, k_star - 1)
                assert exact._j_iterations(k, k_star) == folded

    def test_infeasible_rival_demand_is_no(self):
        # k - k_star districts must go to rivals capped at k_star - 1 wins
        # each; with one rival and k_star = 1 that is impossible.
        inst = make_path(["p", "c", "c", "p"], ["p", "c"], k=3)
        assert solve_target_exact(inst, 1) is False
        assert solve_target_oracle(inst, 1)[0] is False


def decode_collection(mask, t, p_left, caps, fam_sets, p, memo):
    """Can mask split into t disjoint districts fitting the win budget?"""
    if mask == 0:
        return t == 0 and p_left == 0
    if t == 0:
        return False
    key = (mask, t, p_left, tuple(sorted(caps.items())))
    if key in memo:
        return memo[key]
    pivot = (mask & -mask).bit_length() - 1
    ok = False
    for c, sets in fam_sets.items():
        if c == p:
            if p_left == 0:
                continue
        elif caps[c] == 0:
            continue
        for d in sets:
            if d & mask != d or not (d >> pivot) & 1:
                continue
            if c == p:
                if decode_collection(mask ^ d, t - 1, p_left - 1, caps, fam_sets, p, memo):
                    ok = True
                    break
            else:
                caps[c] -= 1
                good = decode_collection(mask ^ d, t - 1, p_left, caps, fam_sets, p, memo)
                caps[c] += 1
                if good:
                    ok = True
                    break
        if ok:
            break
    memo[key] = ok
    return ok


class TestTraceSoundness:
    def test_every_intermediate_monomial_decodes(self):
        rng = random.Random(14)
        decoded = 0
        for _ in range(14):
            gclass = rng.choice(("path", "tree", "general"))
            n = rng.randint(3, 9)
            k = rng.randint(2, min(n, 5))
            inst = random_instance(rng, graph_class=gclass, n=n, k=k)
            fam = enumerate_districts(inst)
            fam_sets = {c: fam.sets_for(c) for c in range(inst.m)}
            for k_star in range(1, k + 1):
                events = []
                solve_target_exact(inst, k_star, trace=lambda kind, data: events.append((kind, data)))
                assert events and events[0][0] == "base"
                order = events[0][1]["order"]
                rivals = order[1:]
                for kind, data in events:
                    if kind == "base":
                        caps = {c: 0 for c in rivals}
                    else:
                        upto = rivals.index(data["candidate"])
                        caps = {
                            c: (k_star - 1)
                            if i < upto
                            else (min(data["j"], k_star - 1) if i == upto else 0)
                            for i, c in enumerate(rivals)
                        }
                    for h, table in enumerate(data["tables"]):
                        memo = {}
                        for e in table:
                            assert decode_collection(
                                int(e), k_star + h, k_star, dict(caps), fam_sets, inst.p, memo
                            ), (inst, k_star, kind, h, int(e))
                            decoded += 1
        assert decoded > 200


class TestSolveWgm:
    def test_oracle_and_exact_agree_with_reference(self):
        rng = random.Random(15)
        for _ in range(20):
            gclass = rng.choice(("path", "tree", "general"))
            inst = random_instance(rng, graph_class=gclass, n=rng.randint(1, 8))
            want = first_target(inst, range(1, inst.k + 1), DEFAULT_RULE)[0] is not None
            for algo in ("oracle", "exact", "auto"):
                got, part = solve_wgm(inst, algo=algo)
                assert got == want, (inst, algo)
                if part is not None:
                    wins, strict = evaluate_partition(inst, part)
                    assert strict and wins[inst.p] >= 1

    def test_detfpt_route_on_paths(self):
        rng = random.Random(16)
        for _ in range(15):
            inst = random_instance(rng, graph_class="path", n=rng.randint(1, 8))
            want = first_target(inst, range(1, inst.k + 1), DEFAULT_RULE)[0] is not None
            got, part = solve_wgm(inst, algo="detfpt")
            assert got == want
            if part is not None:
                _, strict = evaluate_partition(inst, part)
                assert strict

    def test_randfpt_route_never_false_positive(self):
        rng = random.Random(17)
        agree = total = 0
        for _ in range(15):
            inst = random_instance(rng, graph_class="path", n=rng.randint(1, 7))
            want = first_target(inst, range(1, inst.k + 1), DEFAULT_RULE)[0] is not None
            got, part = solve_wgm(inst, algo="randfpt")
            assert part is None
            if not want:
                assert got is False
            total += 1
            agree += got == want
        assert agree >= total - 1

    def test_all_p_instance_short_circuits_to_yes(self):
        inst = make_path(["p"] * 5, ["p", "c"], k=3)
        found, part = solve_wgm(inst, algo="exact")
        assert found
        wins, strict = evaluate_partition(inst, part)
        assert strict and wins[inst.p] == 3

    def test_auto_uses_detfpt_for_long_paths(self):
        voters = ["p" if i % 3 != 2 else "c" for i in range(40)]
        inst = make_path(voters, ["p", "c"], k=10)
        assert solve_targets(inst, DEFAULT_RULE)[2] == "detfpt"
        found, part = solve_wgm(inst)
        assert found, "26 p-heavy vertices against 14 should carve 10 winnable districts"
        assert part is not None
        wins, strict = evaluate_partition(inst, part)
        assert strict

    def test_auto_rejects_oversized_general_graph(self):
        n = exact.VERTEX_CAP + 3
        edges = tuple((i, i + 1) for i in range(n - 1)) + ((0, n - 1),)
        inst = Instance(
            n=n,
            edges=edges,
            graph_class="general",
            candidates=("p", "c"),
            p=0,
            k=2,
            weights=tuple({0: 1} for _ in range(n)),
        )
        with pytest.raises(ValueError):
            solve_wgm(inst)

    def test_unknown_algo_rejected(self):
        inst = make_path(["p", "c"], ["p", "c"], k=1)
        with pytest.raises(ValueError):
            solve_wgm(inst, algo="guess")
