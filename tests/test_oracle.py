"""Brute-force enumerator: counts, canonical coverage, cross-strategy agreement."""

from __future__ import annotations

import math
import random
from dataclasses import replace
from itertools import combinations

import pytest

from conftest import path_edges, random_instance
from gerrysolve.exact import rule_ordered_weights
from gerrysolve.model import (
    DEFAULT_RULE,
    Instance,
    TieBreakRule,
    district_winner,
    evaluate_partition,
    is_connected_subset,
    make_partition,
    validate_partition,
)
from gerrysolve.cli import target_ruled_out
from gerrysolve.oracle import (
    enumerate_partitions,
    first_target,
    solve_target_oracle,
)

LEX = TieBreakRule("lex_min_candidate")
PREF = TieBreakRule("prefer_p_then_lex")


def all_set_partitions(items, k):
    """Reference enumerator: all ways to split `items` into k nonempty blocks."""
    items = list(items)
    if k == 1:
        yield [set(items)]
        return
    if len(items) < k:
        return
    first, rest = items[0], items[1:]
    # distribute: first goes in a block with any subset of the rest
    for r in range(len(rest) + 1):
        for extra in combinations(rest, r):
            block = {first, *extra}
            remaining = [x for x in rest if x not in block]
            if len(remaining) < k - 1:
                continue
            for tail in all_set_partitions(remaining, k - 1):
                yield [block, *tail]


def canon(part):
    return tuple(sorted(tuple(sorted(d.vertices)) for d in part.districts))


class TestCounts:
    def test_path_count_matches_binomial(self):
        rng = random.Random(7)
        for n in range(1, 9):
            for k in range(1, n + 1):
                inst = random_instance(rng, graph_class="path", n=n, k=k)
                got = sum(1 for _ in enumerate_partitions(inst))
                assert got == math.comb(n - 1, k - 1)

    def test_tree_count_matches_binomial(self):
        rng = random.Random(8)
        for _ in range(20):
            n = rng.randint(2, 9)
            k = rng.randint(1, n)
            inst = random_instance(rng, graph_class="tree", n=n, k=k)
            got = sum(1 for _ in enumerate_partitions(inst))
            assert got == math.comb(n - 1, k - 1)

    def test_k_equals_n_is_singletons(self):
        rng = random.Random(9)
        for gclass in ("path", "tree", "general"):
            inst = random_instance(rng, graph_class=gclass, n=6, k=6)
            parts = list(enumerate_partitions(inst))
            assert len(parts) == 1
            assert canon(parts[0]) == tuple((v,) for v in range(6))

    def test_triangle_counts_frozen(self):
        # Triangle: k=2 has 3 partitions (drop one vertex out), k=3 has 1.
        inst = Instance(
            n=3,
            edges=((0, 1), (0, 2), (1, 2)),
            graph_class="general",
            candidates=("a",),
            p=0,
            k=2,
            weights=({0: 1},) * 3,
        )
        assert sum(1 for _ in enumerate_partitions(inst, 2)) == 3
        assert sum(1 for _ in enumerate_partitions(inst, 3)) == 1

    def test_star_counts_frozen(self):
        # Star K_{1,3} centered at 0: every district containing 0 works, the
        # leaves are forced to be singletons.  k=2: central district takes 2
        # of 3 leaves: 3 ways.  k=3: central takes 1 leaf: 3 ways.
        inst = Instance(
            n=4,
            edges=((0, 1), (0, 2), (0, 3)),
            graph_class="tree",
            candidates=("a",),
            p=0,
            k=2,
            weights=({0: 1},) * 4,
        )
        assert sum(1 for _ in enumerate_partitions(inst, 2, "recursive_general")) == 3
        assert sum(1 for _ in enumerate_partitions(inst, 3, "recursive_general")) == 3
        assert sum(1 for _ in enumerate_partitions(inst, 2, "cut_edges")) == 3


class TestEnumerationQuality:
    def test_all_valid_no_duplicates(self):
        rng = random.Random(10)
        for gclass in ("path", "tree", "general"):
            for _ in range(15):
                inst = random_instance(rng, graph_class=gclass, n=rng.randint(2, 7))
                seen = set()
                for part in enumerate_partitions(inst):
                    assert validate_partition(inst, part)
                    key = canon(part)
                    assert key not in seen
                    seen.add(key)

    def test_strategies_agree_on_trees(self):
        rng = random.Random(11)
        for _ in range(15):
            n = rng.randint(2, 8)
            inst = random_instance(rng, graph_class="tree", n=n)
            a = {canon(p) for p in enumerate_partitions(inst, strategy="cut_edges")}
            b = {canon(p) for p in enumerate_partitions(inst, strategy="recursive_general")}
            assert a == b

    def test_matches_set_partition_filter(self):
        # Independent route: filter all set partitions for connectivity.
        rng = random.Random(12)
        for _ in range(12):
            n = rng.randint(2, 7)
            inst = random_instance(rng, graph_class="general", n=n)
            expected = set()
            for blocks in all_set_partitions(range(n), inst.k):
                if all(is_connected_subset(inst.adjacency, b) for b in blocks):
                    expected.add(tuple(sorted(tuple(sorted(b)) for b in blocks)))
            got = {canon(p) for p in enumerate_partitions(inst)}
            assert got == expected

    def test_cut_edge_stream_is_canonical(self):
        # components come out in order of their smallest vertex, so the
        # cut-edge strategy needs no sorting pass
        rng = random.Random(14)
        seen = 0
        for gclass in ("path", "tree"):
            for _ in range(40):
                inst = random_instance(rng, graph_class=gclass, n=rng.randint(1, 9))
                for part in enumerate_partitions(inst, strategy="cut_edges"):
                    assert part == part.canonical()
                    seen += 1
        assert seen > 500

    def test_cap_enforced(self):
        inst = random_instance(random.Random(13), graph_class="path", n=17, k=2)
        relabeled = replace(inst, graph_class="general")
        with pytest.raises(ValueError, match="capped"):
            next(enumerate_partitions(relabeled, strategy="recursive_general"))


class TestSolvers:
    def test_target_witness_checks_out(self):
        rng = random.Random(14)
        hits = 0
        for _ in range(80):
            inst = random_instance(rng, graph_class=rng.choice(["path", "tree", "general"]), n=rng.randint(1, 7))
            for k_star in range(1, inst.k + 1):
                yes, witness = solve_target_oracle(inst, k_star, LEX)
                if yes:
                    hits += 1
                    wins, _ = evaluate_partition(inst, witness, LEX)
                    assert wins[inst.p] == k_star
                    assert all(w < k_star for c, w in wins.items() if c != inst.p)
        assert hits > 10  # the suite actually exercises yes-instances

    def test_wgm_is_or_of_targets(self):
        rng = random.Random(15)
        for _ in range(60):
            inst = random_instance(rng, graph_class=rng.choice(["path", "tree", "general"]), n=rng.randint(1, 7))
            for rule in (LEX, PREF):
                targets = [solve_target_oracle(inst, ks, rule)[0] for ks in range(1, inst.k + 1)]
                achieved, witness = first_target(inst, range(1, inst.k + 1), rule)
                assert (achieved is not None) == any(targets)
                if achieved is not None:
                    _, strict = evaluate_partition(inst, witness, rule)
                    assert strict

    def test_one_scan_gives_the_first_pointwise_yes(self):
        # The smallest target that a per-target scan answers yes, with that
        # scan's witness, whether or not the ruled-out targets are passed.
        def first_pointwise_yes(inst, rule):
            for k_star in range(1, inst.k + 1):
                for part in enumerate_partitions(inst):
                    wins, _ = evaluate_partition(inst, part, rule)
                    if wins[inst.p] == k_star and all(
                        w < k_star for c, w in wins.items() if c != inst.p
                    ):
                        return k_star, part
            return None, None

        rng = random.Random(16)
        later_yes = 0
        for gclass in ("path", "tree", "general"):
            for _ in range(20):
                inst = random_instance(rng, graph_class=gclass, n=rng.randint(1, 7))
                live = [ks for ks in range(1, inst.k + 1) if not target_ruled_out(inst, ks)]
                for rule in (LEX, PREF):
                    want = first_pointwise_yes(inst, rule)
                    for k_star in range(1, (want[0] or inst.k + 1)):
                        assert not solve_target_oracle(inst, k_star, rule)[0]
                    if want[0] is not None:
                        assert solve_target_oracle(inst, want[0], rule) == (True, want[1])
                    later_yes += (want[0] or 0) > 1
                    assert first_target(inst, range(1, inst.k + 1), rule) == want, (inst, rule)
                    assert first_target(inst, live, rule) == want, (inst, rule)
        assert later_yes > 5  # the smallest yes is not always the first target

    def test_tie_break_rule_changes_answers(self):
        # One concrete instance where prefer-p flips a district to p.
        inst = Instance(
            n=2,
            edges=((0, 1),),
            graph_class="path",
            candidates=("a", "b"),
            p=1,
            k=1,
            weights=({0: 3}, {1: 3}),
        )
        assert first_target(inst, range(1, inst.k + 1), LEX)[0] is None
        assert first_target(inst, range(1, inst.k + 1), PREF)[0] is not None

    def test_single_vertex(self):
        inst = Instance(
            n=1, edges=(), graph_class="path", candidates=("a", "b"), p=0, k=1,
            weights=({0: 1},),
        )
        assert first_target(inst, range(1, inst.k + 1), DEFAULT_RULE)[0] is not None
        assert solve_target_oracle(inst, 1)[0]


class TestRuleOrderedScore:
    """first_target scores a district as the first maximal column sum of its
    vertices' rows of rule_ordered_weights; checked against the definition."""

    def test_score_is_district_winner_on_every_connected_subset(self):
        rng = random.Random(23)
        ties = 0
        for gclass in ("path", "tree", "general"):
            for _ in range(25):
                inst = random_instance(
                    rng, graph_class=gclass, n=rng.randint(1, 8), m=rng.randint(1, 5), wmax=2
                )
                adj = inst.adjacency
                for rule in (LEX, PREF):
                    order, table = rule_ordered_weights(inst, rule)
                    rows = table.tolist()
                    for mask in range(1, 1 << inst.n):
                        verts = [v for v in range(inst.n) if mask >> v & 1]
                        if not is_connected_subset(adj, verts):
                            continue
                        totals = [sum(col) for col in zip(*[rows[v] for v in verts])]
                        ties += totals.count(max(totals)) > 1
                        assert order[totals.index(max(totals))] == district_winner(
                            inst, verts, rule
                        ), (inst, rule, verts)
        assert ties > 500  # weights 1-2 make tied maxima common

    def test_first_target_matches_a_district_winner_scan(self):
        # Reference: score every partition with district_winner, note the
        # first partition at each achieved k_star, answer the smallest.
        def reference(inst, rule):
            first = {}
            for part in enumerate_partitions(inst):
                wins = [0] * inst.m
                for dist in part.districts:
                    wins[district_winner(inst, dist, rule)] += 1
                wp = wins[inst.p]
                if all(w < wp for c, w in enumerate(wins) if c != inst.p):
                    first.setdefault(wp, part)
            return (min(first), first[min(first)]) if first else (None, None)

        rng = random.Random(24)
        yes = 0
        for idx in range(330):
            gclass = ("path", "tree", "general")[idx % 3]
            inst = random_instance(
                rng, graph_class=gclass, n=rng.randint(1, 8), m=rng.randint(1, 5), wmax=2
            )
            rule = (LEX, PREF)[idx % 2]
            want = reference(inst, rule)
            yes += want[0] is not None
            assert first_target(inst, range(1, inst.k + 1), rule) == want, (inst, rule)
        assert 50 < yes < 300  # both answers are common
