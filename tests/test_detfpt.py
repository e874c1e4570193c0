"""Path DP: differential against the oracle, plus table-level invariants."""

from __future__ import annotations

import random
from math import comb

import pytest

from conftest import find_st_paths, random_instance
from gerrysolve import detfpt, repset
from gerrysolve.auxgraph import SINK, SOURCE, ArcLabel, build_aux_graph
from gerrysolve.detfpt import DpTable, run_dp, solve_target_det
from gerrysolve.model import Instance, TieBreakRule, satisfies_target
from gerrysolve.oracle import solve_target_oracle

LEX = TieBreakRule("lex_min_candidate")
PREF = TieBreakRule("prefer_p_then_lex")


def brute_families(aux, max_i):
    """Walk every path out of s over the materialized arcs and bucket the
    label sets by (arc count, unlabeled count, endpoint).  Paths that repeat
    a label are dropped, mirroring the definition of the table contents.
    Only cells inside the table's r range are returned."""
    label_index = {lab: i for i, lab in enumerate(aux.label_universe())}
    out_arcs = {}
    for tail, head, lab in aux.arcs:
        out_arcs.setdefault(tail, []).append((head, lab))
    expected = {}

    def rec(v, i, r, mask):
        if i > 0:
            if r <= min(i, aux.k_star + 1):
                expected.setdefault((i, r, v), set()).add(mask)
            if v == SINK or i == max_i:
                return
        for head, lab in out_arcs.get(v, []):
            if lab is None:
                rec(head, i + 1, r + 1, mask)
            else:
                bit = 1 << label_index[lab]
                if mask & bit:
                    continue
                rec(head, i + 1, r, mask | bit)

    rec(SOURCE, 0, 0, 0)
    return expected


def reaches_sink(aux, i, r, e):
    """Both liveness bounds of cell (i, r, e): the p wins still needed fit
    in the layers left (q >= 0), and the intervals still to come fit in the
    vertices left, all of them at the sink layer k + 1."""
    room = aux.n - e >= aux.k + 1 - i if i <= aux.k else e == aux.n
    return (aux.k - aux.k_star) - (i - r) >= 0 and room


class TestAgainstOracle:
    def test_random_paths_all_targets(self):
        rng = random.Random(41)
        yes = 0
        for _ in range(70):
            inst = random_instance(rng, graph_class="path", n=rng.randint(1, 8))
            for k_star in range(1, inst.k + 1):
                expected = solve_target_oracle(inst, k_star, LEX)[0]
                got, witness = solve_target_det(inst, k_star, LEX)
                assert got == expected, (inst, k_star)
                if got:
                    yes += 1
                    assert satisfies_target(inst, witness, k_star, LEX)
        assert yes > 30

    @pytest.mark.parametrize("rule", [LEX, PREF])
    def test_wide_label_universes_every_target(self, rule):
        # Universes of (m - 1)(k_star - 1) >= 9 labels, where the lowest-copy
        # rule and represent both prune.
        rng = random.Random(49)
        wide_yes = 0
        for _ in range(10):
            inst = random_instance(
                rng, graph_class="path", n=rng.randint(10, 12), m=rng.randint(4, 5),
                k=rng.randint(6, 8),
            )
            for k_star in range(1, inst.k + 1):
                expected = solve_target_oracle(inst, k_star, rule)[0]
                got, witness = solve_target_det(inst, k_star, rule)
                assert got == expected, (inst, k_star)
                if got:
                    assert satisfies_target(inst, witness, k_star, rule)
                    wide_yes += (inst.m - 1) * (k_star - 1) >= 9
        assert wide_yes > 0

    def test_prefer_p_rule(self):
        rng = random.Random(42)
        for _ in range(25):
            inst = random_instance(rng, graph_class="path", n=rng.randint(1, 7), wmax=2)
            for k_star in range(1, inst.k + 1):
                assert (
                    solve_target_det(inst, k_star, PREF)[0]
                    == solve_target_oracle(inst, k_star, PREF)[0]
                )

    def test_non_path_rejected(self):
        inst = Instance(
            n=3,
            edges=((0, 2), (1, 2)),
            graph_class="tree",
            candidates=("a",),
            p=0,
            k=2,
            weights=({0: 1},) * 3,
        )
        with pytest.raises(ValueError):
            solve_target_det(inst, 1)


class TestRepresentToggle:
    def test_decisions_match_with_and_without_pruning(self):
        rng = random.Random(43)
        for _ in range(60):
            inst = random_instance(rng, graph_class="path", n=rng.randint(1, 8))
            k_star = rng.randint(1, inst.k)
            fast = solve_target_det(inst, k_star, use_represent=True)[0]
            slow = solve_target_det(inst, k_star, use_represent=False)[0]
            assert fast == slow

    def test_seeds_do_not_change_decisions(self):
        rng = random.Random(44)
        for _ in range(20):
            inst = random_instance(rng, graph_class="path", n=rng.randint(2, 7))
            k_star = rng.randint(1, inst.k)
            answers = {solve_target_det(inst, k_star, seed=s)[0] for s in range(3)}
            assert len(answers) == 1


    def test_dual_route_runs_and_keeps_answers(self, monkeypatch):
        # Cells with fewer labels left to add than labels held (q < p) are
        # pruned through the left-kernel minors; their answers and
        # witnesses must match the unpruned table's.
        calls = []
        dual = repset._dual_vector

        def spy(mask, matrix, p_card):
            calls.append(p_card)
            return dual(mask, matrix, p_card)

        monkeypatch.setattr(repset, "_dual_vector", spy)
        # Only live cells are built; at k 7-8, paths of 13-15 vertices keep
        # enough of them on the dual route.
        rng = random.Random(7)
        dual_targets = dual_yes = 0
        for _ in range(40):
            inst = random_instance(
                rng, graph_class="path", n=rng.randint(13, 15), m=rng.randint(3, 4),
                k=rng.randint(7, 8),
            )
            for k_star in range(2, inst.k + 1):
                before = len(calls)
                got, witness = solve_target_det(inst, k_star)
                if len(calls) == before:
                    continue
                dual_targets += 1
                assert got == solve_target_det(inst, k_star, use_represent=False)[0]
                if got:
                    dual_yes += 1
                    assert satisfies_target(inst, witness, k_star, LEX)
        assert dual_targets >= 10 and dual_yes >= 3


class TestTableInvariants:
    def test_exhaustive_tables_equal_brute_walk_enumeration(self):
        rng = random.Random(45)
        for _ in range(25):
            inst = random_instance(rng, graph_class="path", n=rng.randint(1, 6))
            k_star = rng.randint(1, inst.k)
            table = run_dp(inst, k_star, LEX, use_represent=False)
            expected = brute_families(table.aux, inst.k + 1)
            for (i, r, v), fam in expected.items():
                assert table.family(i, r, v) == fam, (i, r, v)
            for (i, r, e), fam in table.families.items():
                v = SINK if e == inst.n else (e + 1, e + 1)
                assert fam == expected.get((i, r, v), set()), (i, r, e)

    def test_set_cardinality_is_i_minus_r(self):
        rng = random.Random(46)
        for _ in range(20):
            inst = random_instance(rng, graph_class="path", n=rng.randint(1, 7))
            k_star = rng.randint(1, inst.k)
            table = run_dp(inst, k_star, LEX, use_represent=False)
            for (i, r, _v), fam in table.families.items():
                for mask in fam:
                    assert bin(mask).count("1") == i - r

    def test_pruned_cells_respect_size_bound(self):
        rng = random.Random(47)
        for _ in range(20):
            inst = random_instance(rng, graph_class="path", n=rng.randint(2, 8))
            k_star = rng.randint(1, inst.k)
            table = run_dp(inst, k_star, LEX, use_represent=True)
            budget = inst.k - k_star
            for (i, r, _v), fam in table.families.items():
                d = i - r
                if d <= budget:
                    assert len(fam) <= comb(budget, d), (i, r, len(fam))

    def test_pruned_table_is_subset_of_exhaustive(self):
        rng = random.Random(48)
        for _ in range(15):
            inst = random_instance(rng, graph_class="path", n=rng.randint(2, 7))
            k_star = rng.randint(1, inst.k)
            full = run_dp(inst, k_star, LEX, use_represent=False)
            pruned = run_dp(inst, k_star, LEX, use_represent=True)
            for key, fam in pruned.families.items():
                assert fam <= full.families.get(key, set()), key

    def test_pruned_sets_hold_lowest_copies(self):
        rng = random.Random(50)
        later_copies = 0
        for _ in range(20):
            inst = random_instance(rng, graph_class="path", n=rng.randint(4, 9), m=3)
            for k_star in range(3, inst.k + 1):
                table = run_dp(inst, k_star, LEX, use_represent=True)
                labels = table.aux.label_universe()
                for key, fam in table.families.items():
                    for mask in fam:
                        held = {lab for idx, lab in enumerate(labels) if mask >> idx & 1}
                        for lab in held:
                            if lab.copy_index > 1:
                                later_copies += 1
                                below = ArcLabel(lab.candidate, lab.copy_index - 1)
                                assert below in held, (key, sorted(held, key=repr))
        assert later_copies > 0

    def test_one_cell_per_layer_r_and_prefix_end(self):
        rng = random.Random(51)
        for _ in range(10):
            inst = random_instance(
                rng, graph_class="path", n=rng.randint(12, 16), m=3, k=rng.randint(3, 6)
            )
            for k_star in range(1, inst.k + 1):
                for use_represent in (True, False):
                    table = run_dp(inst, k_star, LEX, use_represent=use_represent)
                    bound = (inst.k + 1) * (k_star + 1) * (inst.n + 1)
                    assert len(table.families) <= bound, (inst.n, inst.k, k_star)

    def test_cells_on_complete_walks_pass_both_bounds(self):
        # Every cell an s-t walk with k_star + 1 unlabeled arcs and distinct
        # labels passes is live, so skipping the rest loses no walk.
        rng = random.Random(52)
        walks = 0
        for _ in range(30):
            inst = random_instance(rng, graph_class="path", n=rng.randint(2, 8))
            for k_star in range(1, inst.k + 1):
                aux = build_aux_graph(inst, k_star, LEX)
                for seq, labels in find_st_paths(aux, inst.k + 2):
                    tagged = [lab for lab in labels if lab is not None]
                    if len(tagged) != inst.k - k_star or len(set(tagged)) != len(tagged):
                        continue
                    walks += 1
                    r = 0
                    for i, (v, lab) in enumerate(zip(seq[1:], labels), 1):
                        r += lab is None
                        e = inst.n if v == SINK else v[0] - 1
                        assert reaches_sink(aux, i, r, e), (inst, k_star, seq, i)
        assert walks > 100

    def test_pruned_fill_builds_only_live_cells(self, monkeypatch):
        qs = []
        prune = detfpt.represent

        def spy(family, q, *args, **kwargs):
            qs.append(q)
            return prune(family, q, *args, **kwargs)

        monkeypatch.setattr(detfpt, "represent", spy)
        rng = random.Random(53)
        dead_in_full = 0
        for _ in range(30):
            inst = random_instance(rng, graph_class="path", n=rng.randint(2, 10))
            for k_star in range(1, inst.k + 1):
                table = run_dp(inst, k_star, LEX)
                for key in table.families:
                    assert reaches_sink(table.aux, *key), (inst, k_star, key)
                full = run_dp(inst, k_star, LEX, use_represent=False)
                dead_in_full += sum(not reaches_sink(full.aux, *key) for key in full.families)
        assert qs and min(qs) >= 0
        assert dead_in_full > 0, "no dead cell to skip, so the test shows nothing"

    def test_back_pointers_kept_only_for_kept_sets(self):
        inst = random_instance(random.Random(0), graph_class="path", n=8, m=3, k=6)
        k_star = 3
        full = run_dp(inst, k_star, LEX, use_represent=False)
        table = run_dp(inst, k_star, LEX, use_represent=True)
        assert any(
            len(fam) < len(full.families[key]) for key, fam in table.families.items()
        ), "represent pruned no cell, so the test shows nothing"
        assert set(table.back) == set(table.families)
        for key, fam in table.families.items():
            assert set(table.back[key]) == fam, key
        found, witness = solve_target_det(inst, k_star, LEX)
        assert found and satisfies_target(inst, witness, k_star, LEX)


class TestFrozenExamples:
    def test_single_vertex_path(self):
        inst = Instance(
            n=1, edges=(), graph_class="path", candidates=("a", "b"), p=0, k=1,
            weights=({0: 1},),
        )
        assert solve_target_det(inst, 1)[0]

    def test_two_rival_voters_cannot_give_p_one_district(self):
        # Both vertices back the rival, k = 2, so p cannot win anything and
        # the rival would need 2 wins with only k_star - 1 = 0 allowed.
        inst = Instance(
            n=2,
            edges=((0, 1),),
            graph_class="path",
            candidates=("a", "b"),
            p=0,
            k=2,
            weights=({1: 1}, {1: 1}),
        )
        assert not solve_target_det(inst, 1)[0]

    def test_alternating_voters(self):
        # p a p on a 3-path, k = 3, k_star = 2: singletons give p exactly 2
        # wins and the rival 1 = k_star - 1.
        inst = Instance(
            n=3,
            edges=((0, 1), (1, 2)),
            graph_class="path",
            candidates=("p", "a"),
            p=0,
            k=3,
            weights=({0: 1}, {1: 1}, {0: 1}),
        )
        yes, witness = solve_target_det(inst, 2)
        assert yes
        assert satisfies_target(inst, witness, 2)
        # but k_star = 3 is impossible: the middle vertex alone defeats p
        assert not solve_target_det(inst, 3)[0]
