"""Model basics: winners, tie-breaking, validation, serialization."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from conftest import path_edges, random_instance
from gerrysolve.model import (
    DEFAULT_RULE,
    Instance,
    TieBreakRule,
    classify_graph,
    district_winner,
    evaluate_partition,
    gm_to_wgm,
    instance_from_json,
    instance_to_json,
    make_partition,
    partition_problems,
    satisfies_target,
    validate_partition,
)


def two_vertex_instance():
    # Vertex 0 backs candidate 0 with 3 votes, vertex 1 backs candidate 1 with 3.
    return Instance(
        n=2,
        edges=((0, 1),),
        graph_class="path",
        candidates=("a", "b"),
        p=0,
        k=1,
        weights=({0: 3}, {1: 3}),
    )


class TestTieBreak:
    def test_lex_min_picks_smallest_index(self):
        rule = TieBreakRule("lex_min_candidate")
        assert rule.pick([2, 1, 3], p=3) == 1

    def test_prefer_p_picks_p_when_tied(self):
        rule = TieBreakRule("prefer_p_then_lex")
        assert rule.pick([2, 1, 3], p=3) == 3

    def test_prefer_p_falls_back_to_lex(self):
        rule = TieBreakRule("prefer_p_then_lex")
        assert rule.pick([2, 1], p=0) == 1

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            TieBreakRule("coin_flip")

    def test_determinism_on_random_tied_sets(self):
        rng = random.Random(0xA11CE)
        for _ in range(200):
            tied = rng.sample(range(10), rng.randint(1, 10))
            p = rng.randrange(10)
            for name in ("lex_min_candidate", "prefer_p_then_lex"):
                rule = TieBreakRule(name)
                assert rule.pick(tuple(tied), p) == rule.pick(tuple(reversed(tied)), p)

    @pytest.mark.parametrize("name", ["lex_min_candidate", "prefer_p_then_lex"])
    def test_strict_sweep_in_order_lands_on_pick(self, name):
        # exact.enumerate_districts visits candidates in `order` and replaces
        # the running best only on a strict >; that must be pick's choice,
        # and pick must keep its documented meaning.
        rule = TieBreakRule(name)
        rng = random.Random(12)
        for _ in range(500):
            m = rng.randint(1, 6)
            p = rng.randrange(m)
            totals = [rng.randint(0, 3) for _ in range(m)]
            best, swept = -1, None
            for c in rule.order(range(m), p):
                if totals[c] > best:
                    best, swept = totals[c], c
            tied = [c for c in range(m) if totals[c] == max(totals)]
            assert swept == rule.pick(tied, p)
            assert swept == (p if name == "prefer_p_then_lex" and p in tied else min(tied))


class TestDistrictWinner:
    def test_whole_graph_tie_goes_lex_min(self):
        inst = two_vertex_instance()
        part = make_partition([{0, 1}])
        assert district_winner(inst, part.districts[0]) == 0

    def test_whole_graph_tie_prefer_p(self):
        inst = two_vertex_instance()
        inst2 = replace(inst, p=1)
        part = make_partition([{0, 1}])
        assert district_winner(inst2, part.districts[0], TieBreakRule("prefer_p_then_lex")) == 1

    def test_missing_weight_counts_zero(self):
        inst = Instance(
            n=1,
            edges=(),
            graph_class="path",
            candidates=("a", "b"),
            p=1,
            k=1,
            weights=({0: 2},),
        )
        assert district_winner(inst, frozenset({0})) == 0


class TestPartitionValidation:
    def test_valid_split(self):
        inst = two_vertex_instance()
        inst2 = replace(inst, k=2)
        part = make_partition([{0}, {1}])
        assert validate_partition(inst2, part)

    def test_wrong_count_detected(self):
        inst = two_vertex_instance()
        part = make_partition([{0}, {1}])
        assert any("expected k=1" in msg for msg in partition_problems(inst, part))

    def test_disconnected_district_detected(self):
        inst = random_instance(random.Random(1), graph_class="path", n=3, m=2, k=2)
        part = make_partition([{0, 2}, {1}])
        assert any("not connected" in msg for msg in partition_problems(inst, part))

    def test_overlap_and_missing_detected(self):
        inst = random_instance(random.Random(2), graph_class="path", n=3, m=2, k=2)
        part = make_partition([{0, 1}, {1}])
        msgs = "\n".join(partition_problems(inst, part))
        assert "appears in districts" in msgs and "not covered" in msgs

    def test_replaced_edges_are_the_ones_checked(self):
        # A copy with new edges must not reuse the adjacency of the original.
        inst = random_instance(random.Random(3), graph_class="path", n=3, m=2, k=2)
        part = make_partition([{0, 1}, {2}])
        assert partition_problems(inst, part) == []
        star = replace(inst, edges=((0, 2), (1, 2)), graph_class="tree")
        assert partition_problems(star, part) == ["district 0 is not connected"]

    def test_evaluate_raises_on_invalid(self):
        inst = two_vertex_instance()
        with pytest.raises(ValueError):
            evaluate_partition(inst, make_partition([{0}]))


class TestEvaluate:
    def test_two_singletons_tie_no_strict_winner(self):
        inst = two_vertex_instance()
        inst2 = replace(inst, k=2)
        wins, strict = evaluate_partition(inst2, make_partition([{0}, {1}]))
        assert wins == {0: 1, 1: 1}
        assert not strict

    def test_single_district_strict(self):
        inst = two_vertex_instance()
        wins, strict = evaluate_partition(inst, make_partition([{0, 1}]))
        assert wins == {0: 1, 1: 0}
        assert strict

    def test_satisfies_target(self):
        inst = two_vertex_instance()
        part = make_partition([{0, 1}])
        assert satisfies_target(inst, part, 1)
        inst2 = replace(inst, k=2)
        assert not satisfies_target(inst2, make_partition([{0}, {1}]), 1)

    def test_m_equals_one_always_strict(self):
        inst = Instance(
            n=3,
            edges=path_edges(3),
            graph_class="path",
            candidates=("solo",),
            p=0,
            k=2,
            weights=({0: 1}, {0: 1}, {0: 1}),
        )
        wins, strict = evaluate_partition(inst, make_partition([{0, 1}, {2}]))
        assert wins == {0: 2}
        assert strict


class TestInstanceValidation:
    def test_path_class_requires_index_order(self):
        inst = Instance(
            n=3,
            edges=((0, 2), (1, 2)),
            graph_class="path",
            candidates=("a",),
            p=0,
            k=1,
            weights=({0: 1}, {0: 1}, {0: 1}),
        )
        with pytest.raises(ValueError, match="index-order"):
            inst.validate()
        # Same edges honestly labeled as a tree pass.
        inst2 = replace(inst, graph_class="tree")
        inst2.validate()

    def test_classify(self):
        assert classify_graph(4, path_edges(4)) == "path"
        assert classify_graph(3, ((0, 2), (1, 2))) == "tree"
        assert classify_graph(3, ((0, 1), (1, 2), (0, 2))) == "general"
        # a relabeled path is a tree, not a "path" in our strict sense
        assert classify_graph(3, ((0, 2), (2, 1))) == "tree"

    def test_k_out_of_range(self):
        inst = two_vertex_instance()
        bad = replace(inst, k=3)
        with pytest.raises(ValueError):
            bad.validate()

    def test_nonpositive_weight_rejected(self):
        inst = two_vertex_instance()
        bad = replace(inst, weights=({0: 0}, {1: 3}))
        with pytest.raises(ValueError):
            bad.validate()


class TestGmConversion:
    def test_sparse_weights(self):
        inst = gm_to_wgm(
            n=3,
            edges=path_edges(3),
            approvals=[0, 1, 0],
            weight=[2, 5, 1],
            p=0,
            k=2,
        )
        assert inst.weights == ({0: 2}, {1: 5}, {0: 1})
        assert inst.graph_class == "path"

    def test_rejects_zero_weight(self):
        with pytest.raises(ValueError):
            gm_to_wgm(2, ((0, 1),), [0, 1], [1, 0], p=0, k=1)


class TestJsonRoundTrip:
    def test_fixed_document(self):
        inst = two_vertex_instance()
        text = instance_to_json(inst)
        back = instance_from_json(text)
        assert back == inst
        assert instance_to_json(back) == text

    def test_round_trip_random(self):
        rng = random.Random(0xBEEF)
        for _ in range(60):
            gclass = rng.choice(["path", "tree", "general"])
            inst = random_instance(rng, graph_class=gclass)
            back = instance_from_json(instance_to_json(inst))
            assert back.n == inst.n and back.k == inst.k and back.p == inst.p
            assert set(back.edges) == set(inst.edges)
            assert back.weights == inst.weights
            assert instance_to_json(back) == instance_to_json(inst)

    def test_unknown_candidate_in_weights_rejected(self):
        text = instance_to_json(two_vertex_instance()).replace('"b": 3', '"zz": 3')
        with pytest.raises(ValueError, match="unknown candidate"):
            instance_from_json(text)

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError, match="missing keys"):
            instance_from_json('{"n": 1}')
