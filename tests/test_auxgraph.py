"""Interval DAG: counts, arc multiplicities, acyclicity, path equivalence."""

from __future__ import annotations

import math
import random
import tracemalloc
from collections import Counter

import pytest

from conftest import find_st_paths, has_qualifying_path, random_instance
from gerrysolve.auxgraph import (
    SINK,
    SOURCE,
    ArcLabel,
    build_aux_graph,
    decode_path,
    dump_arcs,
)
from gerrysolve.model import Instance, TieBreakRule, validate_partition
from gerrysolve.oracle import solve_target_oracle

LEX = TieBreakRule("lex_min_candidate")


def single_candidate_path(n, k):
    return Instance(
        n=n,
        edges=tuple((i, i + 1) for i in range(n - 1)),
        graph_class="path",
        candidates=("only",),
        p=0,
        k=k,
        weights=tuple({0: 1} for _ in range(n)),
    )


class TestShape:
    def test_vertex_count_formula(self):
        rng = random.Random(21)
        for n in range(1, 26):
            inst = random_instance(rng, graph_class="path", n=n, k=rng.randint(1, n))
            aux = build_aux_graph(inst, rng.randint(1, inst.k))
            assert aux.vertex_count == math.comb(n, 2) + n + 2
            assert len(aux.vertices) == aux.vertex_count

    def test_is_dag_topological_by_interval_start(self):
        rng = random.Random(22)
        for _ in range(25):
            inst = random_instance(rng, graph_class="path", n=rng.randint(1, 9))
            aux = build_aux_graph(inst, rng.randint(1, inst.k))

            def rank(v):
                if v == SOURCE:
                    return (0, 0)
                if v == SINK:
                    return (aux.n + 2, 0)
                return (v[0], v[1])

            for tail, head, _ in aux.arcs:
                assert rank(tail) < rank(head), f"arc {tail}->{head} breaks the layer order"

    def test_all_p_arc_count_frozen(self):
        # n=3, one candidate: every interval is won by p so every arc is a
        # single unlabeled copy.  Hand count: 3 source arcs, interior
        # (1,1)->(2,2),(2,3); (1,2)->(3,3); (2,2)->(3,3); 3 sink arcs = 10.
        aux = build_aux_graph(single_candidate_path(3, 2), 1)
        assert len(aux.arcs) == 10
        assert all(lab is None for _, _, lab in aux.arcs)

    def test_rival_arc_counts_frozen(self):
        # n=2, p=0 but both vertices back candidate 1, so every interval is
        # won by the rival.  With k_star=2 each rival arc has one labeled
        # copy; with k_star=1 rival intervals have no outgoing arcs at all.
        inst = Instance(
            n=2,
            edges=((0, 1),),
            graph_class="path",
            candidates=("a", "b"),
            p=0,
            k=2,
            weights=({1: 2}, {1: 2}),
        )
        aux2 = build_aux_graph(inst, 2)
        assert len(aux2.arcs) == 5
        assert sum(1 for _, _, lab in aux2.arcs if lab is not None) == 3
        aux1 = build_aux_graph(inst, 1)
        assert len(aux1.arcs) == 2
        assert {tail for tail, _, _ in aux1.arcs} == {SOURCE}

    def test_parallel_copy_multiplicity(self):
        rng = random.Random(23)
        for _ in range(20):
            inst = random_instance(rng, graph_class="path", n=rng.randint(1, 8), m=rng.randint(1, 4))
            k_star = rng.randint(1, inst.k)
            aux = build_aux_graph(inst, k_star)
            per_pair = Counter()
            labels_of = {}
            for tail, head, lab in aux.arcs:
                per_pair[(tail, head)] += 1
                labels_of.setdefault((tail, head), []).append(lab)
            for (tail, head), count in per_pair.items():
                if tail == SOURCE:
                    assert count == 1 and labels_of[(tail, head)] == [None]
                    continue
                w = aux.interval_winner[tail]
                if w == aux.p:
                    assert count == 1 and labels_of[(tail, head)] == [None]
                else:
                    assert count == k_star - 1
                    assert labels_of[(tail, head)] == [
                        ArcLabel(w, idx) for idx in range(1, k_star)
                    ]

    def test_rival_interior_out_degree(self):
        # A rival-won interval (i, j) with j < n has (n - j) successors among
        # interval vertices, each with k_star - 1 copies.
        rng = random.Random(24)
        for _ in range(10):
            inst = random_instance(rng, graph_class="path", n=rng.randint(2, 8), m=rng.randint(2, 4))
            k_star = rng.randint(1, inst.k)
            aux = build_aux_graph(inst, k_star)
            outgoing = Counter()
            for tail, head, _ in aux.arcs:
                if tail not in (SOURCE, SINK) and head != SINK:
                    outgoing[tail] += 1
            for (i, j), w in aux.interval_winner.items():
                if w != aux.p and j < aux.n:
                    assert outgoing[(i, j)] == (aux.n - j) * (k_star - 1)

    def test_label_universe_size(self):
        rng = random.Random(25)
        for _ in range(10):
            inst = random_instance(rng, graph_class="path", n=rng.randint(1, 6), m=rng.randint(1, 5))
            k_star = rng.randint(1, inst.k)
            aux = build_aux_graph(inst, k_star)
            universe = aux.label_universe()
            assert len(universe) == (k_star - 1) * (inst.m - 1)
            assert len(set(universe)) == len(universe)
            used = {lab for _, _, lab in aux.arcs if lab is not None}
            assert used <= set(universe)

    def test_non_path_rejected(self):
        inst = random_instance(random.Random(26), graph_class="tree", n=6)
        if inst.graph_class == "path":  # rare relabel, skip silently
            return
        with pytest.raises(ValueError, match="path instances"):
            build_aux_graph(inst, 1)


def stored_arcs(aux):
    """The arc list as an explicit construction writes it out: s arcs, then
    each interval's heads by ascending end, each head once per label copy."""
    arcs = [(SOURCE, (1, j), None) for j in range(1, aux.n + 1)]
    for i in range(1, aux.n + 1):
        for j in range(i, aux.n + 1):
            w = aux.interval_winner[(i, j)]
            labels = [None] if w == aux.p else [ArcLabel(w, c) for c in range(1, aux.k_star)]
            heads = [(j + 1, r) for r in range(j + 1, aux.n + 1)] if j < aux.n else [SINK]
            arcs.extend(((i, j), head, lab) for head in heads for lab in labels)
    return arcs


def dedup(seq):
    return list(dict.fromkeys(seq))


class TestClosedForm:
    def test_neighbours_match_the_arc_list(self):
        # The arcs property is built from successors(), so it is checked
        # against an explicit construction first; neighbour lists are then
        # the in-order dedup of that list, s, t and dead intervals included.
        rng = random.Random(30)
        dead_seen = 0
        for n in range(1, 11):
            for _ in range(3):
                inst = random_instance(rng, graph_class="path", n=n, m=rng.randint(1, 4))
                for rule in (LEX, TieBreakRule("prefer_p_then_lex")):
                    for k_star in range(1, inst.k + 1):
                        aux = build_aux_graph(inst, k_star, rule)
                        arcs = aux.arcs
                        assert isinstance(arcs, list) and arcs == stored_arcs(aux)
                        for v in aux.vertices:
                            assert aux.successors(v) == dedup(h for t, h, _ in arcs if t == v)
                            assert aux.predecessors(v) == dedup(t for t, h, _ in arcs if h == v)
                            dead_seen += v not in (SOURCE, SINK) and not aux.successors(v)
        assert dead_seen > 50

    def test_no_arcs_stored_on_a_long_path(self):
        # Stored arcs would be about 4.35M tuples here (about 1 GB); the
        # winner table and one neighbour list at a time stay small.
        inst = random_instance(random.Random(31), graph_class="path", n=200, m=4, k=12)
        tracemalloc.start()
        try:
            aux = build_aux_graph(inst, 5)
            for i in range(1, aux.n + 1):
                for j in range(i, aux.n + 1):
                    aux.successors((i, j))
                    aux.predecessors((i, j))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, peak


class TestDecode:
    def test_decode_simple_chain(self):
        aux = build_aux_graph(single_candidate_path(5, 3), 1)
        part = decode_path(aux, [SOURCE, (1, 2), (3, 3), (4, 5), SINK])
        assert validate_partition(single_candidate_path(5, 3), part)
        assert sorted(tuple(sorted(d.vertices)) for d in part.districts) == [
            (0, 1),
            (2,),
            (3, 4),
        ]

    def test_decode_rejects_gap(self):
        aux = build_aux_graph(single_candidate_path(5, 2), 1)
        with pytest.raises(ValueError, match="chain breaks"):
            decode_path(aux, [SOURCE, (1, 2), (4, 5), SINK])

    def test_decode_rejects_short_cover(self):
        aux = build_aux_graph(single_candidate_path(5, 2), 1)
        with pytest.raises(ValueError, match="does not reach"):
            decode_path(aux, [SOURCE, (1, 2), (3, 4), SINK])

    def test_every_st_path_decodes_to_valid_partition(self):
        rng = random.Random(27)
        for _ in range(10):
            inst = random_instance(rng, graph_class="path", n=rng.randint(1, 6))
            aux = build_aux_graph(inst, rng.randint(1, inst.k))
            for seq, _ in find_st_paths(aux, inst.k + 2):
                part = decode_path(aux, seq)
                assert validate_partition(inst, part)
                assert len(part.districts) == inst.k


class TestPathEquivalence:
    def test_matches_oracle_exhaustively(self):
        # The reformulation itself: qualifying s-t path exists iff the oracle
        # finds a partition with p at exactly k_star and rivals below it.
        rng = random.Random(28)
        checked = yes_cases = 0
        for _ in range(60):
            n = rng.randint(1, 6)
            inst = random_instance(rng, graph_class="path", n=n, m=rng.randint(1, 4), wmax=3)
            for k_star in range(1, inst.k + 1):
                aux = build_aux_graph(inst, k_star, LEX)
                expected = solve_target_oracle(inst, k_star, LEX)[0]
                assert has_qualifying_path(aux) == expected
                checked += 1
                yes_cases += expected
        assert checked > 100 and yes_cases > 15

    def test_matches_oracle_prefer_p_rule(self):
        rng = random.Random(29)
        rule = TieBreakRule("prefer_p_then_lex")
        for _ in range(15):
            inst = random_instance(rng, graph_class="path", n=rng.randint(1, 5), wmax=2)
            for k_star in range(1, inst.k + 1):
                aux = build_aux_graph(inst, k_star, rule)
                assert has_qualifying_path(aux) == solve_target_oracle(inst, k_star, rule)[0]


class TestDump:
    def test_dump_frozen_single_candidate(self):
        aux = build_aux_graph(single_candidate_path(2, 2), 1)
        assert dump_arcs(aux) == (
            "s -> v(1,1) [-]\n"
            "s -> v(1,2) [-]\n"
            "v(1,1) -> v(2,2) [-]\n"
            "v(1,2) -> t [-]\n"
            "v(2,2) -> t [-]\n"
        )

    def test_dump_shows_labels(self):
        inst = Instance(
            n=2,
            edges=((0, 1),),
            graph_class="path",
            candidates=("a", "b"),
            p=0,
            k=2,
            weights=({1: 2}, {1: 2}),
        )
        text = dump_arcs(build_aux_graph(inst, 2))
        assert "v(1,1) -> v(2,2) [1,1]" in text
        assert "v(2,2) -> t [1,1]" in text
