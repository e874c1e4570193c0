"""Brute-force ground truth: enumerate every connected k-partition.

Two enumeration strategies, chosen by graph class:

cut_edges
    Paths and trees only.  A tree has n-1 edges and deleting any k-1 of them
    leaves exactly k connected components, and every connected k-partition
    arises from exactly one such deletion.  So the iterator is simply
    "choose k-1 of the n-1 edges".

recursive_general
    Any connected graph up to 16 vertices (bitmask sets).  Districts are
    produced in canonical order: the first district is a connected vertex set
    containing vertex 0, the next contains the smallest vertex not yet
    assigned, and so on.  Each partition is produced exactly once.

Both strategies are lazy generators, so callers can stop at the first
witness.  first_target, the one scan over them, answers a run of targets.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .exact import rule_ordered_weights
from .model import (
    DEFAULT_RULE,
    Instance,
    Partition,
    TieBreakRule,
    adjacency_masks,
    make_partition,
    mask_vertices,
)

GENERAL_VERTEX_CAP = 16


def _components_after_cuts(n: int, edges, kept: List[int]) -> List[Set[int]]:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for idx in kept:
        u, v = edges[idx]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    comps: Dict[int, Set[int]] = {}
    for v in range(n):
        comps.setdefault(find(v), set()).add(v)
    return list(comps.values())


def _enumerate_cut_edges(inst: Instance, k: int) -> Iterator[Partition]:
    edges = list(inst.edges)
    if len(edges) != inst.n - 1:
        raise ValueError("cut_edges strategy needs a tree")
    all_idx = range(len(edges))
    for cut in combinations(all_idx, k - 1):
        cut_set = set(cut)
        kept = [i for i in all_idx if i not in cut_set]
        comps = _components_after_cuts(inst.n, edges, kept)
        yield make_partition(comps)


def connected_subsets_with_seed(adj_masks: List[int], pool: int, seed: int) -> Iterator[int]:
    """All connected subsets of `pool` (a bitmask) that contain `seed`.

    Enumeration never repeats a subset: at each step one frontier vertex is
    either committed to the subset or excluded from the rest of this branch.
    """
    seed_bit = 1 << seed

    def rec(cur: int, frontier: int, banned: int) -> Iterator[int]:
        yield cur
        avail = frontier & ~banned
        while avail:
            bit = avail & -avail
            avail ^= bit
            v = bit.bit_length() - 1
            new_frontier = (frontier | (adj_masks[v] & pool & ~cur)) & ~bit
            yield from rec(cur | bit, new_frontier & ~banned, banned)
            banned |= bit

    first_frontier = adj_masks[seed] & pool & ~seed_bit
    yield from rec(seed_bit, first_frontier, 0)


def _enumerate_recursive(inst: Instance, k: int) -> Iterator[Partition]:
    if inst.n > GENERAL_VERTEX_CAP:
        raise ValueError(
            f"general-graph enumeration capped at {GENERAL_VERTEX_CAP} vertices, got n={inst.n}"
        )
    adj_masks = adjacency_masks(inst.n, inst.edges)
    full = (1 << inst.n) - 1

    def is_connected_mask(mask: int) -> bool:
        start = mask & -mask
        seen = start
        stack = [start.bit_length() - 1]
        while stack:
            u = stack.pop()
            fresh = adj_masks[u] & mask & ~seen
            while fresh:
                bit = fresh & -fresh
                fresh ^= bit
                seen |= bit
                stack.append(bit.bit_length() - 1)
        return seen == mask

    def rec(pool: int, k_left: int) -> Iterator[List[int]]:
        if k_left == 1:
            if is_connected_mask(pool):
                yield [pool]
            return
        if pool.bit_count() < k_left:
            return
        seed = (pool & -pool).bit_length() - 1
        for district in connected_subsets_with_seed(adj_masks, pool, seed):
            rest = pool & ~district
            if rest.bit_count() < k_left - 1:
                continue
            for tail in rec(rest, k_left - 1):
                yield [district, *tail]

    for masks in rec(full, k):
        yield make_partition([mask_vertices(m) for m in masks])


def enumerate_partitions(
    inst: Instance, k: Optional[int] = None, strategy: Optional[str] = None
) -> Iterator[Partition]:
    """Lazily yield every partition of the instance graph into k connected districts.

    strategy defaults to cut_edges for paths and trees and recursive_general
    otherwise.  k defaults to inst.k.
    """
    k = inst.k if k is None else k
    if not (1 <= k <= inst.n):
        raise ValueError(f"k={k} outside 1..n={inst.n}")
    if strategy is None:
        strategy = "cut_edges" if inst.graph_class in ("path", "tree") else "recursive_general"
    if strategy == "cut_edges":
        return _enumerate_cut_edges(inst, k)
    if strategy == "recursive_general":
        return _enumerate_recursive(inst, k)
    raise ValueError(f"unknown strategy {strategy!r}")


def first_target(
    inst: Instance, targets: Iterable[int], rule: TieBreakRule = DEFAULT_RULE
) -> Tuple[Optional[int], Optional[Partition]]:
    """Smallest k_star in `targets` that a partition achieves, and the first such one.

    A partition achieves k_star = p's win count when every rival wins at
    most k_star - 1, so one score settles every target.  Keeping the first
    partition at the smallest target achieved so far, then wanting only
    smaller ones, gives the per-target loop's first yes and its witness,
    since each per-target scan visits the same order.  The scan stops when
    no wanted target is left; (None, None) when no target is achieved.
    A district's winner is the first maximal column sum of its vertices'
    rows of rule_ordered_weights: rule.pick of the tied set, as argued there.
    """
    order, table = rule_ordered_weights(inst, rule)
    rows = table.tolist()
    wanted = set(targets)
    best: Optional[int] = None
    witness: Optional[Partition] = None
    for part in enumerate_partitions(inst):
        wins = [0] * inst.m
        for dist in part.districts:
            totals = [sum(col) for col in zip(*[rows[v] for v in dist.vertices])]
            wins[order[totals.index(max(totals))]] += 1
        wp = wins[inst.p]
        if wp in wanted and all(w < wp for c, w in enumerate(wins) if c != inst.p):
            best, witness = wp, part
            wanted = {ks for ks in wanted if ks < wp}
            if not wanted:
                break
    return best, witness


def solve_target_oracle(
    inst: Instance, k_star: int, rule: TieBreakRule = DEFAULT_RULE
) -> Tuple[bool, Optional[Partition]]:
    """Is there a partition where p wins exactly k_star districts and every
    other candidate at most k_star - 1?  The first one found is the witness."""
    if not (1 <= k_star <= inst.k):
        raise ValueError(f"k_star={k_star} outside 1..k={inst.k}")
    achieved, part = first_target(inst, (k_star,), rule)
    return achieved is not None, part

