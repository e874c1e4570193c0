"""Deterministic path solver: dynamic programming over the interval DAG.

State (i, r, v) covers the s-to-v walks in the interval DAG that use i + 1
vertices, r of whose arcs are unlabeled (the source arc plus one arc per
p-winning interval left behind).  The stored value is the family of label
sets collected along such walks, one label per rival-winning interval, with
walks repeating a label discarded outright.  A walk reaching the sink at
state (k + 1, k_star + 1) therefore left p winning exactly k_star districts
and handed out k - k_star labels, all distinct, which caps every rival at
the k_star - 1 available copies of its name.

Stored families grow combinatorially, so after computing each cell the
family is pruned to a q-representative subfamily with
q = (k - k_star) - (i - r), the number of labels a completion of the walk
still has to add.  Any completion that some discarded label set allowed is
allowed by a kept one, so the final yes/no answer is unchanged while cell
sizes stay below C(k - k_star, i - r).  Passing use_represent=False skips
the pruning, which is exponentially slower but handy for differential
checks.

Each stored label set remembers one generating predecessor, so a successful
run rebuilds a concrete interval chain, decodes it into a partition, and
re-validates the partition before returning it.
"""

from __future__ import annotations

from math import comb
from typing import Dict, List, Optional, Set, Tuple

from .auxgraph import SINK, SOURCE, AuxGraph, Vertex, build_aux_graph, decode_path
from .model import (
    DEFAULT_RULE,
    Instance,
    Partition,
    TieBreakRule,
    satisfies_target,
)
from .repset import represent

# back-pointer record: (predecessor vertex, predecessor r, label bit added or 0)
_BackRec = Tuple[Vertex, int, int]


class DpTable:
    """Families of label-set bitmasks indexed by (i, r, vertex).

    Cells never computed are empty families.  `back` keeps one generator per
    label set the cell keeps after pruning, and none for discarded sets.
    That is enough to rebuild a witness walk from any stored set: a kept
    set's generator is a set of the predecessor cell's stored family (the
    sets merged into a cell come only from stored families), so by
    induction on i every lookup _extract_witness makes is of a kept set,
    down to the base cells, whose single set {0} is always kept.
    """

    def __init__(self, aux: AuxGraph, use_represent: bool = True, seed: int = 0):
        self.aux = aux
        self.use_represent = use_represent
        self.seed = seed
        self.label_bit: Dict[object, int] = {
            lab: idx for idx, lab in enumerate(aux.label_universe())
        }
        self.universe_size = len(self.label_bit)
        self.candidate_bits: Dict[int, List[int]] = {}
        for lab, idx in self.label_bit.items():
            self.candidate_bits.setdefault(lab.candidate, []).append(idx)
        self.families: Dict[Tuple[int, int, Vertex], Set[int]] = {}
        self.back: Dict[Tuple[int, int, Vertex], Dict[int, _BackRec]] = {}
        self._cell_counter = 0

    def family(self, i: int, r: int, v: Vertex) -> Set[int]:
        return self.families.get((i, r, v), set())

    def fill_base(self) -> None:
        """Walks on two vertices: one unlabeled source arc into (1, j)."""
        for head in self.aux.successors(SOURCE):
            self.families[(1, 1, head)] = {0}
            self.back[(1, 1, head)] = {0: (SOURCE, 0, 0)}


def dp_step(table: DpTable, i: int, r: int, v: Vertex) -> Set[int]:
    """Compute, prune, store, and return the family at (i, r, v).

    Pulls from the already-filled layer i - 1: an unlabeled predecessor
    (p-winning interval) carries its sets over while decrementing nothing
    but r; a rival-winning predecessor extends each of its sets by one
    still-unused copy of the rival's label.
    """
    aux = table.aux
    merged: Set[int] = set()
    back: Dict[int, _BackRec] = {}
    for w in aux.predecessors(v):
        if w == SOURCE:
            continue
        winner = aux.interval_winner[w]
        if winner == aux.p:
            for mask in table.family(i - 1, r - 1, w):
                if mask not in merged:
                    merged.add(mask)
                    back[mask] = (w, r - 1, 0)
        else:
            prev = table.family(i - 1, r, w)
            if not prev:
                continue
            bits = table.candidate_bits.get(winner, [])
            for mask in prev:
                for bit_idx in bits:
                    bit = 1 << bit_idx
                    if mask & bit:
                        continue
                    new = mask | bit
                    if new not in merged:
                        merged.add(new)
                        back[new] = (w, r, bit)

    if table.use_represent and merged:
        q = (aux.k - aux.k_star) - (i - r)
        kept = represent(
            merged, q, table.universe_size, seed=table.seed * 1000003 + table._cell_counter
        )
        table._cell_counter += 1
    else:
        kept = merged

    if kept:
        table.families[(i, r, v)] = kept
        table.back[(i, r, v)] = {mask: back[mask] for mask in kept}
    return kept


def run_dp(
    inst: Instance,
    k_star: int,
    rule: TieBreakRule = DEFAULT_RULE,
    use_represent: bool = True,
    seed: int = 0,
) -> DpTable:
    """Fill the whole table up to the sink cell (k + 1, k_star + 1, t)."""
    aux = build_aux_graph(inst, k_star, rule)
    table = DpTable(aux, use_represent=use_represent, seed=seed)
    table.fill_base()
    k = aux.k
    for i in range(2, k + 2):
        # Only cells reachable from a nonempty previous layer can be nonempty.
        candidates = set()
        for (pi, pr, w), fam in table.families.items():
            if pi != i - 1 or not fam or w == SINK:
                continue
            for head in aux.successors(w):
                winner = aux.interval_winner[w]
                nr = pr + 1 if winner == aux.p else pr
                if nr <= min(i, aux.k_star + 1):
                    candidates.add((nr, head))
        for nr, head in sorted(candidates, key=_cell_key):
            dp_step(table, i, nr, head)
    return table


def _cell_key(cell: Tuple[int, Vertex]) -> Tuple[int, int, int, int]:
    nr, v = cell
    if v == SINK:
        return (nr, 1, 0, 0)
    return (nr, 0, v[0], v[1])


def _extract_witness(table: DpTable) -> Partition:
    aux = table.aux
    final = table.family(aux.k + 1, aux.k_star + 1, SINK)
    mask = min(final)
    i, r, v = aux.k + 1, aux.k_star + 1, SINK
    seq: List[Vertex] = [SINK]
    while v != SOURCE:
        w, r_prev, bit = table.back[(i, r, v)][mask]
        seq.append(w)
        mask ^= bit
        v, r, i = w, r_prev, i - 1
    seq.reverse()
    return decode_path(aux, seq)


def solve_target_det(
    inst: Instance,
    k_star: int,
    rule: TieBreakRule = DEFAULT_RULE,
    use_represent: bool = True,
    seed: int = 0,
) -> Tuple[bool, Optional[Partition]]:
    """Decide the exact-k_star question on a path instance, with witness.

    The returned partition is decoded from the DP's back-pointers and
    re-validated against the instance before being handed back.
    """
    table = run_dp(inst, k_star, rule, use_represent=use_represent, seed=seed)
    if not table.family(inst.k + 1, k_star + 1, SINK):
        return False, None
    part = _extract_witness(table)
    if not satisfies_target(inst, part, k_star, rule):
        raise RuntimeError("internal error: witness failed re-validation")
    return True, part
