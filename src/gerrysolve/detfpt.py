"""Deterministic path solver: dynamic programming over the interval DAG.

The s-to-v walks in the interval DAG that use i + 1 vertices, r of whose
arcs are unlabeled (the source arc plus one arc per p-winning interval left
behind), carry a family of label sets: one label per rival-winning
interval, with walks repeating a label discarded outright.  A walk reaching
the sink with (i, r) = (k + 1, k_star + 1) therefore left p winning exactly
k_star districts and handed out k - k_star labels, all distinct, which caps
every rival at the k_star - 1 available copies of its name.

Every arc into the vertex (a, b) leaves s when a = 1 and otherwise a tail
(h, a - 1), carrying that tail's tag, so the family at (i, r, (a, b)) does
not depend on b.  The table keeps one cell (i, r, e) per prefix end e: the
family of every vertex (e + 1, b), and for e = n the sink's.  It merges,
over the tails (h, e), cell (i - 1, r - 1, h - 1) when p wins (h, e) and
cell (i - 1, r, h - 1), each set extended by a copy of the rival's label,
when a rival does.

Each cell is pruned to a q-representative subfamily with
q = (k - k_star) - (i - r), the number of labels a completion of the walk
still has to add: any completion that a discarded set allowed is allowed
by a kept one, so the answer is unchanged while cells stay below
C(k - k_star, i - r) sets.

With pruning on, a rival-won interval adds only the rival's lowest unused
copy, so each stored set holds each rival c's copies as a prefix
(c, 1) .. (c, j).  No answer is lost.  Renumbering each rival's copies
along a walk with distinct labels makes it take lowest copies, so
canonical walks exist whenever walks do.  Pruning keeps them: let a suffix
complete a canonical set A, adding d_c wins for rival c, hence the copies
B = {(c, |A_c| + 1 .. |A_c| + d_c)} with |B| = q.  A avoids B, so some kept
A' does, and being canonical, |A'_c| <= |A_c| whenever d_c > 0; the
suffix's first step extends A' within the k_star - 1 copies into a
canonical set of the next cell that the rest of the suffix completes.
Induct over the suffix's cells.  use_represent=False skips both the
pruning and the symmetry break, handing out every free copy in turn: far
slower, but equal to brute-force walk enumeration, which tests check the
fast table against.

Each stored label set remembers one generating predecessor, so a successful
run rebuilds a concrete interval chain, decodes it into a partition, and
re-validates the partition before returning it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .auxgraph import SINK, SOURCE, AuxGraph, Vertex, build_aux_graph, decode_path
from .model import DEFAULT_RULE, Instance, Partition, TieBreakRule, satisfies_target
from .repset import represent

# back-pointer record: (start h of the interval (h, e) left behind,
# predecessor r, label bit added or 0)
_BackRec = Tuple[int, int, int]


class DpTable:
    """Families of label-set bitmasks by (i, r, prefix end e); see above.

    family(i, r, v) looks a vertex up by its prefix end.  Cells never
    computed are empty families.  `back` keeps one generator (h, r', bit)
    per set a cell keeps after pruning and none for discarded sets: the
    walk left (h, e) behind, came from cell (i - 1, r', h - 1), and added
    `bit`; h = 0 in the base cell stands for s.  That is enough for
    _extract_witness: a kept set's generator is a stored set of the
    predecessor cell, so by induction on i every lookup it makes is of a
    kept set, down to the base cell's always-kept {0}.
    """

    def __init__(self, aux: AuxGraph, use_represent: bool = True, seed: int = 0):
        self.aux = aux
        self.use_represent = use_represent
        self.seed = seed
        universe = aux.label_universe()
        self.universe_size = len(universe)
        # each rival's label bits in copy order, lowest copy first
        self.copy_bits: Dict[int, List[int]] = {}
        for idx, lab in enumerate(universe):
            self.copy_bits.setdefault(lab.candidate, []).append(1 << idx)
        self.families: Dict[Tuple[int, int, int], Set[int]] = {}
        self.back: Dict[Tuple[int, int, int], Dict[int, _BackRec]] = {}
        self._cell_counter = 0

    def family(self, i: int, r: int, v: Vertex) -> Set[int]:
        e = self.aux.n if v == SINK else v[0] - 1
        return self.families.get((i, r, e), set())

    def fill_base(self) -> None:
        """Walks on two vertices: one unlabeled source arc into (1, b)."""
        self.families[(1, 1, 0)] = {0}
        self.back[(1, 1, 0)] = {0: (0, 0, 0)}


def dp_step(table: DpTable, i: int, r: int, e: int) -> Set[int]:
    """Compute, prune, store, and return the family at (i, r, e).

    Pulls from the already-filled layer i - 1 over the tails (h, e): a
    p-won tail carries the sets of (i - 1, r - 1, h - 1) over unchanged; a
    rival-won tail extends each set of (i - 1, r, h - 1) by an unused copy
    of the rival's label, the lowest one when pruning is on and each in
    turn when it is off.  A rival-won interval with k_star = 1 has no
    copies and so adds nothing, which is the closed form's liveness rule.
    The tails start at h = i - 1: a cell of layer i - 1 has prefix end
    >= i - 2, so earlier tails only look up cells that never exist.
    """
    aux = table.aux
    families = table.families
    lowest_only = table.use_represent
    merged: Set[int] = set()
    back: Dict[int, _BackRec] = {}
    for h, winner in enumerate(aux.tails[e][i - 2:], i - 1):
        if winner == aux.p:
            for mask in families.get((i - 1, r - 1, h - 1), ()):
                if mask not in merged:
                    merged.add(mask)
                    back[mask] = (h, r - 1, 0)
            continue
        prev = families.get((i - 1, r, h - 1))
        if not prev:
            continue
        bits = table.copy_bits.get(winner, ())
        for mask in prev:
            for bit in bits:
                if mask & bit:
                    continue
                new = mask | bit
                if new not in merged:
                    merged.add(new)
                    back[new] = (h, r, bit)
                if lowest_only:
                    break

    if table.use_represent and merged:
        q = (aux.k - aux.k_star) - (i - r)
        kept = represent(
            merged, q, table.universe_size, seed=table.seed * 1000003 + table._cell_counter
        )
        table._cell_counter += 1
    else:
        kept = merged

    if kept:
        families[(i, r, e)] = kept
        table.back[(i, r, e)] = {mask: back[mask] for mask in kept}
    return kept


def run_dp(
    inst: Instance,
    k_star: int,
    rule: TieBreakRule = DEFAULT_RULE,
    use_represent: bool = True,
    seed: int = 0,
) -> DpTable:
    """Fill the whole table up to the sink cell (k + 1, k_star + 1, n).

    Layer i covers i - 1 nonempty intervals before the walk's last vertex,
    so its prefix ends start at i - 1.
    """
    aux = build_aux_graph(inst, k_star, rule)
    table = DpTable(aux, use_represent=use_represent, seed=seed)
    table.fill_base()
    for i in range(2, aux.k + 2):
        for r in range(1, min(i, aux.k_star + 1) + 1):
            for e in range(i - 1, aux.n + 1):
                dp_step(table, i, r, e)
    return table


def _extract_witness(table: DpTable) -> Partition:
    aux = table.aux
    i, r, e = aux.k + 1, aux.k_star + 1, aux.n
    mask = min(table.families[(i, r, e)])
    seq: List[Vertex] = [SINK]
    while i > 1:
        h, r, bit = table.back[(i, r, e)][mask]
        seq.append((h, e))
        mask ^= bit
        i, e = i - 1, h - 1
    seq.append(SOURCE)
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
