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
when a rival does: one source per h.  The fill pushes, reading only stored
cells: each (i - 1, r', h - 1), in ascending h, goes along every (h, e) to
the cell that interval feeds.  A target thus gets its sources in the
ascending-h order of a pull over its tails, and merges the same sets in
the same order, keeping the same first generator for each.

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
Induct over the suffix's cells.

With pruning on, cells that cannot reach the sink are never built.  Let
an s-t walk counted at (k + 1, k_star + 1) pass cell (i, r, e).  Its other
k + 1 - i arcs hold the k_star + 1 - r unlabeled ones still missing, so
k_star + 1 - r <= k + 1 - i, which is q >= 0.  For i <= k its vertex
(e + 1, b) is the i-th of the walk's k intervals, and intervals i..k are
nonempty and fit in e + 1..n, so n - e >= k + 1 - i; at i = k + 1 it is t
itself, so e = n.  A cell failing either bound is on no such walk, so
skipping it loses nothing; represent would empty those with q < 0 anyway.
use_represent=False skips the pruning, the symmetry break and this skip,
handing out every free copy in turn: far slower, but equal to brute-force
walk enumeration, which tests check the fast table against.

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
    computed, the dead cells pruning skips among them, read as empty.
    `back` keeps one generator (h, r', bit) per set a cell keeps after
    pruning and none for discarded sets: the walk left (h, e) behind, came
    from cell (i - 1, r', h - 1), and added `bit`; h = 0 in the base cell
    stands for s.  That is enough for _extract_witness: a kept set's
    generator is a stored set of the predecessor cell, so by induction on i
    every lookup it makes is of a kept set, down to the base cell's {0}.
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


def dp_step(table: DpTable, i: int) -> None:
    """Compute, prune and store every cell of layer i by pushing the stored
    cells of layer i - 1; see the module docstring.  Those have prefix ends
    >= i - 2, so h starts at i - 1.  A rival-won interval with k_star = 1
    has no copies and so adds nothing, which is the closed form's liveness
    rule.  Targets are pruned and stored in (r, e) order.
    """
    aux = table.aux
    n, k, k_star, p, tails = aux.n, aux.k, aux.k_star, aux.p, aux.tails
    families = table.families
    pruned = table.use_represent
    lo, hi = 0, n
    if pruned:  # prefix ends with room left for the k + 1 - i intervals to come
        lo, hi = (n, n) if i == k + 1 else (0, n - (k + 1 - i))
    cells: Dict[Tuple[int, int], Tuple[Set[int], Dict[int, _BackRec]]] = {}
    for h in range(i - 1, hi + 1):
        for r0 in range(1, min(i - 1, k_star + 1) + 1):
            prev = families.get((i - 1, r0, h - 1))
            if not prev:
                continue
            extended: Dict[int, List[Tuple[int, int]]] = {}  # by winner
            for e in range(max(h, lo), hi + 1):
                winner = tails[e][h - 1]
                r = r0 + (winner == p)
                if r > k_star + 1 or pruned and i - r > k - k_star:
                    continue
                pairs = extended.get(winner)
                if pairs is None:  # (set | bit, bit) for the lowest free copy, or each one
                    bits = (0,) if winner == p else table.copy_bits.get(winner, ())
                    pairs = extended[winner] = []
                    for mask in prev:
                        free = [(mask | bit, bit) for bit in bits if not mask & bit]
                        pairs.extend(free[:1] if pruned else free)
                if not pairs:
                    continue
                cell = cells.get((r, e))
                if cell is None:
                    cell = cells[(r, e)] = (set(), {})
                merged, back = cell
                for new, bit in pairs:
                    if new not in merged:
                        merged.add(new)
                        back[new] = (h, r0, bit)

    for r, e in sorted(cells):
        merged, back = cells[(r, e)]
        if pruned:
            q = (k - k_star) - (i - r)
            kept = represent(
                merged, q, table.universe_size, seed=table.seed * 1000003 + table._cell_counter
            )
            table._cell_counter += 1
        else:
            kept = merged
        if kept:
            families[(i, r, e)] = kept
            table.back[(i, r, e)] = {mask: back[mask] for mask in kept}


def run_dp(
    inst: Instance,
    k_star: int,
    rule: TieBreakRule = DEFAULT_RULE,
    use_represent: bool = True,
    seed: int = 0,
) -> DpTable:
    """Fill the whole table up to the sink cell (k + 1, k_star + 1, n), one
    layer at a time."""
    aux = build_aux_graph(inst, k_star, rule)
    table = DpTable(aux, use_represent=use_represent, seed=seed)
    table.fill_base()
    for i in range(2, aux.k + 2):
        dp_step(table, i)
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
