"""Interval digraph for path instances.

A connected district of a path graph is a contiguous index range, so a
k-district partition of the path 1..n is the same thing as a chain of k
intervals.  That chain becomes a walk in a layered DAG.  Its arcs follow a
closed form and are derived from the interval winner table, never stored:

    vertices   s, t, and one vertex per interval (i, j) with 1 <= i <= j <= n
    s arcs     s -> (1, j) for every j, always unlabeled
    chain arcs (i, j) -> (j+1, r) for every r in j+1..n, if (i, j) is live
    t arcs     (i, n) -> t, if (i, n) is live

Every arc leaving an interval vertex is tagged by that interval's winning
candidate: if the winner is the distinguished candidate p the arc is a single
unlabeled copy, otherwise the arc is duplicated into k_star - 1 parallel
copies labeled (winner, 1) .. (winner, k_star - 1).  An interval is live
(has outgoing arcs) when p wins it or k_star >= 2.  So the tails of (i, j)
are s when i = 1 and otherwise the live (h, i-1) for ascending h, and the
tails of t are the live (h, n); detfpt and randfpt loop over these tails
themselves.

Only the winner table is stored, by prefix end as those loops read it, and
filled by a numpy argmax over prefix sums of exact's rule-ordered weights.
interval_winner (a dict by interval) and arcs (the arc list, in the order
given on AuxGraph) are views built on each access, for tests and tracing.

The payoff is a reformulation of the target question: the path instance has a
partition where p wins exactly k_star districts and every rival at most
k_star - 1 if and only if this DAG has an s-t path on k + 2 vertices using
exactly k_star + 1 unlabeled arcs and k - k_star labeled arcs whose labels
are pairwise distinct.  (A rival can win at most k_star - 1 districts
because only that many copies of its label exist.)

Interval indices here are 1-based; conversion to the 0-based vertex ids of
the instance happens in decode_path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from .exact import check_memory_budget, rule_ordered_weights
from .model import (
    DEFAULT_RULE,
    Instance,
    Partition,
    TieBreakRule,
    make_partition,
)

SOURCE = "s"
SINK = "t"

Vertex = Union[str, Tuple[int, int]]


@dataclass(frozen=True)
class ArcLabel:
    """One copy of a rival candidate's win budget: (candidate, copy index)."""

    candidate: int
    copy_index: int


Arc = Tuple[Vertex, Vertex, Optional[ArcLabel]]


@dataclass
class AuxGraph:
    """The layered interval DAG for one (instance, k_star) pair.

    tails[e][h - 1] is the winner of (h, e), h = 1..e; tails[0] is empty.
    arcs lists tails by (start, end), heads by ascending end and labeled
    copies by ascending copy index, the closed form's order.
    """

    n: int
    k: int
    k_star: int
    p: int
    m: int
    tails: List[List[int]]

    @property
    def interval_winner(self) -> Dict[Tuple[int, int], int]:
        """Winner by interval (i, j), in (start, end) order."""
        n = self.n
        return {(i, j): self.tails[j][i - 1] for i in range(1, n + 1) for j in range(i, n + 1)}

    @property
    def vertices(self) -> List[Vertex]:
        out: List[Vertex] = [SOURCE]
        out.extend((i, j) for i in range(1, self.n + 1) for j in range(i, self.n + 1))
        out.append(SINK)
        return out

    @property
    def vertex_count(self) -> int:
        return self.n * (self.n - 1) // 2 + self.n + 2

    @property
    def arcs(self) -> List[Arc]:
        """Every arc, parallel copies included; none leave rival-won intervals at k_star = 1."""
        n = self.n
        out: List[Arc] = [(SOURCE, (1, j), None) for j in range(1, n + 1)]
        for (i, j), w in self.interval_winner.items():
            labels = [None] if w == self.p else [ArcLabel(w, c) for c in range(1, self.k_star)]
            heads = [(j + 1, r) for r in range(j + 1, n + 1)] if j < n else [SINK]
            out.extend(((i, j), head, lab) for head in heads for lab in labels)
        return out

    def label_universe(self) -> List[ArcLabel]:
        """All (k_star - 1) * (m - 1) possible labels, in a fixed order."""
        return [
            ArcLabel(c, j)
            for c in range(self.m)
            if c != self.p
            for j in range(1, self.k_star)
        ]


def build_aux_graph(
    inst: Instance, k_star: int, rule: TieBreakRule = DEFAULT_RULE
) -> AuxGraph:
    """Construct the interval DAG (its winner table).  The instance must be a path.
    Raises MemoryError, before filling it, when the table would pass the cap."""
    if inst.graph_class != "path":
        raise ValueError("the interval digraph is defined for path instances only")
    if not (1 <= k_star <= inst.k):
        raise ValueError(f"k_star={k_star} outside 1..k={inst.k}")
    n = inst.n
    # 107 B per entry is what the interval_winner view takes (tracemalloc,
    # n = 400, m = 2-4).  The stored table takes 8.4 and its build peaks at 9.
    check_memory_budget(n * (n + 1) // 2 * 107)

    # Column e: the totals of (h, e) for every h are prefix[e] - prefix[h - 1],
    # one pass over e x m values, so no more than that is ever held at once.
    order, table = rule_ordered_weights(inst, rule)
    prefix = np.zeros((n + 1, inst.m), dtype=table.dtype)
    np.cumsum(table, axis=0, out=prefix[1:])
    ranked = np.array(order)
    tails: List[List[int]] = [[]]
    for e in range(1, n + 1):
        tails.append(ranked[np.argmax(prefix[e] - prefix[:e], axis=1)].tolist())
    return AuxGraph(n=n, k=inst.k, k_star=k_star, p=inst.p, m=inst.m, tails=tails)


def decode_path(aux: AuxGraph, st_path: Iterable[Vertex]) -> Partition:
    """Turn an s-t vertex sequence into the partition it encodes.

    The sequence must start at s, end at t, and its interior vertices must be
    a chain of intervals (1, j1), (j1+1, j2), ..., (x, n).  Output districts
    use the instance's 0-based vertex ids.
    """
    seq = list(st_path)
    if len(seq) < 3 or seq[0] != SOURCE or seq[-1] != SINK:
        raise ValueError("expected a sequence s, intervals..., t")
    intervals = seq[1:-1]
    expected_start = 1
    groups = []
    for iv in intervals:
        if not (isinstance(iv, tuple) and len(iv) == 2):
            raise ValueError(f"interior vertex {iv!r} is not an interval")
        i, j = iv
        if i != expected_start or not (i <= j <= aux.n):
            raise ValueError(f"interval chain breaks at {iv!r}")
        groups.append(range(i - 1, j))
        expected_start = j + 1
    if expected_start != aux.n + 1:
        raise ValueError("interval chain does not reach the end of the path")
    return make_partition(groups)

