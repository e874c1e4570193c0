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

from .exact import check_memory_budget
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

    Only the winner table is stored; successors and arcs are computed from
    the closed form, in closed-form order: tails by (start, end), heads by
    ascending end, labeled copies by ascending copy index.
    """

    n: int
    k: int
    k_star: int
    p: int
    m: int
    interval_winner: Dict[Tuple[int, int], int]

    @property
    def vertices(self) -> List[Vertex]:
        out: List[Vertex] = [SOURCE]
        out.extend((i, j) for i in range(1, self.n + 1) for j in range(i, self.n + 1))
        out.append(SINK)
        return out

    @property
    def vertex_count(self) -> int:
        return self.n * (self.n - 1) // 2 + self.n + 2

    def _live(self, interval: Tuple[int, int]) -> bool:
        return self.k_star >= 2 or self.interval_winner[interval] == self.p

    def successors(self, v: Vertex) -> List[Vertex]:
        """Distinct arc heads out of v (parallel labeled copies collapsed)."""
        if v == SOURCE:
            return [(1, j) for j in range(1, self.n + 1)]
        if v == SINK or not self._live(v):
            return []
        if v[1] == self.n:
            return [SINK]
        return [(v[1] + 1, r) for r in range(v[1] + 1, self.n + 1)]

    @property
    def arcs(self) -> List[Arc]:
        """Every arc, parallel labeled copies included, built on each access."""
        out: List[Arc] = [(SOURCE, head, None) for head in self.successors(SOURCE)]
        for tail in self.vertices[1:-1]:
            w = self.interval_winner[tail]
            labels = [None] if w == self.p else [ArcLabel(w, c) for c in range(1, self.k_star)]
            out.extend((tail, head, lab) for head in self.successors(tail) for lab in labels)
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
    check_memory_budget(n * (n + 1) // 2 * 107)  # bytes per entry and key, at n = 400

    # Running totals: (i, j) is (i, j - 1) plus vertex j's weights.  A unique
    # maximum needs no tie-break, so rule.pick runs only on ties.
    winner: Dict[Tuple[int, int], int] = {}
    for i in range(1, n + 1):
        totals = [0] * inst.m
        for j in range(i, n + 1):
            for c, w in inst.weights[j - 1].items():
                totals[c] += w
            best = max(totals)
            if totals.count(best) == 1:
                winner[(i, j)] = totals.index(best)
            else:
                winner[(i, j)] = rule.pick([c for c, t in enumerate(totals) if t == best], inst.p)

    return AuxGraph(n=n, k=inst.k, k_star=k_star, p=inst.p, m=inst.m, interval_winner=winner)


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

