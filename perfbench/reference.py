"""Reference answers for the benchmark, computed without the gerrysolve package.

`path_vectors` and `graph_vectors` take an instance in its JSON form (a
dict) and return the win-count vectors of all its partitions into k
connected districts.  They do not depend on p, so the m instances of one
electorate share them.  `spectrum` turns them into the target spectrum:
every k_star for which some partition lets p win exactly k_star districts
while every rival wins at most k_star - 1.  The plain question is a yes
exactly when the spectrum is nonempty, and `solve` without --k-star
reports its smallest member.

Winners use the lexmin tie-break rule, the `solve` default: the largest
total wins and ties go to the lowest candidate index.

A set of win-count vectors is stored as one Python int used as a bitset.
The vector (w_0, .., w_{m-1}) is bit sum(w_c * (k+1)**c), so giving one
more district to candidate c is a left shift by (k+1)**c.  Counts never
reach k + 1 because every vector counts at most k districts.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np


def spectrum(inst: dict, vectors: int) -> Set[int]:
    """Target spectrum of p from the win-count vectors of inst's electorate."""
    _, k, m, p, _ = _unpack(inst)
    base = k + 1
    out: Set[int] = set()
    while vectors:
        low = vectors & -vectors
        vectors ^= low
        pos = low.bit_length() - 1
        wins = [(pos // base**c) % base for c in range(m)]
        if wins[p] >= 1 and all(w < wins[p] for c, w in enumerate(wins) if c != p):
            out.add(wins[p])
    return out


def _unpack(inst: dict) -> Tuple[int, int, int, int, List[List[int]]]:
    """(n, k, m, p index, weights[v][c]) from the JSON form."""
    names = inst["candidates"]
    index = {name: c for c, name in enumerate(names)}
    weights = [[0] * len(names) for _ in range(inst["n"])]
    for v, wmap in enumerate(inst["weights"]):
        for name, w in wmap.items():
            weights[v][index[name]] = w
    return inst["n"], inst["k"], len(names), index[inst["p"]], weights


def path_vectors(inst: dict) -> int:
    """Interval DP over prefixes: O(k * n^2) bitset shifts."""
    n, k, m, _, weights = _unpack(inst)
    prefix = [[0] * m]
    for row in weights:
        prefix.append([a + b for a, b in zip(prefix[-1], row)])
    shift: Dict[Tuple[int, int], int] = {}
    for i in range(n):
        for j in range(i + 1, n + 1):
            totals = [b - a for a, b in zip(prefix[i], prefix[j])]
            shift[(i, j)] = (k + 1) ** totals.index(max(totals))
    # reach[j]: vectors of the splits of vertices [0, j) into t intervals
    reach = [1] + [0] * n
    for t in range(1, k + 1):
        nxt = [0] * (n + 1)
        for j in range(t, n + 1):
            acc = 0
            for i in range(t - 1, j):
                if reach[i]:
                    acc |= reach[i] << shift[(i, j)]
            nxt[j] = acc
        reach = nxt
    return reach[n]


def graph_vectors(inst: dict) -> int:
    """Memoized split of a vertex set into its lowest vertex's district and a rest.

    Subset tables (winner, connectivity, popcount) cover all 2^n vertex sets,
    so this is for n up to about 16.
    """
    n, k, m, _, weights = _unpack(inst)
    size = 1 << n
    masks = np.arange(size, dtype=np.int64)
    totals = np.zeros((m, 1), dtype=np.int64)
    for v in range(n):
        totals = np.concatenate([totals, totals + np.array(weights[v])[:, None]], axis=1)
    winner = np.argmax(totals, axis=0)
    popcount = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        popcount = np.concatenate([popcount, popcount + 1])
    adj = [0] * n
    for u, v in inst["edges"]:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    reach = masks & -masks
    for _ in range(n - 1):
        grown = reach.copy()
        for v in range(n):
            grown |= np.where((reach >> v) & 1 == 1, adj[v], 0)
        reach = grown & masks
    connected = (reach == masks) & (masks > 0)
    conn_masks = masks[connected]
    lowest = np.log2(conn_masks & -conn_masks).astype(np.int64)
    by_low = [conn_masks[lowest == v] for v in range(n)]
    shift = [(k + 1) ** int(c) for c in winner]
    is_conn = connected.tolist()
    memo: Dict[Tuple[int, int], int] = {}

    def split(rest: int, t: int) -> int:
        if t == 1:
            return 1 << shift[rest] if is_conn[rest] else 0
        key = (rest, t)
        if key in memo:
            return memo[key]
        low = (rest & -rest).bit_length() - 1
        first = by_low[low]
        first = first[(first & ~rest) == 0]
        left = rest ^ first
        ok = popcount[left] >= t - 1
        if t == 2:
            ok &= connected[left]
        acc = 0
        for district, remainder in zip(first[ok].tolist(), left[ok].tolist()):
            sub = split(remainder, t - 1)
            if sub:
                acc |= sub << shift[district]
        memo[key] = acc
        return acc

    return split(size - 1, k)
