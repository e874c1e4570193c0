"""Problem model: instances, districts, partitions, winners, serialization.

An instance is an undirected graph on vertices 0..n-1 together with a
candidate list, per-vertex weight functions over the candidates, a
distinguished candidate p, and a district count k.  A partition splits the
vertex set into exactly k nonempty connected districts.  Each district is won
by the candidate with the largest total weight inside it, with ties broken by
a fixed deterministic rule.  The overall question is whether some partition
makes p win strictly more districts than every other candidate; the "target"
variant asks for p to win exactly a given number of districts while everyone
else stays strictly below it.

Weights are stored sparsely: a vertex's mapping may omit candidates, and an
omitted candidate contributes zero.  Stored weights must be strictly positive
integers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

GRAPH_CLASSES = ("path", "tree", "general")

LEX_MIN = "lex_min_candidate"
PREFER_P = "prefer_p_then_lex"
TIE_BREAK_NAMES = (LEX_MIN, PREFER_P)


@dataclass(frozen=True)
class TieBreakRule:
    """Deterministic choice from the set of weight-maximizing candidates.

    lex_min_candidate picks the smallest candidate index among the tied
    maximizers.  prefer_p_then_lex picks p whenever p is tied for the
    maximum and otherwise falls back to the smallest index.  Both rules are
    pure functions of the tied set (and p), so every solver that threads the
    same rule sees identical district winners.
    """

    name: str = LEX_MIN

    def __post_init__(self) -> None:
        if self.name not in TIE_BREAK_NAMES:
            raise ValueError(f"unknown tie-break rule {self.name!r}")

    def pick(self, tied: Iterable[int], p: int) -> int:
        tied = sorted(tied)
        if not tied:
            raise ValueError("tie-break over an empty candidate set")
        if self.name == PREFER_P and p in tied:
            return p
        return tied[0]

    def order(self, candidates: Iterable[int], p: int) -> List[int]:
        """The candidates, most preferred first: pick, then pick among the rest."""
        rest, ranked = sorted(candidates), []
        while rest:
            ranked.append(rest.pop(rest.index(self.pick(rest, p))))
        return ranked


DEFAULT_RULE = TieBreakRule(LEX_MIN)


@dataclass
class Instance:
    """A weighted districting instance.  Treat as immutable once built.

    weights[v] maps candidate index -> positive integer weight; missing
    candidates count as zero.  graph_class is a promise that is checked, not
    trusted: "path" additionally requires edges {i, i+1} in index order so
    that contiguous index ranges are exactly the connected subpaths.
    """

    n: int
    edges: Tuple[Tuple[int, int], ...]
    graph_class: str
    candidates: Tuple[str, ...]
    p: int
    k: int
    weights: Tuple[Dict[int, int], ...]

    @property
    def m(self) -> int:
        return len(self.candidates)

    def weight(self, v: int, c: int) -> int:
        return self.weights[v].get(c, 0)

    @property
    def adjacency(self) -> List[List[int]]:
        """Neighbour lists, built on each access from the current edges."""
        return build_adjacency(self.n, self.edges)

    def validate(self) -> None:
        """Raise ValueError on any malformed field."""
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not self.candidates:
            raise ValueError("candidate list is empty")
        if len(set(self.candidates)) != len(self.candidates):
            raise ValueError("duplicate candidate names")
        if not (0 <= self.p < self.m):
            raise ValueError("p is not a candidate index")
        if not (1 <= self.k <= self.n):
            raise ValueError(f"k={self.k} outside 1..n={self.n}")
        if self.graph_class not in GRAPH_CLASSES:
            raise ValueError(f"unknown graph_class {self.graph_class!r}")
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n) or u == v:
                raise ValueError(f"bad edge ({u}, {v})")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add(key)
        if len(self.weights) != self.n:
            raise ValueError("weights list length differs from n")
        for v, wmap in enumerate(self.weights):
            for c, w in wmap.items():
                if not (0 <= c < self.m):
                    raise ValueError(f"vertex {v} weights unknown candidate {c}")
                if not isinstance(w, int) or w <= 0:
                    raise ValueError(f"vertex {v} has nonpositive weight for candidate {c}")
        actual = classify_graph(self.n, self.edges)
        if self.graph_class == "path" and actual != "path":
            raise ValueError("graph_class is 'path' but edges are not the index-order path")
        if self.graph_class == "tree" and actual == "general":
            raise ValueError("graph_class is 'tree' but the graph is not a tree")


@dataclass(frozen=True)
class District:
    """A nonempty set of vertices intended to induce a connected subgraph."""

    vertices: frozenset

    def __iter__(self):
        return iter(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class Partition:
    """An ordered tuple of districts covering the vertex set."""

    districts: Tuple[District, ...]

    def __iter__(self):
        return iter(self.districts)

    def __len__(self) -> int:
        return len(self.districts)

    def canonical(self) -> "Partition":
        """Districts sorted by their smallest vertex."""
        return Partition(tuple(sorted(self.districts, key=lambda d: min(d.vertices))))


def make_partition(groups: Iterable[Iterable[int]]) -> Partition:
    return Partition(tuple(District(frozenset(g)) for g in groups))


# --------------------------------------------------------------------------
# graph helpers
# --------------------------------------------------------------------------


def build_adjacency(n: int, edges: Iterable[Tuple[int, int]]) -> List[List[int]]:
    adj: List[List[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def adjacency_masks(n: int, edges: Iterable[Tuple[int, int]]) -> List[int]:
    """Neighbour sets as bitmasks: bit w of entry v is set when {v, w} is an edge."""
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def mask_vertices(mask: int) -> List[int]:
    """Indices of the set bits of `mask`, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def is_connected_subset(adj: Sequence[Sequence[int]], subset: Iterable[int]) -> bool:
    verts = set(subset)
    if not verts:
        return False
    start = next(iter(verts))
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w in verts and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == verts


def classify_graph(n: int, edges: Sequence[Tuple[int, int]]) -> str:
    """Most specific class the graph satisfies: path, tree, or general.

    "path" means the edge set is exactly {{i, i+1} : 0 <= i < n-1}; a path
    on shuffled labels classifies as "tree".
    """
    canon = {(min(u, v), max(u, v)) for u, v in edges}
    if canon == {(i, i + 1) for i in range(n - 1)}:
        return "path"
    if len(edges) == n - 1 and is_connected_subset(build_adjacency(n, edges), range(n)):
        return "tree"
    return "general"


# --------------------------------------------------------------------------
# winners and partition evaluation
# --------------------------------------------------------------------------


def district_totals(inst: Instance, vertices: Iterable[int]) -> Dict[int, int]:
    """Total weight each candidate collects over the given vertices."""
    totals: Dict[int, int] = {c: 0 for c in range(inst.m)}
    for v in vertices:
        for c, w in inst.weights[v].items():
            totals[c] += w
    return totals


def district_winner(inst: Instance, district, rule: TieBreakRule = DEFAULT_RULE) -> int:
    """Winning candidate of a district under the given tie-break rule."""
    verts = district.vertices if isinstance(district, District) else district
    totals = district_totals(inst, verts)
    best = max(totals.values())
    tied = [c for c, t in totals.items() if t == best]
    return rule.pick(tied, inst.p)


def partition_problems(inst: Instance, part: Partition) -> List[str]:
    """Diagnostic list of everything wrong with a claimed partition."""
    problems: List[str] = []
    if len(part.districts) != inst.k:
        problems.append(f"{len(part.districts)} districts, expected k={inst.k}")
    seen: Dict[int, int] = {}
    adj = inst.adjacency
    for idx, dist in enumerate(part.districts):
        if not dist.vertices:
            problems.append(f"district {idx} is empty")
            continue
        for v in dist.vertices:
            if not (0 <= v < inst.n):
                problems.append(f"district {idx} contains unknown vertex {v}")
            elif v in seen:
                problems.append(f"vertex {v} appears in districts {seen[v]} and {idx}")
            else:
                seen[v] = idx
        if not is_connected_subset(adj, dist.vertices):
            problems.append(f"district {idx} is not connected")
    missing = [v for v in range(inst.n) if v not in seen]
    if missing:
        problems.append(f"vertices {missing} are not covered")
    return problems


def validate_partition(inst: Instance, part: Partition) -> bool:
    return not partition_problems(inst, part)


def evaluate_partition(
    inst: Instance, part: Partition, rule: TieBreakRule = DEFAULT_RULE
) -> Tuple[Dict[int, int], bool]:
    """Per-candidate district win counts and whether p is the strict leader.

    Raises ValueError if the partition is invalid.
    """
    problems = partition_problems(inst, part)
    if problems:
        raise ValueError("invalid partition: " + "; ".join(problems))
    wins: Dict[int, int] = {c: 0 for c in range(inst.m)}
    for dist in part.districts:
        wins[district_winner(inst, dist, rule)] += 1
    others = [w for c, w in wins.items() if c != inst.p]
    strict = all(wins[inst.p] > w for w in others) if others else True
    return wins, strict


def satisfies_target(
    inst: Instance, part: Partition, k_star: int, rule: TieBreakRule = DEFAULT_RULE
) -> bool:
    """True if p wins exactly k_star districts and everyone else at most k_star - 1."""
    wins, _ = evaluate_partition(inst, part, rule)
    if wins[inst.p] != k_star:
        return False
    return all(w <= k_star - 1 for c, w in wins.items() if c != inst.p)


# --------------------------------------------------------------------------
# approval-style input
# --------------------------------------------------------------------------


def gm_to_wgm(
    n: int,
    edges: Sequence[Tuple[int, int]],
    approvals: Sequence[int],
    weight: Sequence[int],
    p: int,
    k: int,
    candidates: Optional[Sequence[str]] = None,
    graph_class: Optional[str] = None,
) -> Instance:
    """Build an instance from one-approval ballots.

    Vertex v approves exactly candidate approvals[v] with weight weight[v];
    its weight for every other candidate is zero.  The candidate list is
    taken from `candidates` when given, otherwise it is sized to cover p and
    every approved index.
    """
    if len(approvals) != n or len(weight) != n:
        raise ValueError("approvals and weight must have length n")
    if any(w <= 0 for w in weight):
        raise ValueError("approval weights must be positive")
    if candidates is None:
        m = max([p, *approvals]) + 1
        candidates = tuple(f"c{i}" for i in range(m))
    else:
        candidates = tuple(candidates)
    weights = tuple({approvals[v]: weight[v]} for v in range(n))
    gclass = graph_class if graph_class is not None else classify_graph(n, tuple(edges))
    inst = Instance(
        n=n,
        edges=tuple((min(u, v), max(u, v)) for u, v in edges),
        graph_class=gclass,
        candidates=candidates,
        p=p,
        k=k,
        weights=weights,
    )
    inst.validate()
    return inst


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------


def instance_to_json(inst: Instance) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    obj = {
        "n": inst.n,
        "edges": sorted([min(u, v), max(u, v)] for u, v in inst.edges),
        "graph_class": inst.graph_class,
        "candidates": list(inst.candidates),
        "p": inst.candidates[inst.p],
        "k": inst.k,
        "weights": [
            {inst.candidates[c]: w for c, w in sorted(wmap.items())} for wmap in inst.weights
        ],
    }
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _typed(value, kind: type, what: str):
    """`value` itself when it is a `kind`; a bool never passes as an int."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{what} must be {kind.__name__}, got {type(value).__name__}")
    return value


def decode_json(text: str):
    """json.loads, with malformed or too deeply nested text a ValueError."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc


def instance_from_json(text: str) -> Instance:
    """Parse and validate an instance; any malformed field raises ValueError."""
    obj = _typed(decode_json(text), dict, "instance JSON")
    required = {"n", "edges", "graph_class", "candidates", "p", "k", "weights"}
    missing = required - set(obj)
    if missing:
        raise ValueError(f"instance JSON missing keys: {sorted(missing)}")
    names = [_typed(c, str, "candidate name") for c in _typed(obj["candidates"], list, "candidates")]
    index = {name: i for i, name in enumerate(names)}
    if len(index) != len(names):
        raise ValueError("duplicate candidate names")
    if _typed(obj["p"], str, "p") not in index:
        raise ValueError(f"p={obj['p']!r} is not in the candidate list")
    edges = []
    for pair in _typed(obj["edges"], list, "edges"):
        if len(_typed(pair, list, "edge")) != 2:
            raise ValueError(f"edge {pair} does not have two endpoints")
        u, v = (_typed(x, int, "edge endpoint") for x in pair)
        edges.append((min(u, v), max(u, v)))
    weights = []
    for v, wmap in enumerate(_typed(obj["weights"], list, "weights")):
        converted = {}
        for name, w in _typed(wmap, dict, f"weights of vertex {v}").items():
            if name not in index:
                raise ValueError(f"vertex {v} has weight for unknown candidate {name!r}")
            converted[index[name]] = _typed(w, int, f"vertex {v} weight for {name!r}")
        weights.append(converted)
    inst = Instance(
        n=_typed(obj["n"], int, "n"),
        edges=tuple(edges),
        graph_class=_typed(obj["graph_class"], str, "graph_class"),
        candidates=tuple(names),
        p=index[obj["p"]],
        k=_typed(obj["k"], int, "k"),
        weights=tuple(weights),
    )
    inst.validate()
    return inst


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json(fh.read())


def save_instance(inst: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance_to_json(inst))
