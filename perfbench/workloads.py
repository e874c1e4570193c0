"""Seeded workloads: instance shapes, instance generation and request lists.

The generator here is the benchmark's own, so a change to `gerrysolve gen`
cannot change a workload.  A workload cycles through fixed shape schedules
(graph class, n and k) and draws only the graph and the weights from the
seed, so every seed asks the same mix of sizes: each workload's electorate
count is a multiple of the length of its schedules.  Each drawn electorate
(a graph with its weights) is asked once with every candidate as p: every
district has exactly one winner, so across the m questions the work that
depends on how often p wins evens out.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

WEIGHT_MAX = 6


@dataclass(frozen=True)
class Workload:
    """Shape schedules of one workload; BENCHMARK.json says why it exists."""

    name: str
    classes: Tuple[str, ...]  # graph class of electorate i is classes[i % len]
    n: Tuple[int, ...]  # likewise for the vertex count
    k: Tuple[int, ...]  # likewise for the district count
    m: int  # candidates
    algos: Tuple[str, ...]  # one request per algo and target
    plain: bool  # ask the plain question instead of every k_star
    electorates: int  # instances = electorates * m; a run repeats their requests
    trace_electorates: int  # the fixed prefix a --trace 1 run measures
    extra_edge: float = 0.0  # share of absent vertex pairs made edges on general graphs


WORKLOADS = {
    w.name: w
    for w in (
        Workload("path_fpt", classes=("path",), n=(14, 15, 16), k=(5, 6), m=4,
                 algos=("detfpt", "randfpt"), plain=False, electorates=30, trace_electorates=6),
        Workload("path_long", classes=("path",), n=(36, 40, 44), k=(3,), m=4,
                 algos=("detfpt", "randfpt"), plain=False, electorates=24, trace_electorates=6),
        Workload("graph_exact", classes=("general", "tree", "general"), n=(13,) + (12,) * 21,
                 k=(4, 3, 4), m=3, algos=("exact",), plain=False, electorates=66,
                 trace_electorates=6,
                 extra_edge=0.3),
        Workload("plain_auto", classes=("path", "tree", "general"), n=(14, 14, 8), k=(3, 4), m=3,
                 algos=("auto",), plain=True, electorates=432, trace_electorates=30,
                 extra_edge=0.2),
    )
}


@dataclass(frozen=True)
class Request:
    instance: int  # index into the workload's instance list
    k_star: Optional[int]
    algo: str
    seed: int

    def argv(self, path: str) -> List[str]:
        out = ["solve", path, "--json", "--algo", self.algo, "--seed", str(self.seed)]
        if self.k_star is not None:
            out += ["--k-star", str(self.k_star)]
        if self.algo != "randfpt":
            out.append("--witness")
        return out


def _random_tree(rng: random.Random, n: int) -> List[Tuple[int, int]]:
    """Random recursive tree under a random relabelling."""
    label = list(range(n))
    rng.shuffle(label)
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        a, b = label[u], label[v]
        edges.append((min(a, b), max(a, b)))
    return edges


def make_instance(rng: random.Random, graph_class: str, n: int, k: int, m: int,
                  extra_edge: float) -> dict:
    """One instance in the JSON form `gerrysolve solve` reads, with p the first candidate."""
    if graph_class == "path":
        edges = [(v, v + 1) for v in range(n - 1)]
    else:
        edges = _random_tree(rng, n)
        if graph_class == "general":
            present = set(edges)
            absent = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present]
            edges += rng.sample(absent, round(extra_edge * len(absent)))
        edges.sort()
    names = [f"c{c}" for c in range(m)]
    weights = []
    for _ in range(n):
        support = sorted(rng.sample(range(m), rng.randint(1, min(m, 3))))
        weights.append({names[c]: rng.randint(1, WEIGHT_MAX) for c in support})
    return {
        "n": n,
        "edges": [list(e) for e in edges],
        "graph_class": graph_class,
        "candidates": names,
        "p": names[0],
        "k": k,
        "weights": weights,
    }


def make_instances(w: Workload, seed: int) -> List[dict]:
    rng = random.Random(f"{w.name}/{seed}")
    out = []
    for i in range(w.electorates):
        inst = make_instance(rng, w.classes[i % len(w.classes)], w.n[i % len(w.n)],
                             w.k[i % len(w.k)], w.m, w.extra_edge)
        out += [dict(inst, p=name) for name in inst["candidates"]]
    return out


def make_requests(w: Workload, instances: List[dict], seed: int) -> List[Request]:
    """Requests grouped by instance: every target (or the plain question) per algo."""
    rng = random.Random(f"{w.name}/{seed}/requests")
    out = []
    for idx, inst in enumerate(instances):
        targets = [None] if w.plain else list(range(1, inst["k"] + 1))
        for k_star in targets:
            for algo in w.algos:
                out.append(Request(idx, k_star, algo, rng.randrange(1 << 30)))
    return out


def write_instances(instances: List[dict], directory: str) -> List[str]:
    os.makedirs(directory, exist_ok=True)
    paths = []
    for idx, inst in enumerate(instances):
        path = os.path.join(directory, f"instance_{idx:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(inst, fh)
        paths.append(path)
    return paths
