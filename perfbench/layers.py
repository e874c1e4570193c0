"""Per-layer tracing from outside the package.

`traced()` replaces public functions under the name the calling module looks
them up by (for example `detfpt.represent`, which `dp_step` calls through
the detfpt module's globals) with wrappers that record spans and counters.
The originals are put back when the block ends, so untraced runs execute
unwrapped code.

A span's self time is its duration minus the time of the spans it encloses.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional

from gerrysolve import cli, detfpt, exact, oracle, randfpt


class Tracer:
    """Span totals, self times, call counts and work counters by name."""

    def __init__(self) -> None:
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self._children: List[float] = []  # enclosed span time, one entry per open span
        self.last_end: Dict[str, float] = {}

    def span(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """Wrap fn in a span; `after(result)` may update counters."""

        def wrapper(*args, **kwargs):
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                inner = self._children.pop()
                elapsed = end - start
                self.total[name] += elapsed
                self.self_time[name] += elapsed - inner
                self.calls[name] += 1
                self.last_end[name] = end
                if self._children:
                    self._children[-1] += elapsed
            if after is not None:
                after(result)
            return result

        return wrapper

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount


def _exact_with_hook(tracer: Tracer, solve: Callable) -> Callable:
    """solve_target_exact with its public trace hook splitting Q1 from rounds."""

    def wrapper(inst, k_star, rule=exact.DEFAULT_RULE, **kwargs):
        marks: Dict[str, float] = {}

        def hook(event: str, payload: dict) -> None:
            if event == "base":
                marks["base"] = time.perf_counter()
            else:
                tracer.add("exact.rounds")

        result = solve(inst, k_star, rule, trace=hook, **kwargs)
        if "base" in marks:
            end = time.perf_counter()
            tracer.add("exact.q1_s", marks["base"] - tracer.last_end["exact.enumerate"])
            tracer.add("exact.rounds_s", end - marks["base"])
        return result

    return wrapper


def _counting_partitions(tracer: Tracer, enumerate_partitions: Callable) -> Callable:
    def wrapper(*args, **kwargs) -> Iterator:
        for part in enumerate_partitions(*args, **kwargs):
            tracer.add("oracle.partitions")
            yield part

    return wrapper


def _dp_table(tracer: Tracer, table) -> None:
    tracer.add("detfpt.cells", len(table.families))
    tracer.add("detfpt.family_sets", sum(len(f) for f in table.families.values()))


def _sized_input(tracer: Tracer, represent: Callable) -> Callable:
    def wrapper(family, *args, **kwargs):
        tracer.add("repset.sets_in", len(family))
        return represent(family, *args, **kwargs)

    return wrapper


@contextlib.contextmanager
def traced() -> Iterator[Tracer]:
    """Install the wrappers for the duration of the block."""
    t = Tracer()

    def aux(graph) -> None:
        t.add("auxgraph.arcs", len(graph.arcs))

    patches = [
        (cli, "load_instance", t.span("model.load", cli.load_instance)),
        (cli, "satisfies_target", t.span("model.witness_check", cli.satisfies_target)),
        (detfpt, "satisfies_target", t.span("model.witness_check", detfpt.satisfies_target)),
        (cli, "pick_solver",
         t.span("cli.pick_solver", cli.pick_solver, lambda s: t.add(f"cli.picked.{s}"))),
        (cli, "run_target", t.span("cli.run_target", cli.run_target)),
        (cli, "solve_target_oracle", t.span("oracle.solve", cli.solve_target_oracle)),
        (oracle, "enumerate_partitions", _counting_partitions(t, oracle.enumerate_partitions)),
        (detfpt, "build_aux_graph", t.span("auxgraph.build", detfpt.build_aux_graph, aux)),
        (randfpt, "build_aux_graph", t.span("auxgraph.build", randfpt.build_aux_graph, aux)),
        (detfpt, "represent",
         t.span("repset.represent", _sized_input(t, detfpt.represent),
                lambda kept: t.add("repset.sets_kept", len(kept)))),
        (cli, "solve_target_det", t.span("detfpt.solve", cli.solve_target_det)),
        (detfpt, "run_dp", t.span("detfpt.run_dp", detfpt.run_dp, lambda tab: _dp_table(t, tab))),
        (cli, "solve_target_rand", t.span("randfpt.solve", cli.solve_target_rand)),
        (randfpt, "build_circuit",
         t.span("randfpt.circuit", randfpt.build_circuit, lambda c: t.add("randfpt.gates", c.gate_count))),
        (randfpt, "evaluate_circuit", t.span("randfpt.evaluate", randfpt.evaluate_circuit)),
        (cli, "solve_target_exact", t.span("exact.solve", _exact_with_hook(t, cli.solve_target_exact))),
        (exact, "enumerate_districts",
         t.span("exact.enumerate", exact.enumerate_districts, lambda f: t.add("exact.districts", f.total()))),
        (exact, "poly_multiply", t.span("exact.dense_product", exact.poly_multiply)),
    ]
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
    try:
        for mod, name, fn in patches:
            setattr(mod, name, fn)
        yield t
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)


def layer_metrics(t: Tracer) -> Dict[str, float]:
    """The per-layer metric values, by the names BENCHMARK.json lists."""
    c = t.counts

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    return {
        "model.load_s": t.total["model.load"],
        "model.witness_check_s": t.total["model.witness_check"],
        "model.witness_checks": t.calls["model.witness_check"],
        "cli.picked.oracle": c["cli.picked.oracle"],
        "cli.picked.detfpt": c["cli.picked.detfpt"],
        "cli.picked.exact": c["cli.picked.exact"],
        "cli.targets_tried": t.calls["cli.run_target"],
        "oracle.scan_s": t.total["oracle.solve"],
        "oracle.partitions": c["oracle.partitions"],
        "oracle.partitions_per_s": ratio(c["oracle.partitions"], t.total["oracle.solve"]),
        "auxgraph.build_s": t.total["auxgraph.build"],
        "auxgraph.builds": t.calls["auxgraph.build"],
        "auxgraph.arcs": c["auxgraph.arcs"],
        "repset.represent_s": t.total["repset.represent"],
        "repset.represent_calls": t.calls["repset.represent"],
        "repset.sets_in": c["repset.sets_in"],
        "repset.sets_kept": c["repset.sets_kept"],
        "repset.kept_ratio": ratio(c["repset.sets_kept"], c["repset.sets_in"]),
        "detfpt.solve_s": t.total["detfpt.solve"],
        "detfpt.self_s": t.self_time["detfpt.solve"] + t.self_time["detfpt.run_dp"],
        "detfpt.cells": c["detfpt.cells"],
        "detfpt.family_sets": c["detfpt.family_sets"],
        "detfpt.witness_s": t.total["detfpt.solve"] - t.total["detfpt.run_dp"],
        "randfpt.solve_s": t.total["randfpt.solve"],
        "randfpt.circuit_s": t.self_time["randfpt.circuit"],
        "randfpt.gates": c["randfpt.gates"],
        "randfpt.evaluate_s": t.total["randfpt.evaluate"],
        "randfpt.evaluations": t.calls["randfpt.evaluate"],
        "exact.solve_s": t.total["exact.solve"],
        "exact.enumerate_s": t.total["exact.enumerate"],
        "exact.districts": c["exact.districts"],
        "exact.q1_s": c["exact.q1_s"],
        "exact.rounds_s": c["exact.rounds_s"],
        "exact.rounds": c["exact.rounds"],
        "exact.dense_products": t.calls["exact.dense_product"],
        "exact.dense_product_s": t.total["exact.dense_product"],
    }
