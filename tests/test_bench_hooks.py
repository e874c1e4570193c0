"""The benchmark's per-layer tracing still reaches the solver functions.

perfbench/layers.py wraps package functions by the module globals their
callers look them up through.  A refactor that moves a call elsewhere
leaves a span reading zero; this test finds that in seconds, on four tiny
requests, instead of in the benchmark's own smoke run.
"""

from __future__ import annotations

import os
import sys

from gerrysolve import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import layers  # noqa: E402

SPANS = (
    "cli.run_target",
    "detfpt.solve",
    "detfpt.run_dp",
    "auxgraph.build",
    "randfpt.solve",
    "randfpt.circuit",
    "exact.solve",
    "exact.enumerate",
)


def _gen(tmp_path, name, graph_class):
    path = str(tmp_path / name)
    argv = ["gen", "--seed", "4", "--n", "6", "--m", "3", "--k", "3", "--graph-class", graph_class]
    assert cli.main(argv + ["--out", path]) == 0
    return path


def test_every_solver_layer_is_traced(tmp_path, capsys):
    path = _gen(tmp_path, "path.json", "path")
    tree = _gen(tmp_path, "tree.json", "tree")
    requests = [
        [path, "--algo", "detfpt", "--k-star", "3"],
        [path, "--algo", "randfpt", "--k-star", "3"],
        [tree, "--algo", "exact", "--k-star", "3"],
        [path],
    ]
    with layers.traced() as t:
        for argv in requests:
            assert cli.main(["solve"] + argv) in (0, 1)
    capsys.readouterr()
    assert [name for name in SPANS if not t.total[name] > 0] == []
    assert t.counts["oracle.partitions"] > 0
