"""Smoke check of the benchmark itself, at a tiny size.

    python3 perfbench/smoke.py

Runs every workload in each trace mode, the end-to-end mode for one second
on the first six electorates of the request list, and checks that every
metric BENCHMARK.json names is printed with its unit, that no request failed,
and that each layer reads zero on the workloads that bypass it and nonzero on
the workloads where it does the work.  Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# metric -> (workloads where it must be nonzero, workloads where it must be zero)
PATTERN = {
    "oracle.partitions": ({"plain_auto"}, {"path_fpt", "path_long", "graph_exact"}),
    "cli.picked.oracle": ({"plain_auto"}, {"path_fpt", "path_long", "graph_exact"}),
    "repset.represent_calls": ({"path_fpt", "path_long"}, {"graph_exact"}),
    "auxgraph.builds": ({"path_fpt", "path_long"}, {"graph_exact"}),
    "detfpt.cells": ({"path_fpt", "path_long"}, {"graph_exact"}),
    "randfpt.evaluations": ({"path_fpt", "path_long"}, {"graph_exact", "plain_auto"}),
    "exact.districts": ({"graph_exact"}, {"path_fpt", "path_long", "plain_auto"}),
    "exact.dense_products": ({"graph_exact"}, {"path_fpt", "path_long"}),
    "exact.rounds": ({"graph_exact"}, {"path_fpt", "path_long", "plain_auto"}),
    "model.witness_checks": ({"path_fpt", "path_long", "plain_auto"}, {"graph_exact"}),
    "cli.targets_tried": ({"path_fpt", "path_long", "graph_exact", "plain_auto"}, set()),
}


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)]
        + ([] if trace else ["--electorates", "6"]),
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = run(name, trace)
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{name} --trace {trace}: {result['failed']} failed")
            metrics = result["metrics"]
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in metrics.items()}
            if got != want:
                problems.append(f"{name} --trace {trace}: metrics {got} != {want}")
            if trace:
                for metric, (nonzero, zero) in PATTERN.items():
                    value = metrics[metric]["value"]
                    if name in nonzero and not value:
                        problems.append(f"{name}: {metric} is 0")
                    if name in zero and value:
                        problems.append(f"{name}: {metric} is {value}, expected 0")
        print(f"{name}: checked", flush=True)
    for p in problems:
        print("FAIL", p)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
