"""Benchmark of `gerrysolve solve`, end to end and layer by layer.

    python3 perfbench/run.py --workload path_fpt --seed 1 --seconds 26 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 26
    python3 perfbench/run.py --workload plain_auto --seconds 1 --electorates 6   # quick check

Each request is one in-process call of `gerrysolve.cli.main(["solve", ...])`
from a single client in a closed loop.  The seed fixes the workload's
instances and its request list; requests are grouped by instance and the
list wraps around at its end, so a run times every request of the list at
least once.

--trace 0 prints the end-to-end metrics, with no tracing installed.  The
requests run in WORKERS fresh processes, one after another, each taking an
equal share of `--seconds` of request wall time and continuing the list
where the previous one stopped; the last one goes on until every request
of the list ran at least once.  A request's latency is the median of its
timings, and the metrics describe one pass over the list at those
latencies, so the mix of requests they cover is the same on every run of a
seed.  Each worker also times its own set-up: start, import, writing the
instance JSON and one warm-up request.  Set and dict layouts, and with them
the timings, depend on Python's hash seed, so worker j runs with
PYTHONHASHSEED=j+1: a rerun repeats the same layouts and every run
averages over WORKERS of them.
--trace 1 runs the requests of the workload's first `trace_electorates`
electorates in this process three times: to warm caches, untraced, and with
the wrappers of `layers.py`.  It prints the per-layer metrics of the traced
pass.

After the timed requests, every answer is checked against reference answers
from `reference.py`.  The last line of standard output is one JSON object.
--workload all runs every workload in both trace modes, each in its own
process.  The package is imported from the `src` directory next to this
one; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
WORKERS = 3
REQUEST_CAP_S = 30.0  # a request slower than this counts as failed

sys.path.insert(0, HERE)
from reference import graph_vectors, path_vectors, spectrum  # noqa: E402
from workloads import WORKLOADS, Request, make_instances, make_requests, write_instances  # noqa: E402

Record = Tuple[int, int, str, float]  # request index, exit code, stdout, wall time


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "gerrysolve", "__init__.py")):
        raise ImportError(f"gerrysolve sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import gerrysolve.cli
    import gerrysolve.model

    return gerrysolve.cli, gerrysolve.model


class Session:
    """One workload's instances and requests, ready to run in this process."""

    def __init__(self, workload: str, seed: int, workdir: str):
        self.cli, self.model = _import_package()
        self.workload = WORKLOADS[workload]
        self.instances = make_instances(self.workload, seed)
        self.paths = write_instances(self.instances, workdir)
        self.requests = make_requests(self.workload, self.instances, seed)
        self.solve(0)  # warm-up

    def solve(self, index: int) -> Record:
        """Request `index` (mod the list length) through the user path."""
        req = self.requests[index % len(self.requests)]
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = self.cli.main(req.argv(self.paths[req.instance]))
            except SystemExit as exc:  # argparse rejections
                code = exc.code if isinstance(exc.code, int) else 2
        return index, code, out.getvalue(), time.perf_counter() - start

    def loop(self, start: int, budget_s: float, min_count: int = 1) -> List[Record]:
        """Requests from `start` on until they took budget_s and numbered min_count."""
        records: List[Record] = []
        busy = 0.0
        while busy < budget_s or len(records) < min_count:
            records.append(self.solve(start + len(records)))
            busy += records[-1][3]
        return records


class Checker:
    """Checks answers against reference answers computed on first use."""

    def __init__(self, workload: str, seed: int):
        _, self.model = _import_package()
        self.instances = make_instances(WORKLOADS[workload], seed)
        self.requests = make_requests(WORKLOADS[workload], self.instances, seed)
        self.m = WORKLOADS[workload].m
        self.rule = self.model.TieBreakRule(self.model.LEX_MIN)
        self._vectors: Dict[int, int] = {}  # by electorate
        self.misses = 0  # randfpt no on a reference yes, tolerated

    def spectrum(self, idx: int) -> set:
        inst = self.instances[idx]
        electorate = idx // self.m
        if electorate not in self._vectors:
            solver = path_vectors if inst["graph_class"] == "path" else graph_vectors
            self._vectors[electorate] = solver(inst)
        return spectrum(inst, self._vectors[electorate])

    def failures(self, records: List[Record]) -> List[str]:
        out = []
        for index, code, stdout, wall in records:
            req = self.requests[index % len(self.requests)]
            why = self.check(req, code, stdout, wall)
            if why is not None:
                out.append(f"instance {req.instance} k*={req.k_star} {req.algo}: {why}")
        return out

    def check(self, req: Request, code: int, stdout: str, wall: float) -> Optional[str]:
        """None when the answer is right, else why the request failed."""
        if code not in (0, 1):
            return f"exit code {code}"
        if wall > REQUEST_CAP_S:
            return f"took {wall:.1f} s, cap {REQUEST_CAP_S} s"
        spectrum = self.spectrum(req.instance)
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            return "output is not one JSON object"
        yes = code == 0
        if report["answer"] != ("yes" if yes else "no"):
            return "answer disagrees with exit code"
        expected = bool(spectrum) if req.k_star is None else req.k_star in spectrum
        if yes != expected:
            if req.algo == "randfpt" and expected:
                self.misses += 1
                return None
            return f"answered {report['answer']}, reference {sorted(spectrum)}"
        if yes and req.k_star is None and report["k_star"] != min(spectrum):
            return f"k_star {report['k_star']}, reference {sorted(spectrum)}"
        if yes and report["algo"] in ("oracle", "detfpt"):
            if report["witness"] is None:
                return "no witness"
            inst = self.model.instance_from_json(json.dumps(self.instances[req.instance]))
            try:
                ok = self.model.satisfies_target(
                    inst, self.model.make_partition(report["witness"]), report["k_star"], self.rule)
            except ValueError as exc:  # not a partition into k connected districts
                return f"witness rejected: {exc}"
            if not ok:
                return "witness fails satisfies_target"
        return None


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def _worker(workload: str, seed: int, start: int, budget_s: float, min_count: int) -> dict:
    """Body of one worker process; its start is timed by the parent."""
    workdir = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        session = Session(workload, seed, workdir)
        ready = time.monotonic()
        records = session.loop(start, budget_s, min_count)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"ready": ready, "records": records, "rss_mb": rss_mb}


def _end_to_end(workload: str, seed: int, seconds: float):
    """Metrics and records of WORKERS worker processes run one after another."""
    w = WORKLOADS[workload]
    count = len(make_requests(w, make_instances(w, seed), seed))
    records: List[Record] = []
    setups, rss = [], []
    for j in range(WORKERS):
        min_count = count - len(records) if j == WORKERS - 1 else 1
        spawned = time.monotonic()  # CLOCK_MONOTONIC is shared with the child on Linux
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--worker", "--workload", workload,
             "--seed", str(seed), "--electorates", str(w.electorates), "--start", str(len(records)),
             "--seconds", str(seconds / WORKERS),
             "--min-count", str(max(1, min_count))],
            stdout=subprocess.PIPE, text=True, check=True,
            env=dict(os.environ, PYTHONHASHSEED=str(j + 1)),
        )
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        setups.append(out["ready"] - spawned)
        rss.append(out["rss_mb"])
        records += [tuple(r) for r in out["records"]]
    timings: List[List[float]] = [[] for _ in range(count)]
    for index, _, _, wall in records:
        timings[index % count].append(wall)
    lat = [statistics.median(t) for t in timings]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "decisions_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_s": (_percentile(lat, 0.5), "s"),
        "latency_p90_s": (_percentile(lat, 0.9), "s"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    return metrics, records


def _traced(workload: str, seed: int):
    """Per-layer metrics and records of the fixed prefix, warm, untraced, traced."""
    from layers import layer_metrics, traced

    workdir = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        session = Session(workload, seed, workdir)
        w = session.workload
        count = sum(1 for r in session.requests if r.instance < w.trace_electorates * w.m)
        warm = session.loop(0, 0.0, count)
        plain = session.loop(0, 0.0, count)
        with traced() as tracer:
            wrapped = session.loop(0, 0.0, count)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {name: (value, _unit(name)) for name, value in layer_metrics(tracer).items()}
    overhead = sum(r[3] for r in wrapped) / sum(r[3] for r in plain) - 1
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics, warm + plain + wrapped


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    checker = Checker(workload, seed)  # fails before any work when the sources are missing
    os.makedirs(WORK_ROOT, exist_ok=True)
    if trace:
        metrics, records = _traced(workload, seed)
    else:
        metrics, records = _end_to_end(workload, seed, seconds)
    failures = checker.failures(records)
    if trace:
        metrics["randfpt.misses"] = (checker.misses, "count")
    for msg in failures[:20]:
        print(f"FAIL {workload} {msg}")
    for name, (value, unit) in metrics.items():
        print(f"{workload:<12} {name:<26} {value:>14.6g} {unit}")
    print(f"{workload:<12} {'requests':<26} {len(records):>14} count")
    print(f"{workload:<12} {'failed_frac':<26} {len(failures) / len(records):>14.6g} ratio")
    return {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(seed: int, seconds: float, electorates: int) -> dict:
    """Every workload in both trace modes, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                 "--electorates", str(electorates)],
                stdout=subprocess.PIPE, text=True, check=True,
            )
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = m
    return combined


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--electorates", type=int, default=0,
                        help="use only the first N electorates of the request list (0: all)")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--start", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--min-count", type=int, default=1, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.electorates:
        for name in WORKLOADS if args.workload == "all" else [args.workload]:
            WORKLOADS[name] = dataclasses.replace(WORKLOADS[name], electorates=args.electorates)
    try:
        if args.worker:
            result = _worker(args.workload, args.seed, args.start, args.seconds, args.min_count)
        elif args.workload == "all":
            result = run_all(args.seed, args.seconds, args.electorates)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
