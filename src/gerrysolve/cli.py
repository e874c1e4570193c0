"""Command-line front end: solve, generate, reduce, and differential-test.

Four subcommands share the instance JSON schema from the model module.

solve loads an instance, walks the candidate target counts from 1 up to
k, and answers at the first that succeeds, since the distinguished
candidate wins overall exactly when it wins exactly k_star districts for
some k_star with everyone else held a notch lower.  solve_targets is that
loop, the only solve pipeline in the package; solve_wgm is the same loop
for library callers, plus a witness when the exact solver said yes.  A
target with k > m * k_star - (m - 1) is a no without a solver run: the
m - 1 rivals held to k_star - 1 wins cannot take the other districts.
The rest go to one solver per request; the oracle answers them from one
scan.  --algo forces the solver; auto reads only the instance, weighs the
oracle's cut-choice count against a fixed budget and the path DP's cost
estimate at k_star = k, and falls back to the subset-algebra solver off paths.

gen emits a random instance, byte-identical for a given seed.  Trees come
from random Pruefer sequences; general graphs add extra edges on top of a
random tree.

reduce-rainbow turns a rainbow matching question into a districting
instance via the hardness gadget.

difftest cross-checks every applicable solver on a stream of small random
instances and reports per-solver timings, yes counts and answer digests.
Deterministic solvers must agree exactly.  The randomized solver must never
answer yes on a no, and a missed yes is recorded as statistical noise unless
the miss rate beats its probability bound by a factor of three.

Exit codes: 0 for yes (or success on gen, reduce-rainbow, and a clean
difftest), 1 for no (or a difftest failure), 2 for any usage or input
error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from bisect import insort
from dataclasses import dataclass, field, replace
from functools import lru_cache
from math import comb
from random import Random
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__
from .detfpt import solve_target_det
from .exact import VERTEX_CAP, solve_target_exact
from .model import (
    DEFAULT_RULE,
    LEX_MIN,
    PREFER_P,
    Instance,
    Partition,
    TieBreakRule,
    _typed,
    decode_json,
    instance_to_json,
    load_instance,
    satisfies_target,
    save_instance,
)
from .oracle import GENERAL_VERTEX_CAP, first_target, solve_target_oracle
from .randfpt import check_trials, solve_target_rand
from . import reduction

TIEBREAKS = {"lexmin": LEX_MIN, "preferp": PREFER_P}
ALGOS = ("auto", "oracle", "detfpt", "randfpt", "exact")

ORACLE_CUT_BUDGET = 200_000

DIFFTEST_CAPS = {"path": 12, "tree": 10, "general": 9}
DIFFTEST_MAX_CANDIDATES = 4


# --------------------------------------------------------------------------
# solver dispatch
# --------------------------------------------------------------------------


def pick_solver(inst: Instance) -> str:
    """Cheapest applicable deterministic solver, one for every target.

    On a path the oracle runs only while its C(n-1, k-1) cut choices stay
    within ORACLE_CUT_BUDGET and below n^3, the DP's loose 4^(k - k_star) * n^3
    estimate at k_star = k.  As 4^(k - k_star) >= 1 that is its least value,
    so no target whose own estimate favours the DP runs on the oracle.
    Elsewhere the oracle runs while its enumeration stays small, then the
    subset-algebra solver up to its cap.  Estimates only steer dispatch.
    """
    n, k = inst.n, inst.k
    if inst.graph_class == "path":
        cuts = comb(n - 1, k - 1)
        if cuts <= ORACLE_CUT_BUDGET and cuts < n**3:
            return "oracle"
        return "detfpt"
    if inst.graph_class == "tree":
        if comb(n - 1, k - 1) <= ORACLE_CUT_BUDGET:
            return "oracle"
    elif n <= GENERAL_VERTEX_CAP:
        return "oracle"
    if n <= VERTEX_CAP:
        return "exact"
    raise ValueError(
        f"no solver applies: {inst.graph_class} instance with n={inst.n} vertices "
        f"exceeds the subset-algebra cap of {VERTEX_CAP}"
    )


def run_target(
    inst: Instance,
    targets: Sequence[int],
    solver: str,
    rule: TieBreakRule,
    seed: int = 0,
    trials: int = 8,
) -> Tuple[Optional[int], Optional[Partition]]:
    """Smallest of the targets that is a yes and its witness, if the solver
    has one; the oracle scans once, the others go target by target."""
    if solver == "oracle":
        return first_target(inst, targets, rule)
    for ks in targets:
        if solver == "detfpt":
            found, part = solve_target_det(inst, ks, rule, seed=seed)
        elif solver == "randfpt":
            found, part = solve_target_rand(inst, ks, rule, trials=trials, seed=seed), None
        elif solver == "exact":
            found, part = solve_target_exact(inst, ks, rule), None
        else:
            raise ValueError(f"unknown solver {solver!r}")
        if found:
            return ks, part
    return None, None


def target_ruled_out(inst: Instance, k_star: int) -> bool:
    """True when the win count alone makes the target a no.

    Every district has exactly one winner.  If p wins k_star districts and
    each of the m - 1 rivals wins at most k_star - 1, then
    k <= k_star + (m - 1)(k_star - 1) = m * k_star - (m - 1).  A larger k
    leaves districts that no admissible winner can take; k_star = k never
    does, as m * k - (m - 1) >= k.  A ruled-out target skips its solver
    run, on long paths the DP's costliest.
    """
    return inst.k > inst.m * k_star - (inst.m - 1)


def solve_targets(
    inst: Instance,
    rule: TieBreakRule,
    algo: str = "auto",
    k_star: Optional[int] = None,
    seed: int = 0,
    trials: int = 8,
) -> Tuple[Optional[int], Optional[Partition], str]:
    """First target count that is a yes, its witness, and the solver used.

    Tries k_star alone when given, else every target from 1 to k in order;
    the plain question is the disjunction of the targets.  A target that
    target_ruled_out rejects is a no without running a solver.  If any is
    live, one solver (under auto, pick_solver's) gets them all in one
    run_target call, so the oracle answers from one scan.  The path-only,
    forced oracle budget and trials checks run first, so a skipped target
    cannot hide a usage error and an unaffordable scan never starts.
    Returns (None, None, solver) when every target is a no: the solver
    that ran, or the requested algo when every target was ruled out.
    pick_solver and run_target are looked up in this module's globals at
    call time, so wrappers installed on the module see every pick and run.
    """
    if algo in ("detfpt", "randfpt") and inst.graph_class != "path":
        raise ValueError(f"{algo} requires a path instance, got {inst.graph_class!r}")
    if k_star is not None and not (1 <= k_star <= inst.k):
        raise ValueError(f"k-star={k_star} outside 1..k={inst.k}")
    if algo == "oracle" and inst.graph_class in ("path", "tree"):
        cuts = comb(inst.n - 1, inst.k - 1)
        if cuts > ORACLE_CUT_BUDGET:
            raise ValueError(
                f"oracle refused: C({inst.n - 1}, {inst.k - 1}) = {cuts:,} cut choices "
                f"exceed its budget of {ORACLE_CUT_BUDGET:,}"
            )
    check_trials(trials)
    targets = [k_star] if k_star is not None else range(1, inst.k + 1)
    live = [ks for ks in targets if not target_ruled_out(inst, ks)]
    if not live:
        return None, None, algo
    solver = pick_solver(inst) if algo == "auto" else algo
    found, part = run_target(inst, live, solver, rule, seed=seed, trials=trials)
    return found, part, solver


def solve_wgm(
    inst: Instance, rule: TieBreakRule = DEFAULT_RULE, algo: str = "auto"
) -> Tuple[bool, Optional[Partition]]:
    """Can p strictly beat every rival in some k-districting?

    solve_targets over every target, plus one witness step: when the exact
    solver says yes, the witness comes from the solver pick_solver names
    for the instance, and is None when that is the exact solver itself.
    randfpt never yields a witness.
    """
    k_star, part, solver = solve_targets(inst, rule, algo)
    if k_star is None:
        return False, None
    if solver == "exact" and (witness_solver := pick_solver(inst)) != "exact":
        part = run_target(inst, [k_star], witness_solver, rule)[1]
    return True, part


# --------------------------------------------------------------------------
# instance generation
# --------------------------------------------------------------------------


def prufer_tree(rng: Random, n: int) -> List[Tuple[int, int]]:
    """Uniform random labeled tree decoded from a random Pruefer sequence."""
    if n == 1:
        return []
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    leaves = sorted(v for v in range(n) if degree[v] == 1)
    for x in seq:
        leaf = leaves.pop(0)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            # keep the pool sorted so decode order is deterministic
            insort(leaves, x)
    u, v = leaves[0], leaves[1]
    edges.append((min(u, v), max(u, v)))
    return edges


def generate_instance(
    rng: Random,
    n: int,
    m: int,
    graph_class: str,
    weight_max: int,
    k: Optional[int] = None,
) -> Instance:
    """Random instance drawn entirely from `rng`, validated before return."""
    if n < 1 or m < 1 or weight_max < 1:
        raise ValueError("n, m, and weight-max must be positive")
    if graph_class == "path":
        edges = [(v, v + 1) for v in range(n - 1)]
    elif graph_class == "tree":
        edges = prufer_tree(rng, n)
    elif graph_class == "general":
        edges = prufer_tree(rng, n)
        present = set(edges)
        for u in range(n):
            for v in range(u + 1, n):
                if (u, v) not in present and rng.random() < 0.15:
                    edges.append((u, v))
                    present.add((u, v))
    else:
        raise ValueError(f"unknown graph class {graph_class!r}")
    weights = []
    for _ in range(n):
        support = rng.sample(range(m), rng.randint(1, min(m, 3)))
        weights.append({c: rng.randint(1, weight_max) for c in sorted(support)})
    inst = Instance(
        n=n,
        edges=tuple(edges),
        graph_class=graph_class,
        candidates=tuple(f"c{i}" for i in range(m)),
        p=rng.randrange(m),
        k=k if k is not None else rng.randint(1, n),
        weights=tuple(weights),
    )
    inst.validate()
    return inst


# --------------------------------------------------------------------------
# differential testing
# --------------------------------------------------------------------------


@dataclass
class DifftestReport:
    """Outcome of a differential run, shared by the CLI and the test suite."""

    instances: int = 0
    checks: int = 0
    trials: int = 5
    disagreements: List[str] = field(default_factory=list)
    randfpt_yes_checks: int = 0
    randfpt_false_negatives: int = 0
    seconds: Dict[str, float] = field(default_factory=dict)
    answers: Dict[str, List[bool]] = field(default_factory=dict)  # per solver, in call order

    def false_negative_budget(self) -> float:
        """Highest tolerable miss rate: three times the per-check bound."""
        return 3.0 * (1.0 / 3.0) ** self.trials

    @property
    def ok(self) -> bool:
        if self.disagreements:
            return False
        if self.randfpt_yes_checks:
            rate = self.randfpt_false_negatives / self.randfpt_yes_checks
            return rate <= self.false_negative_budget()
        return True

    def note(self, solver: str, dt: float, answer: bool) -> None:
        self.seconds[solver] = self.seconds.get(solver, 0.0) + dt
        self.answers.setdefault(solver, []).append(bool(answer))

    def to_json(self) -> Dict[str, object]:
        import hashlib  # here, not at the top: it maps OpenSSL, 3 MB that solve never needs
        return {
            "instances": self.instances,
            "checks": self.checks,
            "trials": self.trials,
            "disagreements": list(self.disagreements),
            "randfpt": {
                "yes_checks": self.randfpt_yes_checks,
                "false_negatives": self.randfpt_false_negatives,
                "budget": self.false_negative_budget(),
            },
            "timings": {
                solver: {"calls": len(got), "seconds": round(self.seconds[solver], 6)}
                for solver, got in sorted(self.answers.items())
            },
            "answers": {  # yes count, and sha256 of one 0/1 byte per answer in order
                solver: {"yes": sum(got), "sha256": hashlib.sha256(bytes(got)).hexdigest()}
                for solver, got in sorted(self.answers.items())
            },
            "ok": self.ok,
        }

    def render(self) -> str:
        lines = [
            f"difftest: {self.instances} instances, {self.checks} target checks, "
            f"{len(self.disagreements)} disagreements",
            f"randfpt: {self.randfpt_yes_checks} yes checks, "
            f"{self.randfpt_false_negatives} missed "
            f"(budget {self.false_negative_budget():.4%})",
        ]
        for msg in self.disagreements[:20]:
            lines.append(f"  DISAGREE {msg}")
        lines.append(f"{'solver':<10} {'calls':>8} {'yes':>8} {'seconds':>10}")
        for solver, got in sorted(self.answers.items()):
            lines.append(f"{solver:<10} {len(got):>8} {sum(got):>8} {self.seconds[solver]:>10.3f}")
        lines.append("result: " + ("ok" if self.ok else "FAIL"))
        return "\n".join(lines)


def run_difftest(
    count: int = 200, seed: int = 0, trials: int = 5, exhaustive_k_max: int = 0
) -> DifftestReport:
    """Cross-check all applicable solvers on `count` random instances.

    Instances cycle through path, tree, and general graphs under size caps
    that keep the enumeration oracle authoritative, and alternate between
    the two tie-break rules.  Every target count from 1 to k is checked
    per instance; when an instance has at most `exhaustive_k_max` vertices
    every district count from 1 to n is swept as well.  Deterministic
    disagreements and randomized false positives are fatal; randomized
    misses on yes-instances are counted against the probability budget.
    trials below 1 raise ValueError, as the budget 3 * (1/3)**trials would
    then tolerate every miss; so does a count below 1, which checks nothing.
    """
    check_trials(trials)
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    rng = Random(seed)
    rep = DifftestReport(trials=trials)
    classes = tuple(DIFFTEST_CAPS)
    rules = (TieBreakRule(LEX_MIN), TieBreakRule(PREFER_P))

    def timed(solver, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        rep.note(solver, time.perf_counter() - start, out[0] if isinstance(out, tuple) else out)
        return out

    for idx in range(count):
        gclass = classes[idx % len(classes)]
        n = rng.randint(1, DIFFTEST_CAPS[gclass])
        m = rng.randint(1, DIFFTEST_MAX_CANDIDATES)
        inst = generate_instance(rng, n=n, m=m, graph_class=gclass, weight_max=4)
        rule = rules[idx % len(rules)]
        rep.instances += 1
        k_values = range(1, n + 1) if n <= exhaustive_k_max else (inst.k,)
        for k in k_values:
            variant = inst if k == inst.k else replace(inst, k=k)
            tag = f"[{gclass} n={n} m={m} k={k} p={inst.p} seed={seed}/{idx}]"
            for ks in range(1, k + 1):
                rep.checks += 1
                truth, part = timed("oracle", solve_target_oracle, variant, ks, rule)
                if part is not None and not satisfies_target(variant, part, ks, rule):
                    rep.disagreements.append(f"{tag} k*={ks}: oracle witness failed")
                got = timed("exact", solve_target_exact, variant, ks, rule)
                if got != truth:
                    rep.disagreements.append(f"{tag} k*={ks}: exact={got} oracle={truth}")
                if variant.graph_class != "path":
                    continue
                det, det_part = timed("detfpt", solve_target_det, variant, ks, rule)
                if det != truth:
                    rep.disagreements.append(f"{tag} k*={ks}: detfpt={det} oracle={truth}")
                elif det and not satisfies_target(variant, det_part, ks, rule):
                    rep.disagreements.append(f"{tag} k*={ks}: detfpt witness failed")
                rand = timed("randfpt", solve_target_rand, variant, ks, rule,
                             trials=trials, seed=rng.randrange(1 << 30))
                if rand and not truth:
                    rep.disagreements.append(f"{tag} k*={ks}: randfpt yes on a no")
                elif truth:
                    rep.randfpt_yes_checks += 1
                    if not rand:
                        rep.randfpt_false_negatives += 1
    return rep


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_solve(args: argparse.Namespace) -> int:
    inst = load_instance(args.file)
    rule = TieBreakRule(TIEBREAKS[args.tiebreak])
    start = time.perf_counter()
    achieved, witness, used = solve_targets(
        inst, rule, args.algo, args.k_star, seed=args.seed, trials=args.trials
    )
    wall = time.perf_counter() - start
    answer = achieved is not None

    witness_lists: Optional[List[List[int]]] = None
    if args.witness and witness is not None:
        if not satisfies_target(inst, witness, achieved, rule):
            raise ValueError("internal error: witness failed re-validation")
        witness_lists = sorted(sorted(d.vertices) for d in witness.districts)

    report = {
        "answer": "yes" if answer else "no",
        "k_star": achieved,
        "algo": used,
        "tiebreak": args.tiebreak,
        "trials": args.trials,
        "wall_time": round(wall, 6),
        "witness": witness_lists,
    }
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(f"answer: {report['answer']}")
        if achieved is not None:
            print(f"k_star: {achieved}")
        print(f"algo: {used}")
        print(f"wall_time: {wall:.6f}s")
        if args.witness:
            print(f"witness: {witness_lists}")
    return 0 if answer else 1


def cmd_gen(args: argparse.Namespace) -> int:
    rng = Random(args.seed)
    inst = generate_instance(
        rng,
        n=args.n,
        m=args.m,
        graph_class=args.graph_class,
        weight_max=args.weight_max,
        k=args.k,
    )
    write_instance(inst, args.out)
    return 0


def write_instance(inst: Instance, out: Optional[str]) -> None:
    """The instance's canonical JSON to the file out, or to stdout without one."""
    if out is None:
        sys.stdout.write(instance_to_json(inst))
    else:
        save_instance(inst, out)


def load_rainbow(path: str) -> reduction.RainbowMatchingInstance:
    """Read a rainbow matching question: {"n": int, "colors": [...], "k": int}."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = decode_json(fh.read())
    missing = {"n", "colors", "k"} - set(_typed(obj, dict, "rainbow matching JSON"))
    if missing:
        raise ValueError(f"rainbow matching JSON missing keys: {sorted(missing)}")
    colors = tuple(_typed(c, int, "edge color") for c in _typed(obj["colors"], list, "colors"))
    rm = reduction.RainbowMatchingInstance(
        n=_typed(obj["n"], int, "n"), colors=colors, k=_typed(obj["k"], int, "k")
    )
    rm.validate()
    return rm


def cmd_reduce_rainbow(args: argparse.Namespace) -> int:
    rm = load_rainbow(args.file)
    gadget = reduction.reduce(rm)
    write_instance(gadget.instance, args.out)
    return 0


def cmd_difftest(args: argparse.Namespace) -> int:
    rep = run_difftest(count=args.count, seed=args.seed, trials=args.trials)
    if args.json:
        print(json.dumps(rep.to_json(), sort_keys=True))
    else:
        print(rep.render())
    return 0 if rep.ok else 1


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------


@lru_cache(maxsize=None)  # parsing does not change the parser, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tiebreak",
        choices=sorted(TIEBREAKS),
        default="lexmin",
        help="tie-break rule for district winners (default: lexmin)",
    )
    common.add_argument("--seed", type=int, default=0, help="random seed (default: 0)")
    common.add_argument(
        "--json", action="store_true", help="emit one JSON object instead of text"
    )

    parser = argparse.ArgumentParser(
        prog="gerrysolve",
        description="solvers for the weighted gerrymandering decision problem",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", parents=[common], help="decide one instance")
    p_solve.add_argument("file", help="instance JSON file")
    p_solve.add_argument("--algo", choices=ALGOS, default="auto")
    p_solve.add_argument(
        "--k-star",
        type=int,
        default=None,
        dest="k_star",
        help="restrict to the exact target count instead of looping 1..k",
    )
    p_solve.add_argument(
        "--trials", type=int, default=8, help="randfpt repetitions, at least 1 (default: 8)"
    )
    p_solve.add_argument(
        "--witness", action="store_true", help="print a winning partition when one exists"
    )
    p_solve.set_defaults(func=cmd_solve)

    p_gen = sub.add_parser("gen", parents=[common], help="generate a random instance")
    p_gen.add_argument("--n", type=int, default=8, help="vertex count (default: 8)")
    p_gen.add_argument("--m", type=int, default=3, help="candidate count (default: 3)")
    p_gen.add_argument(
        "--graph-class",
        choices=("path", "tree", "general"),
        default="path",
        dest="graph_class",
    )
    p_gen.add_argument("--weight-max", type=int, default=4, dest="weight_max")
    p_gen.add_argument(
        "--k", type=int, default=None, help="district count (default: random in 1..n)"
    )
    p_gen.add_argument("--out", default=None, help="output file (default: stdout)")
    p_gen.set_defaults(func=cmd_gen)

    p_red = sub.add_parser(
        "reduce-rainbow",
        parents=[common],
        help="compile a rainbow matching question into an instance",
    )
    p_red.add_argument("file", help='rainbow matching JSON file {"n", "colors", "k"}')
    p_red.add_argument("--out", default=None, help="output file (default: stdout)")
    p_red.set_defaults(func=cmd_reduce_rainbow)

    p_diff = sub.add_parser(
        "difftest", parents=[common], help="cross-check the solvers on random instances"
    )
    p_diff.add_argument("--count", type=int, default=200, help="instances (default: 200)")
    p_diff.add_argument(
        "--trials", type=int, default=5, help="randfpt repetitions, at least 1 (default: 5)"
    )
    p_diff.set_defaults(func=cmd_difftest)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
