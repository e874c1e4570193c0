"""CLI surface: exit codes, JSON shapes, determinism, the difftest harness."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from gerrysolve import cli
from gerrysolve.cli import (
    DifftestReport,
    generate_instance,
    pick_solver,
    prufer_tree,
    run_difftest,
    target_ruled_out,
)
from gerrysolve.model import (
    TieBreakRule,
    classify_graph,
    instance_from_json,
    make_partition,
    satisfies_target,
)
from gerrysolve.oracle import solve_target_oracle

GOLDEN = Path(__file__).parent / "data" / "reduced_gadget.json"


def write_instance(tmp_path, seed=3, n=7, m=3, k=3, graph_class="path"):
    rng = random.Random(seed)
    inst = generate_instance(rng, n=n, m=m, graph_class=graph_class, weight_max=4, k=k)
    path = tmp_path / "inst.json"
    path.write_text(cli.instance_to_json(inst), encoding="utf-8")
    return path, inst


class TestGen:
    def test_same_seed_same_bytes(self, tmp_path, capsys):
        argv = ["gen", "--seed", "11", "--n", "9", "--m", "4", "--graph-class", "general"]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        inst = instance_from_json(first)
        inst.validate()

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert cli.main(["gen", "--seed", "5", "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["gen", "--seed", "5"]) == 0
        assert out.read_text(encoding="utf-8") == capsys.readouterr().out

    def test_every_class_validates(self, capsys):
        for gclass in ("path", "tree", "general"):
            for seed in range(6):
                argv = [
                    "gen", "--seed", str(seed), "--n", "8",
                    "--graph-class", gclass,
                ]
                assert cli.main(argv) == 0
                inst = instance_from_json(capsys.readouterr().out)
                inst.validate()
                assert inst.graph_class == gclass

    def test_impossible_k_is_an_error(self, capsys):
        assert cli.main(["gen", "--n", "4", "--k", "9"]) == 2

    def test_nonpositive_size_is_an_error(self, capsys):
        assert cli.main(["gen", "--n", "0"]) == 2

    def test_prufer_trees_are_trees(self):
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randint(1, 12)
            edges = prufer_tree(rng, n)
            assert len(edges) == max(0, n - 1)
            if n >= 2:
                assert classify_graph(n, tuple(edges)) in ("path", "tree")


class TestSolve:
    def test_yes_no_and_error_exit_codes(self, tmp_path, capsys):
        path, inst = write_instance(tmp_path)
        assert cli.main(["solve", str(path)]) == 0
        capsys.readouterr()

        no_path = tmp_path / "no.json"
        no_path.write_text(
            json.dumps(
                {
                    "n": 2,
                    "edges": [[0, 1]],
                    "graph_class": "path",
                    "candidates": ["p", "q"],
                    "p": "p",
                    "k": 2,
                    "weights": [{"q": 1}, {"q": 1}],
                }
            ),
            encoding="utf-8",
        )
        assert cli.main(["solve", str(no_path)]) == 1
        capsys.readouterr()
        assert cli.main(["solve", str(tmp_path / "missing.json")]) == 2

    def test_json_report_shape(self, tmp_path, capsys):
        path, _ = write_instance(tmp_path)
        assert cli.main(["solve", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {
            "algo", "answer", "k_star", "tiebreak", "trials", "wall_time", "witness",
        }
        assert report["answer"] == "yes"
        assert isinstance(report["k_star"], int)
        assert report["wall_time"] >= 0

    def test_witness_revalidates(self, tmp_path, capsys):
        path, inst = write_instance(tmp_path, seed=8, n=8, m=3, k=4)
        code = cli.main(["solve", str(path), "--witness", "--json"])
        report = json.loads(capsys.readouterr().out)
        if code == 0:
            part = make_partition(report["witness"])
            rule = TieBreakRule("lex_min_candidate")
            assert satisfies_target(inst, part, report["k_star"], rule)
        else:
            assert report["witness"] is None

    def test_k_star_restricts_the_loop(self, tmp_path, capsys):
        path, inst = write_instance(tmp_path)
        assert cli.main(["solve", str(path), "--json"]) == 0
        full = json.loads(capsys.readouterr().out)
        ks = full["k_star"]
        assert cli.main(["solve", str(path), "--k-star", str(ks)]) == 0
        capsys.readouterr()
        misses = [
            t for t in range(1, inst.k + 1)
            if cli.main(["solve", str(path), "--k-star", str(t), "--json"]) == 1
        ]
        capsys.readouterr()
        assert ks not in misses
        assert cli.main(["solve", str(path), "--k-star", "99"]) == 2

    def test_all_solvers_agree_on_paths(self, tmp_path, capsys):
        for seed in range(5):
            path, _ = write_instance(tmp_path, seed=seed, n=6, m=3, k=3)
            codes = {}
            for algo in ("oracle", "detfpt", "randfpt", "exact", "auto"):
                codes[algo] = cli.main(["solve", str(path), "--algo", algo])
                capsys.readouterr()
            assert len(set(codes.values())) == 1, codes

    def test_path_only_solvers_rejected_off_paths(self, tmp_path, capsys):
        path, _ = write_instance(tmp_path, seed=2, n=6, m=2, k=2, graph_class="tree")
        assert cli.main(["solve", str(path), "--algo", "detfpt"]) == 2
        assert cli.main(["solve", str(path), "--algo", "randfpt"]) == 2
        assert cli.main(["solve", str(path), "--algo", "auto"]) in (0, 1)
        capsys.readouterr()

    def test_tiebreak_flag_can_flip_the_answer(self, tmp_path, capsys):
        tie = tmp_path / "tie.json"
        tie.write_text(
            json.dumps(
                {
                    "n": 1,
                    "edges": [],
                    "graph_class": "path",
                    "candidates": ["a", "p"],
                    "p": "p",
                    "k": 1,
                    "weights": [{"a": 2, "p": 2}],
                }
            ),
            encoding="utf-8",
        )
        assert cli.main(["solve", str(tie), "--tiebreak", "lexmin"]) == 1
        capsys.readouterr()
        assert cli.main(["solve", str(tie), "--tiebreak", "preferp"]) == 0
        capsys.readouterr()

    def test_unknown_algo_is_a_usage_error(self, tmp_path):
        path, _ = write_instance(tmp_path)
        with pytest.raises(SystemExit):
            cli.main(["solve", str(path), "--algo", "guess"])

    @pytest.mark.parametrize(
        "text",
        [
            "5",
            '{"n": "4", "edges": [[0, 1]], "graph_class": "path", "candidates": ["p"],'
            ' "p": "p", "k": 1, "weights": [{"p": 1}, {"p": 1}]}',
            '{"n": 2, "edges": [[0, "1"]], "graph_class": "path", "candidates": ["p"],'
            ' "p": "p", "k": 1, "weights": [{"p": 1}, {"p": 1}]}',
            '{"n": 2, "edges": [[0, 1]], "graph_class": "path", "candidates": ["p"],'
            ' "p": ["p"], "k": 1, "weights": [{"p": 1}, {"p": 1}]}',
            '{"n": 2, "edges": [[0, 1]], "graph_class": "path", "candidates": ["p"],'
            ' "p": "p", "k": 1, "weights": [{"p": true}, {"p": 1}]}',
        ],
        ids=["bare-number", "string-n", "string-endpoint", "list-p", "bool-weight"],
    )
    def test_malformed_instance_is_a_one_line_error(self, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        assert_one_line_error("solve", str(bad))

    def test_unaffordable_randfpt_target_is_a_one_line_error(self, tmp_path):
        # k - k_star = 25 gives 2^27-entry vectors for 25 variables and
        # each of the circuit's hundreds of gates: far past the memory cap,
        # refused before allocating.
        path, inst = write_instance(tmp_path, seed=5, n=30, m=26, k=27)
        assert not target_ruled_out(inst, 2)
        assert_one_line_error("solve", str(path), "--algo", "randfpt", "--k-star", "2")


def assert_one_line_error(*argv):
    """Run the CLI in a fresh interpreter: exit 2, one error line, no traceback."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-m", "gerrysolve", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


def write_json(tmp_path, obj):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


class TestTargetLoop:
    def test_long_path_skips_ruled_out_targets_instead_of_scanning(
        self, tmp_path, capsys, monkeypatch
    ):
        # auto would hand k_star = 1..4 to the oracle, which scans C(39, 9)
        # partitions each; the win count bound rules all of k_star <= 5 out.
        def no_oracle(*args, **kwargs):
            raise AssertionError("the oracle must not run on this instance")

        monkeypatch.setattr(cli, "solve_target_oracle", no_oracle)
        voters = ["p" if i % 3 != 2 else "c" for i in range(40)]
        path = write_json(tmp_path, {
            "n": 40,
            "edges": [[i, i + 1] for i in range(39)],
            "graph_class": "path",
            "candidates": ["p", "c"],
            "p": "p",
            "k": 10,
            "weights": [{name: 1} for name in voters],
        })
        assert cli.main(["solve", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["answer"], report["k_star"], report["algo"]) == ("yes", 6, "detfpt")

    def test_ruled_out_targets_are_noes(self):
        rng = random.Random(23)
        rules = (TieBreakRule("lex_min_candidate"), TieBreakRule("prefer_p_then_lex"))
        skipped = 0
        for gclass, n_max in (("path", 9), ("tree", 8), ("general", 7)):
            for _ in range(12):
                n = rng.randint(1, n_max)
                inst = generate_instance(
                    rng, n=n, m=rng.randint(1, 4), graph_class=gclass, weight_max=3,
                    k=rng.randint(1, n),
                )
                assert not target_ruled_out(inst, inst.k)
                for ks in range(1, inst.k):
                    if not target_ruled_out(inst, ks):
                        continue
                    skipped += 1
                    for rule in rules:
                        assert not solve_target_oracle(inst, ks, rule)[0], (inst, ks, rule)
        assert skipped >= 20

    def test_skipped_target_keeps_the_path_only_error(self, tmp_path, capsys):
        path, inst = write_instance(tmp_path, seed=2, n=6, m=2, k=3, graph_class="tree")
        assert target_ruled_out(inst, 1)
        assert cli.main(["solve", str(path), "--algo", "detfpt", "--k-star", "1"]) == 2
        assert "requires a path" in capsys.readouterr().err


class TestPickSolver:
    def test_small_cut_counts_go_to_the_oracle(self):
        rng = random.Random(0)
        inst = generate_instance(rng, n=12, m=2, graph_class="path", weight_max=3, k=2)
        assert pick_solver(inst, 1) == "oracle"

    def test_wide_paths_with_high_targets_go_to_the_dp(self):
        rng = random.Random(0)
        inst = generate_instance(rng, n=40, m=2, graph_class="path", weight_max=3, k=20)
        assert pick_solver(inst, 20) == "detfpt"
        assert pick_solver(inst, 18) == "detfpt"
        assert pick_solver(inst, 2) == "detfpt", "C(39, 19) cuts are past the oracle's budget"

    @pytest.mark.parametrize("m", [3, 4])
    def test_long_paths_never_go_to_a_large_oracle_scan(self, m):
        # The DP estimate 4^6 * 40^3 exceeds the C(39, 9) = 2.1e8 cut count,
        # but a scan that size takes hours; k_star = 4 is not ruled out.
        inst = generate_instance(
            random.Random(21), n=40, m=m, graph_class="path", weight_max=4, k=10
        )
        assert not target_ruled_out(inst, 4)
        assert pick_solver(inst, 4) == "detfpt"

    def test_never_a_path_solver_off_paths(self):
        rng = random.Random(1)
        for gclass in ("tree", "general"):
            for seed in range(8):
                n = rng.randint(2, 14)
                inst = generate_instance(
                    rng, n=n, m=2, graph_class=gclass, weight_max=3, k=rng.randint(1, n)
                )
                for ks in range(1, inst.k + 1):
                    assert pick_solver(inst, ks) in ("oracle", "exact")

    def test_oversized_instances_have_no_solver(self):
        rng = random.Random(2)
        inst = generate_instance(rng, n=30, m=2, graph_class="general", weight_max=3, k=3)
        with pytest.raises(ValueError, match="no solver applies"):
            pick_solver(inst, 1)


class TestReduceRainbow:
    def test_golden_output(self, tmp_path, capsys):
        rm = tmp_path / "rm.json"
        rm.write_text('{"n": 4, "colors": [1, 2, 3], "k": 5}\n', encoding="utf-8")
        assert cli.main(["reduce-rainbow", str(rm)]) == 0
        assert capsys.readouterr().out == GOLDEN.read_text(encoding="utf-8")

    def test_out_file(self, tmp_path):
        rm = tmp_path / "rm.json"
        rm.write_text('{"n": 11, "colors": [1,2,3,4,5,6,7,8,9,10], "k": 5}', encoding="utf-8")
        out = tmp_path / "gadget.json"
        assert cli.main(["reduce-rainbow", str(rm), "--out", str(out)]) == 0
        inst = instance_from_json(out.read_text(encoding="utf-8"))
        assert inst.n == 153 and inst.k == 49

    def test_bad_inputs_exit_two(self, tmp_path, capsys):
        rm = tmp_path / "rm.json"
        rm.write_text('{"n": 12, "colors": [1,2,3,4,5,6,7,8,9,10,11], "k": 4}', encoding="utf-8")
        assert cli.main(["reduce-rainbow", str(rm)]) == 2
        rm.write_text('{"n": 12, "k": 5}', encoding="utf-8")
        assert cli.main(["reduce-rainbow", str(rm)]) == 2
        rm.write_text("{not json", encoding="utf-8")
        assert cli.main(["reduce-rainbow", str(rm)]) == 2


class TestDifftest:
    def test_clean_run(self):
        rep = run_difftest(count=45, seed=2, trials=5)
        assert rep.ok
        assert rep.instances == 45
        assert rep.disagreements == []
        assert rep.checks >= 45
        assert rep.randfpt_yes_checks > 0
        assert rep.randfpt_false_negatives == 0
        assert set(rep.calls) == {"oracle", "exact", "detfpt", "randfpt"}
        assert rep.calls["oracle"] == rep.checks == rep.calls["exact"]

    def test_cli_wrapper_and_json(self, capsys):
        assert cli.main(["difftest", "--count", "9", "--seed", "4", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["ok"] is True
        assert obj["instances"] == 9
        assert obj["randfpt"]["false_negatives"] == 0
        assert set(obj["timings"]) == {"oracle", "exact", "detfpt", "randfpt"}
        assert cli.main(["difftest", "--count", "9", "--seed", "4"]) == 0
        text = capsys.readouterr().out
        assert "result: ok" in text
        assert "solver" in text

    def test_report_failure_conditions(self):
        rep = DifftestReport(trials=5)
        assert rep.ok
        rep.randfpt_yes_checks = 100
        rep.randfpt_false_negatives = 2
        assert not rep.ok, "2% misses beat the 1.23% budget"
        rep.randfpt_false_negatives = 1
        assert rep.ok
        rep.disagreements.append("solver said up, oracle said down")
        assert not rep.ok
        assert "FAIL" in rep.render()
