"""Randomized solver: circuit semantics, field layer, detection guarantees."""

from __future__ import annotations

import random

import numpy as np
import pytest

from conftest import find_st_paths, has_qualifying_path, random_instance
from gerrysolve.auxgraph import ArcLabel, build_aux_graph
from gerrysolve.model import Instance, TieBreakRule
from gerrysolve.oracle import solve_target_oracle
from gerrysolve.randfpt import (
    Circuit,
    GroupAlgebraElement,
    _GFTables,
    _gf_mul_int,
    _is_irreducible,
    build_circuit,
    detect_multilinear,
    expand_symbolic,
    find_irreducible,
    solve_target_rand,
)

LEX = TieBreakRule("lex_min_candidate")


def make_instance(voter_candidates, candidates, k, p=0):
    """Path instance where each voter approves exactly one candidate."""
    n = len(voter_candidates)
    name_to_idx = {name: i for i, name in enumerate(candidates)}
    return Instance(
        n=n,
        edges=tuple((i, i + 1) for i in range(n - 1)),
        graph_class="path",
        candidates=tuple(candidates),
        p=p,
        k=k,
        weights=tuple({name_to_idx[c]: 1} for c in voter_candidates),
    )


def path_monomials(aux, var_index):
    """Every monomial the copy-expanded path sum can produce, with repeats,
    plus the subset coming from distinctly labeled paths."""
    all_monos = set()
    distinct_monos = set()
    for _, labels in find_st_paths(aux, aux.k + 2):
        unlabeled = sum(1 for lab in labels if lab is None)
        if unlabeled != aux.k_star + 1:
            continue
        tagged = [lab for lab in labels if lab is not None]
        mono = tuple(sorted(var_index[lab] for lab in tagged))
        all_monos.add(mono)
        if len(set(tagged)) == len(tagged):
            distinct_monos.add(mono)
    return all_monos, distinct_monos


class TestCircuitSemantics:
    def test_expansion_matches_path_enumeration(self):
        rng = random.Random(501)
        multilinear_seen = 0
        for _ in range(60):
            inst = random_instance(rng, graph_class="path", n=rng.randint(1, 5))
            k_star = rng.randint(1, inst.k)
            aux = build_aux_graph(inst, k_star, LEX)
            circuit = build_circuit(inst, k_star, LEX, aux=aux)
            var_index = {lab: i for i, lab in enumerate(circuit.variables)}
            poly = expand_symbolic(circuit)
            all_monos, distinct_monos = path_monomials(aux, var_index)

            assert set(poly) == all_monos
            assert all(coef >= 1 for coef in poly.values())
            # both containments between the path sum and the circuit
            assert distinct_monos <= set(poly)
            multilinear = {m for m in poly if len(set(m)) == len(m)}
            assert multilinear <= distinct_monos
            # degree is pinned, never merely bounded
            assert all(len(m) == inst.k - k_star for m in poly)
            assert bool(multilinear) == has_qualifying_path(aux)
            if multilinear:
                multilinear_seen += 1
        assert multilinear_seen > 15

    def test_constant_circuit_when_k_equals_k_star(self):
        rng = random.Random(502)
        for _ in range(20):
            inst = random_instance(rng, graph_class="path", n=rng.randint(1, 6))
            aux = build_aux_graph(inst, inst.k, LEX)
            circuit = build_circuit(inst, inst.k, LEX, aux=aux)
            poly = expand_symbolic(circuit)
            assert set(poly) <= {()}
            assert bool(poly) == has_qualifying_path(aux)

    def test_rival_head_with_single_district_count(self):
        # two voters, v0 backs the rival, v1 backs p; k=2, k_star=1 leaves
        # the rival no label copies, so the polynomial collapses to zero
        inst = make_instance(["c", "p"], ["p", "c"], k=2)
        circuit = build_circuit(inst, 1, LEX)
        assert expand_symbolic(circuit) == {}
        assert solve_target_rand(inst, 1, LEX, trials=6, seed=3) is False

    def test_gate_count_within_documented_bound(self):
        rng = random.Random(503)
        for _ in range(40):
            inst = random_instance(rng, graph_class="path", n=rng.randint(1, 8))
            k_star = rng.randint(1, inst.k)
            circuit = build_circuit(inst, k_star, LEX)
            bound = 16 * inst.k**2 * inst.n**2 * max(k_star, 1) * inst.m
            assert circuit.gate_count <= bound

    def test_circuit_rejects_bad_manual_wiring(self):
        circuit = Circuit([ArcLabel(1, 1)])
        with pytest.raises(ValueError):
            circuit.times(0, 5)
        with pytest.raises(ValueError):
            circuit.var(3)
        with pytest.raises(ValueError):
            circuit.const(2)


class TestFieldLayer:
    def test_frozen_irreducibility_facts(self):
        # x^2+x+1 is the unique irreducible quadratic; x^2+1 = (x+1)^2 and
        # x^4+x^2+1 = (x^2+x+1)^2 are not irreducible; the degree-8 modulus
        # x^8+x^4+x^3+x+1 is a classic irreducible octic
        assert _is_irreducible(0b111)
        assert not _is_irreducible(0b101)
        assert not _is_irreducible(0b10101)
        assert _is_irreducible(0b100011011)
        assert find_irreducible(2) == 0b111

    def test_every_element_fixed_by_field_frobenius_power(self):
        # a^(2^ell) = a for all field elements; this fails when the modulus
        # is reducible, so it checks the Rabin search end to end
        for ell in (1, 2, 3, 5, 8, 12):
            tables = _GFTables.get(ell)
            rng = random.Random(ell)
            sample = range(tables.size) if ell <= 8 else [
                rng.randrange(tables.size) for _ in range(200)
            ]
            for a in sample:
                cur = a
                for _ in range(ell):
                    cur = tables.mul_scalars(cur, cur)
                assert cur == a

    def test_no_zero_divisors(self):
        for ell in (3, 8, 12):
            tables = _GFTables.get(ell)
            rng = random.Random(100 + ell)
            for _ in range(300):
                a = rng.randrange(1, tables.size)
                b = rng.randrange(1, tables.size)
                assert tables.mul_scalars(a, b) != 0

    def test_scalar_times_vector_matches_scalar_loop(self):
        for ell in (2, 8, 12):
            tables = _GFTables.get(ell)
            rng = random.Random(200 + ell)
            vec = np.array([rng.randrange(tables.size) for _ in range(64)], dtype=np.uint32)
            for _ in range(10):
                a = rng.randrange(tables.size)
                expected = np.array(
                    [tables.mul_scalars(a, int(v)) for v in vec], dtype=np.uint32
                )
                assert np.array_equal(tables.scalar_times_vector(a, vec), expected)

    def test_field_distributes_over_xor(self):
        for ell in (4, 12):
            tables = _GFTables.get(ell)
            rng = random.Random(300 + ell)
            for _ in range(200):
                a, b, c = (rng.randrange(tables.size) for _ in range(3))
                left = tables.mul_scalars(a, b ^ c)
                right = tables.mul_scalars(a, b) ^ tables.mul_scalars(a, c)
                assert left == right


def random_element(dim, ell, rng):
    coeffs = np.array(
        [rng.randrange(1 << ell) for _ in range(1 << dim)], dtype=np.uint32
    )
    return GroupAlgebraElement(dim, ell, coeffs)


class TestGroupAlgebra:
    def test_ring_laws(self):
        rng = random.Random(601)
        for dim, ell in [(1, 1), (2, 3), (3, 8), (4, 12), (6, 16)]:
            a = random_element(dim, ell, rng)
            b = random_element(dim, ell, rng)
            c = random_element(dim, ell, rng)
            assert np.array_equal(a.mul(b).coeffs, b.mul(a).coeffs)
            assert np.array_equal(a.mul(b).mul(c).coeffs, a.mul(b.mul(c)).coeffs)
            assert np.array_equal(
                a.mul(b.add(c)).coeffs, a.mul(b).add(a.mul(c)).coeffs
            )
            ident = GroupAlgebraElement.identity(dim, ell)
            assert np.array_equal(a.mul(ident).coeffs, a.coeffs)
            assert a.mul(GroupAlgebraElement.zero(dim, ell)).is_zero()
            assert a.add(a).is_zero()

    def test_variable_values_square_to_zero(self):
        rng = random.Random(602)
        for _ in range(60):
            dim = rng.randint(1, 5)
            ell = rng.choice([2, 4, 8, 13])
            u = rng.randrange(1 << dim)
            alpha = rng.randrange(1 << ell)
            x = GroupAlgebraElement.variable_value(dim, ell, u, alpha)
            assert x.mul(x).is_zero()

    def test_scaled_matches_identity_product(self):
        rng = random.Random(603)
        for dim, ell in [(3, 5), (2, 12)]:
            a = random_element(dim, ell, rng)
            s = rng.randrange(1, 1 << ell)
            via_identity = a.mul(GroupAlgebraElement.identity(dim, ell).scaled(s))
            assert np.array_equal(a.scaled(s).coeffs, via_identity.coeffs)


class TestDetection:
    def manual_circuit(self, wiring):
        variables = [ArcLabel(1, 1), ArcLabel(1, 2), ArcLabel(2, 1)]
        circuit = Circuit(variables)
        wiring(circuit)
        circuit.validate()
        return circuit

    def test_square_never_detected(self):
        def wire(c):
            v = c.var(0)
            c.output = c.times(v, v)

        circuit = self.manual_circuit(wire)
        for seed in range(15):
            assert detect_multilinear(circuit, 2, trials=5, seed=seed) is False

    def test_plain_product_detected(self):
        def wire(c):
            c.output = c.times(c.var(0), c.var(1))

        circuit = self.manual_circuit(wire)
        for seed in range(8):
            assert detect_multilinear(circuit, 2, trials=12, seed=seed) is True

    def test_multilinear_summand_detected_next_to_square(self):
        def wire(c):
            v0 = c.var(0)
            square = c.times(v0, v0)
            good = c.times(c.var(1), c.var(2))
            c.output = c.plus([square, good])

        circuit = self.manual_circuit(wire)
        for seed in range(8):
            assert detect_multilinear(circuit, 2, trials=12, seed=seed) is True

    def test_ell_validation(self):
        def wire(c):
            c.output = c.times(c.var(0), c.var(1))

        circuit = self.manual_circuit(wire)
        with pytest.raises(ValueError):
            detect_multilinear(circuit, 8, ell=4)
        with pytest.raises(ValueError):
            detect_multilinear(circuit, 2, ell=17)
        with pytest.raises(ValueError):
            detect_multilinear(circuit, -1)

    def test_even_path_count_still_detected(self):
        # two all-p partitions of a 3-path into 2 districts give a constant
        # polynomial whose two terms would cancel mod 2 without the wire
        # coefficients; the solver must still answer yes
        inst = make_instance(["p", "p", "p"], ["p", "q"], k=2)
        assert solve_target_oracle(inst, 2, LEX)[0] is True
        for seed in range(10):
            assert solve_target_rand(inst, 2, LEX, trials=8, seed=seed) is True

    def test_double_rival_win_still_detected(self):
        # forced singletons: the rival wins two districts, so every witness
        # term pairs that rival's two copies; the two copy orderings would
        # cancel mod 2 without per-term fingerprints
        inst = make_instance(["p", "p", "p", "c", "c"], ["p", "c"], k=5)
        assert solve_target_oracle(inst, 3, LEX)[0] is True
        for seed in range(10):
            assert solve_target_rand(inst, 3, LEX, trials=8, seed=seed) is True

    def test_unaffordable_degree_raises_before_allocating(self):
        # degree 25: 25 variables and every gate would hold a 2^27-entry
        # uint32 vector, 512 MiB each, past the 2 GiB cap.
        inst = random_instance(random.Random(6), graph_class="path", n=30, m=26, k=27)
        circuit = build_circuit(inst, 2, LEX)
        assert circuit.gate_count > 100
        with pytest.raises(MemoryError, match="exceeds the cap"):
            detect_multilinear(circuit, 25)
        with pytest.raises(MemoryError, match="exceeds the cap"):
            solve_target_rand(inst, 2, LEX)

    def test_k_star_out_of_range_is_false(self):
        inst = make_instance(["p", "p"], ["p", "c"], k=2)
        assert solve_target_rand(inst, 3, LEX) is False
        assert solve_target_rand(inst, 0, LEX) is False


class TestAgainstOracle:
    def test_one_sided_and_powerful(self):
        rng = random.Random(701)
        yes_seen = 0
        for _ in range(70):
            inst = random_instance(rng, graph_class="path", n=rng.randint(1, 7))
            for k_star in range(1, inst.k + 1):
                expected, _ = solve_target_oracle(inst, k_star, LEX)
                if expected:
                    yes_seen += 1
                    assert solve_target_rand(inst, k_star, LEX, trials=12, seed=0)
                else:
                    for seed in range(4):
                        assert not solve_target_rand(
                            inst, k_star, LEX, trials=3, seed=seed
                        )
        assert yes_seen > 25

    def test_prefer_p_rule(self):
        rng = random.Random(702)
        rule = TieBreakRule("prefer_p_then_lex")
        yes_seen = 0
        for _ in range(20):
            inst = random_instance(rng, graph_class="path", n=rng.randint(1, 6))
            for k_star in range(1, inst.k + 1):
                expected, _ = solve_target_oracle(inst, k_star, rule)
                got = solve_target_rand(inst, k_star, rule, trials=12, seed=1)
                if expected:
                    yes_seen += 1
                    assert got
                else:
                    assert not got
        assert yes_seen > 10

    def test_reproducible_per_seed(self):
        rng = random.Random(703)
        for _ in range(10):
            inst = random_instance(rng, graph_class="path", n=rng.randint(2, 6))
            k_star = rng.randint(1, inst.k)
            first = [
                solve_target_rand(inst, k_star, LEX, trials=2, seed=s) for s in range(6)
            ]
            second = [
                solve_target_rand(inst, k_star, LEX, trials=2, seed=s) for s in range(6)
            ]
            assert first == second

    def test_non_path_rejected(self):
        rng = random.Random(704)
        inst = random_instance(rng, graph_class="tree", n=6)
        if inst.graph_class == "path":
            pytest.skip("random tree happened to be a path")
        with pytest.raises(ValueError):
            solve_target_rand(inst, 1, LEX)
