"""Randomized path solver: multilinear monomial detection on a circuit.

The deterministic DP's families can be traded for algebra.  Assign every
labeled arc copy a formal variable and let psi[i, r, v] be the sum, over all
s-to-v walks counted by that DP cell, of the product of the variables on the
walk's labeled arcs.  The recursion mirrors the DP: unlabeled predecessors
pass their polynomial through, rival predecessors multiply theirs by the sum
of that rival's copy variables.  psi[i, r, (a, b)] does not depend on b, so
cells are memoized by (i, r, prefix end a - 1) as in detfpt, with t at
prefix end n.  Built as a circuit (fan-in-2 product gates, one sum per
cell) the output polynomial for cell (k+1, k_star+1, t) has a
multilinear term in its sum-product expansion exactly when some walk hands
out k - k_star pairwise distinct labels, i.e. exactly when the target
question is a yes.

Detection is one-sided Monte Carlo.  Each trial substitutes for variable x a
random element alpha * (e_0 + e_u) of the group algebra GF(2^ell)[Z_2^D] and
evaluates the circuit with one extra twist: every wire into an addition gate
is scaled by a fresh uniform GF(2^ell) coefficient.  Squares vanish,
(e_0 + e_u)^2 = 0 in characteristic 2, so any term repeating a variable
contributes nothing no matter the coefficients; a nonzero output therefore
proves a multilinear term exists.  The wire coefficients are what keeps the
converse alive: without them, terms that occur an even number of times
cancel identically (two districts won by one rival can swap their two label
copies, giving the same monomial twice; so can two distinct walks sharing a
label set), and such instances would be missed with certainty rather than
with the advertised probability.  With distinct coefficient fingerprints per
term, a present multilinear term survives whenever its u vectors are
linearly independent and the coefficient polynomial dodges its
Schwartz-Zippel bad set.  Using D = degree + 2 the independence probability
alone is at least 3/4, which keeps the per-trial success above 2/3; trials
are independent and any nonzero evaluation settles the answer.

Builder invariant that the fingerprint argument needs: each addition gate
appears at most once per sum-product term.  The circuit below guarantees it
by giving every DP layer its own label-sum gates; cell gates are layered by
i, so no gate can recur along a single term.

GF(2^ell) multiplication, for every ell in 1..16, goes through log/exp
tables with a zero sentinel, so a scalar times a whole vector is two table
gathers with no branch for zeros; the irreducible modulus comes from a
built-in Rabin search rather than a trusted constant table.  Group-algebra
values are plain uint32 arrays of length 2^D indexed by group element;
addition is elementwise xor and multiplication is xor-convolution, driven
from the sparser operand's support.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .auxgraph import ArcLabel, AuxGraph, build_aux_graph
from .exact import check_memory_budget
from .model import DEFAULT_RULE, Instance, TieBreakRule

# ---------------------------------------------------------------------------
# arithmetic circuit
# ---------------------------------------------------------------------------


class Circuit:
    """Append-only arithmetic circuit; creation order is topological.

    Gate kinds: ("const", 0 or 1), ("var", variable index),
    ("plus", tuple of gate ids), ("times", (gate id, gate id)).
    """

    def __init__(self, variables: Sequence[ArcLabel]):
        self.variables: Tuple[ArcLabel, ...] = tuple(variables)
        self.kinds: List[str] = []
        self.args: List[object] = []
        self.output: Optional[int] = None
        self._const_ids: Dict[int, int] = {}
        self._var_ids: Dict[int, int] = {}

    @property
    def gate_count(self) -> int:
        return len(self.kinds)

    def const(self, value: int) -> int:
        if value not in (0, 1):
            raise ValueError("only 0 and 1 constants exist")
        if value not in self._const_ids:
            self._const_ids[value] = self._push("const", value)
        return self._const_ids[value]

    def var(self, index: int) -> int:
        if not (0 <= index < len(self.variables)):
            raise ValueError(f"variable index {index} out of range")
        if index not in self._var_ids:
            self._var_ids[index] = self._push("var", index)
        return self._var_ids[index]

    def plus(self, children: Sequence[int]) -> int:
        children = tuple(children)
        if not children:
            return self.const(0)
        if len(children) == 1:
            return children[0]
        return self._push("plus", children)

    def plus_gate(self, children: Sequence[int]) -> int:
        """A real addition gate even for a single child (no collapsing)."""
        return self._push("plus", tuple(children))

    def times(self, a: int, b: int) -> int:
        return self._push("times", (a, b))

    def _push(self, kind: str, arg: object) -> int:
        if kind in ("plus", "times"):
            for child in arg:  # type: ignore[union-attr]
                if not (0 <= child < len(self.kinds)):
                    raise ValueError("gate references a child that does not exist yet")
        self.kinds.append(kind)
        self.args.append(arg)
        return len(self.kinds) - 1

    def validate(self) -> None:
        """Structural checks: children precede parents, times fan-in is 2,
        and the output gate exists."""
        for gid, (kind, arg) in enumerate(zip(self.kinds, self.args)):
            if kind == "times":
                a, b = arg  # type: ignore[misc]
                assert a < gid and b < gid
            elif kind == "plus":
                assert all(c < gid for c in arg)  # type: ignore[union-attr]
            elif kind == "var":
                assert 0 <= arg < len(self.variables)  # type: ignore[operator]
            elif kind == "const":
                assert arg in (0, 1)
            else:
                raise AssertionError(f"unknown gate kind {kind}")
        assert self.output is not None and 0 <= self.output < len(self.kinds)


def build_circuit(inst: Instance, k_star: int, rule: TieBreakRule = DEFAULT_RULE,
                  aux: Optional[AuxGraph] = None) -> Circuit:
    """Memoized construction of the cell polynomials, output at the sink."""
    if aux is None:
        aux = build_aux_graph(inst, k_star, rule)
    universe = aux.label_universe()
    circuit = Circuit(universe)
    var_index = {lab: i for i, lab in enumerate(universe)}
    zero = circuit.const(0)
    one = circuit.const(1)

    # One label-sum gate per (rival, layer).  A single shared gate per rival
    # would recur when that rival wins districts at two layers of one term,
    # collapsing the term's wire fingerprint; see the module docstring.
    block_cache: Dict[Tuple[int, int], int] = {}

    def label_block(candidate: int, layer: int) -> int:
        key = (candidate, layer)
        if key not in block_cache:
            ids = [
                circuit.var(var_index[ArcLabel(candidate, j)])
                for j in range(1, aux.k_star)
            ]
            block_cache[key] = circuit.plus_gate(ids)
        return block_cache[key]

    memo: Dict[Tuple[int, int, int], int] = {}

    def psi(i: int, r: int, e: int) -> int:
        """Cell polynomial of the walks into every (e + 1, b), or into t if e = n."""
        if r < 1 or r > min(i, aux.k_star + 1):
            return zero
        if i == 1:
            return one if (r == 1 and e == 0) else zero
        key = (i, r, e)
        if key in memo:
            return memo[key]
        terms: List[int] = []
        for h in range(1, e + 1):
            winner = aux.interval_winner[(h, e)]
            if winner == aux.p:
                g = psi(i - 1, r - 1, h - 1)
                if g != zero:
                    terms.append(g)
            elif aux.k_star >= 2:  # else no copy variables exist: the product is zero
                g = psi(i - 1, r, h - 1)
                if g == zero:
                    continue
                block = label_block(winner, i)
                terms.append(block if g == one else circuit.times(g, block))
        gate = circuit.plus(terms)
        memo[key] = gate
        return gate

    circuit.output = psi(aux.k + 1, aux.k_star + 1, aux.n)
    circuit.validate()
    return circuit


def expand_symbolic(circuit: Circuit, monomial_cap: int = 500_000) -> Dict[Tuple[int, ...], int]:
    """Full expansion into {sorted variable-index tuple: integer coefficient}.

    Exponential in general; meant for small verification runs.  Raises
    RuntimeError past `monomial_cap` total monomials.
    """
    values: List[Dict[Tuple[int, ...], int]] = []
    total = 0
    for kind, arg in zip(circuit.kinds, circuit.args):
        if kind == "const":
            poly = {(): arg} if arg else {}
        elif kind == "var":
            poly = {(arg,): 1}
        elif kind == "plus":
            poly = {}
            for child in arg:  # type: ignore[union-attr]
                for mono, coef in values[child].items():
                    poly[mono] = poly.get(mono, 0) + coef
            poly = {m: c for m, c in poly.items() if c}
        else:
            a, b = arg  # type: ignore[misc]
            poly = {}
            for m1, c1 in values[a].items():
                for m2, c2 in values[b].items():
                    mono = tuple(sorted(m1 + m2))
                    poly[mono] = poly.get(mono, 0) + c1 * c2
            poly = {m: c for m, c in poly.items() if c}
        total += len(poly)
        if total > monomial_cap:
            raise RuntimeError("symbolic expansion exceeded the monomial cap")
        values.append(poly)
    assert circuit.output is not None
    return values[circuit.output]


# ---------------------------------------------------------------------------
# GF(2^ell) arithmetic
# ---------------------------------------------------------------------------


def _clmul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def _polymod(a: int, mod: int) -> int:
    deg = mod.bit_length() - 1
    while a.bit_length() - 1 >= deg:
        a ^= mod << (a.bit_length() - 1 - deg)
    return a


def _gf_mul_int(a: int, b: int, mod: int) -> int:
    return _polymod(_clmul(a, b), mod)


def _poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _polymod(a, b)
    return a


def _prime_factors(n: int) -> Set[int]:
    """Distinct prime factors of n >= 1, by trial division."""
    primes, d = set(), 2
    while d * d <= n:
        if n % d == 0:
            primes.add(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        primes.add(n)
    return primes


def _is_irreducible(f: int) -> bool:
    """Rabin's irreducibility test for a binary polynomial f."""
    ell = f.bit_length() - 1
    if ell < 1:
        return False
    x = _polymod(0b10, f)

    def x_to_power_2_to(k: int) -> int:
        cur = x
        for _ in range(k):
            cur = _gf_mul_int(cur, cur, f)
        return cur

    if x_to_power_2_to(ell) != x:
        return False
    for p in _prime_factors(ell):
        if _poly_gcd(f, x_to_power_2_to(ell // p) ^ x) != 1:
            return False
    return True


def find_irreducible(ell: int) -> int:
    """Smallest irreducible binary polynomial of degree ell."""
    if ell < 1:
        raise ValueError("degree must be positive")
    top = 1 << ell
    for low in range(1, top, 2):  # the constant term must be 1
        if _is_irreducible(top | low):
            return top | low
    raise RuntimeError("unreachable: irreducible polynomials exist for every degree")


class _GFTables:
    """Log/exp tables for GF(2^ell), vectorized over numpy arrays.

    Zero gets the sentinel log 2 * order.  Nonzero logs are below order, so
    a sum of two logs stays below 2 * order exactly when both factors are
    nonzero, and `exp` is zero from 2 * order to its end at 4 * order.
    exp[log[a] + log[b]] is therefore a * b for every a and b, and the view
    exp[log[a]:] maps log[b] to a * b without an addition pass.
    """

    _cache: Dict[int, "_GFTables"] = {}

    def __init__(self, ell: int):
        if not (1 <= ell <= 16):
            raise ValueError("ell supported in 1..16")
        self.size = 1 << ell
        self.modulus = find_irreducible(ell)
        order = self.size - 1
        gen = self._find_generator(order)
        self.exp = np.zeros(4 * order + 1, dtype=np.uint32)
        self.log = np.full(self.size, 2 * order, dtype=np.uint32)
        cur = 1
        for i in range(order):
            self.exp[i] = cur
            self.log[cur] = i
            cur = _gf_mul_int(cur, gen, self.modulus)
        self.exp[order:2 * order] = self.exp[:order]

    def _find_generator(self, order: int) -> int:
        def power(base: int, e: int) -> int:
            out, b = 1, base
            while e:
                if e & 1:
                    out = _gf_mul_int(out, b, self.modulus)
                b = _gf_mul_int(b, b, self.modulus)
                e >>= 1
            return out

        factors = _prime_factors(order)
        for cand in range(1, self.size):  # 1 generates GF(2)'s one-element group
            if all(power(cand, order // p) != 1 for p in factors):
                return cand
        raise RuntimeError("no generator found, which cannot happen in a field")

    @classmethod
    def get(cls, ell: int) -> "_GFTables":
        if ell not in cls._cache:
            cls._cache[ell] = _GFTables(ell)
        return cls._cache[ell]

    def scalar_times_vector(self, a: int, vec: np.ndarray) -> np.ndarray:
        """a * vec elementwise over the field, as a new uint32 array."""
        return self.exp[self.log[a]:].take(self.log.take(vec))


# ---------------------------------------------------------------------------
# group algebra GF(2^ell)[Z_2^dim]: uint32 arrays of length 2^dim indexed by
# group element, added by xor
# ---------------------------------------------------------------------------


def variable_value(dim: int, u: int, alpha: int) -> np.ndarray:
    """alpha * (e_0 + e_u), the detection substitution for one variable."""
    vec = np.zeros(1 << dim, dtype=np.uint32)
    vec[0] ^= alpha
    vec[u] ^= alpha
    return vec


def xor_convolve(a: np.ndarray, b: np.ndarray, ell: int) -> np.ndarray:
    """The group-algebra product of a and b, driven from the sparser support."""
    tables = _GFTables.get(ell)
    if np.count_nonzero(a) > np.count_nonzero(b):
        a, b = b, a
    out = np.zeros_like(b)
    idx = np.arange(len(b))
    log_b = tables.log.take(b)
    for g in np.nonzero(a)[0]:
        # out[h] gains a[g] * b[h ^ g], read through the row exp[log a[g]:]
        # as in scalar_times_vector
        out ^= tables.exp[tables.log[a[g]]:].take(log_b.take(idx ^ g))
    return out


def evaluate_circuit(
    circuit: Circuit,
    values: Sequence[np.ndarray],
    dim: int,
    ell: int,
    rng: random.Random,
) -> np.ndarray:
    """Evaluate every gate in creation order under the given variable values.

    Each wire into an addition gate is scaled by a fresh uniform GF(2^ell)
    coefficient drawn from `rng`, in child order.  The coefficients never
    create terms, so a polynomial with no multilinear term still evaluates
    to zero; what they add is a distinct fingerprint per sum-product term,
    so equal terms stop cancelling in pairs.
    """
    tables = _GFTables.get(ell)
    out: List[np.ndarray] = []
    for kind, arg in zip(circuit.kinds, circuit.args):
        if kind == "const":
            vec = np.zeros(1 << dim, dtype=np.uint32)
            vec[0] = arg
        elif kind == "var":
            vec = values[arg]  # type: ignore[index]
        elif kind == "plus":
            vec = np.zeros(1 << dim, dtype=np.uint32)
            for child in arg:  # type: ignore[union-attr]
                vec ^= tables.scalar_times_vector(rng.randrange(tables.size), out[child])
        else:
            a, b = arg  # type: ignore[misc]
            vec = xor_convolve(out[a], out[b], ell)
        out.append(vec)
    assert circuit.output is not None
    return out[circuit.output]


def default_ell(degree: int) -> int:
    """ceil(log2(degree)) + 4, and 4 when the degree is 0 or 1."""
    return ((degree - 1).bit_length() if degree >= 1 else 0) + 4


def check_trials(trials: int) -> None:
    """Raise ValueError unless at least one detection trial is asked for."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")


def detect_multilinear(
    circuit: Circuit,
    degree: int,
    ell: Optional[int] = None,
    trials: int = 3,
    seed: int = 0,
) -> bool:
    """True if a multilinear term is (probably) present in the expansion.

    Never answers True when the sum-product expansion has no multilinear
    term.  When one exists it is found with probability at least 2/3 per
    trial, provided no addition gate recurs within a single term (the
    builder above guarantees that for its circuits).  `degree` must bound
    the degree of every monomial.  Raises MemoryError, before allocating,
    when the 2^(degree + 2)-entry uint32 vectors of all variables and gates
    would exceed exact.DEFAULT_MEMORY_CAP.  A circuit whose output gate is
    the constant 0 computes the zero polynomial, which has no multilinear
    term, so it answers False before that check and before allocating.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    check_trials(trials)
    if ell is None:
        ell = default_ell(degree)
    if degree >= 1 and (1 << max(ell - 2, 0)) < degree:
        raise ValueError(f"ell={ell} too small for degree {degree}: need ell >= log2(degree)+2")
    out = circuit.output
    if out is not None and circuit.kinds[out] == "const" and circuit.args[out] == 0:
        return False
    dim = degree + 2  # slack keeps the linear-independence probability >= 3/4
    nvars = len(circuit.variables)
    check_memory_budget((nvars + circuit.gate_count) * 4 * (1 << dim))
    _GFTables.get(ell)  # fail fast if ell is unsupported
    rng = random.Random(seed)
    for _ in range(trials):
        values = [
            variable_value(dim, rng.randrange(1 << dim), rng.randrange(1 << ell))
            for _ in range(nvars)
        ]
        if evaluate_circuit(circuit, values, dim, ell, rng).any():
            return True
    return False


def solve_target_rand(
    inst: Instance,
    k_star: int,
    rule: TieBreakRule = DEFAULT_RULE,
    trials: int = 3,
    seed: int = 0,
) -> bool:
    """One-sided randomized decision for the exact-k_star question on a path.

    A True answer is always correct; a False answer is wrong with
    probability at most (1/3)^trials on a yes-instance.  No witness.

    k_star outside 1..k answers False outright: p cannot win more
    districts than exist, and winning strictly more than every rival
    rules out zero.
    """
    if not (1 <= k_star <= inst.k):
        return False
    circuit = build_circuit(inst, k_star, rule)
    degree = inst.k - k_star
    # wire coefficients add roughly k + 2*degree to the Schwartz-Zippel
    # degree, so scale the field size with k as well
    ell = min(16, max(default_ell(degree), (inst.k + 2).bit_length() + 3))
    return detect_multilinear(circuit, degree, ell=ell, trials=trials, seed=seed)
