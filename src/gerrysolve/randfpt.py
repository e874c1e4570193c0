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

Detection is a narrow sieve (Bjorklund, Husfeldt, Kaski & Koivisto, JCSS
2017) over GF(2^ell) scalars, for degree d = k - k_star.  Each trial draws
a uniform row a[v] of d field elements per variable v, evaluates the
circuit at each of the 2^d subsets S of {0..d-1} with x_v(S) = xor of
a[v][l] over l in S, scales every wire into an addition gate by a fresh
uniform coefficient, and answers yes when the xor of the output over all S
is nonzero.  A term's product, summed over S, counts each map from its
variable slots to {0..d-1} 2^(d - |image|) times, which is odd only for
onto maps.  So in characteristic 2 the sum is that of c_T(r) * perm(a[T])
over the terms T of degree d, c_T being T's wire-coefficient product and
a[T] the rows of T's variables.  A term of lower degree has no onto map; a
repeated variable gives two equal rows, and a permanent is a determinant
in characteristic 2.  With no multilinear term of degree d the sum is
therefore exactly 0 for every draw: the solver never answers yes wrongly.

The wire coefficients keep the converse alive: without them, terms that
occur an even number of times cancel identically (two districts won by one
rival can swap their two label copies, giving the same monomial twice; so
can two distinct walks sharing a label set).  With them, distinct
occurrences carry distinct coefficient monomials and distinct variable
sets distinct determinants, so a multilinear term makes the sum a nonzero
polynomial in the draws, of degree at most d + P, P being the most
addition gates one sum-product term passes through.  By Schwartz-Zippel a
trial misses with probability at most (d + P) / 2^ell, and ell is the
smallest with 2^ell >= 3 (d + P), so at most 1/3; a circuit needing
ell > 16 is refused.  Any nonzero trial settles the answer.

Builder invariant that the fingerprint argument needs: each addition gate
appears at most once per sum-product term.  The circuit below guarantees it
by giving every DP layer its own label-sum gates; cell gates are layered by
i, so no gate can recur along a single term.

Values are uint32 arrays over the 2^d points, dropped at their last
reader.  GF(2^ell) products, for every ell in 1..16, are gathers from
log/exp tables with a zero sentinel; the irreducible modulus comes from a
built-in Rabin search rather than a trusted constant table.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .auxgraph import ArcLabel, AuxGraph, build_aux_graph
from .exact import _over_subsets, check_memory_budget
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
        """Cell polynomial of the walks into every (e + 1, b), or into t if e = n.
        The tails start at h = i - 1: a cell of layer i - 1 has prefix end
        >= i - 2, so earlier tails only look up cells that never exist."""
        if r < 1 or r > min(i, aux.k_star + 1):
            return zero
        if i == 1:
            return one if (r == 1 and e == 0) else zero
        key = (i, r, e)
        if key in memo:
            return memo[key]
        terms: List[int] = []
        for h, winner in enumerate(aux.tails[e][i - 2:], i - 1):
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
        self.exp = np.zeros(4 * order + 1, dtype=np.uint32)
        self.log = np.full(self.size, 2 * order, dtype=np.uint32)
        for gen in range(1, self.size):  # the first element whose powers fill the tables
            cur = 1
            for i in range(order):
                if i and cur == 1:
                    break  # gen's order is i < order
                self.exp[i] = cur
                self.log[cur] = i
                cur = _gf_mul_int(cur, gen, self.modulus)
            else:
                break
        self.exp[order:2 * order] = self.exp[:order]

    @classmethod
    def get(cls, ell: int) -> "_GFTables":
        if ell not in cls._cache:
            cls._cache[ell] = _GFTables(ell)
        return cls._cache[ell]

    def scalar_times_vector(self, a: int, vec: np.ndarray) -> np.ndarray:
        """a * vec elementwise over the field, as a new uint32 array."""
        return self.exp[self.log[a]:].take(self.log.take(vec))


# ---------------------------------------------------------------------------
# the sieve
# ---------------------------------------------------------------------------


def plan_sieve(circuit: Circuit) -> Tuple[int, List[List[int]], int]:
    """(P, drops, peak).  P is the most addition gates one sum-product term of
    the output passes through: 1 plus the largest child's at an addition
    gate, the sum of both children's at a product gate.  drops[g] lists the
    values to free once gate g is computed: each at its last reader, at once
    if nobody reads it, never the output.  peak is the most alive at once.
    """
    count = circuit.gate_count
    depth: List[int] = []
    last = list(range(count))
    for gid, (kind, arg) in enumerate(zip(circuit.kinds, circuit.args)):
        children = arg if kind in ("plus", "times") else ()
        for child in children:  # type: ignore[union-attr]
            last[child] = gid
        if kind == "plus":
            depth.append(1 + max((depth[c] for c in children), default=0))
        else:
            depth.append(sum(depth[c] for c in children))
    drops: List[List[int]] = [[] for _ in range(count)]
    for gid, reader in enumerate(last):
        if gid != circuit.output:
            drops[reader].append(gid)
    live = peak = 0
    for gid in range(count):
        live += 1
        peak = max(peak, live)
        live -= len(drops[gid])
    assert circuit.output is not None
    return depth[circuit.output], drops, peak


def evaluate_circuit(
    circuit: Circuit,
    a: np.ndarray,
    ell: int,
    rng: random.Random,
    drops: Sequence[Sequence[int]],
) -> np.ndarray:
    """The output gate's values at all 2^d points S, d being a's row length.

    Variable v takes the xor of a[v][l] over l in S, product gates multiply
    pointwise, and each wire into an addition gate is scaled by a fresh
    uniform GF(2^ell) coefficient drawn from `rng` in gate and child order.
    drops[g] lists the values freed once gate g is computed (plan_sieve).
    """
    tables = _GFTables.get(ell)
    points = 1 << a.shape[1]
    out: List[Optional[np.ndarray]] = [None] * circuit.gate_count
    for gid, (kind, arg) in enumerate(zip(circuit.kinds, circuit.args)):
        if kind == "const":
            vec = np.full(points, arg, dtype=np.uint32)
        elif kind == "var":
            vec = _over_subsets(a[arg], np.bitwise_xor)
        elif kind == "plus":
            vec = np.zeros(points, dtype=np.uint32)
            for child in arg:  # type: ignore[union-attr]
                vec ^= tables.scalar_times_vector(rng.randrange(tables.size), out[child])
        else:
            x, y = arg  # type: ignore[misc]
            vec = tables.exp.take(tables.log.take(out[x]) + tables.log.take(out[y]))
        out[gid] = vec
        for dead in drops[gid]:
            out[dead] = None
    assert circuit.output is not None
    return out[circuit.output]


def check_trials(trials: int) -> None:
    """Raise ValueError unless at least one detection trial is asked for."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")


def detect_multilinear(circuit: Circuit, degree: int, trials: int = 3, seed: int = 0) -> bool:
    """True if a multilinear term of degree exactly `degree` is (probably)
    present in the expansion.

    Every monomial must have degree at most `degree`; the sieve does not see
    terms of lower degree.  Never answers True when the expansion has no
    multilinear term of that degree.  When one exists it is found with
    probability at least 2/3 per trial, provided no addition gate recurs
    within a single term (the builder above guarantees that for its
    circuits).  Raises ValueError when that bound needs a field past
    GF(2^16), and MemoryError when the most values alive at once, plus the
    temporaries of a product, at 2^degree uint32 each, would exceed
    exact.DEFAULT_MEMORY_CAP; both before allocating.  A circuit whose output
    gate is the constant 0 computes the zero polynomial, which has no
    multilinear term, so it answers False before those checks.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    check_trials(trials)
    out = circuit.output
    if out is not None and circuit.kinds[out] == "const" and circuit.args[out] == 0:
        return False
    depth, drops, peak = plan_sieve(circuit)
    ell = (3 * (degree + depth) - 1).bit_length()  # smallest with 2^ell >= 3 (d + P)
    if ell > 16:
        raise ValueError(
            f"degree {degree} with {depth} addition gates per term needs GF(2^{ell}) "
            "for a 1/3 miss bound, past GF(2^16)"
        )
    # a product gate also holds two log gathers and their sum
    check_memory_budget((peak + 3) * 4 << degree)
    nvars = len(circuit.variables)
    rng = random.Random(seed)
    for _ in range(trials):
        draws = [rng.randrange(1 << ell) for _ in range(nvars * degree)]
        a = np.array(draws, dtype=np.uint32).reshape(nvars, degree)
        if np.bitwise_xor.reduce(evaluate_circuit(circuit, a, ell, rng, drops)):
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
    return detect_multilinear(circuit, inst.k - k_star, trials=trials, seed=seed)
