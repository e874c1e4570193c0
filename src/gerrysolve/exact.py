"""Exact solver for the target win-count question on arbitrary graphs.

The encoding works over polynomials indexed by vertex subsets.  A set S of
vertices becomes the integer exponent whose bit v is set exactly when v is in
S, and a family of districts becomes a 0/1 coefficient table over these
exponents.  Multiplying two such polynomials adds exponents as plain
integers.  When the underlying sets overlap, the addition carries and the
popcount of the resulting exponent drops strictly below the combined set
sizes, so filtering a product by popcount keeps precisely the terms built
from disjoint pairs.  Repeating multiply-project-saturate steps therefore
assembles collections of pairwise disjoint districts one district at a time,
and the instance is a yes exactly when the all-ones exponent survives into
the final table.

The driver builds, for the distinguished candidate p, the table of unions of
k_star disjoint p-winning districts, then folds in the other candidates one
at a time.  Each rival is allowed at most min(k_star - 1, k - k_star) wins,
enforced by the number of update rounds it receives; each round extends
existing collections by one district of that rival, reading the tables as
they stood before the round so a single round can never chain two new
districts together.

Districts come from numpy passes over vertex masks (reach closure, subset
sums, argmax in tie-break order); enumerate_districts gives the argument.

Products are computed sparsely (pairwise sums of exponent lists) when the
operand supports are small, and otherwise as one dense product through
numpy's real FFT, rounded back to integers.  Both routes produce identical
supports, and only support membership matters downstream.  Every operand is
saturated to 0/1 first, which keeps the FFT's rounding error far below 1/2;
_ntt_convolve states the bound and refuses inputs past it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .model import DEFAULT_RULE, Instance, TieBreakRule, adjacency_masks

VERTEX_CAP = 22
DEFAULT_MEMORY_CAP = 2 * 1024 ** 3

_PAIR_LIMIT = 1 << 18

_EMPTY = np.empty(0, dtype=np.int64)

TraceHook = Callable[[str, Dict[str, object]], None]


# --------------------------------------------------------------------------
# popcount support
# --------------------------------------------------------------------------

_pc_cache: Dict[int, np.ndarray] = {}


def _popcounts(n_bits: int) -> np.ndarray:
    """Lookup table: popcount of every integer below 2**n_bits."""
    table = _pc_cache.get(n_bits)
    if table is None:
        table = np.zeros(1, dtype=np.uint8)
        for _ in range(n_bits):
            table = np.concatenate([table, table + 1])
        _pc_cache[n_bits] = table
    return table


# --------------------------------------------------------------------------
# polynomials over subset exponents
# --------------------------------------------------------------------------


@dataclass
class SetPolynomial:
    """Nonnegative integer polynomial whose exponents encode vertex sets.

    coeffs has length 2**n_bits; coeffs[e] is the coefficient of y**e.
    Products of two n-bit polynomials live in n_bits + 1 bits because
    exponents add as integers during multiplication.
    """

    n_bits: int
    coeffs: np.ndarray

    @classmethod
    def zero(cls, n_bits: int) -> "SetPolynomial":
        return cls(n_bits, np.zeros(1 << n_bits, dtype=np.int64))

    @classmethod
    def from_exponents(cls, n_bits: int, exponents) -> "SetPolynomial":
        poly = cls.zero(n_bits)
        exps = np.asarray(list(exponents), dtype=np.int64)
        if exps.size:
            np.add.at(poly.coeffs, exps, 1)
        return poly

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def coefficient(self, exponent: int) -> int:
        return int(self.coeffs[exponent])

    def exponents(self) -> np.ndarray:
        return np.flatnonzero(self.coeffs)

    def add(self, other: "SetPolynomial") -> "SetPolynomial":
        if self.n_bits != other.n_bits:
            raise ValueError("mismatched polynomial widths")
        return SetPolynomial(self.n_bits, self.coeffs + other.coeffs)

    def representative(self) -> "SetPolynomial":
        """Forget multiplicities: clamp every coefficient to 0 or 1."""
        return SetPolynomial(self.n_bits, np.minimum(self.coeffs, 1))


def hamming_projection(poly: SetPolynomial, h: int) -> SetPolynomial:
    """Keep only the terms whose exponent has exactly h set bits."""
    out = np.zeros_like(poly.coeffs)
    keep = _popcounts(poly.n_bits) == h
    out[keep] = poly.coeffs[keep]
    return SetPolynomial(poly.n_bits, out)


# --------------------------------------------------------------------------
# convolution
# --------------------------------------------------------------------------

# Operands with ||a||_2 * ||b||_2 * log2(size) at or above this are refused.
_FFT_NORM_LIMIT = float(1 << 40)


def _ntt_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Linear convolution of two integer vectors through numpy's real FFT.

    Both operands are zero-padded to the power of two size >= the output
    length, transformed, multiplied pointwise, transformed back and rounded
    to the nearest integer.  Rounding recovers the exact integer result when
    every entry's floating-point error is below 1/2.  Percival (Math. Comp.
    72, 2003, "Rapid multiplication modulo the sum and difference of highly
    composite numbers") bounds the infinity-norm error of an FFT
    convolution of length N = 2**L by

        ||a||_2 * ||b||_2 * ((1+e)**3L * (1+e*sqrt(5))**(3L+1) * (1+f)**3L - 1)

    with e = 2**-53 the unit roundoff and f the error of the precomputed
    roots of unity, which numpy's pocketfft computes to about full precision.
    With f <= 2e that is, to first order, below 18 * L * e * ||a||_2 * ||b||_2.
    The guard raises ValueError, before transforming anything, when
    ||a||_2 * ||b||_2 * L >= 2**40; below that the error stays under
    18 * 2**-13 < 0.003, far from 1/2.

    The solver's operands are 0/1 tables over at most 2**22 exponents
    (VERTEX_CAP), so ||a||_2 * ||b||_2 <= 2**22 and L <= 23, together about
    2**26.6: a factor of 2**13 inside the guard.  The name is that of the
    number-theoretic transform this replaced, kept because criterion 6 of
    the acceptance tests imports it.
    """
    need = len(a) + len(b) - 1
    size = 1 << (need - 1).bit_length()
    if np.linalg.norm(a) * np.linalg.norm(b) * max(1, size.bit_length() - 1) >= _FFT_NORM_LIMIT:
        raise ValueError("operands too large for a rounding-exact FFT product")
    spectrum = np.fft.rfft(a, size) * np.fft.rfft(b, size)
    return np.rint(np.fft.irfft(spectrum, size)[:need]).astype(np.int64)


def poly_multiply(p: SetPolynomial, q: SetPolynomial) -> SetPolynomial:
    """Exact product of two subset polynomials, one bit wider than the inputs.

    Precondition: the coefficients are 0/1-saturated, as every in-module
    caller makes them, which keeps _ntt_convolve's rounding bound with a wide
    margin.  Inputs past that bound raise ValueError.
    """
    if p.n_bits != q.n_bits:
        raise ValueError("mismatched polynomial widths")
    out = SetPolynomial.zero(p.n_bits + 1)
    conv = _ntt_convolve(p.coeffs, q.coeffs)
    out.coeffs[: conv.size] = conv
    return out


# --------------------------------------------------------------------------
# district families
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DistrictFamily:
    """Connected vertex sets bucketed by the candidate who wins them.

    members[c] holds, as a sorted int64 array of bitmasks, every connected
    subset whose district winner is candidate c.  The buckets are disjoint
    and together cover all connected subsets.
    """

    n: int
    members: Tuple[np.ndarray, ...]

    def sets_for(self, candidate: int) -> Tuple[int, ...]:
        return tuple(self.members[candidate].tolist())

    def size_buckets(self, candidate: int) -> Dict[int, np.ndarray]:
        return _slice_by_popcount(self.members[candidate], self.n)

    def total(self) -> int:
        return sum(len(bucket) for bucket in self.members)


def _over_subsets(values: np.ndarray, ufunc: np.ufunc) -> np.ndarray:
    """out[mask] is ufunc folded over the rows values[v], v in mask, by doubling."""
    out = np.zeros((1 << len(values),) + values.shape[1:], dtype=values.dtype)
    for v, x in enumerate(values):
        ufunc(out[: 1 << v], x, out=out[1 << v : 2 << v])
    return out


def enumerate_districts(
    inst: Instance, rule: TieBreakRule = DEFAULT_RULE, cap: int = VERTEX_CAP
) -> DistrictFamily:
    """All connected subsets of the instance graph, keyed by their winner.

    numpy passes over vertex masks, no Python call per mask.  reach starts at
    each mask's lowest bit and grows one BFS layer per pass by
    reach = mask & (reach | nbr[reach]), nbr[mask] being the OR of the
    neighbour masks of mask's vertices; a nonzero mask is connected when its
    final reach is the whole mask.  Totals, one column per candidate in
    rule.order, are low[mask & low_bits] + high[mask >> n//2], subset sums over
    each half of the vertices (Björklund, Husfeldt, Kaski & Koivisto, STOC
    2007).  argmax keeps the first maximal column, the first maximiser in
    rule.order, which is rule.pick of the tied set.  Totals are int64 when the
    whole weight fits, else Python ints in an object array (2**70 weights are
    valid input).  Scoring 2**n/4m masks at a time keeps the peak under the 104
    bytes per mask of solve_target_exact's estimate (tracemalloc, complete
    graphs, n=16, m=3-5: 25 with int64 totals, 47 near 2**70) plus the half
    tables' m * 2**(ceil(n/2) + 1) entries, which that estimate also counts.
    """
    if inst.n > cap:
        raise ValueError(f"district enumeration capped at {cap} vertices, got n={inst.n}")
    n = inst.n
    nbr = _over_subsets(np.array(adjacency_masks(n, inst.edges), dtype=np.int32), np.bitwise_or)
    masks = np.arange(1 << n, dtype=np.int32)
    reach = masks & -masks
    while not np.array_equal(grown := (nbr[reach] | reach) & masks, reach):
        reach = grown
    connected = np.flatnonzero(reach == masks)[1:]
    del nbr, masks, reach, grown
    order = rule.order(range(inst.m), inst.p)
    table = np.array([[inst.weight(v, c) for c in order] for v in range(n)], dtype=object)
    table = table.astype(np.int64 if table.sum() <= np.iinfo(np.int64).max else object)
    half = n // 2
    low, high = _over_subsets(table[:half], np.add), _over_subsets(table[half:], np.add)
    first = np.empty(connected.size, dtype=np.intp)
    step = max(1, (1 << n) // (4 * inst.m))
    for start in range(0, connected.size, step):
        part = connected[start : start + step]
        totals = low[part & ((1 << half) - 1)] + high[part >> half]
        first[start : start + step] = np.argmax(totals, axis=1)
    return DistrictFamily(n, tuple(connected[first == order.index(c)] for c in range(inst.m)))


def _slice_by_popcount(exps: np.ndarray, n: int) -> Dict[int, np.ndarray]:
    if exps.size == 0:
        return {}
    pc = _popcounts(n)[exps]
    return {int(s): np.unique(exps[pc == s]) for s in np.unique(pc)}


# --------------------------------------------------------------------------
# disjoint-union products
# --------------------------------------------------------------------------


def _disjoint_unions(a: np.ndarray, b: np.ndarray, target_pc: int, n: int) -> np.ndarray:
    """Support of the popcount-filtered product of two exponent lists.

    Both inputs must be popcount-pure (every exponent in a has one fixed
    popcount, likewise for b) with popcounts summing to target_pc, so the
    survivors are exactly the unions of disjoint pairs.  Small operand pairs
    take the direct pairwise route; large ones go through the transform.
    """
    if a.size == 0 or b.size == 0:
        return _EMPTY
    if a.size * b.size <= _PAIR_LIMIT:
        sums = (a[:, None] + b[None, :]).ravel()
        keep = sums[_popcounts(n + 1)[sums] == target_pc]
        return np.unique(keep)
    dense_a = SetPolynomial.zero(n)
    dense_a.coeffs[a] = 1
    dense_b = SetPolynomial.zero(n)
    dense_b.coeffs[b] = 1
    product = hamming_projection(poly_multiply(dense_a, dense_b), target_pc)
    exps = product.exponents()
    return exps[exps < (1 << n)]


def _extend(
    olds: Dict[int, np.ndarray], news: Dict[int, np.ndarray], n: int
) -> Dict[int, np.ndarray]:
    """Unions of one old set with one disjoint new set, keyed by union size.

    Both arguments map a set size to the sorted exponents of that size, as
    _slice_by_popcount returns them.  Sizes with no union are omitted.
    """
    grouped: Dict[int, List[np.ndarray]] = {}
    for s_old, old in olds.items():
        for s_new, new in news.items():
            s = s_old + s_new
            if s > n:
                continue
            got = _disjoint_unions(new, old, s, n)
            if got.size:
                grouped.setdefault(s, []).append(got)
    return {s: _union_all(parts) for s, parts in sorted(grouped.items())}


def _union_all(parts: Sequence[np.ndarray]) -> np.ndarray:
    chunks = [p for p in parts if p.size]
    if not chunks:
        return _EMPTY
    if len(chunks) == 1:
        return chunks[0]
    return np.unique(np.concatenate(chunks))


# --------------------------------------------------------------------------
# the Q table for the distinguished candidate
# --------------------------------------------------------------------------


def _q1_chain(p_slices: Dict[int, np.ndarray], k_star: int, n: int) -> List[Dict[int, np.ndarray]]:
    """Unions of j+1 pairwise disjoint p-districts, for j = 1 .. k_star - 1.

    Entry j-1 of the result maps union size s to the sorted exponent list of
    achievable unions.  Sizes with no achievable union are omitted.
    """
    chain: List[Dict[int, np.ndarray]] = []
    prev = p_slices
    for _ in range(k_star - 1):
        prev = _extend(prev, p_slices, n)
        chain.append(prev)
    return chain


def build_Q1(
    families: DistrictFamily, k_star: int, n: int, p: int = 0
) -> Dict[int, Dict[int, SetPolynomial]]:
    """Table of disjoint-union polynomials for the distinguished candidate.

    Returns {j: {s: polynomial}} for j in 1..k_star-1, where the polynomial
    at (j, s) has a unit coefficient on y**t exactly when t encodes a union
    of j+1 pairwise disjoint districts won by p with |union| = s.  Pairs
    (j, s) whose polynomial is zero are omitted from the inner dict.  For
    k_star = 1 the table is empty; the solver then seeds its base table from
    the single-district family directly.
    """
    p_slices = families.size_buckets(p)
    chain = _q1_chain(p_slices, k_star, n)
    table: Dict[int, Dict[int, SetPolynomial]] = {}
    for j, level in enumerate(chain, start=1):
        table[j] = {
            s: SetPolynomial.from_exponents(n, exps) for s, exps in level.items() if exps.size
        }
    return table


# --------------------------------------------------------------------------
# the exact decision procedure
# --------------------------------------------------------------------------


def _j_iterations(k: int, k_star: int) -> int:
    """Update rounds granted to each rival candidate.

    Every round adds at most one district won by that rival, so the round
    count doubles as the per-rival win cap.  The folded form
    min(k - 1, k - k_star, k_star - 1) collapses to this expression because
    k_star - 1 never exceeds k - 1.
    """
    return min(k_star - 1, k - k_star)


def check_memory_budget(estimate: int, memory_cap: int = DEFAULT_MEMORY_CAP) -> None:
    """Raise MemoryError, before anything is allocated, when a solver's
    estimated working set in bytes exceeds the cap."""
    if estimate > memory_cap:
        raise MemoryError(
            f"estimated working set {estimate} bytes exceeds the cap of {memory_cap} bytes"
        )


def _contains(sorted_exps: np.ndarray, value: int) -> bool:
    pos = int(np.searchsorted(sorted_exps, value))
    return pos < sorted_exps.size and int(sorted_exps[pos]) == value


def solve_target_exact(
    inst: Instance,
    k_star: int,
    rule: TieBreakRule = DEFAULT_RULE,
    *,
    memory_cap: int = DEFAULT_MEMORY_CAP,
    trace: Optional[TraceHook] = None,
) -> bool:
    """Decide whether p can win exactly k_star districts, rivals all fewer.

    Works on any graph class up to the vertex cap.  The optional trace hook
    receives ("base", payload) once and ("update", payload) after each rival
    round; payloads carry copies of the exponent tables, indexed so that
    entry h holds the collections of k_star + h districts.
    """
    if not (1 <= k_star <= inst.k):
        raise ValueError(f"k_star={k_star} outside 1..k={inst.k}")
    if inst.n > VERTEX_CAP:
        raise ValueError(f"exact solver capped at {VERTEX_CAP} vertices, got n={inst.n}")
    # 12 + spare + 1 words per mask, 6 per half-table entry (enumerate_districts).
    transform_words = 6 * (1 << (inst.n + 1))
    table_words = (inst.k - k_star + 1) * (1 << inst.n) + 6 * inst.m * (2 << (inst.n + 1) // 2)
    check_memory_budget(8 * (transform_words + table_words), memory_cap)

    n, k = inst.n, inst.k
    spare = k - k_star
    families = enumerate_districts(inst, rule)
    slices = {c: families.size_buckets(c) for c in range(inst.m)}

    if k_star == 1:
        base = _union_all(list(slices[inst.p].values()))
    else:
        chain = _q1_chain(slices[inst.p], k_star, n)
        base = _union_all(list(chain[k_star - 2].values()))

    tables: List[np.ndarray] = [base] + [_EMPTY] * spare
    order = [c for c in range(inst.m) if c != inst.p]
    if trace is not None:
        trace(
            "base",
            {"k_star": k_star, "order": [inst.p] + order, "tables": [t.copy() for t in tables]},
        )
    if base.size == 0:
        return False
    full = (1 << n) - 1
    if spare == 0:
        return _contains(tables[0], full)

    for candidate in order:
        c_slices = slices[candidate]
        if not c_slices:
            continue
        for j in range(1, _j_iterations(k, k_star) + 1):
            # One round: extend the snapshot tables by a single district won
            # by this candidate.  Reading only the snapshot keeps any round
            # from chaining two of its own districts into one collection;
            # descending h reads tables[h - 1] before the round updates it.
            changed = False
            for h in range(spare, 0, -1):
                grown = _extend(_slice_by_popcount(tables[h - 1], n), c_slices, n)
                merged = _union_all([tables[h], *grown.values()])
                if merged.size != tables[h].size:
                    tables[h] = merged
                    changed = True
            if trace is not None:
                trace(
                    "update",
                    {"candidate": candidate, "j": j, "tables": [t.copy() for t in tables]},
                )
            if not changed:
                break
    return _contains(tables[spare], full)
