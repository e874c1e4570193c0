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

Tables are flat sorted int64 arrays.  A step (_extend) pairs a table's sets
of popcount s with the districts of at most n - s vertices in one numpy
operation and keeps a pair when a & b == 0.  That is the projection above:
a + b keeps popcount |a| + |b| exactly when no bit carries, and then
a + b = a | b.  Large products go through numpy's real FFT, projected onto
the union size; both routes give the same unions.  Operands are 0/1, which
keeps the FFT's rounding error far below 1/2 (_ntt_convolve).

The last table is only asked whether it holds full = 2**n - 1, so the last
district is looked up, not multiplied in: full is the union of A and a
disjoint district D exactly when D = full ^ A.  And as each district has a
vertex, steps keep no union too large to leave one for each district to come.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .model import DEFAULT_RULE, Instance, TieBreakRule, adjacency_masks

VERTEX_CAP = 22
DEFAULT_MEMORY_CAP = 2 * 1024 ** 3

# Products of n-bit operands with more than _PAIR_LIMIT << n pairs go dense.
# 64 keeps n = 12 at its former 2**18 pairs, and at n = 16 to 20, where a
# dense product costs 100 to 150 * 2**n pair tests, it was within 30% of the
# best of 32 to 512.  A pairwise step holds about _PAIR_CHUNK pairs, or one row.
_PAIR_LIMIT = 64
_PAIR_CHUNK = 1 << 18

_EMPTY = np.empty(0, dtype=np.int64)

TraceHook = Callable[[str, Dict[str, object]], None]


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
        np.add.at(poly.coeffs, np.asarray(list(exponents), dtype=np.int64), 1)
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

    def total(self) -> int:
        return sum(len(bucket) for bucket in self.members)


def _over_subsets(values: np.ndarray, ufunc: np.ufunc) -> np.ndarray:
    """out[mask] is ufunc folded over the rows values[v], v in mask, by doubling."""
    out = np.zeros((1 << len(values),) + values.shape[1:], dtype=values.dtype)
    for v, x in enumerate(values):
        ufunc(out[: 1 << v], x, out=out[1 << v : 2 << v])
    return out


def rule_ordered_weights(inst: Instance, rule: TieBreakRule) -> Tuple[List[int], np.ndarray]:
    """rule.order of the candidates, and the n x m weights in that column order.
    argmax over summed rows keeps the first maximal column, the first maximiser
    in rule.order, which is rule.pick of the tied set.  int64 when the whole
    weight fits, else Python ints in an object array (2**70 weights are valid).
    enumerate_districts, auxgraph's winner table and the oracle's scan use it."""
    order = rule.order(range(inst.m), inst.p)
    table = np.array([[inst.weight(v, c) for c in order] for v in range(inst.n)], dtype=object)
    return order, table.astype(np.int64 if table.sum() <= np.iinfo(np.int64).max else object)


def enumerate_districts(
    inst: Instance, rule: TieBreakRule = DEFAULT_RULE, cap: int = VERTEX_CAP
) -> DistrictFamily:
    """All connected subsets of the instance graph, keyed by their winner.

    numpy passes over vertex masks, no Python call per mask.  reach starts at
    each mask's lowest bit and grows one BFS layer per pass by
    reach = mask & (reach | nbr[reach]), nbr[mask] being the OR of the
    neighbour masks of mask's vertices; a nonzero mask is connected when its
    final reach is the whole mask.  Passes cover every mask while a quarter
    of them still grow, then only those that grew.  Totals, one column per
    candidate in rule.order, are low[mask & low_bits] + high[mask >> n//2],
    subset sums over each half of the vertices (Björklund, Husfeldt, Kaski &
    Koivisto, STOC 2007), and argmax picks the winner (rule_ordered_weights
    gives the argument).  Scoring 2**n/4m masks at a time keeps the peak
    under the 104 bytes per mask of solve_target_exact's estimate
    (tracemalloc, complete graphs, n=16, m=3-5: 25 with int64 totals, 47 near
    2**70) plus the half tables' m * 2**(ceil(n/2) + 1) entries, which that
    estimate also counts.
    """
    if inst.n > cap:
        raise ValueError(f"district enumeration capped at {cap} vertices, got n={inst.n}")
    n = inst.n
    nbr = _over_subsets(np.array(adjacency_masks(n, inst.edges), dtype=np.int32), np.bitwise_or)
    masks = np.arange(1 << n, dtype=np.int32)
    reach, live = masks & -masks, masks
    while 4 * live.size >= masks.size:
        grown = (nbr[reach] | reach) & masks
        live = masks[grown != reach]
        reach = grown
    while live.size:
        old = reach[live]
        grown = (nbr[old] | old) & live
        moved = grown != old
        live = live[moved]
        reach[live] = grown[moved]
    connected = np.flatnonzero(reach == masks)[1:]
    del nbr, masks, reach, live, grown
    order, table = rule_ordered_weights(inst, rule)
    half = n // 2
    low, high = _over_subsets(table[:half], np.add), _over_subsets(table[half:], np.add)
    first = np.empty(connected.size, dtype=np.intp)
    step = max(1, (1 << n) // (4 * inst.m))
    for start in range(0, connected.size, step):
        part = connected[start : start + step]
        totals = low[part & ((1 << half) - 1)] + high[part >> half]
        first[start : start + step] = np.argmax(totals, axis=1)
    return DistrictFamily(n, tuple(connected[first == order.index(c)] for c in range(inst.m)))


@lru_cache(maxsize=None)
def _popcounts(n_bits: int) -> np.ndarray:
    """Lookup table: popcount of every integer below 2**n_bits."""
    return _over_subsets(np.ones(n_bits, dtype=np.uint8), np.add)


def _by_popcount(exps: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """exps stably sorted by popcount, and ends[s] = #{popcount <= s}.  int32
    holds every mask below 2**VERTEX_CAP at half the bytes pairwise products move."""
    pc = _popcounts(n)[exps]
    order = np.argsort(pc, kind="stable")
    return exps[order].astype(np.int32), np.searchsorted(pc[order], np.arange(n + 1), side="right")


# --------------------------------------------------------------------------
# disjoint-union products
# --------------------------------------------------------------------------


def _mark_pairs(seen: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Set seen[x | y] for disjoint x in a, y in b, max(_PAIR_CHUNK, b.size) pairs a pass."""
    rows = max(1, _PAIR_CHUNK // max(1, b.size))
    for i in range(0, a.size, rows):
        x, y = a[i : i + rows, None], b[None, :]
        seen[(x | y)[(x & y) == 0]] = True


def _extend(
    old: np.ndarray, family: Tuple[np.ndarray, np.ndarray], n: int, keep=_EMPTY, room=None
) -> np.ndarray:
    """keep and the unions of a set in old with a disjoint district of family.

    family comes from _by_popcount; unions have at most room vertices (default
    n).  old is grouped by popcount s, and a group meets the districts of at
    most room - s vertices in one pairwise product, or with more than
    _PAIR_LIMIT << n pairs one size at a time, densely where that size still
    has that many.  A 2**n bitmap deduplicates; the result is sorted.
    """
    fam, ends = family
    room = n if room is None else room
    limit = _PAIR_LIMIT << n
    seen = _bitmap(keep, n)
    olds, old_ends = _by_popcount(old, n)
    for s in range(1, room):
        group = olds[old_ends[s - 1] : old_ends[s]]
        if group.size * ends[room - s] <= limit:
            _mark_pairs(seen, group, fam[: ends[room - s]])
            continue
        dense_old = SetPolynomial.zero(n)
        dense_old.coeffs[group] = 1
        for s_new in range(1, room - s + 1):
            new = fam[ends[s_new - 1] : ends[s_new]]
            if group.size * new.size <= limit:
                _mark_pairs(seen, group, new)
                continue
            dense_new = SetPolynomial.zero(n)
            dense_new.coeffs[new] = 1
            low = poly_multiply(dense_old, dense_new).coeffs[: 1 << n]
            seen |= (low != 0) & (_popcounts(n) == s + s_new)
    return np.flatnonzero(seen)


def _bitmap(exps: np.ndarray, n: int) -> np.ndarray:
    """Bool table over all 2**n masks, True exactly at exps."""
    out = np.zeros(1 << n, dtype=bool)
    out[exps] = True
    return out


# --------------------------------------------------------------------------
# the Q table for the distinguished candidate
# --------------------------------------------------------------------------


def _q1_chain(
    members: np.ndarray, levels: int, n: int, rest: Optional[int] = None
) -> List[np.ndarray]:
    """Unions of j pairwise disjoint districts from members, j = 0 .. levels.

    Entry j is the sorted exponent array of those unions; members must be
    sorted.  Given rest, entries from j = 2 on keep only the unions that leave
    a vertex for each of the levels - j + rest districts still to come: the
    others are part of no cover by k districts.
    """
    family = _by_popcount(members, n)
    chain = [np.zeros(1, dtype=np.int64), members]
    for j in range(2, levels + 1):
        room = n if rest is None else n - (levels - j + rest)
        chain.append(_extend(chain[-1], family, n, room=room))
    return chain[: levels + 1]


def build_Q1(
    families: DistrictFamily, k_star: int, n: int, p: int = 0
) -> Dict[int, Dict[int, SetPolynomial]]:
    """Table of disjoint-union polynomials for the distinguished candidate.

    Returns {j: {s: polynomial}} for j in 1..k_star-1, where the polynomial
    at (j, s) has a unit coefficient on y**t exactly when t encodes a union
    of j+1 pairwise disjoint districts won by p with |union| = s.  Pairs
    (j, s) whose polynomial is zero are omitted; for k_star = 1 the table is
    empty.
    """
    table: Dict[int, Dict[int, SetPolynomial]] = {}
    for j, level in enumerate(_q1_chain(families.members[p], k_star, n)[2:], start=1):
        pc = _popcounts(n)[level]
        table[j] = {int(s): SetPolynomial.from_exponents(n, level[pc == s]) for s in np.unique(pc)}
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
    entry h holds the collections of k_star + h districts.  Entry spare =
    k - k_star is only ever asked whether it holds the full set, so it holds
    [full] once that is reached, which ends the solve, and nothing before.
    """
    if not (1 <= k_star <= inst.k):
        raise ValueError(f"k_star={k_star} outside 1..k={inst.k}")
    if inst.n > VERTEX_CAP:
        raise ValueError(f"exact solver capped at {VERTEX_CAP} vertices, got n={inst.n}")
    # Words per mask: districts and popcount-sorted copies 3, tables spare + 1,
    # a dense product 12 (enumerate_districts' peak, 13, comes before all of
    # these), bitmaps 1/4, and 2 per pair of a pairwise step of at most
    # max(_PAIR_CHUNK, 2**n) pairs.  Plus 6 per half-table entry.
    n, k = inst.n, inst.k
    spare = k - k_star
    words = (18 + spare) * (1 << n) + (1 << n) // 4 + 2 * _PAIR_CHUNK
    check_memory_budget(8 * (words + 6 * inst.m * (2 << (n + 1) // 2)), memory_cap)

    full = (1 << n) - 1
    families = enumerate_districts(inst, rule)
    p_members = families.members[inst.p]
    order = [c for c in range(inst.m) if c != inst.p]

    def emit(kind: str, **payload: object) -> None:
        if trace is not None:
            trace(kind, dict(payload, tables=[t.copy() for t in tables]))

    if spare == 0:
        # The last p-district is found by looking up complements.
        built = _q1_chain(p_members, k_star - 1, n, rest=1)[-1]
        tables = [np.array([full]) if _bitmap(p_members, n)[full ^ built].any() else _EMPTY]
    else:
        tables = [_q1_chain(p_members, k_star, n, rest=spare)[-1]] + [_EMPTY] * spare
    emit("base", k_star=k_star, order=[inst.p] + order)
    if spare == 0 or tables[0].size == 0:
        return bool(tables[spare].size)

    for candidate in order:
        members = families.members[candidate]
        family, district = _by_popcount(members, n), _bitmap(members, n)
        for j in range(1, _j_iterations(k, k_star) + 1):
            # One round: extend the snapshot tables by a single district won
            # by this candidate.  Reading only the snapshot keeps any round
            # from chaining two of its own districts into one collection;
            # descending h reads tables[h - 1] before the round updates it.
            # Entry spare takes only the lookup; a round that changes no
            # lower entry leaves the next one nothing new to look up.
            if district[full ^ tables[spare - 1]].any():
                tables[spare] = np.array([full])
                emit("update", candidate=candidate, j=j)
                return True
            before = [t.size for t in tables]
            for h in range(spare - 1, 0, -1):
                tables[h] = _extend(tables[h - 1], family, n, tables[h], room=n - (spare - h))
            emit("update", candidate=candidate, j=j)
            if [t.size for t in tables] == before:
                break
    return False
