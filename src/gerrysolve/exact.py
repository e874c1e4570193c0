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

Products are computed sparsely (pairwise sums of exponent lists) when the
operand supports are small, and through a number-theoretic transform over a
convolution-friendly prime otherwise.  Both routes produce identical
supports; only support membership ever matters downstream, and coefficients
stay far below the modulus because every operand is saturated to 0/1 first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .model import (
    DEFAULT_RULE,
    Instance,
    TieBreakRule,
    adjacency_masks,
    district_winner,
    mask_vertices,
)
from .oracle import connected_subsets_with_seed

VERTEX_CAP = 22
DEFAULT_MEMORY_CAP = 2 * 1024 ** 3

_NTT_MODULUS = 2013265921  # 15 * 2**27 + 1, prime
_NTT_ROOT = 31  # primitive root of the modulus
_SCHOOLBOOK_LIMIT = 1 << 10
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

    def copy(self) -> "SetPolynomial":
        return SetPolynomial(self.n_bits, self.coeffs.copy())

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

    def weight_bucket(self, h: int) -> np.ndarray:
        """Exponents present in the polynomial whose popcount equals h."""
        exps = self.exponents()
        if exps.size == 0:
            return _EMPTY
        return exps[_popcounts(self.n_bits)[exps] == h]


def hamming_projection(poly: SetPolynomial, h: int) -> SetPolynomial:
    """Keep only the terms whose exponent has exactly h set bits."""
    out = np.zeros_like(poly.coeffs)
    keep = _popcounts(poly.n_bits) == h
    out[keep] = poly.coeffs[keep]
    return SetPolynomial(poly.n_bits, out)


# --------------------------------------------------------------------------
# convolution backend
# --------------------------------------------------------------------------

_rev_cache: Dict[int, np.ndarray] = {}
_tw_cache: Dict[Tuple[int, bool], np.ndarray] = {}


def _bit_reversal(size: int) -> np.ndarray:
    perm = _rev_cache.get(size)
    if perm is None:
        log_n = size.bit_length() - 1
        idx = np.arange(size, dtype=np.int64)
        perm = np.zeros(size, dtype=np.int64)
        for b in range(log_n):
            perm |= ((idx >> b) & 1) << (log_n - 1 - b)
        _rev_cache[size] = perm
    return perm


def _twiddles(length: int, invert: bool) -> np.ndarray:
    key = (length, invert)
    tw = _tw_cache.get(key)
    if tw is None:
        half = length // 2
        w = pow(_NTT_ROOT, (_NTT_MODULUS - 1) // length, _NTT_MODULUS)
        if invert:
            w = pow(w, _NTT_MODULUS - 2, _NTT_MODULUS)
        tw = np.ones(half, dtype=np.int64)
        if half > 1:
            exps = np.arange(half, dtype=np.int64)
            base = w
            for b in range((half - 1).bit_length()):
                hit = ((exps >> b) & 1) == 1
                tw[hit] = tw[hit] * base % _NTT_MODULUS
                base = base * base % _NTT_MODULUS
        _tw_cache[key] = tw
    return tw


def _ntt(values: np.ndarray, invert: bool) -> np.ndarray:
    """In-order radix-2 transform; len(values) must be a power of two."""
    size = len(values)
    out = values[_bit_reversal(size)]
    length = 2
    while length <= size:
        half = length // 2
        tw = _twiddles(length, invert)
        view = out.reshape(-1, length)
        lo = view[:, :half].copy()
        hi = view[:, half:] * tw % _NTT_MODULUS
        view[:, :half] = (lo + hi) % _NTT_MODULUS
        view[:, half:] = (lo - hi) % _NTT_MODULUS
        length *= 2
    if invert:
        out = out * pow(size, _NTT_MODULUS - 2, _NTT_MODULUS) % _NTT_MODULUS
    return out


def _ntt_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Convolution of nonnegative int64 vectors, exact below the modulus."""
    need = len(a) + len(b) - 1
    size = 1 << (need - 1).bit_length()
    fa = np.zeros(size, dtype=np.int64)
    fa[: len(a)] = a
    fb = np.zeros(size, dtype=np.int64)
    fb[: len(b)] = b
    fa = _ntt(fa, invert=False)
    fb = _ntt(fb, invert=False)
    return _ntt(fa * fb % _NTT_MODULUS, invert=True)[:need]


def _bigint_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Schoolbook product over Python integers, for oversized coefficients."""
    acc: Dict[int, int] = {}
    exps_b = np.flatnonzero(b)
    vals_b = [int(b[e]) for e in exps_b]
    for ea in np.flatnonzero(a):
        va = int(a[ea])
        for eb, vb in zip(exps_b, vals_b):
            key = int(ea) + int(eb)
            acc[key] = acc.get(key, 0) + va * vb
    out = np.zeros(len(a) + len(b) - 1, dtype=np.int64)
    for e, c in acc.items():
        if c >= 1 << 63:
            raise OverflowError("product coefficient exceeds the 64-bit range")
        out[e] = c
    return out


def poly_multiply(p: SetPolynomial, q: SetPolynomial) -> SetPolynomial:
    """Exact product of two subset polynomials, one bit wider than the inputs.

    The fast transform route is only trusted when a cheap ceiling on the
    largest possible product coefficient stays below the modulus; the
    in-module callers always satisfy that because they saturate operands to
    0/1 first, which bounds coefficients by the pair count 2**n_bits.
    Anything larger falls back to schoolbook over Python integers.
    """
    if p.n_bits != q.n_bits:
        raise ValueError("mismatched polynomial widths")
    out = SetPolynomial.zero(p.n_bits + 1)
    if p.is_zero() or q.is_zero():
        return out
    deg_p = int(p.exponents()[-1])
    deg_q = int(q.exponents()[-1])
    need = deg_p + deg_q + 1
    a = p.coeffs[: deg_p + 1]
    b = q.coeffs[: deg_q + 1]
    ceiling = 1.02 * min(
        float(a.sum(dtype=np.float64)) * float(b.max()),
        float(b.sum(dtype=np.float64)) * float(a.max()),
    )
    if need <= _SCHOOLBOOK_LIMIT and ceiling < float(1 << 62):
        conv = np.convolve(a, b)
    elif ceiling < float(_NTT_MODULUS):
        conv = _ntt_convolve(a, b)
    else:
        conv = _bigint_convolve(a, b)
    out.coeffs[:need] = conv
    return out


# --------------------------------------------------------------------------
# district families
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DistrictFamily:
    """Connected vertex sets bucketed by the candidate who wins them.

    members[c] lists, as sorted bitmask integers, every connected subset
    whose district winner is candidate c.  The buckets are disjoint and
    together cover all connected subsets.
    """

    n: int
    members: Tuple[Tuple[int, ...], ...]

    def sets_for(self, candidate: int) -> Tuple[int, ...]:
        return self.members[candidate]

    def size_buckets(self, candidate: int) -> Dict[int, np.ndarray]:
        return _slice_by_popcount(np.asarray(self.members[candidate], dtype=np.int64), self.n)

    def total(self) -> int:
        return sum(len(bucket) for bucket in self.members)


def enumerate_districts(
    inst: Instance, rule: TieBreakRule = DEFAULT_RULE, cap: int = VERTEX_CAP
) -> DistrictFamily:
    """All connected subsets of the instance graph, keyed by their winner."""
    if inst.n > cap:
        raise ValueError(f"district enumeration capped at {cap} vertices, got n={inst.n}")
    adj_masks = adjacency_masks(inst.n, inst.edges)
    full = (1 << inst.n) - 1
    buckets: List[List[int]] = [[] for _ in range(inst.m)]
    for v in range(inst.n):
        pool = full & ~((1 << v) - 1)
        for mask in connected_subsets_with_seed(adj_masks, pool, v):
            winner = district_winner(inst, mask_vertices(mask), rule)
            buckets[winner].append(mask)
    return DistrictFamily(inst.n, tuple(tuple(sorted(b)) for b in buckets))


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
    for _ in range(1, k_star):
        grouped: Dict[int, List[np.ndarray]] = {}
        for s_old, olds in prev.items():
            for s_new, news in p_slices.items():
                s = s_old + s_new
                if s > n:
                    continue
                got = _disjoint_unions(news, olds, s, n)
                if got.size:
                    grouped.setdefault(s, []).append(got)
        merged = {s: _union_all(parts) for s, parts in sorted(grouped.items())}
        chain.append(merged)
        prev = merged
        if not merged:
            break
    while len(chain) < k_star - 1:
        chain.append({})
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
    p_slices = _slice_by_popcount(np.asarray(families.sets_for(p), dtype=np.int64), n)
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
    transform_words = 6 * (1 << (inst.n + 1))
    table_words = (inst.k - k_star + 1) * (1 << inst.n)
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
            # from chaining two of its own districts into one collection.
            fresh: List[np.ndarray] = [_EMPTY] * (spare + 1)
            for h in range(1, spare + 1):
                prev = tables[h - 1]
                if prev.size == 0:
                    continue
                parts = []
                for s_old, olds in _slice_by_popcount(prev, n).items():
                    for s_new, news in c_slices.items():
                        s = s_old + s_new
                        if s > n:
                            continue
                        got = _disjoint_unions(news, olds, s, n)
                        if got.size:
                            parts.append(got)
                fresh[h] = _union_all(parts)
            changed = False
            for h in range(1, spare + 1):
                if fresh[h].size:
                    merged = np.union1d(tables[h], fresh[h])
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
