"""Representative families of label sets, encoded as bitmasks.

A family S of p-element subsets of a universe U is q-represented by a
subfamily S' when for every q-element set B: if some member of S avoids B
entirely, then some member of S' does too.  Keeping only a representative
subfamily is what stops the path dynamic program from storing exponentially
many label sets: any completion that worked for a discarded set still works
for a kept one.

Sets are Python ints with bit i standing for universe element i, so
disjointness is `a & b == 0` and the disjoint-union product of two families
is plain bitwise or.

The pruning construction maps each p-set A to the vector of all p x p minors
of the columns of a random (p+q) x |U| matrix selected by A, over a large
prime field.  A basis of that vector collection, found by Gaussian
elimination in insertion order, is a q-representative subfamily of size at
most C(p+q, p).  The construction is Monte Carlo: it fails only when some
(p+q) x (p+q) column submatrix of the random matrix is accidentally
singular, which happens with probability at most (p+q)/|field| per
disjoint pair, and the field has about 2^61 elements.  verify_representative
checks the property outright on small universes so callers can re-run with a
fresh seed on the (astronomically unlikely) failure.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb
from typing import Dict, Iterable, List, Optional, Set

from .model import mask_vertices

FIELD_PRIME = (1 << 61) - 1  # Mersenne prime, large enough to keep random determinants nonzero


def family_cardinality(family: Iterable[int]) -> int:
    """Common popcount of the family's sets; 0 for an empty family.

    Raises ValueError if cardinalities are mixed.
    """
    card: Optional[int] = None
    for mask in family:
        c = mask.bit_count()
        if card is None:
            card = c
        elif c != card:
            raise ValueError(f"mixed cardinalities in family: {card} and {c}")
    return 0 if card is None else card


def star(fam_a: Iterable[int], fam_b: Iterable[int]) -> Set[int]:
    """Disjoint-union product: {A | B : A in fam_a, B in fam_b, A & B == 0}."""
    out: Set[int] = set()
    for a in fam_a:
        for b in fam_b:
            if a & b == 0:
                out.add(a | b)
    return out


def _random_matrix(rows: int, cols: int, seed: int) -> List[List[int]]:
    rng = random.Random(seed)
    return [[rng.randrange(FIELD_PRIME) for _ in range(cols)] for _ in range(rows)]


def _det_mod(matrix: List[List[int]]) -> int:
    """Determinant over the prime field, by elimination with pivoting."""
    p = FIELD_PRIME
    m = [row[:] for row in matrix]
    size = len(m)
    det = 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col] % p), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = (-det) % p
        inv = pow(m[col][col], p - 2, p)
        det = det * m[col][col] % p
        for r in range(col + 1, size):
            factor = m[r][col] * inv % p
            if factor:
                m[r] = [(m[r][c] - factor * m[col][c]) % p for c in range(size)]
    return det % p


def _wedge_vector(mask: int, matrix: List[List[int]], p_card: int) -> List[int]:
    """All p x p minors of the matrix columns picked by `mask`.

    Coordinates are indexed by p-subsets of the matrix's rows in
    lexicographic order.  For p = 0 the vector is the single scalar 1.
    """
    cols = mask_vertices(mask)
    rows_total = len(matrix)
    if p_card == 0:
        return [1]
    sub = [[matrix[r][c] for c in cols] for r in range(rows_total)]
    return [
        _det_mod([sub[r] for r in row_pick])
        for row_pick in combinations(range(rows_total), p_card)
    ]


def represent(
    family: Iterable[int], q: int, universe_size: int, seed: int = 0
) -> Set[int]:
    """A q-representative subfamily of size at most C(p+q, p).

    Deduplicates first; if the family is already within the size bound it is
    returned as is (every family represents itself).  q < 0 yields the empty
    family: the defining condition is vacuous there, and in the DP such sets
    are already too large to extend to a solution.
    """
    fam = sorted(set(family))
    if q < 0:
        return set()
    if not fam:
        return set()
    p_card = family_cardinality(fam)
    bound = comb(p_card + q, p_card)
    if len(fam) <= bound:
        return set(fam)
    if universe_size < p_card:
        raise ValueError("sets exceed the stated universe")

    matrix = _random_matrix(p_card + q, universe_size, seed)
    kept: Set[int] = set()
    # Echelon basis: pivot coordinate -> normalized vector.
    basis: Dict[int, List[int]] = {}
    for mask in fam:
        vec = _wedge_vector(mask, matrix, p_card)
        for piv, bvec in basis.items():
            coef = vec[piv]
            if coef:
                vec = [(x - coef * y) % FIELD_PRIME for x, y in zip(vec, bvec)]
        piv = next((i for i, x in enumerate(vec) if x), None)
        if piv is None:
            continue
        inv = pow(vec[piv], FIELD_PRIME - 2, FIELD_PRIME)
        basis[piv] = [x * inv % FIELD_PRIME for x in vec]
        kept.add(mask)
        if len(kept) == bound:
            break
    return kept


def verify_representative(
    family: Iterable[int], subfamily: Iterable[int], q: int, universe_size: int
) -> bool:
    """Exhaustively check the q-representation property (small universes).

    For every q-subset B of the universe: if some family member is disjoint
    from B then some subfamily member must be disjoint from B too.
    """
    fam = set(family)
    sub = set(subfamily)
    if not sub <= fam:
        return False
    if q < 0:
        return True
    for picks in combinations(range(universe_size), q):
        b = 0
        for i in picks:
            b |= 1 << i
        if any(a & b == 0 for a in fam) and not any(a & b == 0 for a in sub):
            return False
    return True
