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
of M_A, the columns picked by A of a random d x |U| matrix with d = p + q,
over a large prime field.  A basis of that vector collection, found by
Gaussian elimination in insertion order, is a q-representative subfamily of
size at most C(d, p).  The construction is Monte Carlo: it fails only when
some d x d column submatrix of the random matrix is accidentally singular,
which happens with probability at most d/|field| per disjoint pair, and the
field has about 2^61 elements.  verify_representative checks the property
outright on small universes so callers can re-run with a fresh seed on the
(astronomically unlikely) failure.

q = 0 needs no matrix: with B empty every set avoids B, so any one member
represents the family, and represent keeps the smallest.  This is exact, so
the failure bound above concerns only q >= 1.

When q < p the vectors come from the dual side (Grassmann duality).  Let N
be a d x q basis of the left kernel of M_A, read off the reduced echelon
form of M_A's transpose.  When M_A has rank p, the p x p minor of M_A on
rows I equals lambda_A * (-1)^(sum of I) times the q x q minor of N on the
other d - p rows, for one nonzero scalar lambda_A per set; when the rank is
below p both vectors are zero.  So each set's dual vector is a fixed
relabelling and sign flip of its primal vector, scaled by lambda_A: one
invertible linear map shared by all sets, then one nonzero factor per set.
The elimination keeps a set exactly when its vector leaves the span of the
vectors kept before it, and neither such a map nor scaling one vector
changes that, so both routes keep the same sets and stop at the same set.
The dual route pays for C(d, q) minors of size q x q instead of C(d, p) of
size p x p.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb
from typing import Dict, Iterable, List, Optional, Set, Tuple

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


def _minors(rows: List[List[int]], size: int) -> List[int]:
    """All size x size minors of the first `size` columns of a matrix given
    by rows, with row subsets in lexicographic order.

    Built up one column at a time by Laplace expansion along the newest
    column: the minor on sorted rows S and columns 0..c is the sum over
    the t-th row j of S of (-1)^(t + c) * rows[j][c] times the minor on
    S - {j} and columns 0..c-1.
    """
    p = FIELD_PRIME
    prev: Dict[Tuple[int, ...], int] = {(): 1}
    for c in range(size):
        cur: Dict[Tuple[int, ...], int] = {}
        for pick in combinations(range(len(rows)), c + 1):
            total = 0
            for t, j in enumerate(pick):
                term = rows[j][c] * prev[pick[:t] + pick[t + 1:]]
                total += -term if (t + c) & 1 else term
            cur[pick] = total % p
        prev = cur
    return list(prev.values())


def _wedge_vector(mask: int, matrix: List[List[int]], p_card: int) -> List[int]:
    """All p x p minors of the matrix columns picked by `mask`.

    Coordinates are indexed by p-subsets of the matrix's rows in
    lexicographic order.  For p = 0 the vector is the single scalar 1.
    """
    cols = mask_vertices(mask)
    return _minors([[row[c] for c in cols] for row in matrix], p_card)


def _dual_vector(mask: int, matrix: List[List[int]], p_card: int) -> List[int]:
    """All q x q minors of a left-kernel basis of the columns picked by `mask`.

    With d = len(matrix) rows and q = d - p, the picked columns form the
    d x p matrix M_A.  Gauss-Jordan elimination of its transpose leaves p
    pivot rows over d positions; each of the q free positions f gives the
    kernel vector with 1 at f and minus the pivot rows' f-entries at their
    pivot positions.  Those q vectors are the columns of N, and the result
    is N's q x q minors on q-subsets of the rows in lexicographic order.
    Rank below p gives the zero vector, as the primal minors do.
    """
    p = FIELD_PRIME
    d = len(matrix)
    q = d - p_card
    rows = [[row[c] for row in matrix] for c in mask_vertices(mask)]
    pivots: List[int] = []
    for col in range(d):
        at = len(pivots)
        if at == p_card:
            break
        pick = next((r for r in range(at, p_card) if rows[r][col] % p), None)
        if pick is None:
            continue
        rows[at], rows[pick] = rows[pick], rows[at]
        inv = pow(rows[at][col] % p, -1, p)
        head = rows[at] = [x * inv % p for x in rows[at]]
        for r in range(p_card):
            if r != at:
                factor = rows[r][col] % p
                if factor:
                    rows[r] = [x - factor * y for x, y in zip(rows[r], head)]
        pivots.append(col)
    if len(pivots) < p_card:
        return [0] * comb(d, q)
    free = [col for col in range(d) if col not in pivots]
    kernel = [[int(f == g) for g in free] for f in range(d)]
    for row, col in zip(rows, pivots):
        kernel[col] = [-row[f] % p for f in free]
    return _minors(kernel, q)


def _independent(pairs: Iterable[Tuple[int, List[int]]], bound: int) -> Set[int]:
    """Masks whose vectors leave the span of the vectors kept before them.

    An echelon basis, pivot coordinate -> vector normalized to 1 there,
    tells the span apart: a vector reduced by every basis vector in turn is
    zero exactly when it lies in the span.  Stops once `bound` are kept.
    Entries are reduced mod the prime only where they are read; each
    reduction step adds one product of two reduced values.
    """
    p = FIELD_PRIME
    kept: Set[int] = set()
    basis: Dict[int, List[int]] = {}
    for mask, vec in pairs:
        for piv, bvec in basis.items():
            coef = vec[piv] % p
            if coef:
                vec = [x - coef * y for x, y in zip(vec, bvec)]
        piv = next((i for i, x in enumerate(vec) if x % p), None)
        if piv is None:
            continue
        inv = pow(vec[piv] % p, -1, p)
        basis[piv] = [x * inv % p for x in vec]
        kept.add(mask)
        if len(kept) == bound:
            break
    return kept


def represent(
    family: Iterable[int], q: int, universe_size: int, seed: int = 0
) -> Set[int]:
    """A q-representative subfamily of size at most C(p+q, p).

    Deduplicates first; if the family is already within the size bound it is
    returned as is (every family represents itself).  q < 0 yields the empty
    family: the defining condition is vacuous there, and in the DP such sets
    are already too large to extend to a solution.  q = 0 keeps the smallest
    set, exactly.
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
    if q == 0:
        return {fam[0]}

    matrix = _random_matrix(p_card + q, universe_size, seed)
    vector = _dual_vector if q < p_card else _wedge_vector
    return _independent(((mask, vector(mask, matrix, p_card)) for mask in fam), bound)


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
