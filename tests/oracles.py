"""Independent reference implementations for cross-checking the library.

Everything here is deliberately naive -- enumeration, cofactor expansions and
first-principles formulas -- and shares no code with the fast paths under
test.  Oracles are usable only at small sizes; that is the point.

The four oracles that ``sandpiles verify`` runs too are defined once, in
``sandpiles.verify``, and imported from there; the rest are test-only.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, floor, gcd, lcm

import numpy as np

from sandpiles import (
    BipartiteGraph,
    SplitMix64,
    connected_components,
    corank_mod_p,
    laplacian_mod_p,
)
from sandpiles.gfp import PrimeFieldMatrix
from sandpiles.verify import (
    det_by_cofactors,
    random_uniform_matrix,
    smith_diagonal_by_minors,
    spanning_trees_by_enumeration,
)


def components_by_bfs(g: BipartiteGraph) -> list[set[int]]:
    """Connected components by a graph search over Python neighbour sets.

    Vertex sets ordered by smallest vertex, like ``connected_components``.
    """
    n = g.n_vertices
    seen = [False] * n
    comps: list[set[int]] = []
    neighbours_left = [set(np.nonzero(g.biadjacency[i])[0] + g.n_left) for i in range(g.n_left)]
    neighbours_right = [set(np.nonzero(g.biadjacency[:, j])[0]) for j in range(g.n_right)]

    def neighbours(v: int):
        if v < g.n_left:
            return neighbours_left[v]
        return neighbours_right[v - g.n_left]

    for start in range(n):
        if seen[start]:
            continue
        comp = {start}
        seen[start] = True
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in neighbours(v):
                w = int(w)
                if not seen[w]:
                    seen[w] = True
                    comp.add(w)
                    frontier.append(w)
        comps.append(comp)
    return comps


def components_by_csr(g: BipartiteGraph) -> list[set[int]]:
    """Connected components by csgraph on the N x N CSR of every edge.

    No contraction, and usable at any size, so the reference for large
    graphs.  Vertex sets ordered by smallest vertex, like
    ``connected_components``.
    """
    from scipy.sparse import csgraph, csr_matrix

    n_left, n_right, n = g.n_left, g.n_right, g.n_vertices
    left, right = np.nonzero(g.biadjacency)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(left, minlength=n_left), out=indptr[1 : n_left + 1])
    indptr[n_left + 1 :] = indptr[n_left]
    adjacency = csr_matrix((np.ones(right.size), right + n_left, indptr), shape=(n, n))
    count, labels = csgraph.connected_components(adjacency, directed=False)
    comps = [set(np.flatnonzero(labels == c).tolist()) for c in range(count)]
    return sorted(comps, key=min)


def p_rank_by_corank(g: BipartiteGraph, p: int) -> int:
    """p-rank as the corank of the whole N x N Laplacian mod p minus the
    component count (why that is the p-rank: the ``groups`` docstring)."""
    return corank_mod_p(laplacian_mod_p(g, p)) - len(connected_components(g))


def is_prime_by_trial_division(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def invariant_factors_by_minors(rows: list[list[int]]) -> tuple[int, ...]:
    return tuple(d for d in smith_diagonal_by_minors(rows) if d >= 2)


def divisor_chain_by_pairwise_gcd(values) -> tuple[int, ...]:
    """Invariant-factor chain of a multiset by (gcd, lcm) swaps over every pair.

    1s take part like any other value; zeros move behind nonzero values.
    """
    vals = [abs(int(v)) for v in values]
    changed = True
    while changed:
        changed = False
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                a, b = vals[i], vals[j]
                if a == 0 and b != 0:
                    vals[i], vals[j] = b, a
                    changed = True
                elif a != 0 and b % a != 0:
                    g = gcd(a, b)
                    vals[i], vals[j] = g, a * b // g
                    changed = True
    return tuple(vals)


def solution_denominator_by_fractions(rows: list[list[int]], b: list[int]) -> int:
    """Least common denominator of the solution of ``rows @ x = b``.

    Gauss-Jordan elimination over Fractions; the matrix must be nonsingular.
    """
    size = len(rows)
    work = [[Fraction(v) for v in row] + [Fraction(rhs)] for row, rhs in zip(rows, b)]
    for col in range(size):
        piv = next(r for r in range(col, size) if work[r][col] != 0)
        work[col], work[piv] = work[piv], work[col]
        lead = work[col][col]
        work[col] = [v / lead for v in work[col]]
        for r in range(size):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [v - factor * w for v, w in zip(work[r], work[col])]
    return lcm(*(row[size].denominator for row in work))


def det_by_fractions(rows: list[list[int]]) -> int:
    """Determinant by Gaussian elimination over Fractions."""
    work = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for col in range(len(work)):
        piv = next((r for r in range(col, len(work)) if work[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            det = -det
        det *= work[col][col]
        for r in range(col + 1, len(work)):
            factor = work[r][col] / work[col][col]
            work[r] = [v - factor * w for v, w in zip(work[r], work[col])]
    return int(det)


def matrix_with_diagonal_lead(
    stream: SplitMix64, size: int, lead: int, lead_values, span: int = 3
) -> list[list[int]]:
    """A nonsingular size x size integer matrix whose leading lead x lead block is diagonal.

    The lead's diagonal entries are drawn from ``lead_values`` and every
    other entry from [-span, span].  Below the full size, entry (0, lead) is
    1, so no longer leading block is diagonal.  Matrices are redrawn until
    the determinant is nonzero.
    """
    while True:
        rows = [[stream.next_below(2 * span + 1) - span for _ in range(size)] for _ in range(size)]
        for i in range(lead):
            rows[i][:lead] = [0] * lead
            rows[i][i] = lead_values[stream.next_below(len(lead_values))]
        if lead < size:
            rows[0][lead] = 1
        if det_by_fractions(rows):
            return rows


def rank_by_minors(m: PrimeFieldMatrix) -> int:
    """Rank over Z/pZ as the largest k with a k x k minor nonzero mod p."""
    arr = m.entries
    height, width = arr.shape
    for k in range(min(height, width), 0, -1):
        for rsel in combinations(range(height), k):
            for csel in combinations(range(width), k):
                sub = [[int(arr[i, j]) for j in csel] for i in rsel]
                if det_by_cofactors(sub) % m.p != 0:
                    return k
    return 0


def rank_by_row_reduction(rows: list[list[int]], p: int) -> int:
    """Rank over Z/pZ by textbook row reduction on Python lists of ints."""
    work = [[x % p for x in row] for row in rows]
    rank = 0
    width = len(work[0]) if work else 0
    for c in range(width):
        pivot = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][c], p - 2, p)
        for i in range(len(work)):
            if i != rank and work[i][c]:
                f = work[i][c] * inv % p
                work[i] = [(x - f * y) % p for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


def binom_pmf_fraction(n: int, alpha: Fraction, k: int) -> Fraction:
    return comb(n, k) * alpha**k * (1 - alpha) ** (n - k)


def binom_numerators_from_scratch(n: int, q: Fraction) -> list[int]:
    """C(n, k) * a**k * (b - a)**(n - k) for k = 0..n (q = a/b): each numerator
    of P(B(n, q) = k) over b**n from its own ``comb`` and powers."""
    a, b = q.numerator, q.denominator
    return [comb(n, k) * a**k * (b - a) ** (n - k) for k in range(n + 1)]


def expected_excess_by_summation(n: int, alpha_cut: Fraction | float, p: int) -> Fraction:
    """E(max(B(n, 1/p) - alpha_cut*n, 0)) as the weighted sum, exact.

    Sums (k - alpha_cut*n) * P(B = k) over k > floor(alpha_cut*n), with the
    exact binary64 value of a float ``alpha_cut``.
    """
    cut = Fraction(alpha_cut) * n
    nums = binom_numerators_from_scratch(n, Fraction(1, p))
    weighted = sum(((k - cut) * nums[k] for k in range(max(floor(cut) + 1, 0), n + 1)),
                   Fraction(0))
    return weighted / p**n


def conditional_mean_by_summation(n: int, alpha: Fraction, s: int) -> Fraction:
    """E(B(n, alpha) | B > s) summed term by term, exact."""
    tail = Fraction(0)
    weighted = Fraction(0)
    for k in range(s + 1, n + 1):
        pk = binom_pmf_fraction(n, alpha, k)
        tail += pk
        weighted += k * pk
    return weighted / tail


def full_rank_probability_uniform(n: int, m: int, p: int) -> Fraction:
    """P(uniform n x m matrix over Z/pZ has rank n), n <= m, exact.

    Row by row: row k is outside the span of the previous k rows with
    probability 1 - p^(k-m), giving the product over i = m-n+1 .. m of
    (1 - p^-i).
    """
    prob = Fraction(1)
    for i in range(m - n + 1, m + 1):
        prob *= 1 - Fraction(1, p) ** i
    return prob
