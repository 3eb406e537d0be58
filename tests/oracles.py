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
from math import comb

import numpy as np

from sandpiles import BipartiteGraph, SplitMix64
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


def random_biadjacency(stream: SplitMix64, rows: int, cols: int, q: float) -> np.ndarray:
    u = stream.next_uniform_block(rows * cols).reshape(rows, cols)
    return (u < q).astype(np.int64)
