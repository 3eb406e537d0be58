"""Independent reference implementations for cross-checking the library.

Everything here is deliberately naive -- enumeration, cofactor expansions and
first-principles formulas -- and shares no code with the fast paths under
test.  Oracles are usable only at small sizes; that is the point.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, gcd

import numpy as np

from sandpiles import BipartiteGraph, SplitMix64
from sandpiles.gfp import PrimeFieldMatrix


def spanning_trees_by_enumeration(g: BipartiteGraph) -> int:
    """Count spanning trees by trying every edge subset of size N - 1."""
    edges = g.edges()
    n = g.n_vertices
    if n == 1:
        return 1
    count = 0
    for subset in combinations(edges, n - 1):
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for i, j in subset:
            ri, rj = find(i), find(g.n_left + j)
            if ri == rj:
                ok = False
                break
            parent[ri] = rj
        if ok:
            count += 1
    return count


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


def det_by_cofactors(rows: list[list[int]]) -> int:
    """Determinant by Laplace expansion on the first row (exponential)."""
    size = len(rows)
    if size == 0:
        return 1
    if size == 1:
        return rows[0][0]
    total = 0
    for j in range(size):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * det_by_cofactors(minor)
        total += term if j % 2 == 0 else -term
    return total


def smith_diagonal_by_minors(rows: list[list[int]]) -> tuple[int, ...]:
    """Smith diagonal via determinantal divisors d_k = D_k / D_(k-1)."""
    height = len(rows)
    width = len(rows[0]) if rows else 0
    size = min(height, width)
    divisors = [1]
    for k in range(1, size + 1):
        g = 0
        for rsel in combinations(range(height), k):
            for csel in combinations(range(width), k):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                g = gcd(g, det_by_cofactors(sub))
                if g == 1:
                    break
            if g == 1:
                break
        divisors.append(g)
        if g == 0:
            break
    diag = []
    for k in range(1, len(divisors)):
        prev, cur = divisors[k - 1], divisors[k]
        diag.append(0 if cur == 0 else cur // prev)
    diag.extend(0 for _ in range(size - len(diag)))
    return tuple(diag)


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


def random_uniform_matrix(stream: SplitMix64, rows: int, cols: int, p: int) -> PrimeFieldMatrix:
    entries = [[stream.next_below(p) for _ in range(cols)] for _ in range(rows)]
    return PrimeFieldMatrix(p, entries)


def random_biadjacency(stream: SplitMix64, rows: int, cols: int, q: float) -> np.ndarray:
    u = stream.next_uniform_block(rows * cols).reshape(rows, cols)
    return (u < q).astype(np.int64)
