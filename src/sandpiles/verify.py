"""Self-contained correctness checks runnable from the CLI.

Each check pits a library code path against an independent route to the same
value: Schur complements against direct rank computation, the closed-form
binomial conditional mean against direct summation, Smith normal forms
against gcd-of-minors and brute-force spanning-tree enumeration, and the
Gaussian local estimate against exact rational binomial probabilities.  All
randomized checks run on fixed seeds, so a pass here is reproducible, not
probabilistic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, sqrt

import numpy as np

from .bigraph import (
    BipartiteGraph,
    GraphModelParams,
    component_labels,
    laplacian,
    reduced_laplacian,
    sample_bipartite,
)
from .errors import SingularBlockError
from .gfp import PrimeFieldMatrix, corank_mod_p, schur_complement
from .groups import GroupInvariants, sandpile_group, spanning_tree_count
from .intmat import IntegerMatrix, determinant, smith_normal_form
from .rng import SplitMix64
from .theory import binom_pmf, BinomialSpec, conditional_mean_above, dml_estimate

CLAIM_ALPHAS = (
    Fraction(1, 5),
    Fraction(2, 5),
    Fraction(1, 2),
    Fraction(3, 5),
    Fraction(4, 5),
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


# Naive oracles: exponential or first-principles, usable only at small sizes,
# sharing no code with the fast paths they check.  The test-suite uses them too.


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
    """Smith diagonal via determinantal divisors d_k = D_k / D_(k-1).

    D_k is the gcd of all k x k minors.
    """
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
    diag = tuple(0 if cur == 0 else cur // prev for prev, cur in zip(divisors, divisors[1:]))
    return diag + (0,) * (size - len(diag))


def spanning_trees_by_enumeration(g: BipartiteGraph) -> int:
    """Count spanning trees by trying every edge subset of size N - 1."""
    count = 0
    for subset in combinations(g.edges(), g.n_vertices - 1):
        parent = list(range(g.n_vertices))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j in subset:
            ri, rj = find(i), find(g.n_left + j)
            if ri == rj:
                break
            parent[ri] = rj
        else:
            count += 1
    return count


def random_uniform_matrix(stream: SplitMix64, rows: int, cols: int, p: int) -> PrimeFieldMatrix:
    entries = [[stream.next_below(p) for _ in range(cols)] for _ in range(rows)]
    return PrimeFieldMatrix(p, entries)


def check_schur_preservation() -> CheckResult:
    """Corank is preserved by Schur complements with invertible pivot blocks.

    1000 random square matrices over p in {2, 3, 5, 7} with random
    eliminated index sets; instances whose pivot block happens to be
    singular are redrawn (the identity assumes an invertible block).
    """
    stream = SplitMix64(20240817)
    primes = (2, 3, 5, 7)
    failures = 0
    done = 0
    while done < 1000:
        p = primes[done % len(primes)]
        dim = 4 + stream.next_below(6)
        m = random_uniform_matrix(stream, dim, dim, p)
        block_size = stream.next_below(dim)
        picked = _sample_without_replacement(stream, dim, block_size)
        try:
            complement = schur_complement(m, picked)
        except SingularBlockError:
            continue
        done += 1
        if corank_mod_p(complement) != corank_mod_p(m):
            failures += 1
    return CheckResult(
        name="schur-corank-preservation",
        passed=failures == 0,
        detail=f"{done} instances over p in {primes}, {failures} corank mismatches",
    )


def _sample_without_replacement(stream: SplitMix64, bound: int, k: int) -> list[int]:
    pool = list(range(bound))
    for i in range(k):
        j = i + stream.next_below(bound - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


def check_conditional_mean_identity() -> CheckResult:
    """Closed-form conditional mean == direct summation, exact rationals.

    Checks E(B(n, alpha) | B > s) for every n <= 40, every cut
    1 <= s < n, and five rational alpha values.  Zero tolerance: any
    difference at all is a failure.
    """
    failures = 0
    checked = 0
    for n in range(2, 41):
        for alpha in CLAIM_ALPHAS:
            spec = BinomialSpec(n, alpha)
            pmfs = [binom_pmf(spec, k) for k in range(n + 1)]
            tail_sum = Fraction(0)
            weighted = Fraction(0)
            # Walk s downward so the direct tail sums accumulate in O(1) per s.
            for s in range(n - 1, 0, -1):
                tail_sum += pmfs[s + 1]
                weighted += (s + 1) * pmfs[s + 1]
                checked += 1
                if conditional_mean_above(n, alpha, s) != weighted / tail_sum:
                    failures += 1
    return CheckResult(
        name="binomial-conditional-mean-identity",
        passed=failures == 0,
        detail=f"{checked} exact comparisons (n <= 40, 5 alphas), {failures} mismatches",
    )


def _complete_bipartite(a: int, b: int) -> BipartiteGraph:
    return BipartiteGraph(a, b, np.ones((a, b), dtype=np.int64))


def _seeded_graphs(seed: int) -> list[BipartiteGraph]:
    """Three seeded samples of at most 40 vertices, and a disjoint union of two."""
    graphs = [
        sample_bipartite(GraphModelParams(n=n, alpha=alpha, q=0.5, seed=seed + n))
        for n, alpha in ((24, 0.5), (32, 0.25), (20, 1.0))
    ]
    first, last = graphs[0], graphs[-1]
    union = np.zeros((first.n_left + last.n_left, first.n_right + last.n_right), dtype=np.int64)
    union[: first.n_left, : first.n_right] = first.biadjacency
    union[first.n_left :, first.n_right :] = last.biadjacency
    return graphs + [BipartiteGraph(union.shape[0], union.shape[1], union)]


def check_smith_form_oracles() -> CheckResult:
    """Smith form and tree counts against independent small-scale oracles.

    ``sandpile_group`` takes the largest-invariant-factor route per
    component; on a few seeded graphs it must match the plain Smith loop
    on the whole Laplacian.  ``spanning_tree_count`` takes the determinant of
    the Schur complement of the larger part mod many primes, by CRT; on the
    connected ones it must match Bareiss on the whole reduced Laplacian.
    """
    problems: list[str] = []

    k23 = _complete_bipartite(2, 3)
    factors = sandpile_group(k23).factors
    if factors != (2, 6):
        problems.append(f"complete 2x3 invariant factors {factors} != (2, 6)")
    trees = spanning_tree_count(k23)
    brute = spanning_trees_by_enumeration(k23)
    if trees != 12 or brute != 12:
        problems.append(f"complete 2x3 tree counts det={trees} brute={brute} != 12")

    k22 = _complete_bipartite(2, 2)
    factors = sandpile_group(k22).factors
    if factors != (4,):
        problems.append(f"complete 2x2 invariant factors {factors} != (4,)")

    diag = smith_normal_form(IntegerMatrix([[2, 0], [0, 3]]))
    if diag != (1, 6):
        problems.append(f"diag(2,3) Smith form {diag} != (1, 6)")

    stream = SplitMix64(991)
    for _ in range(60):
        rows = 2 + stream.next_below(3)
        cols = 2 + stream.next_below(3)
        entries = [
            [stream.next_below(11) - 5 for _ in range(cols)] for _ in range(rows)
        ]
        got = smith_normal_form(IntegerMatrix(entries))
        want = smith_diagonal_by_minors(entries)
        if got != want:
            problems.append(f"Smith form {got} != minors oracle {want} on {entries}")
            break

    connected = 0
    for i, g in enumerate(_seeded_graphs(991)):
        got = sandpile_group(g).factors
        want = GroupInvariants.from_snf_diagonal(smith_normal_form(laplacian(g))).factors
        if got != want:
            problems.append(f"seeded graph {i}: sandpile_group {got} != plain Smith loop {want}")
        if component_labels(g)[0] == 1:
            connected += 1
            trees = spanning_tree_count(g)
            det = determinant(reduced_laplacian(g, g.n_vertices - 1))
            if trees != det:
                problems.append(f"seeded graph {i}: spanning_tree_count {trees} != Bareiss {det}")
    return CheckResult(
        name="smith-form-oracles",
        passed=not problems,
        detail="; ".join(problems) if problems else
        "complete 2x3 / 2x2 graphs, diag(2,3), 60 random matrices vs gcd-of-minors, "
        "4 seeded graphs (one disconnected) vs the plain Smith loop, tree counts of the "
        f"{connected} connected ones vs Bareiss on the whole reduced Laplacian",
    )


def check_dml_convergence() -> CheckResult:
    """Gaussian local estimate converges to the exact central pmf.

    Relative error at the central point must shrink along n in
    {100, 1000, 10000} and stay below 10/sqrt(n) at each.
    """
    rel_errors = []
    for n in (100, 1000, 10000):
        exact = float(binom_pmf(BinomialSpec(n, Fraction(1, 2)), n // 2))
        rel_errors.append(abs(dml_estimate(n, 0.5, n // 2) - exact) / exact)
    shrinking = rel_errors[0] > rel_errors[1] > rel_errors[2]
    bounded = all(
        err <= 10.0 / sqrt(n) for err, n in zip(rel_errors, (100, 1000, 10000))
    )
    return CheckResult(
        name="gaussian-local-estimate-convergence",
        passed=shrinking and bounded,
        detail=f"relative errors {['%.2e' % e for e in rel_errors]}",
    )


def run_all() -> list[CheckResult]:
    return [
        check_schur_preservation(),
        check_conditional_mean_identity(),
        check_smith_form_oracles(),
        check_dml_convergence(),
    ]
