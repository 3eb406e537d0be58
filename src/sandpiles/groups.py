"""Sandpile groups, p-ranks and spanning trees of bipartite graphs.

The sandpile group (critical group) of a connected graph is the integer
cokernel of any reduced Laplacian; its order is the number of spanning trees.
For a disconnected graph we use the direct sum of the component groups, which
is the cokernel of the full Laplacian modulo its free part (one Z per
component).

Two routes to the p-rank (the number of invariant factors divisible by p) are
implemented and cross-checked in the tests:

* exact Smith normal form of a reduced Laplacian (any prime at once),
* ``p_rank``, from the bipartite block structure of the Laplacian mod p (fast,
  one prime at a time).

The Smith form of the full Laplacian is the invariant factors plus one zero
per component, and mod p each factor divisible by p and each zero gives one
dimension of kernel: the p-rank is the corank of the Laplacian mod p minus
the component count.  ``p_rank`` takes that corank without the N x N
matrix, from its block shape, with the kernel ``gfp._block_corank`` that
derives it.  The test oracle takes the whole corank.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, prod

import numpy as np

from .bigraph import BipartiteGraph, component_labels, connected_components, reduced_laplacian
from .errors import DisconnectedError, GuardExceededError, NotPrimeError
from .gfp import _block_corank, _check_prime, is_prime
from .intmat import (
    _covering_primes,
    _crt_signed,
    _det_mod_primes,
    normalize_divisor_chain,
    smith_form_by_largest_factor,
)

# Largest component, in vertices, whose exact Smith form is attempted.  At
# q = 0.5, seeds 1-3, on a 2-core host:
#
#   vertices  alpha  sandpile_group  tree count   group CLI   peak RSS (CLI)
#   350       1      0.14-0.25 s     0.41-0.42 s  1.0-1.2 s   117-120 MB
#   350       3/4    0.11-0.18 s     0.25-0.26 s  0.8 s       105 MB
#   350       1/4    0.12-0.14 s     0.03 s       0.5 s       76 MB
#   400       1      0.18-0.30 s     0.69-0.77 s  1.4-1.7 s   144 MB
#   400       1/4    0.22-0.30 s     0.05-0.07 s  0.6-0.9 s   80-81 MB
#
# The first two columns are timed in process, best of three after a
# warm-up call, the CLI column times the whole ``group`` command (400-vertex
# rows with the guard raised to 400).  Every accepted size takes seconds; the guard stays at 350
# until ``group`` and ``cyclicity`` are given guards of their own.
SNF_VERTEX_GUARD = 350


@dataclass(frozen=True)
class GroupInvariants:
    """A finite abelian group in invariant-factor form.

    ``factors`` is the canonical chain d1 | d2 | ... with every d_i >= 2;
    the trivial group has an empty chain.
    """

    factors: tuple[int, ...]

    def __post_init__(self):
        for a, b in zip(self.factors, self.factors[1:]):
            if b % a != 0:
                raise ValueError(f"factors must form a divisor chain, got {self.factors}")
        if any(d < 2 for d in self.factors):
            raise ValueError(f"factors must all be >= 2, got {self.factors}")

    @classmethod
    def from_snf_diagonal(cls, diag) -> "GroupInvariants":
        """Group presented by a Smith-form diagonal, with its zeros (Z summands) dropped."""
        return cls(tuple(d for d in normalize_divisor_chain(diag) if d >= 2))

    @property
    def order(self) -> int:
        """Product of the invariant factors."""
        return prod(self.factors)

    @property
    def is_cyclic(self) -> bool:
        """True when the torsion part is generated by one element."""
        return len(self.factors) <= 1

    def p_multiplicity(self, p: int) -> int:
        """Number of invariant factors divisible by ``p``."""
        return sum(1 for d in self.factors if d % p == 0)


def sandpile_group(g: BipartiteGraph) -> GroupInvariants:
    """Invariant factors of the sandpile group of ``g``.

    Computed per connected component (reduced Laplacian dropping the last
    vertex of the component, then its Smith normal form from the largest
    invariant factor and a pivot loop modulo a small integer) and combined with
    gcd/lcm normalization, so disconnected graphs get the direct sum of their
    component groups without ever factoring a large integer.  Raises
    :class:`GuardExceededError` before any elimination when a component has
    more than ``SNF_VERTEX_GUARD`` vertices.
    """
    comps = connected_components(g)
    largest = max(len(comp) for comp in comps)
    if largest > SNF_VERTEX_GUARD:
        raise GuardExceededError(
            f"a component of {largest} vertices exceeds the exact-Smith-form "
            f"guard ({SNF_VERTEX_GUARD}); use a smaller graph"
        )
    collected: list[int] = []
    for comp in comps:
        if len(comp) == 1:
            continue
        # Left members come first in sorted order, so the component's own
        # graph numbers its vertices in the same order as ``g`` does.
        members = sorted(comp)
        left = [v for v in members if v < g.n_left]
        right = [v - g.n_left for v in members if v >= g.n_left]
        part = BipartiteGraph(len(left), len(right), g.biadjacency[np.ix_(left, right)])
        diag = smith_form_by_largest_factor(reduced_laplacian(part, part.n_vertices - 1))
        # A connected component has nonsingular reduced Laplacian, so the
        # Smith diagonal is all positive.
        if not all(d > 0 for d in diag):
            raise RuntimeError("reduced Laplacian of a connected component was singular")
        collected.extend(d for d in diag if d >= 2)
    return GroupInvariants.from_snf_diagonal(collected)


def p_rank(g: BipartiteGraph, p: int) -> int:
    """Number of invariant factors of the sandpile group divisible by ``p``.

    Equal to ``sandpile_group(g).p_multiplicity(p)`` but cheap enough for
    Monte Carlo: no integer Smith form, and no N x N array.  The Laplacian
    mod p is [[D1, -B], [-B^T, D2]] with the degrees on its diagonal, and
    :func:`gfp._block_corank` takes its corank from that shape, so

        p_rank = (z - m) + k + corank(N C N^T) - components,

    with z the left vertices of degree divisible by ``p``, m = ``n_right``
    and k the nullity of their rows B_Z.  z ~ B(n, pi_m) exactly, so z - m
    is the paper's binomial variable and the rest its O(1) correction;
    k >= 1 because the all-ones vector lies in the kernel of B_Z.
    """
    if not is_prime(p):
        raise NotPrimeError(f"p must be prime, got {p}")
    # Refuses p >= 2**31 and a non-int p before any elimination.
    _check_prime(p)
    b = g.biadjacency
    n_comps, _ = component_labels(g)
    return _block_corank(b, b.sum(axis=1) % p, b.sum(axis=0) % p, p) - n_comps


def _schur_block_mod_primes(kept: np.ndarray, degrees: np.ndarray, moduli: np.ndarray) -> np.ndarray:
    """S mod each prime, as an int64 stack of shape (primes, m, m).

    S = diag(D) - sum_d (d^-1 mod q) * B_d^T B_d, with ``kept`` the
    biadjacency B from the larger part (rows of degrees ``degrees``) to the
    m kept vertices.  The Gram blocks are built once, and one matrix product
    of the inverses (primes x degrees) with the flattened blocks
    (degrees x m^2) weights them for every prime, so no
    (primes x degrees x m x m) array is formed.
    """
    m = kept.shape[1]
    levels, which = np.unique(degrees, return_inverse=True)
    rows = kept.astype(np.float64)
    grams = np.stack([rows[which == i].T @ rows[which == i] for i in range(levels.size)])
    inverses = np.array([[pow(int(d), -1, int(q)) for d in levels] for q in moduli])
    # Entry (i, j) of the product is at most (q - 1) * (B^T B)[i, j], below
    # 2**27 times the row count: exact in float64 below 2**26 rows, and in
    # int64 for any graph that fits in memory.
    exact = np.float64 if len(kept) < 2**26 else np.int64
    stack = inverses.astype(exact) @ grams.reshape(levels.size, m * m).astype(exact, copy=False)
    np.subtract(np.diag(kept.sum(axis=0)).ravel(), stack, out=stack)
    stack = stack.astype(np.int64)
    stack %= moduli[:, None]
    return stack.reshape(len(moduli), m, m)


def spanning_tree_count(g: BipartiteGraph) -> int:
    """Number of spanning trees, via the matrix-tree theorem.

    The determinant of the reduced Laplacian that drops the last vertex of
    the smaller part.  The larger part's block of that Laplacian is the
    diagonal of its degrees d_i, so eliminating it in closed form leaves
    prod(d_i) * det S, where S = D - B^T diag(1/d) B is the Schur complement
    on the rest of the smaller part (degrees D, biadjacency B from the
    larger part).  Mod a prime q that divides no d_i,
    S = diag(D) - sum_d (d^-1 mod q) * B_d^T B_d over the distinct degrees
    d, with the Gram blocks B_d^T B_d built once for all primes.  det S is
    taken mod every prime below 2**27 needed to cover twice the column
    Hadamard bound of the reduced Laplacian, in one elimination of the whole
    stack, and the count comes back by CRT.  The Smith route shares that
    prime range, elimination and CRT, not this construction of S or bound.
    Raises :class:`DisconnectedError` when the graph is disconnected (the
    determinant would be 0 and the sandpile group order would not equal a
    tree count).
    """
    if component_labels(g)[0] != 1:
        raise DisconnectedError("spanning trees are defined for connected graphs only")
    # Rows are the larger part; the smaller part's last column is dropped.
    larger = g.biadjacency if g.n_left >= g.n_right else g.biadjacency.T
    degrees = larger.sum(axis=1)
    kept = larger[:, :-1]
    product = prod(degrees.tolist())
    # Squared column norms of the reduced Laplacian: a degree on the
    # diagonal and one -1 per kept neighbour.
    kept_degrees = kept.sum(axis=0)
    norms = (degrees**2 + kept.sum(axis=1)).tolist() + (kept_degrees**2 + kept_degrees).tolist()
    primes = _covering_primes(2 * (isqrt(prod(norms)) + 1), product)
    moduli = np.array(primes, dtype=np.int64)
    dets = _det_mod_primes(_schur_block_mod_primes(kept, degrees, moduli), moduli)
    scale = np.array([product % q for q in primes], dtype=np.int64)
    det = _crt_signed(dets * scale % moduli, primes)
    if det <= 0:
        raise RuntimeError(
            f"reduced Laplacian of a connected graph has determinant {det}, not > 0"
        )
    return det
