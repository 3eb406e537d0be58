"""Trimmed mod-p Laplacians with uniformized diagonals, and their coranks.

The corank of the Laplacian mod p controls the p-rank of the sandpile group,
so the distributional question reduces to a random-matrix one.  The objects
here make that reduction concrete:

* ``build_delta1``: take the Laplacian of a bipartite graph mod p and delete
  the first p and last p rows and columns.  The surviving matrix keeps the
  block shape (D1  A; A^T  D2) -- degree diagonals and a biadjacency
  off-diagonal -- but, crucially, each surviving degree still counts edges to
  the deleted outer vertices, which makes the diagonal entries close to
  uniform on Z/pZ and nearly independent of the surviving off-diagonal block.

* ``build_M``: the same matrix for a graph sampled with model size n+2p,
  with every diagonal entry *replaced* by an exactly uniform draw from Z/pZ.
  This is the idealized matrix whose corank is provably close to the
  truncated-binomial rank law; comparing it with delta1 measures how much the
  idealization matters.

* ``corank_pipeline``: the corank computed two ways -- directly, and by the
  block kernel ``gfp._block_corank``, which eliminates the invertible part
  of the D1 block by a row scaling; the two must agree exactly.

All randomness in ``build_M`` comes from one splitmix64 stream: first the
edge draws (identical to plain graph sampling), then the diagonal draws.  Two
calls with the same seed therefore share their graph edge-for-edge with the
plain sample of the enlarged model, which the paired tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bigraph import (
    BipartiteGraph,
    GraphModelParams,
    floor_ratio,
    laplacian_mod_p,
    sample_bipartite_from_stream,
)
from .errors import InvalidParamsError, TooSmallError
from .gfp import PrimeFieldMatrix, _block_corank, corank_mod_p
from .rng import SplitMix64

REGIME_ABOVE_CUT = "zero-diagonal count at or above the cut"
REGIME_BELOW_CUT = "zero-diagonal count below the cut"


@dataclass(frozen=True)
class ReducedModelMatrix:
    """A trimmed mod-p Laplacian (or its uniformized variant) and its cut.

    ``split`` separates the left-vertex rows (the D1 block) from the
    right-vertex rows (the D2 block), and both blocks must be diagonal;
    ``cut`` is the truncation cut floor(alpha*n) of the model the matrix
    stands for, which :func:`corank_pipeline` compares with the number of
    zero diagonal entries in the D1 block.
    """

    matrix: PrimeFieldMatrix
    split: int
    cut: int

    def __post_init__(self):
        if self.cut < 0:
            raise InvalidParamsError(f"cut must be >= 0, got {self.cut}")
        m = self.matrix
        if m.rows != m.cols:
            raise InvalidParamsError(f"matrix must be square, got {m!r}")
        if not np.array_equal(m.entries, m.entries.T):
            raise InvalidParamsError("matrix must be symmetric")
        if not 0 <= self.split <= m.rows:
            raise InvalidParamsError(
                f"split {self.split} out of range for size {m.rows}"
            )
        s = self.split
        for block in (m.entries[:s, :s], m.entries[s:, s:]):
            if np.count_nonzero(block) != np.count_nonzero(np.diagonal(block)):
                raise InvalidParamsError("the D1 and D2 blocks must be diagonal")

    @property
    def dim(self) -> int:
        return self.matrix.rows

    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.matrix.entries)


def _check_trim_size(n_left: int, n_right: int, p: int) -> None:
    """Raise :class:`TooSmallError` unless both parts survive trimming p from each end."""
    if n_left <= 2 * p or n_right <= 2 * p:
        raise TooSmallError(
            f"need n_left > {2 * p} and n_right > {2 * p}, got {n_left} and {n_right}"
        )


def build_delta1(g: BipartiteGraph, p: int) -> ReducedModelMatrix:
    """Laplacian of ``g`` mod p with the outer p vertices of each side removed.

    Concretely: rows/columns p .. N-1-p of the full N x N Laplacian mod p
    survive (N = n_left + n_right), so the result is square of size N - 2p
    and the first n_left - p rows belong to left vertices.  The cut is the
    graph's own floor(alpha*n), its right part size.

    Requires n_left > 2p and n_right > 2p so that both blocks survive; raises
    :class:`TooSmallError` otherwise.
    """
    _check_trim_size(g.n_left, g.n_right, p)
    full = laplacian_mod_p(g, p).entries
    end = g.n_vertices - p
    return ReducedModelMatrix(
        matrix=PrimeFieldMatrix(p, full[p:end, p:end]),
        split=g.n_left - p,
        cut=g.n_right,
    )


def build_M(n: int, alpha: float, q: float, p: int, seed: int) -> ReducedModelMatrix:
    """The uniformized matrix for model size ``n``.

    Samples a graph with n + 2p left vertices (same alpha, q) from the seeded
    stream, trims it as in :func:`build_delta1`, then replaces every diagonal
    entry by an independent uniform draw from Z/pZ taken from the same stream
    *after* all edge draws.  Deterministic given (n, alpha, q, p, seed).  The
    cut is floor(alpha*n) for the requested n, not for the enlarged sample.
    """
    enlarged = GraphModelParams(n=n + 2 * p, alpha=alpha, q=q, seed=seed)
    # Refuse a too-small model before drawing its (n + 2p) x m edges.
    _check_trim_size(enlarged.n, enlarged.n_right, p)
    stream = SplitMix64(seed)
    g = sample_bipartite_from_stream(enlarged, stream)
    base = build_delta1(g, p)
    entries = base.matrix.entries.copy()
    for i in range(base.dim):
        entries[i, i] = stream.next_below(p)
    return ReducedModelMatrix(
        matrix=PrimeFieldMatrix(p, entries),
        split=base.split,
        cut=floor_ratio(alpha, n),
    )


@dataclass(frozen=True)
class PipelineReport:
    """Corank of one matrix computed directly and through Schur elimination.

    ``r`` counts zero diagonal entries in the D1 block; ``regime`` records
    whether r reached the matrix's truncation cut floor(alpha*n) (the sign
    that decides which branch of the corank analysis applies).
    """

    corank_direct: int
    corank_schur: int
    r: int
    regime: str


def corank_pipeline(m: ReducedModelMatrix) -> PipelineReport:
    """Compute the corank of ``m.matrix`` directly and via the block kernel.

    The block kernel eliminates the invertible diagonal part of the D1 block
    (indices below ``m.split`` with nonzero diagonal) by a row scaling, as
    ``p_rank`` does for a Laplacian; that part is always invertible, and the
    corank it gives must equal the direct corank -- the returned report
    carries both so callers can assert it.
    """
    diag = m.diagonal()
    d1 = diag[: m.split]
    r = int(np.count_nonzero(d1 == 0))
    corank_direct = corank_mod_p(m.matrix)
    entries, split = m.matrix.entries, m.split
    corank_schur = _block_corank(entries[:split, split:], d1, diag[split:], m.matrix.p)
    regime = REGIME_ABOVE_CUT if r >= m.cut else REGIME_BELOW_CUT
    return PipelineReport(
        corank_direct=corank_direct,
        corank_schur=corank_schur,
        r=r,
        regime=regime,
    )
