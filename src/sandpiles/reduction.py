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

* ``corank_pipeline``: the corank computed two ways -- directly, and by first
  eliminating the invertible diagonal part of the D1 block with a Schur
  complement, which must preserve the corank exactly.

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
    sample_bipartite,
    sample_bipartite_from_stream,
)
from .errors import InvalidParamsError, TooSmallError
from .gfp import IndexSet, PrimeFieldMatrix, corank_mod_p, schur_complement, submatrix
from .rng import SplitMix64, derive_seed

REGIME_ABOVE_CUT = "zero-diagonal count at or above the cut"
REGIME_BELOW_CUT = "zero-diagonal count below the cut"


@dataclass(frozen=True)
class ReducedModelMatrix:
    """A trimmed mod-p Laplacian (or its uniformized variant) with provenance.

    ``split`` separates the left-vertex rows (the D1 block) from the
    right-vertex rows; ``params`` records the model the matrix came from
    (for tag "M" the *requested* model size n, whose sample actually used
    n + 2p left vertices); ``tag`` is "delta1" or "M".
    """

    matrix: PrimeFieldMatrix
    split: int
    tag: str
    params: GraphModelParams | None = None

    def __post_init__(self):
        if self.tag not in ("delta1", "M"):
            raise InvalidParamsError(f"tag must be 'delta1' or 'M', got {self.tag!r}")
        m = self.matrix
        if m.rows != m.cols:
            raise InvalidParamsError(f"matrix must be square, got {m!r}")
        if not np.array_equal(m.entries, m.entries.T):
            raise InvalidParamsError("matrix must be symmetric")
        if not 0 <= self.split <= m.rows:
            raise InvalidParamsError(
                f"split {self.split} out of range for size {m.rows}"
            )

    @property
    def dim(self) -> int:
        return self.matrix.rows

    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.matrix.entries)


def build_delta1(
    g: BipartiteGraph, p: int, params: GraphModelParams | None = None
) -> ReducedModelMatrix:
    """Laplacian of ``g`` mod p with the outer p vertices of each side removed.

    Concretely: rows/columns p .. N-1-p of the full N x N Laplacian mod p
    survive (N = n_left + n_right), so the result is square of size N - 2p
    and the first n_left - p rows belong to left vertices.

    Requires n_left > 2p and n_right > 2p so that both blocks survive; raises
    :class:`TooSmallError` otherwise.
    """
    if g.n_left <= 2 * p or g.n_right <= 2 * p:
        raise TooSmallError(
            f"need n_left > {2 * p} and n_right > {2 * p}, "
            f"got {g.n_left} and {g.n_right}"
        )
    full = laplacian_mod_p(g, p)
    keep = range(p, g.n_vertices - p)
    return ReducedModelMatrix(
        matrix=submatrix(full, keep, keep),
        split=g.n_left - p,
        tag="delta1",
        params=params,
    )


def build_M(n: int, alpha: float, q: float, p: int, seed: int) -> ReducedModelMatrix:
    """The uniformized matrix for model size ``n``.

    Samples a graph with n + 2p left vertices (same alpha, q) from the seeded
    stream, trims it as in :func:`build_delta1`, then replaces every diagonal
    entry by an independent uniform draw from Z/pZ taken from the same stream
    *after* all edge draws.  Deterministic given (n, alpha, q, p, seed).
    """
    enlarged = GraphModelParams(n=n + 2 * p, alpha=alpha, q=q, seed=seed)
    stream = SplitMix64(seed)
    g = sample_bipartite_from_stream(enlarged, stream)
    base = build_delta1(g, p)
    entries = base.matrix.entries.copy()
    for i in range(base.dim):
        entries[i, i] = stream.next_below(p)
    return ReducedModelMatrix(
        matrix=PrimeFieldMatrix(p, entries),
        split=base.split,
        tag="M",
        params=GraphModelParams(n=n, alpha=alpha, q=q, seed=seed),
    )


@dataclass(frozen=True)
class PipelineReport:
    """Corank of one matrix computed directly and through Schur elimination.

    ``r`` counts zero diagonal entries in the D1 block; ``regime`` records
    whether r reached the truncation cut floor(alpha*n) of the provenance
    model (the sign that decides which branch of the corank analysis
    applies).
    """

    corank_direct: int
    corank_schur: int
    r: int
    regime: str

    def to_json(self) -> dict:
        return {
            "corank_direct": self.corank_direct,
            "corank_schur": self.corank_schur,
            "r": self.r,
            "regime": self.regime,
        }


def corank_pipeline(m: ReducedModelMatrix) -> PipelineReport:
    """Compute the corank of ``m.matrix`` directly and via a Schur step.

    The Schur step eliminates the invertible diagonal part of the D1 block
    (indices below ``m.split`` with nonzero diagonal); since that block is
    diagonal with nonzero entries it is always invertible, and the
    complement's corank must equal the direct corank -- the returned report
    carries both so callers can assert it.
    """
    if m.params is None:
        raise InvalidParamsError(
            "corank_pipeline needs provenance params to classify the regime"
        )
    diag = m.diagonal()
    d1 = diag[: m.split]
    r = int(np.count_nonzero(d1 == 0))
    invertible = tuple(int(i) for i in np.nonzero(d1)[0])
    corank_direct = corank_mod_p(m.matrix)
    complement = schur_complement(m.matrix, IndexSet(invertible, m.dim))
    corank_schur = corank_mod_p(complement)
    cut = floor_ratio(m.params.alpha, m.params.n)
    regime = REGIME_ABOVE_CUT if r >= cut else REGIME_BELOW_CUT
    return PipelineReport(
        corank_direct=corank_direct,
        corank_schur=corank_schur,
        r=r,
        regime=regime,
    )


def diag_uniformity_stat(
    n: int,
    alpha: float,
    q: float,
    p: int,
    trials: int,
    seed: int,
    entry_index: int = 0,
) -> tuple[float, float]:
    """Chi-square test of one delta1 diagonal entry against uniform on Z/pZ.

    Samples ``trials`` independent graphs, reads diagonal entry
    ``entry_index`` of each trimmed matrix (an entry of the D1 block), and
    returns (statistic, p-value) for goodness of fit to the uniform
    distribution.  Large p-values mean uniformity is not rejected; at small n
    the geometric bias is real and visible, so callers assert only at
    moderate n.
    """
    if trials < 1:
        raise InvalidParamsError(f"trials must be >= 1, got {trials}")
    if not 0 <= entry_index < n - p:
        raise InvalidParamsError(
            f"entry_index {entry_index} outside the D1 block (split={n - p})"
        )
    counts = np.zeros(p, dtype=np.int64)
    for t in range(trials):
        params = GraphModelParams(n=n, alpha=alpha, q=q, seed=derive_seed(seed, t))
        d1 = build_delta1(sample_bipartite(params), p, params=params)
        counts[int(d1.matrix.entries[entry_index, entry_index])] += 1
    expected = trials / p
    stat = float(((counts - expected) ** 2 / expected).sum())
    from scipy.stats import chi2  # slow to import; only this diagnostic needs it
    pvalue = float(chi2.sf(stat, p - 1))
    return stat, pvalue
