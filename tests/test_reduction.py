"""Tests for trimmed Laplacians, the uniformized matrix M and corank pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from sandpiles import (
    GraphModelParams,
    InvalidParamsError,
    PrimeFieldMatrix,
    SplitMix64,
    TooSmallError,
    build_M,
    build_delta1,
    corank_mod_p,
    corank_pipeline,
    diag_uniformity_stat,
    floor_ratio,
    laplacian_mod_p,
    sample_bipartite,
    submatrix,
)
from sandpiles.reduction import (
    REGIME_ABOVE_CUT,
    REGIME_BELOW_CUT,
    ReducedModelMatrix,
)


def _sample(n: int, alpha: float, q: float, seed: int):
    params = GraphModelParams(n=n, alpha=alpha, q=q, seed=seed)
    return params, sample_bipartite(params)


def test_reduced_model_matrix_validation():
    sym = PrimeFieldMatrix(3, [[1, 2], [2, 0]])
    m = ReducedModelMatrix(matrix=sym, split=1, tag="delta1")
    assert m.dim == 2
    assert m.diagonal().tolist() == [1, 0]
    with pytest.raises(InvalidParamsError):
        ReducedModelMatrix(matrix=sym, split=1, tag="weird")
    with pytest.raises(InvalidParamsError):
        ReducedModelMatrix(matrix=sym, split=5, tag="M")
    asym = PrimeFieldMatrix(3, [[1, 2], [0, 0]])
    with pytest.raises(InvalidParamsError):
        ReducedModelMatrix(matrix=asym, split=1, tag="delta1")
    wide = PrimeFieldMatrix(3, [[1, 2, 0]])
    with pytest.raises(InvalidParamsError):
        ReducedModelMatrix(matrix=wide, split=1, tag="delta1")


def test_build_delta1_shape_and_split():
    params, g = _sample(24, 0.5, 0.5, 11)
    m = build_delta1(g, 2, params=params)
    # 24 left + 12 right vertices lose 2 from each end: 36 - 4 = 32.
    assert m.dim == 32
    assert m.split == 22
    assert m.tag == "delta1"
    assert m.params == params


def test_build_delta1_is_central_block_of_full_laplacian():
    params, g = _sample(8, 1.0, 0.5, 202)
    p = 2
    m = build_delta1(g, p, params=params)
    full = laplacian_mod_p(g, p)
    keep = tuple(range(p, g.n_vertices - p))
    assert m.matrix == submatrix(full, keep, keep)
    # Entry-by-entry replay of the definition on this fixed seed.  The trim
    # removes the first p rows (left vertices 0..p-1) and last p rows (the
    # last p right vertices) of the full Laplacian; surviving degrees still
    # count edges to the deleted vertices.
    biadj = g.biadjacency
    for row in range(p, g.n_left):
        expect = int(biadj[row].sum()) % p
        assert int(m.matrix.entries[row - p, row - p]) == expect
    for col in range(g.n_right - p):
        expect = int(biadj[:, col].sum()) % p
        idx = m.split + col
        assert int(m.matrix.entries[idx, idx]) == expect
    for row in range(p, g.n_left):
        for col in range(g.n_right - p):
            got = int(m.matrix.entries[row - p, m.split + col])
            assert got == (-int(biadj[row, col])) % p


def test_build_delta1_symmetric_sweep():
    for seed in range(25):
        for p in (2, 3):
            n = 4 * p + 1 + seed % 3
            params, g = _sample(n, 1.0, 0.45, 900 + seed)
            m = build_delta1(g, p, params=params)
            arr = m.matrix.entries
            assert np.array_equal(arr, arr.T)
            assert m.dim == g.n_vertices - 2 * p


def test_build_delta1_rejects_small_graphs():
    _, g = _sample(8, 0.5, 0.5, 3)  # right side has only 4 vertices
    with pytest.raises(TooSmallError):
        build_delta1(g, 2)
    _, g44 = _sample(4, 1.0, 0.5, 3)
    with pytest.raises(TooSmallError):
        build_delta1(g44, 2)


def test_build_M_dimensions_and_tag():
    m = build_M(20, 0.5, 0.5, 2, seed=9)
    # The sample has (20+4) + 12 vertices; trimming removes 4: 32 remain.
    assert m.dim == 32
    assert m.split == 22
    assert m.tag == "M"
    assert m.params == GraphModelParams(n=20, alpha=0.5, q=0.5, seed=9)


def test_build_M_shares_off_diagonal_with_enlarged_delta1():
    n, alpha, q, p, seed = 12, 0.5, 0.4, 3, 5150
    m = build_M(n, alpha, q, p, seed)
    enlarged = GraphModelParams(n=n + 2 * p, alpha=alpha, q=q, seed=seed)
    d1 = build_delta1(sample_bipartite(enlarged), p, params=enlarged)
    a = m.matrix.entries.copy()
    b = d1.matrix.entries.copy()
    np.fill_diagonal(a, 0)
    np.fill_diagonal(b, 0)
    assert np.array_equal(a, b)
    assert m.split == d1.split


def test_build_M_diagonal_draws_follow_edge_draws():
    n, alpha, q, p, seed = 10, 0.5, 0.5, 2, 77
    m = build_M(n, alpha, q, p, seed)
    enlarged = GraphModelParams(n=n + 2 * p, alpha=alpha, q=q, seed=seed)
    stream = SplitMix64(seed)
    stream.next_uniform_block(enlarged.n * enlarged.n_right)  # skip edge draws
    expect = [stream.next_below(p) for _ in range(m.dim)]
    assert m.diagonal().tolist() == expect


def test_build_M_is_deterministic():
    a = build_M(14, 0.75, 0.3, 2, seed=31415)
    b = build_M(14, 0.75, 0.3, 2, seed=31415)
    assert a == b
    c = build_M(14, 0.75, 0.3, 2, seed=31416)
    assert a.matrix != c.matrix


def test_build_M_diagonal_is_uniform():
    # Pool the diagonals of many M draws and compare with the exactly uniform
    # law by a 3-sigma count window per residue.
    p, n, alpha, q = 2, 6, 0.5, 0.5
    counts = np.zeros(p, dtype=np.int64)
    total = 0
    for seed in range(400):
        m = build_M(n, alpha, q, p, seed=10_000 + seed)
        diag = m.diagonal()
        for v in diag:
            counts[int(v)] += 1
        total += m.dim
    expected = total / p
    sigma = (total * (1 / p) * (1 - 1 / p)) ** 0.5
    assert abs(counts[0] - expected) < 3 * sigma


def test_corank_pipeline_agreement_sweep():
    mismatches = 0
    checked = 0
    for p in (2, 3, 5):
        for seed in range(40):
            m = build_M(4 * p + 2, 0.75, 0.5, p, seed=1_000_000 + seed)
            report = corank_pipeline(m)
            checked += 1
            if report.corank_direct != report.corank_schur:
                mismatches += 1
            assert report.corank_direct == corank_mod_p(m.matrix)
    assert checked == 120
    assert mismatches == 0


def test_corank_pipeline_r_and_regime():
    m = build_M(12, 0.5, 0.5, 2, seed=271)
    report = corank_pipeline(m)
    diag = m.diagonal()[: m.split]
    assert report.r == int((diag == 0).sum())
    cut = 6  # floor(0.5 * 12)
    expect = REGIME_ABOVE_CUT if report.r >= cut else REGIME_BELOW_CUT
    assert report.regime == expect
    payload = report.to_json()
    assert payload["r"] == report.r


def test_corank_pipeline_all_nonzero_diagonal_case():
    # Hand-built delta1-shaped matrix with no zero diagonal entries: r = 0
    # and the full D1 block is eliminated.
    entries = [
        [1, 0, 2],
        [0, 2, 1],
        [2, 1, 1],
    ]
    m = ReducedModelMatrix(
        matrix=PrimeFieldMatrix(3, entries),
        split=2,
        tag="M",
        params=GraphModelParams(n=4, alpha=0.5, q=0.5, seed=0),
    )
    report = corank_pipeline(m)
    assert report.r == 0
    assert report.regime == REGIME_BELOW_CUT
    assert report.corank_direct == report.corank_schur


def test_corank_pipeline_all_zero_d1_case():
    # All-zero D1 block: nothing is eliminated and the Schur complement is
    # the matrix itself, so the two coranks agree trivially and r = split.
    entries = [
        [0, 0, 1],
        [0, 0, 1],
        [1, 1, 1],
    ]
    m = ReducedModelMatrix(
        matrix=PrimeFieldMatrix(2, entries),
        split=2,
        tag="M",
        params=GraphModelParams(n=4, alpha=0.5, q=0.5, seed=0),
    )
    report = corank_pipeline(m)
    assert report.r == 2
    assert report.regime == REGIME_ABOVE_CUT  # r = 2 >= floor(0.5*4) = 2
    assert report.corank_direct == report.corank_schur


def test_corank_pipeline_requires_provenance():
    m = ReducedModelMatrix(matrix=PrimeFieldMatrix(2, [[0, 1], [1, 0]]), split=1, tag="delta1")
    with pytest.raises(InvalidParamsError):
        corank_pipeline(m)


@pytest.mark.parametrize(
    "p,alpha,n",
    [(2, 0.5, 40), (2, 0.25, 40), (3, 0.5, 45), (5, 0.75, 50), (2, 1.0, 30)],
)
def test_corank_stable_under_model_growth(p, alpha, n):
    """Growing the model from n to n+2p moves the trimmed corank by at most 4p.

    The two samples are coupled through the principal submatrix: the small
    matrix is read off the central block of the large one (at the small
    dimensions), so they differ by at most 4p one-row-one-column deletions,
    each of which changes the corank by at most 1.
    """
    q = 0.5
    big_n = n + 2 * p
    bound = 4 * p
    for seed in range(60):
        params_big = GraphModelParams(n=big_n, alpha=alpha, q=q, seed=7000 + seed)
        big = build_delta1(sample_bipartite(params_big), p, params=params_big)
        nl_small = n - p
        nr_small = floor_ratio(alpha, n) - p
        nl_big = big_n - p
        nr_big = floor_ratio(alpha, big_n) - p
        drop_right = (nr_big - nr_small) // 2
        rows = list(range(p, p + nl_small)) + [
            nl_big + drop_right + j for j in range(nr_small)
        ]
        small = submatrix(big.matrix, rows, rows)
        gap = abs(corank_mod_p(small) - corank_mod_p(big.matrix))
        assert gap <= bound


def test_diag_uniformity_not_rejected_at_moderate_size():
    stat, pvalue = diag_uniformity_stat(60, 0.5, 0.5, 2, trials=2000, seed=314159)
    assert pvalue > 1e-3


def test_diag_uniformity_other_entry_and_prime():
    _, pvalue = diag_uniformity_stat(60, 0.5, 0.5, 2, trials=1500, seed=314160, entry_index=1)
    assert pvalue > 1e-3
    _, pvalue3 = diag_uniformity_stat(45, 0.5, 0.5, 3, trials=1500, seed=314161)
    assert pvalue3 > 1e-3


def test_diag_uniformity_small_n_still_computes():
    stat, pvalue = diag_uniformity_stat(9, 0.8, 0.5, 3, trials=60, seed=8)
    assert stat >= 0.0
    assert 0.0 <= pvalue <= 1.0


def test_diag_uniformity_is_deterministic():
    a = diag_uniformity_stat(13, 0.8, 0.5, 2, trials=40, seed=5)
    b = diag_uniformity_stat(13, 0.8, 0.5, 2, trials=40, seed=5)
    assert a == b


def test_diag_uniformity_validates_inputs():
    with pytest.raises(InvalidParamsError):
        diag_uniformity_stat(60, 0.5, 0.5, 2, trials=0, seed=1)
    with pytest.raises(InvalidParamsError):
        diag_uniformity_stat(60, 0.5, 0.5, 2, trials=10, seed=1, entry_index=58)
    with pytest.raises(InvalidParamsError):
        diag_uniformity_stat(60, 0.5, 0.5, 2, trials=10, seed=1, entry_index=-1)
