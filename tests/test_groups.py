"""Tests for sandpile groups, p-ranks and spanning tree counts."""

from __future__ import annotations

import hashlib
import math
import time
import tracemalloc

import numpy as np
import pytest

from oracles import invariant_factors_by_minors, p_rank_by_corank, spanning_trees_by_enumeration
from sandpiles import (
    BipartiteGraph,
    DisconnectedError,
    GraphModelParams,
    GroupInvariants,
    GuardExceededError,
    InvalidParamsError,
    NotPrimeError,
    PrimeFieldMatrix,
    connected_components,
    determinant,
    laplacian,
    p_rank,
    rank_mod_p,
    reduced_laplacian,
    sample_bipartite,
    sandpile_group,
    smith_normal_form,
    spanning_tree_count,
)
from sandpiles import groups as groups_mod
from sandpiles import intmat


def complete_bipartite(a: int, b: int) -> BipartiteGraph:
    return BipartiteGraph(a, b, np.ones((a, b), dtype=np.int64))


def test_group_invariants_validation():
    g = GroupInvariants((2, 6))
    assert g.order == 12
    assert not g.is_cyclic
    with pytest.raises(ValueError):
        GroupInvariants((1, 6))
    with pytest.raises(ValueError):
        GroupInvariants((4, 6))  # 4 does not divide 6


def test_group_invariants_from_snf_diagonal():
    g = GroupInvariants.from_snf_diagonal((1, 1, 2, 6, 0, 0))
    assert g.factors == (2, 6)
    assert g.order == 12
    trivial = GroupInvariants.from_snf_diagonal((1, 1))
    assert trivial.factors == () and trivial.order == 1 and trivial.is_cyclic


def test_group_invariants_p_multiplicity():
    g = GroupInvariants((2, 4, 12))
    assert g.p_multiplicity(2) == 3
    assert g.p_multiplicity(3) == 1
    assert g.p_multiplicity(5) == 0


def test_complete_2_3_matches_hand_computation():
    g = complete_bipartite(2, 3)
    inv = sandpile_group(g)
    assert inv.factors == (2, 6)
    assert inv.order == 12
    assert spanning_tree_count(g) == 12
    assert spanning_trees_by_enumeration(g) == 12
    assert p_rank(g, 2) == 2
    assert p_rank(g, 3) == 1
    assert p_rank(g, 5) == 0
    assert not inv.is_cyclic


def test_complete_2_2_is_cyclic_of_order_four():
    g = complete_bipartite(2, 2)
    inv = sandpile_group(g)
    assert inv.factors == (4,)
    assert spanning_tree_count(g) == 4
    assert inv.is_cyclic


def test_complete_3_3_group_and_tree_count():
    g = complete_bipartite(3, 3)
    inv = sandpile_group(g)
    assert inv.factors == (3, 3, 9)
    assert inv.order == 81
    assert spanning_tree_count(g) == 81
    assert spanning_trees_by_enumeration(g) == 81
    assert p_rank(g, 3) == 3


def test_single_edge_graph_has_trivial_group():
    g = complete_bipartite(1, 1)
    inv = sandpile_group(g)
    assert inv.factors == () and inv.order == 1
    assert spanning_tree_count(g) == 1
    assert p_rank(g, 2) == 0
    assert inv.is_cyclic


def test_star_graph_group_is_trivial():
    g = complete_bipartite(1, 4)
    assert sandpile_group(g).factors == ()
    assert spanning_tree_count(g) == 1


def test_disconnected_graph_group_and_trees():
    g = BipartiteGraph(2, 2, np.array([[1, 0], [0, 1]]))
    inv = sandpile_group(g)
    assert inv.factors == ()
    with pytest.raises(DisconnectedError):
        spanning_tree_count(g)


def test_guard_refuses_a_large_component_but_not_many_small_ones():
    guard = groups_mod.SNF_VERTEX_GUARD
    star = complete_bipartite(1, guard)  # one component of guard + 1 vertices
    start = time.perf_counter()
    with pytest.raises(GuardExceededError):
        sandpile_group(star)
    assert time.perf_counter() - start < 2.0
    # A component of exactly guard vertices is computed.
    assert sandpile_group(complete_bipartite(1, guard - 1)).factors == ()
    # More vertices than the guard in all, but every component is a K_{2,2}.
    k = guard // 4 + 1
    blocks = np.kron(np.eye(k, dtype=np.int64), np.ones((2, 2), dtype=np.int64))
    g = BipartiteGraph(2 * k, 2 * k, blocks)
    assert g.n_vertices > guard
    inv = sandpile_group(g)
    assert inv.factors == (4,) * k and inv.order == 4**k


def test_many_small_components_need_memory_per_component_not_per_graph():
    # 500 disjoint K_{2,2}, N = 2000: a dense N x N Laplacian alone would be
    # 32 MB, while each component needs only its own 3 x 3 reduced block.
    k = 500
    blocks = np.kron(np.eye(k, dtype=np.int64), np.ones((2, 2), dtype=np.int64))
    g = BipartiteGraph(2 * k, 2 * k, blocks)
    tracemalloc.start()
    try:
        inv = sandpile_group(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inv.factors == (4,) * k
    assert peak < 8 * 2**20


def test_disconnected_union_of_complete_graphs():
    # Block-diagonal biadjacency: one K_{2,2} component and one K_{2,3}.
    biadj = np.zeros((4, 5), dtype=np.int64)
    biadj[0:2, 0:2] = 1
    biadj[2:4, 2:5] = 1
    g = BipartiteGraph(4, 5, biadj)
    assert len(connected_components(g)) == 2
    inv = sandpile_group(g)
    # Group is Z4 x (Z2 x Z6) with invariant factor form (2, 2, 12).
    assert inv.factors == (2, 2, 12)
    assert inv.order == 48
    assert p_rank(g, 2) == 3
    assert p_rank(g, 3) == 1
    # Cross-check against the full-Laplacian Smith form: N - c trailing
    # invariant factors after dropping one zero per component.
    diag = smith_normal_form(laplacian(g))
    assert diag.count(0) == 2  # one zero row per component
    assert GroupInvariants.from_snf_diagonal(diag).factors == (2, 2, 12)


def test_sandpile_group_factor_chains_are_pinned_at_the_benchmark_windows():
    # sha256 of the chains of 30 graphs at (alpha, n) = (1/4, 80), (3/4, 60)
    # and (1/2, 60), q = 1/2: N = 90-105, where the Smith route eliminates
    # the left degrees in closed form.  Recorded before that elimination.
    chains = []
    for i in range(30):
        alpha, n = ((0.25, 80), (0.75, 60), (0.5, 60))[i % 3]
        g = sample_bipartite(GraphModelParams(n=n, alpha=alpha, q=0.5, seed=900 + i))
        chains.append(",".join(map(str, sandpile_group(g).factors)))
    assert hashlib.sha256(";".join(chains).encode()).hexdigest() == (
        "4a5af89e8669b0a6f0425e48fd18b9816021a2f2a13ee65a79d909e1a3095384"
    )


def test_sandpile_group_matches_the_plain_loop_on_seeded_graphs(monkeypatch):
    # The first modulus of each Smith route is gcd(m, c), with m = D / c from
    # the CRT; every loop run at another modulus is a rerun.  Modulo 1 the
    # chain is all ones and the loop is not run, but a rerun may follow.
    moduli, firsts = [], []
    loop, quotient = intmat._smith_diagonal, intmat._determinant_quotient

    def spy(a, modulus):
        if modulus:
            moduli.append((modulus, a.dtype, firsts[-1]))
        return loop(a, modulus)

    def quotient_spy(a, c, *rest):
        m = quotient(a, c, *rest)
        firsts.append(math.gcd(m, c))
        return m

    monkeypatch.setattr(intmat, "_smith_diagonal", spy)
    monkeypatch.setattr(intmat, "_determinant_quotient", quotient_spy)
    disconnected = reruns = 0
    for i in range(60):
        alpha = (0.25, 0.5, 1.0)[i % 3]
        q = (0.3, 0.5)[i // 3 % 2]
        # N = n + floor(alpha * n) runs from 5 up to ~200 at alpha = 1/4,
        # and stays lower where the plain loop is slow.
        n = 4 + i // 3 * {0.25: 8, 0.5: 4, 1.0: 3}[alpha]
        g = sample_bipartite(GraphModelParams(n=n, alpha=alpha, q=q, seed=700 + i))
        comps = connected_components(g)
        disconnected += len(comps) > 1
        plain = GroupInvariants.from_snf_diagonal(smith_normal_form(laplacian(g)))
        assert sandpile_group(g).factors == plain.factors, (i, n, alpha, q)
        # One right-hand side often gives c < s_N on alpha = 1/4 graphs, so
        # the first modulus gcd(m, c) may miss a factor of s_(N-1) and the
        # loop runs a second time.
        with monkeypatch.context() as m:
            m.setattr(intmat, "_RHS_COLUMNS", 1)
            before = len(moduli)
            assert sandpile_group(g).factors == plain.factors, (i, n, alpha, q)
            reruns += sum(modulus != first for modulus, _, first in moduli[before:])
    assert disconnected >= 5 and reruns >= 5
    assert 1 in firsts and all(modulus != 1 for modulus, _, _ in moduli)
    assert any(1 < modulus < 2**31 and dtype == np.int64 for modulus, dtype, _ in moduli)


def test_group_independent_of_dropped_vertex():
    graphs = [
        complete_bipartite(2, 3),
        complete_bipartite(3, 2),
        BipartiteGraph(3, 3, np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]])),
    ]
    for g in graphs:
        base = None
        for drop in range(g.n_vertices):
            diag = smith_normal_form(reduced_laplacian(g, drop))
            inv = GroupInvariants.from_snf_diagonal(diag)
            if base is None:
                base = inv
            assert inv == base
        assert base == sandpile_group(g)


def test_every_input_dtype_gives_the_same_graph_and_invariants():
    # The graph stores bool whatever it is given.  A uint8 store would sum
    # to uint64, which promotes to float64 against int64 and breaks the
    # exact tree count.
    seed = 0
    while True:
        g = sample_bipartite(GraphModelParams(n=16, alpha=0.75, q=0.5, seed=seed))
        if len(connected_components(g)) == 1:
            break
        seed += 1
    bits = g.biadjacency
    inputs = [bits.astype(int).tolist(), bits] + [bits.astype(t) for t in (np.uint8, np.int64, np.uint64)]
    want = (g.n_edges, p_rank(g, 2), p_rank(g, 3), spanning_tree_count(g))
    assert all(type(v) is int for v in want)
    for entries in inputs:
        h = BipartiteGraph(g.n_left, g.n_right, entries)
        assert h.biadjacency.dtype == np.bool_
        assert h == g and hash(h) == hash(g)
        assert (h.n_edges, p_rank(h, 2), p_rank(h, 3), spanning_tree_count(h)) == want
        assert sandpile_group(h) == sandpile_group(g)


def test_p_rank_equals_factor_multiplicity_sweep():
    for seed in range(40):
        params = GraphModelParams(n=5, alpha=1.0, q=0.5, seed=seed)
        g = sample_bipartite(params)
        inv = sandpile_group(g)
        for p in (2, 3, 5):
            assert p_rank(g, p) == inv.p_multiplicity(p)


def test_p_rank_equals_factor_multiplicity_at_scale():
    # N = 150-250, where elimination runs for hundreds of steps.  At
    # alpha = 1/8 the 5- and 7-ranks are large too.
    totals = {3: 0, 5: 0, 7: 0}
    for i, (alpha, n) in enumerate(
        [(0.25, 120), (0.25, 200), (0.125, 140), (0.125, 210), (0.5, 100), (0.5, 160)]
    ):
        seed = 900 + i
        g = sample_bipartite(GraphModelParams(n=n, alpha=alpha, q=0.5, seed=seed))
        while len(connected_components(g)) != 1:
            seed += 1000
            g = sample_bipartite(GraphModelParams(n=n, alpha=alpha, q=0.5, seed=seed))
        assert 150 <= g.n_vertices <= 250
        inv = sandpile_group(g)
        for p in totals:
            rank = p_rank(g, p)
            assert rank == inv.p_multiplicity(p), (alpha, n, seed, p)
            totals[p] += rank
    assert min(totals.values()) >= 10


def test_p_rank_rejects_non_prime():
    # 2147483659, the first prime above 2**31, passes the primality test and
    # is refused by the matrix constructor.
    g = complete_bipartite(2, 3)
    for p, error, message in [
        (4, NotPrimeError, "p must be prime, got 4"),
        (1, NotPrimeError, "p must be prime, got 1"),
        (2147483659, NotPrimeError, "modulus must be < 2**31, got 2147483659"),
        (2**64, InvalidParamsError, f"primality is decided only below 2**64, got {2**64}"),
        (3.0, NotPrimeError, "modulus must be an int, got float"),
    ]:
        with pytest.raises(error) as info:
            p_rank(g, p)
        assert type(info.value) is error and str(info.value) == message, p
    assert p_rank(g, 2**31 - 1) == 0


def _block_shape(g: BipartiteGraph, p: int) -> tuple[int, int]:
    """(z, k): left vertices of degree 0 mod p, and the nullity of B_Z."""
    in_z = g.biadjacency.sum(axis=1) % p == 0
    rank = rank_mod_p(PrimeFieldMatrix(p, g.biadjacency[in_z])) if in_z.any() else 0
    return int(in_z.sum()), g.n_right - rank


def test_p_rank_matches_the_full_laplacian_corank_on_seeded_graphs():
    shapes = {"disconnected": 0, "z = 0": 0, "k > 1": 0, "p_rank > 0": 0}
    for seed in range(4):
        for p in (2, 3, 5, 7):
            for alpha in (0.125, 0.25, 1 / 3, 0.5, 1.0):
                for n in (12, 40, 90):
                    for q in (0.05, 0.2, 0.5):
                        g = sample_bipartite(GraphModelParams(n=n, alpha=alpha, q=q, seed=seed))
                        rank = p_rank(g, p)
                        assert rank == p_rank_by_corank(g, p), (seed, p, alpha, n, q)
                        z, k = _block_shape(g, p)
                        shapes["disconnected"] += len(connected_components(g)) > 1
                        shapes["z = 0"] += z == 0
                        shapes["k > 1"] += k > 1
                        shapes["p_rank > 0"] += rank > 0
    assert min(shapes.values()) >= 10, shapes


def test_p_rank_on_the_edge_cases_of_the_block_identity():
    iso = BipartiteGraph(4, 4, [[1, 1, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 0]])
    # graph, p, p_rank, z, k; every graph is small enough for the Smith form.
    cases = [
        (complete_bipartite(3, 2), 3, 1, 0, 2),  # z = 0: every left degree is 2
        (iso, 2, 1, 4, 2),  # isolated left and right vertices, 3 components
        (iso, 3, 0, 1, 4),
        (BipartiteGraph(2, 3, np.zeros((2, 3), dtype=np.int64)), 5, 0, 2, 3),
        (complete_bipartite(3, 3), 3, 3, 3, 2),
        (BipartiteGraph(3, 3, [[1, 1, 0], [1, 1, 1], [0, 0, 0]]), 2**31 - 1, 0, 1, 3),
    ]
    for g, p, want, z, k in cases:
        assert _block_shape(g, p) == (z, k), (g, p)
        assert p_rank(g, p) == p_rank_by_corank(g, p) == want, (g, p)
        assert sandpile_group(g).p_multiplicity(p) == want, (g, p)


def test_p_rank_matches_the_full_laplacian_corank_at_scale():
    # The prank experiment's size: N = 1250, where the block route ranks a
    # z x 250 block and the oracle the whole 1250 x 1250 Laplacian.
    g = sample_bipartite(GraphModelParams(n=1000, alpha=0.25, q=0.5, seed=1))
    for p in (2, 3):
        assert p_rank(g, p) == p_rank_by_corank(g, p) > 0, p
    for seed in range(4):
        g = sample_bipartite(GraphModelParams(n=60, alpha=1.0, q=0.5, seed=seed))
        assert p_rank(g, 2**31 - 1) == p_rank_by_corank(g, 2**31 - 1), seed


def test_sandpile_group_matches_minor_oracle_on_small_graphs():
    for seed in range(15):
        g = sample_bipartite(GraphModelParams(n=4, alpha=0.75, q=0.6, seed=seed))
        if len(connected_components(g)) != 1:
            continue
        red = reduced_laplacian(g, g.n_vertices - 1)
        assert sandpile_group(g).factors == invariant_factors_by_minors(red.entries.tolist())


def test_spanning_tree_count_matches_enumeration():
    for seed in range(12):
        g = sample_bipartite(GraphModelParams(n=3, alpha=1.0, q=0.7, seed=seed))
        if len(connected_components(g)) != 1:
            continue
        assert spanning_tree_count(g) == spanning_trees_by_enumeration(g)


def test_spanning_tree_count_matches_bareiss_on_the_whole_reduced_laplacian():
    checked = 0
    for i in range(210):
        alpha = (0.25, 0.5, 1.0)[i % 3]
        q = (0.2, 0.5, 0.8)[i // 3 % 3]
        # N = n + floor(alpha * n) grows to 115-120 in each alpha.
        n_max = {0.25: 96, 0.5: 80, 1.0: 60}[alpha]
        n = 4 + i // 3 * (n_max - 4) // 69
        g = sample_bipartite(GraphModelParams(n=n, alpha=alpha, q=q, seed=1300 + i))
        if len(connected_components(g)) != 1:
            continue
        checked += 1
        want = determinant(reduced_laplacian(g, g.n_vertices - 1))
        # Transposed, the left part is the smaller one and loses a vertex.
        flipped = BipartiteGraph(g.n_right, g.n_left, g.biadjacency.T)
        assert spanning_tree_count(g) == spanning_tree_count(flipped) == want, (i, n, alpha, q)
    assert checked >= 150


def test_spanning_tree_count_of_complete_bipartite_graphs():
    # Stars (a or b = 1) leave an empty block after the Schur step.
    for a in range(1, 7):
        for b in range(1, 7):
            assert spanning_tree_count(complete_bipartite(a, b)) == a ** (b - 1) * b ** (a - 1)
    # Counts of 440 to 770 bits: at least 17 CRT primes below 2**27 each.
    for a, b in ((30, 57), (57, 30), (64, 64)):
        want = a ** (b - 1) * b ** (a - 1)
        assert want.bit_length() > 16 * 27
        assert spanning_tree_count(complete_bipartite(a, b)) == want


def test_spanning_tree_count_rejects_non_positive_determinant(monkeypatch):
    # K_{2,3}: three degree-2 rows, so the count is 8 * det S.
    monkeypatch.setattr(groups_mod, "_det_mod_primes", lambda a, primes: np.zeros_like(primes))
    with pytest.raises(RuntimeError, match="determinant 0,"):
        spanning_tree_count(complete_bipartite(2, 3))
    monkeypatch.setattr(groups_mod, "_det_mod_primes", lambda a, primes: primes - 1)
    with pytest.raises(RuntimeError, match="determinant -8,"):
        spanning_tree_count(complete_bipartite(2, 3))


def test_sandpile_group_rejects_singular_component_block(monkeypatch):
    monkeypatch.setattr(groups_mod, "smith_form_by_largest_factor", lambda m: (1, 0))
    with pytest.raises(RuntimeError, match="singular"):
        sandpile_group(complete_bipartite(2, 3))
