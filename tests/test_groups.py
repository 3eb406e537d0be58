"""Tests for sandpile groups, p-ranks and spanning tree counts."""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest

from oracles import invariant_factors_by_minors, spanning_trees_by_enumeration
from sandpiles import (
    BipartiteGraph,
    DisconnectedError,
    GraphModelParams,
    GroupInvariants,
    GuardExceededError,
    IntegerMatrix,
    NotPrimeError,
    connected_components,
    is_cyclic,
    laplacian,
    p_rank,
    reduced_laplacian,
    sample_bipartite,
    sandpile_group,
    smith_normal_form,
    spanning_tree_count,
)
from sandpiles import groups as groups_mod


def complete_bipartite(a: int, b: int) -> BipartiteGraph:
    return BipartiteGraph(a, b, np.ones((a, b), dtype=np.int64))


def test_group_invariants_validation():
    g = GroupInvariants(factors=(2, 6), order=12)
    assert g.order == 12
    assert not g.is_cyclic
    with pytest.raises(ValueError):
        GroupInvariants(factors=(1, 6), order=6)
    with pytest.raises(ValueError):
        GroupInvariants(factors=(4, 6), order=24)  # 4 does not divide 6
    with pytest.raises(ValueError):
        GroupInvariants(factors=(2, 6), order=13)  # order must match
    with pytest.raises(ValueError):
        GroupInvariants(factors=(2,), order=2, free_rank=-1)


def test_group_invariants_from_snf_diagonal():
    g = GroupInvariants.from_snf_diagonal((1, 1, 2, 6, 0, 0))
    assert g.factors == (2, 6)
    assert g.free_rank == 2
    assert g.order == 12
    trivial = GroupInvariants.from_snf_diagonal((1, 1))
    assert trivial.factors == () and trivial.order == 1 and trivial.is_cyclic


def test_group_invariants_p_multiplicity():
    g = GroupInvariants(factors=(2, 4, 12), order=96)
    assert g.p_multiplicity(2) == 3
    assert g.p_multiplicity(3) == 1
    assert g.p_multiplicity(5) == 0


def test_group_invariants_json_uses_string_order():
    payload = GroupInvariants(factors=(2, 6), order=12).to_json()
    assert payload["factors"] == [2, 6]
    assert payload["order"] == "12"  # stringly typed: orders overflow JSON numbers


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
    assert not is_cyclic(g)


def test_complete_2_2_is_cyclic_of_order_four():
    g = complete_bipartite(2, 2)
    inv = sandpile_group(g)
    assert inv.factors == (4,)
    assert spanning_tree_count(g) == 4
    assert is_cyclic(g)


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
    assert inv.factors == () and inv.order == 1 and inv.free_rank == 0
    assert spanning_tree_count(g) == 1
    assert p_rank(g, 2) == 0
    assert is_cyclic(g)


def test_star_graph_group_is_trivial():
    g = complete_bipartite(1, 4)
    assert sandpile_group(g).factors == ()
    assert spanning_tree_count(g) == 1


def test_disconnected_graph_group_and_trees():
    g = BipartiteGraph(2, 2, np.array([[1, 0], [0, 1]]))
    inv = sandpile_group(g)
    assert inv.factors == ()
    assert inv.free_rank == 0
    with pytest.raises(DisconnectedError):
        spanning_tree_count(g)


def test_guard_refuses_a_large_component_but_not_many_small_ones():
    guard = groups_mod.SNF_VERTEX_GUARD
    star = complete_bipartite(1, guard)  # one component of guard + 1 vertices
    start = time.perf_counter()
    with pytest.raises(GuardExceededError):
        sandpile_group(star)
    with pytest.raises(GuardExceededError):
        is_cyclic(star)
    assert time.perf_counter() - start < 2.0
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
    via_full = GroupInvariants.from_snf_diagonal(diag)
    assert via_full.free_rank == 2  # one zero row per component
    assert tuple(f for f in via_full.factors) == (2, 2, 12)


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


def test_p_rank_equals_factor_multiplicity_sweep():
    for seed in range(40):
        params = GraphModelParams(n=5, alpha=1.0, q=0.5, seed=seed)
        g = sample_bipartite(params)
        inv = sandpile_group(g)
        for p in (2, 3, 5):
            assert p_rank(g, p) == inv.p_multiplicity(p)


def test_p_rank_rejects_non_prime():
    g = complete_bipartite(2, 2)
    with pytest.raises(NotPrimeError):
        p_rank(g, 4)
    with pytest.raises(NotPrimeError):
        p_rank(g, 1)


def test_sandpile_group_matches_minor_oracle_on_small_graphs():
    for seed in range(15):
        g = sample_bipartite(GraphModelParams(n=4, alpha=0.75, q=0.6, seed=seed))
        if len(connected_components(g)) != 1:
            continue
        red = reduced_laplacian(g, g.n_vertices - 1)
        assert sandpile_group(g).factors == invariant_factors_by_minors(red.to_lists())


def test_spanning_tree_count_matches_enumeration():
    for seed in range(12):
        g = sample_bipartite(GraphModelParams(n=3, alpha=1.0, q=0.7, seed=seed))
        if len(connected_components(g)) != 1:
            continue
        assert spanning_tree_count(g) == spanning_trees_by_enumeration(g)


def test_spanning_tree_count_rejects_non_positive_determinant(monkeypatch):
    monkeypatch.setattr(groups_mod, "determinant", lambda m: 0)
    with pytest.raises(RuntimeError, match="determinant 0"):
        spanning_tree_count(complete_bipartite(2, 3))


def test_sandpile_group_rejects_singular_component_block(monkeypatch):
    monkeypatch.setattr(groups_mod, "smith_normal_form", lambda m: (1, 0))
    with pytest.raises(RuntimeError, match="singular"):
        sandpile_group(complete_bipartite(2, 3))
