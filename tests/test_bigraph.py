"""Tests for random bipartite graph sampling and Laplacians."""

from __future__ import annotations

import hashlib
import json
import tracemalloc
from fractions import Fraction
from itertools import chain
from math import isqrt

import numpy as np
import pytest

from oracles import components_by_bfs, components_by_csr
from sandpiles import bigraph
from sandpiles import (
    BipartiteGraph,
    GraphModelParams,
    InvalidParamsError,
    InvalidShapeError,
    SplitMix64,
    build_M,
    component_labels,
    connected_components,
    floor_ratio,
    graph_from_json,
    graph_to_json,
    laplacian,
    laplacian_mod_p,
    load_graph,
    reduced_laplacian,
    sample_bipartite,
    sample_bipartite_from_stream,
    save_graph,
)


def test_floor_ratio_uses_exact_arithmetic():
    assert floor_ratio(0.5, 5) == 2
    assert floor_ratio(Fraction(1, 3), 9) == 3
    assert floor_ratio(Fraction(2, 3), 10) == 6
    assert floor_ratio(1.0, 7) == 7
    assert floor_ratio(0.3, 5) == 1
    # Binary64 0.7 stores as slightly less than 7/10, so its exact floor at
    # n=10 is 6 while the Fraction version gives 7.  Both are well defined and
    # reproducible; callers who need the rational answer pass a Fraction.
    assert floor_ratio(Fraction(7, 10), 10) == 7
    assert floor_ratio(0.7, 10) == 6


def test_params_validation():
    p = GraphModelParams(n=10, alpha=0.5, q=0.25, seed=7)
    assert p.n_right == 5
    with pytest.raises(InvalidParamsError):
        GraphModelParams(n=0, alpha=0.5, q=0.5, seed=0)
    with pytest.raises(InvalidParamsError):
        GraphModelParams(n=10, alpha=0.0, q=0.5, seed=0)
    with pytest.raises(InvalidParamsError):
        GraphModelParams(n=10, alpha=1.5, q=0.5, seed=0)
    with pytest.raises(InvalidParamsError):
        GraphModelParams(n=10, alpha=0.5, q=0.0, seed=0)
    with pytest.raises(InvalidParamsError):
        GraphModelParams(n=10, alpha=0.5, q=1.0, seed=0)
    with pytest.raises(InvalidParamsError):
        GraphModelParams(n=10, alpha=0.5, q=0.5, seed=-1)
    with pytest.raises(InvalidParamsError):
        GraphModelParams(n=10, alpha=0.5, q=0.5, seed=2**64)
    # floor(alpha * n) must leave at least one right vertex.
    with pytest.raises(InvalidParamsError):
        GraphModelParams(n=3, alpha=0.25, q=0.5, seed=0)


def test_graph_validation_and_immutability():
    g = BipartiteGraph(2, 2, np.array([[1, 0], [0, 1]]))
    assert (g.n_left, g.n_right, g.n_vertices, g.n_edges) == (2, 2, 4, 2)
    with pytest.raises(ValueError):
        BipartiteGraph(2, 2, np.array([[2, 0], [0, 1]]))
    with pytest.raises(ValueError):
        BipartiteGraph(2, 2, np.array([[1, 0]]))
    with pytest.raises(ValueError):
        BipartiteGraph(0, 1, np.zeros((0, 1), dtype=np.int64))
    with pytest.raises(ValueError):
        g.biadjacency[0, 0] = 0


def test_graph_refuses_non_integer_and_out_of_range_entries():
    for bad in ([[0.5, 1.7]], [[0.0, 1.0]], [["0", "1"]]):
        with pytest.raises(InvalidShapeError, match="must be integers"):
            BipartiteGraph(1, 2, bad)
    for bad in ([[2, 0]], [[-1, 1]], np.array([[2**64 - 1, 1]], dtype=np.uint64)):
        with pytest.raises(InvalidShapeError, match="must be 0 or 1"):
            BipartiteGraph(1, 2, bad)
    g = BipartiteGraph(1, 2, np.array([[True, False]]))
    assert g.biadjacency.dtype == np.bool_ and g.biadjacency.tolist() == [[True, False]]
    assert BipartiteGraph(1, 2, np.array([[0, 1]], dtype=np.uint8)).n_edges == 1


def test_graph_equality_and_hash():
    a = BipartiteGraph(1, 2, [[1, 0]])
    b = BipartiteGraph(1, 2, [[1, 0]])
    assert a == b and hash(a) == hash(b)
    assert a != BipartiteGraph(1, 2, [[0, 1]])
    assert a != "not a graph"


def test_edges_row_major_order():
    g = BipartiteGraph(2, 3, np.array([[0, 1, 1], [1, 0, 0]]))
    assert g.edges() == [(0, 1), (0, 2), (1, 0)]


def test_sampling_is_deterministic_and_seed_sensitive():
    params = GraphModelParams(n=12, alpha=0.5, q=0.4, seed=31)
    a = sample_bipartite(params)
    b = sample_bipartite(params)
    assert a == b
    c = sample_bipartite(GraphModelParams(n=12, alpha=0.5, q=0.4, seed=32))
    assert a != c


def test_sampled_graphs_are_pinned():
    # sha256 of the biadjacency as int64 bytes; a change to the edge draw,
    # its threshold or the stream layout changes these.
    cases = {
        (40, 0.5, 0.5, 1): "a1e8bbf80472fbfeb4ce48c78e7a8312a832c6752743f63941bb6480cd59c566",
        (37, 0.75, 0.3, 2): "24b7dc7d8ecdc2106dfd5e8b75e26c0bef22ad178b21de2b6212ce050ef7bb35",
        (200, 0.25, 0.02, 3): "3b9e8c989a4fb4575e903cf4f8f2f2ecad4fb743386a9264e0d3d1f2cb66bbbf",
        (13, Fraction(1, 3), 0.3, 2**64 - 1): "185c46449a09d8fb23ed2d69663b20fa0fcf43c8efc8645febb30b1ba2172820",
    }
    for (n, alpha, q, seed), want in cases.items():
        g = sample_bipartite(GraphModelParams(n=n, alpha=alpha, q=q, seed=seed))
        assert g.biadjacency.dtype == np.bool_
        got = hashlib.sha256(g.biadjacency.astype(np.int64).tobytes()).hexdigest()
        assert got == want, (n, alpha, q, seed)
    # build_M draws its diagonal from the same stream after the edges.
    m = build_M(30, 0.5, 0.3, 3, 11).matrix.entries
    assert m.shape == (48, 48)
    assert hashlib.sha256(m.tobytes()).hexdigest() == (
        "185640fddb3bf1234636806f0bfa4f1e977bb116afa0871f753090638a8485f1"
    )


def test_sampling_from_stream_matches_seeded_sampling():
    params = GraphModelParams(n=9, alpha=Fraction(2, 3), q=0.5, seed=77)
    direct = sample_bipartite(params)
    via_stream = sample_bipartite_from_stream(params, SplitMix64(77))
    assert direct == via_stream
    assert direct.n_right == 6


def test_block_draw_equals_the_one_shot_draw():
    # Sizes on each side of one block and past several; the stream must
    # end where one n*m draw leaves it, so build_M's diagonal draws that
    # follow keep their position.
    block = bigraph._DRAW_BLOCK
    for size in (1, block - 1, block, block + 1, 3 * block + 7):
        m = max(d for d in range(1, isqrt(size) + 1) if size % d == 0)
        params = GraphModelParams(n=size // m, alpha=Fraction(m, size // m), q=0.3, seed=size)
        assert (params.n, params.n_right) == (size // m, m)
        stream, one_shot = SplitMix64(size), SplitMix64(size)
        g = sample_bipartite_from_stream(params, stream)
        edges = one_shot.next_bernoulli_block(size, 0.3).reshape(params.n, m)
        assert g == BipartiteGraph(params.n, m, edges), size
        assert stream.next_u64() == one_shot.next_u64(), size


def test_sampling_peak_memory_is_two_bytes_per_entry():
    # The bool graph and its copy in the constructor; one n*m uint64 draw
    # would peak at 16 bytes per entry.
    params = GraphModelParams(n=2000, alpha=1.0, q=0.5, seed=1)
    sample_bipartite(params)
    tracemalloc.start()
    try:
        sample_bipartite(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * params.n * params.n_right, peak


def test_sampling_edge_frequency_near_q():
    total = 0
    for seed in range(400):
        g = sample_bipartite(GraphModelParams(n=20, alpha=0.5, q=0.5, seed=seed))
        total += g.n_edges
    mean = total / 400
    # 200 cells per graph; the standard error of the mean count is ~0.35.
    assert abs(mean - 100.0) < 2.0


def test_laplacian_shape_and_row_sums():
    g = sample_bipartite(GraphModelParams(n=8, alpha=0.75, q=0.5, seed=5))
    lap = laplacian(g)
    n = g.n_vertices
    assert (lap.rows, lap.cols) == (n, n)
    arr = lap.entries
    assert all(sum(arr[i, j] for j in range(n)) == 0 for i in range(n))
    assert all(arr[i, j] == arr[j, i] for i in range(n) for j in range(n))


def test_laplacian_hand_value():
    # Path b0 - a0 - b1 written as a 1 x 2 biadjacency of all ones.
    g = BipartiteGraph(1, 2, np.array([[1, 1]]))
    assert laplacian(g).entries.tolist() == [
        [2, -1, -1],
        [-1, 1, 0],
        [-1, 0, 1],
    ]


def test_laplacian_mod_p_matches_integer_laplacian():
    for seed in range(30):
        g = sample_bipartite(GraphModelParams(n=10, alpha=0.6, q=0.5, seed=seed))
        full = laplacian(g).entries
        for p in (2, 3, 5):
            fast = laplacian_mod_p(g, p)
            assert fast.p == p
            assert (full % p == fast.entries).all()


def test_reduced_laplacian_drops_one_vertex():
    g = BipartiteGraph(2, 2, np.ones((2, 2), dtype=np.int64))
    full = laplacian(g).entries.tolist()
    red = reduced_laplacian(g, 0)
    assert red.entries.tolist() == [row[1:] for row in full[1:]]
    last = reduced_laplacian(g, 3)
    assert last.entries.tolist() == [row[:3] for row in full[:3]]
    for drop in (4, -1):
        with pytest.raises(InvalidParamsError) as info:
            reduced_laplacian(g, drop)
        assert str(info.value) == f"drop index {drop} out of range for 4 vertices"


def test_connected_components_cases():
    complete = BipartiteGraph(2, 3, np.ones((2, 3), dtype=np.int64))
    assert connected_components(complete) == [{0, 1, 2, 3, 4}]
    two_blocks = BipartiteGraph(2, 2, np.array([[1, 0], [0, 1]]))
    assert connected_components(two_blocks) == [{0, 2}, {1, 3}]
    empty = BipartiteGraph(2, 2, np.zeros((2, 2), dtype=np.int64))
    assert connected_components(empty) == [{0}, {1}, {2}, {3}]
    # The last left vertex isolated: its CSR row is empty at the tail.
    last_left_alone = BipartiteGraph(3, 2, np.array([[1, 1], [0, 1], [0, 0]]))
    assert connected_components(last_left_alone) == [{0, 1, 3, 4}, {2}]
    # Isolated right vertices, the last one among them.
    right_alone = BipartiteGraph(2, 4, np.array([[0, 1, 0, 0], [0, 1, 0, 0]]))
    assert connected_components(right_alone) == [{0, 1, 3}, {2}, {4}, {5}]
    # One right vertex: every flat position maps to it.
    one_right = BipartiteGraph(4, 1, np.array([[1], [0], [1], [1]]))
    assert connected_components(one_right) == [{0, 2, 3, 4}, {1}]
    # A single edge, on the last right vertex.
    last_edge = np.zeros((3, 5), dtype=np.int64)
    last_edge[1, 4] = 1
    assert connected_components(BipartiteGraph(3, 5, last_edge)) == [
        {0}, {1, 7}, {2}, {3}, {4}, {5}, {6},
    ]


def _built_graphs():
    """Graphs built directly, with the shapes a contraction could get wrong."""
    rng = np.random.default_rng(30)
    # n_left < n_right, as ``group --edges`` allows, sparse to dense.
    for n_left, n_right in ((1, 9), (3, 40), (17, 60)):
        for q in (0.05, 0.3, 0.7):
            yield BipartiteGraph(n_left, n_right, rng.random((n_left, n_right)) < q)
    # Isolated vertices on both sides, the first and last of each among them.
    b = rng.random((12, 10)) < 0.3
    b[[0, 5, 11]] = False
    b[:, [0, 4, 9]] = False
    yield BipartiteGraph(12, 10, b)
    # Every left vertex shares one first neighbour.
    b = rng.random((20, 15)) < 0.2
    b[:, :6] = False
    b[:, 6] = True
    yield BipartiteGraph(20, 15, b)
    # Left vertices 0 and 1 have first neighbours 0 and 1, and only their
    # later neighbour 2 joins them: a first-neighbour skeleton splits them.
    yield BipartiteGraph(2, 3, np.array([[1, 0, 1], [0, 1, 1]]))
    # A chain 0 - 1 - ... - 7 through the right part, each left vertex
    # joining its first neighbour to the next right vertex, listed in
    # reverse so that later rows close the chain.
    links = np.zeros((7, 8), dtype=bool)
    for i in range(7):
        links[i, [6 - i, 7 - i]] = True
    yield BipartiteGraph(7, 8, links)


def test_connected_components_match_bfs_oracle():
    # Sparse q leaves isolated vertices and many components; q = 0.5 leaves
    # one.  Both the sets and their order must agree with the BFS, and the
    # labels with the sets.
    sampled = (
        sample_bipartite(GraphModelParams(n=40 + 7 * seed, alpha=alpha, q=q, seed=seed))
        for alpha in (0.125, 0.75, 1)
        for q in (0.02, 0.1, 0.5)
        for seed in range(8)
    )
    counts = set()
    for g in chain(sampled, _built_graphs()):
        comps = connected_components(g)
        assert comps == components_by_bfs(g)
        assert all(type(v) is int for comp in comps for v in comp)
        count, labels = component_labels(g)
        assert count == len(comps)
        classes = {frozenset(np.flatnonzero(labels == c).tolist()) for c in range(count)}
        assert classes == set(map(frozenset, comps))
        counts.add(len(comps))
    assert 1 in counts and max(counts) > 20
    # Large seeded graphs, against csgraph on the CSR of every edge: from
    # thousands of components at q = 0.0005 to one at q = 0.5.
    for n, alpha in ((1000, 1), (2000, 0.5), (4000, 0.25)):
        for q in (0.0005, 0.02, 0.5):
            g = sample_bipartite(GraphModelParams(n=n, alpha=alpha, q=q, seed=n))
            assert connected_components(g) == components_by_csr(g)


def test_json_round_trip():
    g = BipartiteGraph(2, 2, np.array([[0, 1], [1, 1]]))
    payload = graph_to_json(g)
    assert set(payload) == {"n_left", "n_right", "edges"}
    assert payload["edges"] == [[0, 1], [1, 0], [1, 1]]
    # The payload must survive actual JSON text serialization.
    back = graph_from_json(json.loads(json.dumps(payload)))
    assert back == g


def test_json_rejects_malformed_payloads():
    with pytest.raises(ValueError):
        graph_from_json({})
    with pytest.raises(ValueError):
        graph_from_json({"n_left": 2, "n_right": 2, "edges": [[0, 5]]})
    with pytest.raises(ValueError):
        graph_from_json({"n_left": 0, "n_right": 2, "edges": []})
    with pytest.raises(ValueError):
        graph_from_json({"n_left": 2, "n_right": 2, "edges": [[0]]})
    # Non-integers are refused rather than truncated by int().
    for bad in (
        {"n_left": 2.9, "n_right": "2", "edges": [[0.9, 1.5], [True, 0]]},
        {"n_left": 2.0, "n_right": 2, "edges": []},
        {"n_left": 2, "n_right": "2", "edges": []},
        {"n_left": True, "n_right": 2, "edges": []},
        {"n_left": 2, "n_right": 2, "edges": [[0.0, 1]]},
        {"n_left": 2, "n_right": 2, "edges": [[0, "1"]]},
        {"n_left": 2, "n_right": 2, "edges": [[True, 0]]},
        {"n_left": 2, "n_right": 2, "edges": 5},
    ):
        with pytest.raises(InvalidShapeError):
            graph_from_json(bad)


def test_json_edge_refusals_name_the_first_bad_edge():
    good = [[0, 0], [1, 2]]
    later_bad = [[0.5, 0], [9, 9], "x", [True, 1]]
    for bad, message in (
        ([True, 0], "edge endpoint must be an integer, got True"),
        ([0, 1.0], "edge endpoint must be an integer, got 1.0"),
        ([0, "1"], "edge endpoint must be an integer, got '1'"),
        ([0, 1, 1], "edge [0, 1, 1] is not a pair"),
        (5, "edge 5 is not a pair"),
        ([2, 0], "edge [2, 0] out of range"),
        ([0, -1], "edge [0, -1] out of range"),
        ([0, 2**70], f"edge [0, {2**70}] out of range"),
    ):
        for edges in ([bad], good + [bad], good + [bad] + later_bad):
            with pytest.raises(InvalidShapeError) as exc:
                graph_from_json({"n_left": 2, "n_right": 3, "edges": edges})
            assert str(exc.value) == message


def _nested_edge(depth: int):
    edge = 0
    for _ in range(depth):
        edge = [edge]
    return edge


@pytest.mark.parametrize("data", [
    {"n_left": 2, "n_right": 3, "edges": [_nested_edge(980)]},
    {"n_left": 2, "n_right": 3, "edges": "x" * 10**6},
    {"n_left": "1" * 10**6, "n_right": 3, "edges": []},
    {"n_left": 2, "n_right": 3, "edges": {str(i): i for i in range(10**5)}},
], ids=["edge-nested-980-deep", "edges-long-string", "n_left-long-digit-string", "edges-large-dict"])
def test_json_refusals_stay_short_for_huge_values(data):
    with pytest.raises(InvalidShapeError) as exc:
        graph_from_json(data)
    assert len(str(exc.value)) < 200


def test_json_edges_may_be_tuples_numpy_ints_or_repeated():
    want = [[1, 0, 0], [0, 0, 1]]
    for edges in (
        [[0, 0], [1, 2]],
        ((0, 0), (1, 2), [0, 0]),
        [[np.int64(0), 0], [1, np.int32(2)]],
    ):
        g = graph_from_json({"n_left": 2, "n_right": 3, "edges": edges})
        assert g.biadjacency.tolist() == want
    assert not graph_from_json({"n_left": 2, "n_right": 3, "edges": []}).biadjacency.any()


def test_file_round_trip(tmp_path):
    g = sample_bipartite(GraphModelParams(n=6, alpha=0.5, q=0.5, seed=17))
    path = tmp_path / "graph.json"
    save_graph(g, path)
    assert load_graph(path) == g
