"""The random bipartite graph model and its Laplacians.

A sample has left part L of size ``n``, right part R of size ``floor(alpha*n)``
and each of the |L|*|R| potential edges present independently with probability
``q``.  Vertices are numbered 0..|L|-1 on the left followed by |L|..N-1 on the
right, and all matrices in the package use that ordering.

Sampling is fully deterministic given the seed: the edge indicators are read
row-major from a single splitmix64 stream, one uniform draw per potential
edge, whether or not the edge appears.  An edge is present when its uniform
is below q, decided on the integer draw against an exact threshold
(:meth:`SplitMix64.next_bernoulli_block`), with no float array.  Two graphs
from equal parameters are therefore identical, and constructions that extend
a graph (extra diagonal draws, say) can share its stream position.

``floor(alpha*n)`` is computed through exact rational arithmetic on the
binary64 value of alpha, so e.g. alpha=0.3, n=10 gives the floor of the exact
product with the *stored* double 0.3 -- the same answer on every platform.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import floor

import numpy as np

from .errors import InvalidParamsError, InvalidShapeError
from .gfp import PrimeFieldMatrix
from .intmat import IntegerMatrix
from .rng import SplitMix64


# Edge indicators drawn per stream block.  The block's uint64 draws and
# their temporaries stay in cache, and no n*m uint64 array is made.  On a
# 2-core Xeon host (4 MiB L2), best of 3-30 calls: n = 1000, alpha = 1/4
# samples in 0.9-1.9 ms (2.9 ms as one n*m draw), n = 4000, alpha = 1 in
# 70 ms (340 ms), and the traced peak at n = 2000, alpha = 1 is 2 bytes
# per entry (16).  2**16 is as fast; 2**13 and 2**17 are 10-40% slower.
_DRAW_BLOCK = 2**15


def floor_ratio(alpha, n: int) -> int:
    """Exact floor(alpha * n) for float or Fraction alpha.

    ``Fraction(x)`` of a float is the exact binary64 value, so this never
    depends on rounding behaviour of a float multiply.
    """
    return floor(Fraction(alpha) * n)


@dataclass(frozen=True)
class GraphModelParams:
    """Parameters (n, alpha, q, seed) of one random bipartite graph."""

    n: int
    alpha: float
    q: float
    seed: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise InvalidParamsError(f"n must be an integer >= 1, got {self.n}")
        if not 0 < float(self.alpha) <= 1:
            raise InvalidParamsError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0 < float(self.q) < 1:
            raise InvalidParamsError(f"q must be in (0, 1), got {self.q}")
        if self.n_right < 1:
            raise InvalidParamsError(
                f"floor(alpha*n) = 0 for alpha={self.alpha}, n={self.n}; "
                "the right part would be empty"
            )
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise InvalidParamsError(f"seed must be an integer in [0, 2**64), got {self.seed}")

    @property
    def n_right(self) -> int:
        return floor_ratio(self.alpha, self.n)


class BipartiteGraph:
    """An explicit bipartite graph stored as a 0/1 biadjacency matrix.

    ``biadjacency[i, j]`` is True when left vertex ``i`` is joined to right
    vertex ``j``.  It is a read-only bool array: one byte per potential
    edge, and its sums are int64, where a uint8 sum would be uint64 and
    promote to float64 against an int64.  Integer input is checked to be 0
    or 1 first.  Instances are immutable; all graph operations are pure
    functions of this class.  The one derived value kept on an instance is
    its component labelling (:func:`component_labels`), so the callers
    that need components on one graph share one search.
    """

    __slots__ = ("n_left", "n_right", "biadjacency", "_components")

    def __init__(self, n_left: int, n_right: int, biadjacency) -> None:
        if n_left < 1 or n_right < 1:
            raise InvalidShapeError(
                f"both parts must be nonempty, got {n_left} and {n_right}"
            )
        raw = np.asarray(biadjacency)
        if raw.dtype.kind not in ("b", "i", "u"):
            raise InvalidShapeError(
                f"biadjacency entries must be integers, got dtype {raw.dtype}"
            )
        if raw.shape != (n_left, n_right):
            raise InvalidShapeError(
                f"biadjacency shape {raw.shape} does not match ({n_left}, {n_right})"
            )
        # Both parts are nonempty, so min and max exist.
        if raw.dtype.kind != "b" and (raw.min() < 0 or raw.max() > 1):
            raise InvalidShapeError("biadjacency entries must be 0 or 1")
        arr = raw.astype(bool)
        arr.flags.writeable = False
        object.__setattr__(self, "n_left", n_left)
        object.__setattr__(self, "n_right", n_right)
        object.__setattr__(self, "biadjacency", arr)
        object.__setattr__(self, "_components", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("BipartiteGraph is immutable")

    @property
    def n_vertices(self) -> int:
        return self.n_left + self.n_right

    @property
    def n_edges(self) -> int:
        return int(np.count_nonzero(self.biadjacency))

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (left index, right index), row-major order."""
        ii, jj = np.nonzero(self.biadjacency)
        return [(int(i), int(j)) for i, j in zip(ii, jj)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return (
            self.n_left == other.n_left
            and self.n_right == other.n_right
            and np.array_equal(self.biadjacency, other.biadjacency)
        )

    def __hash__(self):
        return hash((self.n_left, self.n_right, self.biadjacency.tobytes()))

    def __repr__(self) -> str:
        return (
            f"BipartiteGraph(n_left={self.n_left}, n_right={self.n_right}, "
            f"n_edges={self.n_edges})"
        )


def sample_bipartite(params: GraphModelParams) -> BipartiteGraph:
    """Draw one graph from the model; pure function of ``params``."""
    stream = SplitMix64(params.seed)
    return sample_bipartite_from_stream(params, stream)


def sample_bipartite_from_stream(
    params: GraphModelParams, stream: SplitMix64
) -> BipartiteGraph:
    """Like :func:`sample_bipartite` but consuming an existing stream.

    Exposed so constructions that need extra randomness *after* the edge draws
    can continue reading from the same stream position.
    """
    n_left, n_right = params.n, params.n_right
    edges = np.empty(n_left * n_right, dtype=bool)
    for start in range(0, edges.size, _DRAW_BLOCK):
        block = edges[start : start + _DRAW_BLOCK]
        block[...] = stream.next_bernoulli_block(block.size, params.q)
    return BipartiteGraph(n_left, n_right, edges.reshape(n_left, n_right))


def _degrees(g: BipartiteGraph) -> np.ndarray:
    return np.concatenate([g.biadjacency.sum(axis=1), g.biadjacency.sum(axis=0)])


def _laplacian_layout(g: BipartiteGraph, edge: int, diagonal: np.ndarray) -> np.ndarray:
    """N x N int64 Laplacian layout: ``edge`` at each edge, ``diagonal`` on the diagonal."""
    n = g.n_vertices
    full = np.zeros((n, n), dtype=np.int64)
    full[: g.n_left, g.n_left :] = edge * g.biadjacency
    full[g.n_left :, : g.n_left] = edge * g.biadjacency.T
    full[np.arange(n), np.arange(n)] = diagonal
    return full


def laplacian(g: BipartiteGraph) -> IntegerMatrix:
    """The graph Laplacian D - A on all N = n_left + n_right vertices.

    Row/column order is left vertices then right vertices.  The Laplacian is
    symmetric, has zero row sums, and is positive semidefinite with kernel
    dimension equal to the number of connected components.
    """
    return IntegerMatrix(_laplacian_layout(g, -1, _degrees(g)))


def laplacian_mod_p(g: BipartiteGraph, p: int) -> PrimeFieldMatrix:
    """The Laplacian reduced mod p, built without leaving int64.

    Same value as ``PrimeFieldMatrix(p, laplacian(g).entries)`` but cheap
    enough to call thousands of times in Monte Carlo loops.
    """
    return PrimeFieldMatrix(p, _laplacian_layout(g, p - 1, _degrees(g) % p))


def reduced_laplacian(g: BipartiteGraph, drop: int) -> IntegerMatrix:
    """The Laplacian with row and column ``drop`` removed.

    For a connected graph its determinant is the number of spanning trees
    (matrix-tree theorem) and its integer cokernel is the sandpile group --
    both independent of which vertex is dropped.
    """
    n = g.n_vertices
    if not 0 <= drop < n:
        raise InvalidParamsError(f"drop index {drop} out of range for {n} vertices")
    keep = [i for i in range(n) if i != drop]
    return IntegerMatrix(_laplacian_layout(g, -1, _degrees(g))[np.ix_(keep, keep)])


def component_labels(g: BipartiteGraph) -> tuple[int, np.ndarray]:
    """The number of connected components, and a component label per vertex.

    ``labels`` is a read-only array over all N vertices with values in
    ``range(count)``; two vertices share a label exactly when they lie in
    one component.  Which label a component gets is unspecified.  The
    search runs once per graph: the result is kept on ``g``, which cannot
    change.
    """
    if g._components is None:
        object.__setattr__(g, "_components", _search_components(g))
    return g._components


def _search_components(g: BipartiteGraph) -> tuple[int, np.ndarray]:
    # Slow to import, and ``predict`` and m-corank trials never get here.
    from scipy.sparse import csgraph, csr_matrix

    # Each left vertex is contracted onto its first right neighbour, which
    # leaves a graph on the m right vertices: right vertex j is joined to
    # every neighbour of each left vertex whose first neighbour is j.  That
    # is exact.  A left vertex joins its neighbours in the bipartite graph,
    # and its first neighbour joins them in the contracted one, so two
    # right vertices are connected in one graph exactly when they are in
    # the other, and a left vertex lies in its first neighbour's component.
    # At q = 1/2 only about log2(n) right vertices are first neighbours, so
    # csgraph sees a few thousand edges instead of n*m/2.  A stable sort
    # groups the left rows by first neighbour, and one reduceat ORs each
    # group's rows, packed into 64-bit words: on bytes, or on one bool per
    # entry, numpy's reduceat is several times slower.  Each OR is one CSR
    # row, read byte by byte so that only its nonzero bytes are unpacked.
    b = g.biadjacency
    n_left, n_right = g.n_left, g.n_right
    first = b.argmax(axis=1)
    linked = b[np.arange(n_left), first]
    rows = np.flatnonzero(linked)
    rows = rows[np.argsort(first[rows], kind="stable")]
    heads = first[rows]
    opens = np.ones(heads.size, dtype=bool)
    opens[1:] = heads[1:] != heads[:-1]
    starts = np.flatnonzero(opens)
    packed = np.packbits(b, axis=1)
    words = np.zeros((rows.size, -(-n_right // 64)), dtype=np.uint64)
    words.view(np.uint8)[:, : packed.shape[1]] = packed[rows]
    merged = np.bitwise_or.reduceat(words, starts, axis=0).view(np.uint8)
    group, byte = np.nonzero(merged)
    which, bit = np.nonzero(np.unpackbits(merged[group, byte][:, None], axis=1))
    # Index arrays are int32 whenever the entry count allows (it is at
    # most the biadjacency's size), as scipy would otherwise downcast them
    # in a copy.
    index = np.int32 if b.size < 2**31 else np.int64
    indices = (byte[which] * 8 + bit).astype(index)
    indptr = np.zeros(n_right + 1, dtype=index)
    indptr[heads[starts] + 1] = np.bincount(group[which], minlength=starts.size)
    np.cumsum(indptr, out=indptr)
    contracted = csr_matrix(
        (np.ones(indices.size), indices, indptr), shape=(n_right, n_right)
    )
    count, right = csgraph.connected_components(contracted, directed=False)
    # An isolated left vertex is a component of its own.
    alone = np.flatnonzero(~linked)
    labels = np.concatenate([right[first], right])
    labels[alone] = count + np.arange(alone.size)
    labels.flags.writeable = False
    return count + alone.size, labels


def connected_components(g: BipartiteGraph) -> list[set[int]]:
    """Vertex sets of the connected components, ordered by smallest vertex."""
    count, labels = component_labels(g)
    # A stable sort groups vertices by label and keeps each group ascending,
    # so the first entry of a group is its smallest vertex.
    by_label = np.argsort(labels, kind="stable")
    groups = np.split(by_label, np.cumsum(np.bincount(labels, minlength=count))[:-1])
    groups.sort(key=lambda members: members[0])
    return [set(members.tolist()) for members in groups]


def graph_to_json(g: BipartiteGraph) -> dict:
    """Plain-dict form: {"n_left": ..., "n_right": ..., "edges": [[i, j], ...]}."""
    return {
        "n_left": g.n_left,
        "n_right": g.n_right,
        "edges": [[i, j] for i, j in g.edges()],
    }


def _json_int(value, what: str) -> int:
    """``value`` as an int; bools, floats and strings are refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidShapeError(f"{what} must be an integer, got {reprlib.repr(value)}")
    return int(value)


def _edge_pairs(edges, n_left: int, n_right: int) -> np.ndarray | None:
    """The edges as a (k, 2) int64 array, if each is a pair of in-range ints.

    Each edge must be a list or tuple of two Python ints.  That is checked
    per distinct type and the ranges by array min and max, with no call per
    edge; anything else gives None.
    """
    if not set(map(type, edges)) <= {list, tuple} or not set(map(len, edges)) <= {2}:
        return None
    flat = list(chain.from_iterable(edges))
    if not set(map(type, flat)) <= {int}:
        return None
    try:
        pairs = np.array(flat, dtype=np.int64).reshape(len(edges), 2)
    except OverflowError:
        return None
    if pairs.size and (pairs.min() < 0 or (pairs.max(axis=0) >= (n_left, n_right)).any()):
        return None
    return pairs


def graph_from_json(data: dict) -> BipartiteGraph:
    """Inverse of :func:`graph_to_json`, with full validation."""
    try:
        n_left = _json_int(data["n_left"], "n_left")
        n_right = _json_int(data["n_right"], "n_right")
        edges = data["edges"]
    except (KeyError, TypeError) as exc:
        raise InvalidShapeError(f"malformed graph object: {exc}") from exc
    if n_left < 1 or n_right < 1:
        raise InvalidShapeError(
            f"both parts must be nonempty, got {n_left} and {n_right}"
        )
    if not isinstance(edges, (list, tuple)):
        raise InvalidShapeError(f"edges must be a list, got {reprlib.repr(edges)}")
    pairs = _edge_pairs(edges, n_left, n_right)
    if pairs is None:
        # Edge by edge, so the refusal names the first bad edge; numpy ints
        # and list subclasses pass.
        for e in edges:
            if not isinstance(e, (list, tuple)) or len(e) != 2:
                raise InvalidShapeError(f"edge {reprlib.repr(e)} is not a pair")
            i, j = _json_int(e[0], "edge endpoint"), _json_int(e[1], "edge endpoint")
            if not 0 <= i < n_left or not 0 <= j < n_right:
                raise InvalidShapeError(f"edge {reprlib.repr(e)} out of range")
        pairs = np.array(edges, dtype=np.int64).reshape(len(edges), 2)
    biadj = np.zeros((n_left, n_right), dtype=bool)
    biadj[pairs[:, 0], pairs[:, 1]] = True
    return BipartiteGraph(n_left, n_right, biadj)


def load_graph(path) -> BipartiteGraph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError as exc:
            raise InvalidShapeError(f"graph file {path} is nested too deeply to read") from exc
    return graph_from_json(data)


def save_graph(g: BipartiteGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(graph_to_json(g)) + "\n")
