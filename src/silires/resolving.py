"""Distance codes and verification of vertex / edge resolving sets.

A landmark set is an ordered tuple of distinct vertex ids; the code of a
vertex (or edge) is its vector of distances to the landmarks in that order.
A set resolves the vertices (edges) when all codes are pairwise distinct.

Verification never builds the whole code table.  It gathers the codes a
bounded block of items at a time into one reused buffer, whose rows are the
codes' bytes padded with zeros to whole 64-bit words, and reduces each row
to one *fingerprint*: the sum of its words times fixed odd weights,
wrapping mod 2^64.  The sum is taken in integer arithmetic (a ``uint64``
sum of products), never in floating point, where a BLAS dot product may add
the terms of two equal rows in different orders and round them apart.
Addition mod 2^64 is exact in any order, so equal codes always get equal
fingerprints.  Hence if all fingerprints differ, the set resolves.
Otherwise only the items whose fingerprint another item shares are gathered
again, and the exact sort-based duplicate scan runs on them alone.  Every
pair of equal codes lies among them, so the scan finds the same
lexicographically first colliding pair as a scan of the whole table.  A
fingerprint collision of unequal codes therefore costs time, never
correctness: at worst every item collides (as with the empty set, or one
landmark on a long path) and the scan covers all of them, as a scan of the
whole table would.  The weights come from a fixed formula, so every run
takes the same path.

The exact solver does not call the check per candidate set: it checks
whole batches of sets with integer keys, and runs the check here once, on
its final witness.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import GraphInputError
from .graphs import (
    Edge,
    Graph,
    bfs_distances,
    distance_dtype,
    distance_rows,
    edge_ends,
    is_connected,
    vertex_ids,
)

Code = tuple[int, ...]

# Bytes of padded codes fingerprinted per block: bounds each buffer of the
# fingerprint pass to about this size, beside the landmark rows.
_CODE_BLOCK = 1 << 17

# Bytes of row differences per block of the test of given distance rows.
_ROW_BLOCK = 1 << 22


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of a resolving-set check.

    ``witness`` is ``None`` exactly when ``resolving`` is true; otherwise it
    is the lexicographically first pair of objects (vertices or canonical
    edges) sharing a code.
    """

    resolving: bool
    witness: Optional[tuple]


def validate_landmarks(g: Graph, landmarks: Sequence[int]) -> tuple[int, ...]:
    """``landmarks`` as a tuple of Python ints; raises
    :class:`~silires.errors.GraphInputError` for an id that is not an
    integer, a repeated id or an id outside the graph."""
    lm = tuple(vertex_ids(landmarks, "landmark"))
    if len(set(lm)) != len(lm):
        raise GraphInputError(f"landmark set {lm} contains duplicates")
    for v in lm:
        if not (0 <= v < g.vertex_count):
            raise GraphInputError(f"landmark {v} outside [0, {g.vertex_count})")
    return lm


def vertex_code(dist: np.ndarray, v: int, landmarks: Sequence[int]) -> Code:
    """Distances from vertex ``v`` to each landmark, in landmark order, read
    from the all-pairs matrix ``dist``."""
    return tuple(int(dist[v, u]) for u in landmarks)


def edge_code(dist: np.ndarray, edge: Edge, landmarks: Sequence[int]) -> Code:
    """Per-landmark minimum of the two endpoint distances of ``edge``, read
    from the all-pairs matrix ``dist``."""
    a, b = edge
    da = dist[a]
    db = dist[b]
    return tuple(int(min(da[u], db[u])) for u in landmarks)


def landmark_rows(g: Graph, landmarks: Sequence[int]) -> np.ndarray:
    """Distance rows, one per landmark, as a ``(k, n)`` array of type
    :func:`~silires.graphs.distance_dtype`."""
    return distance_rows(g, landmarks)


def _matrix_rows(g: Graph, dist: np.ndarray, lm: tuple[int, ...]) -> np.ndarray:
    """The landmark rows sliced from ``dist``, which must be ``g``'s matrix
    (of any numeric type), in the type :func:`landmark_rows` gives: one of
    another size raises :class:`~silires.errors.GraphInputError`, as does a
    landmark row :func:`_check_rows` rejects.  ``g`` is tested for
    connectivity first, as :func:`landmark_rows` would test it: a
    disconnected graph raises :class:`~silires.errors.DisconnectedGraphError`
    with the same message, whatever the matrix holds."""
    if dist.shape != (g.vertex_count, g.vertex_count):
        raise GraphInputError(
            f"distance matrix of shape {dist.shape} given for a graph of "
            f"{g.vertex_count} vertices"
        )
    if not is_connected(g):
        bfs_distances(g, lm[0] if lm else 0)  # raises, naming the first vertex it misses
    rows = dist.T.take(list(lm), axis=1).T  # laid out as distance_rows
    _check_rows(g, rows, lm)
    return rows.astype(distance_dtype(g.vertex_count), copy=False)


def _check_rows(g: Graph, rows: np.ndarray, lm: tuple[int, ...]) -> None:
    """Raises :class:`~silires.errors.GraphInputError`, naming the first
    landmark whose row is wrong, unless each of ``rows`` holds the hop
    distances from its landmark in the connected graph ``g``.

    A row r passes when its values are whole numbers in [0, n), it is 0 at
    its landmark, it changes by at most 1 along every edge, and it has at
    every other vertex a neighbour where it is one smaller.  Then r is the
    distance d from the landmark: being 0 there and changing by at most 1
    per edge give r <= d along a shortest path, and stepping to a neighbour
    one smaller lowers r each time, so from any vertex v the steps repeat
    no vertex and end at the landmark after r(v) steps, which gives
    d <= r.  Values in [0, n) fit
    :func:`~silires.graphs.distance_dtype`, and so do their differences, so
    the O(k m) test runs in that type, ``_ROW_BLOCK`` bytes of differences
    (one per arc and landmark) at a time."""
    n = g.vertex_count
    degree, _, head = g._arcs
    dtype = distance_dtype(n)
    starts = degree.cumsum() - degree
    by_vertex = rows.T
    block = max(1, _ROW_BLOCK // max(len(head) * np.dtype(dtype).itemsize, 1))
    for lo in range(0, len(lm), block):
        given = by_vertex[:, lo : lo + block]
        width = given.shape[1]
        with np.errstate(invalid="ignore"):  # a NaN cast to dtype
            r = given.astype(dtype)
            bad = ((given < 0) | (given >= n) | (r != given)).any(axis=0)
        # r at each arc's tail minus r at its head; each edge gives both
        # signs, so no step above 1 means none above 1 in size.
        step = np.repeat(r, degree, axis=0)
        step -= r.take(head, axis=0)
        # The flags of each vertex's arcs (arcs run by tail), OR-ed eight
        # landmarks to a word, the row padded to whole words.
        nearer = np.zeros((len(head), -(-width // 8) * 8), dtype=bool)
        np.equal(step, 1, out=nearer[:, :width])
        lower = np.zeros(r.shape, dtype=bool)  # a neighbour one smaller
        if len(head):  # every vertex has an arc (n >= 2, connected)
            words = np.bitwise_or.reduceat(nearer.view(np.uint64), starts, axis=0)
            lower[...] = words.view(bool)[:, :width]
        own = np.array(lm[lo : lo + block], dtype=np.intp), np.arange(width)
        lower[own] = r[own] == 0
        bad |= ~lower.all(axis=0) | (step > 1).any(axis=0)
        if bad.any():
            v = lm[lo + int(bad.argmax())]
            raise GraphInputError(
                f"row {v} of the distance matrix is not the hop distances "
                f"from vertex {v}"
            )


def edge_rows(g: Graph, rows: np.ndarray) -> np.ndarray:
    """Edge distances from the vertex distance ``rows`` (one row per source,
    one column per vertex of ``g``): ``min(d(u, .), d(v, .))`` for every
    canonical edge (u, v), as a ``(len(rows), m)`` array of the same dtype,
    one column per edge (``m`` may be 0)."""
    u, v = edge_ends(g)
    out = rows.take(u, axis=1)  # C-ordered, whatever the order of rows
    return np.minimum(out, rows.take(v, axis=1), out=out)


def _edge_gather(g: Graph):
    """``gather(rows, ids, out)``: writes the codes of the canonical edges
    ``ids`` (an index array or a slice of the edge order), gathered from the
    landmark ``rows``, into ``out``, one row per edge."""
    u, v = edge_ends(g)

    def gather(rows: np.ndarray, ids, out: np.ndarray) -> None:
        by_vertex = rows.T
        np.minimum(by_vertex.take(u[ids], axis=0), by_vertex.take(v[ids], axis=0), out=out)

    return gather


def _vertex_gather(rows: np.ndarray, ids, out: np.ndarray) -> None:
    """The ``gather`` of :func:`_edge_gather` for the vertices ``ids``."""
    out[...] = rows.T[ids]


def edge_code_table(g: Graph, landmarks: Sequence[int]) -> np.ndarray:
    """Codes of every canonical edge, one row per edge: ``(m, k)``."""
    rows = landmark_rows(g, landmarks)
    table = np.empty((g.edge_count, len(rows)), dtype=rows.dtype)
    _edge_gather(g)(rows, slice(None), table)
    return table


def vertex_code_table(g: Graph, landmarks: Sequence[int]) -> np.ndarray:
    """Codes of every vertex, one row per vertex: ``(n, k)``."""
    return landmark_rows(g, landmarks).T.copy()


def first_duplicate_rows(table: np.ndarray) -> Optional[tuple[int, int]]:
    """Indices of the lexicographically first pair of equal rows, if any.

    Rows are compared as packed byte strings.  The row ids are sorted by
    them with a stable sort, so each run of equal rows lists its ids in
    ascending order; the pair wanted is the first two ids of the run whose
    first id is smallest, which is also the least pair of neighbours in
    that order with equal rows.
    """
    count, width = table.shape
    if count < 2:
        return None
    if not width:  # every row is empty, so all are equal
        return (0, 1)
    packed = np.ascontiguousarray(table).view(np.dtype((np.void, width * table.itemsize)))
    keys = packed.ravel().tolist()
    order = sorted(range(count), key=keys.__getitem__)
    equal = ((i, j) for i, j in zip(order, order[1:]) if keys[i] == keys[j])
    return min(equal, default=None)


@functools.lru_cache(maxsize=64)
def _weights(count: int) -> np.ndarray:
    """``count`` odd 64-bit fingerprint weights, read-only: the splitmix64
    finaliser of 1, 2, ..., ``count``, with the low bit set."""
    z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(factor)
    z ^= z >> np.uint64(31)
    z |= np.uint64(1)
    z.setflags(write=False)
    return z


def _fingerprints(rows: np.ndarray, count: int, gather) -> np.ndarray:
    """The fingerprint (module docstring) of the code of each of ``count``
    items, gathered ``_CODE_BLOCK`` bytes of codes at a time (a block of
    one when there are no items)."""
    k = len(rows)
    words = -(-k * rows.itemsize // 8)
    block = max(1, min(count, _CODE_BLOCK // max(8 * words, 1)))
    packed = np.zeros((block, words), dtype=np.uint64)
    codes = packed.view(rows.dtype)[:, :k]  # the padding stays zero
    weights = _weights(words)
    out = np.empty(count, dtype=np.uint64)
    for lo in range(0, count, block):
        size = min(block, count - lo)
        gather(rows, slice(lo, lo + size), codes[:size])
        np.einsum("ij,j->i", packed[:size], weights, out=out[lo : lo + size])
    return out


def _shared(fingerprints: np.ndarray) -> np.ndarray:
    """The ids, ascending, of the items whose fingerprint another shares."""
    order = fingerprints.argsort()
    ranked = fingerprints[order]
    same = ranked[1:] == ranked[:-1]
    shared = np.zeros(len(order), dtype=bool)
    shared[order[1:][same]] = True
    shared[order[:-1][same]] = True
    return shared.nonzero()[0]


def _check(
    g: Graph, landmarks: Sequence[int], dist: Optional[np.ndarray], items, gather
) -> VerificationResult:
    """Whether ``landmarks`` gives the ``items`` (vertices or canonical
    edges, in order) pairwise distinct codes; ``gather(rows, ids, out)``
    writes the codes of the items ``ids``, as :func:`_edge_gather` does.

    Every landmark set takes this one path, whatever the item count: its
    rows are computed (so a disconnected graph raises
    :class:`~silires.errors.DisconnectedGraphError`) or sliced from
    ``dist`` (so a matrix of another size, or a wrong landmark row, raises
    :class:`~silires.errors.GraphInputError`).  Zero or one item then gets
    no shared fingerprint and resolves with no witness."""
    lm = validate_landmarks(g, landmarks)
    rows = landmark_rows(g, lm) if dist is None else _matrix_rows(g, dist, lm)
    ids = _shared(_fingerprints(rows, len(items), gather))
    if not len(ids):
        return VerificationResult(resolving=True, witness=None)
    table = np.empty((len(ids), len(lm)), dtype=rows.dtype)
    gather(rows, ids, table)
    dup = first_duplicate_rows(table)
    if dup is None:
        return VerificationResult(resolving=True, witness=None)
    i, j = ids[list(dup)].tolist()
    return VerificationResult(resolving=False, witness=(items[i], items[j]))


def is_edge_resolving(
    g: Graph, landmarks: Sequence[int], *, dist: Optional[np.ndarray] = None
) -> VerificationResult:
    """Check whether ``landmarks`` distinguishes every pair of edges.

    On failure the witness is the lexicographically first colliding pair of
    canonical edges.  An empty landmark set fails on any connected graph
    with two or more edges, with the first two edges as witness.  Every
    landmark set, the empty one included and whatever the edge count, is
    checked for connectivity: on a disconnected graph it raises
    :class:`~silires.errors.DisconnectedGraphError`.  ``dist``, the
    read-only array :func:`~silires.graphs.all_pairs_distances` returns for
    ``g``, replaces the distance rows from the landmarks.  A matrix of
    another size, or one whose landmark rows are not the hop distances from
    their landmarks, raises :class:`~silires.errors.GraphInputError`,
    whatever the edge count, and the graph is still tested for
    connectivity, so a hand-made matrix of a disconnected graph raises as
    the call without ``dist`` does.
    """
    return _check(g, landmarks, dist, g.edges, _edge_gather(g))


def is_vertex_resolving(
    g: Graph, landmarks: Sequence[int], *, dist: Optional[np.ndarray] = None
) -> VerificationResult:
    """Check whether ``landmarks`` distinguishes every pair of vertices;
    ``dist`` as for :func:`is_edge_resolving`."""
    return _check(g, landmarks, dist, range(g.vertex_count), _vertex_gather)
