"""Distance codes and verification of vertex / edge resolving sets.

A landmark set is an ordered tuple of distinct vertex ids; the code of a
vertex (or edge) is its vector of distances to the landmarks in that order.
A set resolves the vertices (edges) when all codes are pairwise distinct.

Verification packs each code into bytes and runs a sort-based duplicate
scan that also names the lexicographically first colliding pair.  The exact
solver does not call it per candidate set: it checks whole batches of sets
with integer keys, and runs the check here once, on its final witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import GraphInputError
from .graphs import DistanceMatrix, Edge, Graph, distance_rows, edge_ends, vertex_ids

Code = tuple[int, ...]


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


def vertex_code(dist: DistanceMatrix, v: int, landmarks: Sequence[int]) -> Code:
    """Distances from vertex ``v`` to each landmark, in landmark order."""
    return tuple(int(dist.d[v, u]) for u in landmarks)


def edge_code(dist: DistanceMatrix, edge: Edge, landmarks: Sequence[int]) -> Code:
    """Per-landmark minimum of the two endpoint distances of ``edge``."""
    a, b = edge
    da = dist.d[a]
    db = dist.d[b]
    return tuple(int(min(da[u], db[u])) for u in landmarks)


def landmark_rows(g: Graph, landmarks: Sequence[int]) -> np.ndarray:
    """Distance rows, one per landmark, as a ``(k, n)`` array of type
    :func:`~silires.graphs.distance_dtype`."""
    return distance_rows(g, landmarks)


def _matrix_rows(g: Graph, dist: DistanceMatrix, lm: tuple[int, ...]) -> np.ndarray:
    """The landmark rows sliced from ``dist``, which must be ``g``'s matrix
    (only its size can be checked here)."""
    if dist.d.shape != (g.vertex_count, g.vertex_count):
        raise GraphInputError(
            f"distance matrix of shape {dist.d.shape} given for a graph of "
            f"{g.vertex_count} vertices"
        )
    return dist.d.T.take(list(lm), axis=1).T  # laid out as distance_rows


def edge_rows(g: Graph, rows: np.ndarray) -> np.ndarray:
    """Edge distances from the vertex distance ``rows`` (one row per source,
    one column per vertex of ``g``): ``min(d(u, .), d(v, .))`` for every
    canonical edge (u, v), as a ``(len(rows), m)`` array of the same dtype,
    one column per edge (``m`` may be 0)."""
    u, v = edge_ends(g)
    out = rows.take(u, axis=1)  # C-ordered, whatever the order of rows
    return np.minimum(out, rows.take(v, axis=1), out=out)


def _edge_codes(g: Graph, rows: np.ndarray) -> np.ndarray:
    """The codes of :func:`edge_rows` one row per edge: ``(m, len(rows))``,
    gathered from the rows of ``rows.T``."""
    u, v = edge_ends(g)
    by_vertex = rows.T
    out = by_vertex[u]
    return np.minimum(out, by_vertex[v], out=out)


def edge_code_table(g: Graph, landmarks: Sequence[int]) -> np.ndarray:
    """Codes of every canonical edge, one row per edge: ``(m, k)``."""
    return _edge_codes(g, landmark_rows(g, landmarks))


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


def _check(
    g: Graph, landmarks: Sequence[int], dist: Optional[DistanceMatrix], items, codes
) -> VerificationResult:
    """Whether ``landmarks`` gives the ``items`` (vertices or canonical
    edges, in order) pairwise distinct codes; ``codes`` turns the landmark
    rows into the code table, one row per item."""
    lm = validate_landmarks(g, landmarks)
    if len(items) <= 1:
        return VerificationResult(resolving=True, witness=None)
    rows = landmark_rows(g, lm) if dist is None else _matrix_rows(g, dist, lm)
    dup = first_duplicate_rows(codes(rows))
    if dup is None:
        return VerificationResult(resolving=True, witness=None)
    i, j = dup
    return VerificationResult(resolving=False, witness=(items[i], items[j]))


def is_edge_resolving(
    g: Graph, landmarks: Sequence[int], *, dist: Optional[DistanceMatrix] = None
) -> VerificationResult:
    """Check whether ``landmarks`` distinguishes every pair of edges.

    On failure the witness is the lexicographically first colliding pair of
    canonical edges.  An empty landmark set fails on any connected graph
    with two or more edges, with the first two edges as witness; on a
    disconnected graph it raises
    :class:`~silires.errors.DisconnectedGraphError` like any other set.
    ``dist``, the
    all-pairs matrix of ``g``, replaces the BFS from each landmark; a
    matrix of another size raises :class:`~silires.errors.GraphInputError`.
    """
    return _check(g, landmarks, dist, g.edges, lambda rows: _edge_codes(g, rows))


def is_vertex_resolving(
    g: Graph, landmarks: Sequence[int], *, dist: Optional[DistanceMatrix] = None
) -> VerificationResult:
    """Check whether ``landmarks`` distinguishes every pair of vertices;
    ``dist`` as for :func:`is_edge_resolving`."""
    return _check(g, landmarks, dist, range(g.vertex_count), np.transpose)
