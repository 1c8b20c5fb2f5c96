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
from .graphs import DistanceMatrix, Edge, Graph, bfs_distances, distance_dtype

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
    lm = tuple(int(v) for v in landmarks)
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
    """BFS distance rows, one per landmark, as a ``(k, n)`` array of type
    :func:`~silires.graphs.distance_dtype`."""
    rows = [bfs_distances(g, s) for s in landmarks]
    dtype = distance_dtype(g.vertex_count)
    return np.array(rows, dtype=dtype).reshape(len(landmarks), g.vertex_count)


def _matrix_rows(g: Graph, dist: DistanceMatrix, lm: tuple[int, ...]) -> np.ndarray:
    """The landmark rows sliced from ``dist``, which must be ``g``'s matrix
    (only its size can be checked here)."""
    if dist.d.shape != (g.vertex_count, g.vertex_count):
        raise GraphInputError(
            f"distance matrix of shape {dist.d.shape} given for a graph of "
            f"{g.vertex_count} vertices"
        )
    return dist.d[list(lm)]


def edge_rows(g: Graph, rows: np.ndarray) -> np.ndarray:
    """Edge distances from the vertex distance ``rows`` (one row per source,
    one column per vertex of ``g``): ``min(d(u, .), d(v, .))`` for every
    canonical edge (u, v), as a ``(len(rows), m)`` array of the same dtype,
    one column per edge (``m`` may be 0)."""
    eu = np.fromiter((e[0] for e in g.edges), dtype=np.intp, count=g.edge_count)
    ev = np.fromiter((e[1] for e in g.edges), dtype=np.intp, count=g.edge_count)
    return np.minimum(rows[:, eu], rows[:, ev])


def _edge_codes(g: Graph, rows: np.ndarray) -> np.ndarray:
    return edge_rows(g, rows).T.copy()


def edge_code_table(g: Graph, landmarks: Sequence[int]) -> np.ndarray:
    """Codes of every canonical edge, one row per edge: ``(m, k)``."""
    return _edge_codes(g, landmark_rows(g, landmarks))


def vertex_code_table(g: Graph, landmarks: Sequence[int]) -> np.ndarray:
    """Codes of every vertex, one row per vertex: ``(n, k)``."""
    return landmark_rows(g, landmarks).T.copy()


def first_duplicate_rows(table: np.ndarray) -> Optional[tuple[int, int]]:
    """Indices of the lexicographically first pair of equal rows, if any.

    Rows are compared as packed byte strings; duplicates are located with a
    sort, and among all colliding groups the pair minimizing (i, j) wins.
    """
    count = table.shape[0]
    if count < 2:
        return None
    packed = np.ascontiguousarray(table).tobytes()
    width = table.shape[1] * table.itemsize
    keyed = sorted((packed[i * width : (i + 1) * width], i) for i in range(count))
    best: Optional[tuple[int, int]] = None
    run_start = 0
    for pos in range(1, count + 1):
        if pos == count or keyed[pos][0] != keyed[run_start][0]:
            if pos - run_start >= 2:
                members = sorted(idx for _, idx in keyed[run_start:pos])
                pair = (members[0], members[1])
                if best is None or pair < best:
                    best = pair
            run_start = pos
    return best


def is_edge_resolving(
    g: Graph, landmarks: Sequence[int], *, dist: Optional[DistanceMatrix] = None
) -> VerificationResult:
    """Check whether ``landmarks`` distinguishes every pair of edges.

    On failure the witness is the lexicographically first colliding pair of
    canonical edges.  An empty landmark set fails on any graph with two or
    more edges, with the first two edges as witness.  ``dist``, the
    all-pairs matrix of ``g``, replaces the BFS from each landmark; a
    matrix of another size raises :class:`~silires.errors.GraphInputError`.
    """
    lm = validate_landmarks(g, landmarks)
    if g.edge_count <= 1:
        return VerificationResult(resolving=True, witness=None)
    if not lm:
        return VerificationResult(resolving=False, witness=(g.edges[0], g.edges[1]))
    if dist is None:
        table = edge_code_table(g, lm)
    else:
        table = _edge_codes(g, _matrix_rows(g, dist, lm))
    dup = first_duplicate_rows(table)
    if dup is None:
        return VerificationResult(resolving=True, witness=None)
    i, j = dup
    return VerificationResult(resolving=False, witness=(g.edges[i], g.edges[j]))


def is_vertex_resolving(
    g: Graph, landmarks: Sequence[int], *, dist: Optional[DistanceMatrix] = None
) -> VerificationResult:
    """Check whether ``landmarks`` distinguishes every pair of vertices;
    ``dist`` as for :func:`is_edge_resolving`."""
    lm = validate_landmarks(g, landmarks)
    if g.vertex_count <= 1:
        return VerificationResult(resolving=True, witness=None)
    if not lm:
        return VerificationResult(resolving=False, witness=(0, 1))
    if dist is None:
        table = vertex_code_table(g, lm)
    else:
        table = _matrix_rows(g, dist, lm).T.copy()
    dup = first_duplicate_rows(table)
    if dup is None:
        return VerificationResult(resolving=True, witness=None)
    return VerificationResult(resolving=False, witness=dup)
