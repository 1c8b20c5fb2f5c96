"""Immutable simple undirected graphs and hop-distance computation.

Vertex ids are dense integers starting at 0.  Every canonical artefact
(adjacency order, edge order) is fixed so that identical graphs produce
byte-identical output across runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DisconnectedGraphError, GraphInputError

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph in canonical form.

    ``adjacency[v]`` lists the neighbours of ``v`` in ascending order and
    ``edges`` holds each edge once as a ``(min, max)`` pair, sorted
    lexicographically.  Instances are immutable and safe to share between
    threads or processes.
    """

    vertex_count: int
    adjacency: tuple[tuple[int, ...], ...]
    edges: tuple[Edge, ...]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """All-pairs hop distances of a connected graph.

    ``d`` is a read-only ``n x n`` array of type :func:`distance_dtype`:
    int16 while every distance (at most ``n - 1``) fits, int32 beyond.
    """

    n: int
    d: np.ndarray

    def distance(self, u: int, v: int) -> int:
        return int(self.d[u, v])


def distance_dtype(vertex_count: int) -> type:
    """Smallest integer type holding every hop distance of a connected
    graph on ``vertex_count`` vertices: int16 up to 32768 vertices (largest
    distance 32767), int32 beyond."""
    return np.int16 if vertex_count <= 32768 else np.int32


def canonical_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def build_graph(vertex_count: int, edge_list: Iterable[Sequence[int]]) -> Graph:
    """Build a canonical :class:`Graph` from an edge list.

    Duplicate pairs (in either orientation) collapse to one edge.  Raises
    :class:`GraphInputError` for ids outside ``[0, vertex_count)`` or
    self-loops, naming the offending pair.
    """
    if vertex_count < 0:
        raise GraphInputError(f"vertex count must be non-negative, got {vertex_count}")
    seen: set[Edge] = set()
    for pair in edge_list:
        u, v = pair
        if u == v:
            raise GraphInputError(f"self-loop ({u}, {v}) is not allowed")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise GraphInputError(
                f"edge ({u}, {v}) uses an id outside [0, {vertex_count})"
            )
        seen.add(canonical_edge(u, v))
    edges = tuple(sorted(seen))
    neighbours: list[list[int]] = [[] for _ in range(vertex_count)]
    for u, v in edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    adjacency = tuple(tuple(sorted(ns)) for ns in neighbours)
    return Graph(vertex_count=vertex_count, adjacency=adjacency, edges=edges)


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Hop distances from ``source`` to every vertex.

    Raises :class:`DisconnectedGraphError` naming the first unreachable
    vertex; disconnected graphs are legal to build but not to measure.
    """
    if not (0 <= source < g.vertex_count):
        raise GraphInputError(f"source {source} outside [0, {g.vertex_count})")
    dist = [-1] * g.vertex_count
    dist[source] = 0
    queue = deque([source])
    adjacency = g.adjacency
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for w in adjacency[u]:
            if dist[w] < 0:
                dist[w] = du
                queue.append(w)
    for v, dv in enumerate(dist):
        if dv < 0:
            raise DisconnectedGraphError(
                f"vertex {v} is unreachable from {source}; graph is disconnected"
            )
    return dist


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """BFS from every vertex, stacked into a read-only ``(n, n)`` matrix
    (also for ``n = 0``) of type :func:`distance_dtype`."""
    n = g.vertex_count
    rows = [bfs_distances(g, s) for s in range(n)]
    d = np.array(rows, dtype=distance_dtype(n)).reshape(n, n)
    d.setflags(write=False)
    return DistanceMatrix(n=n, d=d)


def edge_vertex_distance(dist: DistanceMatrix, edge: Edge, u: int) -> int:
    """Distance from an edge to a vertex: the smaller endpoint distance."""
    a, b = edge
    return int(min(dist.d[a, u], dist.d[b, u]))


def is_connected(g: Graph) -> bool:
    if g.vertex_count == 0:
        return True
    try:
        bfs_distances(g, 0)
    except DisconnectedGraphError:
        return False
    return True
