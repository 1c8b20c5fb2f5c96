"""Immutable simple undirected graphs and hop-distance computation.

Vertex ids are dense integers starting at 0.  Every canonical artefact
(adjacency order, edge order) is fixed so that identical graphs produce
byte-identical output across runs.

Distance rows come from the *core*: the vertices that are not simplicial.
A vertex p is simplicial when its closed neighbourhood N[p] is a clique; in
a silicate network these are the cubic tetrahedron corners, and the core
is the set of hinges.  In a connected graph:

* No simplicial p is interior to a shortest path: its two path neighbours
  would be adjacent, and skipping p would shorten the path.  So a shortest
  path between core vertices stays in the core, and core distances are
  those of the core subgraph.
* For simplicial x and y outside N[x], d(x, y) = 1 + min d(u, y) over the
  core neighbours u of x: a shortest path from x leaves through some u in
  N(x), and u is in the core, since its next vertex lies outside N[x] and
  is adjacent to u but not to x.
* If every vertex is simplicial the graph is complete: a shortest path of
  length two would have a simplicial middle.  Otherwise every simplicial
  vertex x has a core neighbour: a core vertex is adjacent to x, or a
  shortest path to it leaves x through the core, as in the second fact.

Inside the core, a BFS is needed only where the core branches.  Call a
core vertex a *branch* vertex when its core degree is not 2, or, if every
core vertex has core degree 2, take one core vertex as the only branch
vertex: a connected graph whose degrees are all 2 is a cycle, and a cycle
cut at one vertex is a path.  Every other core vertex x then sits at some
position i on a *thread* a = p_0, ..., p_L = b: a walk between branch
vertices whose interior vertices p_1, ..., p_{L-1} all have core degree 2
(a = b and parallel threads are allowed).  Walking from x both ways over
vertices of degree 2 reaches a branch vertex each way, since the core is
connected and only a cycle with no branch vertex would lead back to x.

* Thread lemma: for every core vertex y, d(x, y) = min(i + d(a, y),
  L - i + d(b, y)), with |i - j| joining the min when y = p_j is interior
  to the same thread.  Each term is the length of a walk from x to y.
  Conversely, a shortest path from x either stays on the thread's
  interior, and then has length |i - j|, or it leaves the interior.  An
  interior vertex has no neighbours besides its two thread neighbours, so
  the path leaves through a, after exactly i steps, or through b, after
  exactly L - i steps, and continues by a shortest path to y.

:func:`distance_rows` therefore runs a BFS inside the core, only from the
branch vertices some source needs and from the two ends of each thread
holding a needed vertex; the rows of the thread vertices follow from the
lemma.  The columns of simplicial vertices and the rows of simplicial
sources are ``1 + min`` over core neighbours, and each row is then set to
1 at its source's neighbours and 0 at the source.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
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


def _bfs(adjacency: Sequence[Sequence[int]], source: int) -> list[int]:
    """Hop distances from ``source`` over ``adjacency``; -1 where unreachable."""
    dist = [-1] * len(adjacency)
    dist[source] = 0
    order = [source]
    for u in order:  # the queue: vertices in the order they were reached
        du = dist[u] + 1
        for w in adjacency[u]:
            if dist[w] < 0:
                dist[w] = du
                order.append(w)
    return dist


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Hop distances from ``source`` to every vertex.

    Raises :class:`DisconnectedGraphError` naming the first unreachable
    vertex; disconnected graphs are legal to build but not to measure.
    """
    if not (0 <= source < g.vertex_count):
        raise GraphInputError(f"source {source} outside [0, {g.vertex_count})")
    dist = _bfs(g.adjacency, source)
    for v, dv in enumerate(dist):
        if dv < 0:
            raise DisconnectedGraphError(
                f"vertex {v} is unreachable from {source}; graph is disconnected"
            )
    return dist


def simplicial_vertices(g: Graph) -> int:
    """Bitmask of the vertices whose closed neighbourhood is a clique."""
    closed = [sum(1 << w for w in ns) | 1 << v for v, ns in enumerate(g.adjacency)]
    return sum(
        1 << v
        for v, c in enumerate(closed)
        if all(closed[w] & c == c for w in g.adjacency[v])
    )


def _min_rows(table: np.ndarray, groups: Sequence[Sequence[int]]) -> np.ndarray:
    """Row i is the elementwise minimum of the rows ``groups[i]`` (none
    empty) of ``table``: one ``np.minimum`` per position within a group."""
    sizes = np.array([len(grp) for grp in groups], dtype=np.intp)
    flat = np.fromiter(chain.from_iterable(groups), dtype=np.intp, count=sizes.sum())
    starts = np.cumsum(sizes) - sizes
    out = table[flat[starts]]
    for j in range(1, int(sizes.max())):
        longer = np.flatnonzero(sizes > j)
        out[longer] = np.minimum(out[longer], table[flat[starts[longer] + j]])
    return out


def _core_rows(
    adjacency: Sequence[Sequence[int]], targets: Sequence[int], dtype: type
) -> np.ndarray:
    """Rows of hop distances from each of ``targets`` over a connected
    graph, as a ``(len(targets), c)`` array of ``dtype``, from a BFS at the
    needed branch vertices and thread ends only (the thread lemma in the
    module docstring)."""
    c = len(adjacency)
    branch = [v for v in range(c) if len(adjacency[v]) != 2] or [0]
    # Every vertex lies on one segment: each branch vertex on its own
    # (a = b, i = L = 0), each other vertex on its thread's interior.
    segment = [-1] * c
    position = [0] * c
    ends = [(a, a, 0) for a in branch]
    for s, a in enumerate(branch):
        segment[a] = s
    for a in branch:
        for w in adjacency[a]:
            prev, cur, i = a, w, 0
            while segment[cur] < 0:
                i += 1
                segment[cur], position[cur] = len(ends), i
                x, y = adjacency[cur]
                prev, cur = cur, y if x == prev else x
            if i:
                ends.append((a, cur, i + 1))
    # i + d(a, y) reaches 2(c - 1), past the range of distance_dtype(c).
    wide = distance_dtype(2 * c)
    rank: dict[int, int] = {}  # BFS root -> its row of reach
    per_target = []  # rows of a and b, offsets i and L - i, segment
    for x in targets:
        a, b, length = ends[segment[x]]
        ra = rank.setdefault(a, len(rank))
        rb = rank.setdefault(b, len(rank))
        i = position[x]
        per_target.append((ra, rb, i, length - i, segment[x]))
    reach = np.array([_bfs(adjacency, r) for r in rank], dtype=wide)
    t = np.array(per_target, dtype=wide).T
    near = reach[t[:2]]  # d(a, y) and d(b, y)
    near += t[2:4, :, None]  # i + d(a, y) and L - i + d(b, y)
    out = np.minimum(near[0], near[1], out=near[0])
    along = np.array((segment, position), dtype=wide)
    same = t[4, :, None] == along[0]  # y = p_j on x's own segment
    np.minimum(out, np.abs(t[2, :, None] - along[1]), out=out, where=same)
    return out.astype(dtype, copy=False)


def distance_rows(g: Graph, sources: Sequence[int]) -> np.ndarray:
    """Hop distances from each source, as a ``(len(sources), n)`` array of
    type :func:`distance_dtype`, computed from the core (module docstring).

    The BFS from the first source checks the graph: a disconnected one
    raises :class:`DisconnectedGraphError` exactly as
    :func:`bfs_distances` does from that source.
    """
    n = g.vertex_count
    dtype = distance_dtype(n)
    sources = [int(s) for s in sources]
    k = len(sources)
    if not k:
        return np.zeros((0, n), dtype=dtype)
    bfs_distances(g, sources[0])
    for s in sources:
        if not (0 <= s < n):
            raise GraphInputError(f"source {s} outside [0, {n})")
    adjacency = g.adjacency
    simplicial = simplicial_vertices(g)
    core = [v for v in range(n) if not simplicial >> v & 1]
    if core:
        index = [-1] * n
        for i, v in enumerate(core):
            index[v] = i
        # Core neighbours of every vertex, as core indices; never empty for
        # a simplicial vertex, since the core is not.
        near = [[index[w] for w in ns if index[w] >= 0] for ns in adjacency]
        seeds = [[index[s]] if index[s] >= 0 else near[s] for s in sources]
        needed = sorted(set(chain.from_iterable(seeds)))
        inner = _core_rows([near[v] for v in core], needed, dtype)
        # The needed core vertices' rows over every vertex.
        full = np.empty((len(needed), n), dtype=dtype)
        full[:, core] = inner
        outer = [v for v in range(n) if index[v] < 0]
        if outer:
            full[:, outer] = _min_rows(inner.T, [near[v] for v in outer]).T + 1
        row = {r: i for i, r in enumerate(needed)}
        out = _min_rows(full, [[row[r] for r in rs] for rs in seeds])
        out += np.array([index[s] < 0 for s in sources], dtype=dtype)[:, None]
    else:  # connected with every vertex simplicial: complete
        out = np.ones((k, n), dtype=dtype)
    degrees = [len(adjacency[s]) for s in sources]
    neighbours = chain.from_iterable(adjacency[s] for s in sources)
    out[np.repeat(np.arange(k), degrees), np.fromiter(neighbours, np.intp, sum(degrees))] = 1
    out[np.arange(k), sources] = 0
    return out


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """Distance rows from every vertex, as a read-only ``(n, n)`` matrix
    (also for ``n = 0``) of type :func:`distance_dtype`."""
    n = g.vertex_count
    d = distance_rows(g, range(n))
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
