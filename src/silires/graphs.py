"""Immutable simple undirected graphs and hop-distance computation.

Vertex ids are dense integers starting at 0.  Every canonical artefact
(adjacency order, edge order) is fixed so that identical graphs produce
byte-identical output across runs.

Every :class:`Graph` carries a private *arc view*: the degree of each
vertex and the tail and head of every arc (each edge in both directions),
in the order of ``adjacency``, so sorted by (tail, head).  Building a graph,
the simplicial test, the distance rows and the edge codes are array passes
over it.

A vertex p is *simplicial* when its closed neighbourhood N[p] is a clique;
in a silicate network these are the cubic tetrahedron corners.

* Neighbour-pair rule: p is simplicial if and only if every two distinct
  neighbours of p are adjacent.  N[p] is p together with N(p), and p is
  adjacent to every member of N(p), so N[p] is a clique exactly when the
  C(deg p, 2) pairs inside N(p) are edges.
* Degree rule: a simplicial p has no neighbour w of smaller degree.  Every
  member of N[p] is w or adjacent to w, since N[p] is a clique holding w,
  so N[p] is contained in N[w] and deg p <= deg w.

:func:`simplicial_vertices` drops the vertices the degree rule rules out,
then looks every neighbour pair of the rest up among the sorted arc keys
``tail * n + head``: O(sum of deg^2) lookups, made in bounded blocks.

Distance rows come from the *core*: the vertices that are not simplicial.
In a silicate network the core is the set of hinges.  In a connected graph:

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

Connectivity test: a graph with a non-empty core is connected if and only
if its core subgraph is connected and every simplicial vertex has a core
neighbour, and a graph with no core is connected if and only if it is
complete.  If the graph is connected, the first and third facts give these
conditions; conversely, every simplicial vertex then hangs off a connected
core, and a complete graph is connected.  :func:`distance_rows` tests this
with one BFS over the core; only a disconnected graph pays for the BFS
over the whole graph that names the first vertex its first source misses.

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

import operator
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DisconnectedGraphError, GraphInputError

Edge = tuple[int, int]

# Neighbour pairs looked up per block in simplicial_vertices: bounds the
# block's arrays to a few MB on dense graphs.
_PAIR_BLOCK = 1 << 18


class _Arcs(NamedTuple):
    """Arc view of a graph: ``degree[v]``, and arc p from ``tail[p]`` to
    ``head[p]``, sorted by (tail, head); read-only intp arrays."""

    degree: np.ndarray
    tail: np.ndarray
    head: np.ndarray


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph in canonical form, made by :func:`build_graph`.

    ``adjacency[v]`` lists the neighbours of ``v`` in ascending order and
    ``edges`` holds each edge once as a ``(min, max)`` pair, sorted
    lexicographically.  Instances are immutable and safe to share between
    threads or processes.
    """

    vertex_count: int
    adjacency: tuple[tuple[int, ...], ...]
    edges: tuple[Edge, ...]
    _arcs: _Arcs = field(repr=False, compare=False)

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


def vertex_id(x, what: str) -> int:
    """``x`` as a Python int, through ``operator.index``: numpy integers are
    accepted, and a value that is not integral raises
    :class:`GraphInputError` naming it (``what`` says what it is)."""
    try:
        return operator.index(x)
    except TypeError:
        raise GraphInputError(f"{what} {x!r} is not an integer") from None


def vertex_ids(values: Iterable, what: str) -> list[int]:
    """:func:`vertex_id` of each of ``values``, as a list."""
    values = list(values)
    try:
        return list(map(operator.index, values))
    except TypeError:
        return [vertex_id(x, what) for x in values]


def _runs(values: np.ndarray, sizes: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """``values`` cut into consecutive runs of ``sizes``, as tuples of ints."""
    flat = tuple(values.tolist())
    ends = list(accumulate(sizes.tolist()))
    return tuple(map(flat.__getitem__, map(slice, chain((0,), ends), ends)))


def _ragged(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The ranges ``starts[i] .. starts[i] + sizes[i] - 1``, concatenated."""
    ends = sizes.cumsum()
    total = ends[-1] if len(ends) else 0
    return (starts - ends + sizes).repeat(sizes) + np.arange(total)


def _distinct(values: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``values``, all in ``[0, bound)``, in ascending order,
    and the position of each value among them."""
    seen = np.zeros(bound, dtype=bool)
    seen[values] = True
    return seen.nonzero()[0], (seen.cumsum() - 1)[values]


def _endpoints(edge_list: Iterable[Sequence[int]]) -> np.ndarray:
    """The pairs of ``edge_list`` as an ``(E, 2)`` int64 array, each id
    taken through ``operator.index``."""
    pairs = list(edge_list)
    if set(map(len, pairs)) - {2}:
        bad = next(p for p in pairs if len(p) != 2)
        raise GraphInputError(f"edge {tuple(bad)} is not a pair of ids")
    try:
        flat = np.fromiter(
            map(operator.index, chain.from_iterable(pairs)), np.int64, 2 * len(pairs)
        )
    except TypeError:
        vertex_ids(chain.from_iterable(pairs), "vertex id")  # names the culprit
        raise
    except OverflowError:  # every id before this one passed operator.index
        ids = chain.from_iterable(pairs)
        big = next(x for x in ids if not -(2**63) <= operator.index(x) < 2**63)
        raise GraphInputError(f"vertex id {big} does not fit in 64 bits") from None
    return flat.reshape(-1, 2)


def build_graph(vertex_count: int, edge_list: Iterable[Sequence[int]]) -> Graph:
    """Build a canonical :class:`Graph` from an edge list: pairs of ids, or
    an ``(E, 2)`` array of signed integers.

    Duplicate pairs (in either orientation) collapse to one edge.  Ids are
    taken through ``operator.index`` and stored as Python ints.  Raises
    :class:`GraphInputError`, in this order of checks, for an item that is
    not a pair, for an id that is not an integer or does not fit in 64 bits,
    and for the first pair in input order that is a self-loop or uses an id
    outside ``[0, vertex_count)``, naming the offending item.
    """
    n = vertex_id(vertex_count, "vertex count")
    if n < 0:
        raise GraphInputError(f"vertex count must be non-negative, got {n}")
    is_array = isinstance(edge_list, np.ndarray) and edge_list.dtype.kind == "i"
    if is_array and edge_list.ndim == 2 and edge_list.shape[1] == 2:
        ends = edge_list
    else:
        ends = _endpoints(edge_list)
    u, v = ends.T
    # Arc keys tail * n + head, both ways; sorting them puts them in
    # adjacency order and duplicate pairs side by side.
    try:
        arcs = np.ravel_multi_index((np.concatenate((u, v)), np.concatenate((v, u))), (n, n))
        valid = not np.count_nonzero(u == v)
    except ValueError:  # an id outside [0, n)
        valid = False
    if not valid:
        for a, b in ends.tolist():
            if a == b:
                raise GraphInputError(f"self-loop ({a}, {b}) is not allowed")
            if not (0 <= a < n and 0 <= b < n):
                raise GraphInputError(f"edge ({a}, {b}) uses an id outside [0, {n})")
    arcs.sort()
    first = np.empty(len(arcs), dtype=bool)  # first of its run of equal keys
    first[:1] = True
    np.not_equal(arcs[1:], arcs[:-1], out=first[1:])
    tail, head = np.divmod(arcs[first], n)
    degree = np.bincount(tail, minlength=n)
    for a in (degree, tail, head):
        a.setflags(write=False)
    forward = tail < head
    return Graph(
        vertex_count=n,
        adjacency=_runs(head, degree),
        edges=tuple(zip(tail[forward].tolist(), head[forward].tolist())),
        _arcs=_Arcs(degree, tail, head),
    )


def edge_ends(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays ``(u, v)`` of the canonical edges, in edge order: the
    arcs whose tail is the smaller end."""
    _, tail, head = g._arcs
    forward = tail < head
    return tail[forward], head[forward]


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
    source = vertex_id(source, "source")
    if not (0 <= source < g.vertex_count):
        raise GraphInputError(f"source {source} outside [0, {g.vertex_count})")
    dist = _bfs(g.adjacency, source)
    for v, dv in enumerate(dist):
        if dv < 0:
            raise DisconnectedGraphError(
                f"vertex {v} is unreachable from {source}; graph is disconnected"
            )
    return dist


def _simplicial(g: Graph) -> np.ndarray:
    """Boolean array marking the simplicial vertices, by the degree rule and
    the neighbour-pair rule (module docstring)."""
    n = g.vertex_count
    degree, tail, head = g._arcs
    simplicial = np.bincount(tail[degree[head] < degree[tail]], minlength=n) == 0
    arcs = simplicial[tail].nonzero()[0]
    # Arc p pairs its head with the heads of the later arcs of its tail.
    later = degree.cumsum()[tail[arcs]] - 1 - arcs
    keys = tail * n + head
    step = max(1, _PAIR_BLOCK // int(later.max(initial=1)))
    for lo in range(0, len(arcs), step):
        first, count = arcs[lo : lo + step], later[lo : lo + step]
        second = _ragged(first + 1, count)
        first = first.repeat(count)
        pair = head[first] * n + head[second]
        missing = keys.take(keys.searchsorted(pair), mode="clip") != pair
        simplicial[tail[first[missing]]] = False
    return simplicial


def simplicial_vertices(g: Graph) -> int:
    """Bitmask of the vertices whose closed neighbourhood is a clique."""
    flags = np.packbits(_simplicial(g), bitorder="little")
    return int.from_bytes(flags.tobytes(), "little")


def _min_rows(
    table: np.ndarray, flat: np.ndarray, sizes: np.ndarray, axis: int = 0
) -> np.ndarray:
    """Slice i along ``axis`` is the elementwise minimum of the slices of
    ``table`` listed by group i of ``flat``, cut into consecutive groups of
    ``sizes`` (none 0): one in-place ``np.minimum`` per position within a
    group, a shorter group repeating its last member."""
    starts = sizes.cumsum() - sizes
    out = table.take(flat[starts], axis=axis)
    for j in range(1, int(sizes.max(initial=1))):
        member = flat[starts + np.minimum(j, sizes - 1)]
        np.minimum(out, table.take(member, axis=axis), out=out)
    return out


def _core_rows(
    adjacency: Sequence[Sequence[int]],
    degree: np.ndarray,
    targets: Sequence[int],
    dtype: type,
) -> np.ndarray:
    """Rows of hop distances from each of ``targets`` over a connected
    graph with the given ``adjacency`` and ``degree`` array, as a
    ``(len(targets), c)`` array of ``dtype``, from a BFS at the needed
    branch vertices and thread ends only (the thread lemma in the module
    docstring)."""
    c = len(adjacency)
    branch = (degree != 2).nonzero()[0].tolist() or [0]
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
    along = np.array((segment, position), dtype=wide)
    seg, i = along[:, targets]
    ends_of = np.array(ends, dtype=wide)[seg].T  # a, b and L
    roots, rows = _distinct(ends_of[:2], c)  # BFS at the needed ends
    length = ends_of[2]
    reach = np.array([_bfs(adjacency, r) for r in roots.tolist()], dtype=wide)
    near = reach[rows]  # d(a, y) and d(b, y)
    near[0] += i[:, None]  # i + d(a, y)
    near[1] += (length - i)[:, None]  # L - i + d(b, y)
    out = np.minimum(near[0], near[1], out=near[0])
    same = seg[:, None] == along[0]  # y = p_j on x's own segment
    np.minimum(out, np.abs(i[:, None] - along[1]), out=out, where=same)
    return out.astype(dtype, copy=False)


def distance_rows(g: Graph, sources: Sequence[int]) -> np.ndarray:
    """Hop distances from each source, as a ``(len(sources), n)`` array of
    type :func:`distance_dtype`, computed from the core (module docstring).
    The array is the transpose of a C-ordered one, so ``rows.T`` holds one
    contiguous row per vertex.

    The first source is checked, then the graph: a disconnected one raises
    :class:`DisconnectedGraphError` exactly as :func:`bfs_distances` does
    from the first source (from vertex 0 when there is none, so no source
    list escapes the test); then the other sources are checked.
    """
    n = g.vertex_count
    dtype = distance_dtype(n)
    sources = vertex_ids(sources, "source")
    k = len(sources)
    if k and not 0 <= sources[0] < n:
        raise GraphInputError(f"source {sources[0]} outside [0, {n})")
    degree, tail, head = g._arcs
    simplicial = _simplicial(g)
    in_core = ~simplicial
    core = in_core.nonzero()[0]
    c = len(core)
    index = in_core.cumsum() - 1  # the core index of each core vertex
    # The arcs into the core, by tail: the core neighbours of every vertex,
    # as core indices, and the core's own adjacency.
    into = in_core[head]
    near_tail = tail[into]
    near = index[head[into]]
    near_count = np.bincount(near_tail, minlength=n)
    inside = in_core[near_tail]
    adjacency = _runs(near[inside], near_count[core])
    if c:  # connected iff the core is and every simplicial vertex meets it
        connected = near_count[simplicial].all() and -1 not in _bfs(adjacency, 0)
    else:  # connected iff complete
        connected = 2 * g.edge_count == n * (n - 1)
    if not connected:
        bfs_distances(g, sources[0] if k else 0)  # raises, naming the first vertex it misses
    if not k:
        return np.zeros((0, n), dtype=dtype)
    if min(sources) < 0 or max(sources) >= n:
        s = next(s for s in sources if not 0 <= s < n)
        raise GraphInputError(f"source {s} outside [0, {n})")
    src = np.array(sources, dtype=np.intp)
    # Built one row per vertex and one column per source, then transposed.
    if c:
        # A core source seeds its own column, a simplicial one the columns
        # of its core neighbours; the own columns follow ``near`` in ``pool``.
        own = in_core[src]
        size = np.where(own, 1, near_count[src])
        first = np.where(own, len(near) + index[src], (near_count.cumsum() - near_count)[src])
        pool = np.concatenate((near, np.arange(c)))
        needed, seeds = _distinct(pool[_ragged(first, size)], c)
        # Distances from the needed core vertices to every vertex.
        full = np.empty((n, len(needed)), dtype=dtype)
        full[core] = _core_rows(adjacency, near_count[core], needed.tolist(), dtype).T
        outer = simplicial.nonzero()[0]
        rows = _min_rows(full, head[into][~inside], near_count[outer])
        rows += 1
        full[outer] = rows
        out = _min_rows(full, seeds, size, axis=1)
        out += simplicial[src]
    else:
        out = np.ones((n, k), dtype=dtype)
    deg = degree[src]
    out[head[_ragged((degree.cumsum() - degree)[src], deg)], np.arange(k).repeat(deg)] = 1
    out[src, np.arange(k)] = 0
    return out.T


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
    return g.vertex_count == 0 or -1 not in _bfs(g.adjacency, 0)
