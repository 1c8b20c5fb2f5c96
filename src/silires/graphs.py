"""Immutable simple undirected graphs and hop-distance computation.

Vertex ids are dense integers starting at 0.  Every canonical artefact
(adjacency order, edge order) is fixed so that identical graphs produce
byte-identical output across runs.

A :class:`Graph` holds its vertex count and a private *arc view*: the
degree of each vertex and the tail and head of every arc (each edge in
both directions), sorted by (tail, head).  Building a graph, the
simplicial test, the distance rows and the edge codes are array passes
over it.  The tuple views ``adjacency`` and ``edges`` are built from the
arcs the first time they are read, and then kept, so code that needs only
the arrays (constructing and verifying a landmark set) never builds them.
The graph's *analysis* for its distance rows (below) is kept the same way.

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

Distance bound: in a connected graph with c core vertices every hop
distance is at most min(n - 1, c + 1).  A shortest path has at most n - 1
edges.  A shortest path between core vertices stays in the core (first
fact) and visits each core vertex at most once, so it has at most c - 1
edges.  Every simplicial vertex has a core neighbour (third fact), so a
distance from a simplicial vertex to a core vertex is at most
1 + (c - 1) = c, and one between two simplicial vertices at most
1 + (c - 1) + 1 = c + 1.  With no core the graph is complete and every
distance is at most 1 = c + 1.

Connectivity test: a graph with a non-empty core is connected if and only
if its core subgraph is connected and every simplicial vertex has a core
neighbour, and a graph with no core is connected if and only if it is
complete.  If the graph is connected, the first and third facts give these
conditions; conversely, every simplicial vertex then hangs off a connected
core, and a complete graph is connected.  The analysis tests this with
one BFS over the core, and :func:`is_connected` reads its verdict; only a
disconnected graph that is asked for distances pays for the BFS over the
whole graph that names the first vertex its first source misses.

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
lemma.  It works in three parts.

* The *analysis* holds what depends on the graph alone: the simplicial
  vertices, the core and the core neighbours of every vertex, the core
  adjacency, the connectivity test with its BFS row from core vertex 0,
  the threads, and the core neighbours of each simplicial vertex.  It is
  built the first time :func:`distance_rows`, :func:`simplicial_vertices`,
  :func:`is_connected` or :func:`~silires.structure.find_tetrahedra`
  needs it and kept on the graph (``Graph._core``), so the solver's
  matrix, its masks, the family recognition and the witness re-check of
  one solve share one analysis.
* The *set-up*, run once per call, seeds the sources and runs the BFS at
  every other root they need.  Those rows depend on the sources and are
  not kept, so a graph holds one row of core distances, never c of them.
* The *fill* then writes the rows of any range of source columns into a
  caller's buffer, with one row per vertex and one column per source.

Beyond the connectivity test's row, no distance row outlives its call.
The analysis is a function of the graph alone, so a check that reads it
still rests on the graph alone; the solver's re-check of its witness
fills the witness's rows itself instead of reading the search's matrix,
so a fault in that matrix cannot reach the check's verdict.  Every step
of the fill gathers whole rows:

1. Sources on the core block.  A core source is seeded by itself, a
   simplicial one by its core neighbours.  The core rows of the range's
   seeds, from the thread lemma, are reduced to their minimum: one row per
   source, at core size.
2. One transpose.  That block, transposed, is written in as the rows of
   the core vertices.
3. Targets in blocks.  The row of each simplicial target is ``1 + min``
   over the rows of its core neighbours, filled a bounded block of
   targets at a time through one buffer.

A simplicial source then adds 1 to its column (the second fact from the
source's side; adding 1 commutes with the minimum of step 3), and each
column is set to 1 at its source's neighbours and 0 at the source.  Every
column depends on its own source alone, so filling the columns in ranges
gives the rows of one fill of them all, and each fill's temporaries grow
with its own range: :func:`distance_rows` fills every column at once, and
the resolving checks fill a bounded chunk of landmark columns at a time.

The fill computes in the dtype of the caller's buffer, which need only
hold the distance bound: the resolving checks pass byte-wide buffers
whenever the bound is at most 255.  The thread lemma's sums reach
2(c - 1), so the core rows are computed in :func:`distance_dtype` of 2c
and cast once, after their minimum, to the buffer's type; every later
value is at most the distance it becomes.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DisconnectedGraphError, GraphInputError

Edge = tuple[int, int]

# Neighbour pairs looked up per block in simplicial_vertices: bounds the
# block's arrays to a few MB on dense graphs.
_PAIR_BLOCK = 1 << 18
# Output elements per block of simplicial rows in distance_rows: bounds
# the block buffer and each temporary of its fill.
_ROW_BLOCK = 1 << 18
# The largest vertex count whose arc keys tail * n + head fit in int64.
_MAX_VERTICES = math.isqrt(2**63 - 1)


class _Arcs(NamedTuple):
    """Arc view of a graph: ``degree[v]``, and arc p from ``tail[p]`` to
    ``head[p]``, sorted by (tail, head); read-only intp arrays."""

    degree: np.ndarray
    tail: np.ndarray
    head: np.ndarray


@dataclass(frozen=True, eq=False, repr=False)
class Graph:
    """Simple undirected graph in canonical form, made by :func:`build_graph`.

    ``adjacency[v]`` lists the neighbours of ``v`` in ascending order and
    ``edges`` holds each edge once as a ``(min, max)`` pair, sorted
    lexicographically.  Both are built from the arc view when first read
    and cached on the instance.  They are pure functions of the read-only
    arcs, so two threads that read one at once build equal tuples, and
    instances stay immutable and safe to share between threads or
    processes.  Equality and hashing are by ``(vertex_count, edges)``.
    """

    vertex_count: int
    _arcs: _Arcs

    @functools.cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        return _runs(self._arcs.head, self._arcs.degree)

    @functools.cached_property
    def edges(self) -> tuple[Edge, ...]:
        u, v = edge_ends(self)
        return tuple(zip(u.tolist(), v.tolist()))

    @functools.cached_property
    def _core(self) -> _Core:
        """The graph's analysis for its distance rows and connectivity
        test, built the first time one needs it (module docstring)."""
        return _analyse(self)

    @property
    def edge_count(self) -> int:
        return len(self._arcs.tail) // 2

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.vertex_count, self.edges) == (other.vertex_count, other.edges)

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.edges))

    def __repr__(self) -> str:
        return (
            f"Graph(vertex_count={self.vertex_count!r}, "
            f"adjacency={self.adjacency!r}, edges={self.edges!r})"
        )

    def __reduce__(self):
        return _frozen_graph, (self.vertex_count, *self._arcs)

    def _vertex(self, v) -> int:
        """``v`` through :func:`vertex_id`, checked to be a vertex."""
        v = vertex_id(v, "vertex")
        if not 0 <= v < self.vertex_count:
            raise GraphInputError(f"vertex {v} outside [0, {self.vertex_count})")
        return v

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``; raises :class:`GraphInputError` for an
        id that is not an integer or not a vertex."""
        return int(self._arcs.degree[self._vertex(v)])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``u`` and ``v`` are adjacent; each is checked as by
        :meth:`degree`."""
        u, v = self._vertex(u), self._vertex(v)
        return v in self.adjacency[u]


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
    try:
        odd = set(map(len, pairs)) - {2}
    except TypeError:  # an item with no length
        odd = True
    if odd:
        bad = next(p for p in pairs if not hasattr(p, "__len__") or len(p) != 2)
        shown = tuple(bad) if hasattr(bad, "__len__") else bad
        raise GraphInputError(f"edge {shown!r} is not a pair of ids")
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
    :class:`GraphInputError`, in this order of checks, for a negative
    vertex count, for an item that is not a pair, for an id that is not an
    integer or does not fit in 64 bits, for a vertex count whose square
    does not (the range of the arc keys), and for the first pair in input
    order that is a self-loop or uses an id outside ``[0, vertex_count)``,
    naming the offending item or count.
    """
    n = vertex_id(vertex_count, "vertex count")
    if n < 0:
        raise GraphInputError(f"vertex count must be non-negative, got {n}")
    is_array = isinstance(edge_list, np.ndarray) and edge_list.dtype.kind == "i"
    if is_array and edge_list.ndim == 2 and edge_list.shape[1] == 2:
        ends = edge_list
    else:
        ends = _endpoints(edge_list)
    if n > _MAX_VERTICES:
        raise GraphInputError(
            f"vertex count {n} is too large: at most {_MAX_VERTICES} vertices "
            "fit the 64-bit arc keys"
        )
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
    return _frozen_graph(n, np.bincount(tail, minlength=n), tail, head)


def _frozen_graph(
    vertex_count: int, degree: np.ndarray, tail: np.ndarray, head: np.ndarray
) -> Graph:
    """The graph of the given arc arrays, made read-only; unpickling
    rebuilds through it."""
    arcs = _Arcs(degree, tail, head)
    for a in arcs:
        a.setflags(write=False)
    return Graph(vertex_count=vertex_count, _arcs=arcs)


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
    """Bitmask of the vertices whose closed neighbourhood is a clique, read
    off the graph's analysis (:attr:`Graph._core`)."""
    flags = np.packbits(g._core.simplicial, bitorder="little")
    return int.from_bytes(flags.tobytes(), "little")


def _group_members(flat: np.ndarray, sizes: np.ndarray) -> list[np.ndarray]:
    """Member j of every group, for each position j: ``flat`` cut into
    consecutive groups of ``sizes`` (none 0), a shorter group repeating its
    last member."""
    starts = sizes.cumsum() - sizes
    members = [flat[starts]]
    for j in range(1, int(sizes.max(initial=1))):
        members.append(flat[starts + np.minimum(j, sizes - 1)])
    return members


def _min_rows(
    table: np.ndarray, members: list[np.ndarray], out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Row i is the elementwise minimum of the rows of ``table`` listed at
    position i of ``members`` (as :func:`_group_members` gives them): one
    in-place ``np.minimum`` per position within a group, written into
    ``out`` when it is given."""
    first, *rest = members
    out = table.take(first, axis=0, out=out, mode="clip")  # every index is valid
    for member in rest:
        np.minimum(out, table.take(member, axis=0), out=out)
    return out


def _threads(
    adjacency: Sequence[Sequence[int]], degree: np.ndarray, dtype: type
) -> tuple[np.ndarray, np.ndarray]:
    """The threads of a connected graph with the given ``adjacency`` and
    ``degree`` array (module docstring), as arrays of ``dtype``: ``along``,
    the segment and the position of each vertex, ``(2, c)``, and ``ends``,
    the ends a and b and the length L of each segment, ``(3, segments)``."""
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
    return np.array((segment, position), dtype=dtype), np.array(ends, dtype=dtype).T.copy()


class _Core(NamedTuple):
    """The analysis of a graph that its distance rows need whatever their
    sources (module docstring), kept by :attr:`Graph._core` and never
    written after it is built.  ``arc_start[v]`` is the first arc of vertex
    v.
    ``simplicial`` flags the simplicial vertices, ``vertices`` lists the
    core ones and ``index`` gives the core index of each core vertex.
    ``pool`` holds the core neighbours of every vertex, as core
    indices, by vertex (``near_count[v]`` of them from ``near_start[v]``),
    then the core indices 0, ..., c - 1.  ``adjacency`` is the core's own,
    over core indices.  ``connected`` is the connectivity test's verdict
    and ``first`` its BFS row from core vertex 0 (empty without a core).
    On a connected graph with a core, ``along`` and ``ends`` are its
    threads (:func:`_threads`), ``outer`` its simplicial vertices and
    ``members`` their core neighbours (:func:`_group_members`); otherwise
    these are ``None``."""

    arc_start: np.ndarray
    simplicial: np.ndarray
    vertices: np.ndarray
    index: np.ndarray
    pool: np.ndarray
    near_count: np.ndarray
    near_start: np.ndarray
    adjacency: tuple[tuple[int, ...], ...]
    connected: bool
    first: list[int]
    along: Optional[np.ndarray]
    ends: Optional[np.ndarray]
    outer: Optional[np.ndarray]
    members: Optional[list[np.ndarray]]


def _analyse(g: Graph) -> _Core:
    """The :class:`_Core` of ``g``: its simplicial vertices, its core and
    their neighbours, the connectivity test and the threads."""
    n = g.vertex_count
    degree, tail, head = g._arcs
    simplicial = _simplicial(g)
    in_core = ~simplicial
    vertices = in_core.nonzero()[0]
    c = len(vertices)
    index = in_core.cumsum() - 1  # the core index of each core vertex
    # The arcs into the core, by tail: the core neighbours of every vertex,
    # as core indices, and the core's own adjacency.
    into = in_core[head]
    near_tail, near_head = tail[into], head[into]
    near = index[near_head]
    near_count = np.bincount(near_tail, minlength=n)
    inside = in_core[near_tail]
    adjacency = _runs(near[inside], near_count[vertices])
    if c:  # connected iff the core is and every simplicial vertex meets it
        first = _bfs(adjacency, 0)  # also the BFS at core vertex 0 if it is a root
        connected = bool(near_count[simplicial].all()) and -1 not in first
    else:  # connected iff complete
        first = []
        connected = 2 * g.edge_count == n * (n - 1)
    along = ends = outer = members = None
    if c and connected:
        # i + d(a, y) reaches 2(c - 1), past the range of distance_dtype(c).
        along, ends = _threads(adjacency, near_count[vertices], distance_dtype(2 * c))
        outer = simplicial.nonzero()[0]
        members = _group_members(near_head[~inside], near_count[outer])
    pool = np.concatenate((near, np.arange(c)))
    near_start = near_count.cumsum() - near_count
    arc_start = degree.cumsum() - degree
    return _Core(
        arc_start, simplicial, vertices, index, pool, near_count, near_start,
        adjacency, connected, first, along, ends, outer, members,
    )


class _RowFill:
    """:func:`distance_rows` in two parts (module docstring).  Making the
    object is the set-up, run once per source list: it checks the sources
    and the graph as :func:`distance_rows` documents, reads the graph's
    analysis (:attr:`Graph._core`), seeds the sources and runs the core BFS
    at every other root they need.  :meth:`fill` then writes the rows of
    any range of source columns, with temporaries in proportion to that
    range.  :attr:`bound` is the distance bound min(n - 1, c + 1) of the
    graph's c core vertices, and :attr:`dtype` is :func:`distance_dtype` of
    n."""

    def __init__(self, g: Graph, sources: Sequence[int]) -> None:
        n = g.vertex_count
        self.dtype = distance_dtype(n)
        sources = vertex_ids(sources, "source")
        if sources and not 0 <= sources[0] < n:
            raise GraphInputError(f"source {sources[0]} outside [0, {n})")
        core = self._core = g._core
        if not core.connected:
            bfs_distances(g, sources[0] if sources else 0)  # raises, naming the first vertex it misses
        if sources and (min(sources) < 0 or max(sources) >= n):
            s = next(s for s in sources if not 0 <= s < n)
            raise GraphInputError(f"source {s} outside [0, {n})")
        c = len(core.vertices)
        self.bound = min(n - 1, c + 1)
        self.count = len(sources)
        src = self._src = np.array(sources, dtype=np.intp)
        self._degree, _, self._head = g._arcs
        if not (c and len(src)):
            return
        # A core source is seeded by its own core index, a simplicial one by
        # those of its core neighbours; the own indices end ``pool``.
        # Source j's seeds end at ``_seed_end[j]``.
        outer = core.simplicial[src]
        self._size = np.where(outer, core.near_count[src], 1)
        start = np.where(outer, core.near_start[src], len(core.pool) - c + core.index[src])
        self._seeds = core.pool[_ragged(start, self._size)]
        self._seed_end = self._size.cumsum()
        root = np.zeros(c, dtype=bool)  # the ends of the threads of the seeds
        root[core.ends[:2].take(core.along[0].take(self._seeds), axis=1)] = True
        self._root_row = root.cumsum() - 1  # the row of ``_reach`` of each root
        roots = root.nonzero()[0].tolist()
        reach = [core.first if r == 0 else _bfs(core.adjacency, r) for r in roots]
        self._reach = np.array(reach, dtype=core.along.dtype)

    def _core_rows(self, needed: np.ndarray, dtype: np.dtype) -> np.ndarray:
        """Hop distances from each of the ``needed`` core indices to the
        core, as a ``(len(needed), c)`` array of ``dtype``, from the BFS
        rows of the thread ends (the thread lemma)."""
        along = self._core.along
        seg, i = along.take(needed, axis=1)
        ends_of = self._core.ends.take(seg, axis=1)  # a, b and L
        near = self._reach.take(self._root_row.take(ends_of[:2]), axis=0)  # d(a, y), d(b, y)
        near[0] += i[:, None]  # i + d(a, y)
        near[1] += (ends_of[2] - i)[:, None]  # L - i + d(b, y)
        out = np.minimum(near[0], near[1], out=near[0])
        same = seg[:, None] == along[0]  # y = p_j on x's own segment
        np.minimum(out, np.abs(i[:, None] - along[1]), out=out, where=same)
        return out.astype(dtype, copy=False)

    def fill(self, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        """Writes the rows of sources ``lo`` to ``hi - 1`` (``lo < hi``)
        into ``out``, a C-ordered ``(n, hi - lo)`` integer buffer with one
        row per vertex and one column per source, and returns it.  The fill
        computes in ``out``'s dtype, which must hold :attr:`bound`."""
        src = self._src[lo:hi]
        k = len(src)
        core = self._core
        if len(core.vertices):
            # Distances from the needed core vertices to the core, reduced
            # to one row per source, then written in as the core's rows.
            seeds = self._seeds[self._seed_end[lo] - self._size[lo] : self._seed_end[hi - 1]]
            needed, seeds = _distinct(seeds, len(core.vertices))
            out[core.vertices] = _min_rows(
                self._core_rows(needed, out.dtype), _group_members(seeds, self._size[lo:hi])
            ).T
            # The rows of simplicial targets, a block at a time.
            outer = core.outer
            step = max(1, _ROW_BLOCK // k)
            block = np.empty((min(step, len(outer)), k), dtype=out.dtype)
            for start in range(0, len(outer), step):
                rows = outer[start : start + step]
                part = block[: len(rows)]
                _min_rows(out, [member[start : start + step] for member in core.members], part)
                part += 1
                out[rows] = part
            out += core.simplicial[src]
        else:
            out[...] = 1
        deg = self._degree[src]
        out[self._head[_ragged(core.arc_start[src], deg)], np.arange(k).repeat(deg)] = 1
        out[src, np.arange(k)] = 0
        return out


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
    rows = _RowFill(g, sources)
    if not rows.count:
        return np.zeros((0, g.vertex_count), dtype=rows.dtype)
    out = np.empty((g.vertex_count, rows.count), dtype=rows.dtype)
    return rows.fill(0, rows.count, out).T


def all_pairs_distances(g: Graph) -> np.ndarray:
    """Distance rows from every vertex, as a read-only ``(n, n)`` array
    (also for ``n = 0``) of type :func:`distance_dtype`: int16 while every
    distance (at most ``n - 1``) fits, int32 beyond.  The exact solver
    searches over this matrix; the resolving checkers compute their own
    landmark rows instead.  Every graph is checked for connectivity,
    whatever its size: a disconnected one raises
    :class:`DisconnectedGraphError`, as :func:`distance_rows` does."""
    d = distance_rows(g, range(g.vertex_count))
    d.setflags(write=False)
    return d


def is_connected(g: Graph) -> bool:
    """The connectivity test of the graph's analysis (module docstring)."""
    return g._core.connected
