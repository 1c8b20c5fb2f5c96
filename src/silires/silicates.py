"""Generators for chain silicates, cyclic silicates, and skeleton expansions.

All generators are deterministic, and their numbering is part of the public
contract (documented in the README) so that landmark sets are meaningful
across runs.  The chain and cyclic generators assign ids in first-appearance
order while tetrahedra are emitted 1..n, each tetrahedron contributing its
not-yet-seen vertices in the fixed order (shared-with-previous, private
vertices, shared-with-next).  A skeleton expansion keeps the base ids and
gives base edge i, in edge order, the fresh ids |V| + 2i and |V| + 2i + 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import GraphInputError
from .graphs import Graph, _runs, build_graph, edge_ends, is_connected, vertex_id

CHAIN = "chain"
CYCLIC = "cyclic"
SKELETON = "skeleton"

FAMILIES = (CHAIN, CYCLIC, SKELETON)


@dataclass(frozen=True)
class SilicateSpec:
    """Which silicate network to build.

    ``n`` is the tetrahedron count for the chain and cyclic families and is
    ignored for ``skeleton``, where the base graph is given explicitly.  It
    is taken through ``operator.index`` and stored as a Python int; a value
    that is not integral raises :class:`GraphInputError` naming it.
    """

    family: str
    n: int = 0
    skeleton: Optional[Graph] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", vertex_id(self.n, "tetrahedron count"))
        if self.family not in FAMILIES:
            raise GraphInputError(f"unknown silicate family {self.family!r}")
        if self.family == CHAIN and self.n < 1:
            raise GraphInputError(f"chain silicate needs n >= 1, got {self.n}")
        if self.family == CYCLIC and self.n < 3:
            raise GraphInputError(f"cyclic silicate needs n >= 3, got {self.n}")
        if self.family == SKELETON and self.skeleton is None:
            raise GraphInputError("skeleton family needs a base graph")


@dataclass(frozen=True, eq=False, repr=False)
class LabeledSilicate:
    """A silicate network together with its construction metadata.

    ``tetrahedra[i]`` is the sorted 4-tuple of vertex ids of tetrahedron
    ``i+1``.  ``shared_vertices`` are the corners belonging to two or more
    tetrahedra (degree 6 in the chain and cyclic families).
    ``private_vertices[i]`` lists the degree-3 vertices of tetrahedron
    ``i+1`` in ascending order.

    The silicate holds its graph and the read-only ``(T, 4)`` array of
    sorted tetrahedra.  Each tuple view is built from them the first time
    it is read and then cached; the views are pure functions of the graph
    and the array, so instances stay immutable and safe to share.
    Equality and hashing are by ``graph`` and ``tetrahedra``, which
    determine the other two views; ``repr`` shows all three.
    """

    graph: Graph
    _cells: np.ndarray

    @functools.cached_property
    def tetrahedra(self) -> tuple[tuple[int, int, int, int], ...]:
        return tuple(map(tuple, self._cells.tolist()))

    @functools.cached_property
    def shared_vertices(self) -> tuple[int, ...]:
        appearances = np.bincount(self._cells.ravel(), minlength=self.graph.vertex_count)
        return tuple((appearances >= 2).nonzero()[0].tolist())

    @functools.cached_property
    def private_vertices(self) -> tuple[tuple[int, ...], ...]:
        cubic = self.graph._arcs.degree[self._cells] == 3
        return _runs(self._cells[cubic], cubic.sum(axis=1))

    def _key(self) -> tuple:
        return (self.graph, self.tetrahedra)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        return _frozen_silicate, (self.graph, self._cells)

    def __repr__(self) -> str:
        return (
            f"LabeledSilicate(graph={self.graph!r}, tetrahedra={self.tetrahedra!r}, "
            f"shared_vertices={self.shared_vertices!r}, "
            f"private_vertices={self.private_vertices!r})"
        )


def _frozen_silicate(graph: Graph, cells: np.ndarray) -> LabeledSilicate:
    """The silicate of ``graph`` and the sorted ``(T, 4)`` array ``cells``,
    made read-only; unpickling rebuilds through it."""
    cells.setflags(write=False)
    return LabeledSilicate(graph=graph, _cells=cells)


# The six corner pairs of a tetrahedron: its edges.
_TETRAHEDRON_EDGES = np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def _assemble(vertex_count: int, tetrahedra: np.ndarray) -> LabeledSilicate:
    """The silicate whose tetrahedra are the rows of the ``(T, 4)`` id
    array ``tetrahedra``, each row in emission order.  The rows are sorted
    once, so both the tetrahedra and their private vertices come out in
    ascending order."""
    graph = build_graph(vertex_count, tetrahedra[:, _TETRAHEDRON_EDGES].reshape(-1, 2))
    return _frozen_silicate(graph, np.sort(tetrahedra, axis=1))


def chain_silicate(n: int) -> LabeledSilicate:
    """Chain of ``n`` tetrahedra, consecutive ones glued at a single corner.

    The graph has ``3n + 1`` vertices and ``6n`` edges.  Ids: tetrahedron i
    is (3i-3, 3i-2, 3i-1, 3i), so consecutive tetrahedra i and i+1 share
    the hinge 3i and every other id is a private (degree-3) vertex.  ``n``
    is checked and stored as by :class:`SilicateSpec`.
    """
    n = SilicateSpec(CHAIN, n).n
    return _assemble(3 * n + 1, 3 * np.arange(n)[:, None] + np.arange(4))


def cyclic_silicate(n: int) -> LabeledSilicate:
    """Ring of ``n`` tetrahedra obtained by expanding each edge of an n-cycle.

    The graph has ``3n`` vertices and ``6n`` edges.  Ids: corner c_1 is 0;
    tetrahedron i < n takes privates 3i-2, 3i-1 and corner c_{i+1} = 3i; the
    last tetrahedron takes privates 3n-2, 3n-1 and closes back on corner 0.
    ``n`` is checked and stored as by :class:`SilicateSpec`.
    """
    n = SilicateSpec(CYCLIC, n).n
    tetrahedra = 3 * np.arange(n)[:, None] + np.arange(4)
    tetrahedra[-1, 3] = 0
    return _assemble(3 * n, tetrahedra)


def silicate_of_skeleton(base: Graph) -> LabeledSilicate:
    """Expand every edge of a connected simple base graph into a tetrahedron.

    Base edge i, uv in edge order, becomes the tetrahedron on {u, v,
    |V| + 2i, |V| + 2i + 1}, and every base id is kept; the output has
    ``|V| + 2|E|`` vertices and ``6|E|`` edges.  Chain and cyclic silicates
    are the path and cycle instances of this construction (up to
    relabeling).  No dimension formulas are claimed for other bases.
    """
    if base.vertex_count == 0 or base.edge_count == 0:
        raise GraphInputError("skeleton base must have at least one edge")
    if not is_connected(base):
        raise GraphInputError("skeleton base must be connected")
    u, v = edge_ends(base)
    fresh = base.vertex_count + 2 * np.arange(base.edge_count)
    tetrahedra = np.column_stack((u, v, fresh, fresh + 1))
    return _assemble(base.vertex_count + 2 * base.edge_count, tetrahedra)


def build_silicate(spec: SilicateSpec) -> LabeledSilicate:
    if spec.family == CHAIN:
        return chain_silicate(spec.n)
    if spec.family == CYCLIC:
        return cyclic_silicate(spec.n)
    assert spec.skeleton is not None
    return silicate_of_skeleton(spec.skeleton)
