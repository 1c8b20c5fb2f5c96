"""Structural analysis of silicate networks.

A silicate network is a graph whose edges split into vertex-sharing
complete graphs on four vertices (tetrahedra).  This module reads that
decomposition off the cubic corners (:func:`find_tetrahedra`) and
recognizes chain and cyclic silicates (:func:`classify_silicate`).  A
tetrahedron is the sorted 4-tuple of its vertex ids, as in
:attr:`silires.silicates.LabeledSilicate.tetrahedra`, and its cubic corners
are its members of degree 3.  The families' closed form is
:func:`silires.construction.predicted_dimension`.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Optional

from .errors import StructureError
from .graphs import Graph, is_connected
from .silicates import CHAIN, CYCLIC, SilicateSpec


def find_tetrahedra(g: Graph) -> tuple[tuple[int, int, int, int], ...]:
    """Read the edge-disjoint tetrahedron cover off the cubic corners.

    A corner is a degree-3 vertex p whose three neighbours are pairwise
    adjacent: a simplicial vertex of degree 3, read off the graph's cached
    analysis (:mod:`~silires.graphs`).  p lies in exactly one K4, its
    closed neighbourhood N[p], so every edge-disjoint K4 cover holds N[p].
    Every tetrahedron of a chain, cyclic or skeleton expansion has two or
    more corners (its vertices that are not base vertices among them), so
    these forced tetrahedra are the whole cover there, and a K4 of the base
    is never taken.  Returns the distinct N[p] as sorted 4-tuples, in
    ascending order.  Raises :class:`StructureError` naming the first edge,
    in edge order, that lies in no forced tetrahedron (a graph covered by
    corner-free K4s, such as K13, raises too) or in two of them (then no
    cover exists).
    """
    adjacency = g.adjacency
    corners = (g._core.simplicial & (g._arcs.degree == 3)).nonzero()[0].tolist()
    cells = tuple(sorted({tuple(sorted((p, *adjacency[p]))) for p in corners}))
    uses = Counter(e for cell in cells for e in combinations(cell, 2))
    # Every pair of a cell is an edge, so the cells cover each edge once
    # exactly when their pairs are distinct and as many as the edges.
    if len(uses) == 6 * len(cells) == g.edge_count:
        return cells
    e = next(e for e in g.edges if uses[e] != 1)
    where = f"{uses[e]} corner tetrahedra" if uses[e] else "no corner tetrahedron"
    raise StructureError(
        f"edge {e} lies in {where}; the cover read off the cubic corners needs exactly one"
    )


def classify_silicate(g: Graph) -> Optional[SilicateSpec]:
    """Recognize chain / cyclic silicates from their tetrahedron cover.

    Returns ``None`` when :func:`find_tetrahedra` finds no cover, when the
    graph is disconnected, or when the hinge structure is neither a path
    nor a cycle of distinct hinges.  Once every edge lies in exactly one
    cover tetrahedron, a vertex v lies in degree(v) / 3 of them, and the
    graph is connected exactly when every vertex lies in one and shared
    vertices join the tetrahedra into one piece.  Cover tetrahedra share
    at most one vertex, so a tetrahedron has one twin per other tetrahedron
    through each of its vertices.  Those counts sum to twice the number of
    vertices in two tetrahedra (degree 6) only when none lies in three, so
    the counts of a path (1, 1, 2, ...) or a cycle (2, 2, ...) with n - 1
    or n such hinges leave each hinge one twin.  In every graph accepted
    here a tetrahedron has at most two hinges, so its other vertices are
    cubic corners: each cover tetrahedron is forced, and the graph has no
    other edge-disjoint K4 cover.
    """
    try:
        tetrahedra = find_tetrahedra(g)
    except StructureError:
        return None
    count = len(tetrahedra)
    if count == 0 or not is_connected(g):
        return None
    if count == 1:
        return SilicateSpec(family=CHAIN, n=1)
    degree = g._arcs.degree.tolist()
    hinges = degree.count(6)
    twins = sorted(sum(degree[v] // 3 - 1 for v in t) for t in tetrahedra)
    if hinges == count - 1 and twins[:2] == [1, 1] and all(c == 2 for c in twins[2:]):
        return SilicateSpec(family=CHAIN, n=count)
    if count >= 3 and hinges == count and all(c == 2 for c in twins):
        return SilicateSpec(family=CYCLIC, n=count)
    return None
