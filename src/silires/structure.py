"""Structural analysis of silicate networks.

A silicate network is a graph whose edges split into vertex-sharing
complete graphs on four vertices (tetrahedra).  This module reads that
decomposition off the cubic corners (:func:`find_tetrahedra`), recognizes
chain and cyclic silicates (:func:`classify_silicate`), and gives the
paper's lower bound on their edge metric dimension
(:func:`dimension_lower_bound`).

The bound counts *cubic sets*: the degree-3 vertices of one tetrahedron,
or of a *twin*, two tetrahedra sharing one hinge vertex.  An edge resolving
set leaves out at most one member of each.  On chain and cyclic silicates
the cubic sets with two or more members are exactly the edge masks of
:func:`silires.solver.edge_infeasibility_masks`: the simplicial members of
N[p] for a corner p, and of N[h] for a hinge h.  The solver proves the rule
for the masks of every graph and prunes by it.  For a set of cubic vertices,
leaving out at most one member of every mask is also sufficient on every
chain silicate and on cyclic silicates with n >= 4 (checked by sampling,
not proven), but not on the smallest cycle (n = 3): its three
corner-corner edges receive identical codes from every cubic vertex, so no
cubic-only set resolves its edges.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Optional

from .errors import StructureError, UnsupportedFamilyError
from .graphs import Graph, is_connected
from .silicates import CHAIN, CYCLIC, SilicateSpec


class TetrahedronKind(Enum):
    """Classification by the number of degree-3 (cubic) corners."""

    TYPE_I = "type-I"        # three cubic corners (chain ends)
    TYPE_II = "type-II"      # two cubic corners (interior / cyclic)
    ALL_CUBIC = "all-cubic"  # four cubic corners (an isolated tetrahedron)
    OTHER = "other"


@dataclass(frozen=True)
class Tetrahedron:
    vertices: tuple[int, int, int, int]
    cubic_vertices: tuple[int, ...]
    kind: TetrahedronKind


def _classify(g: Graph, vertices: tuple[int, ...]) -> Tetrahedron:
    cubic = tuple(v for v in vertices if g.degree(v) == 3)
    kind = {
        3: TetrahedronKind.TYPE_I,
        2: TetrahedronKind.TYPE_II,
        4: TetrahedronKind.ALL_CUBIC,
    }.get(len(cubic), TetrahedronKind.OTHER)
    return Tetrahedron(vertices=vertices, cubic_vertices=cubic, kind=kind)


def find_tetrahedra(g: Graph) -> list[Tetrahedron]:
    """Read the edge-disjoint tetrahedron cover off the cubic corners.

    A corner is a degree-3 vertex p whose three neighbours are pairwise
    adjacent.  p lies in exactly one K4, its closed neighbourhood N[p], so
    every edge-disjoint K4 cover holds N[p].  Every tetrahedron of a chain,
    cyclic or skeleton expansion has two or more corners (its vertices that
    are not base vertices among them), so these forced tetrahedra are the
    whole cover there, and a K4 of the base is never taken.  Returns the
    distinct N[p], sorted by vertex tuple.  Raises :class:`StructureError`
    naming the first edge, in edge order, that lies in no forced
    tetrahedron (a graph covered by corner-free K4s, such as K13, raises
    too) or in two of them (then no cover exists).
    """
    cells = sorted({
        tuple(sorted((p, *ns)))
        for p, ns in enumerate(g.adjacency)
        if len(ns) == 3 and all(g.has_edge(a, b) for a, b in combinations(ns, 2))
    })
    uses = Counter(e for cell in cells for e in combinations(cell, 2))
    for e in g.edges:
        if uses[e] != 1:
            where = f"{uses[e]} corner tetrahedra" if uses[e] else "no corner tetrahedron"
            raise StructureError(
                f"edge {e} lies in {where}; the cover read off "
                "the cubic corners needs exactly one"
            )
    return [_classify(g, cell) for cell in cells]


def dimension_lower_bound(spec: SilicateSpec) -> int:
    """Proven lower bound on the edge metric dimension of CS_n / CC_n.

    Derived from packing twin tetrahedra and charging each cubic set all but
    one of its vertices; the closed forms also cover the degenerate chain
    sizes n=1 (a lone K4 needs 3, as the odd form gives) and n=2 (a single
    twin with six cubic vertices needs 5).
    """
    n = spec.n
    if spec.family == CHAIN:
        if n % 2 == 0:
            return 3 * n // 2 + 2
        return 3 * (n + 1) // 2
    if spec.family == CYCLIC:
        if n % 2 == 0:
            return 3 * n // 2
        return 3 * (n + 1) // 2 - 1
    raise UnsupportedFamilyError(
        f"no proven lower bound for family {spec.family!r}"
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
    hinges = sum(len(ns) == 6 for ns in g.adjacency)
    twins = sorted(sum(g.degree(v) // 3 - 1 for v in t.vertices) for t in tetrahedra)
    if hinges == count - 1 and twins[:2] == [1, 1] and all(c == 2 for c in twins[2:]):
        return SilicateSpec(family=CHAIN, n=count)
    if count >= 3 and hinges == count and all(c == 2 for c in twins):
        return SilicateSpec(family=CYCLIC, n=count)
    return None
