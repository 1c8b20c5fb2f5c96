"""Structural analysis of silicate networks.

A silicate network is a graph whose edges split into vertex-sharing
complete graphs on four vertices (tetrahedra).  This module recovers that
decomposition, enumerates twin tetrahedra (pairs glued at one hinge
vertex), and evaluates the cubic-vertex conditions that bound the edge
metric dimension:

* necessary: an edge resolving set may omit at most one degree-3 vertex of
  any twin, because two omitted ones p, q make the hinge edges to p and q
  indistinguishable from everywhere else (two omitted degree-3 vertices
  of one tetrahedron fail the same way).  The solver prunes by the general
  form of this lemma, read off the graph's neighbourhoods without a cover
  (see :mod:`silires.solver`); :func:`find_twins` serves the condition
  checks here;
* sufficient (validated empirically on the generated families): at most one
  cubic vertex missing per twin, at least two chosen per three-cubic
  tetrahedron, at least one per two-cubic tetrahedron.

The sufficiency conditions are not universally valid: the smallest cyclic
silicate (n = 3) is a counterexample, because its three corner-corner
edges receive identical codes from every degree-3 vertex, so no cubic-only
set resolves the edges no matter how the conditions are met.  The
necessary condition, by contrast, is proven for every graph with an
edge-disjoint K4 cover.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Optional, Sequence

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


@dataclass(frozen=True)
class TwinTetrahedron:
    """Two tetrahedra sharing exactly one vertex (the hinge)."""

    left: Tetrahedron
    right: Tetrahedron
    hinge: int
    cubic_set: tuple[int, ...]


@dataclass(frozen=True)
class ConditionReport:
    """Result of the sufficiency check for a cubic landmark set.

    ``sufficient`` is true exactly when all violation lists are empty.
    Landmarks that are not degree-3 vertices do not participate in the
    conditions and are reported in ``ignored_non_cubic``.
    """

    twin_violations: tuple[TwinTetrahedron, ...]
    type1_violations: tuple[Tetrahedron, ...]
    type2_violations: tuple[Tetrahedron, ...]
    lone_violations: tuple[Tetrahedron, ...]
    ignored_non_cubic: tuple[int, ...]

    @property
    def sufficient(self) -> bool:
        return not (
            self.twin_violations
            or self.type1_violations
            or self.type2_violations
            or self.lone_violations
        )


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


def find_twins(g: Graph, tetrahedra: Sequence[Tetrahedron]) -> list[TwinTetrahedron]:
    """All unordered pairs of tetrahedra sharing exactly one vertex.

    Every hinge-sharing pair is returned, not only an edge-disjoint pairing:
    the exclusion bound applies to each such pair independently.
    """
    twins: list[TwinTetrahedron] = []
    for left, right in combinations(tetrahedra, 2):
        shared = set(left.vertices) & set(right.vertices)
        if len(shared) != 1:
            continue
        hinge = shared.pop()
        cubic = tuple(sorted(set(left.cubic_vertices) | set(right.cubic_vertices)))
        twins.append(
            TwinTetrahedron(left=left, right=right, hinge=hinge, cubic_set=cubic)
        )
    return twins


def check_necessary(
    landmarks: Sequence[int], twins: Sequence[TwinTetrahedron]
) -> list[TwinTetrahedron]:
    """Twins excluding two or more cubic vertices from the landmark set.

    A non-empty result proves the set cannot resolve the edges; an empty
    result is necessary but not sufficient.
    """
    chosen = set(landmarks)
    return [t for t in twins if len(set(t.cubic_set) - chosen) >= 2]


def check_sufficient(
    g: Graph,
    landmarks: Sequence[int],
    tetrahedra: Sequence[Tetrahedron],
    twins: Sequence[TwinTetrahedron],
) -> ConditionReport:
    """Evaluate the cubic-vertex sufficiency conditions for ``landmarks``.

    The conditions are stated for sets of degree-3 vertices; other members
    are ignored and reported.  An isolated all-cubic tetrahedron (a lone K4)
    needs three of its four vertices, matching its known dimension.
    ``sufficient=true`` implies edge-resolving on chain silicates and on
    cyclic silicates with n >= 4, but not on the n = 3 cycle (see module
    docstring).
    """
    ignored = tuple(sorted(v for v in landmarks if g.degree(v) != 3))
    chosen = {v for v in landmarks if g.degree(v) == 3}
    twin_bad = tuple(check_necessary(chosen, twins))
    type1_bad = []
    type2_bad = []
    lone_bad = []
    for tet in tetrahedra:
        hit = len(chosen.intersection(tet.cubic_vertices))
        if tet.kind is TetrahedronKind.TYPE_I and hit < 2:
            type1_bad.append(tet)
        elif tet.kind is TetrahedronKind.TYPE_II and hit < 1:
            type2_bad.append(tet)
        elif tet.kind is TetrahedronKind.ALL_CUBIC and hit < 3:
            lone_bad.append(tet)
    return ConditionReport(
        twin_violations=twin_bad,
        type1_violations=tuple(type1_bad),
        type2_violations=tuple(type2_bad),
        lone_violations=tuple(lone_bad),
        ignored_non_cubic=ignored,
    )


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
