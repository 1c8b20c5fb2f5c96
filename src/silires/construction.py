"""Constructive edge resolving sets for chain and cyclic silicates.

Each tetrahedron of the network receives an integer label saying how many
of its degree-3 (cubic) vertices join the landmark set.  The labelings
satisfy the cubic sufficiency conditions and their totals match the family
lower bounds, giving minimum edge resolving sets — with one genuine
exception: in the smallest cyclic silicate (n = 3) no set of degree-3
vertices resolves the edges at all (the three corner-corner edges receive
identical codes from every degree-3 vertex), so the size-5 construction
fails verification there and exhaustive search shows the true edge metric
dimension is 7.  Callers should verify constructed sets; the table command
does so and reports disagreements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, GraphInputError, UnsupportedFamilyError
from .graphs import vertex_ids
from .silicates import CHAIN, CYCLIC, LabeledSilicate, SilicateSpec, build_silicate
from .structure import dimension_lower_bound


@dataclass(frozen=True)
class Labeling:
    """Per-tetrahedron counts of cubic vertices to include as landmarks.

    Each label is taken through ``operator.index`` and ``labels`` is stored
    as a tuple of Python ints; a label that is not integral raises
    :class:`ConstructionError` naming it."""

    spec: SilicateSpec
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            labels = tuple(vertex_ids(self.labels, "label"))
        except GraphInputError as exc:
            raise ConstructionError(str(exc)) from None
        object.__setattr__(self, "labels", labels)
        if labels and (min(labels) < 1 or max(labels) > 3):
            raise ConstructionError("labels must lie in 1..3")

    @property
    def total(self) -> int:
        return sum(self.labels)


def labeling_chain(n: int) -> Labeling:
    """Label the n tetrahedra of a chain silicate.

    Degenerate sizes: a single tetrahedron needs 3 landmarks, a twin pair
    3 + 2.  For n >= 3 the two tetrahedra at each end get 2; interior
    positions 3..n-2 get 1 when odd and 2 when even, so every adjacent pair
    of tetrahedra misses at most one cubic vertex.
    """
    spec = SilicateSpec(family=CHAIN, n=n)
    if n == 1:
        return Labeling(spec=spec, labels=(3,))
    if n == 2:
        return Labeling(spec=spec, labels=(3, 2))
    labels = [2] * n
    labels[2 : n - 2 : 2] = [1] * len(range(2, n - 2, 2))  # the odd ones of 3..n-2
    return Labeling(spec=spec, labels=tuple(labels))


def labeling_cyclic(n: int) -> Labeling:
    """Label the n tetrahedra of a cyclic silicate.

    Positions alternate 1, 2, 1, 2, ...; when n is odd the last position is
    forced to 2 to keep the wrap-around pair from missing two cubic
    vertices.
    """
    spec = SilicateSpec(family=CYCLIC, n=n)
    labels = [1, 2] * (n // 2) + [2] * (n % 2)
    return Labeling(spec=spec, labels=tuple(labels))


def labeling_for(spec: SilicateSpec) -> Labeling:
    if spec.family == CHAIN:
        return labeling_chain(spec.n)
    if spec.family == CYCLIC:
        return labeling_cyclic(spec.n)
    raise UnsupportedFamilyError(
        f"no constructive labeling for family {spec.family!r}"
    )


def predicted_dimension(spec: SilicateSpec) -> int:
    """The paper's dimension value for the family: the closed form of
    :func:`~silires.structure.dimension_lower_bound`, which the labeling
    totals meet.

    Matches the exact edge metric dimension except for cyclic n = 3, where
    it undershoots (see module docstring).
    """
    return dimension_lower_bound(spec)


def construct_ers(
    silicate: LabeledSilicate, labeling: Labeling
) -> tuple[int, ...]:
    """Materialize a landmark set by picking labeled counts of cubic vertices.

    From tetrahedron i the first ``labels[i]`` ids of its degree-3
    vertices, ``silicate.private_vertices[i]`` (ascending, so the smallest
    ones), are taken, for every tetrahedron in one pass over the
    silicate's tetrahedron array and its graph's degrees.  Raises
    :class:`ConstructionError` naming the first tetrahedron with too few
    cubic vertices.
    """
    cells = silicate._cells
    cubic = silicate.graph._arcs.degree[cells] == 3
    if len(labeling.labels) != len(cells):
        raise ConstructionError(
            f"labeling has {len(labeling.labels)} entries for "
            f"{len(cells)} tetrahedra"
        )
    labels = np.array(labeling.labels, dtype=np.intp)
    have = cubic.sum(axis=1)
    short = (have < labels).nonzero()[0]
    if len(short):
        i = short[0]
        raise ConstructionError(
            f"tetrahedron {i} has {have[i]} cubic vertices, "
            f"label requires {labels[i]}"
        )
    chosen = cells[cubic & (cubic.cumsum(axis=1) <= labels[:, None])]
    return tuple(np.sort(chosen).tolist())


def construct_for_spec(spec: SilicateSpec) -> tuple[LabeledSilicate, tuple[int, ...]]:
    """Build the silicate and its constructed landmark set.

    The set has the closed-form size and is a minimum edge resolving set on
    every instance except cyclic n = 3, where it does not resolve (see the
    module docstring).
    """
    silicate = build_silicate(spec)
    labeling = labeling_for(spec)
    return silicate, construct_ers(silicate, labeling)
