"""Constructive edge resolving sets for chain and cyclic silicates.

Each tetrahedron of the network receives an integer label saying how many
of its degree-3 (cubic) vertices join the landmark set.  A labeling is a
plain tuple of ints, one per tetrahedron in the order of
``silicate.tetrahedra``, and :func:`construct_ers`, which reads it, is
the one place that checks it.  The labelings
satisfy the cubic sufficiency conditions and their totals meet the paper's
lower bound, :func:`predicted_dimension`, giving minimum edge resolving
sets — with one genuine exception: in the smallest cyclic silicate (n = 3)
no set of degree-3 vertices resolves the edges at all (the three
corner-corner edges receive identical codes from every degree-3 vertex),
so the size-5 construction fails verification there and exhaustive search
shows the true edge metric dimension is 7.  Callers should verify
constructed sets; the table command does so and reports disagreements.

The bound counts *cubic sets*: the degree-3 vertices of one tetrahedron,
or of a *twin*, two tetrahedra sharing one hinge vertex.  An edge resolving
set leaves out at most one member of each.  On chain and cyclic silicates
the cubic sets with two or more members are exactly the edge masks of
:func:`silires.solver.edge_infeasibility_masks`: the simplicial members of
N[p] for a corner p, and of N[h] for a hinge h.  The solver proves the rule
for the masks of every graph and prunes by it.  For a set of cubic vertices,
leaving out at most one member of every mask is also sufficient on every
chain silicate and on cyclic silicates with n >= 4 (checked by sampling,
not proven), but not on the smallest cycle.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import ConstructionError, GraphInputError, UnsupportedFamilyError
from .graphs import vertex_ids
from .silicates import CHAIN, CYCLIC, LabeledSilicate, SilicateSpec, build_silicate


def labeling_chain(n: int) -> tuple[int, ...]:
    """Label the n tetrahedra of a chain silicate.

    Degenerate sizes: a single tetrahedron needs 3 landmarks, a twin pair
    3 + 2.  For n >= 3 the two tetrahedra at each end get 2; interior
    positions 3..n-2 get 1 when odd and 2 when even, so every adjacent pair
    of tetrahedra misses at most one cubic vertex.  ``n`` is checked as by
    :class:`SilicateSpec`.
    """
    n = SilicateSpec(CHAIN, n).n
    if n == 1:
        return (3,)
    if n == 2:
        return (3, 2)
    labels = [2] * n
    labels[2 : n - 2 : 2] = [1] * len(range(2, n - 2, 2))  # the odd ones of 3..n-2
    return tuple(labels)


def labeling_cyclic(n: int) -> tuple[int, ...]:
    """Label the n tetrahedra of a cyclic silicate.

    Positions alternate 1, 2, 1, 2, ...; when n is odd the last position is
    forced to 2 to keep the wrap-around pair from missing two cubic
    vertices.  ``n`` is checked as by :class:`SilicateSpec`.
    """
    n = SilicateSpec(CYCLIC, n).n
    return tuple([1, 2] * (n // 2) + [2] * (n % 2))


def labeling_for(spec: SilicateSpec) -> tuple[int, ...]:
    if spec.family == CHAIN:
        return labeling_chain(spec.n)
    if spec.family == CYCLIC:
        return labeling_cyclic(spec.n)
    raise UnsupportedFamilyError(
        f"no constructive labeling for family {spec.family!r}"
    )


def predicted_dimension(spec: SilicateSpec) -> int:
    """The paper's closed form for the family: the proven lower bound on
    the edge metric dimension of CS_n / CC_n (module docstring) and the
    total of :func:`labeling_for`, exact except for cyclic n = 3 (exact 7).

    The even and odd forms, 3n/2 + 2 and 3(n + 1)/2 for chains, 3n/2 and
    3(n + 1)/2 - 1 for cycles, are one floor each: 3n // 2 and
    (3n + 1) // 2 are 3n/2 for even n, and for odd n (3n - 1)/2 =
    3(n + 1)/2 - 2 and (3n + 1)/2 = 3(n + 1)/2 - 1.  They cover the
    degenerate chains n = 1 (a lone K4 needs 3) and n = 2 (one twin of six
    cubic vertices needs 5) too.  Raises :class:`UnsupportedFamilyError`
    for the skeleton family.
    """
    if spec.family == CHAIN:
        return 3 * spec.n // 2 + 2
    if spec.family == CYCLIC:
        return (3 * spec.n + 1) // 2
    raise UnsupportedFamilyError(
        f"no proven lower bound for family {spec.family!r}"
    )


def construct_ers(
    silicate: LabeledSilicate, labels: Iterable[int]
) -> tuple[int, ...]:
    """Materialize a landmark set by picking labeled counts of cubic vertices.

    From tetrahedron i the first ``labels[i]`` ids of its degree-3
    vertices, ``silicate.private_vertices[i]`` (ascending, so the smallest
    ones), are taken, for every tetrahedron in one pass over the
    silicate's tetrahedron array and its graph's degrees.

    This is the one check of the labels.  Each is taken through
    ``operator.index``, so numpy integers give the set of the equal ints.
    Raises :class:`ConstructionError`, in this order, for labels that are
    not iterable or not integral, for the first label outside 1..3 (naming
    its tetrahedron), for a label count other than the tetrahedron count,
    and for the first tetrahedron with too few cubic vertices.
    """
    try:
        labels = vertex_ids(labels, "label")
    except GraphInputError as exc:
        raise ConstructionError(str(exc)) from None
    if labels and (min(labels) < 1 or max(labels) > 3):
        i = next(i for i, x in enumerate(labels) if not 1 <= x <= 3)
        raise ConstructionError(
            f"label {labels[i]} of tetrahedron {i} does not lie in 1..3"
        )
    cells = silicate._cells
    if len(labels) != len(cells):
        raise ConstructionError(
            f"labeling has {len(labels)} entries for {len(cells)} tetrahedra"
        )
    cubic = silicate.graph._arcs.degree[cells] == 3
    labels = np.array(labels, dtype=np.intp)
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
    return silicate, construct_ers(silicate, labeling_for(spec))
