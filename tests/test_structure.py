"""Tetrahedron decomposition, cubic sets as edge masks, and family
recognition."""

import random
from itertools import combinations

import pytest

from silires import (
    CHAIN,
    CYCLIC,
    SKELETON,
    SilicateSpec,
    StructureError,
    build_graph,
    build_silicate,
    classify_silicate,
    construct_for_spec,
    find_tetrahedra,
    is_connected,
    is_edge_resolving,
    silicate_of_skeleton,
)

from hypothesis import given, settings

from silires.solver import edge_infeasibility_masks

from conftest import (
    complete_graph,
    cubic_members,
    cycle_graph,
    family_graph,
    path_graph,
    relabeled,
    star_graph,
    structure_cases,
    twin_classify_silicate,
)


def disjoint_union(*graphs):
    edges, shift = [], 0
    for g in graphs:
        edges += [(u + shift, v + shift) for u, v in g.edges]
        shift += g.vertex_count
    return build_graph(shift, edges)


def connected_bases(max_vertices):
    """Every connected labeled graph on 2 to ``max_vertices`` vertices."""
    for n in range(2, max_vertices + 1):
        pairs = list(combinations(range(n), 2))
        for bits in range(1, 1 << len(pairs)):
            g = build_graph(n, [p for i, p in enumerate(pairs) if bits >> i & 1])
            if is_connected(g):
                yield g


def decompose(family, n):
    g = family_graph(family, n)
    return g, find_tetrahedra(g), edge_infeasibility_masks(g)


def bits(vertices):
    return sum(1 << v for v in vertices)


def members(mask):
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def short_masks(masks, landmarks):
    """The masks leaving two or more members out of ``landmarks``: some
    mask is short exactly when the cubic-set rule fails."""
    chosen = bits(landmarks)
    return [m for m in masks if (m & ~chosen).bit_count() >= 2]


def twin_masks(masks):
    """The masks of the twins of a chain or cyclic silicate with n >= 2:
    a twin's cubic set has four or more members, a tetrahedron's at most
    three."""
    return [m for m in masks if m.bit_count() >= 4]


def cubic_vertices(g):
    return [v for v in range(g.vertex_count) if g.degree(v) == 3]


class TestFindTetrahedra:
    def test_recovers_generator_tetrahedra(self):
        cases = [(CHAIN, 1), (CHAIN, 5), (CYCLIC, 3), (CYCLIC, 8)]
        specs = [SilicateSpec(family=family, n=n) for family, n in cases]
        # The expansion of a base holding a K4 holds that K4 too, outside
        # its cover.
        specs += [SilicateSpec(family=SKELETON, skeleton=complete_graph(k)) for k in (4, 5)]
        for spec in specs:
            sil = build_silicate(spec)
            found = find_tetrahedra(sil.graph)
            assert found == tuple(sorted(sil.tetrahedra))

    def test_output_sorted_by_vertex_tuple(self):
        _, tets, _ = decompose(CYCLIC, 6)
        assert all(list(t) == sorted(t) and len(t) == 4 for t in tets)
        assert list(tets) == sorted(tets)

    def test_kind_counts_chain_7(self):
        # Two ends with three cubic corners, five interior tetrahedra with two.
        g, tets, _ = decompose(CHAIN, 7)
        counts = [len(cubic_members(g, t)) for t in tets]
        assert counts.count(3) == 2
        assert counts.count(2) == 5

    def test_kind_counts_cyclic_8(self):
        g, tets, _ = decompose(CYCLIC, 8)
        assert all(len(cubic_members(g, t)) == 2 for t in tets)

    def test_lone_tetrahedron_is_all_cubic(self):
        g, tets, _ = decompose(CHAIN, 1)
        assert tets == ((0, 1, 2, 3),)
        assert cubic_members(g, tets[0]) == (0, 1, 2, 3)

    def test_cubic_vertices_have_degree_three(self):
        # Every corner of a cyclic silicate's tetrahedron is cubic or a hinge.
        g, tets, _ = decompose(CYCLIC, 5)
        for t in tets:
            assert sorted(g.degree(v) for v in t) == [3, 3, 6, 6]

    def test_uncoverable_graph_raises_naming_an_edge(self):
        g = path_graph(4)
        with pytest.raises(StructureError) as excinfo:
            find_tetrahedra(g)
        assert "(0, 1)" in str(excinfo.value)

    def test_cycle_graph_not_coverable(self):
        with pytest.raises(StructureError):
            find_tetrahedra(cycle_graph(6))

    def test_corner_rule_covers_the_k4_skeleton(self):
        # Each tetrahedron of the expansion, one per base edge, has two
        # cubic corners, so the rule takes those and never the base K4
        # {0, 1, 2, 3}, which has none; the graph is neither chain nor
        # cyclic.  The masks need no cover: the cubic pair of each
        # tetrahedron, and the six cubic vertices of the three tetrahedra
        # through each base vertex.
        sil = silicate_of_skeleton(complete_graph(4))
        g = sil.graph
        assert find_tetrahedra(g) == tuple(sorted(sil.tetrahedra))
        cubic = [sum(1 << v for v in t if g.degree(v) == 3) for t in sil.tetrahedra]
        through = [
            sum(c for c, t in zip(cubic, sil.tetrahedra) if base in t)
            for base in range(4)
        ]
        assert edge_infeasibility_masks(g) == sorted(cubic + through)
        assert classify_silicate(g) is None

    @pytest.mark.parametrize(
        "g",
        [
            complete_graph(13),  # 13 edge-disjoint K4s, but no cubic corner
            # two K4s on the edge (0, 1), both forced by their corners
            build_graph(6, [*combinations((0, 1, 2, 3), 2), *combinations((0, 1, 4, 5), 2)]),
        ],
        ids=["K13", "two-K4s-on-an-edge"],
    )
    def test_edge_outside_one_corner_tetrahedron_raises(self, g):
        with pytest.raises(StructureError) as excinfo:
            find_tetrahedra(g)
        assert "(0, 1)" in str(excinfo.value)
        assert classify_silicate(g) is None

    def test_every_expansion_of_a_small_base(self):
        # All 771 connected labeled bases on 2-5 vertices, each expansion
        # under a uniform relabeling: the cover is the generator's
        # tetrahedra, and the family is the shape of the base.
        rng = random.Random(20261019)
        bases = list(connected_bases(5))
        assert len(bases) == 771
        for base in bases:
            sil = build_silicate(SilicateSpec(family=SKELETON, skeleton=base))
            perm = list(range(sil.graph.vertex_count))
            rng.shuffle(perm)
            g = build_graph(len(perm), [(perm[u], perm[v]) for u, v in sil.graph.edges])
            expected = sorted(tuple(sorted(perm[v] for v in t)) for t in sil.tetrahedra)
            assert find_tetrahedra(g) == tuple(expected), base.edges
            degrees = sorted(map(len, base.adjacency))
            m = base.edge_count
            if m == base.vertex_count - 1 and degrees[-1] <= 2:
                shape = SilicateSpec(family=CHAIN, n=m)
            elif m == base.vertex_count and degrees == [2] * m:
                shape = SilicateSpec(family=CYCLIC, n=m)
            else:
                shape = None
            assert classify_silicate(g) == shape, base.edges


class TestFindTwins:
    """Twins, two tetrahedra sharing one hinge vertex h, as edge masks: the
    twin's cubic set is the simplicial part of N[h]."""

    def test_twin_counts(self):
        for family, n, expected in [(CHAIN, 2, 1), (CHAIN, 6, 5), (CYCLIC, 3, 3), (CYCLIC, 6, 6)]:
            g, _, masks = decompose(family, n)
            hinges = sum(g.degree(v) == 6 for v in range(g.vertex_count))
            assert len(twin_masks(masks)) == hinges == expected

    def test_no_twins_in_lone_tetrahedron(self):
        # The one mask is the whole K4: a set must keep three of it.
        _, tets, masks = decompose(CHAIN, 1)
        assert masks == [bits(tets[0])] == [0b1111]

    def test_hinge_is_the_shared_vertex(self):
        g, tets, masks = decompose(CHAIN, 4)
        hinges = [v for v in range(g.vertex_count) if g.degree(v) == 6]
        cubic_around = [bits(w for w in g.adjacency[h] if g.degree(w) == 3) for h in hinges]
        assert sorted(cubic_around) == twin_masks(masks)
        for h in hinges:
            left, right = [t for t in tets if h in t]
            assert set(left) & set(right) == {h}

    def test_cubic_set_union(self):
        g, tets, masks = decompose(CYCLIC, 4)
        unions = [
            bits(cubic_members(g, left + right))
            for left, right in combinations(tets, 2)
            if len(set(left) & set(right)) == 1
        ]
        assert sorted(unions) == twin_masks(masks)

    def test_interior_twin_sizes_chain_6(self):
        # Pairing consecutive tetrahedra (1,2), (3,4), (5,6): the end pairs
        # carry five cubic vertices, the interior pair four.
        sil = build_silicate(SilicateSpec(family=CHAIN, n=6))
        g, _, masks = decompose(CHAIN, 6)
        t = sil.tetrahedra

        def twin_size(left, right):
            mask = bits(v for v in left + right if g.degree(v) == 3)
            assert mask in masks
            return mask.bit_count()

        assert twin_size(t[0], t[1]) == 5
        assert twin_size(t[2], t[3]) == 4
        assert twin_size(t[4], t[5]) == 5

    def test_consecutive_twin_cubic_sizes_in_range(self):
        # One mask per tetrahedron (its two or three cubic vertices) and one
        # per twin (four or five; six only at chain 2, below).
        for family, first in ((CHAIN, 3), (CYCLIC, 3)):
            for n in range(first, 41):
                g, tets, masks = decompose(family, n)
                twins = twin_masks(masks)
                assert len(twins) == n - (family == CHAIN), (family, n)
                assert all(m.bit_count() in (4, 5) for m in twins), (family, n)
                rest = sorted(set(masks) - set(twins))
                assert rest == sorted(bits(cubic_members(g, t)) for t in tets), (family, n)

    def test_two_tetrahedron_chain_twin_has_six_cubics(self):
        # Both halves are 3-cubic tetrahedra, so the twin's mask is all six.
        g, _, masks = decompose(CHAIN, 2)
        assert [m.bit_count() for m in masks] == [3, 3, 6]
        assert twin_masks(masks) == [bits(cubic_vertices(g))]


class TestCheckNecessary:
    """A set that leaves two members of one mask out does not resolve."""

    def test_all_cubics_pass(self):
        g, _, masks = decompose(CHAIN, 4)
        assert short_masks(masks, cubic_vertices(g)) == []

    def test_two_missing_cubics_flagged_and_really_failing(self):
        # 1 and 2 are cubic corners of the first tetrahedron: its mask and
        # the twin's are short.
        g, _, masks = decompose(CHAIN, 2)
        landmarks = [v for v in range(g.vertex_count) if v not in (1, 2)]
        assert short_masks(masks, landmarks) == [0b111, 0b1110111]
        assert not is_edge_resolving(g, landmarks).resolving

    def test_one_cubic_per_tetrahedron_fails_everywhere(self):
        g, tets, masks = decompose(CYCLIC, 4)
        landmarks = [cubic_members(g, t)[0] for t in tets]
        violations = short_masks(masks, landmarks)
        assert violations == twin_masks(masks)
        assert len(violations) == 4
        assert not is_edge_resolving(g, landmarks).resolving


class TestCheckSufficient:
    """Cubic sets leaving at most one member of every mask out resolve the
    edges of every chain and of every cycle but the smallest."""

    def test_constructed_set_is_sufficient_chain_6(self):
        sil, ers = construct_for_spec(SilicateSpec(family=CHAIN, n=6))
        assert all(sil.graph.degree(v) == 3 for v in ers)
        assert short_masks(edge_infeasibility_masks(sil.graph), ers) == []

    def test_all_cubics_sufficient_cyclic_8(self):
        g, _, masks = decompose(CYCLIC, 8)
        cubics = cubic_vertices(g)
        assert short_masks(masks, cubics) == []
        assert is_edge_resolving(g, cubics).resolving

    def test_emptied_interior_tetrahedron_flagged(self):
        g, tets, masks = decompose(CHAIN, 5)
        interior = next(cubic_members(g, t) for t in tets if len(cubic_members(g, t)) == 2)
        landmarks = sorted(set(cubic_vertices(g)) - set(interior))
        assert bits(interior) in short_masks(masks, landmarks)
        assert not is_edge_resolving(g, landmarks).resolving

    def test_non_cubic_members_ignored_and_reported(self):
        # The masks hold cubic vertices only, so hinges change no count.
        g, _, masks = decompose(CHAIN, 3)
        cubics = cubic_vertices(g)
        assert set().union(*map(members, masks)) == set(cubics)
        assert short_masks(masks, cubics + [3, 6]) == short_masks(masks, cubics) == []
        assert is_edge_resolving(g, cubics + [3, 6]).resolving

    def test_lone_tetrahedron_needs_three(self):
        _, _, masks = decompose(CHAIN, 1)
        assert short_masks(masks, [0, 1]) == [0b1111]
        assert short_masks(masks, [0, 1, 2]) == []

    def test_sufficient_but_not_resolving_on_smallest_cycle(self):
        # The documented exception: no mask is short, the set still fails.
        g, _, masks = decompose(CYCLIC, 3)
        cubics = cubic_vertices(g)
        assert short_masks(masks, cubics) == []
        assert not is_edge_resolving(g, cubics).resolving


class TestClassifySilicate:
    @pytest.mark.parametrize(
        "family,n",
        [(CHAIN, 1), (CHAIN, 2), (CHAIN, 3), (CHAIN, 10), (CYCLIC, 3), (CYCLIC, 4), (CYCLIC, 10)],
    )
    def test_families_recognized(self, family, n):
        g = family_graph(family, n)
        spec = classify_silicate(g)
        assert spec is not None
        assert (spec.family, spec.n) == (family, n)

    @pytest.mark.parametrize("family,first", [(CHAIN, 1), (CYCLIC, 3)])
    def test_relabeled_families_recognized(self, family, first):
        rng = random.Random(7)
        for n in range(first, 41):
            g = relabeled(family_graph(family, n), rng)
            assert classify_silicate(g) == SilicateSpec(family=family, n=n), n

    def test_non_silicates_rejected(self):
        assert classify_silicate(path_graph(5)) is None
        assert classify_silicate(cycle_graph(6)) is None

    def test_star_skeleton_not_a_family_member(self):
        g = silicate_of_skeleton(star_graph(3)).graph
        assert classify_silicate(g) is None

    def test_path_beside_a_three_tetrahedra_hinge_rejected(self):
        # Twin counts 1, 1, 2, 2, 2 as in chain 5, but one hinge of three
        # tetrahedra stands for three twins.
        g = disjoint_union(
            family_graph(CHAIN, 2), silicate_of_skeleton(star_graph(3)).graph
        )
        assert classify_silicate(g) is None
        assert twin_classify_silicate(g) is None

    @pytest.mark.parametrize(
        "parts",
        [
            [(CYCLIC, 3), (CYCLIC, 3)],  # hinge and twin counts of cyclic 6
            [(CHAIN, 2), (CYCLIC, 3)],  # those of chain 5
            [(CYCLIC, 4), (CYCLIC, 5)],  # those of cyclic 9
        ],
    )
    def test_disjoint_unions_rejected(self, parts):
        g = disjoint_union(*(family_graph(family, n) for family, n in parts))
        assert classify_silicate(g) is None

    @pytest.mark.parametrize("n", [1, 3])
    def test_isolated_vertex_beside_a_chain_rejected(self, n):
        g = disjoint_union(family_graph(CHAIN, n), build_graph(1, []))
        assert classify_silicate(g) is None

    @settings(max_examples=60, deadline=None)
    @given(structure_cases())
    def test_matches_the_twin_graph_reference(self, case):
        _, g = case
        assert classify_silicate(g) == twin_classify_silicate(g)
