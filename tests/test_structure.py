"""Tetrahedron decomposition, twins, cubic-set conditions, lower bounds."""

import random
from itertools import combinations

import pytest

from silires import (
    CHAIN,
    CYCLIC,
    SKELETON,
    SilicateSpec,
    StructureError,
    TetrahedronKind,
    UnsupportedFamilyError,
    build_graph,
    build_silicate,
    check_necessary,
    check_sufficient,
    classify_silicate,
    construct_for_spec,
    dimension_lower_bound,
    find_tetrahedra,
    find_twins,
    is_connected,
    is_edge_resolving,
    silicate_of_skeleton,
)

from hypothesis import given, settings

from silires.solver import edge_infeasibility_masks

from conftest import (
    complete_graph,
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
    tets = find_tetrahedra(g)
    return g, tets, find_twins(g, tets)


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
            assert sorted(t.vertices for t in found) == sorted(sil.tetrahedra)

    def test_output_sorted_by_vertex_tuple(self):
        _, tets, _ = decompose(CYCLIC, 6)
        assert [t.vertices for t in tets] == sorted(t.vertices for t in tets)

    def test_kind_counts_chain_7(self):
        _, tets, _ = decompose(CHAIN, 7)
        kinds = [t.kind for t in tets]
        assert kinds.count(TetrahedronKind.TYPE_I) == 2
        assert kinds.count(TetrahedronKind.TYPE_II) == 5

    def test_kind_counts_cyclic_8(self):
        _, tets, _ = decompose(CYCLIC, 8)
        assert all(t.kind is TetrahedronKind.TYPE_II for t in tets)

    def test_lone_tetrahedron_is_all_cubic(self):
        _, tets, _ = decompose(CHAIN, 1)
        assert len(tets) == 1
        assert tets[0].kind is TetrahedronKind.ALL_CUBIC
        assert tets[0].cubic_vertices == (0, 1, 2, 3)

    def test_cubic_vertices_have_degree_three(self):
        g, tets, _ = decompose(CYCLIC, 5)
        for t in tets:
            assert all(g.degree(v) == 3 for v in t.cubic_vertices)
            assert all(
                g.degree(v) == 6 for v in t.vertices if v not in t.cubic_vertices
            )

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
        assert [t.vertices for t in find_tetrahedra(g)] == sorted(sil.tetrahedra)
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
            assert [t.vertices for t in find_tetrahedra(g)] == expected, base.edges
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
    def test_twin_counts(self):
        for family, n, expected in [(CHAIN, 2, 1), (CHAIN, 6, 5), (CYCLIC, 3, 3), (CYCLIC, 6, 6)]:
            _, _, twins = decompose(family, n)
            assert len(twins) == expected

    def test_no_twins_in_lone_tetrahedron(self):
        _, _, twins = decompose(CHAIN, 1)
        assert twins == []

    def test_hinge_is_the_shared_vertex(self):
        _, _, twins = decompose(CHAIN, 4)
        for twin in twins:
            shared = set(twin.left.vertices) & set(twin.right.vertices)
            assert shared == {twin.hinge}

    def test_cubic_set_union(self):
        _, _, twins = decompose(CYCLIC, 4)
        for twin in twins:
            assert set(twin.cubic_set) == set(twin.left.cubic_vertices) | set(
                twin.right.cubic_vertices
            )

    def test_interior_twin_sizes_chain_6(self):
        # Pairing consecutive tetrahedra (1,2), (3,4), (5,6): the end pairs
        # carry five cubic vertices, the interior pair four.
        sil = build_silicate(SilicateSpec(family=CHAIN, n=6))
        _, tets, twins = decompose(CHAIN, 6)
        by_pair = {
            (twin.left.vertices, twin.right.vertices): len(twin.cubic_set)
            for twin in twins
        }
        t = sil.tetrahedra
        assert by_pair[(t[0], t[1])] == 5
        assert by_pair[(t[2], t[3])] == 4
        assert by_pair[(t[4], t[5])] == 5

    def test_consecutive_twin_cubic_sizes_in_range(self):
        for family, n in [(CHAIN, 3), (CHAIN, 8), (CYCLIC, 4), (CYCLIC, 9)]:
            _, _, twins = decompose(family, n)
            assert all(len(t.cubic_set) in (4, 5) for t in twins)

    def test_two_tetrahedron_chain_twin_has_six_cubics(self):
        # Both halves are 3-cubic tetrahedra, so the union has six members.
        _, _, twins = decompose(CHAIN, 2)
        assert len(twins) == 1
        assert len(twins[0].cubic_set) == 6


class TestCheckNecessary:
    def test_all_cubics_pass(self):
        g, tets, twins = decompose(CHAIN, 4)
        cubics = [v for v in range(g.vertex_count) if g.degree(v) == 3]
        assert check_necessary(cubics, twins) == []

    def test_two_missing_cubics_flagged_and_really_failing(self):
        g, _, twins = decompose(CHAIN, 2)
        landmarks = [v for v in range(g.vertex_count) if v not in (1, 2)]
        violations = check_necessary(landmarks, twins)
        assert len(violations) == 1
        assert not is_edge_resolving(g, landmarks).resolving

    def test_one_cubic_per_tetrahedron_fails_everywhere(self):
        g, tets, twins = decompose(CYCLIC, 4)
        landmarks = [t.cubic_vertices[0] for t in tets]
        violations = check_necessary(landmarks, twins)
        assert len(violations) == len(twins) == 4
        assert not is_edge_resolving(g, landmarks).resolving


class TestCheckSufficient:
    def test_constructed_set_is_sufficient_chain_6(self):
        sil, ers = construct_for_spec(SilicateSpec(family=CHAIN, n=6))
        tets = find_tetrahedra(sil.graph)
        twins = find_twins(sil.graph, tets)
        report = check_sufficient(sil.graph, ers, tets, twins)
        assert report.sufficient
        assert report.ignored_non_cubic == ()

    def test_all_cubics_sufficient_cyclic_8(self):
        g, tets, twins = decompose(CYCLIC, 8)
        cubics = [v for v in range(g.vertex_count) if g.degree(v) == 3]
        report = check_sufficient(g, cubics, tets, twins)
        assert report.sufficient
        assert is_edge_resolving(g, cubics).resolving

    def test_emptied_interior_tetrahedron_flagged(self):
        g, tets, twins = decompose(CHAIN, 5)
        cubics = {v for v in range(g.vertex_count) if g.degree(v) == 3}
        interior = next(t for t in tets if t.kind is TetrahedronKind.TYPE_II)
        landmarks = sorted(cubics - set(interior.cubic_vertices))
        report = check_sufficient(g, landmarks, tets, twins)
        assert not report.sufficient
        assert interior in report.type2_violations

    def test_non_cubic_members_ignored_and_reported(self):
        g, tets, twins = decompose(CHAIN, 3)
        cubics = [v for v in range(g.vertex_count) if g.degree(v) == 3]
        report = check_sufficient(g, cubics + [3, 6], tets, twins)
        assert report.sufficient
        assert report.ignored_non_cubic == (3, 6)

    def test_lone_tetrahedron_needs_three(self):
        g, tets, twins = decompose(CHAIN, 1)
        assert not check_sufficient(g, [0, 1], tets, twins).sufficient
        assert check_sufficient(g, [0, 1, 2], tets, twins).sufficient

    def test_sufficient_but_not_resolving_on_smallest_cycle(self):
        # The documented exception: conditions hold, the set still fails.
        g, tets, twins = decompose(CYCLIC, 3)
        cubics = [v for v in range(g.vertex_count) if g.degree(v) == 3]
        report = check_sufficient(g, cubics, tets, twins)
        assert report.sufficient
        assert not is_edge_resolving(g, cubics).resolving


class TestDimensionLowerBound:
    def test_chain_values(self):
        expected = {1: 3, 2: 5, 3: 6, 4: 8, 5: 9, 6: 11, 7: 12}
        for n, value in expected.items():
            assert dimension_lower_bound(SilicateSpec(family=CHAIN, n=n)) == value

    def test_cyclic_values(self):
        expected = {3: 5, 4: 6, 5: 8, 6: 9, 7: 11, 8: 12}
        for n, value in expected.items():
            assert dimension_lower_bound(SilicateSpec(family=CYCLIC, n=n)) == value

    def test_skeleton_unsupported(self):
        spec = SilicateSpec(family=SKELETON, n=0, skeleton=star_graph(3))
        with pytest.raises(UnsupportedFamilyError):
            dimension_lower_bound(spec)


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
