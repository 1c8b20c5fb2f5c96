"""Graph construction, BFS distances, and edge-to-vertex distances."""

import itertools

import numpy as np
import pytest

from silires import (
    DisconnectedGraphError,
    GraphInputError,
    all_pairs_distances,
    bfs_distances,
    build_graph,
    build_silicate,
    canonical_edge,
    edge_vertex_distance,
    is_connected,
)
from silires.graphs import distance_dtype
from silires.silicates import SilicateSpec

from conftest import (
    complete_graph,
    cycle_graph,
    family_graph,
    oracle_distance_matrix,
    path_graph,
    random_connected_graph,
)


class TestBuildGraph:
    def test_complete_graph_counts(self):
        g = complete_graph(4)
        assert g.vertex_count == 4
        assert g.edge_count == 6
        assert all(g.degree(v) == 3 for v in range(4))

    def test_duplicate_and_reversed_edges_collapse(self):
        g = build_graph(2, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1
        assert g.edges == ((0, 1),)

    def test_edges_stored_canonically_sorted(self):
        g = build_graph(4, [(3, 2), (1, 0), (2, 0)])
        assert g.edges == ((0, 1), (0, 2), (2, 3))
        assert all(u < v for u, v in g.edges)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphInputError):
            build_graph(3, [(0, 0), (0, 1), (1, 2)])

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(GraphInputError):
            build_graph(3, [(0, 3)])
        with pytest.raises(GraphInputError):
            build_graph(3, [(-1, 2)])

    def test_has_edge(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)

    def test_canonical_edge(self):
        assert canonical_edge(5, 2) == (2, 5)
        assert canonical_edge(2, 5) == (2, 5)


class TestConnectivity:
    def test_connected_graph(self):
        assert is_connected(path_graph(5))

    def test_disconnected_graph(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        assert not is_connected(g)

    def test_distance_functions_reject_disconnected(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError) as excinfo:
            all_pairs_distances(g)
        # The error names an unreachable vertex.
        assert any(str(v) in str(excinfo.value) for v in (2, 3))

    def test_single_vertex_is_connected(self):
        assert is_connected(build_graph(1, []))


class TestBfsDistances:
    def test_complete_graph(self):
        g = complete_graph(4)
        assert list(bfs_distances(g, 0)) == [0, 1, 1, 1]

    def test_path(self):
        g = path_graph(3)
        assert list(bfs_distances(g, 0)) == [0, 1, 2]

    def test_chain_private_to_next_tetra(self):
        g = family_graph("chain", 2)
        d = bfs_distances(g, 0)
        # Vertex 0 reaches the second tetrahedron only through the shared
        # corner 3, so every vertex there is at distance 2.
        assert d[3] == 1
        assert d[4] == d[5] == d[6] == 2

    def test_matches_oracle_on_families(self):
        for family, n in [("chain", 1), ("chain", 4), ("cyclic", 3), ("cyclic", 6)]:
            g = family_graph(family, n)
            expected = oracle_distance_matrix(g)
            dist = all_pairs_distances(g)
            assert np.array_equal(np.asarray(dist.d), expected)

    def test_matches_oracle_on_random_graphs(self):
        import random

        rng = random.Random(7)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(2, 30))
            expected = oracle_distance_matrix(g)
            dist = all_pairs_distances(g)
            assert np.array_equal(np.asarray(dist.d), expected)

    def test_cyclic_3_diameter_is_two(self):
        dist = all_pairs_distances(family_graph("cyclic", 3))
        assert int(np.max(dist.d)) == 2

    def test_distance_type_widens_past_int16(self):
        # Distances reach vertex_count - 1, so int16 holds up to 32768 vertices.
        assert distance_dtype(32768) is np.int16
        assert distance_dtype(32769) is np.int32
        assert all_pairs_distances(path_graph(5)).d.dtype == np.int16


class TestDistanceMatrixInvariants:
    @pytest.mark.parametrize("family,n", [("chain", 50), ("cyclic", 50)])
    def test_metric_axioms_and_adjacency(self, family, n):
        g = build_silicate(SilicateSpec(family=family, n=n)).graph
        d = np.asarray(all_pairs_distances(g).d)
        assert np.array_equal(d, d.T)
        assert np.array_equal(np.diag(d), np.zeros(g.vertex_count, dtype=d.dtype))
        # Triangle inequality through every intermediate vertex.
        assert (d[:, :, None] + d[None, :, :] >= d[:, None, :]).all()
        # Distance one exactly on adjacent pairs.
        adj = np.zeros_like(d, dtype=bool)
        for u, v in g.edges:
            adj[u, v] = adj[v, u] = True
        assert np.array_equal(d == 1, adj)


class TestEdgeVertexDistance:
    def test_incident_edge_is_zero(self):
        g = path_graph(4)
        dist = all_pairs_distances(g)
        assert edge_vertex_distance(dist, (1, 2), 1) == 0
        assert edge_vertex_distance(dist, (1, 2), 2) == 0

    def test_is_min_over_endpoints(self):
        g = family_graph("cyclic", 4)
        dist = all_pairs_distances(g)
        d = np.asarray(dist.d)
        for edge in g.edges:
            for w in range(g.vertex_count):
                assert edge_vertex_distance(dist, edge, w) == min(
                    d[edge[0]][w], d[edge[1]][w]
                )

    def test_complete_graph_values(self):
        g = complete_graph(4)
        dist = all_pairs_distances(g)
        for edge in g.edges:
            for w in range(4):
                expected = 0 if w in edge else 1
                assert edge_vertex_distance(dist, edge, w) == expected

    def test_incident_edges_differ_by_at_most_one(self):
        g = cycle_graph(9)
        dist = all_pairs_distances(g)
        for e, f in itertools.combinations(g.edges, 2):
            if not set(e) & set(f):
                continue
            for w in range(g.vertex_count):
                a = edge_vertex_distance(dist, e, w)
                b = edge_vertex_distance(dist, f, w)
                assert abs(a - b) <= 1
