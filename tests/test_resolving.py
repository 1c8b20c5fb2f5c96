"""Vertex/edge codes and resolving-set verification."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from silires import (
    DisconnectedGraphError,
    GraphInputError,
    all_pairs_distances,
    build_graph,
    edge_code,
    edge_code_table,
    is_edge_resolving,
    is_vertex_resolving,
    vertex_code,
    vertex_code_table,
)
from silires.resolving import (
    edge_rows,
    first_duplicate_rows,
    landmark_rows,
    validate_landmarks,
)

from conftest import (
    complete_graph,
    family_graph,
    oracle_distance_matrix,
    oracle_edge_codes,
    path_graph,
)


class TestCodes:
    def test_vertex_code_zero_at_own_landmark(self):
        g = family_graph("chain", 3)
        dist = all_pairs_distances(g)
        landmarks = (0, 4, 8)
        for i, s in enumerate(landmarks):
            code = vertex_code(dist, s, landmarks)
            assert code[i] == 0

    def test_vertex_code_complete_graph(self):
        g = complete_graph(4)
        dist = all_pairs_distances(g)
        assert vertex_code(dist, 3, (0, 1, 2)) == (1, 1, 1)

    def test_vertex_code_chain_shared_corner(self):
        g = family_graph("chain", 2)
        dist = all_pairs_distances(g)
        # One private per tetrahedron; the shared corner 3 touches both.
        assert vertex_code(dist, 3, (0, 4)) == (1, 1)

    def test_edge_code_zero_iff_landmark_incident(self):
        g = family_graph("cyclic", 4)
        dist = all_pairs_distances(g)
        landmarks = (1, 7)
        for e in g.edges:
            code = edge_code(dist, e, landmarks)
            for i, s in enumerate(landmarks):
                assert (code[i] == 0) == (s in e)

    def test_edge_code_matches_oracle(self):
        g = family_graph("cyclic", 5)
        dist = all_pairs_distances(g)
        landmarks = (0, 2, 7, 11)
        oracle = oracle_edge_codes(g, oracle_distance_matrix(g), landmarks)
        assert [edge_code(dist, e, landmarks) for e in g.edges] == oracle


    def test_edge_code_table_is_edge_rows_transposed(self):
        for family, n in [("chain", 6), ("cyclic", 7)]:
            g = family_graph(family, n)
            landmarks = (1, 5, 8, 13)
            rows = landmark_rows(g, landmarks)
            table = edge_code_table(g, landmarks)
            assert table.dtype == rows.dtype
            assert np.array_equal(table, edge_rows(g, rows).T)
            oracle = oracle_edge_codes(g, oracle_distance_matrix(g), landmarks)
            assert table.tolist() == [list(code) for code in oracle]


def brute_first_duplicate(table):
    """The lexicographically first pair (i, j), i < j, of equal rows."""
    rows = table.tolist()
    pairs = itertools.combinations(range(len(rows)), 2)
    return next(((i, j) for i, j in pairs if rows[i] == rows[j]), None)


@st.composite
def code_tables(draw):
    """An int16 or int32 table of 0-30 rows and 0-6 columns over few values,
    so that rows collide, sometimes as a non-contiguous view."""
    dtype = draw(st.sampled_from([np.int16, np.int32]))
    rows, cols = draw(st.integers(0, 30)), draw(st.integers(0, 6))
    top = draw(st.sampled_from([1, 2, 3, 40000 if dtype is np.int32 else 300]))
    values = draw(st.lists(st.integers(-top, top), min_size=rows * cols, max_size=rows * cols))
    table = np.array(values, dtype=dtype).reshape(rows, cols)
    if draw(st.booleans()):
        table = np.asfortranarray(table)
    return table


class TestFirstDuplicateRows:
    @settings(max_examples=400)
    @given(code_tables())
    def test_matches_brute_force(self, table):
        assert first_duplicate_rows(table) == brute_first_duplicate(table)

    @pytest.mark.parametrize("dtype", [np.int16, np.int32])
    def test_zero_columns(self, dtype):
        assert first_duplicate_rows(np.zeros((0, 0), dtype=dtype)) is None
        assert first_duplicate_rows(np.zeros((1, 0), dtype=dtype)) is None
        assert first_duplicate_rows(np.zeros((5, 0), dtype=dtype)) == (0, 1)

    @pytest.mark.parametrize("dtype", [np.int16, np.int32])
    def test_one_row_and_all_equal(self, dtype):
        assert first_duplicate_rows(np.array([[4, 2]], dtype=dtype)) is None
        assert first_duplicate_rows(np.full((6, 3), 7, dtype=dtype)) == (0, 1)

    @pytest.mark.parametrize("dtype", [np.int16, np.int32])
    def test_several_groups(self, dtype):
        # Groups {1, 4, 6}, {2, 3} and {0, 5}: the pair (0, 5) comes first.
        table = np.array([[9], [1], [2], [2], [1], [9], [1]], dtype=dtype)
        assert first_duplicate_rows(table) == (0, 5)
        assert first_duplicate_rows(table[1:]) == (0, 3)
        assert first_duplicate_rows(table[2:5]) == (0, 1)

    def test_rows_compared_on_every_byte(self):
        # 256 and 1 share one of their two bytes.
        table = np.array([[256], [1], [256]], dtype=np.int16)
        assert first_duplicate_rows(table) == (0, 2)


class TestLandmarkValidation:
    @pytest.mark.parametrize("bad", [0.9, np.float64(1.0), "1"])
    def test_non_integral_rejected(self, bad):
        g = path_graph(3)
        with pytest.raises(GraphInputError, match="is not an integer"):
            validate_landmarks(g, [bad, 2.2])
        for check in (is_edge_resolving, is_vertex_resolving):
            with pytest.raises(GraphInputError, match="is not an integer"):
                check(g, [bad])

    def test_numpy_ids_become_python_ints(self):
        g = path_graph(4)
        lm = validate_landmarks(g, np.array([3, 0], dtype=np.int64))
        assert lm == (3, 0) and all(type(v) is int for v in lm)
        assert is_edge_resolving(g, np.array([0])).resolving

    def test_duplicates_rejected(self):
        g = path_graph(4)
        with pytest.raises(GraphInputError):
            is_edge_resolving(g, [1, 1])

    def test_out_of_range_rejected(self):
        g = path_graph(4)
        with pytest.raises(GraphInputError):
            is_vertex_resolving(g, [0, 4])


class TestEdgeResolving:
    def test_any_three_vertices_resolve_single_tetrahedron(self):
        g = complete_graph(4)
        for s in itertools.combinations(range(4), 3):
            assert is_edge_resolving(g, s).resolving

    def test_no_two_vertices_resolve_single_tetrahedron(self):
        g = complete_graph(4)
        for s in itertools.combinations(range(4), 2):
            result = is_edge_resolving(g, s)
            assert not result.resolving
            assert result.witness is not None

    def test_witness_pair_really_collides(self):
        g = family_graph("chain", 2)
        result = is_edge_resolving(g, [0, 3])
        assert not result.resolving
        e, f = result.witness
        dist = all_pairs_distances(g)
        assert edge_code(dist, e, (0, 3)) == edge_code(dist, f, (0, 3))
        assert tuple(e) < tuple(f)

    def test_twin_with_two_missing_cubics_collides_at_shared_corner(self):
        # Omit cubic vertices 1 and 2 of the first tetrahedron: the edges
        # joining them to the shared corner 3 become indistinguishable.
        g = family_graph("chain", 2)
        landmarks = [v for v in range(g.vertex_count) if v not in (1, 2)]
        result = is_edge_resolving(g, landmarks)
        assert not result.resolving
        dist = all_pairs_distances(g)
        assert edge_code(dist, (1, 3), landmarks) == edge_code(dist, (2, 3), landmarks)

    def test_empty_set_fails_with_first_two_edges(self):
        g = path_graph(4)
        result = is_edge_resolving(g, [])
        assert not result.resolving
        assert result.witness == ((0, 1), (1, 2))

    def test_single_edge_graph_trivially_resolved(self):
        g = path_graph(2)
        assert is_edge_resolving(g, []).resolving

    def test_path_resolved_by_one_end(self):
        assert is_edge_resolving(path_graph(6), [0]).resolving

    def test_full_vertex_set_resolves_families(self):
        for family, n in [("chain", 4), ("cyclic", 5)]:
            g = family_graph(family, n)
            assert is_edge_resolving(g, range(g.vertex_count)).resolving


class TestVertexResolving:
    def test_complete_graph_needs_all_but_one(self):
        g = complete_graph(4)
        for s in itertools.combinations(range(4), 2):
            assert not is_vertex_resolving(g, s).resolving
        for s in itertools.combinations(range(4), 3):
            assert is_vertex_resolving(g, s).resolving

    def test_path_resolved_by_one_end(self):
        assert is_vertex_resolving(path_graph(6), [0]).resolving
        assert not is_vertex_resolving(path_graph(6), [2]).resolving

    def test_distances_beyond_int16(self):
        g = path_graph(40000)
        table = vertex_code_table(g, [0])
        assert table[-1, 0] == 39999
        assert is_vertex_resolving(g, [0]).resolving
        assert is_edge_resolving(g, [0]).resolving

    def test_witness_is_lex_first_vertex_pair(self):
        g = complete_graph(4)
        result = is_vertex_resolving(g, [0])
        assert not result.resolving
        assert result.witness == (1, 2)

    def test_empty_set_fails(self):
        result = is_vertex_resolving(path_graph(3), [])
        assert not result.resolving
        assert result.witness == (0, 1)


class TestDisconnectedGraph:
    @pytest.mark.parametrize("check", [is_edge_resolving, is_vertex_resolving])
    @pytest.mark.parametrize("landmarks", [[], [0], [2, 3]])
    def test_every_set_raises(self, check, landmarks):
        # The empty set is measured like any other, so it raises too.
        g = build_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            check(g, landmarks)

    @pytest.mark.parametrize("table", [landmark_rows, edge_code_table, vertex_code_table])
    def test_empty_set_tables_raise(self, table):
        with pytest.raises(DisconnectedGraphError):
            table(build_graph(4, [(0, 1), (2, 3)]), [])


class TestGivenDistanceMatrix:
    @pytest.mark.parametrize("check", [is_edge_resolving, is_vertex_resolving])
    def test_same_verdict_and_witness_as_bfs(self, check):
        g = family_graph("cyclic", 4)
        dist = all_pairs_distances(g)
        for landmarks in [(), *itertools.combinations(range(0, g.vertex_count, 2), 3)]:
            assert check(g, landmarks, dist=dist) == check(g, landmarks)
        full = tuple(range(g.vertex_count))
        assert check(g, full, dist=dist) == check(g, full)

    @pytest.mark.parametrize("check", [is_edge_resolving, is_vertex_resolving])
    def test_matrix_of_another_graph_rejected(self, check):
        other = all_pairs_distances(path_graph(5))
        for landmarks in ([0], []):  # the empty set is checked like any other
            with pytest.raises(GraphInputError, match="distance matrix"):
                check(path_graph(6), landmarks, dist=other)
