"""Vertex/edge codes and resolving-set verification."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from silires import (
    DisconnectedGraphError,
    GraphInputError,
    all_pairs_distances,
    SilicateSpec,
    build_graph,
    construct_for_spec,
    edge_code,
    edge_code_table,
    is_edge_resolving,
    is_vertex_resolving,
    vertex_code,
    vertex_code_table,
)
from silires import resolving
from silires.resolving import (
    edge_rows,
    first_duplicate_rows,
    landmark_rows,
    validate_landmarks,
)

from conftest import (
    complete_graph,
    cycle_graph,
    family_graph,
    oracle_distance_matrix,
    oracle_edge_codes,
    oracle_vertex_codes,
    path_graph,
    random_connected_graph,
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

    @pytest.mark.parametrize("landmarks", [[], [2]])
    def test_one_edge_raises(self, landmarks):
        # One edge is checked like many: its rows are computed, so the
        # isolated vertex 2 is found.
        g = build_graph(3, [(0, 1)])
        with pytest.raises(DisconnectedGraphError):
            is_edge_resolving(g, landmarks)

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
        # The empty set, and a graph of one edge, are checked like any other.
        for g in (path_graph(6), path_graph(2)):
            for landmarks in ([0], []):
                with pytest.raises(GraphInputError, match="distance matrix"):
                    check(g, landmarks, dist=other)

    def test_wrong_landmark_row_rejected(self):
        # On the path 0-1-2-3 a matrix giving d(1, 2) = 3 would tell 0 from
        # 2 by the landmark 1 alone; the row is checked, not trusted.
        g = path_graph(4)
        dist = all_pairs_distances(g).copy()
        dist[1, 2] = dist[2, 1] = 3
        assert is_vertex_resolving(g, [1]).witness == (0, 2)
        for check in (is_edge_resolving, is_vertex_resolving):
            with pytest.raises(GraphInputError, match="row 1 of the distance matrix"):
                check(g, [1], dist=dist)

    @pytest.mark.parametrize(
        "graph,row,dtype",
        [
            (path_graph, [1, 2, 3, 4], np.int16),  # not 0 at the landmark
            (path_graph, [0, 1, 3, 4], np.int16),  # a step of 2 along the edge (1, 2)
            (path_graph, [0, 1, 1, 2], np.int16),  # 2 has no neighbour one nearer
            (path_graph, [0, 255, 254, 253], np.uint8),  # steps of 1 only mod 256
            (path_graph, [0, 0.5, 1.5, 2.5], np.float64),  # steps of 1 from 1 on
            # the long way round the 4-cycle: a step of 3 along (0, 3)
            (cycle_graph, [0, 1, 2, 3], np.int16),
        ],
    )
    def test_each_row_condition_checked(self, graph, row, dtype):
        g = graph(4)
        dist = all_pairs_distances(g).astype(dtype)
        dist[0] = row
        with pytest.raises(GraphInputError, match="row 0 of the distance matrix"):
            is_edge_resolving(g, [2, 0], dist=dist)
        assert is_edge_resolving(g, [2], dist=dist) == is_edge_resolving(g, [2])

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float64, object])
    def test_exact_matrix_of_another_type_accepted(self, dtype):
        g = family_graph("chain", 3)
        dist = all_pairs_distances(g).astype(dtype)
        for landmarks in ([0, 4], [0, 1, 8, 9]):
            for check in (is_edge_resolving, is_vertex_resolving):
                assert check(g, landmarks, dist=dist) == check(g, landmarks)

    @pytest.mark.parametrize("check", [is_edge_resolving, is_vertex_resolving])
    @pytest.mark.parametrize("landmarks", [[], [0, 2], [3]])
    def test_matrix_of_disconnected_graph_raises_as_bfs(self, check, landmarks):
        # A hand-made matrix cannot stand in for the connectivity test: the
        # call raises with the message of the call without dist=.
        g = build_graph(4, [(0, 1), (2, 3)])
        dist = np.array([[0, 1, 9, 9], [1, 0, 9, 9], [9, 9, 0, 1], [9, 9, 1, 0]], dtype=np.int16)
        with pytest.raises(DisconnectedGraphError) as expected:
            check(g, landmarks)
        with pytest.raises(DisconnectedGraphError) as raised:
            check(g, landmarks, dist=dist)
        assert str(raised.value) == str(expected.value)


def brute_first_collision(items, codes):
    """The lexicographically first pair of ``items`` with equal ``codes``."""
    pairs = itertools.combinations(range(len(items)), 2)
    return next(((items[i], items[j]) for i, j in pairs if codes[i] == codes[j]), None)


@pytest.fixture
def scanned(monkeypatch):
    """The row count of each table the exact duplicate scan is given."""
    counts, scan = [], resolving.first_duplicate_rows

    def counting(table):
        counts.append(len(table))
        return scan(table)

    monkeypatch.setattr(resolving, "first_duplicate_rows", counting)
    return counts


class TestFingerprints:
    def test_weights_are_odd_distinct_and_fixed(self):
        weights = resolving._weights(500)
        assert weights.dtype == np.uint64
        assert (weights & np.uint64(1)).all()
        assert len(set(weights.tolist())) == 500
        assert np.array_equal(resolving._weights(7), weights[:7])

    def test_equal_codes_give_equal_fingerprints(self):
        # Codes whose bytes are not a whole number of words, with large values.
        rows = np.array([[3, 3, 1, 2, 3], [40000, 40000, 5, 5, 40000], [0, 0, 7, 7, 0]])
        rows = rows.astype(np.int32)  # vertices 0, 1 and 4 share a code
        fingerprints = resolving._fingerprints(rows, 5, resolving._vertex_gather)
        assert fingerprints[0] == fingerprints[1] == fingerprints[4]
        assert len({fingerprints[0], fingerprints[2], fingerprints[3]}) == 3
        assert resolving._shared(fingerprints).tolist() == [0, 1, 4]

    def test_blocks_give_the_fingerprints_of_one_block(self, monkeypatch):
        g = family_graph("chain", 30)
        rows = landmark_rows(g, range(0, g.vertex_count, 3))
        gather = resolving._edge_gather(g)
        whole = resolving._fingerprints(rows, g.edge_count, gather)
        monkeypatch.setattr(resolving, "_CODE_BLOCK", 1)  # one item per block
        assert np.array_equal(resolving._fingerprints(rows, g.edge_count, gather), whole)


class TestAgainstBruteForce:
    """Both checks against the brute-force first colliding pair.  With
    every weight 0 all items share one fingerprint, so each check falls
    back to the exact scan over all of its items."""

    @pytest.fixture
    def zero_weights(self, monkeypatch):
        monkeypatch.setattr(resolving, "_weights", lambda count: np.zeros(count, dtype=np.uint64))

    @pytest.mark.parametrize("weights", ["fixed", "zero"])
    @pytest.mark.parametrize("seed", range(30))
    def test_verdict_witness_and_scan(self, request, scanned, weights, seed):
        if weights == "zero":
            request.getfixturevalue("zero_weights")
        rng = random.Random(seed)
        g = random_connected_graph(rng, rng.randint(2, 9))
        n = g.vertex_count
        oracle = oracle_distance_matrix(g)
        dist = all_pairs_distances(g)
        for size in (0, 1, rng.randint(2, n)):
            landmarks = rng.sample(range(n), min(size, n))
            for check, items, coder in (
                (is_edge_resolving, g.edges, oracle_edge_codes),
                (is_vertex_resolving, range(n), oracle_vertex_codes),
            ):
                codes = coder(g, oracle, landmarks)
                expected = brute_first_collision(items, codes)
                colliding = sum(codes.count(c) > 1 for c in codes)
                if len(items) < 2:
                    scan = []
                elif weights == "zero":
                    scan = [len(items)]
                else:
                    scan = [colliding] if colliding else []
                for given in (None, dist):
                    scanned.clear()
                    result = check(g, landmarks, dist=given)
                    assert result.resolving == (expected is None)
                    assert result.witness == expected
                    assert scanned == scan

    def test_long_path_with_one_end(self, zero_weights, scanned):
        g = path_graph(300)
        assert is_edge_resolving(g, [0]).resolving
        assert is_vertex_resolving(g, [299]).resolving
        assert is_vertex_resolving(g, [150]).witness == (1, 299)
        assert scanned == [299, 300, 300]


@pytest.mark.parametrize("family", ["chain", "cyclic"])
def test_edge_check_memory_is_bounded_by_the_landmark_rows(family):
    # The code table alone is about twice the landmark rows at n = 1000.
    silicate, landmarks = construct_for_spec(SilicateSpec(family=family, n=1000))
    g = silicate.graph
    rows = landmark_rows(g, landmarks).nbytes
    tracemalloc.start()
    try:
        assert is_edge_resolving(g, landmarks).resolving
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * rows, f"peak {peak} bytes, landmark rows {rows} bytes"
