"""Graph construction, BFS distances, and edge-to-vertex distances."""

import collections
import itertools
import pickle
import random
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from silires import (
    DisconnectedGraphError,
    GraphInputError,
    all_pairs_distances,
    bfs_distances,
    build_graph,
    build_silicate,
    canonical_edge,
    classify_silicate,
    edge_code_table,
    exact_edge_metric_dimension,
    exact_metric_dimension,
    is_connected,
    is_minimal,
)
from silires import construct_for_spec, graphs, is_edge_resolving, resolving
from silires.graphs import distance_dtype, distance_rows, edge_ends, simplicial_vertices
from silires.silicates import CHAIN, CYCLIC, SKELETON, SilicateSpec

from conftest import (
    GRAPH_VIEWS,
    column_block_cases,
    complete_graph,
    cycle_graph,
    family_graph,
    oracle_distance_matrix,
    path_graph,
    random_connected_graph,
    read_views,
    relabeled,
    star_graph,
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

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(GraphInputError, match=r"^vertex count must be non-negative, got -1$"):
            build_graph(-1, [])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphInputError):
            build_graph(3, [(0, 0), (0, 1), (1, 2)])

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(GraphInputError):
            build_graph(3, [(0, 3)])
        with pytest.raises(GraphInputError):
            build_graph(3, [(-1, 2)])

    @pytest.mark.parametrize(
        "pairs,named",
        [
            ([(0, 1), (2, 2), (1, 5), (4, 4)], "self-loop (2, 2)"),
            ([(0, 1), (1, 5), (2, 2), (3, -1)], "edge (1, 5) uses an id outside [0, 3)"),
            ([(2, 1), (-1, 0), (5, 5)], "edge (-1, 0) uses an id outside [0, 3)"),
            ([(7, 7), (0, 9)], "self-loop (7, 7)"),
        ],
    )
    def test_error_names_first_offending_pair(self, pairs, named):
        with pytest.raises(GraphInputError, match=re.escape(named)):
            build_graph(3, pairs)

    def test_integer_array_input(self):
        pairs = [(3, 2), (1, 0), (2, 0), (0, 1)]
        expected = build_graph(4, pairs)
        for dtype in (np.int8, np.int32, np.int64, np.uint16):
            g = build_graph(4, np.array(pairs, dtype=dtype))
            assert g == expected
            assert all(type(x) is int for e in g.edges for x in e)
        with pytest.raises(GraphInputError, match=re.escape("edge (0, 4) uses an id")):
            build_graph(4, np.array([(1, 2), (0, 4), (3, 3)]))
        with pytest.raises(GraphInputError, match="not a pair"):
            build_graph(4, np.array([(0, 1, 2)]))

    def test_numpy_ids_collapse_to_python_int_edges(self):
        pairs = [
            (np.int64(2), np.int64(0)),
            (np.int32(0), 2),
            (np.uint8(1), np.int16(2)),
            (2, np.int64(1)),
        ]
        g = build_graph(np.int64(3), pairs)
        assert g.edges == ((0, 2), (1, 2))
        assert g.adjacency == ((2,), (2,), (0, 1))
        assert type(g.vertex_count) is int
        assert all(type(x) is int for e in g.edges for x in e)
        assert all(type(x) is int for ns in g.adjacency for x in ns)

    @pytest.mark.parametrize("bad", [1.5, np.float64(2.0), "2"])
    def test_non_integral_id_rejected(self, bad):
        named = f"vertex id {bad!r} is not an integer"
        with pytest.raises(GraphInputError, match=re.escape(named)):
            build_graph(3, [(0, 1), (bad, 0), (1, 7)])

    def test_non_integral_vertex_count_rejected(self):
        with pytest.raises(GraphInputError, match="vertex count 3.0 is not an integer"):
            build_graph(3.0, [(0, 1)])

    @pytest.mark.parametrize("bad", [(0, 1, 2), (1,), None, 2.5])
    def test_item_that_is_not_a_pair_rejected(self, bad):
        message = f"edge {bad!r} is not a pair of ids"
        with pytest.raises(GraphInputError, match=f"^{re.escape(message)}$"):
            build_graph(3, [(0, 1), bad, (1, 2)])

    @pytest.mark.parametrize("edge_list", [[1, 2], np.array([1, 2])])
    def test_flat_id_list_rejected(self, edge_list):
        # Its items are ids, with no length.
        with pytest.raises(GraphInputError, match=r"^edge \S*1\S* is not a pair of ids$"):
            build_graph(3, edge_list)

    def test_id_past_64_bits_rejected(self):
        with pytest.raises(GraphInputError, match=f"vertex id {2**70} does not fit"):
            build_graph(3, [(0, 1), (0, 2**70)])

    @pytest.mark.parametrize("n", [graphs._MAX_VERTICES + 1, 5000000000, 10**20])
    def test_vertex_count_past_the_arc_keys_rejected(self, n):
        # The arc keys tail * n + head must fit in int64.
        assert graphs._MAX_VERTICES**2 < 2**63 <= (graphs._MAX_VERTICES + 1) ** 2
        named = (
            f"vertex count {n} is too large: "
            "at most 3037000499 vertices fit the 64-bit arc keys"
        )
        for edges in ([(0, 5)], np.array([[0, 5]]), []):
            with pytest.raises(GraphInputError, match=f"^{named}$"):
                build_graph(n, edges)

    def test_edge_ends_follow_edges(self):
        g = relabeled(family_graph(CYCLIC, 5), random.Random(3))
        u, v = edge_ends(g)
        assert list(zip(u.tolist(), v.tolist())) == list(g.edges)
        assert edge_ends(build_graph(2, []))[0].shape == (0,)

    def test_has_edge(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert g.has_edge(np.int64(2), np.int32(1))

    def test_degree(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert [g.degree(v) for v in range(3)] == [1, 2, 1]
        assert type(g.degree(np.int64(1))) is int

    @pytest.mark.parametrize(
        "query, named",
        [
            (lambda g: g.degree(-1), "vertex -1 outside [0, 3)"),
            (lambda g: g.degree(3), "vertex 3 outside [0, 3)"),
            (lambda g: g.has_edge(-1, 1), "vertex -1 outside [0, 3)"),
            (lambda g: g.has_edge(5, 0), "vertex 5 outside [0, 3)"),
            (lambda g: g.has_edge(0, -3), "vertex -3 outside [0, 3)"),
            (lambda g: g.degree(1.5), "vertex 1.5 is not an integer"),
            (lambda g: g.has_edge(0, "1"), "vertex '1' is not an integer"),
        ],
    )
    def test_vertex_queries_reject_ids_outside_the_graph(self, query, named):
        # Negative ids would otherwise index from the end.
        g = build_graph(3, [(0, 1), (1, 2)])
        with pytest.raises(GraphInputError, match=f"^{re.escape(named)}$"):
            query(g)

    def test_vertex_ids_gate(self):
        # Every caller's ids enter through this one check: Python ints out,
        # the first bad value named, a scalar named as no list at all.
        ids = graphs.vertex_ids(iter(np.array([2, 0], dtype=np.int32)), "landmark", 3)
        assert ids == [2, 0] and all(type(v) is int for v in ids)
        assert graphs.vertex_ids([5, -1], "source") == [5, -1]
        for values, named in [
            ([0, 3, -1], "source 3 outside [0, 3)"),
            ([-2, 7], "source -2 outside [0, 3)"),
            ([9, 1.5], "source 1.5 is not an integer"),
            (4, "source list 4 is not iterable"),
            (np.int64(1), f"source list {np.int64(1)!r} is not iterable"),
        ]:
            with pytest.raises(GraphInputError, match=f"^{re.escape(named)}$"):
                graphs.vertex_ids(values, "source", 3)

    def test_canonical_edge(self):
        assert canonical_edge(5, 2) == (2, 5)
        assert canonical_edge(2, 5) == (2, 5)


# No view read, one, both, or both and the cached analysis: equality,
# hashing, pickling and repr must not depend on what a graph has built.
VIEW_READS = [
    (), ("adjacency",), ("edges",), ("adjacency", "edges"), ("adjacency", "edges", "_core")
]


class TestGraphViews:
    def test_views_are_built_on_first_read(self):
        g = build_graph(3, [(1, 2), (0, 1)])
        assert set(vars(g)).isdisjoint(GRAPH_VIEWS)
        assert g.edge_count == 2 and g.degree(1) == 2
        assert set(vars(g)).isdisjoint(GRAPH_VIEWS)
        assert g.edges == ((0, 1), (1, 2)) and g.edges is g.edges
        assert g.adjacency == ((1,), (0, 2), (1,)) and g.adjacency is g.adjacency

    @pytest.mark.parametrize("read", VIEW_READS)
    def test_same_vertex_count_different_edges(self, read):
        a = read_views(build_graph(3, [(0, 1), (1, 2)]), read)
        b = build_graph(3, [(0, 1), (0, 2)])
        assert a != b and not a == b
        assert hash(a) != hash(b) and len({a, b}) == 2

    @pytest.mark.parametrize("read", VIEW_READS)
    def test_pairs_and_array_give_equal_graphs(self, read):
        a = read_views(build_graph(4, [(2, 3), (0, 1), (1, 0), (1, 2)]), read)
        b = build_graph(4, np.array([[1, 2], [0, 1], [3, 2]]))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != build_graph(4, [(0, 1), (1, 2), (1, 3)])
        assert a != build_graph(5, [(0, 1), (1, 2), (2, 3)])
        assert a != (4, a.edges)

    @pytest.mark.parametrize("read", VIEW_READS)
    def test_pickle_round_trip(self, read):
        g = read_views(build_graph(4, [(0, 1), (1, 2), (2, 3)]), read)
        h = pickle.loads(pickle.dumps(g))
        assert h == g and hash(h) == hash(g) and repr(h) == repr(g)
        assert not any(a.flags.writeable for a in h._arcs)
        assert h != build_graph(4, [(0, 1), (1, 2), (1, 3)])
        assert (h.adjacency, h.edges, h.edge_count) == (g.adjacency, g.edges, g.edge_count)
        # The analysis is not pickled: the copy rebuilds its own, to the
        # same rows.
        assert "_core" not in vars(h)
        assert np.array_equal(all_pairs_distances(h), all_pairs_distances(g))
        assert "_core" in vars(h)

    @pytest.mark.parametrize("read", VIEW_READS)
    def test_repr(self, read):
        g = read_views(build_graph(3, [(2, 1), (0, 1)]), read)
        assert repr(g) == (
            "Graph(vertex_count=3, adjacency=((1,), (0, 2), (1,)), edges=((0, 1), (1, 2)))"
        )

    @pytest.mark.parametrize("read", VIEW_READS)
    def test_skeleton_specs(self, read):
        a = SilicateSpec(family=SKELETON, skeleton=read_views(path_graph(3), read))
        b = SilicateSpec(family=SKELETON, skeleton=build_graph(3, np.array([[2, 1], [1, 0]])))
        c = SilicateSpec(family=SKELETON, skeleton=build_graph(3, [(0, 1), (0, 2)]))
        assert a == b and hash(a) == hash(b)
        assert a != c and len({a, b, c}) == 2
        d = pickle.loads(pickle.dumps(a))
        assert d == a and hash(d) == hash(a) and d != c
        assert not any(x.flags.writeable for x in d.skeleton._arcs)


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
            assert np.array_equal(np.asarray(dist), expected)

    def test_matches_oracle_on_random_graphs(self):
        import random

        rng = random.Random(7)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(2, 30))
            expected = oracle_distance_matrix(g)
            dist = all_pairs_distances(g)
            assert np.array_equal(np.asarray(dist), expected)

    def test_cyclic_3_diameter_is_two(self):
        dist = all_pairs_distances(family_graph("cyclic", 3))
        assert int(np.max(dist)) == 2

    def test_empty_graph_matrix_is_square(self):
        assert all_pairs_distances(build_graph(0, [])).shape == (0, 0)

    def test_matrix_is_a_read_only_array(self):
        for g in (build_graph(0, []), path_graph(5), family_graph("cyclic", 4)):
            dist = all_pairs_distances(g)
            assert type(dist) is np.ndarray
            assert not dist.flags.writeable

    def test_distance_type_widens_past_int16(self):
        # Distances reach vertex_count - 1, so int16 holds up to 32768 vertices.
        assert distance_dtype(32768) is np.int16
        assert distance_dtype(32769) is np.int32
        assert all_pairs_distances(path_graph(5)).dtype == np.int16


def subdivided(base, rng):
    """``base`` with every edge replaced by a path of 1-5 edges: parallel
    threads between the base vertices."""
    n, edges = base.vertex_count, []
    for u, v in base.edges:
        for _ in range(rng.randint(0, 4)):
            edges.append((u, n))
            u, n = n, n + 1
        edges.append((u, v))
    return build_graph(n, edges)


def tree_with_cycle(rng, n, length):
    """A random tree on ``n`` vertices with a cycle of ``length`` new and old
    vertices hanging off one vertex: a thread whose two ends coincide."""
    edges = [(v, rng.randrange(v)) for v in range(1, n)]
    at = last = rng.randrange(n)
    for v in range(n, n + length - 1):
        edges.append((last, v))
        last = v
    edges.append((last, at))
    return build_graph(n + length - 1, edges)


@st.composite
def distance_cases(draw):
    """(graph, sources): a random connected graph, a random tree (leaves
    are simplicial), a complete graph (empty core), a skeleton expansion, a
    graph on 0-2 vertices, or a core made of threads: a path, a cycle, a
    relabeled chain or cyclic silicate, a subdivided random graph or a tree
    with a cycle hanging off it.  Sources come in any order, repeats
    allowed."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(
        st.sampled_from(
            ["random", "tree", "complete", SKELETON, "tiny", "path", "cycle",
             CHAIN, CYCLIC, "subdivided", "tree+cycle"]
        )
    )
    if kind == "random":
        g = random_connected_graph(rng, draw(st.integers(1, 30)))
    elif kind == "tree":
        n = draw(st.integers(1, 30))
        g = build_graph(n, [(v, rng.randrange(v)) for v in range(1, n)])
    elif kind == "complete":
        g = complete_graph(draw(st.integers(1, 8)))
    elif kind == SKELETON:
        base = random_connected_graph(rng, draw(st.integers(2, 7)))
        g = build_silicate(SilicateSpec(family=SKELETON, skeleton=base)).graph
    elif kind == "tiny":
        g = path_graph(draw(st.integers(0, 2)))
    elif kind == "path":
        g = path_graph(draw(st.integers(3, 40)))
    elif kind == "cycle":
        g = cycle_graph(draw(st.integers(3, 40)))
    elif kind in (CHAIN, CYCLIC):
        n = draw(st.integers(1 if kind == CHAIN else 3, 15))
        g = relabeled(family_graph(kind, n), rng)
    elif kind == "subdivided":
        g = subdivided(random_connected_graph(rng, draw(st.integers(1, 8))), rng)
    else:
        g = tree_with_cycle(rng, draw(st.integers(1, 10)), draw(st.integers(3, 10)))
    n = g.vertex_count
    sources = draw(st.lists(st.integers(0, n - 1), max_size=2 * n)) if n else []
    return g, sources


def brute_simplicial(g):
    """Bitmask of the vertices whose closed neighbourhood is a clique, by
    checking every pair of it."""
    adjacent = [set(ns) for ns in g.adjacency]
    return sum(
        1 << v
        for v in range(g.vertex_count)
        if all(b in adjacent[a] for a, b in itertools.combinations([v, *g.adjacency[v]], 2))
    )


@st.composite
def simplicial_cases(draw):
    """A random graph on 0-14 vertices (isolated vertices included), a
    complete graph, a disjoint union of cliques or a relabeled silicate."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "complete", "cliques", CHAIN, CYCLIC]))
    if kind == "random":
        n = draw(st.integers(0, 14))
        p = draw(st.floats(0, 1))
        return build_graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
    if kind == "complete":
        return complete_graph(draw(st.integers(0, 9)))
    if kind == "cliques":
        sizes = draw(st.lists(st.integers(1, 5), max_size=4))
        edges, start = [], 0
        for size in sizes:
            edges += itertools.combinations(range(start, start + size), 2)
            start += size
        return relabeled(build_graph(start, edges), rng)
    return relabeled(family_graph(kind, draw(st.integers(1 if kind == CHAIN else 3, 6))), rng)


class TestSimplicialVertices:
    @settings(max_examples=300, deadline=None)
    @given(simplicial_cases(), st.sampled_from([1, 2, 5, graphs._PAIR_BLOCK]))
    def test_matches_clique_check(self, g, block):
        # Small blocks split the neighbour-pair lookups of one vertex.
        with mock.patch.object(graphs, "_PAIR_BLOCK", block):
            assert simplicial_vertices(g) == brute_simplicial(g)

    def test_edge_cases(self):
        assert simplicial_vertices(build_graph(0, [])) == 0
        assert simplicial_vertices(build_graph(3, [])) == 0b111  # isolated
        assert simplicial_vertices(complete_graph(6)) == 0b111111
        star = build_graph(5, [(0, v) for v in range(1, 5)])
        assert simplicial_vertices(star) == 0b11110

    def test_distance_rows_memory_is_linear(self):
        # One graph-wide bitmask per vertex would peak near 70 MB here.
        g = path_graph(32768)
        tracemalloc.start()
        try:
            distance_rows(g, [16000, 30000])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20


class TestCoreAnalysis:
    """Each graph is analysed once, by whichever reader comes first."""

    @pytest.mark.parametrize("solve", [exact_edge_metric_dimension, exact_metric_dimension])
    def test_a_solve_analyses_its_graph_once(self, monkeypatch, solve):
        # The matrix, the masks, the classification and the witness check
        # share one analysis: one simplicial test and one connectivity BFS.
        # The core is a path, and the matrix and the check each run one
        # more BFS, from its far end.
        simplicial, bfs, calls = graphs._simplicial, graphs._bfs, []

        def counted(f):
            def counting(*args):
                calls.append(f.__name__)
                return f(*args)

            return counting

        monkeypatch.setattr(graphs, "_simplicial", counted(simplicial))
        monkeypatch.setattr(graphs, "_bfs", counted(bfs))
        cert = solve(family_graph(CHAIN, 5))
        assert cert.status == "optimal"
        assert collections.Counter(calls) == {"_simplicial": 1, "_bfs": 3}

    def test_readers_after_the_matrix_reuse_its_analysis(self, monkeypatch):
        silicate, landmarks = construct_for_spec(SilicateSpec(family=CHAIN, n=6))
        g = silicate.graph
        all_pairs_distances(g)
        core = g._core
        monkeypatch.setattr(graphs, "_analyse", lambda g: pytest.fail("analysed again"))
        assert is_edge_resolving(g, landmarks).resolving
        assert is_minimal(g, landmarks)
        assert is_connected(g) and classify_silicate(g) == SilicateSpec(family=CHAIN, n=6)
        cubic = sum(1 << v for v in range(g.vertex_count) if g.degree(v) == 3)
        assert simplicial_vertices(g) == cubic
        assert g._core is core

    @settings(max_examples=300, deadline=None)
    @given(simplicial_cases())
    def test_connectivity_matches_a_bfs_over_the_whole_graph(self, g):
        # The core test (module docstring) against one BFS over every
        # vertex, the test it replaced.
        whole = g.vertex_count == 0 or -1 not in graphs._bfs(g.adjacency, 0)
        assert is_connected(g) is whole


class TestDistanceRows:
    @settings(max_examples=300, deadline=None)
    @given(distance_cases())
    def test_matches_bfs_from_each_source(self, case):
        g, sources = case
        rows = distance_rows(g, sources)
        expected = [bfs_distances(g, s) for s in sources]
        assert rows.dtype == distance_dtype(g.vertex_count)
        assert rows.shape == (len(sources), g.vertex_count)
        assert rows.tolist() == expected

    @settings(max_examples=300, deadline=None)
    @given(distance_cases())
    def test_core_bounds_every_distance(self, case):
        # min(n - 1, c + 1) over the c core vertices (module docstring).
        g, _ = case
        bound = graphs._RowFill(g, []).bound
        assert all_pairs_distances(g).max(initial=0) <= max(bound, 0)

    @pytest.mark.parametrize(
        "g,bound",
        [(path_graph(40), 39), (star_graph(400), 2), (complete_graph(5), 1),
         (family_graph(CHAIN, 255), 255), (family_graph(CYCLIC, 254), 255)],
        ids=["path-40", "star-400", "complete-5", "chain-255", "cyclic-254"],
    )
    def test_distance_bound(self, g, bound):
        # A path's core is all but its two ends, and the bound is its
        # length; a star's core is its centre; a complete graph has none.
        assert graphs._RowFill(g, []).bound == bound

    @pytest.mark.parametrize("block", [1, 64, 300])
    def test_column_blocks_give_the_same_rows(self, monkeypatch, block):
        # The simplicial rows are filled one per block, a few per block, or
        # many.
        cases = column_block_cases()
        whole = [distance_rows(g, sources) for g, sources in cases]
        monkeypatch.setattr(graphs, "_ROW_BLOCK", block)
        for (g, sources), rows in zip(cases, whole):
            assert np.array_equal(distance_rows(g, sources), rows)

    @pytest.mark.parametrize("family", [CHAIN, CYCLIC])
    def test_rows_at_scale_match_bfs(self, family):
        # The core block is written in transposed; check it well past the
        # graph sizes the property tests draw.
        silicate, landmarks = construct_for_spec(SilicateSpec(family=family, n=1000))
        g = silicate.graph
        rows = distance_rows(g, landmarks)
        picked = sorted({0, len(landmarks) - 1, *range(0, len(landmarks), 100)})
        for i in picked:
            assert rows[i].tolist() == bfs_distances(g, landmarks[i])

    @staticmethod
    def peak_over_output(g, sources):
        """The tracemalloc peak of ``distance_rows(g, sources)`` over the
        size of its output."""
        tracemalloc.start()
        try:
            rows = distance_rows(g, sources)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / rows.nbytes

    @pytest.mark.parametrize("family", [CHAIN, CYCLIC])
    def test_memory_at_scale(self, family):
        # About 2.15 times the output; a vertex-by-needed-core array beside
        # the output reads 2.21 times.
        silicate, landmarks = construct_for_spec(SilicateSpec(family=family, n=1000))
        assert self.peak_over_output(silicate.graph, landmarks) <= 2.5

    def test_simplicial_rows_fill_in_blocks(self):
        # Around a core of one vertex nearly every row is simplicial:
        # filling them in one gather holds about two outputs more (2.04
        # times the output), the blocked fill a bounded part (1.10 times).
        star = build_silicate(SilicateSpec(family=SKELETON, skeleton=star_graph(1000))).graph
        assert self.peak_over_output(star, range(1, star.vertex_count, 2)) <= 1.5

    def test_thread_sums_do_not_wrap(self):
        # The core is a path of 32766 vertices: i + d(a, y) passes 32767.
        g = path_graph(32768)
        rows = distance_rows(g, [16000, 30000])
        assert rows.dtype == np.int16
        assert rows.tolist() == [bfs_distances(g, 16000), bfs_distances(g, 30000)]

    @pytest.mark.parametrize("family,n", [(CHAIN, 200), (CYCLIC, 200)])
    def test_core_bfs_runs_only_from_thread_ends(self, monkeypatch, filled, family, n):
        # The hinges form a path (two ends) or a cycle (one cut vertex).
        # The connectivity test's BFS starts at core vertex 0, an end of
        # either; it runs once per graph, in the graph's cached analysis,
        # and doubles as that thread end's BFS.  Each set-up then runs the
        # BFS from the other thread end, if any, once: a check that fills
        # its rows in many column chunks runs it in its set-up, not once
        # per chunk.
        silicate, landmarks = construct_for_spec(SilicateSpec(family=family, n=n))
        others = 1 if family == CHAIN else 0
        bfs, calls = graphs._bfs, []

        def counting(adjacency, source):
            calls.append(source)
            return bfs(adjacency, source)

        monkeypatch.setattr(graphs, "_bfs", counting)
        all_pairs_distances(silicate.graph)
        assert calls[0] == 0 and len(calls) == 1 + others
        calls.clear()
        distance_rows(silicate.graph, landmarks)
        assert len(calls) == others and 0 not in calls
        calls.clear()
        filled.clear()
        monkeypatch.setattr(resolving, "_ROW_CHUNK", 8 * silicate.graph.vertex_count)
        assert is_edge_resolving(silicate.graph, landmarks).resolving
        assert len(calls) == others
        (dtype,) = filled.dtypes
        assert dtype == np.uint8  # the core bounds every distance by n + 1
        per_word = 8 // dtype.itemsize
        assert len(filled) == -(-len(landmarks) // per_word)  # one word of codes each

    def test_disconnected_graph_with_connected_core(self):
        # K3 + P3: the core is the middle of the path, a connected graph,
        # so the check must come from a BFS over the whole graph.
        g = build_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5)])
        assert simplicial_vertices(g) == 0b101111
        for first in range(6):
            with pytest.raises(DisconnectedGraphError) as expected:
                bfs_distances(g, first)
            with pytest.raises(DisconnectedGraphError) as raised:
                distance_rows(g, [first, 4])
            assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize(
        "n,edges",
        [
            (9, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (7, 8), (4, 8)]),
            (8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]),
            (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
            (4, [(0, 1), (1, 2)]),
        ],
        ids=["two-cycles", "two-paths", "two-triangles", "isolated-vertex"],
    )
    def test_disconnected_graph_raises_as_bfs(self, n, edges):
        # The core of two cycles or two paths is disconnected although
        # every simplicial vertex meets it; two triangles have no core.
        g = build_graph(n, edges)
        for first in range(n):
            with pytest.raises(DisconnectedGraphError) as expected:
                bfs_distances(g, first)
            with pytest.raises(DisconnectedGraphError) as raised:
                distance_rows(g, [first, n - 1 - first])
            assert str(raised.value) == str(expected.value)

    def test_sources_checked_before_the_graph(self):
        # Every source is checked first, so a bad later source on a
        # disconnected graph is named, not the graph.
        g = build_graph(4, [(0, 1), (2, 3)])
        for sources, named in [
            ([0, 9], "source 9 outside [0, 4)"),
            ([1, "2"], "source '2' is not an integer"),
        ]:
            with pytest.raises(GraphInputError, match=f"^{re.escape(named)}$"):
                distance_rows(g, sources)
        with pytest.raises(DisconnectedGraphError, match="^vertex 2 is unreachable from 1;"):
            distance_rows(g, [1, 3])

    @pytest.mark.parametrize("bad", [1.9, np.float64(0.0), "1"])
    def test_non_integral_source_rejected(self, bad):
        g = path_graph(3)
        with pytest.raises(GraphInputError, match="is not an integer"):
            distance_rows(g, [0, bad])
        with pytest.raises(GraphInputError, match="is not an integer"):
            bfs_distances(g, bad)

    def test_numpy_sources_accepted(self):
        g = path_graph(4)
        rows = distance_rows(g, np.array([3, 0], dtype=np.int32))
        assert rows.tolist() == [[3, 2, 1, 0], [0, 1, 2, 3]]

    def test_simplicial_vertices_of_families(self):
        # Every cubic corner is simplicial; the hinges are the core.
        for family, n in [("chain", 5), ("cyclic", 5)]:
            g = family_graph(family, n)
            cubic = sum(1 << v for v in range(g.vertex_count) if g.degree(v) == 3)
            assert simplicial_vertices(g) == cubic


class TestDistanceMatrixInvariants:
    @pytest.mark.parametrize("family,n", [("chain", 50), ("cyclic", 50)])
    def test_metric_axioms_and_adjacency(self, family, n):
        g = build_silicate(SilicateSpec(family=family, n=n)).graph
        d = np.asarray(all_pairs_distances(g))
        assert np.array_equal(d, d.T)
        assert np.array_equal(np.diag(d), np.zeros(g.vertex_count, dtype=d.dtype))
        # Triangle inequality through every intermediate vertex.
        assert (d[:, :, None] + d[None, :, :] >= d[:, None, :]).all()
        # Distance one exactly on adjacent pairs.
        adj = np.zeros_like(d, dtype=bool)
        for u, v in g.edges:
            adj[u, v] = adj[v, u] = True
        assert np.array_equal(d == 1, adj)


def edge_vertex_distances(g):
    """The distance from each canonical edge (a row, in edge order) to each
    vertex (a column): the edge code table with every vertex a landmark."""
    return edge_code_table(g, range(g.vertex_count))


class TestEdgeVertexDistance:
    def test_incident_edge_is_zero(self):
        g = path_graph(4)
        row = edge_vertex_distances(g)[g.edges.index((1, 2))]
        assert row[1] == 0
        assert row[2] == 0

    def test_is_min_over_endpoints(self):
        g = family_graph("cyclic", 4)
        d = oracle_distance_matrix(g)
        for edge, row in zip(g.edges, edge_vertex_distances(g).tolist()):
            for w in range(g.vertex_count):
                assert row[w] == min(d[edge[0]][w], d[edge[1]][w])

    def test_complete_graph_values(self):
        g = complete_graph(4)
        for edge, row in zip(g.edges, edge_vertex_distances(g).tolist()):
            for w in range(4):
                expected = 0 if w in edge else 1
                assert row[w] == expected

    def test_incident_edges_differ_by_at_most_one(self):
        g = cycle_graph(9)
        rows = dict(zip(g.edges, edge_vertex_distances(g).tolist()))
        for e, f in itertools.combinations(g.edges, 2):
            if not set(e) & set(f):
                continue
            for w in range(g.vertex_count):
                assert abs(rows[e][w] - rows[f][w]) <= 1
