"""Silicate generators: counts, degrees, vertex numbering, skeleton expansion."""

import pickle
import re

import numpy as np
import pytest

from silires import (
    CHAIN,
    CYCLIC,
    SKELETON,
    GraphInputError,
    SilicateSpec,
    build_silicate,
    canonical_json_bytes,
    chain_silicate,
    cyclic_silicate,
    silicate_of_skeleton,
    structure_report,
)
from silires.silicates import _assemble

from conftest import (
    GRAPH_VIEWS,
    SILICATE_VIEWS,
    cycle_graph,
    path_graph,
    read_views,
    star_graph,
)


def degree_histogram(g):
    hist = {}
    for v in range(g.vertex_count):
        hist[g.degree(v)] = hist.get(g.degree(v), 0) + 1
    return hist


class TestChain:
    def test_counts_formula(self):
        for n in (1, 2, 3, 7, 20):
            s = chain_silicate(n)
            assert s.graph.vertex_count == 3 * n + 1
            assert s.graph.edge_count == 6 * n
            assert len(s.tetrahedra) == n

    def test_chain_7_example(self):
        s = chain_silicate(7)
        assert s.graph.vertex_count == 22
        assert s.graph.edge_count == 42

    def test_degree_structure(self):
        # n - 1 shared corners of degree 6, the rest degree 3.
        for n in (2, 5, 10):
            hist = degree_histogram(chain_silicate(n).graph)
            assert hist == {3: 2 * n + 2, 6: n - 1}
        assert degree_histogram(chain_silicate(1).graph) == {3: 4}

    def test_vertex_numbering(self):
        s = chain_silicate(4)
        assert s.tetrahedra == (
            (0, 1, 2, 3),
            (3, 4, 5, 6),
            (6, 7, 8, 9),
            (9, 10, 11, 12),
        )
        assert s.shared_vertices == (3, 6, 9)
        assert s.private_vertices == ((0, 1, 2), (4, 5), (7, 8), (10, 11, 12))

    def test_single_tetrahedron(self):
        s = chain_silicate(1)
        assert s.tetrahedra == ((0, 1, 2, 3),)
        assert s.shared_vertices == ()
        assert s.private_vertices == ((0, 1, 2, 3),)

    def test_invalid_n(self):
        with pytest.raises(GraphInputError):
            chain_silicate(0)


class TestSpec:
    @pytest.mark.parametrize("n", [np.int64(3), np.int32(3), np.uint8(3)])
    def test_numpy_count_becomes_python_int(self, n):
        spec = SilicateSpec(CHAIN, n)
        assert type(spec.n) is int
        assert spec == SilicateSpec(CHAIN, 3) and hash(spec) == hash(SilicateSpec(CHAIN, 3))
        report = structure_report(build_silicate(spec), spec)
        assert canonical_json_bytes(report) == canonical_json_bytes(
            structure_report(chain_silicate(3), SilicateSpec(CHAIN, 3))
        )

    @pytest.mark.parametrize("family", [CHAIN, CYCLIC])
    @pytest.mark.parametrize("bad", [2.5, 3.0, "3", None])
    def test_non_integral_count_rejected(self, family, bad):
        message = f"tetrahedron count {bad!r} is not an integer"
        with pytest.raises(GraphInputError, match=f"^{re.escape(message)}$"):
            SilicateSpec(family, bad)


class TestCyclic:
    def test_counts_formula(self):
        for n in (3, 4, 8, 21):
            s = cyclic_silicate(n)
            assert s.graph.vertex_count == 3 * n
            assert s.graph.edge_count == 6 * n
            assert len(s.tetrahedra) == n

    def test_cyclic_8_example(self):
        s = cyclic_silicate(8)
        assert s.graph.vertex_count == 24
        assert s.graph.edge_count == 48

    def test_degree_structure(self):
        for n in (3, 6, 9):
            hist = degree_histogram(cyclic_silicate(n).graph)
            assert hist == {3: 2 * n, 6: n}

    def test_vertex_numbering(self):
        s = cyclic_silicate(3)
        assert s.tetrahedra == ((0, 1, 2, 3), (3, 4, 5, 6), (0, 6, 7, 8))
        assert s.shared_vertices == (0, 3, 6)
        assert s.private_vertices == ((1, 2), (4, 5), (7, 8))

    def test_corners_of_cyclic_7(self):
        s = cyclic_silicate(7)
        assert s.shared_vertices == (0, 3, 6, 9, 12, 15, 18)

    def test_invalid_n(self):
        for bad in (0, 1, 2):
            with pytest.raises(GraphInputError):
                cyclic_silicate(bad)


def _tetra_walk(sil):
    """Order tetrahedra by walking shared corners along the path or cycle."""
    count = len(sil.tetrahedra)
    members = [set(t) for t in sil.tetrahedra]
    adjacent = {i: [] for i in range(count)}
    for i in range(count):
        for j in range(i + 1, count):
            if members[i] & members[j]:
                adjacent[i].append(j)
                adjacent[j].append(i)
    if count == 1:
        return [0]
    ends = [i for i in range(count) if len(adjacent[i]) == 1]
    order = [min(ends) if ends else 0]
    while len(order) < count:
        nxt = [j for j in adjacent[order[-1]] if j not in order]
        order.append(min(nxt))
    return order


def _aligned_relabeling(sk, target):
    """Map skeleton-expansion ids onto chain/cyclic ids tetra by tetra.

    Walk both silicates along their path or cycle of tetrahedra; the shared
    corner between consecutive tetrahedra on one side maps to the shared
    corner on the other, and sorted privates map to sorted privates (all
    privates of a tetrahedron are interchangeable).
    """
    count = len(sk.tetrahedra)
    assert count == len(target.tetrahedra)
    sk_sets = [set(sk.tetrahedra[i]) for i in _tetra_walk(sk)]
    tg_sets = [set(target.tetrahedra[i]) for i in _tetra_walk(target)]
    pairs = list(zip(range(count - 1), range(1, count)))
    if count >= 3 and (sk_sets[0] & sk_sets[-1]):
        pairs.append((count - 1, 0))
    mapping = {}
    for a, b in pairs:
        (u,) = sk_sets[a] & sk_sets[b]
        (v,) = tg_sets[a] & tg_sets[b]
        mapping[u] = v
    used = set(mapping.values())
    for j in range(count):
        privates_a = sorted(x for x in sk_sets[j] if x not in mapping)
        privates_b = sorted(x for x in tg_sets[j] if x not in used)
        for va, vb in zip(privates_a, privates_b):
            mapping[va] = vb
            used.add(vb)
    return mapping


class TestSkeleton:
    def test_single_edge_matches_single_tetrahedron(self):
        s = silicate_of_skeleton(path_graph(2))
        assert s.graph.vertex_count == 4
        assert s.graph.edge_count == 6
        assert degree_histogram(s.graph) == {3: 4}

    def test_counts_formula(self):
        base = star_graph(3)
        s = silicate_of_skeleton(base)
        assert s.graph.vertex_count == base.vertex_count + 2 * base.edge_count
        assert s.graph.edge_count == 6 * base.edge_count

    def test_star_center_degree(self):
        s = silicate_of_skeleton(star_graph(3))
        # The center joins three tetrahedra.
        assert max(degree_histogram(s.graph)) == 9
        assert s.shared_vertices == (0,)

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_path_skeleton_isomorphic_to_chain(self, n):
        sk = silicate_of_skeleton(path_graph(n + 1))
        ch = chain_silicate(n)
        assert sorted(degree_histogram(sk.graph).items()) == sorted(
            degree_histogram(ch.graph).items()
        )
        mapping = _aligned_relabeling(sk, ch)
        remapped = {
            tuple(sorted((mapping[u], mapping[v]))) for u, v in sk.graph.edges
        }
        assert remapped == set(ch.graph.edges)

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_cycle_skeleton_isomorphic_to_cyclic(self, n):
        sk = silicate_of_skeleton(cycle_graph(n))
        cy = cyclic_silicate(n)
        assert sorted(degree_histogram(sk.graph).items()) == sorted(
            degree_histogram(cy.graph).items()
        )
        mapping = _aligned_relabeling(sk, cy)
        remapped = {
            tuple(sorted((mapping[u], mapping[v]))) for u, v in sk.graph.edges
        }
        assert remapped == set(cy.graph.edges)

    def test_empty_base_rejected(self):
        from silires import build_graph

        with pytest.raises(GraphInputError):
            silicate_of_skeleton(build_graph(3, []))


class TestBuildSilicate:
    def test_dispatch(self):
        assert build_silicate(SilicateSpec(family=CHAIN, n=3)).graph.vertex_count == 10
        assert build_silicate(SilicateSpec(family=CYCLIC, n=4)).graph.vertex_count == 12
        spec = SilicateSpec(family=SKELETON, n=0, skeleton=star_graph(3))
        assert build_silicate(spec).graph.vertex_count == 10

    def test_tetrahedra_are_sorted_tuples(self):
        for sil in (chain_silicate(5), cyclic_silicate(5)):
            for tet in sil.tetrahedra:
                assert tuple(sorted(tet)) == tet

    @pytest.mark.parametrize(
        "sil",
        [
            chain_silicate(1),
            chain_silicate(6),
            cyclic_silicate(3),
            cyclic_silicate(6),
            silicate_of_skeleton(path_graph(2)),
            silicate_of_skeleton(star_graph(3)),
            silicate_of_skeleton(cycle_graph(5)),
        ],
    )
    def test_private_vertices_are_ascending_cubic_vertices(self, sil):
        degree = sil.graph.degree
        for tet, private in zip(sil.tetrahedra, sil.private_vertices):
            assert private == tuple(v for v in tet if degree(v) == 3)
            assert list(private) == sorted(private)

    def test_private_vertices_ascending_whatever_the_emission_order(self):
        # One tetrahedron emitted backwards, glued to one emitted forwards.
        sil = _assemble(7, np.array([[3, 2, 1, 0], [3, 4, 5, 6]]))
        assert sil.tetrahedra == ((0, 1, 2, 3), (3, 4, 5, 6))
        assert sil.private_vertices == ((0, 1, 2), (4, 5, 6))


def viewed(sil, read):
    """``sil``, with every view of it and of its graph read when ``read``."""
    if read:
        read_views(read_views(sil, SILICATE_VIEWS).graph, GRAPH_VIEWS)
    return sil


class TestViews:
    def test_views_are_built_on_first_read(self):
        sil = chain_silicate(2)
        assert set(vars(sil)).isdisjoint(SILICATE_VIEWS)
        assert sil.private_vertices == ((0, 1, 2), (4, 5, 6))
        assert sil.private_vertices is sil.private_vertices
        assert set(SILICATE_VIEWS) - set(vars(sil)) == {"tetrahedra", "shared_vertices"}

    @pytest.mark.parametrize("read", [False, True])
    def test_equal_and_different_silicates(self, read):
        a = viewed(chain_silicate(3), read)
        b = chain_silicate(3)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != chain_silicate(4) and a != cyclic_silicate(3)
        assert a != silicate_of_skeleton(path_graph(4))

    @pytest.mark.parametrize("read", [False, True])
    def test_same_graph_other_tetrahedron_order(self, read):
        a = viewed(_assemble(7, np.array([[0, 1, 2, 3], [3, 4, 5, 6]])), read)
        b = _assemble(7, np.array([[3, 4, 5, 6], [0, 1, 2, 3]]))
        assert a.graph == b.graph
        assert a != b and hash(a) != hash(b)

    @pytest.mark.parametrize("read", [False, True])
    def test_pickle_round_trip(self, read):
        sil = viewed(cyclic_silicate(4), read)
        back = pickle.loads(pickle.dumps(sil))
        assert back == sil and hash(back) == hash(sil) and repr(back) == repr(sil)
        held = (back._cells, *back.graph._arcs)
        assert not any(a.flags.writeable for a in held)
        assert back != cyclic_silicate(5)
        assert [getattr(back, v) for v in SILICATE_VIEWS] == [
            getattr(sil, v) for v in SILICATE_VIEWS
        ]

    @pytest.mark.parametrize("read", [False, True])
    def test_repr(self, read):
        sil = viewed(chain_silicate(1), read)
        assert repr(sil) == (
            "LabeledSilicate(graph=Graph(vertex_count=4, "
            "adjacency=((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)), "
            "edges=((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))), "
            "tetrahedra=((0, 1, 2, 3),), shared_vertices=(), "
            "private_vertices=((0, 1, 2, 3),))"
        )
