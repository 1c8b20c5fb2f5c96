"""Randomized invariants for codes, verification, and the file format."""

import random

from hypothesis import given, settings, strategies as st

import pytest

from silires import (
    edge_code_table,
    format_edge_list,
    is_edge_resolving,
    is_vertex_resolving,
    parse_edge_list,
)

from conftest import (
    family_graph,
    oracle_distance_matrix,
    oracle_edge_codes,
    oracle_vertex_codes,
    random_connected_graph,
)

SETTINGS = settings(max_examples=50, deadline=None)


@st.composite
def connected_graphs(draw, min_vertices=2, max_vertices=14):
    n = draw(st.integers(min_vertices, max_vertices))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_connected_graph(random.Random(seed), n)


@st.composite
def graphs_with_landmarks(draw, min_landmarks=1):
    g = draw(connected_graphs())
    size = draw(st.integers(min_landmarks, g.vertex_count))
    landmarks = draw(
        st.lists(
            st.integers(0, g.vertex_count - 1),
            min_size=size,
            max_size=size,
            unique=True,
        )
    )
    return g, landmarks


@st.composite
def silicates_with_landmarks(draw):
    family = draw(st.sampled_from(["chain", "cyclic"]))
    n = draw(st.integers(3, 8))
    g = family_graph(family, n)
    landmarks = draw(
        st.lists(
            st.integers(0, g.vertex_count - 1), min_size=2, max_size=8, unique=True
        )
    )
    return g, landmarks


@SETTINGS
@given(silicates_with_landmarks())
def test_incident_edge_codes_differ_by_at_most_one(case):
    g, landmarks = case
    codes = dict(zip(g.edges, edge_code_table(g, landmarks).tolist()))
    for e in g.edges:
        for f in g.edges:
            if e < f and set(e) & set(f):
                assert all(abs(a - b) <= 1 for a, b in zip(codes[e], codes[f]))


@SETTINGS
@given(graphs_with_landmarks(), st.randoms(use_true_random=False))
def test_landmark_order_does_not_change_verdict(case, rng):
    g, landmarks = case
    shuffled = list(landmarks)
    rng.shuffle(shuffled)
    for check in (is_edge_resolving, is_vertex_resolving):
        assert check(g, landmarks).resolving == check(g, shuffled).resolving


@SETTINGS
@given(graphs_with_landmarks())
def test_supersets_of_resolving_sets_resolve(case):
    g, landmarks = case
    rest = [v for v in range(g.vertex_count) if v not in landmarks]
    for check in (is_edge_resolving, is_vertex_resolving):
        if check(g, landmarks).resolving:
            assert check(g, list(landmarks) + rest).resolving


@SETTINGS
@given(graphs_with_landmarks())
def test_failure_witness_really_collides(case):
    g, landmarks = case
    dist = oracle_distance_matrix(g)
    edge_result = is_edge_resolving(g, landmarks)
    if not edge_result.resolving:
        e, f = edge_result.witness
        codes = dict(zip(g.edges, oracle_edge_codes(g, dist, landmarks)))
        assert codes[e] == codes[f]
    vertex_result = is_vertex_resolving(g, landmarks)
    if not vertex_result.resolving:
        u, v = vertex_result.witness
        codes = oracle_vertex_codes(g, dist, landmarks)
        assert codes[u] == codes[v]


@SETTINGS
@given(connected_graphs())
def test_full_vertex_set_resolves_vertices(g):
    assert is_vertex_resolving(g, range(g.vertex_count)).resolving


@SETTINGS
@given(connected_graphs())
def test_edge_list_round_trip(g):
    text = format_edge_list(g)
    parsed = parse_edge_list(text)
    assert parsed.vertex_count == g.vertex_count
    assert parsed.edges == g.edges
    assert format_edge_list(parsed) == text
