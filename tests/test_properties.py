"""Randomized invariants for codes, verification, and the file format."""

import random

from hypothesis import given, settings, strategies as st

import pytest

from silires import (
    GraphInputError,
    all_pairs_distances,
    edge_code,
    format_edge_list,
    is_edge_resolving,
    is_vertex_resolving,
    parse_edge_list,
    vertex_code,
)

from conftest import family_graph, random_connected_graph

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
    dist = all_pairs_distances(g)
    codes = {e: edge_code(dist, e, landmarks) for e in g.edges}
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
    dist = all_pairs_distances(g)
    edge_result = is_edge_resolving(g, landmarks)
    if not edge_result.resolving:
        e, f = edge_result.witness
        assert edge_code(dist, e, landmarks) == edge_code(dist, f, landmarks)
    vertex_result = is_vertex_resolving(g, landmarks)
    if not vertex_result.resolving:
        u, v = vertex_result.witness
        assert vertex_code(dist, u, landmarks) == vertex_code(dist, v, landmarks)


@SETTINGS
@given(graphs_with_landmarks(), st.data())
def test_changed_landmark_row_raises_or_agrees(case, data):
    # One entry of a landmark's row of a dist= matrix, changed to any value
    # (its own included): the call raises, or it gives the verdict and
    # witness of the call without dist=.
    g, landmarks = case
    n = g.vertex_count
    dist = all_pairs_distances(g).copy()
    row = data.draw(st.sampled_from(landmarks))
    column = data.draw(st.integers(0, n - 1))
    dist[row, column] = data.draw(st.integers(-2, n + 1))
    for check in (is_edge_resolving, is_vertex_resolving):
        try:
            result = check(g, landmarks, dist=dist)
        except GraphInputError:
            continue
        assert result == check(g, landmarks)


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
