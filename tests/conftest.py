"""Shared fixtures and independent oracles.

The oracles deliberately avoid the library's BFS and search code: distances
come from boolean adjacency-matrix powers, and the naive solvers enumerate
every subset in lexicographic order with no pruning.  Library results are
checked against these throughout the suite.  The pruning masks have a
reference built from their definitions on a boolean adjacency matrix
(cliques, twin classes), and a lemma-free check: the distinguishing sets
of every pair of items, from the oracle distances.  The structure
references recover the twin rule's masks and the family from the
tetrahedron cover and every pair of tetrahedra sharing one hinge vertex
(a twin); the library reads the family off the cover vertex by vertex and
its masks off the neighbourhoods instead.
"""

from __future__ import annotations

import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import strategies as st

from silires import (
    CHAIN,
    CYCLIC,
    SKELETON,
    Graph,
    SilicateSpec,
    StructureError,
    build_graph,
    build_silicate,
    find_tetrahedra,
)


# ---------------------------------------------------------------------------
# oracles


def _adjacency_matrix(g: Graph) -> np.ndarray:
    adj = np.zeros((g.vertex_count, g.vertex_count), dtype=bool)
    for u, v in g.edges:
        adj[u, v] = adj[v, u] = True
    return adj


def oracle_distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs hop distances via repeated boolean matrix multiplication."""
    n = g.vertex_count
    adj = _adjacency_matrix(g)
    dist = np.full((n, n), -1, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    reach = np.eye(n, dtype=bool)
    step = 0
    while (dist < 0).any():
        step += 1
        new = (reach @ adj) | reach
        dist[(dist < 0) & new] = step
        if (new == reach).all():
            raise AssertionError("oracle: graph is disconnected")
        reach = new
    return dist


def oracle_edge_codes(g: Graph, dist: np.ndarray, landmarks) -> list[tuple]:
    return [
        tuple(int(min(dist[u][s], dist[v][s])) for s in landmarks)
        for u, v in g.edges
    ]


def oracle_vertex_codes(g: Graph, dist: np.ndarray, landmarks) -> list[tuple]:
    return [
        tuple(int(dist[v][s]) for s in landmarks) for v in range(g.vertex_count)
    ]


def _codes_distinct(codes) -> bool:
    return len(set(codes)) == len(codes)


def naive_minimum_resolving(g: Graph, target: str):
    """Unpruned exhaustive search; returns (dimension, lex-first witness)."""
    dist = oracle_distance_matrix(g)
    coder = oracle_edge_codes if target == "edge" else oracle_vertex_codes
    for k in range(1, g.vertex_count + 1):
        for subset in itertools.combinations(range(g.vertex_count), k):
            if _codes_distinct(coder(g, dist, subset)):
                return k, subset
    raise AssertionError("oracle: no resolving set found")


def oracle_is_edge_resolving(g: Graph, landmarks) -> bool:
    return _codes_distinct(oracle_edge_codes(g, oracle_distance_matrix(g), landmarks))


def distinguishing_sets(g: Graph, target: str) -> set[int]:
    """Bitmask of D(x, y) = {u : the codes of x and y differ at u} for every
    pair of distinct edges or vertices x, y.  A landmark set resolves
    exactly when it meets every one of them."""
    dist = oracle_distance_matrix(g)
    if target == "edge":
        codes = np.array([np.minimum(dist[u], dist[v]) for u, v in g.edges])
    else:
        codes = dist
    weights = [1 << u for u in range(g.vertex_count)]
    return {
        sum(w for w, differs in zip(weights, codes[x] != codes[y]) if differs)
        for x, y in itertools.combinations(range(len(codes)), 2)
    }


def reference_masks(g: Graph, target: str) -> list[int]:
    """The solver's pruning masks from their definitions, as sorted distinct
    bitmasks with two or more members.  Edges: for every vertex v, the
    members of N[v] whose own closed neighbourhood is a clique.  Vertices:
    every class of vertices with equal adjacency rows (false twins) and of
    vertices with equal adjacency-plus-identity rows (true twins)."""
    adj = _adjacency_matrix(g)
    closed = adj | np.eye(g.vertex_count, dtype=bool)
    if target == "edge":
        simplicial = [closed[np.ix_(row, row)].all() for row in closed]
        groups = [[u for u in np.flatnonzero(row) if simplicial[u]] for row in closed]
    else:
        groups = []
        for rows in (adj, closed):
            classes: dict[bytes, list[int]] = {}
            for v, row in enumerate(rows):
                classes.setdefault(row.tobytes(), []).append(v)
            groups += classes.values()
    return sorted({sum(1 << int(v) for v in grp) for grp in groups if len(grp) >= 2})


def mask_pairs(masks) -> set[int]:
    """Every pair of members of one mask, as a two-bit mask."""
    pairs = set()
    for m in masks:
        members = [1 << v for v in range(m.bit_length()) if m >> v & 1]
        pairs.update(a | b for a, b in itertools.combinations(members, 2))
    return pairs


# ---------------------------------------------------------------------------
# structure references: the twin rule


def _twins(tets):
    """``(left, right, hinge)`` for every pair of tetrahedra sharing exactly
    one vertex, the hinge."""
    twins = []
    for left, right in itertools.combinations(tets, 2):
        shared = set(left.vertices) & set(right.vertices)
        if len(shared) == 1:
            twins.append((left, right, shared.pop()))
    return twins


def twin_rule_masks(g: Graph) -> list[int]:
    """Bitmasks of the cubic sets, with two or more members, of every cover
    tetrahedron and of every twin; ``[]`` when no cover is found."""
    try:
        tets = find_tetrahedra(g)
    except StructureError:
        return []
    cubic_sets = [t.cubic_vertices for t in tets]
    cubic_sets += [left.cubic_vertices + right.cubic_vertices for left, right, _ in _twins(tets)]
    return sorted({sum(1 << v for v in c) for c in cubic_sets if len(c) >= 2})


def twin_classify_silicate(g: Graph):
    """Chain / cyclic recognition from the twin graph: tetrahedra as nodes,
    one edge per twin, each hinge used by one twin; ``None`` otherwise."""
    try:
        tets = find_tetrahedra(g)
    except StructureError:
        return None
    count = len(tets)
    if 6 * count != g.edge_count:
        return None
    if count == 1:
        return SilicateSpec(family=CHAIN, n=1)
    twins = _twins(tets)
    degree = {t.vertices: 0 for t in tets}
    for left, right, _ in twins:
        degree[left.vertices] += 1
        degree[right.vertices] += 1
    counts = sorted(degree.values())
    hinges = len({hinge for _, _, hinge in twins})
    if len(twins) == count - 1 == hinges:
        if counts[:2] == [1, 1] and all(c == 2 for c in counts[2:]):
            return SilicateSpec(family=CHAIN, n=count)
    if count >= 3 and len(twins) == count == hinges and all(c == 2 for c in counts):
        return SilicateSpec(family=CYCLIC, n=count)
    return None


# ---------------------------------------------------------------------------
# graph builders


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    """Random spanning tree plus a few extra edges."""
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        a = order[rng.randrange(i)]
        b = order[i]
        edges.add((min(a, b), max(a, b)))
    extras = rng.randint(0, max(1, n // 2))
    for _ in range(extras * 3):
        if len(edges) >= n * (n - 1) // 2:
            break
        a, b = rng.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    return build_graph(n, sorted(edges))


def hypercube_graph(d: int) -> Graph:
    """The d-dimensional hypercube; for d >= 3 no two vertices are twins."""
    n = 1 << d
    return build_graph(n, [(v, v ^ 1 << i) for v in range(n) for i in range(d)])


def complete_graph(n: int) -> Graph:
    return build_graph(n, list(itertools.combinations(range(n), 2)))


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def family_graph(family: str, n: int) -> Graph:
    return build_silicate(SilicateSpec(family=family, n=n)).graph


def relabeled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    return build_graph(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges])


@st.composite
def structure_cases(draw):
    """(kind, graph) under a random relabeling: the skeleton expansion of a
    random connected base on 2-7 vertices, a random connected graph on
    4-12 vertices, or a chain / cyclic silicate with n <= 12."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from([SKELETON, "random", CHAIN, CYCLIC]))
    if kind == SKELETON:
        base = random_connected_graph(rng, draw(st.integers(2, 7)))
        g = build_silicate(SilicateSpec(family=SKELETON, skeleton=base)).graph
    elif kind == "random":
        g = random_connected_graph(rng, draw(st.integers(4, 12)))
    else:
        g = family_graph(kind, draw(st.integers(1 if kind == CHAIN else 3, 12)))
    return kind, relabeled(g, rng)


@pytest.fixture(scope="session")
def small_corpus():
    """Named graphs with at most 12 vertices for oracle-equivalence runs."""
    rng = random.Random(20260815)
    corpus = [
        ("chain-1", family_graph(CHAIN, 1)),
        ("chain-2", family_graph(CHAIN, 2)),
        ("chain-3", family_graph(CHAIN, 3)),
        ("cyclic-3", family_graph(CYCLIC, 3)),
        ("cyclic-4", family_graph(CYCLIC, 4)),
        ("path-6", path_graph(6)),
        ("cycle-7", cycle_graph(7)),
        ("complete-4", complete_graph(4)),
    ]
    for i in range(10):
        n = rng.randint(4, 12)
        corpus.append((f"random-{i}-n{n}", random_connected_graph(rng, n)))
    return corpus


# ---------------------------------------------------------------------------
# acceptance-criteria reporting

CRITERIA_DESCRIPTIONS = {
    1: "even chains n=2,4,6: exact edge dimension 5, 8, 11 within 60 s each",
    2: "odd chains n=1,3,5: exact edge dimension 3, 6, 9 within 60 s each",
    3: "cycles n=3..7: exact edge dimension 7, 6, 8, 9, 11 within 5 min each "
    "(paper: 5 at n=3; 7 checked against the naive oracle)",
    4: "constructions for n <= 200 have the predicted size and verify within "
    "10 min, except cycle n=3 (size 5, corner-corner edges collide)",
    5: "lower bound = exact = constructed size on every solved instance, "
    "except cycle n=3 (lower = constructed = predicted = 5, exact 7)",
    6: "1000 random edge resolving sets pass the twin necessity check",
    7: "1000 condition-satisfying cubic sets per family are edge-resolving, "
    "except at cycle n=3, where every one fails",
    8: "three-cubic / two-cubic code displays hold for every tetra, n <= 20",
    9: "pruned solver matches the naive oracle on all small corpus graphs",
    10: "certificates are byte-identical across worker counts 1, 4, 16",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for key in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(key, []):
            nodeid = getattr(report, "nodeid", "")
            if getattr(report, "when", "call") != "call" and key == "passed":
                continue
            match = re.search(r"test_criterion_(\d+)", nodeid)
            if match:
                num = int(match.group(1))
                if key == "passed" and num in outcomes:
                    continue
                outcomes[num] = "PASS" if key == "passed" else "FAIL"
    if not outcomes:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num in sorted(CRITERIA_DESCRIPTIONS):
        status = outcomes.get(num, "NOT RUN")
        terminalreporter.write_line(
            f"CRITERION {num:2d}: {status} - {CRITERIA_DESCRIPTIONS[num]}"
        )
