"""Acceptance gate: ten criteria, one test each.

Each ``test_criterion_NN`` collects every deviation it finds and fails with
the full list, so a red criterion names all offending instances at once.
The terminal summary (see conftest) prints one PASS/FAIL line per criterion.

Every instance is held to the paper's closed forms except the one where they
are wrong: the 3-cycle silicate (``EXCEPTION``).  There the odd-cycle form
3(n+1)/2 - 1 gives 5, but the exact edge metric dimension is 7 (README, "The
smallest cycle is an exception"), and criteria 3, 4, 5 and 7 assert exactly
what holds on that instance.
"""

import random
import time

import pytest

from silires import (
    CHAIN,
    CYCLIC,
    SilicateSpec,
    SolveOptions,
    all_pairs_distances,
    build_silicate,
    canonical_json_bytes,
    certificate_report,
    construct_for_spec,
    edge_code_table,
    exact_edge_metric_dimension,
    find_tetrahedra,
    is_edge_resolving,
    predicted_dimension,
)
from silires.solver import STATUS_OPTIMAL, edge_infeasibility_masks

from conftest import cubic_members, family_graph, naive_minimum_resolving

# The paper's value and the exact edge metric dimension at the exception.
EXCEPTION = (CYCLIC, 3)
EXCEPTION_PAPER = 5
EXCEPTION_EXACT = 7

CHAIN_EVEN = {2: 5, 4: 8, 6: 11}
CHAIN_ODD = {1: 3, 3: 6, 5: 9}
CYCLIC_EXPECTED = {3: EXCEPTION_EXACT, 4: 6, 5: 8, 6: 9, 7: 11}

ALL_INSTANCES = [(CHAIN, n) for n in sorted({**CHAIN_EVEN, **CHAIN_ODD})] + [
    (CYCLIC, n) for n in sorted(CYCLIC_EXPECTED)
]


def _corner_edges(family, n):
    """Edges joining two shared corners of the silicate."""
    silicate = build_silicate(SilicateSpec(family=family, n=n))
    corners = set(silicate.shared_vertices)
    return {e for e in silicate.graph.edges if set(e) <= corners}


@pytest.fixture(scope="module")
def solved():
    """Exact certificates (single worker) for every criterion 1-3 instance."""
    return {
        (family, n): exact_edge_metric_dimension(family_graph(family, n))
        for family, n in ALL_INSTANCES
    }


def _check_instances(solved, family, expected, budget_seconds):
    problems = []
    for n in sorted(expected):
        cert = solved[(family, n)]
        if cert.status != STATUS_OPTIMAL:
            problems.append(f"{family} n={n}: status {cert.status}, not optimal")
        if cert.dimension != expected[n]:
            problems.append(
                f"{family} n={n}: dimension {cert.dimension}, expected {expected[n]}"
            )
        if cert.stats.elapsed_seconds >= budget_seconds:
            problems.append(
                f"{family} n={n}: took {cert.stats.elapsed_seconds:.1f}s, "
                f"budget {budget_seconds}s"
            )
    return problems


def test_criterion_01_even_chain_dimensions(solved):
    problems = _check_instances(solved, CHAIN, CHAIN_EVEN, 60)
    assert not problems, "; ".join(problems)


def test_criterion_02_odd_chain_dimensions(solved):
    problems = _check_instances(solved, CHAIN, CHAIN_ODD, 60)
    assert not problems, "; ".join(problems)


def test_criterion_03_cyclic_dimensions(solved):
    problems = _check_instances(solved, CYCLIC, CYCLIC_EXPECTED, 300)
    # The pin at the exception rests on the unpruned oracle, not only on the
    # solver under test.
    oracle_dim, _ = naive_minimum_resolving(family_graph(*EXCEPTION), "edge")
    if oracle_dim != CYCLIC_EXPECTED[EXCEPTION[1]]:
        problems.append(
            f"{EXCEPTION[0]} n={EXCEPTION[1]}: oracle dimension {oracle_dim}, "
            f"pinned {CYCLIC_EXPECTED[EXCEPTION[1]]}"
        )
    assert not problems, "; ".join(problems)


def test_criterion_04_construction_at_scale():
    start = time.perf_counter()
    problems = []
    cases = [(CHAIN, n) for n in range(1, 201)] + [(CYCLIC, n) for n in range(3, 201)]
    for family, n in cases:
        spec = SilicateSpec(family=family, n=n)
        silicate, ers = construct_for_spec(spec)
        expected = predicted_dimension(spec)
        if len(ers) != expected:
            problems.append(
                f"{family} n={n}: constructed {len(ers)} landmarks, expected {expected}"
            )
        result = is_edge_resolving(silicate.graph, ers)
        if (family, n) == EXCEPTION:
            # The paper-sized set falls short: two corner-corner edges collide.
            if expected != EXCEPTION_PAPER:
                problems.append(
                    f"{family} n={n}: predicted {expected}, paper {EXCEPTION_PAPER}"
                )
            if result.resolving:
                problems.append(
                    f"{family} n={n}: constructed set of {len(ers)} resolves, "
                    f"below the exact dimension {EXCEPTION_EXACT}"
                )
            elif not set(result.witness) <= _corner_edges(family, n):
                problems.append(
                    f"{family} n={n}: collision {result.witness} is not between "
                    f"corner-corner edges"
                )
        elif not result.resolving:
            problems.append(f"{family} n={n}: constructed set is not edge-resolving")
    elapsed = time.perf_counter() - start
    if elapsed >= 600:
        problems.append(f"sweep took {elapsed:.0f}s, budget 600s")
    assert not problems, "; ".join(problems)


def test_criterion_05_sandwich_equality(solved):
    problems = []
    for family, n in ALL_INSTANCES:
        spec = SilicateSpec(family=family, n=n)
        lower = predicted_dimension(spec)
        exact = solved[(family, n)].dimension
        constructed = len(construct_for_spec(spec)[1])
        if (family, n) == EXCEPTION:
            predicted = predicted_dimension(spec)
            if not (
                lower == constructed == predicted == EXCEPTION_PAPER
                and exact == EXCEPTION_EXACT
            ):
                problems.append(
                    f"{family} n={n}: lower {lower}, constructed {constructed}, "
                    f"predicted {predicted} (paper {EXCEPTION_PAPER}); "
                    f"exact {exact} (proven {EXCEPTION_EXACT})"
                )
        elif not (lower == exact == constructed):
            problems.append(
                f"{family} n={n}: lower {lower}, exact {exact}, "
                f"constructed {constructed}"
            )
    assert not problems, "; ".join(problems)


def _decompositions(family, n_range):
    out = {}
    for n in n_range:
        g = family_graph(family, n)
        out[n] = (g, find_tetrahedra(g), edge_infeasibility_masks(g))
    return out


def _members(mask):
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def _short_masks(masks, landmarks):
    """The masks leaving two or more members out of ``landmarks``: a set
    that some mask leaves short cannot resolve the edges (solver lemma).
    On chain and cyclic silicates the masks are the cubic sets of the
    tetrahedra and of the twins (two tetrahedra on one hinge)."""
    chosen = sum(1 << v for v in landmarks)
    return [m for m in masks if (m & ~chosen).bit_count() >= 2]


def test_criterion_06_twin_necessity_on_random_sets(solved):
    rng = random.Random(1006)
    problems = []
    for family, n_range in ((CHAIN, range(1, 11)), (CYCLIC, range(3, 11))):
        parts = _decompositions(family, n_range)
        bases = {}
        for n in n_range:
            g = parts[n][0]
            _, ers = construct_for_spec(SilicateSpec(family=family, n=n))
            if is_edge_resolving(g, ers).resolving:
                bases[n] = tuple(ers)
            else:
                # The one family member whose construction falls short; any
                # exact witness is a valid resolving base.
                bases[n] = exact_edge_metric_dimension(g).witness
        # Random edge-resolving sets: a witness plus random extra vertices.
        for _ in range(1000):
            n = rng.choice(list(n_range))
            g, _, masks = parts[n]
            outside = [v for v in range(g.vertex_count) if v not in bases[n]]
            extras = rng.sample(outside, rng.randint(0, min(5, len(outside))))
            landmarks = sorted(set(bases[n]) | set(extras))
            if not is_edge_resolving(g, landmarks).resolving:
                problems.append(f"{family} n={n}: superset of a witness not resolving")
                continue
            violations = _short_masks(masks, landmarks)
            if violations:
                problems.append(
                    f"{family} n={n}: resolving set {landmarks} flagged as violating"
                )
        # Conversely: leave two members of one mask out; the check must
        # flag the set and verification must fail.
        for _ in range(250):
            n = rng.choice([m for m in n_range if m >= 2])
            g, _, masks = parts[n]
            mask = rng.choice(masks)
            dropped = rng.sample(_members(mask), 2)
            pool = [v for v in range(g.vertex_count) if v not in dropped]
            size = rng.randint(1, len(pool))
            landmarks = sorted(rng.sample(pool, size))
            if not _short_masks(masks, landmarks):
                problems.append(
                    f"{family} n={n}: violating set {landmarks} not flagged"
                )
            if is_edge_resolving(g, landmarks).resolving:
                problems.append(
                    f"{family} n={n}: set missing cubics {sorted(dropped)} of a mask "
                    f"still resolves"
                )
    assert not problems, "; ".join(problems[:10])


def _sample_condition_set(rng, g, tets, masks):
    """Random cubic landmark set leaving out at most one member of every
    mask.  Each tetrahedron's cubic set with two or more members is a mask,
    so it first takes all of those but at most one (two of a type-I end's
    three, one of a type-II pair, three of a lone K4), then adds a member
    of a random short mask until none is short."""
    chosen = set()
    for tet in tets:
        cubic = cubic_members(g, tet)
        take = rng.randint(len(cubic) - 1, len(cubic))
        chosen.update(rng.sample(cubic, take))
    while True:
        short = _short_masks(masks, chosen)
        if not short:
            break
        mask = rng.choice(short)
        chosen.add(rng.choice([v for v in _members(mask) if v not in chosen]))
    return sorted(chosen)


def test_criterion_07_cubic_sufficiency_sampling():
    rng = random.Random(1007)
    problems = []
    exception_draws = 0
    corner_edges = _corner_edges(*EXCEPTION)
    for family, n_range in ((CHAIN, range(1, 13)), (CYCLIC, range(3, 13))):
        parts = _decompositions(family, n_range)
        for _ in range(1000):
            n = rng.choice(list(n_range))
            g, tets, masks = parts[n]
            landmarks = _sample_condition_set(rng, g, tets, masks)
            assert not _short_masks(masks, landmarks), "sampler produced a non-conforming set"
            result = is_edge_resolving(g, landmarks)
            if (family, n) == EXCEPTION:
                # No cubic-only set resolves here: every cubic vertex is at
                # distance 1 from all three corner-corner edges.
                exception_draws += 1
                if result.resolving:
                    problems.append(
                        f"{family} n={n}: cubic-only set {landmarks} resolves"
                    )
                elif not set(result.witness) <= corner_edges:
                    problems.append(
                        f"{family} n={n}: set {landmarks} collides at "
                        f"{result.witness}, not between corner-corner edges"
                    )
            elif not result.resolving:
                problems.append(f"{family} n={n}: conforming set {landmarks} fails")
    if not exception_draws:
        problems.append(f"no draw at {EXCEPTION[0]} n={EXCEPTION[1]}")
    assert not problems, (
        f"{len(problems)} conforming cubic sets break the expectation; "
        + "; ".join(problems[:5])
    )


def _type1_cases(g, dist, tet):
    """Landmarks (s, v1, v2) and the six displayed codes for a 3-cubic tetra."""
    (v0,) = [v for v in tet if g.degree(v) != 3]
    v1, v2, v3 = cubic_members(g, tet)
    members = set(tet)
    s = min(v for v in range(g.vertex_count) if v not in members)
    x = int(dist[s, v0])
    landmarks = (s, v1, v2)
    expected = {
        (v0, v1): (x, 0, 1),
        (v0, v2): (x, 1, 0),
        (v0, v3): (x, 1, 1),
        (v1, v2): (x + 1, 0, 0),
        (v1, v3): (x + 1, 0, 1),
        (v2, v3): (x + 1, 1, 0),
    }
    return landmarks, expected


def _type2_cases(g, dist, tet):
    """Landmarks (s, t, u2) and the six displayed codes for a 2-cubic tetra."""
    u0, u1 = [v for v in tet if g.degree(v) != 3]
    u2, u3 = cubic_members(g, tet)
    members = set(tet)
    s = min(
        v
        for v in range(g.vertex_count)
        if v not in members and dist[v, u0] < dist[v, u1]
    )
    t = min(
        v
        for v in range(g.vertex_count)
        if v not in members and dist[v, u1] < dist[v, u0]
    )
    x = int(dist[s, u0])
    y = int(dist[t, u1])
    landmarks = (s, t, u2)
    expected = {
        (u0, u1): (x, y, 1),
        (u0, u2): (x, y + 1, 0),
        (u0, u3): (x, y + 1, 1),
        (u1, u2): (x + 1, y, 0),
        (u1, u3): (x + 1, y, 1),
        (u2, u3): (x + 1, y + 1, 0),
    }
    return landmarks, expected


def test_criterion_08_tetrahedron_code_displays():
    problems = []
    checked = 0
    for family, n_range in ((CHAIN, range(1, 21)), (CYCLIC, range(3, 21))):
        for n in n_range:
            g = family_graph(family, n)
            dist = all_pairs_distances(g)
            for tet in find_tetrahedra(g):
                cubic = len(cubic_members(g, tet))
                if cubic == 3:
                    landmarks, expected = _type1_cases(g, dist, tet)
                elif cubic == 2:
                    landmarks, expected = _type2_cases(g, dist, tet)
                else:
                    continue
                checked += 1
                table = dict(zip(g.edges, map(tuple, edge_code_table(g, landmarks).tolist())))
                codes = {e: table[(min(e), max(e))] for e in expected}
                for e, want in expected.items():
                    if codes[e] != want:
                        problems.append(
                            f"{family} n={n} tetra {tet} edge {e}: "
                            f"code {codes[e]}, displayed {want}"
                        )
                if len(set(codes.values())) != 6:
                    problems.append(
                        f"{family} n={n} tetra {tet}: codes not distinct"
                    )
    assert checked > 400
    assert not problems, "; ".join(problems[:10])


def test_criterion_09_oracle_equivalence(small_corpus):
    problems = []
    for name, g in small_corpus:
        assert g.vertex_count <= 12
        dim, witness = naive_minimum_resolving(g, "edge")
        cert = exact_edge_metric_dimension(g)
        if cert.status != STATUS_OPTIMAL:
            problems.append(f"{name}: status {cert.status}")
        if (cert.dimension, cert.witness) != (dim, witness):
            problems.append(
                f"{name}: solver ({cert.dimension}, {cert.witness}) vs "
                f"oracle ({dim}, {witness})"
            )
        if cert.infeasible_size_checked != dim - 1:
            problems.append(
                f"{name}: infeasible_size_checked {cert.infeasible_size_checked}, "
                f"expected {dim - 1}"
            )
    assert not problems, "; ".join(problems)


def test_criterion_10_certificates_identical_across_workers(solved):
    problems = []
    for family, n in ALL_INSTANCES:
        g = family_graph(family, n)
        reference = canonical_json_bytes(certificate_report(solved[(family, n)]))
        for workers in (4, 16):
            cert = exact_edge_metric_dimension(
                g, SolveOptions(parallel_workers=workers)
            )
            encoded = canonical_json_bytes(certificate_report(cert))
            if encoded != reference:
                problems.append(f"{family} n={n}: workers={workers} differs")
    assert not problems, "; ".join(problems)
