"""Exact minimum resolving-set search: certificates, pruning, determinism."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from silires import (
    CHAIN,
    CYCLIC,
    SKELETON,
    SilicateSpec,
    SolveOptions,
    build_graph,
    build_silicate,
    classify_silicate,
    construct_for_spec,
    dimension_lower_bound,
    exact_edge_metric_dimension,
    exact_metric_dimension,
    is_edge_resolving,
    is_minimal,
    is_vertex_resolving,
)
from silires.solver import (
    STATUS_CONDITIONAL,
    STATUS_OPTIMAL,
    STATUS_PARTIAL,
    edge_infeasibility_masks,
)

from conftest import (
    complete_graph,
    family_graph,
    naive_minimum_resolving,
    path_graph,
    random_connected_graph,
)


def _relabeled(g, rng):
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    return build_graph(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges])


def _reference_level(g, masks, universe, k, remaining):
    """One level by ``itertools.combinations`` in lexicographic order.

    Counts the k-sets passing every mask up to the first resolving one and
    applies the solver's budget at its block boundaries (a block holds the
    sets sharing a smallest member).  Returns (witness, evaluated, tripped).
    """
    if len(universe) < k:
        return None, 0, False
    if remaining is not None and remaining <= 0:
        return None, 0, True
    evaluated = 0
    block = universe[0]
    for combo in itertools.combinations(universe, k):
        if combo[0] != block:
            if remaining is not None and evaluated >= remaining:
                return None, evaluated, True
            block = combo[0]
        bits = sum(1 << v for v in combo)
        if any((m & ~bits).bit_count() >= 2 for m in masks):
            continue
        evaluated += 1
        if is_edge_resolving(g, combo).resolving:
            return combo, evaluated, False
    return None, evaluated, False


def _reference_solve(g, opts):
    """The solver's level schedule over :func:`_reference_level`: an upward
    sweep from the start size, then downward confirmation over every vertex.
    Returns the certificate fields compared by :func:`_outcome`.
    """
    masks = edge_infeasibility_masks(g)
    full = tuple(range(g.vertex_count))
    universe = full
    if opts.restrict_to_cubic:
        universe = tuple(v for v in full if g.degree(v) == 3)
    cap = opts.max_size or g.vertex_count
    start = opts.start_size
    if start is None:
        spec = classify_silicate(g)
        start = min(dimension_lower_bound(spec) if spec else 1, cap)
    evaluated = 0
    proven = 0

    def level(candidates, k):
        nonlocal evaluated
        budget = opts.budget_subsets
        remaining = None if budget is None else budget - evaluated
        witness, count, tripped = _reference_level(g, masks, candidates, k, remaining)
        evaluated += count
        return witness, tripped

    for k in range(start, cap + 1):
        witness, tripped = level(universe, k)
        if witness is not None:
            break
        if tripped:
            return STATUS_PARTIAL, None, None, proven, start, evaluated
        if not opts.restrict_to_cubic:
            proven = k
    else:
        return STATUS_PARTIAL, None, None, proven, start, evaluated
    while k - 1 > max(proven, 0):
        below, tripped = level(full, k - 1)
        if below is None:
            if tripped:
                return STATUS_CONDITIONAL, k, witness, proven, start, evaluated
            proven = k - 1
            break
        k, witness = k - 1, below
    return STATUS_OPTIMAL, k, witness, proven, start, evaluated


def _outcome(cert):
    """Every certificate field that varies between solves of one graph;
    the bounds are derived from these."""
    return (
        cert.status,
        cert.dimension,
        cert.witness,
        cert.infeasible_size_checked,
        cert.start_size,
        cert.stats.subsets_examined,
    )


@st.composite
def relabeled_instances(draw):
    """Chain / cyclic n <= 6 or a skeleton expansion of a small random base,
    under a random relabeling, with random start, restriction and budget."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from([CHAIN, CYCLIC, SKELETON]))
    if kind == SKELETON:
        base = random_connected_graph(rng, draw(st.integers(2, 4)))
        spec = SilicateSpec(family=SKELETON, skeleton=base)
        start = draw(st.one_of(st.none(), st.integers(1, 4)))
    else:
        n = draw(st.integers(1 if kind == CHAIN else 3, 6))
        spec = SilicateSpec(family=kind, n=n)
        lower = dimension_lower_bound(spec)
        start = draw(st.one_of(st.none(), st.integers(max(1, lower - 1), lower + 1)))
    g = _relabeled(build_silicate(spec).graph, rng)
    opts = SolveOptions(
        start_size=start,
        restrict_to_cubic=draw(st.booleans()),
        budget_subsets=draw(st.one_of(st.none(), st.integers(0, 8))),
    )
    return g, opts


class TestOptimalCertificates:
    def test_single_tetrahedron(self):
        cert = exact_edge_metric_dimension(family_graph(CHAIN, 1))
        assert cert.status == STATUS_OPTIMAL
        assert cert.dimension == 3
        assert cert.witness == (0, 1, 2)
        assert cert.infeasible_size_checked == 2
        assert cert.lower_bound == cert.upper_bound == 3

    def test_chain_2(self):
        cert = exact_edge_metric_dimension(family_graph(CHAIN, 2))
        assert cert.status == STATUS_OPTIMAL
        assert cert.dimension == 5
        assert is_edge_resolving(family_graph(CHAIN, 2), cert.witness).resolving

    def test_chain_3(self):
        cert = exact_edge_metric_dimension(family_graph(CHAIN, 3))
        assert cert.dimension == 6
        assert cert.infeasible_size_checked == 5

    def test_path_dimension_one(self):
        cert = exact_edge_metric_dimension(path_graph(7))
        assert cert.dimension == 1
        assert cert.witness == (0,)
        assert cert.infeasible_size_checked == 0

    def test_witness_is_lex_smallest(self):
        g = complete_graph(4)
        cert = exact_edge_metric_dimension(g)
        assert cert.dimension == 3
        assert cert.witness == (0, 1, 2)

    def test_vertex_dimension_complete_graph(self):
        cert = exact_metric_dimension(complete_graph(5))
        assert cert.status == STATUS_OPTIMAL
        assert cert.dimension == 4
        assert cert.witness == (0, 1, 2, 3)

    def test_vertex_dimension_chain_2(self):
        g = family_graph(CHAIN, 2)
        cert = exact_metric_dimension(g)
        assert cert.dimension == 4
        assert is_vertex_resolving(g, cert.witness).resolving

    def test_seeding_above_true_dimension_descends(self):
        g = family_graph(CHAIN, 2)
        cert = exact_edge_metric_dimension(g, SolveOptions(start_size=7))
        assert cert.status == STATUS_OPTIMAL
        assert cert.dimension == 5
        assert cert.infeasible_size_checked == 4

    def test_seeding_below_sweeps_up(self):
        g = family_graph(CYCLIC, 3)
        cert = exact_edge_metric_dimension(g, SolveOptions(start_size=1))
        assert cert.status == STATUS_OPTIMAL
        assert cert.dimension == 7

    def test_matches_naive_oracle_on_families(self):
        for family, n in [(CHAIN, 2), (CHAIN, 3), (CYCLIC, 3), (CYCLIC, 4)]:
            g = family_graph(family, n)
            dim, witness = naive_minimum_resolving(g, "edge")
            cert = exact_edge_metric_dimension(g)
            assert cert.dimension == dim
            assert cert.witness == witness


class TestRestrictedAndBudgeted:
    def test_restricted_confirmed_optimal(self):
        g = family_graph(CHAIN, 3)
        cert = exact_edge_metric_dimension(g, SolveOptions(restrict_to_cubic=True))
        assert cert.restrict_to_cubic
        assert cert.status == STATUS_OPTIMAL
        assert cert.dimension == 6

    def test_restricted_universe_can_be_exhausted(self):
        # No all-cubic landmark set resolves the smallest cycle, so the
        # restricted search comes back empty-handed and honest.
        g = family_graph(CYCLIC, 3)
        cert = exact_edge_metric_dimension(g, SolveOptions(restrict_to_cubic=True))
        assert cert.status == STATUS_PARTIAL
        assert cert.dimension is None
        assert cert.witness is None

    def test_budget_zero_gives_partial(self):
        g = family_graph(CHAIN, 2)
        cert = exact_edge_metric_dimension(g, SolveOptions(budget_subsets=0))
        assert cert.status == STATUS_PARTIAL
        assert cert.dimension is None
        assert cert.stats.subsets_examined == 0

    def test_budget_trip_mid_sweep_reports_bounds(self):
        g = family_graph(CYCLIC, 3)
        cert = exact_edge_metric_dimension(
            g, SolveOptions(start_size=1, budget_subsets=10)
        )
        assert cert.status == STATUS_PARTIAL
        assert cert.dimension is None
        # Sizes up to five are fully refuted before the budget trips.
        assert cert.infeasible_size_checked == 5
        assert cert.lower_bound == 6
        assert cert.upper_bound is None

    def test_budget_trip_during_confirmation_is_conditional(self):
        g = family_graph(CHAIN, 2)
        cert = exact_edge_metric_dimension(
            g, SolveOptions(start_size=5, budget_subsets=1)
        )
        assert cert.status == STATUS_CONDITIONAL
        assert cert.dimension == 5
        assert cert.witness == (0, 1, 2, 4, 5)
        assert cert.upper_bound == 5
        assert cert.lower_bound < 5

    def test_examined_counter_monotone_in_budget(self):
        g = family_graph(CYCLIC, 3)
        opts = lambda b: SolveOptions(start_size=1, budget_subsets=b)
        counts = [
            exact_edge_metric_dimension(g, opts(b)).stats.subsets_examined
            for b in (0, 6, 10)
        ]
        assert counts == sorted(counts)


class TestDeterminism:
    @pytest.mark.parametrize("family,n", [(CHAIN, 3), (CYCLIC, 4)])
    def test_workers_do_not_change_results(self, family, n):
        g = family_graph(family, n)
        base = exact_edge_metric_dimension(g, SolveOptions(parallel_workers=1))
        multi = exact_edge_metric_dimension(g, SolveOptions(parallel_workers=4))
        strip = lambda c: {
            "dimension": c.dimension,
            "witness": c.witness,
            "infeasible": c.infeasible_size_checked,
            "status": c.status,
            "examined": c.stats.subsets_examined,
        }
        assert strip(base) == strip(multi)

    @pytest.mark.parametrize(
        "family,n,opts",
        [
            (CHAIN, 7, SolveOptions()),
            (CYCLIC, 7, SolveOptions()),
            (CYCLIC, 3, SolveOptions(start_size=1)),
        ],
    )
    def test_search_counters_identical_for_one_and_two_workers(self, family, n, opts):
        g = family_graph(family, n)
        counters = []
        for workers in (1, 2):
            stats = exact_edge_metric_dimension(
                g, dataclasses.replace(opts, parallel_workers=workers)
            ).stats
            counters.append(
                (stats.subsets_examined, stats.nodes_visited, stats.bound_prunes)
            )
        assert counters[0] == counters[1]
        assert counters[0][2] > 0

    def test_repeat_runs_identical(self):
        g = family_graph(CYCLIC, 4)
        a = exact_edge_metric_dimension(g)
        b = exact_edge_metric_dimension(g)
        assert a.witness == b.witness
        assert a.stats.subsets_examined == b.stats.subsets_examined


class TestPruningMasks:
    def test_masks_present_on_silicates(self):
        g = family_graph(CHAIN, 4)
        assert edge_infeasibility_masks(g)

    def test_masks_absent_on_plain_graphs(self):
        assert edge_infeasibility_masks(path_graph(5)) == []

    def test_masks_never_change_the_answer(self):
        # Pruned and unpruned searches must agree; the unpruned run is
        # forced by seeding from size one on a graph without tetrahedra.
        g = family_graph(CYCLIC, 4)
        dim, witness = naive_minimum_resolving(g, "edge")
        cert = exact_edge_metric_dimension(g)
        assert (cert.dimension, cert.witness) == (dim, witness)

    @settings(max_examples=30, deadline=None)
    @given(relabeled_instances())
    def test_bound_never_changes_what_is_evaluated(self, case):
        # The counting bound may only cut subtrees without a mask-passing
        # set, so every set the plain enumeration evaluates, in its order
        # and with its budget trips, is evaluated by the solver too.
        g, opts = case
        assert _outcome(exact_edge_metric_dimension(g, opts)) == _reference_solve(g, opts)


class TestSearchCounters:
    # With the counting bound these solves visited 78 (chain 13) and 82
    # (cyclic 13) nodes; the pins leave 2x headroom.  Without the bound the
    # chain 13 proof walks 3.9 million nodes.
    @pytest.mark.parametrize("family,n,pin", [(CHAIN, 13, 156), (CYCLIC, 13, 164)])
    def test_edge_solve_node_count_guard(self, family, n, pin):
        cert = exact_edge_metric_dimension(family_graph(family, n))
        assert cert.status == STATUS_OPTIMAL
        assert cert.stats.nodes_visited <= pin

    def test_vertex_target_has_no_bound_prunes(self):
        cert = exact_metric_dimension(family_graph(CHAIN, 2))
        assert cert.stats.bound_prunes == 0
        assert cert.stats.nodes_visited >= cert.stats.subsets_examined


class TestSolveOptionsValidation:
    def test_bad_worker_count(self):
        with pytest.raises(ValueError):
            SolveOptions(parallel_workers=0)

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            SolveOptions(start_size=0)
        with pytest.raises(ValueError):
            SolveOptions(start_size=5, max_size=4)

    def test_negative_budget(self):
        with pytest.raises(ValueError):
            SolveOptions(budget_subsets=-1)


class TestIsMinimal:
    def test_exact_witness_is_minimal(self):
        g = family_graph(CYCLIC, 4)
        cert = exact_edge_metric_dimension(g)
        assert is_minimal(g, cert.witness)

    def test_full_set_is_not_minimal(self):
        g = family_graph(CHAIN, 3)
        assert not is_minimal(g, range(g.vertex_count))

    def test_non_resolving_set_rejected(self):
        g = family_graph(CHAIN, 2)
        with pytest.raises(ValueError):
            is_minimal(g, [0, 1])

    def test_vertex_target(self):
        g = complete_graph(4)
        assert is_minimal(g, [0, 1, 2], target="vertex")
