"""Exact minimum resolving-set search: certificates, pruning, determinism."""

import concurrent.futures
import dataclasses
import itertools
import multiprocessing
import os
import random
import re
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import silires.graphs
import silires.resolving
import silires.solver
from silires import (
    CHAIN,
    CYCLIC,
    SKELETON,
    GraphInputError,
    SilicateSpec,
    SolveOptions,
    SolverInternalError,
    StructureError,
    all_pairs_distances,
    build_graph,
    build_silicate,
    canonical_json_bytes,
    certificate_report,
    construct_for_spec,
    exact_edge_metric_dimension,
    exact_metric_dimension,
    find_tetrahedra,
    is_edge_resolving,
    is_minimal,
    is_vertex_resolving,
    silicate_of_skeleton,
)
from silires.construction import predicted_dimension
from silires.solver import (
    EDGE,
    STATUS_CONDITIONAL,
    STATUS_OPTIMAL,
    STATUS_PARTIAL,
    VERTEX,
    _KEY_LIMIT,
    _context,
    _extend_labels,
    _packing_bound,
    _search_block,
    edge_infeasibility_masks,
    vertex_infeasibility_masks,
)

from conftest import (
    complete_graph,
    distinguishing_sets,
    family_graph,
    hypercube_graph,
    mask_pairs,
    naive_minimum_resolving,
    oracle_is_edge_resolving,
    path_graph,
    random_connected_graph,
    reference_masks,
    relabeled,
    structure_cases,
    twin_rule_masks,
    wrong_path_matrix,
)


def _reference_level(checker, masks, universe, k, remaining):
    """One level by ``itertools.combinations`` in lexicographic order.

    Counts the k-sets passing every mask up to the first one ``checker``
    accepts and applies the solver's budget at its block boundaries (a block
    holds the sets sharing a smallest member).  Returns (witness, evaluated,
    tripped).
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
        if checker(combo):
            return combo, evaluated, False
    return None, evaluated, False


def _reference_solve(g, opts, target=EDGE):
    """The solver's level schedule over :func:`_reference_level`: every size
    below the packing bound over the masks of :func:`reference_masks` counts
    as refuted, then an upward sweep from the start size (that bound, or
    ``start_size`` when larger), then downward confirmation over every vertex.
    Sets failing a mask are skipped.  Returns the certificate fields
    compared by :func:`_outcome`.
    """
    masks = reference_masks(g, target)
    if target == EDGE:
        checker = lambda combo: is_edge_resolving(g, combo).resolving
    else:
        checker = lambda combo: is_vertex_resolving(g, combo).resolving
    universe = tuple(range(g.vertex_count))
    cap = min(opts.max_size or g.vertex_count, g.vertex_count)
    proven = min(max(_packing_bound(masks), 1), cap + 1) - 1
    start = min(max(opts.start_size or 1, proven + 1), cap)
    evaluated = 0

    def level(k):
        nonlocal evaluated
        budget = opts.budget_subsets
        remaining = None if budget is None else budget - evaluated
        witness, count, tripped = _reference_level(
            checker, masks, universe, k, remaining
        )
        evaluated += count
        return witness, tripped

    for k in range(start, cap + 1):
        witness, tripped = level(k)
        if witness is not None:
            break
        if tripped:
            return STATUS_PARTIAL, None, None, proven, start, evaluated
        proven = k
    else:
        return STATUS_PARTIAL, None, None, proven, start, evaluated
    while k - 1 > max(proven, 0):
        below, tripped = level(k - 1)
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
    under a random relabeling, with random start and budget."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from([CHAIN, CYCLIC, SKELETON]))
    if kind == SKELETON:
        base = random_connected_graph(rng, draw(st.integers(2, 4)))
        spec = SilicateSpec(family=SKELETON, skeleton=base)
        start = draw(st.one_of(st.none(), st.integers(1, 4)))
    else:
        n = draw(st.integers(1 if kind == CHAIN else 3, 6))
        spec = SilicateSpec(family=kind, n=n)
        lower = predicted_dimension(spec)
        start = draw(st.one_of(st.none(), st.integers(max(1, lower - 1), lower + 1)))
    g = relabeled(build_silicate(spec).graph, rng)
    opts = SolveOptions(
        start_size=start,
        budget_subsets=draw(st.one_of(st.none(), st.integers(0, 8))),
    )
    return g, opts


@st.composite
def vertex_instances(draw):
    """Chain / cyclic n <= 4 under a random relabeling, or a random connected
    graph on 2-9 vertices, with random start and budget."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from([CHAIN, CYCLIC, None]))
    if kind is None:
        g = random_connected_graph(rng, draw(st.integers(2, 9)))
    else:
        n = draw(st.integers(1 if kind == CHAIN else 3, 4))
        g = relabeled(build_silicate(SilicateSpec(family=kind, n=n)).graph, rng)
    opts = SolveOptions(
        start_size=draw(st.one_of(st.none(), st.integers(1, 5))),
        budget_subsets=draw(st.one_of(st.none(), st.integers(0, 60))),
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

    @pytest.mark.parametrize("solve", [exact_edge_metric_dimension, exact_metric_dimension])
    def test_witness_check_computes_its_own_rows(self, solve, monkeypatch):
        # One set-up of the distance kernel covers every vertex to build the
        # search's matrix; the final witness check then sets up the rows of
        # exactly the witness, sharing nothing with the search but the
        # graph, and fills each of the witness's columns once.
        made = []

        class Counted(silires.graphs._RowFill):
            def __init__(self, g, sources):
                self.sources, self.columns = list(sources), []
                made.append(self)
                super().__init__(g, self.sources)

            def fill(self, lo, hi, out):
                self.columns += range(lo, hi)
                return super().fill(lo, hi, out)

        monkeypatch.setattr(silires.graphs, "_RowFill", Counted)
        monkeypatch.setattr(silires.resolving, "_RowFill", Counted)
        g = family_graph(CHAIN, 3)
        cert = solve(g)
        assert cert.status == STATUS_OPTIMAL and cert.witness
        assert [m.sources for m in made] == [list(range(g.vertex_count)), list(cert.witness)]
        assert [m.columns for m in made] == [list(range(m.count)) for m in made]

    def test_vertex_search_rows_are_the_distance_matrix(self, monkeypatch):
        # The vertex code of a landmark is its distance row, so the search
        # reads the matrix itself, in C order, and copies none of it.
        seen = {}

        def matrix(g):
            seen["dist"] = all_pairs_distances(g)
            return seen["dist"]

        def context(rows, masks):
            seen["rows"] = rows
            return _context(rows, masks)

        monkeypatch.setattr(silires.solver, "all_pairs_distances", matrix)
        monkeypatch.setattr(silires.solver, "_context", context)
        exact_metric_dimension(family_graph(CHAIN, 3))
        rows, dist = seen["rows"], seen["dist"]
        assert np.shares_memory(rows, dist) and rows.flags.c_contiguous
        assert np.array_equal(rows, dist)

    def test_wrong_search_matrix_is_an_internal_error(self, monkeypatch):
        # A defect in the solver's own distance matrix is the solver's, not
        # its input's: the witness it leads to fails the check from the graph.
        monkeypatch.setattr(silires.solver, "all_pairs_distances", wrong_path_matrix)
        with pytest.raises(SolverInternalError, match=r"non-resolving witness \(1,\)"):
            exact_metric_dimension(path_graph(4), SolveOptions(start_size=1))

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

    @pytest.mark.parametrize(
        "opts",
        [
            SolveOptions(start_size=8),
            SolveOptions(start_size=20),
            SolveOptions(start_size=8, max_size=10),
            SolveOptions(max_size=10),
        ],
    )
    def test_sizes_above_the_vertex_count_are_clamped(self, opts):
        # Chain 2 has 7 vertices, and all 7 resolve its edges; an empty
        # level above 7 must not count as refuted.
        g = family_graph(CHAIN, 2)
        cert = exact_edge_metric_dimension(g, opts)
        assert cert.status == STATUS_OPTIMAL
        assert (cert.dimension, cert.infeasible_size_checked) == (5, 4)
        assert cert.start_size == min(opts.start_size or 5, g.vertex_count)

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
        # Cyclic 3 has root bound 4 and dimension 7: from 8 the walk finds
        # witnesses at 8 and 7, and the budget trips in level 6, so only the
        # bound's 4 is proven.  (On chain 2 the root bound is the dimension
        # 5, which leaves no level to confirm.)
        g = family_graph(CYCLIC, 3)
        cert = exact_edge_metric_dimension(
            g, SolveOptions(start_size=8, budget_subsets=5)
        )
        assert cert.status == STATUS_CONDITIONAL
        assert cert.dimension == 7
        assert cert.witness == (0, 1, 2, 3, 4, 5, 7)
        assert cert.upper_bound == 7
        assert cert.lower_bound == 4

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
            # Budget trips mid-level: level 6 of the sweep (partial), and
            # level 6 of the confirmation below the witness at 7 (conditional).
            (CYCLIC, 3, SolveOptions(start_size=1, budget_subsets=10)),
            (CYCLIC, 3, SolveOptions(start_size=8, budget_subsets=5)),
        ],
    )
    def test_search_counters_identical_for_one_and_two_workers(self, family, n, opts):
        # Four workers too: more blocks are in flight when a level ends.
        g = family_graph(family, n)
        results = []
        for workers in (1, 2, 4):
            cert = exact_edge_metric_dimension(
                g, dataclasses.replace(opts, parallel_workers=workers)
            )
            stats = cert.stats
            results.append(
                (
                    cert.status,
                    cert.infeasible_size_checked,
                    stats.subsets_examined,
                    stats.nodes_visited,
                    stats.bound_prunes,
                )
            )
        assert results[1:] == results[:1] * 2
        assert results[0][4] > 0
        if opts.budget_subsets is not None:
            assert results[0][0] in (STATUS_PARTIAL, STATUS_CONDITIONAL)

    @pytest.mark.parametrize(
        "g,opts",
        [
            # Root bound 7, the dimension: the walk starts at the witness.
            (family_graph(CHAIN, 5), SolveOptions()),
            # A spider whose three legs of length 1 (3, 4, 6) are false
            # twins: root bound 2, so the walk starts at 2; levels 2 and 3
            # are walked, and the budget trips in level 3.
            (
                build_graph(
                    8, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 6), (1, 5), (2, 7)]
                ),
                SolveOptions(budget_subsets=10),
            ),
        ],
        ids=["chain-5", "spider-budget-10"],
    )
    def test_vertex_counters_identical_for_one_two_and_four_workers(self, g, opts):
        # Sizes below the root bound are never searched, so they count
        # nothing and submit nothing to the pool, for any worker count.
        results = []
        for workers in (1, 2, 4):
            cert = exact_metric_dimension(
                g, dataclasses.replace(opts, parallel_workers=workers)
            )
            stats = dataclasses.replace(cert.stats, elapsed_seconds=0.0)
            results.append((_outcome(cert), stats))
        assert results[1:] == results[:1] * 2
        assert results[0][1].bound_prunes > 0

    def test_repeat_runs_identical(self):
        g = family_graph(CYCLIC, 4)
        a = exact_edge_metric_dimension(g)
        b = exact_edge_metric_dimension(g)
        assert a.witness == b.witness
        assert a.stats.subsets_examined == b.stats.subsets_examined


needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched block search reaches the workers only by fork",
)


def _failing_block(ctx, k, block):
    raise RuntimeError(f"block {block} failed")


def _dying_block(ctx, k, block):
    os._exit(3)  # the worker dies without a word to the pool


class TestWorkerPool:
    """A solve with a pool returns or raises only after its workers exit."""

    @pytest.mark.parametrize(
        "opts,status",
        [
            (SolveOptions(), STATUS_OPTIMAL),  # ends on a witness
            (SolveOptions(budget_subsets=2000), STATUS_PARTIAL),  # trips mid-level
            (SolveOptions(max_size=2), STATUS_PARTIAL),  # runs out of sizes
        ],
    )
    def test_no_worker_outlives_the_solve(self, opts, status):
        # The budget runs on the twin-free 5-cube, where no mask prunes: 528
        # sets of sizes 1 and 2, then it trips after the first 4 of the 30
        # blocks of size 3 (2212 sets).  Vertex cyclic 7 evaluates one set.
        g = hypercube_graph(5) if opts.budget_subsets else family_graph(CYCLIC, 7)
        cert = exact_metric_dimension(g, dataclasses.replace(opts, parallel_workers=2))
        assert cert.status == status
        assert multiprocessing.active_children() == []

    def test_pool_has_at_most_one_worker_per_vertex(self, monkeypatch):
        # No level of chain 2 (7 vertices) has more than 7 blocks, so 16
        # workers would start 9 that never get one.  A thread pool stands
        # in for the process pool and records its size; the solver imports
        # the pool class from ``concurrent.futures`` when a pool starts.
        sizes = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        monkeypatch.setattr(silires.solver, "_WORKER_CTX", None)
        g = family_graph(CHAIN, 2)
        one = exact_edge_metric_dimension(g, SolveOptions(start_size=1))
        for workers in (2, 16):
            opts = SolveOptions(start_size=1, parallel_workers=workers)
            assert _outcome(exact_edge_metric_dimension(g, opts)) == _outcome(one)
        assert sizes == [2, 7]

    @needs_fork
    @pytest.mark.parametrize(
        "block_search,error",
        [(_failing_block, RuntimeError), (_dying_block, BrokenProcessPool)],
    )
    def test_worker_failure_is_raised_after_the_workers_exit(
        self, block_search, error, monkeypatch
    ):
        # Patched before the pool forks, so only the workers run it.
        monkeypatch.setattr(silires.solver, "_search_block", block_search)
        with pytest.raises(error):
            exact_metric_dimension(
                family_graph(CYCLIC, 7), SolveOptions(parallel_workers=2)
            )
        assert multiprocessing.active_children() == []


class TestPruningMasks:
    masks_of = {EDGE: edge_infeasibility_masks, VERTEX: vertex_infeasibility_masks}

    def test_masks_present_on_silicates(self):
        g = family_graph(CHAIN, 4)
        assert edge_infeasibility_masks(g)

    def test_masks_absent_on_plain_graphs(self):
        assert edge_infeasibility_masks(path_graph(5)) == []

    @pytest.mark.parametrize("family,first", [(CHAIN, 1), (CYCLIC, 3)])
    def test_family_masks_equal_the_twin_rule(self, family, first):
        for n in range(first, 61):
            g = family_graph(family, n)
            assert edge_infeasibility_masks(g) == twin_rule_masks(g), n

    @settings(max_examples=60, deadline=None)
    @given(structure_cases())
    def test_forbidden_pairs_equal_the_twin_rule_on_covered_graphs(self, case):
        # Where the corner rule finds a cover, the simplicial members of
        # N[v] are the cubic vertices of the tetrahedra through v, so the
        # masks forbid the twin rule's vertex pairs and the solver evaluates
        # the same sets.  Where a vertex lies in three or more tetrahedra the
        # lists differ: one mask replaces the pairwise twin masks.
        _, g = case
        try:
            find_tetrahedra(g)
        except StructureError:
            assume(False)
        assert mask_pairs(edge_infeasibility_masks(g)) == mask_pairs(twin_rule_masks(g))

    @settings(max_examples=60, deadline=None)
    @given(
        case=structure_cases(),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 10),
        target=st.sampled_from([EDGE, VERTEX]),
    )
    def test_every_mask_pair_holds_a_distinguishing_set(self, case, seed, n, target):
        # Lemma-free: a landmark set leaving out both members of a pair
        # cannot resolve when some pair of items is told apart only there.
        for g in (case[1], random_connected_graph(random.Random(seed), n)):
            small = [d for d in distinguishing_sets(g, target) if d.bit_count() <= 2]
            for pair in mask_pairs(self.masks_of[target](g)):
                assert any(d & ~pair == 0 for d in small), bin(pair)

    @settings(max_examples=60, deadline=None)
    @given(structure_cases(), st.sampled_from([EDGE, VERTEX]))
    def test_masks_match_their_definitions(self, case, target):
        _, g = case
        assert self.masks_of[target](g) == reference_masks(g, target)

    def test_vertex_masks_are_twin_classes(self):
        # Chain 2: each tetrahedron's cubic vertices are true twins, and
        # the two ends of a path with a middle vertex are false twins.
        assert vertex_infeasibility_masks(family_graph(CHAIN, 2)) == [0b111, 0b1110000]
        assert vertex_infeasibility_masks(path_graph(3)) == [0b101]
        assert vertex_infeasibility_masks(path_graph(5)) == []

    def test_masks_never_change_the_answer(self):
        # The mask-pruned search must find the naive oracle's dimension
        # and lex-first witness.
        g = family_graph(CYCLIC, 4)
        dim, witness = naive_minimum_resolving(g, "edge")
        cert = exact_edge_metric_dimension(g)
        assert (cert.dimension, cert.witness) == (dim, witness)

    @settings(max_examples=25, deadline=None)
    @given(st.one_of(relabeled_instances(), vertex_instances()))
    def test_root_bound_is_at_most_the_dimension(self, case):
        # Sizes below the packing bound over all masks are cut at their
        # roots, so no resolving set may be smaller.  The naive oracle
        # takes seconds above 13 vertices; larger instances are covered by
        # test_bound_never_changes_what_is_evaluated, which compares whole
        # solves with plain enumeration.
        g, _ = case
        assume(g.vertex_count <= 13)
        for target in (EDGE, VERTEX):
            root_bound = _packing_bound(self.masks_of[target](g))
            assert root_bound <= naive_minimum_resolving(g, target)[0], target

    def test_root_bound_is_at_most_the_dimension_on_the_corpus(self, small_corpus):
        for name, g in small_corpus:
            for target in (EDGE, VERTEX):
                root_bound = _packing_bound(self.masks_of[target](g))
                dimension = naive_minimum_resolving(g, target)[0]
                assert root_bound <= dimension, (name, target)

    @settings(max_examples=30, deadline=None)
    @given(relabeled_instances())
    def test_bound_never_changes_what_is_evaluated(self, case):
        # The counting bound may only cut subtrees without a mask-passing
        # set, so every set the plain enumeration evaluates, in its order
        # and with its budget trips, is evaluated by the solver too.
        g, opts = case
        assert _outcome(exact_edge_metric_dimension(g, opts)) == _reference_solve(g, opts)

    @settings(max_examples=30, deadline=None)
    @given(
        case=st.one_of(relabeled_instances(), vertex_instances()),
        target=st.sampled_from([EDGE, VERTEX]),
    )
    def test_walk_starts_at_the_root_bound(self, case, target):
        # Every size below the root bound is refuted by the bound alone, so
        # a walk asked to start lower starts at the bound too: the default
        # solve and one from size 1 give one certificate, whatever the
        # numbering or the family.
        g, _ = case
        assume(g.vertex_count >= 3)  # two or more items for either target
        solve = exact_edge_metric_dimension if target == EDGE else exact_metric_dimension
        default = solve(g)
        assert _outcome(solve(g, SolveOptions(start_size=1))) == _outcome(default)
        assert default.start_size == max(1, _packing_bound(self.masks_of[target](g)))

    def test_every_exit_of_the_size_walk(self):
        # Cyclic 3 (9 vertices, root bound 4, dimension 7) under a grid of
        # start, cap and budget leaves the walk over sizes by every way out.
        # (On chain 2 the root bound is the dimension, so no walk climbs.)
        g = family_graph(CYCLIC, 3)
        exits = set()
        for start, cap, budget in itertools.product(
            (None, 1, 7, 8, 9), (None, 4, 6), (None, 0, 1, 5)
        ):
            if start and cap and start > cap:
                continue
            opts = SolveOptions(start_size=start, max_size=cap, budget_subsets=budget)
            outcome = _reference_solve(g, opts)
            cert = exact_edge_metric_dimension(g, opts)
            assert _outcome(cert) == outcome
            assert cert.lower_bound == cert.infeasible_size_checked + 1
            size = None if cert.witness is None else len(cert.witness)
            assert cert.upper_bound == cert.dimension == size
            status, dimension, _, proven, first, _ = outcome
            if status == STATUS_PARTIAL:
                exits.add("cap" if proven == (cap or 9) else "trip going up")
            elif status == STATUS_CONDITIONAL:
                exits.add("trip going down")
            elif dimension >= first:
                exits.add("witness at start" if dimension == first else "climb")
            else:
                exits.add("one level down" if dimension == first - 1 else "descent")
        assert exits == {
            "cap",
            "trip going up",
            "trip going down",
            "witness at start",
            "climb",
            "one level down",
            "descent",
        }


class TestVertexTarget:
    @settings(max_examples=40, deadline=None)
    @given(vertex_instances())
    def test_matches_plain_enumeration(self, case):
        # Every k-set of the level passing the twin masks is evaluated, in
        # lexicographic order, until the first resolving one.
        g, opts = case
        assert _outcome(exact_metric_dimension(g, opts)) == _reference_solve(
            g, opts, VERTEX
        )


def _column_classes(matrix):
    """Partition of column indices by their column tuples."""
    classes = {}
    for j, column in enumerate(zip(*matrix.tolist())):
        classes.setdefault(column, []).append(j)
    return sorted(classes.values())


def _label_classes(labels):
    classes = {}
    for j, label in enumerate(labels.tolist()):
        classes.setdefault(label, []).append(j)
    return sorted(classes.values())


class TestExactKeys:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        height=st.integers(1, 40),
        width=st.integers(1, 30),
        log_base=st.integers(1, 60),
        alphabet=st.integers(1, 4),
    )
    def test_labels_match_column_tuples(self, seed, height, width, log_base, alphabet):
        # Entries come from a few values below base, so columns collide
        # often; base ** height runs far past 2**63 for most draws.  The
        # helper needs width * base <= 2**62, which real codes meet (base
        # is at most the vertex count).
        rng = random.Random(seed)
        base = rng.randint(2 ** (log_base - 1) + 1, 2**log_base)
        base = min(base, _KEY_LIMIT // width)
        values = [rng.randrange(base) for _ in range(alphabet)]
        matrix = np.array(
            [[rng.choice(values) for _ in range(width)] for _ in range(height)],
            dtype=np.int64,
        )
        labels, span = np.zeros(width, dtype=np.int64), 1
        for i, row in enumerate(matrix):
            labels, span = _extend_labels(labels, span, row, base)
            assert span <= _KEY_LIMIT
            assert 0 <= labels.min() and labels.max() < span
            assert _label_classes(labels) == _column_classes(matrix[: i + 1])

    @pytest.mark.parametrize("label_dtype", [np.int16, np.int64])
    def test_small_code_dtypes_give_int64_keys(self, label_dtype):
        # Distance rows are int16 below 32768 vertices: keys must still be
        # computed in int64, or base ** (prefix length) wraps past 32767.
        rng = np.random.default_rng(5)
        matrix = rng.integers(0, 3, size=(8, 20)).astype(np.int16)
        base = 1000
        labels, span = np.zeros(20, dtype=label_dtype), 1
        for i, row in enumerate(matrix):
            labels, span = _extend_labels(labels, span, row, base)
            assert labels.dtype == np.int64
            assert _label_classes(labels) == _column_classes(matrix[: i + 1])
        keys = _extend_labels(labels, span, matrix, base)[0]
        assert keys.dtype == np.int64 and keys.shape == matrix.shape

    def test_full_universe_shares_rows(self):
        rows = np.arange(12, dtype=np.int16).reshape(3, 4)
        rows_of, masks, covered, base = _context(rows, [0b110, 0b1001])
        assert rows_of is rows
        assert (masks, covered, base) == ((0b110, 0b1001), 0b1111, 12)
        # Two disjoint pairs: each set passing both masks holds one of each.
        assert _packing_bound(masks) == 2

    def test_labels_that_cannot_fit_raise(self):
        labels = np.arange(5, dtype=np.int64)
        with pytest.raises(OverflowError):
            _extend_labels(labels, 5, labels, 2**61)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        vertices=st.integers(1, 10),
        items=st.integers(2, 12),
        k=st.integers(1, 5),
        mask_count=st.integers(0, 3),
        small=st.booleans(),
    )
    def test_block_search_matches_per_set_check(
        self, seed, vertices, items, k, mask_count, small
    ):
        # Random code rows with huge entries from a tiny alphabet, random
        # masks: every block's witness and counts against one set at a time.
        # ``small`` stores the rows as int16, the distance dtype of most
        # graphs, with entries up to 32767.
        rng = random.Random(seed)
        base = 2**rng.randint(1, 15 if small else 40)
        values = rng.sample(range(base), min(base, 3))
        rows = np.array(
            [[rng.choice(values) for _ in range(items)] for _ in range(vertices)],
            dtype=np.int16 if small else np.int64,
        )
        masks = [
            sum(1 << v for v in rng.sample(range(vertices), min(vertices, 3)))
            for _ in range(mask_count)
        ]
        ctx = _context(rows, masks)
        for block in range(vertices - k + 1):
            witness, evaluated = None, 0
            for combo in itertools.combinations(range(block + 1, vertices), k - 1):
                combo = (block,) + combo
                bits = sum(1 << v for v in combo)
                if any((m & ~bits).bit_count() >= 2 for m in masks):
                    continue
                evaluated += 1
                if len(set(zip(*rows[list(combo)].tolist()))) == items:
                    witness = combo
                    break
            found, count, nodes, _ = _search_block(ctx, k, block)
            assert (found, count) == (witness, evaluated)
            assert nodes >= count

    def test_vertex_solve_with_ranked_prefix(self):
        # Base 100: the keys of a 12-set would reach 100**12 > 2**63, so
        # the labels of its prefix are ranked on the way.
        g = path_graph(100)
        opts = SolveOptions(start_size=12)
        cert = exact_metric_dimension(g, opts)
        assert _outcome(cert) == _reference_solve(g, opts, VERTEX)
        assert cert.dimension == 1

    def test_edge_solve_with_ranked_prefix(self):
        # Chain 13 evaluates one 21-set whose keys pass 2**63 many times over.
        g = family_graph(CHAIN, 13)
        cert = exact_edge_metric_dimension(g)
        assert cert.status == STATUS_OPTIMAL
        assert cert.dimension == predicted_dimension(SilicateSpec(family=CHAIN, n=13))
        assert cert.stats.subsets_examined == 1
        assert oracle_is_edge_resolving(g, cert.witness)
        smaller = [v for v in cert.witness if v != cert.witness[-1]]
        assert not oracle_is_edge_resolving(g, smaller)


def optimal_for_one_and_two_workers(solve, g):
    """The certificate of an optimal solve with 1 worker, after checking that
    2 workers give the same witness and counters."""
    certs = [solve(g, SolveOptions(parallel_workers=workers)) for workers in (1, 2)]
    for cert in certs:
        assert cert.status == STATUS_OPTIMAL
        assert cert.stats.nodes_visited >= cert.stats.subsets_examined
    untimed = {(c.witness, dataclasses.replace(c.stats, elapsed_seconds=0.0)) for c in certs}
    assert len(untimed) == 1
    return certs[0]


class TestSearchCounters:
    # The counting bound and the zero-slack step bring chain 13 to 33 nodes
    # and cyclic 13 to 58; without the bound the chain 13 proof walks 3.9
    # million nodes.  The solve starts at the root bound.  On chain 13 it is
    # the dimension 21, which the bound proves: the walk is level 21 alone,
    # 33 nodes, the last evaluating the witness.  On cyclic 13 it is 19, as
    # the greedy packing of an odd cycle of masks is one short of d = 20, so
    # level 19 is walked and refuted (23 nodes) before level 20 (35).
    @pytest.mark.parametrize("family,n,nodes", [(CHAIN, 13, 33), (CYCLIC, 13, 58)])
    def test_edge_solve_node_count(self, family, n, nodes):
        g = family_graph(family, n)
        cert = optimal_for_one_and_two_workers(exact_edge_metric_dimension, g)
        assert cert.stats.nodes_visited == nodes

    @pytest.mark.parametrize("family", [CHAIN, CYCLIC])
    @pytest.mark.parametrize("n", [100, 200])
    def test_zero_slack_steps_over_hinges(self, family, n):
        # With no slack the walk steps over the hinges, which lie in no
        # mask, instead of visiting two nodes for each: level d takes 5n/2
        # nodes on chain n = 100 and 200 and 5n/2 - 1 on cyclic n.  At even
        # n the root bound of both families is d, which proves d - 1, so
        # level d is the whole walk.
        g = family_graph(family, n)
        cert = optimal_for_one_and_two_workers(exact_edge_metric_dimension, g)
        assert cert.stats.nodes_visited == 5 * n // 2 - (family == CYCLIC)

    @pytest.mark.parametrize("family,n,dimension", [(CHAIN, 340, 512), (CYCLIC, 340, 510)])
    def test_deep_walk_does_not_recurse_per_vertex(self, family, n, dimension):
        # Over a thousand vertices: a walk recursing once per vertex
        # position would pass the interpreter's recursion limit.
        cert = exact_edge_metric_dimension(family_graph(family, n))
        assert (cert.status, cert.dimension) == (STATUS_OPTIMAL, dimension)

    @pytest.mark.parametrize("n,dimension", [(700, 1052), (701, 1053)])
    def test_walk_picks_more_members_than_the_recursion_limit(self, n, dimension):
        # Over a thousand members picked: a walk recursing once per pick
        # would pass the interpreter's recursion limit.  At odd n the
        # lexicographically smallest witness is the closed-form set; at even
        # n it takes three corners of the first tetrahedron, so only the
        # sizes agree.
        silicate, constructed = construct_for_spec(SilicateSpec(family=CHAIN, n=n))
        cert = exact_edge_metric_dimension(silicate.graph)
        assert (cert.status, cert.dimension) == (STATUS_OPTIMAL, dimension)
        assert len(constructed) == dimension
        if n % 2:
            assert cert.witness == constructed

    def test_vertex_solve_guard(self):
        # The benchmark's canonical vertex chain 5 and cyclic 7: the twin
        # masks and the bound leave one set to evaluate (16350 and 138504
        # without them), the witnesses are the same.  Both have dimension 7
        # and root bound 7, so the walk starts at 7 and is level 7 alone:
        # 15 and 18 nodes with 7 and 10 prunes.
        cases = [
            (CHAIN, 5, (0, 1, 4, 7, 10, 13, 14), 15, 7),
            (CYCLIC, 7, (1, 4, 7, 10, 13, 16, 19), 18, 10),
        ]
        for family, n, witness, nodes, prunes in cases:
            g = family_graph(family, n)
            cert = optimal_for_one_and_two_workers(exact_metric_dimension, g)
            assert cert.witness == witness
            assert cert.start_size == 7
            stats = cert.stats
            assert stats.subsets_examined == 1
            assert (stats.nodes_visited, stats.bound_prunes) == (nodes, prunes)

    def test_skeleton_edge_solve_guard(self):
        # The benchmark's edge solve of the skeleton expansion of K4 (16
        # vertices, no recognized family): the masks leave one set to
        # evaluate (58604 without them).  Root bound 8, so the walk starts
        # at 8; levels 8 and 9 walk 11 and 30 nodes with 7 and 23 prunes,
        # and level 10 90 nodes with 46 prunes up to the witness: 131 nodes
        # and 76 prunes.
        g = silicate_of_skeleton(complete_graph(4)).graph
        cert = optimal_for_one_and_two_workers(exact_edge_metric_dimension, g)
        assert cert.witness == (4, 5, 6, 7, 8, 10, 12, 13, 14, 15)
        assert (cert.start_size, cert.stats.subsets_examined) == (8, 1)
        assert (cert.stats.nodes_visited, cert.stats.bound_prunes) == (131, 76)

    @pytest.mark.parametrize(
        "solve,family,n,searched",
        [
            # Root bound 7, the dimension: the walk starts there.
            (exact_metric_dimension, CHAIN, 5, [7]),
            # Root bound 17, the dimension: no confirmation at 16 is walked.
            (exact_edge_metric_dimension, CHAIN, 10, [17]),
        ],
        ids=["vertex-chain-5", "edge-chain-10"],
    )
    def test_level_below_the_root_bound_runs_no_block(
        self, solve, family, n, searched, monkeypatch
    ):
        sizes = []
        block_search = silires.solver._search_block

        def recorded(ctx, k, block):
            sizes.append(k)
            return block_search(ctx, k, block)

        monkeypatch.setattr(silires.solver, "_search_block", recorded)
        cert = solve(family_graph(family, n))
        assert cert.status == STATUS_OPTIMAL
        assert sorted(set(sizes)) == searched == [cert.dimension]

    @pytest.mark.parametrize(
        "g",
        [
            pytest.param(complete_graph(4), id="k4"),
            pytest.param(family_graph(CHAIN, 5), id="chain-5"),
            pytest.param(family_graph(CHAIN, 12), id="chain-12"),
            pytest.param(family_graph(CYCLIC, 7), id="cyclic-7"),
            pytest.param(silicate_of_skeleton(complete_graph(4)).graph, id="skeleton-k4"),
        ],
    )
    def test_max_size_below_the_root_bound_walks_nothing(self, g):
        # The root bound refutes every size up to a smaller max_size, so
        # the solve is partial at max_size without visiting a node.  The
        # certificate is that of a walk over level max_size, which
        # evaluates no set there.
        solves = [(EDGE, exact_edge_metric_dimension), (VERTEX, exact_metric_dimension)]
        checked = 0
        for target, solve in solves:
            bound = _packing_bound(reference_masks(g, target))
            for max_size in range(1, bound):
                opts = SolveOptions(max_size=max_size)
                cert = solve(g, opts)
                assert _outcome(cert) == (
                    STATUS_PARTIAL, None, None, max_size, max_size, 0
                ), (target, max_size)
                stats = cert.stats
                assert (stats.nodes_visited, stats.bound_prunes) == (0, 0), (target, max_size)
                checked += 1
        assert checked

    def test_vertex_target_prunes(self):
        # The twin masks {0, 1, 2} and {4, 5, 6} need 4 landmarks, so the
        # bound cuts the smaller levels and only the witness is evaluated.
        cert = exact_metric_dimension(family_graph(CHAIN, 2))
        assert cert.dimension == 4
        assert cert.stats.bound_prunes > 0
        assert cert.stats.subsets_examined == 1


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

    @pytest.mark.parametrize(
        "options",
        [
            dict(start_size=3),
            dict(max_size=6),
            dict(start_size=2, max_size=7, budget_subsets=10**6, parallel_workers=1),
        ],
    )
    def test_numpy_fields_give_the_certificate_of_ints(self, options):
        opts = SolveOptions(**{k: np.int64(v) for k, v in options.items()})
        assert opts == SolveOptions(**options)
        assert all(type(getattr(opts, k)) is int for k in options)
        g = family_graph(CHAIN, 3)
        got = canonical_json_bytes(certificate_report(exact_edge_metric_dimension(g, opts)))
        want = exact_edge_metric_dimension(g, SolveOptions(**options))
        assert got == canonical_json_bytes(certificate_report(want))

    @pytest.mark.parametrize(
        "field", ["start_size", "max_size", "parallel_workers", "budget_subsets"]
    )
    @pytest.mark.parametrize("bad", [2.5, "3"])
    def test_non_integral_field_named(self, field, bad):
        message = f"{field} {bad!r} is not an integer"
        with pytest.raises(GraphInputError, match=f"^{re.escape(message)}$"):
            SolveOptions(**{field: bad})

    def test_messages_kept(self):
        for options, message in [
            (dict(start_size=0), "start_size must be positive"),
            (dict(max_size=np.int8(0)), "max_size must be positive"),
            (dict(start_size=5, max_size=4), "start_size must not exceed max_size"),
            (dict(parallel_workers=0), "parallel_workers must be positive"),
            (dict(budget_subsets=-1), "budget_subsets must be non-negative"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                SolveOptions(**options)
        with pytest.raises(GraphInputError, match=r"^parallel_workers None is not an integer$"):
            SolveOptions(parallel_workers=None)


class TestIsMinimal:
    def test_exact_witness_is_minimal(self):
        g = family_graph(CYCLIC, 4)
        cert = exact_edge_metric_dimension(g)
        assert is_minimal(g, cert.witness)

    def test_full_set_is_not_minimal(self):
        # A one-shot iterator gives the answer of the list: the landmarks
        # are taken once, before the first check uses them.
        g = family_graph(CHAIN, 3)
        assert not is_minimal(g, range(g.vertex_count))
        assert not is_minimal(g, list(range(g.vertex_count)))
        assert not is_minimal(g, iter(range(g.vertex_count)))

    def test_non_resolving_set_rejected(self):
        g = family_graph(CHAIN, 2)
        with pytest.raises(ValueError):
            is_minimal(g, [0, 1])

    def test_vertex_target(self):
        g = complete_graph(4)
        assert is_minimal(g, [0, 1, 2], target="vertex")

    def test_unknown_target_rejected(self):
        g = family_graph(CHAIN, 2)
        message = "target must be 'edge' or 'vertex', got 'mixed'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            is_minimal(g, [0, 1, 2, 4, 5], "mixed")
