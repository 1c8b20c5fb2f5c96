"""Labelings and constructive edge resolving sets."""

import random
import re

import numpy as np
import pytest

from silires import (
    CHAIN,
    CYCLIC,
    SKELETON,
    ConstructionError,
    Labeling,
    SilicateSpec,
    UnsupportedFamilyError,
    build_silicate,
    construct_ers,
    construct_for_spec,
    is_edge_resolving,
    is_minimal,
    labeling_chain,
    labeling_cyclic,
    labeling_for,
    predicted_dimension,
)

from conftest import GRAPH_VIEWS, SILICATE_VIEWS, random_connected_graph, star_graph


def reference_construct_ers(silicate, labeling):
    """The per-tetrahedron loop over ``private_vertices`` that the array
    pass of :func:`construct_ers` replaces."""
    if len(labeling.labels) != len(silicate.tetrahedra):
        raise ConstructionError(
            f"labeling has {len(labeling.labels)} entries for "
            f"{len(silicate.tetrahedra)} tetrahedra"
        )
    chosen = []
    for i, (private, want) in enumerate(zip(silicate.private_vertices, labeling.labels)):
        if len(private) < want:
            raise ConstructionError(
                f"tetrahedron {i} has {len(private)} cubic vertices, label requires {want}"
            )
        chosen.extend(private[:want])
    return tuple(sorted(chosen))


def outcome(construct, silicate, labeling):
    """The landmark set, or the message of the ConstructionError raised."""
    try:
        return construct(silicate, labeling)
    except ConstructionError as e:
        return f"error: {e}"


class TestLabelings:
    def test_chain_small_cases(self):
        assert labeling_chain(1).labels == (3,)
        assert labeling_chain(2).labels == (3, 2)
        assert labeling_chain(3).labels == (2, 2, 2)

    def test_chain_interior_alternation(self):
        assert labeling_chain(6).labels == (2, 2, 1, 2, 2, 2)
        assert labeling_chain(7).labels == (2, 2, 1, 2, 1, 2, 2)

    def test_cyclic_alternation(self):
        assert labeling_cyclic(8).labels == (1, 2, 1, 2, 1, 2, 1, 2)
        assert labeling_cyclic(5).labels == (1, 2, 1, 2, 2)
        assert labeling_cyclic(3).labels == (1, 2, 2)

    def test_totals_match_predictions(self):
        for n in range(1, 40):
            spec = SilicateSpec(family=CHAIN, n=n)
            assert labeling_for(spec).total == predicted_dimension(spec)
        for n in range(3, 40):
            spec = SilicateSpec(family=CYCLIC, n=n)
            assert labeling_for(spec).total == predicted_dimension(spec)

    def test_frozen_sums(self):
        assert labeling_chain(3).total == 6
        assert labeling_chain(6).total == 11
        assert labeling_chain(7).total == 12
        assert labeling_cyclic(3).total == 5
        assert labeling_cyclic(5).total == 8
        assert labeling_cyclic(8).total == 12

    def test_label_range_validated(self):
        spec = SilicateSpec(family=CHAIN, n=2)
        with pytest.raises(ConstructionError):
            Labeling(spec=spec, labels=(0, 2))
        with pytest.raises(ConstructionError):
            Labeling(spec=spec, labels=(4, 2))

    def test_numpy_labels_become_python_ints(self):
        spec = SilicateSpec(family=CHAIN, n=2)
        labeling = Labeling(spec=spec, labels=[np.int64(3), np.int8(2)])
        assert labeling.labels == (3, 2)
        assert all(type(x) is int for x in labeling.labels)
        assert type(labeling.total) is int
        assert labeling == labeling_chain(2)

    @pytest.mark.parametrize("bad", [2.5, 2.0, "2", None])
    def test_non_integral_label_rejected(self, bad):
        # Kept, a label of 2.5 would give a total of 2.5, and construct_ers
        # would take 2 vertices for it.
        spec = SilicateSpec(family=CHAIN, n=1)
        message = f"label {bad!r} is not an integer"
        with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
            Labeling(spec=spec, labels=(bad,))

    def test_skeleton_has_no_labeling(self):
        spec = SilicateSpec(family=SKELETON, n=0, skeleton=star_graph(3))
        with pytest.raises(UnsupportedFamilyError):
            labeling_for(spec)


class TestPredictedDimension:
    def test_values(self):
        assert [predicted_dimension(SilicateSpec(family=CHAIN, n=n)) for n in range(1, 8)] == [
            3, 5, 6, 8, 9, 11, 12,
        ]
        assert [predicted_dimension(SilicateSpec(family=CYCLIC, n=n)) for n in range(3, 9)] == [
            5, 6, 8, 9, 11, 12,
        ]


class TestConstructErs:
    def test_sizes_match_labels(self):
        for family, n in [(CHAIN, 1), (CHAIN, 6), (CYCLIC, 4), (CYCLIC, 9)]:
            spec = SilicateSpec(family=family, n=n)
            sil, ers = construct_for_spec(spec)
            assert len(ers) == predicted_dimension(spec)
            assert len(set(ers)) == len(ers)

    def test_members_are_cubic_and_per_tetrahedron(self):
        spec = SilicateSpec(family=CHAIN, n=5)
        sil, ers = construct_for_spec(spec)
        labeling = labeling_for(spec)
        chosen = set(ers)
        for i, tet in enumerate(sil.tetrahedra):
            privates = [v for v in tet if sil.graph.degree(v) == 3]
            assert len(chosen & set(privates)) == labeling.labels[i]
        assert all(sil.graph.degree(v) == 3 for v in ers)

    def test_smallest_ids_selected(self):
        sil, ers = construct_for_spec(SilicateSpec(family=CHAIN, n=3))
        assert ers == (0, 1, 3 * 1 + 1, 3 * 1 + 2, 3 * 2 + 1, 3 * 2 + 2)

    def test_constructed_sets_resolve(self):
        for family, n in [(CHAIN, 1), (CHAIN, 2), (CHAIN, 6), (CHAIN, 11), (CYCLIC, 4), (CYCLIC, 5), (CYCLIC, 8), (CYCLIC, 13)]:
            sil, ers = construct_for_spec(SilicateSpec(family=family, n=n))
            assert is_edge_resolving(sil.graph, ers).resolving, (family, n)

    def test_constructed_set_is_minimal_chain_5(self):
        sil, ers = construct_for_spec(SilicateSpec(family=CHAIN, n=5))
        assert is_minimal(sil.graph, ers)

    def test_smallest_cycle_construction_does_not_resolve(self):
        # Documented exception: the size-5 labeling set fails on the n = 3
        # cycle because the three corner-corner edges share distance one to
        # every cubic vertex.
        sil, ers = construct_for_spec(SilicateSpec(family=CYCLIC, n=3))
        assert len(ers) == 5
        result = is_edge_resolving(sil.graph, ers)
        assert not result.resolving
        assert result.witness == ((0, 3), (0, 6))

    def test_wrong_label_length_rejected(self):
        spec = SilicateSpec(family=CHAIN, n=3)
        sil = build_silicate(spec)
        # Label 3 would also overflow tetrahedron 1: the length is checked first.
        with pytest.raises(ConstructionError) as excinfo:
            construct_ers(sil, Labeling(spec=SilicateSpec(family=CHAIN, n=2), labels=(3, 3)))
        assert str(excinfo.value) == "labeling has 2 entries for 3 tetrahedra"

    def test_label_exceeding_cubic_count_names_tetrahedron(self):
        spec = SilicateSpec(family=CHAIN, n=3)
        sil = build_silicate(spec)
        bad = Labeling(spec=spec, labels=(2, 3, 2))
        with pytest.raises(ConstructionError) as excinfo:
            construct_ers(sil, bad)
        assert str(excinfo.value) == "tetrahedron 1 has 2 cubic vertices, label requires 3"

    @pytest.mark.parametrize("family, first", [(CHAIN, 1), (CYCLIC, 3)])
    def test_matches_per_tetrahedron_reference_on_families(self, family, first):
        for n in range(first, 301):
            spec = SilicateSpec(family=family, n=n)
            sil, labeling = build_silicate(spec), labeling_for(spec)
            got = construct_ers(sil, labeling)
            assert got == reference_construct_ers(sil, labeling), (family, n)
            assert all(type(v) is int for v in got)

    def test_matches_per_tetrahedron_reference_on_skeletons(self):
        # Every skeleton tetrahedron has two fresh cubic corners, and more
        # only at leaves of the base: labels up to 2 always fit, and labels
        # up to 3 often fail, where both must name the same tetrahedron.
        rng = random.Random(24)
        errors = 0
        for _ in range(50):
            base = random_connected_graph(rng, rng.randint(2, 12))
            spec = SilicateSpec(family=SKELETON, skeleton=base)
            sil = build_silicate(spec)
            for top in (2, 3):
                labels = tuple(rng.randint(1, top) for _ in sil.tetrahedra)
                labeling = Labeling(spec=spec, labels=labels)
                got = outcome(construct_ers, sil, labeling)
                assert got == outcome(reference_construct_ers, sil, labeling)
                errors += isinstance(got, str)
            short = Labeling(spec=spec, labels=(1,) * (len(sil.tetrahedra) + 1))
            assert outcome(construct_ers, sil, short) == outcome(reference_construct_ers, sil, short)
        assert 0 < errors < 50

    def test_any_private_choice_works(self):
        # The construction only fixes how many cubic vertices each
        # tetrahedron contributes; which ones is a free choice.
        rng = random.Random(99)
        cases = [(CHAIN, n) for n in range(1, 31)] + [(CYCLIC, n) for n in range(4, 31)]
        for family, n in rng.sample(cases, 12):
            spec = SilicateSpec(family=family, n=n)
            sil = build_silicate(spec)
            labeling = labeling_for(spec)
            chosen = []
            for i, tet in enumerate(sil.tetrahedra):
                privates = [v for v in tet if sil.graph.degree(v) == 3]
                chosen.extend(rng.sample(privates, labeling.labels[i]))
            assert is_edge_resolving(sil.graph, sorted(chosen)).resolving, (family, n)


class TestTablePath:
    """A ``table`` row constructs and verifies from the arrays alone."""

    @pytest.mark.parametrize(
        "family, witness", [(CHAIN, ((0, 1), (1, 2))), (CYCLIC, ((0, 1), (0, 2)))]
    )
    def test_no_tuple_view_is_built(self, family, witness):
        sil, ers = construct_for_spec(SilicateSpec(family=family, n=50))
        assert is_edge_resolving(sil.graph, ers).resolving
        short = is_edge_resolving(sil.graph, ers[1:])
        assert set(vars(sil.graph)).isdisjoint(GRAPH_VIEWS)
        assert set(vars(sil)).isdisjoint(SILICATE_VIEWS)
        assert not short.resolving and short.witness == witness
        assert all(type(v) is int for edge in short.witness for v in edge)
        assert set(short.witness) <= set(sil.graph.edges)
