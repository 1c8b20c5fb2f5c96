"""The public names of the package."""

import silires
import silires.construction
import silires.graphs
import silires.resolving
import silires.structure

# Names that would state the cubic-set rule a second time (the solver's
# edge masks state it for every graph), the tetrahedron cover a second
# time (a tetrahedron is a sorted 4-tuple, its cubic corners its degree-3
# members), a code rule a second time, read from a caller's matrix (the
# code tables gather every code from the graph), or the label checks a
# second time (a labeling is a tuple, checked by ``construct_ers``).
REMOVED = (
    "ConditionReport",
    "Labeling",
    "Tetrahedron",
    "TetrahedronKind",
    "TwinTetrahedron",
    "check_necessary",
    "check_sufficient",
    "dimension_lower_bound",
    "edge_code",
    "edge_vertex_distance",
    "find_twins",
    "vertex_code",
)


def by_type(name):
    """Constants, then classes, then functions, each alphabetical (the
    order of the imports that ``__all__`` lists)."""
    return (0 if name.isupper() else 1 if name[0].isupper() else 2, name)


def test_all_is_sorted_distinct_and_resolves():
    names = silires.__all__
    assert names == sorted(set(names), key=by_type)
    for name in names:
        assert hasattr(silires, name), name


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in silires.__all__
        assert not hasattr(silires, name), name
        for module in (
            silires.construction,
            silires.graphs,
            silires.resolving,
            silires.structure,
        ):
            assert not hasattr(module, name), (module.__name__, name)
