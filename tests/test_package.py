"""The public names of the package."""

import silires
import silires.structure

# Names that would state the cubic-set rule a second time: the solver's
# edge masks state it for every graph.
REMOVED = (
    "ConditionReport",
    "TwinTetrahedron",
    "check_necessary",
    "check_sufficient",
    "find_twins",
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
        assert not hasattr(silires.structure, name), name
