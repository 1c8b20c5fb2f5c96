"""Exception types shared across the package."""


class GraphInputError(ValueError):
    """Raised when a graph description is malformed (bad ids, self-loops)."""


class DisconnectedGraphError(ValueError):
    """Raised when an operation requiring connectivity meets an unreachable vertex."""


class EdgeListFormatError(ValueError):
    """Raised when an edge-list file cannot be parsed."""


class StructureError(ValueError):
    """Raised when the greedy cover pass finds no edge-disjoint tetrahedron
    cover (it may miss one that exists; see ``find_tetrahedra``)."""


class ConstructionError(ValueError):
    """Raised when a labeling cannot be realized on a silicate network."""


class UnsupportedFamilyError(ValueError):
    """Raised when a family-specific formula is asked for an unsupported family."""


class SolverInternalError(RuntimeError):
    """Raised when the exact search returns a witness that fails the
    independent resolving check: a defect in the solver, not in its input."""
