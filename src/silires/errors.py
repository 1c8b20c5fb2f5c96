"""Exception types shared across the package."""


class GraphInputError(ValueError):
    """Raised when a graph description is malformed (bad ids, self-loops)."""


class DisconnectedGraphError(ValueError):
    """Raised when an operation requiring connectivity meets an unreachable vertex."""


class EdgeListFormatError(ValueError):
    """Raised when an edge-list file cannot be parsed."""


class StructureError(ValueError):
    """Raised when some edge lies in no tetrahedron N[p] of a cubic corner p,
    or in two of them.  These forced tetrahedra cover every chain, cyclic
    and skeleton expansion; a graph covered only by K4s without such a
    corner (K13) raises too (see ``find_tetrahedra``)."""


class ConstructionError(ValueError):
    """Raised when a labeling cannot be realized on a silicate network."""


class UnsupportedFamilyError(ValueError):
    """Raised when a family-specific formula is asked for an unsupported family."""


class SolverInternalError(RuntimeError):
    """Raised when the exact search returns a witness that fails the
    resolving check, which recomputes the witness's distance rows from the
    graph rather than reading the search's matrix: a defect in the solver
    (its distances included), not in its input."""
