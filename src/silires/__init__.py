"""Silicate networks: generation, resolving-set verification, and exact
minimum edge / vertex metric dimension with optimality certificates."""

from .construction import (
    Labeling,
    construct_ers,
    construct_for_spec,
    labeling_chain,
    labeling_cyclic,
    labeling_for,
    predicted_dimension,
)
from .errors import (
    ConstructionError,
    DisconnectedGraphError,
    EdgeListFormatError,
    GraphInputError,
    SolverInternalError,
    StructureError,
    UnsupportedFamilyError,
)
from .graphs import (
    Edge,
    Graph,
    all_pairs_distances,
    bfs_distances,
    build_graph,
    canonical_edge,
    is_connected,
)
from .resolving import (
    VerificationResult,
    edge_code_table,
    is_edge_resolving,
    is_vertex_resolving,
    vertex_code_table,
)
from .serialization import (
    canonical_json_bytes,
    certificate_report,
    format_edge_list,
    parse_edge_list,
    structure_report,
    verification_report,
)
from .silicates import (
    CHAIN,
    CYCLIC,
    SKELETON,
    LabeledSilicate,
    SilicateSpec,
    build_silicate,
    chain_silicate,
    cyclic_silicate,
    silicate_of_skeleton,
)
from .solver import (
    Certificate,
    SolveOptions,
    SolveStats,
    exact_edge_metric_dimension,
    exact_metric_dimension,
    is_minimal,
)
from .structure import (
    classify_silicate,
    dimension_lower_bound,
    find_tetrahedra,
)

__version__ = "0.1.0"

__all__ = [
    "CHAIN",
    "CYCLIC",
    "SKELETON",
    "Certificate",
    "ConstructionError",
    "DisconnectedGraphError",
    "Edge",
    "EdgeListFormatError",
    "Graph",
    "GraphInputError",
    "LabeledSilicate",
    "Labeling",
    "SilicateSpec",
    "SolveOptions",
    "SolveStats",
    "SolverInternalError",
    "StructureError",
    "UnsupportedFamilyError",
    "VerificationResult",
    "all_pairs_distances",
    "bfs_distances",
    "build_graph",
    "build_silicate",
    "canonical_edge",
    "canonical_json_bytes",
    "certificate_report",
    "chain_silicate",
    "classify_silicate",
    "construct_ers",
    "construct_for_spec",
    "cyclic_silicate",
    "dimension_lower_bound",
    "edge_code_table",
    "exact_edge_metric_dimension",
    "exact_metric_dimension",
    "find_tetrahedra",
    "format_edge_list",
    "is_connected",
    "is_edge_resolving",
    "is_minimal",
    "is_vertex_resolving",
    "labeling_chain",
    "labeling_cyclic",
    "labeling_for",
    "parse_edge_list",
    "predicted_dimension",
    "silicate_of_skeleton",
    "structure_report",
    "verification_report",
    "vertex_code_table",
]
