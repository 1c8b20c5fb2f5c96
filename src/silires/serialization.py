"""File formats: edge-list text and the JSON report schemas.

The edge-list interchange format is line-oriented: a header ``p <vertices>
<edges>`` followed by one ``u v`` pair per line, 0-based, with u < v and
pairs sorted.  Emitting a parsed graph reproduces the input byte for byte.

JSON reports are serialized canonically (sorted keys, compact separators,
trailing newline) so equal values always produce identical bytes.  Solver
certificates deliberately omit wall-clock time and worker count: those vary
across runs and machines while the certificate's content must not.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

from .errors import EdgeListFormatError
from .graphs import Graph, build_graph, canonical_edge
from .resolving import (
    VerificationResult,
    edge_code_table,
    validate_landmarks,
    vertex_code_table,
)
from .silicates import LabeledSilicate, SilicateSpec
from .solver import Certificate

EDGE_LIST_HEADER = "p"

STRUCTURE_FORMAT = "silires-structure/1"
VERIFICATION_FORMAT = "silires-verification/1"
CERTIFICATE_FORMAT = "silires-certificate/1"
TABLE_FORMAT = "silires-table/1"


def format_edge_list(g: Graph) -> str:
    lines = [f"{EDGE_LIST_HEADER} {g.vertex_count} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format; blank lines and ``#`` comments are skipped.

    Raises :class:`EdgeListFormatError` naming the offending line, and both
    lines for a pair that repeats an earlier one in either orientation (the
    graph would silently lose an edge against the header count); vertex-id
    and self-loop violations propagate from graph construction.
    """
    header: Optional[tuple[int, int]] = None
    edges: list[tuple[int, int]] = []
    first_line: dict[tuple[int, int], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if header is None:
            if fields[0] != EDGE_LIST_HEADER or len(fields) != 3:
                raise EdgeListFormatError(
                    f"line {lineno}: expected header "
                    f"'{EDGE_LIST_HEADER} <vertices> <edges>', got {line!r}"
                )
            try:
                counts = (int(fields[1]), int(fields[2]))
            except ValueError:
                raise EdgeListFormatError(
                    f"line {lineno}: non-integer counts in header {line!r}"
                ) from None
            if counts[0] < 0 or counts[1] < 0:
                raise EdgeListFormatError(
                    f"line {lineno}: negative counts in header {line!r}"
                )
            header = counts
            continue
        if len(fields) != 2:
            raise EdgeListFormatError(
                f"line {lineno}: expected 'u v', got {line!r}"
            )
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise EdgeListFormatError(
                f"line {lineno}: non-integer vertex id in {line!r}"
            ) from None
        key = canonical_edge(u, v)
        if key in first_line:
            raise EdgeListFormatError(
                f"line {lineno}: pair {line!r} repeats the edge {key} "
                f"of line {first_line[key]}"
            )
        first_line[key] = lineno
        edges.append((u, v))
    if header is None:
        raise EdgeListFormatError("missing header line")
    vertex_count, edge_count = header
    if len(edges) != edge_count:
        raise EdgeListFormatError(
            f"header promises {edge_count} edges, found {len(edges)}"
        )
    return build_graph(vertex_count, edges)


def graph_descriptor(g: Graph) -> dict:
    return {"vertex_count": g.vertex_count, "edge_count": g.edge_count}


def structure_report(
    silicate: LabeledSilicate, spec: Optional[SilicateSpec] = None
) -> dict:
    return {
        "format": STRUCTURE_FORMAT,
        "family": spec.family if spec is not None else None,
        "n": spec.n if spec is not None and spec.n > 0 else None,
        "graph": graph_descriptor(silicate.graph),
        "tetrahedra": [list(t) for t in silicate.tetrahedra],
        "shared_vertices": list(silicate.shared_vertices),
        "private_vertices": [list(p) for p in silicate.private_vertices],
    }


def verification_report(
    g: Graph,
    landmarks: Sequence[int],
    target: str,
    result: VerificationResult,
    include_codes: bool = False,
) -> dict:
    report = {
        "format": VERIFICATION_FORMAT,
        "graph": graph_descriptor(g),
        "target": target,
        "landmarks": list(landmarks),
        "resolving": result.resolving,
        "witness": None,
    }
    if result.witness is not None:
        a, b = result.witness
        if target == "edge":
            report["witness"] = [list(a), list(b)]
        else:
            report["witness"] = [a, b]
    if include_codes:
        ordered = validate_landmarks(g, landmarks)
        if target == "edge":
            table = edge_code_table(g, ordered)
            report["codes"] = [
                {"edge": list(e), "code": [int(x) for x in table[j]]}
                for j, e in enumerate(g.edges)
            ]
        else:
            table = vertex_code_table(g, ordered)
            report["codes"] = [
                {"vertex": v, "code": [int(x) for x in table[v]]}
                for v in range(g.vertex_count)
            ]
    return report


def certificate_report(
    cert: Certificate,
    family: Optional[str] = None,
    n: Optional[int] = None,
) -> dict:
    return {
        "format": CERTIFICATE_FORMAT,
        "family": family,
        "n": n,
        "target": cert.target,
        "status": cert.status,
        "dimension": cert.dimension,
        "witness": list(cert.witness) if cert.witness is not None else None,
        "infeasible_size_checked": cert.infeasible_size_checked,
        "lower_bound": cert.lower_bound,
        "upper_bound": cert.upper_bound,
        "start_size": cert.start_size,
        "restrict_to_cubic": cert.restrict_to_cubic,
        "stats": {"subsets_examined": cert.stats.subsets_examined},
    }


def table_report(rows: Sequence[dict]) -> dict:
    return {"format": TABLE_FORMAT, "rows": list(rows)}


def format_table_text(rows: Sequence[dict]) -> str:
    headers = (
        "family",
        "n",
        "lower_bound",
        "constructed_size",
        "exact_dimension",
        "predicted",
        "agree",
    )
    cells = [headers]
    for row in rows:
        cells.append(
            tuple(
                "-" if row.get(h) is None else str(row.get(h)) for h in headers
            )
        )
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(r)).rstrip()
        for r in cells
    ]
    return "\n".join(lines) + "\n"


def canonical_json_bytes(obj) -> bytes:
    return (
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
        + b"\n"
    )
