"""File formats: edge-list text and the JSON report schemas.

The edge-list interchange format is line-oriented: a header ``p <vertices>
<edges>`` followed by one ``u v`` pair per line, 0-based, with u < v and
pairs sorted.  Emitting a parsed graph reproduces the input byte for byte.

Parsing takes one of two paths to the same graph.  Text in the shape that
:func:`format_edge_list` writes (the header, then ``u v`` lines, each
field at most 18 ASCII digits and each line ending in ``\n``) is read in
one array pass: one regular-expression match, one ``np.fromstring`` of the
pairs, and whole-array checks of the pair count, u < v, the id range and
strictly increasing pairs, compared as (u, v) so that no key ``u * V + v``
can overflow.  Eighteen digits always fit in int64.  Any other text (a
comment, a blank line, CRLF, a sign, a longer id) and every text that
fails one of those checks goes to the line loop, which applies the same
rules one line at a time and is the only code that names an offending
line.  Both paths hand :func:`~silires.graphs.build_graph` the same id
array, so its errors (a vertex count too large for the arc keys) are the
same on both.

JSON reports are serialized canonically (sorted keys, compact separators,
trailing newline) so equal values always produce identical bytes.  Solver
certificates deliberately omit wall-clock time and worker count: those vary
across runs and machines while the certificate's content must not.
"""

from __future__ import annotations

import json
import re
from typing import Optional, Sequence

import numpy as np

from .errors import EdgeListFormatError
from .graphs import Graph, build_graph, canonical_edge
from .resolving import VerificationResult, edge_code_table, vertex_code_table
from .silicates import LabeledSilicate, SilicateSpec
from .solver import EDGE, Certificate

EDGE_LIST_HEADER = "p"

# The canonical shape, which parse_edge_list reads in one array pass:
# the counts, then the pairs as one block of text.
_CANONICAL = re.compile(r"p ([0-9]{1,18}) ([0-9]{1,18})\n((?:[0-9]{1,18} [0-9]{1,18}\n)*)")

STRUCTURE_FORMAT = "silires-structure/1"
VERIFICATION_FORMAT = "silires-verification/1"
CERTIFICATE_FORMAT = "silires-certificate/2"
TABLE_FORMAT = "silires-table/1"


def format_edge_list(g: Graph) -> str:
    lines = [f"{EDGE_LIST_HEADER} {g.vertex_count} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format; blank lines and ``#`` comments are skipped.

    Canonical text is read in one array pass (module docstring), anything
    else by the line loop, with the same result.  Raises
    :class:`EdgeListFormatError` naming the offending line, and both
    lines for a pair that repeats the pair before it in either orientation
    (the graph would silently lose an edge against the header count).  A
    pair with u > v, or one that does not sort after the pair before it, is
    rejected too: re-emitting it would reorder the text and break the byte
    round trip.  Pairs are thus canonical and non-decreasing, so only the
    previous pair and its line are kept: a repeat of an older pair is out
    of order.  A self-loop, or an id outside ``[0, vertices)`` of the
    header, is rejected naming its line as well.
    """
    g = _parse_canonical(text)
    return _parse_lines(text) if g is None else g


def _parse_canonical(text: str) -> Optional[Graph]:
    """The graph of ``text`` when it has the canonical shape and passes the
    checks of the line loop (module docstring), else ``None``."""
    match = _CANONICAL.fullmatch(text)
    if match is None:
        return None
    vertex_count, edge_count, body = int(match[1]), int(match[2]), match[3]
    ids = np.fromstring(body, dtype=np.int64, sep=" ") if body else np.empty(0, np.int64)
    if len(ids) != 2 * edge_count:
        return None
    u, v = ids[0::2], ids[1::2]
    later = (u[1:] > u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] > v[:-1]))
    if not ((u < v).all() and (v < vertex_count).all() and later.all()):
        return None
    return build_graph(vertex_count, ids.reshape(-1, 2))


def _parse_lines(text: str) -> Graph:
    """:func:`parse_edge_list` one line at a time."""
    header: Optional[tuple[int, int]] = None
    ends: list[int] = []  # u, v of each pair in turn
    previous: Optional[tuple[int, int]] = None
    previous_line = 0
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
            header = vertex_count, edge_count = counts
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
        if key == previous:
            raise EdgeListFormatError(
                f"line {lineno}: pair {line!r} repeats the edge {key} "
                f"of line {previous_line}"
            )
        if u >= v:
            if u == v:
                raise EdgeListFormatError(
                    f"line {lineno}: self-loop {line!r} is not allowed"
                )
            raise EdgeListFormatError(
                f"line {lineno}: pair {line!r} must list the smaller id first"
            )
        if u < 0 or v >= vertex_count:
            raise EdgeListFormatError(
                f"line {lineno}: pair {line!r} uses an id outside [0, {vertex_count})"
            )
        if previous is not None and (u, v) < previous:
            raise EdgeListFormatError(
                f"line {lineno}: pair {line!r} does not sort after "
                f"the previous pair {previous[0]} {previous[1]}"
            )
        previous, previous_line = key, lineno
        ends += u, v
    if header is None:
        raise EdgeListFormatError("missing header line")
    if len(ends) != 2 * edge_count:
        raise EdgeListFormatError(
            f"header promises {edge_count} edges, found {len(ends) // 2}"
        )
    try:
        pairs = np.array(ends, dtype=np.int64).reshape(-1, 2)
    except OverflowError:  # an id past 64 bits, which build_graph names
        pairs = list(zip(ends[::2], ends[1::2]))
    return build_graph(vertex_count, pairs)


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
        if target == EDGE:
            report["witness"] = [list(a), list(b)]
        else:
            report["witness"] = [a, b]
    if include_codes:
        if target == EDGE:
            codes = edge_code_table(g, landmarks).tolist()
            report["codes"] = [{"edge": list(e), "code": c} for e, c in zip(g.edges, codes)]
        else:
            codes = vertex_code_table(g, landmarks).tolist()
            report["codes"] = [{"vertex": v, "code": c} for v, c in enumerate(codes)]
    return report


def certificate_report(cert: Certificate) -> dict:
    spec = cert.spec
    return {
        "format": CERTIFICATE_FORMAT,
        "family": spec.family if spec is not None else None,
        "n": spec.n if spec is not None else None,
        "target": cert.target,
        "status": cert.status,
        "dimension": cert.dimension,
        "witness": list(cert.witness) if cert.witness is not None else None,
        "infeasible_size_checked": cert.infeasible_size_checked,
        "lower_bound": cert.lower_bound,
        "upper_bound": cert.upper_bound,
        "start_size": cert.start_size,
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
