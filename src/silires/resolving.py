"""Distance codes and verification of vertex / edge resolving sets.

A landmark set is an ordered tuple of distinct vertex ids; the code of a
vertex (or edge) is its vector of distances to the landmarks in that order.
The distance from an edge uv to a vertex w is min(d(u, w), d(v, w)), as
Kelenc, Tratnik and Yero define it.  A set resolves the vertices (edges)
when all codes are pairwise distinct.

Each code rule is written once, as a *gather* (:func:`_edge_gather`,
:func:`_vertex_gather`) that writes the codes of any items from
vertex-major distance rows.  The checks, the code tables
(:func:`edge_code_table`, :func:`vertex_code_table`: every code, for
``verify --codes``) and the exact solver's edge search rows all gather
through them; no function reads codes from a caller's matrix.

Verification takes one path for every landmark set: the landmarks'
distance rows are computed from the graph, never taken from a caller, so a
verdict depends on the graph and the landmarks alone.  It never holds all
of those rows, nor the whole code table.  The rows are filled one *chunk*
of landmark columns at a time into one reused buffer
(:func:`~silires.graphs.distance_rows`' set-up runs once, on the graph's
cached analysis, and its fill once per chunk); a chunk is a whole number
of 64-bit words of codes, and at most ``_ROW_CHUNK`` bytes of rows.  A
code is byte-wide, 8 to a word, whenever the graph's core bounds every
distance by 255 (the distance bound of :mod:`~silires.graphs`), and of
:func:`~silires.graphs.distance_dtype` otherwise: int16, 4 to a word, up
to 32768 vertices.  From each chunk the codes are gathered
a bounded block of items at a time into another reused buffer, whose rows
are the codes' bytes padded with zeros to whole words, and each item gets
one *fingerprint*: the sum of its code's words times fixed odd weights,
wrapping mod 2^64.  The sum is linear in the words, so each chunk adds its
own words' share, and the chunks' shares add up to the fingerprint of the
whole code, bit for bit, however the columns are cut.  The sum is taken in
integer arithmetic (a ``uint64`` sum of products), never in floating
point, where a BLAS dot product may add the terms of two equal rows in
different orders and round them apart.  Addition mod 2^64 is exact in any
order, so equal codes always get equal fingerprints.  Hence if all
fingerprints differ, the set resolves.  Otherwise only the items whose
fingerprint another item shares get their full codes, assembled chunk by
chunk, and the exact sort-based duplicate scan runs on them alone.  Every
pair of equal codes lies among them, so the scan finds the same
lexicographically first colliding pair as a scan of the whole table.  A
fingerprint collision of unequal codes therefore costs time, never
correctness: at worst every item collides (as with the empty set, or one
landmark on a long path) and the scan covers all of them, as a scan of the
whole table would.  The weights come from a fixed formula, so every run
takes the same path.

The exact solver does not call the check per candidate set: it checks
whole batches of sets with integer keys, and runs the check here once, on
its final witness.  That check recomputes the witness's rows, so it shares
nothing with the search but the graph and the graph's cached analysis
(:mod:`~silires.graphs`), a function of the graph alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import GraphInputError
from .graphs import Graph, _RowFill, distance_rows, edge_ends, vertex_ids

# Bytes of landmark rows filled per column chunk: bounds the rows a check
# holds at once.  The check of every table row up to n = 200 (at most
# 182 KB of byte-wide rows) takes one chunk.
_ROW_CHUNK = 1 << 19
# Bytes of padded codes fingerprinted per block: bounds each buffer of the
# fingerprint pass to about this size, beside the chunk of rows.
_CODE_BLOCK = 1 << 17


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of a resolving-set check.

    ``witness`` is ``None`` exactly when ``resolving`` is true; otherwise it
    is the lexicographically first pair of objects (vertices or canonical
    edges) sharing a code.
    """

    resolving: bool
    witness: Optional[tuple]


def validate_landmarks(g: Graph, landmarks: Sequence[int]) -> tuple[int, ...]:
    """``landmarks`` as a tuple of Python ints; raises
    :class:`~silires.errors.GraphInputError` for an id that is not an
    integer, a repeated id or an id outside the graph."""
    lm = tuple(vertex_ids(landmarks, "landmark"))
    if len(set(lm)) != len(lm):
        raise GraphInputError(f"landmark set {lm} contains duplicates")
    vertex_ids(lm, "landmark", g.vertex_count)  # the range, after the duplicates
    return lm


def _edge_gather(g: Graph):
    """``gather(rows, ids, out)``: writes the codes of the canonical edges
    ``ids`` (an index array or a slice of the edge order), the per-column
    minimum of their two endpoints' rows of the vertex-major ``rows`` (one
    row per vertex, one column per landmark), into ``out``, one row per
    edge."""
    u, v = edge_ends(g)

    def gather(rows: np.ndarray, ids, out: np.ndarray) -> None:
        np.minimum(rows.take(u[ids], axis=0), rows.take(v[ids], axis=0), out=out)

    return gather


def _vertex_gather(rows: np.ndarray, ids, out: np.ndarray) -> None:
    """The ``gather`` of :func:`_edge_gather` for the vertices ``ids``."""
    out[...] = rows[ids]


def _code_table(g: Graph, landmarks: Sequence[int], count: int, gather) -> np.ndarray:
    """The codes of all ``count`` items, one row per item: ``(count, k)``
    of :func:`~silires.graphs.distance_dtype`.  The landmarks are checked
    as by the checks (:func:`validate_landmarks`)."""
    rows = distance_rows(g, validate_landmarks(g, landmarks))
    table = np.empty((count, len(rows)), dtype=rows.dtype)
    gather(rows.T, slice(None), table)
    return table


def edge_code_table(g: Graph, landmarks: Sequence[int]) -> np.ndarray:
    """Codes of every canonical edge, one row per edge: ``(m, k)``."""
    return _code_table(g, landmarks, g.edge_count, _edge_gather(g))


def vertex_code_table(g: Graph, landmarks: Sequence[int]) -> np.ndarray:
    """Codes of every vertex, one row per vertex: ``(n, k)``."""
    return _code_table(g, landmarks, g.vertex_count, _vertex_gather)


def first_duplicate_rows(table: np.ndarray) -> Optional[tuple[int, int]]:
    """Indices of the lexicographically first pair of equal rows, if any.

    Rows are compared as packed byte strings.  The row ids are sorted by
    them with a stable sort, so each run of equal rows lists its ids in
    ascending order; the pair wanted is the first two ids of the run whose
    first id is smallest, which is also the least pair of neighbours in
    that order with equal rows.
    """
    count, width = table.shape
    if count < 2:
        return None
    if not width:  # every row is empty, so all are equal
        return (0, 1)
    packed = np.ascontiguousarray(table).view(np.dtype((np.void, width * table.itemsize)))
    keys = packed.ravel().tolist()
    order = sorted(range(count), key=keys.__getitem__)
    equal = ((i, j) for i, j in zip(order, order[1:]) if keys[i] == keys[j])
    return min(equal, default=None)


@functools.lru_cache(maxsize=64)
def _weights(count: int) -> np.ndarray:
    """``count`` odd 64-bit fingerprint weights, read-only: the splitmix64
    finaliser of 1, 2, ..., ``count``, with the low bit set."""
    z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(factor)
    z ^= z >> np.uint64(31)
    z |= np.uint64(1)
    z.setflags(write=False)
    return z


def _fingerprints(rows: np.ndarray, weights: np.ndarray, count: int, gather) -> np.ndarray:
    """The share of the vertex-major ``rows`` of one column chunk in the
    fingerprint (module docstring) of each of ``count`` items: the chunk's
    code bytes, padded with zeros to ``len(weights)`` words, times their
    ``weights``, gathered ``_CODE_BLOCK`` bytes of codes at a time (a block
    of one when there are no items)."""
    words = len(weights)
    block = max(1, min(count, _CODE_BLOCK // (8 * words)))
    packed = np.zeros((block, words), dtype=np.uint64)
    codes = packed.view(rows.dtype)[:, : rows.shape[1]]  # the padding stays zero
    out = np.empty(count, dtype=np.uint64)
    for lo in range(0, count, block):
        size = min(block, count - lo)
        gather(rows, slice(lo, lo + size), codes[:size])
        np.einsum("ij,j->i", packed[:size], weights, out=out[lo : lo + size])
    return out


def _shared(fingerprints: np.ndarray) -> np.ndarray:
    """The ids, ascending, of the items whose fingerprint another shares."""
    order = fingerprints.argsort()
    ranked = fingerprints[order]
    same = ranked[1:] == ranked[:-1]
    if not same.any():
        return order[:0]
    shared = np.zeros(len(order), dtype=bool)
    shared[order[1:][same]] = True
    shared[order[:-1][same]] = True
    return shared.nonzero()[0]


def _check(
    g: Graph, landmarks: Sequence[int], count: int, gather
) -> Optional[tuple[int, int]]:
    """The lexicographically first pair of ids, among ``count`` items
    (vertices or canonical edges, in order), that ``landmarks`` gives equal
    codes, or ``None`` when all codes differ; ``gather(rows, ids, out)``
    writes the codes of the items ``ids``, as :func:`_edge_gather` does.

    Every landmark set takes this one path, whatever the item count: its
    rows are computed from ``g`` (so a disconnected graph raises
    :class:`~silires.errors.DisconnectedGraphError`), one column chunk at a
    time into one buffer, and zero or one item then gets no shared
    fingerprint and has no pair."""
    lm = validate_landmarks(g, landmarks)
    fill = _RowFill(g, lm)
    n, k = g.vertex_count, len(lm)
    # Byte-wide codes whenever the core bounds every distance by 255.
    dtype = np.dtype(np.uint8 if fill.bound <= 255 else fill.dtype)
    # Chunks of whole words of codes, each at most _ROW_CHUNK bytes of rows.
    per_word = 8 // dtype.itemsize
    step = per_word * max(1, _ROW_CHUNK // (8 * n or 1))
    chunks = [slice(lo, min(lo + step, k)) for lo in range(0, k, step)]
    buffer = np.empty(n * min(step, k), dtype=dtype)

    def rows(chunk: slice, held: bool = False) -> np.ndarray:
        """The chunk's rows in the buffer, filled unless ``held`` there."""
        out = buffer[: n * (chunk.stop - chunk.start)].reshape(n, -1)
        return out if held else fill.fill(chunk.start, chunk.stop, out)

    weights = _weights(-(-k // per_word))
    fingerprints = np.zeros(count, dtype=np.uint64)
    for chunk in chunks:  # a sum of words times weights: chunk shares add up
        words = weights[chunk.start // per_word : -(-chunk.stop // per_word)]
        fingerprints += _fingerprints(rows(chunk), words, count, gather)
    ids = _shared(fingerprints)
    if not len(ids):
        return None
    table = np.empty((len(ids), k), dtype=dtype)
    for chunk in reversed(chunks):  # the last chunk is still in the buffer
        gather(rows(chunk, held=chunk is chunks[-1]), ids, table[:, chunk])
    dup = first_duplicate_rows(table)
    return None if dup is None else tuple(ids[list(dup)].tolist())


def is_edge_resolving(g: Graph, landmarks: Sequence[int]) -> VerificationResult:
    """Check whether ``landmarks`` distinguishes every pair of edges.

    On failure the witness is the lexicographically first colliding pair of
    canonical edges, as ``(u, v)`` tuples of ints equal to entries of
    ``g.edges`` (read off :func:`~silires.graphs.edge_ends`, so the check
    never builds that view).  An empty landmark set fails on any connected graph
    with two or more edges, with the first two edges as witness.  The
    landmarks' distance rows are always computed from ``g``, never taken
    from a caller, so the verdict rests on the graph alone.  Every landmark
    set, the empty one included and whatever the edge count, is checked
    for connectivity: on a disconnected graph it raises
    :class:`~silires.errors.DisconnectedGraphError`.
    """
    dup = _check(g, landmarks, g.edge_count, _edge_gather(g))
    if dup is None:
        return VerificationResult(resolving=True, witness=None)
    u, v = edge_ends(g)
    return VerificationResult(
        resolving=False, witness=tuple((int(u[i]), int(v[i])) for i in dup)
    )


def is_vertex_resolving(g: Graph, landmarks: Sequence[int]) -> VerificationResult:
    """Check whether ``landmarks`` distinguishes every pair of vertices,
    from rows computed as for :func:`is_edge_resolving`."""
    dup = _check(g, landmarks, g.vertex_count, _vertex_gather)
    return VerificationResult(resolving=dup is None, witness=dup)
