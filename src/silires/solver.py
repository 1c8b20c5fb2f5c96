"""Exact minimum edge / vertex metric dimension by pruned subset search.

One loop walks over sizes, searching each in lexicographic order.  Every
size below the counting bound at the root (below) is refuted by that
bound alone, so the walk starts at the bound, or at ``start_size`` when
that is larger, for every graph and either target.  It moves up while a
size has no resolving set, refuting it; a witness at size k moves it down
to k - 1, until it meets a refuted size.  The last witness is thus the
lexicographically smallest set of its size, and the certificate is
``optimal`` exactly when the refuted sizes reach ``dimension - 1``.  A
budget trip ends the walk with what the bound and the sizes searched so far
prove.

Pruning rests on *masks*: vertex sets such that a landmark set leaving out
two members of one mask cannot resolve, so it is skipped unevaluated.  Each
target reads its masks off the neighbourhoods by one local lemma.

* Edges: each closed neighbourhood N[v] gives its *simplicial* members,
  those p whose N[p] is a clique.  Lemma: for such p and v0 in N(p),
  d(v0, u) <= d(p, u) for all u != p, since a shortest path from p leaves
  through a member of N[p], which is v0 or adjacent to it.  So (p, v0) has
  the code of v0 at every landmark but p, and leaving out p, q of one N[v]
  gives (p, v) and (q, v) one code (if p = v: (p, w) and (q, w) for a
  third member w of N[v], which a connected graph with two edges has).  On
  chain and cyclic silicates these are the cubic vertices of one
  tetrahedron or of the two tetrahedra through one hinge.
* Vertices: each class of true twins (N[u] = N[v]) or false twins
  (N(u) = N(v)).  Lemma: d(u, w) = d(v, w) for all w outside {u, v}.  A
  shortest path from u to w runs through v or, its first step landing in
  N(u) - v, which lies in N(v), gives one as short from v once u is
  swapped for v; so d(v, w) <= d(u, w), and symmetrically.

Every node with two or more members left to pick also applies the
counting argument behind the paper's lower bound, which packs twin
tetrahedra and charges each cubic set all of its vertices but one.  At a
node the chosen set S is fixed, F holds the candidates still to come, and
``need`` more members must be picked from F.  A mask with one member
already excluded (outside S and F) has no slack left, so all of its
members in F are *forced*.  Every mask M, excluded member or not, leaves at
most one member of M ∩ F unpicked, so a completion picks all but one
member of its *slice* M ∩ F minus the forced set.  Slices that are
pairwise disjoint charge disjoint picks, none of them forced, so the node
is cut when

    |forced| + sum over packed slices s of (|s| - 1) > need.

The packing is built greedily at each node: slices largest first (masks in
ascending order among equal sizes), each taken when it misses every slice
taken so far.  The count is a valid lower bound for any packing, so the
bound cuts only subtrees holding no set that passes the mask check.  Such
sets are never evaluated, so the evaluation order, ``subsets_examined``,
budget trips, witnesses and certificates are those of the walk without the
bound; only the number of nodes visited drops.

Every block of a level (the k-sets sharing a smallest member b, reached by
excluding 0..b-1 and picking b) hangs off one root, the node that has
picked and excluded nothing.  No mask is forced there and each slice is a
whole mask, so the bound at the root is the greedy packing over all masks,
whatever k is: the paper's counting argument, read off the graph.  It is
computed once per solve, and every size below it holds no set that passes
the mask check, so it is refuted without a search: no node, no block and
nothing submitted to a pool.  With the canonical numbering the root bound
equals the closed form of the paper on chain silicates and even cycles,
and is one short on odd cycles, whose cycle of masks a disjoint packing
cannot cover.

A node whose bound equals ``need`` has no slack, so the walk steps over the
vertices in no mask that come next without visiting them.  Such a vertex
lies in no slice and is never forced, so picking it leaves every slice
unchanged and spends a landmark the bound has already spent: its include
branch would be cut, and each vertex stepped over counts as that cut in
``bound_prunes``.  On chain and cyclic silicates the vertices in no edge
mask are the hinges.  The walk keeps one explicit stack of the nodes whose
include branch is open, each with the labels of its picks, so it never
recurses, however many members it picks.

The last level of the walk is one batch.  A node with one member left to
pick checks every completion S + {v}, v among the candidates still to
come, at once.  The leaf mask check becomes bit operations: a mask missing
three or more members of S fails every candidate, and one missing exactly
two admits only candidates among those two.  This exact test decides the
level alone: the counting bound cuts only subtrees holding no set that
passes it, so the bound is not computed at such a node, and
``bound_prunes`` counts no cut there.  The codes of S become one integer
label per item, and the candidates' keys ``label * base + code`` form a
(candidates x items) array whose rows are sorted; the first row without
equal neighbours is the witness, and every row up to it counts as
evaluated, exactly as when the leaves were checked one by one.

The keys are exact.  ``base`` exceeds every distance, so ``label * base +
code`` is injective on (label, code) pairs, and equal labels mark exactly
the items whose codes on S agree.  Labels grow one landmark at a time, as
the walk picks it, and a bound on them grows by a factor of ``base`` with
each; before a step would take that bound past 2**62, the labels are
replaced by their ranks among the distinct labels (fewer than the number of
items).  Keys are computed in int64 whatever the dtype of the distance
rows (int16 for most graphs), so no product ever wraps.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .errors import SolverInternalError
from .graphs import Graph, all_pairs_distances, simplicial_vertices, vertex_id
from .resolving import _edge_gather, is_edge_resolving, is_vertex_resolving, validate_landmarks

EDGE = "edge"
VERTEX = "vertex"

STATUS_OPTIMAL = "optimal"
STATUS_CONDITIONAL = "upper-bound-conditional"
STATUS_PARTIAL = "partial"


def check_target(target: str) -> None:
    """Raise ``ValueError`` unless ``target`` is :data:`EDGE` or
    :data:`VERTEX`."""
    if target not in (EDGE, VERTEX):
        raise ValueError(f"target must be {EDGE!r} or {VERTEX!r}, got {target!r}")


@dataclass(frozen=True)
class SolveOptions:
    """Search configuration.

    The walk starts at the counting bound at the root (module docstring),
    which proves every smaller size, or at ``start_size`` when that is
    larger; ``max_size`` caps the largest level searched; the vertex count
    caps both.  ``budget_subsets`` bounds the number of candidate sets
    evaluated, at block granularity, after which a non-optimal certificate
    is returned.  ``parallel_workers`` above 1 runs the blocks of each
    level (the k-sets sharing a smallest member) in a pool of that many
    processes, at most one per vertex (no level has more blocks).  The
    certificate and counters are those of one worker, the solve returns or
    raises only after every worker has exited, and a worker that dies
    makes it raise ``BrokenProcessPool``.  The process-pool machinery
    (``concurrent.futures``, ``multiprocessing``) is imported only when
    such a pool starts, so a one-worker solve never loads it.  Each field
    is stored through :func:`~silires.graphs.vertex_id`.
    """

    start_size: Optional[int] = None
    max_size: Optional[int] = None
    parallel_workers: int = 1
    budget_subsets: Optional[int] = None

    def __post_init__(self) -> None:
        for f in fields(self):  # None stays only where it is the default
            if getattr(self, f.name) is not None or f.default is not None:
                object.__setattr__(self, f.name, vertex_id(getattr(self, f.name), f.name))
        if self.start_size is not None and self.start_size < 1:
            raise ValueError("start_size must be positive")
        if self.max_size is not None and self.max_size < 1:
            raise ValueError("max_size must be positive")
        if (
            self.start_size is not None
            and self.max_size is not None
            and self.start_size > self.max_size
        ):
            raise ValueError("start_size must not exceed max_size")
        if self.parallel_workers < 1:
            raise ValueError("parallel_workers must be positive")
        if self.budget_subsets is not None and self.budget_subsets < 0:
            raise ValueError("budget_subsets must be non-negative")


@dataclass(frozen=True)
class SolveStats:
    """Search counters.  ``subsets_examined`` counts the sets whose codes
    were evaluated; ``nodes_visited`` counts the search nodes walked (each
    fixes a prefix of the set; a node picking the last member checks all of
    its candidates as one batch) plus one per evaluated set, so it is never
    below ``subsets_examined``; ``bound_prunes`` counts the nodes cut by the
    counting bound, a vertex stepped over at zero slack counting as the cut
    of its include branch.  The bound runs only at nodes with two or more
    members left to pick; the last level is decided by its exact mask test,
    so no cut is counted there.  Sizes below the bound at the root are
    never searched and count nothing.  All three are identical for
    any worker count; only ``subsets_examined`` enters the serialized
    certificate.
    """

    subsets_examined: int
    nodes_visited: int
    bound_prunes: int
    elapsed_seconds: float


@dataclass(frozen=True)
class Certificate:
    """Outcome of a dimension search: what the walk over sizes decided.

    ``witness`` is the walk's last resolving set, the lexicographically
    smallest of its size (``None`` when none was found within budget or
    ``max_size``).  ``infeasible_size_checked`` is the largest size
    proven to admit no resolving set, by the counting bound at the root or
    by an exhaustive search; by monotonicity every smaller size is then
    infeasible too.  ``start_size`` is the first size searched: the root
    bound, or ``SolveOptions.start_size`` when larger, within the cap (0
    when no item needs telling apart).  The dimension, bounds and status
    are derived from these.  Elapsed time and the search counters other
    than ``subsets_examined`` are informational and excluded from
    serialized output.
    """

    target: str
    witness: Optional[tuple[int, ...]]
    infeasible_size_checked: int
    start_size: int
    stats: SolveStats

    @property
    def dimension(self) -> Optional[int]:
        return None if self.witness is None else len(self.witness)

    @property
    def lower_bound(self) -> int:
        return self.infeasible_size_checked + 1

    @property
    def upper_bound(self) -> Optional[int]:
        return self.dimension

    @property
    def status(self) -> str:
        """``partial`` without a witness; ``optimal`` when the refuted sizes
        reach ``dimension - 1``; ``upper-bound-conditional`` otherwise."""
        if self.witness is None:
            return STATUS_PARTIAL
        if self.infeasible_size_checked >= len(self.witness) - 1:
            return STATUS_OPTIMAL
        return STATUS_CONDITIONAL


# Keys of the batched last level stay below this, so int64 never wraps.
_KEY_LIMIT = 2**62


def _extend_labels(labels: np.ndarray, span: int, row: np.ndarray, base: int):
    """Exact labels of the columns of a code matrix extended by ``row``.

    ``labels`` numbers the columns of the matrix so far, equal labels
    exactly for equal columns, all below ``span``; every entry of ``row``
    (one row or a stack of rows) lies in ``[0, base)``.  Returns the labels
    ``labels * base + row`` and their span, computed in int64 whatever the
    dtypes of ``labels`` and ``row``.  When that span would pass
    ``_KEY_LIMIT``, the labels are first replaced by their ranks, which
    keeps them exact and their span at most the number of columns (times
    ``base``, far below the limit for any graph that fits in memory; past
    it, ``OverflowError`` is raised rather than a key wrapped).
    """
    if span * base > _KEY_LIMIT:
        distinct, labels = np.unique(labels, return_inverse=True)
        span = len(distinct)
        if span * base > _KEY_LIMIT:
            raise OverflowError("column labels do not fit in int64")
    keys = np.multiply(labels, base, dtype=np.int64)
    return np.add(keys, row, dtype=np.int64), span * base


def _packing_bound(parts) -> int:
    """Sum of ``|s| - 1`` over a greedy packing of the bitmasks ``parts``:
    largest first (in the given order among equal sizes), each taken when
    it misses every part taken so far (module docstring)."""
    bit_count = int.bit_count
    bound = packed = 0
    for part in sorted(parts, key=bit_count, reverse=True):
        size = bit_count(part)
        if size <= 1:
            break
        if not part & packed:
            packed |= part
            bound += size - 1
    return bound


def _context(rows: np.ndarray, masks: Sequence[int]):
    """Search context: (code rows, one per vertex; masks; the vertices in
    some mask, as one bitmask; base).  Every code entry lies below base."""
    covered = 0
    for m in masks:
        covered |= m
    return rows, tuple(masks), covered, int(rows.max()) + 1


def _search_block(ctx, k: int, block: int):
    """Lexicographic search of all k-sets whose smallest member is vertex
    ``block``.  Returns (first resolving set or None, sets evaluated,
    nodes visited, nodes cut by the counting bound).

    One loop walks the nodes depth first.  A node has picked the members
    of ``smask``, whose exact column labels and their span are ``labels``,
    and picks ``need`` more from ``pos`` on.  Its include branch pushes the
    frame ``(pick, smask, need, labels)``; when a branch ends, the innermost
    frame is popped and its exclude branch, the node one position on, comes
    next.
    """
    rows, masks, covered, base = ctx
    n = len(rows)
    bit_count = int.bit_count
    evaluated = nodes = prunes = 0

    def include(pos: int, smask: int, need: int) -> Optional[int]:
        """The vertex the include branch of a node with ``need`` >= 2 picks,
        or None when the node is exhausted or cut."""
        nonlocal prunes
        if n - pos < need:
            return None
        if not masks:  # nothing is forced or packed
            return pos
        fut = (1 << n) - (1 << pos)
        reachable = smask | fut
        forced = 0
        for m in masks:
            out = m & ~reachable
            if out:
                if out & (out - 1):
                    return None
                forced |= m & fut
        free = fut & ~forced
        bound = bit_count(forced) + _packing_bound([m & free for m in masks])
        if bound > need:
            prunes += 1
            return None
        if bound == need:
            # No slack: the bound would cut the include branch of a vertex
            # in no mask (module docstring).  The bound counts distinct
            # vertices in masks from pos on, so at least ``need`` of them
            # lie ahead and the step stops before the candidates run out.
            while not covered >> pos & 1:
                prunes += 1
                pos += 1
        return pos

    def last_level(lo: int, hi: int, smask: int, labels) -> tuple[Optional[int], int]:
        """Evaluate S + {v} for every vertex v in range(lo, hi), in order, as
        one batch, S being the members of ``smask``.  Returns (the first v
        whose set resolves or None, sets evaluated)."""
        picks = range(lo, hi)
        cand_rows = rows[lo:hi]
        if masks:
            allowed = every = (1 << hi) - (1 << lo)
            for m in masks:
                miss = m & ~smask
                if miss & (miss - 1):  # two or more members of m are missing
                    if bit_count(miss) > 2:
                        return None, 0
                    allowed &= miss
            if allowed != every:
                picks = [v for v in picks if allowed >> v & 1]
                if not picks:
                    return None, 0
                cand_rows = rows[picks]
        keys = _extend_labels(*labels, cand_rows, base)[0]
        keys.sort(axis=1)
        collide = (keys[:, 1:] == keys[:, :-1]).any(axis=1).tolist()
        if False in collide:
            i = collide.index(False)
            return picks[i], i + 1
        return None, len(collide)

    labels = (np.zeros(rows.shape[1], dtype=np.int64), 1)
    if k == 1:  # the block's one set is a batch of one
        pos, smask, need, hi = block, 0, 1, block + 1
    else:
        pos, smask, need, hi = block + 1, 1 << block, k - 1, n
        labels = _extend_labels(*labels, rows[block], base)
    frames: list[tuple[int, int, int, tuple[np.ndarray, int]]] = []
    while True:
        nodes += 1
        if need > 1:
            pick = include(pos, smask, need)
            if pick is not None:
                frames.append((pick, smask, need, labels))
                labels = _extend_labels(*labels, rows[pick], base)
                pos, smask, need = pick + 1, smask | 1 << pick, need - 1
                continue
        else:
            # The batch's exact mask test implies the counting bound, so
            # the bound is not computed here (module docstring).
            pick, count = last_level(pos, hi, smask, labels)
            evaluated += count
            nodes += count
            if pick is not None:
                members = [v for v in range(pos) if smask >> v & 1]
                return (*members, pick), evaluated, nodes, prunes
        if not frames:
            return None, evaluated, nodes, prunes
        pos, smask, need, labels = frames.pop()
        pos += 1


_WORKER_CTX = None


def _init_worker(ctx) -> None:
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _block_task(k: int, block: int):
    return _search_block(_WORKER_CTX, k, block)


def _search_level(ctx, k: int, pool, remaining: Optional[int]):
    """Search one size level block by block, in lexicographic block order.

    Returns (witness, counts, budget_tripped), where counts sums
    (evaluated, nodes, bound prunes) over the blocks up to the one that
    ended the level.  One loop consumes the block results in block order:
    without a pool they are computed one by one as the loop asks; with a
    pool every block of the level is submitted at once.  The budget is
    checked only at block boundaries, so the outcome and the counts are
    identical for any worker count.  However the level ends (a witness, a
    budget trip, exhaustion or an exception), every future not yet started
    is cancelled; blocks a worker has already taken run to completion and
    their results are dropped.
    """
    blocks = len(ctx[0]) - k + 1
    counts = [0, 0, 0]
    if remaining is not None and remaining <= 0:
        return None, counts, True
    futures = []
    if pool is None:
        results = (_search_block(ctx, k, b) for b in range(blocks))
    else:
        futures = [pool.submit(_block_task, k, b) for b in range(blocks)]
        results = (f.result() for f in futures)
    try:
        for done, (witness, *result) in enumerate(results, 1):
            for i in range(3):
                counts[i] += result[i]
            if witness is not None:
                return witness, counts, False
            if remaining is not None and counts[0] >= remaining and done < blocks:
                return None, counts, True
        return None, counts, False
    finally:
        for f in futures:
            f.cancel()


def _mask_list(masks) -> list[int]:
    """Sorted distinct masks with two or more members."""
    return sorted({m for m in masks if m & (m - 1)})


def edge_infeasibility_masks(g: Graph) -> list[int]:
    """Bitmasks of the simplicial members of every closed neighbourhood
    (module docstring), sorted and distinct, with two or more members."""
    simplicial = simplicial_vertices(g)
    return _mask_list(
        (sum(1 << w for w in ns) | 1 << v) & simplicial
        for v, ns in enumerate(g.adjacency)
    )


def vertex_infeasibility_masks(g: Graph) -> list[int]:
    """Bitmasks of every class of false twins (equal open neighbourhoods)
    and of true twins (equal closed ones), sorted and distinct, with two or
    more members.  No open neighbourhood equals a closed one (N(u) = N[v]
    would put u in N(u)), so one dictionary holds both kinds of class."""
    classes: dict[int, int] = {}
    for v, ns in enumerate(g.adjacency):
        opened = sum(1 << w for w in ns)
        for key in (opened, opened | 1 << v):
            classes[key] = classes.get(key, 0) | 1 << v
    return _mask_list(classes.values())


def _solve(g: Graph, opts: SolveOptions, target: str) -> Certificate:
    t0 = time.perf_counter()
    dist = all_pairs_distances(g)
    if target == EDGE:
        item_count = g.edge_count
        # One row per vertex, one column per edge: distances are symmetric,
        # so the edge codes of every vertex as landmark, in C order.
        rows = np.empty((g.vertex_count, item_count), dtype=dist.dtype)
        _edge_gather(g)(dist, slice(None), rows.T)
        masks = edge_infeasibility_masks(g)
    else:
        item_count = g.vertex_count
        rows = dist.T  # distances are symmetric: the matrix itself, in C order
        masks = vertex_infeasibility_masks(g)
    if item_count <= 1:
        # The empty set resolves; no size below it is left to refute.
        stats = SolveStats(0, 0, 0, time.perf_counter() - t0)
        return Certificate(target, (), -1, 0, stats)

    # Every vertex together resolves a connected graph, so no level above
    # the vertex count is searched (it has no sets to refute).
    cap = min(opts.max_size or g.vertex_count, g.vertex_count)
    # The root bound refutes every size below it (module docstring), and
    # size 0 always fails with >= 2 items.  When it refutes ``cap`` too,
    # ``proven`` reaches ``cap`` and no size is left to walk.
    proven = min(max(_packing_bound(masks), 1), cap + 1) - 1
    start = min(max(opts.start_size or 1, proven + 1), cap)

    ctx = _context(rows, masks)
    # No level has more blocks than vertices, so more workers would idle.
    workers = min(opts.parallel_workers, g.vertex_count)
    pool = None
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only for a pool

        pool = ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(ctx,)
        )
    counted = [0, 0, 0]  # evaluated, nodes, bound prunes
    best: Optional[tuple[int, ...]] = None
    budget = opts.budget_subsets
    k = start
    with pool or nullcontext():
        while proven < k <= (cap if best is None else len(best) - 1):
            remaining = None if budget is None else budget - counted[0]
            witness, counts, tripped = _search_level(ctx, k, pool, remaining)
            for i, c in enumerate(counts):
                counted[i] += c
            if witness is not None:
                best = witness
                k -= 1
            elif tripped:
                break
            else:
                proven = k
                k += 1

    checker = is_edge_resolving if target == EDGE else is_vertex_resolving
    if best is not None and not checker(g, best).resolving:
        raise SolverInternalError(
            f"internal error: search returned a non-resolving witness {best!r}"
        )
    stats = SolveStats(*counted, elapsed_seconds=time.perf_counter() - t0)
    return Certificate(target, best, proven, start, stats)


def exact_edge_metric_dimension(
    g: Graph, opts: Optional[SolveOptions] = None
) -> Certificate:
    """Minimum number of vertices whose distance codes separate all edges."""
    return _solve(g, opts or SolveOptions(), EDGE)


def exact_metric_dimension(
    g: Graph, opts: Optional[SolveOptions] = None
) -> Certificate:
    """Minimum number of vertices whose distance codes separate all vertices."""
    return _solve(g, opts or SolveOptions(), VERTEX)


def is_minimal(g: Graph, landmarks: Sequence[int], target: str = EDGE) -> bool:
    """True when no single landmark can be dropped while staying resolving;
    the landmarks are taken once, through :func:`validate_landmarks`."""
    check_target(target)
    landmarks = validate_landmarks(g, landmarks)
    checker = is_edge_resolving if target == EDGE else is_vertex_resolving
    if not checker(g, landmarks).resolving:
        raise ValueError("landmark set is not resolving; minimality is undefined")
    for v in landmarks:
        rest = [u for u in landmarks if u != v]
        if checker(g, rest).resolving:
            return False
    return True
