"""Exact minimum edge / vertex metric dimension by pruned subset search.

The solver enumerates landmark sets in increasing size and, within a size,
in lexicographic order, so the first verified set is the lexicographically
smallest optimal witness.  Searches may be seeded with a lower bound; a
downward confirmation pass re-establishes exhaustive infeasibility at
``dimension - 1`` whenever the seed (or a cubic-only restriction) leaves it
unproven, so certificates stay exact.

Pruning for the edge target uses a proven necessary condition: if two
degree-3 vertices p, q of one tetrahedron (or of two tetrahedra sharing a
hinge v0) are both excluded, the edges (p, v0) and (q, v0) receive the same
code from every remaining vertex, because a degree-3 vertex's whole
neighbourhood lies inside its own K4, forcing d((p,v0), u) = d(v0, u) for
all u outside {p, q}.  Each such cubic set is a *mask*: a set that leaves
two members of one mask out is skipped without evaluating codes.

Every node of the search also applies the counting argument behind the
paper's lower bound, which packs twin tetrahedra and charges each cubic set
all of its vertices but one.  At a node the chosen set S is fixed, F holds
the candidates still to come, and ``need`` more members must be picked from
F.  A mask with one member already excluded (outside S and F) has no slack
left, so all of its members in F are *forced*.  Every mask M, excluded
member or not, leaves at most one member of M ∩ F unpicked, so a completion
picks all but one member of its *slice* M ∩ F minus the forced set.  Slices
that are pairwise disjoint charge disjoint picks, none of them forced, so
the node is cut when

    |forced| + sum over packed slices s of (|s| - 1) > need.

The packing is built greedily at each node: slices largest first (masks in
ascending order among equal sizes), each taken when it misses every slice
taken so far.  The count is a valid lower bound for any packing, so the
bound cuts only subtrees holding no set that passes the mask check.  Such
sets are never evaluated, so the evaluation order, ``subsets_examined``,
budget trips, witnesses and certificates are those of the walk without the
bound; only the number of nodes visited drops.

The last level of the walk is one batch.  A node with one member left to
pick checks every completion S + {v}, v among the candidates still to
come, at once.  The leaf mask check becomes bit operations: a mask missing
three or more members of S fails every candidate, and one missing exactly
two admits only candidates among those two.  The codes of S become one
integer label per item, and the candidates' keys ``label * base + code``
form a (candidates x items) array whose rows are sorted; the first row
without equal neighbours is the witness, and every row up to it counts as
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
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import SolverInternalError, StructureError, UnsupportedFamilyError
from .graphs import Graph, all_pairs_distances
from .resolving import is_edge_resolving, is_vertex_resolving
from .silicates import SilicateSpec
from .structure import (
    Tetrahedron,
    TwinTetrahedron,
    classify_silicate,
    dimension_lower_bound,
    find_tetrahedra,
    find_twins,
)

EDGE = "edge"
VERTEX = "vertex"

STATUS_OPTIMAL = "optimal"
STATUS_CONDITIONAL = "upper-bound-conditional"
STATUS_PARTIAL = "partial"


@dataclass(frozen=True)
class SolveOptions:
    """Search configuration.

    ``start_size`` seeds the first level (default: the family lower bound
    when the graph is recognized, else 1); ``max_size`` caps the largest
    level searched; ``restrict_to_cubic`` limits the sweep to degree-3
    vertices (optimality is then re-established by an unrestricted pass);
    ``budget_subsets`` bounds the number of candidate sets evaluated, at
    block granularity, after which a non-optimal certificate is returned.
    """

    start_size: Optional[int] = None
    max_size: Optional[int] = None
    restrict_to_cubic: bool = False
    parallel_workers: int = 1
    budget_subsets: Optional[int] = None

    def __post_init__(self) -> None:
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
    counting bound.  All three are identical for any worker count; only
    ``subsets_examined`` enters the serialized certificate.
    """

    subsets_examined: int
    nodes_visited: int
    bound_prunes: int
    elapsed_seconds: float


@dataclass(frozen=True)
class Certificate:
    """Outcome of a dimension search.

    ``infeasible_size_checked`` is the largest size proven (exhaustively,
    over all vertices) to admit no resolving set; by monotonicity every
    smaller size is then infeasible too.  ``status`` is ``optimal`` exactly
    when that proof reaches ``dimension - 1``; ``upper-bound-conditional``
    when a witness exists but the proof below it is incomplete; ``partial``
    when no witness was found within budget.  ``spec`` is the chain or
    cyclic family recognized in the graph (``None`` otherwise), which seeds
    the default start.  Elapsed time, worker count and the search counters
    other than ``subsets_examined`` are informational and excluded from
    serialized output.
    """

    target: str
    dimension: Optional[int]
    witness: Optional[tuple[int, ...]]
    infeasible_size_checked: int
    lower_bound: int
    upper_bound: Optional[int]
    status: str
    start_size: int
    restrict_to_cubic: bool
    parallel_workers: int
    spec: Optional[SilicateSpec]
    stats: SolveStats


def _suffix_masks(universe: Sequence[int]) -> tuple[int, ...]:
    """suffix[i] = bitmask of universe[i:], for reachability lookahead."""
    masks = [0] * (len(universe) + 1)
    for i in range(len(universe) - 1, -1, -1):
        masks[i] = masks[i + 1] | (1 << universe[i])
    return tuple(masks)


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


def _context(universe: Sequence[int], rows: np.ndarray, masks: Sequence[int]):
    """Search context of one universe: (universe, its code rows in universe
    order, masks, suffix masks, base).  Every code entry lies below base.
    The rows are shared, not copied, when the universe is every vertex."""
    universe = tuple(universe)
    base = int(rows.max()) + 1
    if universe != tuple(range(len(rows))):
        rows = rows[list(universe)]
    return universe, rows, tuple(masks), _suffix_masks(universe), base


def _search_block(ctx, k: int, block: int):
    """Lexicographic search of all k-sets whose smallest member is
    universe[block].  Returns (first resolving set or None, sets evaluated,
    nodes visited, nodes cut by the counting bound).
    """
    universe, urows, masks, suffix, base = ctx
    n_u = len(universe)
    chosen: list[int] = []  # positions in universe
    # labels[i] = (exact column labels of urows[chosen[:i]], their span)
    labels = [(np.zeros(urows.shape[1], dtype=np.int64), 1)]
    state = [None, 0, 0, 0]  # witness, evaluated, nodes, bound prunes
    bit_count = int.bit_count

    def last_level(lo: int, hi: int, smask: int) -> None:
        """Evaluate chosen + [p] for every position p in range(lo, hi), in
        order, as one batch."""
        picks = range(lo, hi)
        cand_rows = urows[lo:hi]
        if masks:
            allowed = every = suffix[lo] & ~suffix[hi]
            for m in masks:
                miss = m & ~smask
                if miss & (miss - 1):  # two or more members of m are missing
                    if bit_count(miss) > 2:
                        return
                    allowed &= miss
            if allowed != every:
                picks = [p for p in picks if allowed >> universe[p] & 1]
                if not picks:
                    return
                cand_rows = urows[picks]
        keys = _extend_labels(*labels[-1], cand_rows, base)[0]
        keys.sort(axis=1)
        collide = (keys[:, 1:] == keys[:, :-1]).any(axis=1).tolist()
        if False in collide:
            i = collide.index(False)
            state[0] = tuple(universe[p] for p in chosen) + (universe[picks[i]],)
            state[1] += i + 1
            state[2] += i + 1
        else:
            state[1] += len(collide)
            state[2] += len(collide)

    def walk(pos: int, smask: int, need: int) -> None:
        if state[0] is not None:
            return
        state[2] += 1
        if n_u - pos < need:
            return
        if masks:  # without masks nothing is forced or packed: the bound is 0
            fut = suffix[pos]
            reachable = smask | fut
            forced = 0
            for m in masks:
                out = m & ~reachable
                if out:
                    if out & (out - 1):
                        return
                    forced |= m & fut
            free = fut & ~forced
            bound = bit_count(forced)
            packed = 0
            for part in sorted([m & free for m in masks], key=bit_count, reverse=True):
                size = bit_count(part)
                if size <= 1:
                    break
                if not part & packed:
                    packed |= part
                    bound += size - 1
            if bound > need:
                state[3] += 1
                return
        if need == 1:
            last_level(pos, n_u, smask)
            return
        chosen.append(pos)
        labels.append(_extend_labels(*labels[-1], urows[pos], base))
        walk(pos + 1, smask | (1 << universe[pos]), need - 1)
        chosen.pop()
        labels.pop()
        walk(pos + 1, smask, need)

    if k == 1:
        state[2] += 1
        last_level(block, block + 1, 0)
    else:
        chosen.append(block)
        labels.append(_extend_labels(*labels[-1], urows[block], base))
        walk(block + 1, 1 << universe[block], k - 1)
    return tuple(state)


_WORKER_CTXS: list = []


def _init_worker(ctxs) -> None:
    global _WORKER_CTXS
    _WORKER_CTXS = ctxs


def _block_task(args):
    ctx_idx, k, block = args
    return _search_block(_WORKER_CTXS[ctx_idx], k, block)


def _search_level(
    ctx, ctx_idx: int, k: int, pool, workers: int, remaining: Optional[int]
):
    """Search one size level block by block, in lexicographic block order.

    Returns (witness, counts, exhausted, budget_tripped), where counts sums
    (evaluated, nodes, bound prunes) over the blocks up to the one that
    ended the level.  Results are accumulated strictly in block order, and
    the budget is checked only at block boundaries, so the outcome and the
    counts are identical for any worker count.
    """
    universe = ctx[0]
    blocks = len(universe) - k + 1
    counts = [0, 0, 0]
    if blocks <= 0:
        return None, counts, True, False
    if remaining is not None and remaining <= 0:
        return None, counts, False, True

    def add(result) -> None:
        for i in range(3):
            counts[i] += result[i + 1]

    if pool is None:
        for b in range(blocks):
            result = _search_block(ctx, k, b)
            add(result)
            if result[0] is not None:
                return result[0], counts, False, False
            if remaining is not None and counts[0] >= remaining and b + 1 < blocks:
                return None, counts, False, True
        return None, counts, True, False
    window = workers * 2
    futures: deque = deque()
    next_block = 0
    while next_block < min(blocks, window):
        futures.append(pool.submit(_block_task, (ctx_idx, k, next_block)))
        next_block += 1
    done = 0
    while futures:
        result = futures.popleft().result()
        add(result)
        done += 1
        if result[0] is not None:
            for f in futures:
                f.cancel()
            return result[0], counts, False, False
        if remaining is not None and counts[0] >= remaining and done < blocks:
            for f in futures:
                f.cancel()
            return None, counts, False, True
        if next_block < blocks:
            futures.append(pool.submit(_block_task, (ctx_idx, k, next_block)))
            next_block += 1
    return None, counts, True, False


def edge_infeasibility_masks(
    g: Graph,
    tetrahedra: Optional[Sequence[Tetrahedron]] = None,
    twins: Optional[Sequence[TwinTetrahedron]] = None,
) -> list[int]:
    """Bitmasks of cubic sets; any landmark set missing two or more bits of
    one mask provably fails to resolve the edges.  Empty when the graph has
    no edge-disjoint K4 cover (no pruning applies).  ``tetrahedra`` and
    ``twins`` reuse an earlier recovery of the same graph's cover.
    """
    if tetrahedra is None:
        try:
            tetrahedra = find_tetrahedra(g)
        except StructureError:
            return []
    if twins is None:
        twins = find_twins(g, tetrahedra)
    masks: set[int] = set()
    cubic_sets = [t.cubic_vertices for t in tetrahedra] + [t.cubic_set for t in twins]
    for cubic in cubic_sets:
        if len(cubic) >= 2:
            mask = 0
            for v in cubic:
                mask |= 1 << v
            masks.add(mask)
    return sorted(masks)


def _recover_structure(g: Graph, target: str):
    """The recognized family and the pruning masks, from one recovery of
    the tetrahedron cover."""
    try:
        tetrahedra = find_tetrahedra(g)
    except StructureError:
        return None, []
    twins = find_twins(g, tetrahedra)
    spec = classify_silicate(g, tetrahedra, twins)
    if target != EDGE:
        return spec, []
    return spec, edge_infeasibility_masks(g, tetrahedra, twins)


def _default_start(spec: Optional[SilicateSpec], target: str) -> int:
    if target != EDGE or spec is None:
        return 1
    try:
        return dimension_lower_bound(spec)
    except UnsupportedFamilyError:
        return 1


def _solve(g: Graph, opts: SolveOptions, target: str) -> Certificate:
    t0 = time.perf_counter()
    dist = all_pairs_distances(g).d
    if target == EDGE:
        item_count = g.edge_count
        if item_count > 0:
            eu = np.fromiter((e[0] for e in g.edges), dtype=np.intp, count=item_count)
            ev = np.fromiter((e[1] for e in g.edges), dtype=np.intp, count=item_count)
            rows = np.ascontiguousarray(np.minimum(dist[:, eu], dist[:, ev]))
        else:
            rows = np.zeros((g.vertex_count, 0), dtype=dist.dtype)
    else:
        item_count = g.vertex_count
        rows = np.ascontiguousarray(dist)
    spec, masks = _recover_structure(g, target)

    def build(dimension, witness, infeasible, status, start, counted):
        return Certificate(
            target=target,
            dimension=dimension,
            witness=witness,
            infeasible_size_checked=infeasible,
            lower_bound=infeasible + 1,
            upper_bound=dimension,
            status=status,
            start_size=start,
            restrict_to_cubic=opts.restrict_to_cubic,
            parallel_workers=opts.parallel_workers,
            spec=spec,
            stats=SolveStats(
                subsets_examined=counted[0],
                nodes_visited=counted[1],
                bound_prunes=counted[2],
                elapsed_seconds=time.perf_counter() - t0,
            ),
        )

    if item_count <= 1:
        return build(0, (), -1, STATUS_OPTIMAL, 0, [0, 0, 0])

    full_universe = tuple(range(g.vertex_count))
    if opts.restrict_to_cubic:
        universe = tuple(v for v in full_universe if g.degree(v) == 3)
    else:
        universe = full_universe
    cap = opts.max_size if opts.max_size is not None else g.vertex_count
    if opts.start_size is not None:
        start = opts.start_size
    else:
        start = min(_default_start(spec, target), cap)

    ctx_full = _context(full_universe, rows, masks)
    ctx_main = ctx_full if universe == full_universe else _context(universe, rows, masks)
    pool = None
    if opts.parallel_workers > 1:
        pool = ProcessPoolExecutor(
            max_workers=opts.parallel_workers,
            initializer=_init_worker,
            initargs=([ctx_main, ctx_full],),
        )
    counted = [0, 0, 0]  # evaluated, nodes, bound prunes
    proven_infeasible = 0  # size 0 always fails with >= 2 items
    try:
        budget = opts.budget_subsets

        def level(ctx, ctx_idx, k):
            remaining = None if budget is None else budget - counted[0]
            witness, counts, exhausted, tripped = _search_level(
                ctx, ctx_idx, k, pool, opts.parallel_workers, remaining
            )
            for i, c in enumerate(counts):
                counted[i] += c
            return witness, exhausted, tripped

        hit: Optional[tuple[int, tuple[int, ...]]] = None
        k = start
        while k <= cap:
            witness, exhausted, tripped = level(ctx_main, 0, k)
            if witness is not None:
                hit = (k, witness)
                break
            if tripped:
                break
            if not opts.restrict_to_cubic:
                proven_infeasible = max(proven_infeasible, k)
            k += 1

        if hit is None:
            return build(None, None, proven_infeasible, STATUS_PARTIAL, start, counted)

        best_k, best_witness = hit
        while True:
            below = best_k - 1
            if below <= 0 or proven_infeasible >= below:
                status = STATUS_OPTIMAL
                break
            witness, exhausted, tripped = level(ctx_full, 1, below)
            if witness is not None:
                best_k, best_witness = below, witness
                continue
            if tripped:
                status = STATUS_CONDITIONAL
                break
            proven_infeasible = below
            status = STATUS_OPTIMAL
            break
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    checker = is_edge_resolving if target == EDGE else is_vertex_resolving
    if not checker(g, best_witness).resolving:
        raise SolverInternalError(
            "internal error: search returned a non-resolving witness "
            f"{best_witness!r}"
        )
    return build(best_k, best_witness, proven_infeasible, status, start, counted)


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
    """True when no single landmark can be dropped while staying resolving."""
    if target not in (EDGE, VERTEX):
        raise ValueError(f"target must be {EDGE!r} or {VERTEX!r}, got {target!r}")
    checker = is_edge_resolving if target == EDGE else is_vertex_resolving
    if not checker(g, landmarks).resolving:
        raise ValueError("landmark set is not resolving; minimality is undefined")
    for v in landmarks:
        rest = [u for u in landmarks if u != v]
        if checker(g, rest).resolving:
            return False
    return True
