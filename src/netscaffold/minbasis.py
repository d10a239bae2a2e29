"""Minimum-length homology bases of flag complexes, with draw detection.

The pipeline per complex: enumerate Horton candidate cycles from
per-vertex shortest-path trees, then select a minimum basis greedily in
(length, edge ids) order, one length level at a time. A level's
candidates are grouped by homology class (read off the complex's
spanning forest and its nonzero reduced triangle columns). Only the
classes not spanned by the classes kept before the level can enter;
their members alone are converted to edge ids, and they are tried in
order of their smallest member, each kept when it is independent of
the classes kept so far. Which cycles are kept depends only on that
order, not on the class coordinates. Cycles tied at the minimal length
within the same class are reported together as a variant set
("draws"). Ties *across* classes that make the chosen class set
ambiguous come out of the same pass and are flagged as pathological,
but never abort the run.

Along a filtration the candidates and classes come from one
``HortonSweep`` over ascending prefix views of the full complex. It
scales the mu lengths once and keeps a pool index from step to step:
the number of sources of each candidate cycle, and the cycles not
known to be boundaries grouped by length. It has one builder for each
root's shortest-path tree: a batched edge insertion in the manner of
Ramalingam and Reps (J. Algorithms 1996), which updates the tree in
place as a step's edges enter. Each tree starts as the empty view's,
where only the root is reached, so the first view's trees are built by
the same insertion. Only the edges at a vertex whose tree path changed
are tested again.
It absorbs each nonzero reduced triangle column once, into classes
whose coordinates are the non-tree edge positions, and retires the
cycles found to be boundaries. The index at every step holds exactly
the Horton pool of that step's complex plus its fundamental cycles, so
the basis is the same as from a fresh search.

Draw sets are draws within the Horton candidate pool; a tied
representative that is not of shortest-path form is invisible here.
"""

from __future__ import annotations

import heapq
import logging
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction

from .complexes import FlagComplex2

__all__ = [
    "Cycle",
    "HortonSweep",
    "VariantSet",
    "PathologyEvent",
    "MinimalBasisWithDraws",
    "annotate_edges",
    "min_basis_with_draws",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Cycle:
    """Simple cycle as ascending graph edge ids plus its exact mu-length."""

    edges: tuple[int, ...]
    length_mu: Fraction

    @property
    def sort_key(self) -> tuple[Fraction, tuple[int, ...]]:
        return (self.length_mu, self.edges)


@dataclass(frozen=True)
class VariantSet:
    """All tied minimum-length candidates of one homology class.

    Members share the class and the length; the representative is the
    lexicographically smallest edge set.
    """

    cycles: tuple[Cycle, ...]

    def __post_init__(self) -> None:
        if not self.cycles:
            raise ValueError("empty variant set")
        if list(self.cycles) != sorted(self.cycles, key=lambda c: c.sort_key):
            raise ValueError("variant set not in canonical order")

    @property
    def representative(self) -> Cycle:
        return self.cycles[0]

    @property
    def length_mu(self) -> Fraction:
        return self.cycles[0].length_mu

    def __len__(self) -> int:
        return len(self.cycles)


@dataclass(frozen=True)
class PathologyEvent:
    """Equal-length tie between classes that are dependent modulo
    everything shorter, so the selected class set is not canonical."""

    level: Fraction
    n_classes: int
    rank_increment: int


@dataclass(frozen=True)
class MinimalBasisWithDraws:
    """One variant set per basis class, in ascending (length,
    representative edge ids) order, plus the step's pathology events in
    ascending level order."""

    beta1: int
    variant_sets: tuple[VariantSet, ...]
    pathology_events: tuple[PathologyEvent, ...]


# ---------------------------------------------------------------------------
# Horton candidate cycles and edge classes, swept along a filtration


def _mu_by_pos(cx: FlagComplex2, mu_weights: dict[int, Fraction] | None) -> list[Fraction]:
    if mu_weights is None:
        return [cx.edge_weight(p) for p in range(cx.n_edges)]
    out = []
    for p in range(cx.n_edges):
        eid = cx.edge_ids[p]
        try:
            w = mu_weights[eid]
        except KeyError:
            raise ValueError(f"mu_weights missing edge id {eid}") from None
        if w < 0:
            raise ValueError(f"negative mu weight for edge id {eid}")
        out.append(w)
    return out


def _scale_mu(mu: list[Fraction]) -> tuple[list[int], int]:
    """Rescale rational weights to exact integers (shared denominator).

    Order and ties are preserved exactly, and integer arithmetic keeps
    the per-root searches cheap.
    """
    denom = math.lcm(*(w.denominator for w in mu)) if mu else 1
    return [int(w * denom) for w in mu], denom


def _insert(
    tree: tuple,
    adj: list[list[tuple[int, int, int]]],
    root: int,
    new: Iterable[int],
    ends: list[tuple[int, int]],
    imu: list[int],
) -> tuple[tuple, list[int]]:
    """Root's shortest-path tree after the edge positions new, already in
    adj, were inserted, updated in place of a rebuild; and the vertices
    whose tree path changed, each after its tree parent. The input tree
    is returned, unchanged, when no path changes; otherwise a new tree.
    Every tree is built this way, from the empty view's, where only root
    is reached.

    A tree is (dist, pred, branch, pathmask) over pre-scaled integer
    weights, with dist None and pred -1 off root's component. It is the
    tree of a Dijkstra search from root that settles the vertices at one
    distance d in smallest-id-first order, starting from those with a
    tight edge of positive weight from below and going on along
    zero-weight edges. So each zero-weight component at d (a single
    vertex when it has no zero-weight edge) is settled by a
    smallest-id-first search of its own, and pred[u] is the smallest id
    among u's tight neighbours below d and its zero-weight neighbours
    settled before it. The tree is acyclic, and a function of the graph
    and the distances alone. branch[u] is the child of root whose
    subtree holds u (root for itself, -1 off its component), so the tree
    paths to two vertices meet only at root exactly when their branches
    differ. pathmask[u] is the bitset of edge positions on the tree path.

    The update lowers distances with a Dijkstra seeded by the new edges;
    a vertex is pushed only when it improves on its tentative distance.
    When v pops at distance d, every neighbour whose final distance is
    below d is already final, and one that is not still reads at least
    d (its old distance, its tentative one, or None). So when v has no
    zero-weight edge, its pred, branch and pathmask are set in the same
    scan of its edges that relaxes its neighbours. A v with a
    zero-weight edge waits for a second pass: its pred may be a member
    of its component that has not popped yet, and the order within the
    component reads which members have a tight edge from below, known
    only once all of them are final.

    The second pass derives pred again for those components, and for
    the vertices whose distance did not fall but that a new edge, or a
    neighbour whose distance fell, reaches at an equal distance. No
    other vertex needs it: pred[u] reads only the distances at u and its
    neighbours, and a vertex whose distance did not fall keeps every
    tight neighbour it had, since one that fell would pull it down too.
    branch and pathmask are then redone for the vertices whose pred that
    pass moved and for their descendants, which include any vertex
    below them settled in the scan. With the vertices settled in the
    scan, that is exactly the set whose path changed.
    """
    dist, pred, branch, pathmask = tree
    heap: list[tuple[int, int]] = []
    touched: set[int] = set()  # vertices whose pred must be derived again
    for p in new:
        a, b = ends[p]
        w = imu[p]
        da, db = dist[a], dist[b]
        if da is not None:
            nd = da + w
            if db is None or nd < db:
                heap.append((nd, b))
            elif nd == db:
                touched.add(b)
        if db is not None:
            nd = db + w
            if da is None or nd < da:
                heap.append((nd, a))
            elif nd == da:
                touched.add(a)
    if not heap and not touched:
        return tree, []

    old_dist, old_pathmask = dist, pathmask
    dist, pred, branch, pathmask = dist[:], pred[:], branch[:], pathmask[:]
    settled: dict[int, int] = {}  # vertex settled in the scan -> pred edge
    fell: set[int] = set()  # fallen vertices with a zero-weight edge
    seeds, heap = heap, []
    for nd, v in seeds:
        dv = dist[v]
        if dv is None or nd < dv:
            dist[v] = nd
            heap.append((nd, v))
    heapq.heapify(heap)
    while heap:
        d, v = heapq.heappop(heap)
        if d != dist[v]:  # stale: pushed again, lower
            continue
        best = best_pos = -1
        flat = False
        for u, w, q in adj[v]:
            du = dist[u]
            nd = d + w
            if du is not None and du < nd:
                # final when tight; a zero-weight edge never gets here
                if du + w == d and (best < 0 or u < best):
                    best, best_pos = u, q
                continue
            if not w:
                flat = True
            if du is None or nd < du:
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
            elif du == old_dist[u]:  # a tie; a lowered u settles anyway
                touched.add(u)
        if flat:
            fell.add(v)
            continue
        settled[v] = best_pos
        pred[v] = best
        branch[v] = v if best == root else branch[best]
        pathmask[v] = pathmask[best] | (1 << best_pos)
    touched |= fell

    # new pred and pred-edge position of each other vertex whose path moved
    moved: dict[int, tuple[int, int]] = {}
    seen: set[int] = set()
    for v in touched:
        if v in seen or v in settled:
            continue
        seen.add(v)
        d = dist[v]
        best = best_pos = -1
        flat = False
        for u, w, q in adj[v]:
            if not w:
                flat = True
            elif dist[u] is not None and dist[u] + w == d and (best < 0 or u < best):
                best, best_pos = u, q
        if not flat:
            if best != pred[v]:
                moved[v] = (best, best_pos)
            continue
        # v's zero-weight component, settled smallest id first from the
        # members with a tight edge from below
        comp = [v]
        for z in comp:
            for u, w, _ in adj[z]:
                if not w and u not in seen:
                    seen.add(u)
                    comp.append(u)
        order = [
            z for z in comp
            if z == root or any(
                w and dist[u] is not None and dist[u] + w == d for u, w, _ in adj[z]
            )
        ]
        heapq.heapify(order)
        queued = set(order)
        done: set[int] = set()
        while order:
            z = heapq.heappop(order)
            best = best_pos = -1
            for u, w, q in adj[z]:
                if w:
                    du = dist[u]
                    if du is not None and du + w == d and (best < 0 or u < best):
                        best, best_pos = u, q
                elif u in done:
                    if best < 0 or u < best:
                        best, best_pos = u, q
                elif u not in queued:
                    queued.add(u)
                    heapq.heappush(order, u)
            done.add(z)
            if best != pred[z] or z in fell:
                moved[z] = (best, best_pos)
    if not moved and not settled:
        return tree, []

    # the moved vertices and their descendants in the new tree
    for z, (q, _) in moved.items():
        pred[z] = q
    changed = list(moved)
    inside = set(changed)
    for v in changed:
        for u, _, _ in adj[v]:
            if pred[u] == v and u not in inside:
                inside.add(u)
                changed.append(u)
    # redo paths parents first: walk up to a redone or unchanged parent
    redone: set[int] = set()
    out = [v for v in settled if v not in inside]
    for v in changed:
        chain = []
        while v in inside and v not in redone:
            redone.add(v)
            chain.append(v)
            v = pred[v]
        for v in reversed(chain):
            q = pred[v]
            if v in moved:
                bit = 1 << moved[v][1]
            elif v in settled:
                bit = 1 << settled[v]
            else:  # same pred edge as before
                bit = old_pathmask[v] ^ old_pathmask[q]
            pathmask[v] = pathmask[q] | bit
            branch[v] = v if q == root else branch[q]
            out.append(v)
    return (dist, pred, branch, pathmask), out


def _hits(
    tree: tuple, edges: Iterable[int], ends: list[tuple[int, int]], imu: list[int]
) -> Iterator[tuple[int, int]]:
    """(cycle, scaled length) of each Horton hit of a root's tree among
    edge positions: both ends in root's component (branch -1 off it), a
    non-tree edge, and tree paths that meet only at root."""
    dist, pred, branch, pathmask = tree
    for p in edges:
        a, b = ends[p]
        if branch[a] != branch[b] and pred[a] != b and pred[b] != a:
            yield pathmask[a] ^ pathmask[b] ^ (1 << p), dist[a] + dist[b] + imu[p]


def _length(mask: int, imu: list[int]) -> int:
    length = 0
    while mask:
        lsb = mask & -mask
        length += imu[lsb.bit_length() - 1]
        mask ^= lsb
    return length


class HortonSweep:
    """Horton candidate pools and cycle classes of ascending prefix
    views of one complex.

    A sweep is built for the largest view it will see, its horizon: the
    mu weights of the horizon's edges are checked and scaled to integers
    once. ``_take`` absorbs the reduced triangle columns that a view
    adds to the previous one, and ``_grow`` brings the pool index up to
    that view. For root v and edge (a,b) the Horton pool holds the tree
    paths v->a, v->b plus the edge, when the edge is not a tree edge and
    the paths meet only at v; each such (root, edge) hit is a source of
    its cycle, and so is each fundamental cycle of the view's forest.

    The pool index is kept from step to step. ``_count`` maps each cycle
    (a bitset of edge positions) to its number of sources, and
    ``_levels`` maps a scaled mu-length (divide by ``denom`` for the
    exact length) to the cycles of that length that have a source and
    are not retired. A cycle enters its level when its count goes from
    0 to 1, and leaves when the count drops to 0 or when the selection
    retires it. The index size is the number of distinct cycles with a
    source, fundamental cycles included.

    The adjacency grows by the view's new edges. Each root's
    shortest-path tree starts as the empty view's, where only the root
    is reached, and every view inserts its new edges into it
    (``_insert``), which re-settles only the vertices whose distance
    falls or whose pred a new tight edge moves, and returns the vertices
    whose tree path changed. A tree with no such vertex is kept and
    tests only the new edges. The hit of a root and an edge (a,b), its
    cycle and its length read only the tree paths to a and b, so after
    an update only the edges at a vertex whose path changed, and the new
    edges, are tested again: each old hit, read off the old tree, loses
    a source and each new hit gains one. The empty view has no edges
    and no hits, so the index always holds exactly the sources of a
    fresh search of the view.

    Classes live in the coordinates of the horizon's non-tree positions,
    which never change along the sweep. The sweep keeps every column it
    has absorbed, restricted to those positions, in fully reduced
    echelon form (pivot position -> column): a new column is reduced
    against the pivots, and its pivot is cleared from the older
    columns. ``class_of`` is then canonical per class, and zero exactly
    for boundaries of the last view.

    ``retired`` collects cycles found to be boundaries that still have
    a source. A later view only adds triangles, so they stay boundaries
    and never enter a level again while they keep a source; a cycle
    leaves ``retired`` with its last source, so ``retired`` never
    outgrows the index.
    """

    def __init__(
        self, horizon: FlagComplex2, mu_weights: dict[int, Fraction] | None = None
    ) -> None:
        self.horizon = horizon
        self.mu_weights = mu_weights
        self.imu, self.denom = _scale_mu(_mu_by_pos(horizon, mu_weights))
        self.retired: set[int] = set()
        self.epsilon: Fraction | None = None  # of the last view
        n = horizon.n_vertices
        self._nt = ((1 << horizon.n_edges) - 1) ^ horizon.tree
        self._cols: dict[int, int] = {}  # pivot position -> boundary column
        self._pivots = 0  # bitset of the pivot positions
        self._n_columns = 0  # reduced columns absorbed so far
        self._n_edges = 0  # edge positions in the adjacency so far
        self._ends = [horizon.edge_vertices(p) for p in range(horizon.n_edges)]
        self._adj: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        # each root's tree of the empty view: only the root is reached
        self._trees: list[tuple] = []
        for root in range(n):
            dist: list[int | None] = [None] * n
            dist[root] = 0
            branch = [-1] * n
            branch[root] = root
            self._trees.append((dist, [-1] * n, branch, [0] * n))
        self._count: dict[int, int] = {}  # cycle -> number of sources
        self._levels: dict[int, set[int]] = {}  # scaled length -> cycles
        # for the summary log
        self.steps = self.largest_index = 0
        self.updated = 0  # trees updated in place
        self.moved = 0  # vertices whose tree path an update changed
        self.retested = self.rescan = 0  # edges tested on a new tree, all edges

    def _take(self, cx: FlagComplex2) -> int:
        """Check that cx extends the last view, absorb its new reduced
        triangle columns, and return its beta1. Lows are distinct non-tree
        positions and pivots are older lows, so reducing a column flips only
        bits below its low: it is never 0, and its pivot is its low."""
        h = self.horizon
        if cx.graph is not h.graph and cx.graph != h.graph:
            raise ValueError("complex is not a view of the sweep's graph")
        if self.epsilon is not None and cx.epsilon < self.epsilon:
            raise ValueError(
                f"view at {cx.epsilon} does not extend the last one at {self.epsilon}"
            )
        if cx.epsilon > h.epsilon:
            raise ValueError(f"view at {cx.epsilon} is past the horizon {h.epsilon}")
        self.epsilon = cx.epsilon
        cols, nt = self._cols, self._nt
        for _, col in cx.columns[self._n_columns:]:
            c = col & nt
            bits = c & self._pivots
            while bits:
                lsb = bits & -bits
                c ^= cols[lsb.bit_length() - 1]
                bits ^= lsb
            p = c.bit_length() - 1
            bit = 1 << p
            for q, older in cols.items():
                if older & bit:
                    cols[q] = older ^ c
            cols[p] = c
            self._pivots |= bit
        self._n_columns = len(cx.columns)
        return cx.n_edges - cx.tree.bit_count() - len(cols)

    def class_of(self, mask: int) -> int:
        """Class of a cycle of the last view, given as a bitset of edge
        positions: equal exactly for homologous cycles, 0 for boundaries."""
        x = mask & self._nt
        bits = x & self._pivots
        cols = self._cols
        while bits:
            lsb = bits & -bits
            x ^= cols[lsb.bit_length() - 1]
            bits ^= lsb
        return x

    def _add(self, mask: int, length: int) -> None:
        count = self._count
        c = count.get(mask, 0)
        count[mask] = c + 1
        if not c:  # a cycle with no source is never retired
            level = self._levels.get(length)
            if level is None:
                self._levels[length] = {mask}
            else:
                level.add(mask)

    def _drop(self, mask: int, length: int) -> None:
        count = self._count
        c = count[mask] - 1
        if c:
            count[mask] = c
            return
        del count[mask]
        if mask in self.retired:
            self.retired.remove(mask)
            return
        level = self._levels[length]
        level.remove(mask)
        if not level:
            del self._levels[length]

    def _grow(self, cx: FlagComplex2) -> None:
        """Bring the pool index up to cx, a view ``_take`` has absorbed."""
        imu, ends, adj = self.imu, self._ends, self._adj
        n_old = self._n_edges
        new = range(n_old, cx.n_edges)
        for p in new:
            a, b = ends[p]
            adj[a].append((b, imu[p], p))
            adj[b].append((a, imu[p], p))
            if cx.cycles[p]:  # tree positions carry 0
                self._add(cx.cycles[p], _length(cx.cycles[p], imu))
        self._n_edges = cx.n_edges

        n = len(adj)
        add, drop, trees = self._add, self._drop, self._trees
        for root in range(n):
            old = trees[root]
            tree, changed = _insert(old, adj, root, new, ends, imu)
            for mask, length in _hits(tree, new, ends, imu):
                add(mask, length)
            if tree is old:
                continue
            # the old edges at a vertex whose path changed: gains before
            # losses, so a cycle that keeps a source never leaves its
            # level or ``retired``
            trees[root] = tree
            gone = {p for v in changed for _, _, p in adj[v] if p < n_old}
            for mask, length in _hits(tree, gone, ends, imu):
                add(mask, length)
            for mask, length in _hits(old, gone, ends, imu):
                drop(mask, length)
            self.updated += 1
            self.moved += len(changed)
            self.retested += len(new) + len(gone)
            self.rescan += cx.n_edges
        self.steps += 1
        self.largest_index = max(self.largest_index, len(self._count))

    def log_summary(self) -> None:
        """Log at INFO what the sweep did so far."""
        logger.info(
            "Horton sweep: %d steps, %d of %d trees updated in place, %d vertex "
            "paths changed, %d of %d edges re-tested, %d boundaries absorbed, "
            "largest index %d",
            self.steps,
            self.updated,
            self.steps * len(self._trees),
            self.moved,
            self.retested,
            self.rescan,
            len(self._cols),
            self.largest_index,
        )


def annotate_edges(cx: FlagComplex2) -> tuple[int, dict[int, int]]:
    """First Betti number and the class annotation of every edge.

    Annotations are bitsets over beta1 coordinates, keyed by graph edge
    id, and are additive: the class of any cycle is the XOR of its
    member edges' annotations. Tree edges carry 0. They are the classes
    of a one-step sweep over cx, with each free (non-tree, non-pivot)
    position renumbered to one coordinate in ascending order.
    """
    sweep = HortonSweep(cx)
    beta1 = sweep._take(cx)
    free = sweep._nt & ~sweep._pivots
    coord: dict[int, int] = {}
    while free:
        lsb = free & -free
        coord[lsb.bit_length() - 1] = 1 << len(coord)
        free ^= lsb
    by_id = {}
    for p in range(cx.n_edges):
        x, ann = sweep.class_of(1 << p), 0
        while x:
            lsb = x & -x
            ann |= coord[lsb.bit_length() - 1]
            x ^= lsb
        by_id[cx.edge_ids[p]] = ann
    return beta1, by_id


# ---------------------------------------------------------------------------
# basis selection


def _reduce(span: dict[int, int], x: int) -> int:
    """Residue of class x against an echelon span (pivot bit -> vector)."""
    while x:
        p = x.bit_length() - 1
        if p not in span:
            return x
        x ^= span[p]
    return 0


def min_basis_with_draws(
    cx: FlagComplex2,
    mu_weights: dict[int, Fraction] | None = None,
    sweep: HortonSweep | None = None,
) -> MinimalBasisWithDraws:
    """Minimum-length homology basis with tied-representative sets.

    The candidates are the Horton pool of cx plus the fundamental cycles
    of cx's forest, which span every class. They are read from the pool
    index of ``sweep`` (a fresh one-step sweep when None; a given sweep
    must carry the same mu_weights object), by length level, leaving out
    cycles retired as boundaries. One greedy pass over them in (length,
    edge ids) order, one length level at a time, keeps a candidate when
    its class is independent of the classes kept so far. Each level is
    grouped by class first, and a boundary met there is retired. A class
    spanned at the level's start can keep nothing, so only the others
    are converted to edge ids and tried, in order of their smallest
    member; each reduces once against the span at the level's start and
    once more against the span as the level grows it. The kept
    candidates form the unique minimum basis of the pool under that
    order. A kept candidate's variant set is every candidate of its
    level with the same class. A level that keeps fewer candidates than
    it has classes not spanned at its start is a pathology: which of
    those classes enter the basis is decided only by edge-id order. It
    is logged as a warning and recorded, never raised.
    """
    if sweep is None:
        sweep = HortonSweep(cx, mu_weights)
    elif sweep.mu_weights is not mu_weights:
        raise ValueError("sweep was built for other mu weights")
    beta1 = sweep._take(cx)
    sweep._grow(cx)
    levels = sweep._levels

    span: dict[int, int] = {}
    kept: list[VariantSet] = []
    events: list[PathologyEvent] = []
    for level in sorted(levels):
        if len(kept) == beta1:
            break
        # classes only for the levels the greedy reaches
        by_class: dict[int, list[int]] = {}
        boundaries = []
        for mask in levels[level]:
            ann = sweep.class_of(mask)
            if ann:
                by_class.setdefault(ann, []).append(mask)
            else:  # never selectable
                boundaries.append(mask)
        if boundaries:
            sweep.retired.update(boundaries)
            levels[level].difference_update(boundaries)
            if not levels[level]:
                del levels[level]
        # edge ids only for the classes not spanned at the start of the
        # level, as (sorted members, residue), in order of their smallest
        # member; no two classes share a member
        new = []
        for ann, masks in by_class.items():
            r = _reduce(span, ann)
            if r:
                new.append((sorted(map(cx.ids_of_mask, masks)), r))
        new.sort(key=lambda c: c[0][0])
        length_mu = Fraction(level, sweep.denom)
        gained = 0
        for members, r in new:
            # the first residue cleared only the level-start pivots
            r = _reduce(span, r)
            if r:
                span[r.bit_length() - 1] = r
                kept.append(
                    VariantSet(
                        cycles=tuple(
                            Cycle(edges=ids, length_mu=length_mu) for ids in members
                        )
                    )
                )
                gained += 1
        if gained < len(new):
            ev = PathologyEvent(
                level=length_mu,
                n_classes=len(new),
                rank_increment=gained,
            )
            logger.warning(
                "pathological draw tie at length %s: %d classes, rank gain %d",
                ev.level,
                ev.n_classes,
                ev.rank_increment,
            )
            events.append(ev)
    if len(kept) < beta1:
        # unreachable while the fundamental cycles, which span every
        # class, are in the pool
        raise RuntimeError(
            f"candidate pool spans {len(kept)} of {beta1} classes"
        )
    return MinimalBasisWithDraws(
        beta1=beta1,
        variant_sets=tuple(kept),
        pathology_events=tuple(events),
    )
