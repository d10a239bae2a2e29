"""Minimum-length homology bases of flag complexes, with draw detection.

The pipeline per complex: enumerate Horton candidate cycles from
per-vertex shortest-path trees, then select a minimum basis greedily in
(length, edge ids) order, one length level at a time. A level's
candidates are grouped by homology class (read off the complex's
spanning forest and reduced triangle boundaries). Only the classes not
spanned by the classes kept before the level can enter; their members
alone are converted to edge ids, and they are tried in order of their
smallest member, each kept when it is independent of the classes kept
so far. Which cycles are kept depends only on that order, not on the
class coordinates. Cycles tied at the minimal length within the same
class are reported together as a variant set ("draws"). Ties *across*
classes that make the chosen class set ambiguous come out of the same
pass and are flagged as pathological, but never abort the run.

Along a filtration the candidates and classes come from one
``HortonSweep`` over ascending prefix views of the full complex. It
scales the mu lengths once, recomputes a root's shortest-path tree
only when a new edge can change it, and otherwise keeps that root's
cycles. It reduces each triangle boundary once, into classes whose
coordinates are the non-tree edge positions, and remembers the cycles
already found to be boundaries. The pool at every step is exactly the
Horton pool of that step's complex, so the basis is the same as from a
fresh search.

Draw sets are draws within the Horton candidate pool; a tied
representative that is not of shortest-path form is invisible here.
"""

from __future__ import annotations

import heapq
import logging
import math
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


def _sp_tree(
    adj: list[list[tuple[int, int, int]]], n: int, root: int
) -> tuple[list[int | None], list[int], list[int], list[int]]:
    """Dijkstra tree from root with deterministic tie handling.

    Weights are pre-scaled integers. Returns (dist, pred, branch,
    pathmask). pred[u] is the smallest-id already-settled neighbor on a
    shortest path, which stays acyclic even with zero-weight edges.
    branch[u] is the child of root whose subtree holds u (root for
    itself), so the tree paths to two vertices meet only at root exactly
    when their branches differ. pathmask[u] is the bitset of tree edge
    positions on the root-to-u path.
    """
    dist: list[int | None] = [None] * n
    dist[root] = 0
    settled = [False] * n
    order: list[int] = []
    heap: list[tuple[int, int]] = [(0, root)]
    while heap:
        d, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        order.append(u)
        for v, w, _pos in adj[u]:
            nd = d + w
            if dist[v] is None or nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))

    pred = [-1] * n
    branch = [-1] * n
    branch[root] = root
    pathmask = [0] * n
    done = [False] * n
    for u in order:
        if u != root:
            best = best_pos = -1
            for v, w, pos in adj[u]:
                if done[v] and dist[v] + w == dist[u] and (best == -1 or v < best):
                    best, best_pos = v, pos
            # a settled witness always exists: the relaxer settled first
            pred[u] = best
            branch[u] = u if best == root else branch[best]
            pathmask[u] = pathmask[best] | (1 << best_pos)
        done[u] = True
    return dist, pred, branch, pathmask


def _moves(dist: list[int | None], a: int, b: int, w: int) -> bool:
    """Whether a new edge {a,b} of length w can change a shortest-path
    tree with these distances.

    It cannot when it leaves the root's component alone, or when it is
    strictly longer than the gap between its endpoints' distances: then
    no distance changes, no new path ties an old one, and Dijkstra's
    settle order only gains stale heap entries, so pred stays as it is.
    A tie or a zero weight always counts as a change.
    """
    da, db = dist[a], dist[b]
    if da is None or db is None:
        return (da is None) != (db is None)
    return da + w <= db or db + w <= da


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
    once. ``_take`` absorbs a view that extends the previous one, and
    ``_pool`` then returns that view's Horton pool (mask -> scaled
    mu-length; divide by ``denom`` for the exact length). For root v and
    edge (a,b) the pool holds the tree paths v->a, v->b plus the edge,
    when the edge is not a tree edge and the paths meet only at v.

    The adjacency grows by the view's new edges. A root's shortest-path
    tree is recomputed only when one of them can change it (``_moves``);
    otherwise the root's earlier cycles stand and only the new edges are
    tested. From the first step its tree survives, a root keeps its
    cycles (mask -> scaled length) and merges them into each later pool
    whole; a recompute drops them. A root recomputed at every step, the
    common case on tied weights, stores nothing. So every pool equals
    the one a fresh search of the view would find.

    Classes live in the coordinates of the horizon's non-tree positions,
    which never change along the sweep. The sweep keeps every boundary
    column it has seen, restricted to those positions, in fully reduced
    echelon form (pivot position -> column): a new triangle's column is
    reduced against the pivots, and its pivot is cleared from the older
    columns. ``class_of`` is then canonical per class, and zero exactly
    for boundaries of the last view.

    ``retired`` collects masks found to be boundaries. A later view only
    adds triangles, so they stay boundaries and need no class.
    """

    def __init__(
        self, horizon: FlagComplex2, mu_weights: dict[int, Fraction] | None = None
    ) -> None:
        self.horizon = horizon
        self.mu_weights = mu_weights
        self.imu, self.denom = _scale_mu(_mu_by_pos(horizon, mu_weights))
        self.cycle_lengths: list[int] = []  # of each seen position's cx.cycles
        self.retired: set[int] = set()
        self.epsilon: Fraction | None = None  # of the last view
        n = horizon.n_vertices
        self._nt = ((1 << horizon.n_edges) - 1) ^ horizon.tree
        self._cols: dict[int, int] = {}  # pivot position -> boundary column
        self._pivots = 0  # bitset of the pivot positions
        self._n_triangles = 0  # boundary columns absorbed so far
        self._ends = [horizon.edge_vertices(p) for p in range(horizon.n_edges)]
        self._adj: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        self._trees: list[tuple | None] = [None] * n
        self._hits: list[list[int]] = [[] for _ in range(n)]  # since recompute
        self._cycles: list[dict[int, int] | None] = [None] * n  # of kept trees
        # for the summary log
        self.steps = self.recomputed = self.reused = self.largest_pool = 0

    def _take(self, cx: FlagComplex2) -> int:
        """Check that cx extends the last view, absorb its new triangle
        boundaries, and return its beta1."""
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
        for col in cx.reduced[self._n_triangles:]:
            c = col & nt
            bits = c & self._pivots
            while bits:
                lsb = bits & -bits
                c ^= cols[lsb.bit_length() - 1]
                bits ^= lsb
            if c:
                p = c.bit_length() - 1
                bit = 1 << p
                for q, older in cols.items():
                    if older & bit:
                        cols[q] = older ^ c
                cols[p] = c
                self._pivots |= bit
        self._n_triangles = cx.n_triangles
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

    def _pool(self, cx: FlagComplex2) -> dict[int, int]:
        imu, ends, adj = self.imu, self._ends, self._adj
        new = range(len(self.cycle_lengths), cx.n_edges)
        for p in new:
            a, b = ends[p]
            adj[a].append((b, imu[p], p))
            adj[b].append((a, imu[p], p))
            self.cycle_lengths.append(_length(cx.cycles[p], imu))

        n = len(adj)
        found: dict[int, int] = {}
        for root in range(n):
            tree = self._trees[root]
            kept = tree is not None and not any(
                _moves(tree[0], *ends[p], imu[p]) for p in new
            )
            if kept:
                scan = new
            else:
                tree = self._trees[root] = _sp_tree(adj, n, root)
                self._cycles[root] = None
                self.recomputed += 1
                scan = range(cx.n_edges)
            dist, pred, branch, pathmask = tree
            hits = []
            for p in scan:
                a, b = ends[p]
                if (
                    dist[a] is not None
                    and dist[b] is not None
                    and pred[a] != b
                    and pred[b] != a  # not a tree edge of this root
                    and branch[a] != branch[b]
                ):
                    hits.append(p)
            if not kept:
                self._hits[root] = hits
                out = found
            elif self._cycles[root] is None:  # first step the tree survives
                out = self._cycles[root] = {}
                hits = self._hits[root] + hits
                self._hits[root] = []
            else:
                out = self._cycles[root]
                self.reused += 1
            for p in hits:
                a, b = ends[p]
                out[pathmask[a] ^ pathmask[b] ^ (1 << p)] = dist[a] + dist[b] + imu[p]
            if out is not found:
                found.update(out)
        self.steps += 1
        self.largest_pool = max(self.largest_pool, len(found))
        return found

    def log_summary(self) -> None:
        """Log at INFO what the sweep did so far."""
        logger.info(
            "Horton sweep: %d steps, %d of %d trees recomputed, %d roots "
            "reused, %d boundaries absorbed, largest pool %d",
            self.steps,
            self.recomputed,
            self.steps * len(self._trees),
            self.reused,
            len(self._cols),
            self.largest_pool,
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

    The candidates are the Horton pool of cx from ``sweep`` (a fresh
    one-step sweep when None; a given sweep must carry the same
    mu_weights object) plus the fundamental cycles of cx's forest. One
    greedy pass over them in (length, edge ids) order, one length level
    at a time, keeps a candidate when its class is independent of the
    classes kept so far. Each level is grouped by class first. A class
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
    found = sweep._pool(cx)
    # the fundamental cycles span every class, so the pool always does
    for mask, length in zip(cx.cycles, sweep.cycle_lengths):
        if mask:  # tree positions carry 0
            found.setdefault(mask, length)
    levels: dict[int, list[int]] = {}
    for mask, length in found.items():
        if mask not in sweep.retired:
            levels.setdefault(length, []).append(mask)

    span: dict[int, int] = {}
    kept: list[VariantSet] = []
    events: list[PathologyEvent] = []
    for level in sorted(levels):
        if len(kept) == beta1:
            break
        # classes only for the levels the greedy reaches
        by_class: dict[int, list[int]] = {}
        for mask in levels[level]:
            ann = sweep.class_of(mask)
            if ann:
                by_class.setdefault(ann, []).append(mask)
            else:  # a boundary, never selectable
                sweep.retired.add(mask)
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
