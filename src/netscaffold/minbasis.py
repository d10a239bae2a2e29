"""Minimum-length homology bases of flag complexes, with draw detection.

The pipeline per complex: annotate edges with Z2^beta1 homology
coordinates (read off the complex's spanning forest and reduced
triangle boundaries), enumerate Horton candidate cycles from per-vertex
shortest-path trees, then select a minimum basis in one greedy pass
over the candidates sorted by (length, edge ids). Each candidate's
class is reduced against the classes kept so far, and it is kept when
the residue is nonzero. Which cycles are kept depends only on that
order, not on the annotation coordinates. Cycles tied at the minimal
length within the same class are reported together as a variant set
("draws"). Ties *across* classes that make the chosen class set
ambiguous come out of the same pass, one length level at a time, and
are flagged as pathological, but never abort the run.

Along a filtration the candidates come from one ``HortonSweep`` over
ascending prefix views of the full complex. It scales the mu lengths
once, recomputes a root's shortest-path tree only when a new edge can
change it, and remembers the cycles already found to be boundaries.
The pool at every step is exactly the Horton pool of that step's
complex, so the basis is the same as from a fresh search.

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
# edge annotations


@dataclass
class _EdgeAnnotations:
    beta1: int
    ann_by_pos: list[int]  # Z2^beta1 bitset per complex edge position
    nt_mask: int  # bitset of non-tree edge positions

    def annotation_of_mask(self, mask: int) -> int:
        """Class of a cycle given as a bitset of edge positions."""
        ann = 0
        bits = mask & self.nt_mask
        while bits:
            lsb = bits & -bits
            ann ^= self.ann_by_pos[lsb.bit_length() - 1]
            bits ^= lsb
        return ann


def _annotate(cx: FlagComplex2) -> _EdgeAnnotations:
    # the reduced triangle boundaries are cycles, so each low is a
    # non-tree edge, and restricted to the non-tree edges they are
    # their fundamental-cycle coordinates
    nt_mask = ((1 << cx.n_edges) - 1) ^ cx.tree
    cols = [c & nt_mask for c in cx.reduced if c]
    pivots = {c.bit_length() - 1: j for j, c in enumerate(cols)}
    # back-eliminate: each pivot row survives in exactly its own column,
    # so a pivot edge's class is the rest of that column
    for p in sorted(pivots, reverse=True):
        j = pivots[p]
        for j2 in range(len(cols)):
            if j2 != j and (cols[j2] >> p) & 1:
                cols[j2] ^= cols[j]

    free_rows = [
        p for p in range(cx.n_edges) if (nt_mask >> p) & 1 and p not in pivots
    ]
    free_bit = {r: i for i, r in enumerate(free_rows)}

    def coords(x: int) -> int:
        out = 0
        while x:
            lsb = x & -x
            out |= 1 << free_bit[lsb.bit_length() - 1]
            x ^= lsb
        return out

    ann_by_pos = [0] * cx.n_edges
    for p in free_rows:
        ann_by_pos[p] = 1 << free_bit[p]
    for p, j in pivots.items():
        ann_by_pos[p] = coords(cols[j] ^ (1 << p))
    return _EdgeAnnotations(
        beta1=len(free_rows), ann_by_pos=ann_by_pos, nt_mask=nt_mask
    )


def annotate_edges(cx: FlagComplex2) -> tuple[int, dict[int, int]]:
    """First Betti number and the class annotation of every edge.

    Annotations are bitsets over beta1 coordinates, keyed by graph edge
    id, and are additive: the class of any cycle is the XOR of its
    member edges' annotations. Tree edges carry 0.
    """
    ednn = _annotate(cx)
    by_id = {
        cx.edge_ids[p]: ednn.ann_by_pos[p] for p in range(cx.n_edges)
    }
    return ednn.beta1, by_id


# ---------------------------------------------------------------------------
# Horton candidate cycles, swept along a filtration


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
    """Horton candidate pools of ascending prefix views of one complex.

    A sweep is built for the largest view it will see, its horizon: the
    mu weights of the horizon's edges are checked and scaled to integers
    once. Each ``advance`` takes a view that extends the previous one
    and returns that view's Horton pool. For root v and edge (a,b) the
    pool holds the tree paths v->a, v->b plus the edge, when the edge is
    not a tree edge and the paths meet only at v.

    The adjacency grows by the view's new edges. A root's shortest-path
    tree is recomputed only when one of them can change it (``_moves``);
    otherwise the root's earlier candidate edges stand and only the new
    edges are tested. So every pool equals the one a fresh search of
    the view would find.

    ``retired`` collects masks found to be boundaries. A later view only
    adds triangles, so they stay boundaries and need no annotation.
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
        self._ends = [horizon.edge_vertices(p) for p in range(horizon.n_edges)]
        self._adj: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        self._trees: list[tuple | None] = [None] * n
        self._hits: list[list[int]] = [[] for _ in range(n)]  # candidate edges

    def advance(self, cx: FlagComplex2) -> dict[int, int]:
        """Horton cycles of the view cx, as edge-position mask -> scaled
        mu-length (divide by ``denom`` for the exact length)."""
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
            if tree is None or any(_moves(tree[0], *ends[p], imu[p]) for p in new):
                tree = self._trees[root] = _sp_tree(adj, n, root)
                hits = self._hits[root] = []
                scan = range(cx.n_edges)
            else:
                hits = self._hits[root]
                scan = new
            dist, pred, branch, pathmask = tree
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
            for p in hits:
                a, b = ends[p]
                mask = pathmask[a] ^ pathmask[b] ^ (1 << p)
                if mask not in found:
                    found[mask] = dist[a] + dist[b] + imu[p]
        return found


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
    classes kept so far. The kept candidates form the unique minimum
    basis of the pool under that order. A kept candidate's variant set
    is every candidate of its level with the same class. A level that
    keeps fewer candidates than it has distinct classes not spanned at
    its start is a pathology: which of those classes enter the basis is
    decided only by edge-id order. It is logged as a warning and
    recorded, never raised.
    """
    ednn = _annotate(cx)
    beta1 = ednn.beta1
    if beta1 == 0:
        return MinimalBasisWithDraws(
            beta1=0, variant_sets=(), pathology_events=()
        )

    if sweep is None:
        sweep = HortonSweep(cx, mu_weights)
    elif sweep.mu_weights is not mu_weights:
        raise ValueError("sweep was built for other mu weights")
    found = sweep.advance(cx)
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
        # classes and edge ids only for the levels the greedy reaches;
        # edge id sets are distinct, so the sort never compares classes
        cands: list[tuple[tuple[int, ...], int]] = []
        for mask in levels[level]:
            ann = ednn.annotation_of_mask(mask)
            if ann:
                cands.append((cx.ids_of_mask(mask), ann))
            else:  # a boundary, never selectable
                sweep.retired.add(mask)
        cands.sort()
        length_mu = Fraction(level, sweep.denom)
        # classes in order of their first (smallest edge ids) member
        by_class: dict[int, list[tuple[int, ...]]] = {}
        for ids, ann in cands:
            by_class.setdefault(ann, []).append(ids)
        # not spanned at the start of the level
        new_classes = [a for a in by_class if _reduce(span, a)]
        gained = 0
        for a in new_classes:
            r = _reduce(span, a)
            if r:
                span[r.bit_length() - 1] = r
                kept.append(
                    VariantSet(
                        cycles=tuple(
                            Cycle(edges=ids, length_mu=length_mu)
                            for ids in by_class[a]
                        )
                    )
                )
                gained += 1
        if gained < len(new_classes):
            ev = PathologyEvent(
                level=length_mu,
                n_classes=len(new_classes),
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
