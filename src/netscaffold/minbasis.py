"""Minimum-length homology bases of flag complexes, with draw detection.

The pipeline per complex: annotate edges with Z2^beta1 homology
coordinates, enumerate Horton candidate cycles from per-vertex
shortest-path trees, then select a minimum basis in one greedy pass
over the candidates sorted by (length, edge ids). Each candidate's
class is reduced against the classes kept so far, and it is kept when
the residue is nonzero. Which cycles are kept depends only on that
order, not on the annotation coordinates. Cycles tied at the minimal
length within the same class are reported together as a variant set
("draws"). Ties *across* classes that make the chosen class set
ambiguous come out of the same pass, one length level at a time, and
are flagged as pathological, but never abort the run.

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
from .z2 import Z2Matrix, column_reduce, low

__all__ = [
    "Cycle",
    "VariantSet",
    "PathologyEvent",
    "MinimalBasisWithDraws",
    "annotate_edges",
    "horton_candidates",
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

    def representatives(self) -> list[Cycle]:
        return [vs.representative for vs in self.variant_sets]

    def total_length(self) -> Fraction:
        return sum((vs.length_mu for vs in self.variant_sets), Fraction(0))


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


def _spanning_forest(cx: FlagComplex2) -> list[bool]:
    """Kruskal-style forest over edge positions in position order."""
    parent = list(range(cx.n_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    in_tree = [False] * cx.n_edges
    for p in range(cx.n_edges):
        u, v = cx.edge_vertices(p)
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            in_tree[p] = True
    return in_tree


def _annotate(cx: FlagComplex2) -> _EdgeAnnotations:
    in_tree = _spanning_forest(cx)
    nt_positions = [p for p in range(cx.n_edges) if not in_tree[p]]
    nt_index = {p: k for k, p in enumerate(nt_positions)}
    g = len(nt_positions)

    # triangle boundaries in fundamental-cycle coordinates: a boundary
    # is itself a cycle, and any cycle's coordinates are the indicator
    # of its non-tree edges
    tri_coords = []
    for (u, v, w) in cx.triangles:
        mask = 0
        for a, b in ((u, v), (u, w), (v, w)):
            p = cx.edge_position(a, b)
            k = nt_index.get(p)
            if k is not None:
                mask |= 1 << k
        tri_coords.append(mask)

    reduced, _ = column_reduce(Z2Matrix(columns=tri_coords, n_rows=g))
    pivots: dict[int, int] = {}
    cols = []
    for c in reduced.columns:
        if c:
            pivots[low(c)] = len(cols)
            cols.append(c)
    # back-eliminate: each pivot row survives in exactly its own column,
    # so residues reduce in a single pass
    for p in sorted(pivots, reverse=True):
        j = pivots[p]
        for j2 in range(len(cols)):
            if j2 != j and (cols[j2] >> p) & 1:
                cols[j2] ^= cols[j]

    free_rows = [r for r in range(g) if r not in pivots]
    beta1 = len(free_rows)
    free_bit = {r: i for i, r in enumerate(free_rows)}

    def project(x: int) -> int:
        for p, j in pivots.items():
            if (x >> p) & 1:
                x ^= cols[j]
        out = 0
        while x:
            lsb = x & -x
            out |= 1 << free_bit[lsb.bit_length() - 1]
            x ^= lsb
        return out

    ann_by_pos = [0] * cx.n_edges
    for p, k in nt_index.items():
        ann_by_pos[p] = project(1 << k)

    nt_mask = 0
    for p in nt_positions:
        nt_mask |= 1 << p
    return _EdgeAnnotations(beta1=beta1, ann_by_pos=ann_by_pos, nt_mask=nt_mask)


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
# Horton candidate cycles


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

    Weights are pre-scaled integers. Returns (dist, pred, depth,
    pathmask). pred[u] is the smallest-id already-settled neighbor on a
    shortest path, which stays acyclic even with zero-weight edges.
    pathmask[u] is the bitset of tree edge positions on the root-to-u
    path.
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
    depth = [0] * n
    pathmask = [0] * n
    done = [False] * n
    pos_of: dict[tuple[int, int], int] = {}
    for u in order:
        if u != root:
            best = -1
            for v, w, pos in adj[u]:
                if done[v] and dist[v] + w == dist[u]:
                    if best == -1 or v < best:
                        best = v
                        pos_of[(v, u)] = pos
                    elif v == best:
                        pos_of[(v, u)] = pos
            # a settled witness always exists: the relaxer settled first
            pred[u] = best
            depth[u] = depth[best] + 1
            pathmask[u] = pathmask[best] | (1 << pos_of[(best, u)])
        done[u] = True
    return dist, pred, depth, pathmask


def _lca(a: int, b: int, pred: list[int], depth: list[int]) -> int:
    while depth[a] > depth[b]:
        a = pred[a]
    while depth[b] > depth[a]:
        b = pred[b]
    while a != b:
        a = pred[a]
        b = pred[b]
    return a


def _adjacency(
    cx: FlagComplex2, imu: list[int]
) -> list[list[tuple[int, int, int]]]:
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(cx.n_vertices)]
    for p in range(cx.n_edges):
        u, v = cx.edge_vertices(p)
        adj[u].append((v, imu[p], p))
        adj[v].append((u, imu[p], p))
    return adj


def _candidate_masks(cx: FlagComplex2, imu: list[int]) -> dict[int, int]:
    """Deduped Horton cycle masks (over edge positions) -> mu-length.

    For root v and edge (a,b): tree paths v->a, v->b plus the edge,
    kept when the edge is not a tree edge and the paths meet only at v
    (checked via the lowest common ancestor).
    """
    adj = _adjacency(cx, imu)
    n = cx.n_vertices
    found: dict[int, int] = {}
    for root in range(n):
        dist, pred, depth, pathmask = _sp_tree(adj, n, root)
        for p in range(cx.n_edges):
            a, b = cx.edge_vertices(p)
            if dist[a] is None or dist[b] is None:
                continue
            if pred[a] == b or pred[b] == a:
                continue  # tree edge of this root
            if _lca(a, b, pred, depth) != root:
                continue
            mask = pathmask[a] ^ pathmask[b] ^ (1 << p)
            if mask not in found:
                found[mask] = dist[a] + dist[b] + imu[p]
    return found


def _fundamental_masks(
    cx: FlagComplex2, nt_mask: int, imu: list[int]
) -> dict[int, int]:
    """Fundamental cycles of the annotation forest, as mask -> length.

    Merged into the candidate pool so selection always has a spanning
    family even when shortest-path ties thin out the Horton set.
    """
    n = cx.n_vertices
    tree_adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    nt_positions = []
    for p in range(cx.n_edges):
        u, v = cx.edge_vertices(p)
        if (nt_mask >> p) & 1:
            nt_positions.append(p)
        else:
            tree_adj[u].append((v, p))
            tree_adj[v].append((u, p))
    pathmask = [0] * n
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [root]
        while stack:
            u = stack.pop()
            for v, p in tree_adj[u]:
                if not seen[v]:
                    seen[v] = True
                    pathmask[v] = pathmask[u] | (1 << p)
                    stack.append(v)
    out: dict[int, int] = {}
    for p in nt_positions:
        a, b = cx.edge_vertices(p)
        mask = pathmask[a] ^ pathmask[b] ^ (1 << p)
        length = 0
        m = mask
        while m:
            lsb = m & -m
            length += imu[lsb.bit_length() - 1]
            m ^= lsb
        out[mask] = length
    return out


def _mask_to_ids(cx: FlagComplex2, mask: int) -> tuple[int, ...]:
    """Ascending graph edge ids of a bitset of edge positions."""
    ids = []
    while mask:
        lsb = mask & -mask
        ids.append(cx.edge_ids[lsb.bit_length() - 1])
        mask ^= lsb
    return tuple(sorted(ids))


def horton_candidates(
    cx: FlagComplex2, mu_weights: dict[int, Fraction] | None = None
) -> list[Cycle]:
    """Candidate cycles sorted by (length, edge ids).

    mu_weights overrides the filtration weights for length accounting
    (keyed by graph edge id); shortest-path trees use the same metric.
    """
    imu, denom = _scale_mu(_mu_by_pos(cx, mu_weights))
    found = _candidate_masks(cx, imu)
    cycles = [
        Cycle(edges=_mask_to_ids(cx, m), length_mu=Fraction(l, denom))
        for m, l in found.items()
    ]
    cycles.sort(key=lambda c: c.sort_key)
    return cycles


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
    cx: FlagComplex2, mu_weights: dict[int, Fraction] | None = None
) -> MinimalBasisWithDraws:
    """Minimum-length homology basis with tied-representative sets.

    One greedy pass over the candidates in (length, edge ids) order,
    one length level at a time, keeps a candidate when its class is
    independent of the classes kept so far. The kept candidates form
    the unique minimum basis of the pool under that order. A kept
    candidate's variant set is every candidate of its level with the
    same class. A level that keeps fewer candidates than it has
    distinct classes not spanned at its start is a pathology: which of
    those classes enter the basis is decided only by edge-id order. It
    is logged as a warning and recorded, never raised.
    """
    ednn = _annotate(cx)
    beta1 = ednn.beta1
    if beta1 == 0:
        return MinimalBasisWithDraws(
            beta1=0, variant_sets=(), pathology_events=()
        )

    imu, denom = _scale_mu(_mu_by_pos(cx, mu_weights))
    found = _candidate_masks(cx, imu)
    for mask, length in _fundamental_masks(cx, ednn.nt_mask, imu).items():
        found.setdefault(mask, length)
    # (scaled length, edge ids, class); edge id sets are distinct, so
    # the tuples sort by (length, edge ids) and never compare classes
    cands: list[tuple[int, tuple[int, ...], int]] = []
    for mask, length in found.items():
        ann = ednn.annotation_of_mask(mask)
        if ann:  # a zero class is a boundary, never selectable
            cands.append((length, _mask_to_ids(cx, mask), ann))
    cands.sort()

    span: dict[int, int] = {}
    kept: list[VariantSet] = []
    events: list[PathologyEvent] = []
    i = 0
    while i < len(cands) and len(kept) < beta1:
        j = i
        level = cands[i][0]
        while j < len(cands) and cands[j][0] == level:
            j += 1
        length_mu = Fraction(level, denom)
        # classes in order of their first (smallest edge ids) member
        by_class: dict[int, list[tuple[int, ...]]] = {}
        for _, ids, ann in cands[i:j]:
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
        i = j
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
