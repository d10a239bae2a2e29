"""Vietoris-Rips flag complexes of weighted graphs, truncated at dimension 2.

Only vertices, edges and triangles are built: homology in degree 1 needs
nothing above the 2-skeleton. Each distinct edge weight is replaced by
its rank in the sorted weights, which the graph computes once
(``WeightedGraph.ranking``); edges are ordered by (rank, vertex pair)
and triangles are reduced in (largest edge rank, vertex triple) order,
so a triangle enters at its largest edge weight. Ranks are monotone in
weight, so the complex at a smaller threshold is a prefix of both
orders, with every edge at the same position: ``FlagComplex2.at``
slices it out instead of rebuilding.

The complex also carries what persistence and the minimal bases read
off it: the Kruskal spanning forest over edge positions, the
fundamental cycle of every non-tree edge, and the triangle boundary
columns reduced left to right over Z2. Edge sets are Python int
bitsets, bit p for edge position p, so addition is XOR and a column's
pivot is its highest set bit. Each of these is exact on a prefix too.
Kruskal runs in position order, so a prefix's forest is a prefix of
the forest; the forest path between two vertices never changes once
both are in it; and reducing a prefix of the columns gives a prefix of
the full reduction.

Triangles are found in filtration order. A triangle enters with its
last edge: walking the edge positions once with neighbor bitsets over
the edges already seen, edge (u, v) at position p closes one triangle
per common neighbor t, each with its low, its last edge, at p. Their
vertex triples ascend with t, so a rank's triangles come in vertex
triple order by merging its edges' streams on a small heap; no list of
triangles is built or sorted. Each column is reduced as soon as it is
found, under a pivot bound: ``first`` is the smallest non-tree
position that is no column's pivot yet. Any sum of boundary columns is
a cycle, and a cycle's last edge closes it over earlier edges, so it is
a non-tree position. A column whose pivot falls below ``first`` can
therefore only reduce to zero. ``first`` only grows, so once it passes
p the rest of edge p's stream is dropped unbuilt, and an edge already
below it when its rank starts gets no stream. On dense graphs almost
every triangle goes this way. Only the nonzero columns are kept, at
most one per non-tree edge, with a count of the triangles per rank.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heapreplace
from operator import itemgetter

from .graph import WeightedGraph

__all__ = ["FlagComplex2", "flag_complex_at"]


@dataclass(frozen=True)
class FlagComplex2:
    """2-skeleton of the flag complex of ``graph`` at threshold ``epsilon``.

    ``weights`` are the distinct edge weights present, ascending; a rank
    indexes into it. ``edge_ids`` index into ``graph.edges`` and are
    ordered by (rank, vertex pair), with ``edge_ranks`` alongside.
    ``triangle_counts[r]`` is the number of triangles of rank at most r.
    All vertices of the graph are present regardless of epsilon.

    ``tree`` is the bitset of edge positions in the Kruskal forest
    (position order). ``cycles[p]`` is the fundamental cycle of
    non-tree position p, as a bitset of positions, and 0 for a tree
    position. ``columns`` holds, in triangle order, a (rank, column)
    pair for each triangle whose boundary over edge positions stays
    nonzero under plain left-to-right column reduction, with the
    column as that reduction leaves it. Its pivot is the edge whose
    class the triangle kills; the triangles whose columns reduce to
    zero are only counted (see the module docstring).
    """

    epsilon: Fraction
    graph: WeightedGraph
    weights: tuple[Fraction, ...]
    edge_ids: tuple[int, ...]
    edge_ranks: tuple[int, ...]
    triangle_counts: tuple[int, ...]
    tree: int = field(repr=False)
    cycles: tuple[int, ...] = field(repr=False)
    columns: tuple[tuple[int, int], ...] = field(repr=False)

    @property
    def n_vertices(self) -> int:
        return self.graph.n_vertices

    @property
    def n_edges(self) -> int:
        return len(self.edge_ids)

    @property
    def n_triangles(self) -> int:
        return self.triangle_counts[-1] if self.triangle_counts else 0

    def edge_vertices(self, pos: int) -> tuple[int, int]:
        u, v, _ = self.graph.edges[self.edge_ids[pos]]
        return (u, v)

    def edge_weight(self, pos: int) -> Fraction:
        return self.graph.edges[self.edge_ids[pos]][2]

    def ids_of_mask(self, mask: int) -> tuple[int, ...]:
        """Ascending graph edge ids of a bitset of edge positions."""
        ids = []
        while mask:
            lsb = mask & -mask
            ids.append(self.edge_ids[lsb.bit_length() - 1])
            mask ^= lsb
        return tuple(sorted(ids))

    def at(self, epsilon: Fraction) -> FlagComplex2:
        """The subcomplex at a threshold no larger than this one's.

        It equals ``flag_complex_at(graph, epsilon)``, but is a prefix
        slice of this complex: no simplex is rebuilt or re-sorted.
        """
        if epsilon > self.epsilon:
            raise ValueError(f"threshold {epsilon} above {self.epsilon}")
        r = bisect_right(self.weights, epsilon)  # ranks below r are kept
        n_e = bisect_right(self.edge_ranks, r - 1)
        n_c = bisect_right(self.columns, r - 1, key=itemgetter(0))
        return FlagComplex2(
            epsilon=epsilon,
            graph=self.graph,
            weights=self.weights[:r],
            edge_ids=self.edge_ids[:n_e],
            edge_ranks=self.edge_ranks[:n_e],
            triangle_counts=self.triangle_counts[:r],
            tree=self.tree & ((1 << n_e) - 1),
            cycles=self.cycles[:n_e],
            columns=self.columns[:n_c],
        )


def flag_complex_at(g: WeightedGraph, epsilon: Fraction) -> FlagComplex2:
    """2-truncated flag complex at threshold epsilon (edges with w <= epsilon)."""
    all_weights, all_ranks = g.ranking
    r_end = bisect_right(all_weights, epsilon)  # ranks below it are kept
    # ids ascend in (u, v) order and the sort is stable
    ids = sorted(
        (i for i, r in enumerate(all_ranks) if r < r_end), key=all_ranks.__getitem__
    )
    ranks = [all_ranks[i] for i in ids]
    ends = [g.edges[i][:2] for i in ids]
    m = len(ids)
    pos = {uv: p for p, uv in enumerate(ends)}

    # Kruskal in position order, then root-to-vertex path masks in the
    # forest: a non-tree edge closes the cycle of the two paths
    parent = list(range(g.n_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = 0
    in_tree = [False] * m
    forest: list[list[tuple[int, int]]] = [[] for _ in range(g.n_vertices)]
    for p, (u, v) in enumerate(ends):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree |= 1 << p
            in_tree[p] = True
            forest[u].append((v, p))
            forest[v].append((u, p))
    path = [0] * g.n_vertices
    seen = [False] * g.n_vertices
    for root in range(g.n_vertices):
        if seen[root]:
            continue
        seen[root] = True
        stack = [root]
        while stack:
            x = stack.pop()
            for y, p in forest[x]:
                if not seen[y]:
                    seen[y] = True
                    path[y] = path[x] | (1 << p)
                    stack.append(y)

    # triangles rank by rank, each closed by its last edge, and their
    # columns reduced as they come under the pivot bound (module docstring)
    nbr = [0] * g.n_vertices  # neighbor bitsets over the edges seen
    owned: dict[int, int] = {}  # pivot position -> its reduced column
    first = next((p for p, t in enumerate(in_tree) if not t), m)

    def stream(common: int, q: int) -> tuple[tuple[int, int, int], int, int, int]:
        """Heap entry for the lowest of the common neighbors left to edge
        q: (vertex triple, that neighbor, the neighbors after it, q)."""
        u, v = ends[q]
        t = (common & -common).bit_length() - 1
        triple = (t, u, v) if t < u else (u, t, v) if t < v else (u, v, t)
        return triple, t, common & (common - 1), q

    triangle_counts: list[int] = []
    columns: list[tuple[int, int]] = []
    n_triangles = 0
    p = 0
    while p < m:
        r = ranks[p]
        heap = []
        while p < m and ranks[p] == r:
            u, v = ends[p]
            common = nbr[u] & nbr[v]
            n_triangles += common.bit_count()
            if common and p >= first:
                heap.append(stream(common, p))
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
            p += 1
        triangle_counts.append(n_triangles)
        heapify(heap)
        while heap:
            _, t, rest, q = heap[0]
            if q < first:  # so are all of edge q's triangles still to come
                heappop(heap)
                continue
            u, v = ends[q]
            col = (
                (1 << q)
                | (1 << pos[(t, u) if t < u else (u, t)])
                | (1 << pos[(t, v) if t < v else (v, t)])
            )
            low = q
            while low >= first and low in owned:
                col ^= owned[low]
                low = col.bit_length() - 1
            if low >= first:
                owned[low] = col
                columns.append((r, col))
                # moves only once the position it names is a pivot
                while first < m and (in_tree[first] or first in owned):
                    first += 1
            if rest:
                heapreplace(heap, stream(rest, q))
            else:
                heappop(heap)

    return FlagComplex2(
        epsilon=epsilon,
        graph=g,
        weights=all_weights[:r_end],
        edge_ids=tuple(ids),
        edge_ranks=tuple(ranks),
        triangle_counts=tuple(triangle_counts),
        tree=tree,
        cycles=tuple(
            0 if in_tree[p] else path[u] ^ path[v] ^ (1 << p)
            for p, (u, v) in enumerate(ends)
        ),
        columns=tuple(columns),
    )
