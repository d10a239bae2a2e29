"""Vietoris-Rips flag complexes of weighted graphs, truncated at dimension 2.

Only vertices, edges and triangles are built: homology in degree 1 needs
nothing above the 2-skeleton. Each distinct edge weight is replaced by
its rank in the sorted weights; edges are ordered by (rank, vertex pair)
and triangles by (largest edge rank, vertex triple), so a triangle
enters at its largest edge weight. Ranks are monotone in weight, so the
complex at a smaller threshold is a prefix of both orders, with every
edge at the same position: ``FlagComplex2.at`` slices it out instead of
rebuilding.

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
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from .graph import WeightedGraph

__all__ = ["FlagComplex2", "flag_complex_at"]


@dataclass(frozen=True)
class FlagComplex2:
    """2-skeleton of the flag complex of ``graph`` at threshold ``epsilon``.

    ``weights`` are the distinct edge weights present, ascending; a rank
    indexes into it. ``edge_ids`` index into ``graph.edges`` and are
    ordered by (rank, vertex pair), with ``edge_ranks`` alongside.
    ``triangles`` are vertex triples ordered by (rank, vertex triple),
    with ``triangle_ranks`` alongside. All vertices of the graph are
    present regardless of epsilon.

    ``tree`` is the bitset of edge positions in the Kruskal forest
    (position order). ``cycles[p]`` is the fundamental cycle of
    non-tree position p, as a bitset of positions, and 0 for a tree
    position. ``reduced[t]`` is the boundary of triangle t over edge
    positions after left-to-right column reduction.
    """

    epsilon: Fraction
    graph: WeightedGraph
    weights: tuple[Fraction, ...]
    edge_ids: tuple[int, ...]
    edge_ranks: tuple[int, ...]
    triangles: tuple[tuple[int, int, int], ...]
    triangle_ranks: tuple[int, ...]
    tree: int = field(repr=False)
    cycles: tuple[int, ...] = field(repr=False)
    reduced: tuple[int, ...] = field(repr=False)

    @property
    def n_vertices(self) -> int:
        return self.graph.n_vertices

    @property
    def n_edges(self) -> int:
        return len(self.edge_ids)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

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
        n_t = bisect_right(self.triangle_ranks, r - 1)
        return FlagComplex2(
            epsilon=epsilon,
            graph=self.graph,
            weights=self.weights[:r],
            edge_ids=self.edge_ids[:n_e],
            edge_ranks=self.edge_ranks[:n_e],
            triangles=self.triangles[:n_t],
            triangle_ranks=self.triangle_ranks[:n_t],
            tree=self.tree & ((1 << n_e) - 1),
            cycles=self.cycles[:n_e],
            reduced=self.reduced[:n_t],
        )


def _column_reduce(cols: list[int]) -> list[int]:
    """Left-to-right Z2 column reduction of bitset columns, in place.

    Adds an earlier column into a later one whenever both share the same
    pivot, the highest set bit, until the nonzero pivots are distinct.
    """
    pivot_owner: dict[int, int] = {}
    for j in range(len(cols)):
        while cols[j]:
            piv = cols[j].bit_length() - 1
            owner = pivot_owner.get(piv)
            if owner is None:
                pivot_owner[piv] = j
                break
            cols[j] ^= cols[owner]
    return cols


def flag_complex_at(g: WeightedGraph, epsilon: Fraction) -> FlagComplex2:
    """2-truncated flag complex at threshold epsilon (edges with w <= epsilon)."""
    weights = tuple(sorted({w for _, _, w in g.edges if w <= epsilon}))
    rank = {w: r for r, w in enumerate(weights)}
    edges = sorted(
        (rank[w], u, v, i) for i, (u, v, w) in enumerate(g.edges) if w <= epsilon
    )
    pos = {(u, v): p for p, (_, u, v, _) in enumerate(edges)}

    adj: list[set[int]] = [set() for _ in range(g.n_vertices)]
    for _, u, v, _ in edges:
        adj[u].add(v)
        adj[v].add(u)
    # common neighbors above v: each triangle found exactly once, u<v<t;
    # positions ascend with rank, so the last edge gives the rank
    tris = []
    for (u, v), p_uv in pos.items():
        for t in adj[u] & adj[v]:
            if t > v:
                p_ut, p_vt = pos[(u, t)], pos[(v, t)]
                tris.append((
                    edges[max(p_uv, p_ut, p_vt)][0],
                    (u, v, t),
                    (1 << p_uv) | (1 << p_ut) | (1 << p_vt),
                ))
    tris.sort()

    # Kruskal in position order, then root-to-vertex path masks in the
    # forest: a non-tree edge closes the cycle of the two paths
    parent = list(range(g.n_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = 0
    in_tree = [False] * len(edges)
    forest: list[list[tuple[int, int]]] = [[] for _ in range(g.n_vertices)]
    for p, (_, u, v, _) in enumerate(edges):
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

    return FlagComplex2(
        epsilon=epsilon,
        graph=g,
        weights=weights,
        edge_ids=tuple(e[3] for e in edges),
        edge_ranks=tuple(e[0] for e in edges),
        triangles=tuple(t[1] for t in tris),
        triangle_ranks=tuple(t[0] for t in tris),
        tree=tree,
        cycles=tuple(
            0 if in_tree[p] else path[u] ^ path[v] ^ (1 << p)
            for p, (_, u, v, _) in enumerate(edges)
        ),
        reduced=tuple(_column_reduce([t[2] for t in tris])),
    )
