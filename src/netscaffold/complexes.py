"""Vietoris-Rips flag complexes of weighted graphs, truncated at dimension 2.

Only vertices, edges and triangles are built: homology in degree 1 needs
nothing above the 2-skeleton. Each distinct edge weight is replaced by
its rank in the sorted weights; edges are ordered by (rank, vertex pair)
and triangles by (largest edge rank, vertex triple), so a triangle
enters at its largest edge weight. Ranks are monotone in weight, so the
complex at a smaller threshold is a prefix of both orders, with every
edge at the same position: ``FlagComplex2.at`` slices it out instead of
rebuilding.
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
    """

    epsilon: Fraction
    graph: WeightedGraph
    weights: tuple[Fraction, ...]
    edge_ids: tuple[int, ...]
    edge_ranks: tuple[int, ...]
    triangles: tuple[tuple[int, int, int], ...]
    triangle_ranks: tuple[int, ...]
    # pair -> position in edge_ids; shared with every prefix view
    _edge_pos: dict[tuple[int, int], int] = field(repr=False, compare=False)

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

    def edge_position(self, u: int, v: int) -> int:
        """Position of edge {u,v} in this complex; KeyError if absent."""
        if u > v:
            u, v = v, u
        pos = self._edge_pos[(u, v)]
        if pos >= len(self.edge_ids):
            raise KeyError((u, v))
        return pos

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
            _edge_pos=self._edge_pos,
        )


def flag_complex_at(g: WeightedGraph, epsilon: Fraction) -> FlagComplex2:
    """2-truncated flag complex at threshold epsilon (edges with w <= epsilon)."""
    weights = tuple(sorted({w for _, _, w in g.edges if w <= epsilon}))
    rank = {w: r for r, w in enumerate(weights)}
    edges = sorted(
        (rank[w], u, v, i) for i, (u, v, w) in enumerate(g.edges) if w <= epsilon
    )

    adj: list[set[int]] = [set() for _ in range(g.n_vertices)]
    rank_of_pair: dict[tuple[int, int], int] = {}
    for r, u, v, _ in edges:
        adj[u].add(v)
        adj[v].add(u)
        rank_of_pair[(u, v)] = r
    # common neighbors above v: each triangle found exactly once, u<v<t
    tris = sorted(
        (max(r_uv, rank_of_pair[(u, t)], rank_of_pair[(v, t)]), (u, v, t))
        for (u, v), r_uv in rank_of_pair.items()
        for t in adj[u] & adj[v]
        if t > v
    )

    return FlagComplex2(
        epsilon=epsilon,
        graph=g,
        weights=weights,
        edge_ids=tuple(e[3] for e in edges),
        edge_ranks=tuple(e[0] for e in edges),
        triangles=tuple(t for _, t in tris),
        triangle_ranks=tuple(r for r, _ in tris),
        _edge_pos={(e[1], e[2]): p for p, e in enumerate(edges)},
    )
