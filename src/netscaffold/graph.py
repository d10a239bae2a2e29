"""Weighted-graph model, file ingestion, and filtration extraction.

Weights are exact rationals throughout. Decimal strings parse exactly
(``"0.3"`` becomes 3/10), floats convert to their exact binary value,
so equality of weights is decidable and tie handling never depends on
an epsilon.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

__all__ = [
    "GraphFormatError",
    "WeightedGraph",
    "Filtration",
    "as_weight",
    "make_graph",
    "parse_edge_list",
    "parse_adjacency",
    "serialize_edge_list",
    "orient_filtration",
    "build_filtration",
    "relabel",
]

# Largest tolerated |a_ij - a_ji| when reading adjacency matrices.
ADJACENCY_SYMMETRY_TOL = Fraction(1, 10**12)


class GraphFormatError(ValueError):
    """Input text cannot be parsed into a valid weighted graph."""


def as_weight(value: object) -> Fraction:
    """Convert a parsed token to an exact nonnegative weight.

    Strings go through ``Fraction`` directly, so decimal notation is
    exact. Floats convert to their exact binary rational. Negative or
    non-finite values are rejected, and so are values too large for a
    float, because every writer emits a float column next to the exact
    one.
    """
    try:
        if isinstance(value, float):
            w = Fraction(value)  # raises on nan/inf
        elif isinstance(value, (int, Fraction)):
            w = Fraction(value)
        elif isinstance(value, str):
            w = Fraction(value.strip())
        else:
            raise TypeError(f"unsupported weight type {type(value).__name__}")
        float(w)  # OverflowError past the float range
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise GraphFormatError(f"bad weight {value!r}: {exc}") from None
    if w < 0:
        raise GraphFormatError(f"negative weight {value!r}")
    return w


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected weighted graph on vertices ``0..n_vertices-1``.

    Edges are stored canonically: ``u < v``, sorted, no duplicates, no
    self-loops, all weights finite and >= 0. Construction validates all
    of this so downstream code can rely on it.
    """

    n_vertices: int
    edges: tuple[tuple[int, int, Fraction], ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.n_vertices < 0:
            raise GraphFormatError("negative vertex count")
        seen: set[tuple[int, int]] = set()
        for u, v, w in self.edges:
            if not (0 <= u < v < self.n_vertices):
                raise GraphFormatError(f"edge ({u},{v}) not canonical for n={self.n_vertices}")
            if (u, v) in seen:
                raise GraphFormatError(f"duplicate edge ({u},{v})")
            if not isinstance(w, Fraction) or w < 0:
                raise GraphFormatError(f"edge ({u},{v}) weight {w!r} invalid")
            seen.add((u, v))
        if tuple(sorted(self.edges, key=lambda e: (e[0], e[1]))) != self.edges:
            raise GraphFormatError("edges not sorted canonically")
        if self.labels is not None and len(self.labels) != self.n_vertices:
            raise GraphFormatError("label count does not match vertex count")

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def weights(self) -> tuple[Fraction, ...]:
        return tuple(w for _, _, w in self.edges)

    def adjacency_sets(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n_vertices)]
        for u, v, _ in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def max_weight(self) -> Fraction:
        if not self.edges:
            return Fraction(0)
        return max(w for _, _, w in self.edges)


def _canonical_edges(
    raw: Iterable[tuple[int, int, Fraction]],
) -> tuple[tuple[int, int, Fraction], ...]:
    """Canonicalize (sort endpoints, drop exact duplicates, reject conflicts)."""
    by_pair: dict[tuple[int, int], Fraction] = {}
    for u, v, w in raw:
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}")
        if u > v:
            u, v = v, u
        prev = by_pair.get((u, v))
        if prev is None:
            by_pair[(u, v)] = w
        elif prev != w:
            raise GraphFormatError(f"conflicting weights for edge ({u},{v}): {prev} vs {w}")
    return tuple((u, v, w) for (u, v), w in sorted(by_pair.items()))


def make_graph(
    n_vertices: int,
    edges: Iterable[tuple[int, int, object]],
    labels: Sequence[str] | None = None,
) -> WeightedGraph:
    """Build a graph from possibly unordered edge triples, converting weights."""
    converted = [(int(u), int(v), as_weight(w)) for u, v, w in edges]
    return WeightedGraph(
        n_vertices=n_vertices,
        edges=_canonical_edges(converted),
        labels=tuple(labels) if labels is not None else None,
    )


def parse_edge_list(text: str) -> WeightedGraph:
    """Parse a ``u,v,w`` CSV edge list.

    Lines starting with ``#`` are comments. The first non-comment line
    may be a JSON object declaring ``n_vertices`` and optional
    ``labels``; otherwise the vertex count is ``max id + 1``.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    n_declared: int | None = None
    labels: tuple[str, ...] | None = None
    if lines and lines[0].startswith("{"):
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"bad JSON header: {exc}") from None
        if not isinstance(header, dict):
            raise GraphFormatError("JSON header must be an object")
        if "n_vertices" in header:
            n_declared = header["n_vertices"]
            if not isinstance(n_declared, int) or isinstance(n_declared, bool):
                raise GraphFormatError(f"header n_vertices={n_declared!r} is not an integer")
        if "labels" in header:
            if not isinstance(header["labels"], list):
                raise GraphFormatError("header labels must be a list")
            labels = tuple(str(x) for x in header["labels"])
        lines = lines[1:]

    triples: list[tuple[int, int, Fraction]] = []
    max_id = -1
    for ln in lines:
        parts = [p.strip() for p in ln.split(",")]
        if len(parts) != 3:
            raise GraphFormatError(f"expected 'u,v,w', got {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"non-integer vertex id in {ln!r}") from None
        if u < 0 or v < 0:
            raise GraphFormatError(f"negative vertex id in {ln!r}")
        triples.append((u, v, as_weight(parts[2])))
        max_id = max(max_id, u, v)

    n = max_id + 1
    if n_declared is not None:
        if n_declared < n:
            raise GraphFormatError(f"header n_vertices={n_declared} but ids reach {max_id}")
        n = n_declared
    if labels is not None and len(labels) != n:
        raise GraphFormatError("label count does not match vertex count")
    return WeightedGraph(n_vertices=n, edges=_canonical_edges(triples), labels=labels)


def parse_adjacency(text: str) -> WeightedGraph:
    """Parse a square symmetric matrix (CSV or whitespace separated).

    Zero entries mean "no edge". The diagonal must be zero. Asymmetry
    beyond 1e-12 is an error; below that the upper-triangle entry wins.
    """
    rows: list[list[Fraction]] = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = [p for p in (ln.split(",") if "," in ln else ln.split()) if p.strip()]
        rows.append([as_weight(p) for p in parts])
    n = len(rows)
    if n == 0:
        raise GraphFormatError("empty adjacency matrix")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise GraphFormatError(f"row {i} has {len(row)} entries, expected {n}")
    triples: list[tuple[int, int, Fraction]] = []
    for i in range(n):
        if rows[i][i] != 0:
            raise GraphFormatError(f"nonzero diagonal entry at ({i},{i})")
        for j in range(i + 1, n):
            a, b = rows[i][j], rows[j][i]
            if abs(a - b) > ADJACENCY_SYMMETRY_TOL:
                raise GraphFormatError(f"asymmetric entries at ({i},{j}): {a} vs {b}")
            if a != 0:
                triples.append((i, j, a))
    return WeightedGraph(n_vertices=n, edges=tuple(triples))


def serialize_edge_list(g: WeightedGraph) -> str:
    """Inverse of parse_edge_list; exact decimal-free rational text round-trips."""
    out: list[str] = []
    header: dict[str, object] = {"n_vertices": g.n_vertices}
    if g.labels is not None:
        header["labels"] = list(g.labels)
    out.append(json.dumps(header))
    for u, v, w in g.edges:
        out.append(f"{u},{v},{w}")
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class Filtration:
    """Graph plus the ascending sequence of distinct edge weights.

    ``steps`` are the thresholds at which the flag complex changes; the
    complex at ``steps[-1]`` contains every edge.
    """

    source: WeightedGraph
    steps: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if list(self.steps) != sorted(set(self.steps)):
            raise GraphFormatError("filtration steps must be strictly increasing")


def build_filtration(g: WeightedGraph) -> Filtration:
    """Extract the filtration: sorted distinct weights as steps.

    An empty edge set gives the degenerate single-step filtration at 0
    (vertices only); downstream scaffolds are then empty.
    """
    if not g.edges:
        return Filtration(source=g, steps=(Fraction(0),))
    return Filtration(source=g, steps=tuple(sorted({w for _, _, w in g.edges})))


def orient_filtration(g: WeightedGraph, direction: str) -> WeightedGraph:
    """Reorient weights for filtration order.

    ``"ascending"`` is the identity (small weights enter first).
    ``"descending"`` maps w to w_max - w, so the strongest ties enter
    first; use it when weights are affinities rather than distances.
    """
    if direction == "ascending":
        return g
    if direction != "descending":
        raise ValueError(f"unknown orientation {direction!r}")
    w_max = g.max_weight()
    flipped = tuple((u, v, w_max - w) for u, v, w in g.edges)
    return WeightedGraph(n_vertices=g.n_vertices, edges=flipped, labels=g.labels)


def relabel(g: WeightedGraph, perm: Sequence[int]) -> WeightedGraph:
    """Apply a vertex permutation; perm[old] = new. Weights ride along."""
    if sorted(perm) != list(range(g.n_vertices)):
        raise ValueError("perm is not a permutation of the vertex set")
    moved = [(perm[u], perm[v], w) for u, v, w in g.edges]
    new_labels: tuple[str, ...] | None = None
    if g.labels is not None:
        inv = [0] * g.n_vertices
        for old, new in enumerate(perm):
            inv[new] = old
        new_labels = tuple(g.labels[inv[i]] for i in range(g.n_vertices))
    return WeightedGraph(
        n_vertices=g.n_vertices,
        edges=_canonical_edges(moved),
        labels=new_labels,
    )
