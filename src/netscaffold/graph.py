"""Weighted-graph model, file ingestion, and filtration extraction.

Weights are exact rationals throughout. Decimal strings parse exactly
(``"0.3"`` becomes 3/10), with integer arithmetic into a ``Fraction``;
floats convert to their exact binary value, so equality of weights is
decidable and tie handling never depends on an epsilon. Each graph
sorts its weights once (``WeightedGraph.ranking``): the distinct weights
ascending and every edge's integer rank among them. The filtration's
steps and every flag complex are read off that ranking, and code that
holds two ranks compares them, not the weights.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

__all__ = [
    "MAX_VERTICES",
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
]

# Largest tolerated |a_ij - a_ji| when reading adjacency matrices.
ADJACENCY_SYMMETRY_TOL = Fraction(1, 10**12)

# Largest accepted vertex count. Per-vertex lists, adjacency sets and
# shortest-path arrays are sized by it, so a header or vertex id far
# past the edge count would otherwise allocate that much memory.
MAX_VERTICES = 100_000

# Largest decimal exponent accepted in a weight string. Building
# 10**exponent for "1e99999999" would take minutes. A mantissa holds at
# most 4300 digits on each side of the point (Python's int limit), so a
# nonzero weight past this exponent is outside the float range.
_MAX_EXPONENT = 10_000

# The grammar Python 3.11's ``Fraction(str)`` accepts: whitespace and a
# sign, then p/q, or a decimal with an optional exponent, with digits
# grouped by single underscores. Matched once, and the weight is built
# from the ints of its groups.
_WEIGHT = re.compile(
    r"""
    \A\s*(?P<sign>[-+]?)
    (?=\d|\.\d)
    (?P<num>\d*|\d+(?:_\d+)*)
    (?:
        /(?P<denom>\d+(?:_\d+)*)
      |
        (?:\.(?P<decimal>\d*|\d+(?:_\d+)*))?
        (?:E(?P<exp>[-+]?\d+(?:_\d+)*))?
    )
    \s*\Z
    """,
    re.VERBOSE | re.IGNORECASE,
)


class GraphFormatError(ValueError):
    """Input text cannot be parsed into a valid weighted graph."""


def _parse_weight(text: str) -> Fraction:
    """The exact value of a rational string, as ``Fraction(text)`` reads
    it, with the exponent bounded by ``_MAX_EXPONENT``."""
    m = _WEIGHT.match(text)
    if m is None:
        raise ValueError("not a rational number")
    sign, num, denom, decimal, exp = m.groups()
    numerator, denominator = int(num or "0"), int(denom or "1")
    if decimal:  # a p/q match has no decimal and no exponent
        decimal = decimal.replace("_", "")
        denominator = 10 ** len(decimal)
        numerator = numerator * denominator + int(decimal)
    if exp:
        e = int(exp)
        if abs(e) > _MAX_EXPONENT:
            raise ValueError("decimal exponent out of range")
        if e >= 0:
            numerator *= 10**e
        else:
            denominator *= 10**-e
    return Fraction(-numerator if sign == "-" else numerator, denominator)


def as_weight(value: object) -> Fraction:
    """Convert a parsed token to an exact nonnegative weight.

    Strings are read in ``Fraction``'s syntax, so decimal notation is
    exact. Floats convert to their exact binary rational. Negative or
    non-finite values are rejected, and so are values too large for a
    float, because every writer emits a float column next to the exact
    one.
    """
    try:
        if isinstance(value, str):
            w = _parse_weight(value)
        elif isinstance(value, (int, float, Fraction)):
            w = Fraction(value)  # raises on nan/inf
        else:
            raise TypeError(f"unsupported weight type {type(value).__name__}")
        w.numerator / w.denominator  # OverflowError past the float range
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise GraphFormatError(f"bad weight {value!r}: {exc}") from None
    if w.numerator < 0:
        raise GraphFormatError(f"negative weight {value!r}")
    return w


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected weighted graph on vertices ``0..n_vertices-1``.

    Edges are stored canonically: each ``(u, v)`` has ``u < v`` and
    comes strictly after the pair before it, so the edges are sorted
    with no duplicates and no self-loops, and every weight is a
    ``Fraction`` >= 0. Construction checks all of this in one pass over
    the edges, so downstream code can rely on it; an edge's index in
    ``edges`` is its id, and ids follow ``(u, v)`` order.
    """

    n_vertices: int
    edges: tuple[tuple[int, int, Fraction], ...]

    def __post_init__(self) -> None:
        n = self.n_vertices
        if n < 0:
            raise GraphFormatError("negative vertex count")
        if n > MAX_VERTICES:
            raise GraphFormatError(f"{n} vertices, more than the limit of {MAX_VERTICES}")
        prev = (-1, -1)
        for u, v, w in self.edges:
            if not (0 <= u < v < n):
                raise GraphFormatError(f"edge ({u},{v}) not canonical for n={n}")
            if (u, v) <= prev:
                if (u, v) == prev:
                    raise GraphFormatError(f"duplicate edge ({u},{v})")
                raise GraphFormatError("edges not sorted canonically")
            if not isinstance(w, Fraction) or w.numerator < 0:
                raise GraphFormatError(f"edge ({u},{v}) weight {w!r} invalid")
            prev = (u, v)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def ranking(self) -> tuple[tuple[Fraction, ...], tuple[int, ...]]:
        """``(weights, ranks)``: the distinct edge weights, ascending, and
        each edge's rank, its index into ``weights``, in edge id order.

        Computed once per graph. The sort compares weights as floats
        wherever the floats differ and exactly where they tie, so equal
        weights end up adjacent and merge without hashing a ``Fraction``.
        """
        keys = [_weight_key(w) for _, _, w in self.edges]
        weights: list[Fraction] = []
        ranks = [0] * len(keys)
        prev = None
        for i in sorted(range(len(keys)), key=keys.__getitem__):
            if keys[i] != prev:
                prev = keys[i]
                weights.append(prev[1])
            ranks[i] = len(weights) - 1
        return tuple(weights), tuple(ranks)

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
    n_vertices: int, edges: Iterable[tuple[int, int, object]]
) -> WeightedGraph:
    """Build a graph from possibly unordered edge triples, converting weights."""
    converted = [(int(u), int(v), as_weight(w)) for u, v, w in edges]
    return WeightedGraph(n_vertices=n_vertices, edges=_canonical_edges(converted))


def parse_edge_list(text: str) -> WeightedGraph:
    """Parse a ``u,v,w`` CSV edge list.

    Lines starting with ``#`` are comments. The first non-comment line
    may be a JSON object header whose only key is ``n_vertices`` (``{}``
    declares nothing); any other key is an error, so a misspelt key
    cannot silently change the vertex count. Without a declared count
    the vertex count is ``max id + 1``. Edge lines
    are ASCII without ``_``, and vertex ids are digits only: Python's
    number syntax would read ``1_0`` as 10, and a sign or any Unicode
    digit as part of the number, turning a typo into a different graph.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    n_declared: int | None = None
    if lines and lines[0].startswith("{"):
        try:
            header = json.loads(lines[0])
        except (ValueError, RecursionError) as exc:
            # ValueError covers JSONDecodeError and over-long integers
            raise GraphFormatError(f"bad JSON header: {exc}") from None
        if not isinstance(header, dict):
            raise GraphFormatError("JSON header must be an object")
        unknown = sorted(set(header) - {"n_vertices"})
        if unknown:
            raise GraphFormatError(f"unknown header keys {unknown}; only n_vertices is allowed")
        if "n_vertices" in header:
            n_declared = header["n_vertices"]
            if not isinstance(n_declared, int) or isinstance(n_declared, bool):
                raise GraphFormatError(f"header n_vertices={n_declared!r} is not an integer")
        lines = lines[1:]

    triples: list[tuple[int, int, Fraction]] = []
    max_id = -1
    for ln in lines:
        if not ln.isascii() or "_" in ln:
            raise GraphFormatError(f"non-ASCII character or '_' in {ln!r}")
        parts = ln.split(",")
        if len(parts) != 3:
            raise GraphFormatError(f"expected 'u,v,w', got {ln!r}")
        su, sv = parts[0].strip(), parts[1].strip()
        if not (su.isdigit() and sv.isdigit()):
            raise GraphFormatError(f"vertex ids must be digits in {ln!r}")
        try:
            u, v = int(su), int(sv)
        except ValueError:  # past the int() digit limit
            raise GraphFormatError(f"vertex id too long in {ln!r}") from None
        triples.append((u, v, as_weight(parts[2])))
        max_id = max(max_id, u, v)

    n = max_id + 1
    if n_declared is not None:
        if n_declared < n:
            raise GraphFormatError(f"header n_vertices={n_declared} but ids reach {max_id}")
        n = n_declared
    return WeightedGraph(n_vertices=n, edges=_canonical_edges(triples))


def parse_adjacency(text: str) -> WeightedGraph:
    """Parse a square symmetric matrix (CSV or whitespace separated).

    Zero entries mean "no edge". The diagonal must be zero. Asymmetry
    beyond 1e-12 is an error; below that the upper-triangle entry wins.
    Rows are ASCII, and no entry may contain ``_``, which Python reads
    as a digit separator.
    """
    rows: list[list[Fraction]] = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if not ln.isascii() or "_" in ln:
            raise GraphFormatError(f"non-ASCII character or '_' in row {ln!r}")
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
    out = [json.dumps({"n_vertices": g.n_vertices})]
    out.extend(f"{u},{v},{w}" for u, v, w in g.edges)
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
        steps = self.steps
        # the graph's own ranked weights increase by construction; only
        # steps from elsewhere are compared as Fractions
        if steps is not self.source.ranking[0] and not all(
            a < b for a, b in zip(steps, steps[1:])
        ):
            raise GraphFormatError("filtration steps must be strictly increasing")


def _weight_key(w: Fraction) -> tuple[float, Fraction]:
    # int / int is correctly rounded, hence monotone, so the exact
    # compare runs only between weights that round to one float
    try:
        return (w.numerator / w.denominator, w)
    except OverflowError:  # a directly built graph may hold any rational
        return (math.inf, w)


def build_filtration(g: WeightedGraph) -> Filtration:
    """Extract the filtration: the graph's ranked weights as steps.

    An empty edge set gives the degenerate single-step filtration at 0
    (vertices only); downstream scaffolds are then empty.
    """
    if not g.edges:
        return Filtration(source=g, steps=(Fraction(0),))
    return Filtration(source=g, steps=g.ranking[0])


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
    return WeightedGraph(n_vertices=g.n_vertices, edges=flipped)
