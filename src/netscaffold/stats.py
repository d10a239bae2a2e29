"""Node and edge statistics of scaffolds, and scaffold comparison.

Shortest-path metrics stay exact: each graph's path lengths are scaled
once to integers by the lcm of their denominators, so equal-length
paths are recognized exactly, and Brandes' dependencies are summed in
integers over one common denominator per source. Only the final
summaries become floats.
Correlations return None instead of NaN when an input vector is
constant, and those pairs are excluded from aggregate means.

Midranks are computed here with numpy, and the Kolmogorov tail of the
KS p-value in plain ``math``, following the two series of scipy's
``scipy.special.kolmogorov`` operation for operation; both equal the
scipy functions bit for bit, and no command loads scipy.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph import WeightedGraph
from .scaffold import Scaffold

__all__ = [
    "MetricReport",
    "graph_metrics",
    "pearson",
    "spearman",
    "ks_two_sample",
    "ComparisonReport",
    "compare_scaffolds",
    "aggregate_comparisons",
]

VERTEX_METRICS = (
    "degree",
    "strength",
    "betweenness",
    "closeness",
    "eigenvector",
    "clustering",
)

KS_INCONCLUSIVE_P = 0.05


@dataclass(frozen=True)
class MetricReport:
    n_vertices: int
    degree: np.ndarray
    strength: np.ndarray
    betweenness: np.ndarray
    closeness: np.ndarray
    eigenvector: np.ndarray
    clustering: np.ndarray
    edge_weights: dict

    def vector(self, name: str) -> np.ndarray:
        if name not in VERTEX_METRICS:
            raise KeyError(name)
        return getattr(self, name)


def _edge_view(obj: Scaffold | WeightedGraph) -> tuple[int, list[tuple[int, int, Fraction]]]:
    if isinstance(obj, Scaffold):
        return obj.n_vertices, list(obj.edge_weights)
    if isinstance(obj, WeightedGraph):
        return obj.n_vertices, list(obj.edges)
    raise TypeError(f"expected Scaffold or WeightedGraph, got {type(obj).__name__}")


def _lengths(
    edges: list[tuple[int, int, Fraction]], mode: str
) -> list[tuple[int, int, Fraction]]:
    if mode not in ("direct", "inverse"):
        raise ValueError(f"unknown length mode {mode!r}")
    out = []
    for u, v, w in edges:
        if w == 0:
            # zero-length edges make shortest-path counts ill-defined
            raise ValueError("path metrics need strictly positive weights")
        out.append((u, v, w if mode == "direct" else Fraction(1) / w))
    return out


def _sssp(
    adj: list[list[tuple[int, int]]], n: int, s: int
) -> tuple[list[int | None], list[int], list[list[int]], list[int]]:
    """Dijkstra with path counting on integer lengths, so ties are exact."""
    dist: list[int | None] = [None] * n
    sigma = [0] * n
    preds: list[list[int]] = [[] for _ in range(n)]
    dist[s] = 0
    sigma[s] = 1
    settled = [False] * n
    order: list[int] = []
    heap: list[tuple[int, int]] = [(0, s)]
    while heap:
        d, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        order.append(u)
        for v, w in adj[u]:
            nd = d + w
            if dist[v] is None or nd < dist[v]:
                dist[v] = nd
                sigma[v] = sigma[u]
                preds[v] = [u]
                heapq.heappush(heap, (nd, v))
            elif nd == dist[v] and not settled[v]:
                sigma[v] += sigma[u]
                preds[v].append(u)
    return dist, sigma, preds, order


def _betweenness_closeness(
    n: int, edges: list[tuple[int, int, Fraction]]
) -> tuple[np.ndarray, np.ndarray]:
    """Brandes betweenness and closeness, exact until the final floats.

    Lengths are scaled once to integers by the lcm of their
    denominators. Per source s, with m the lcm of the path counts
    sigma, acc[u] is m times the sum of (1 + delta[v]) / sigma[v] over
    the v that have u as a shortest-path predecessor, each term being
    m // sigma[v] + acc[v]; the dependency delta[u] is
    sigma[u] * acc[u] / m, the only division.
    """
    scale = math.lcm(*(w.denominator for _, _, w in edges)) if edges else 1
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, w in edges:
        length = w.numerator * (scale // w.denominator)
        adj[u].append((v, length))
        adj[v].append((u, length))
    bet = [Fraction(0)] * n
    clo = np.zeros(n)
    for s in range(n):
        dist, sigma, preds, order = _sssp(adj, n, s)
        total = sum(dist[v] for v in order)  # type: ignore[misc]
        if total > 0:
            # int / int is the correctly rounded Fraction((n-1)*scale, total)
            clo[s] = (n - 1) * scale / total
        m = math.lcm(*(sigma[v] for v in order))
        acc = [0] * n
        for v in reversed(order):
            a = acc[v]
            if v != s and a:
                bet[v] += Fraction(sigma[v] * a, m)
            a += m // sigma[v]
            for u in preds[v]:
                acc[u] += a
        # undirected: every pair is counted from both endpoints
    return np.array([float(b / 2) for b in bet]), clo


def _eigenvector(n: int, edges: list[tuple[int, int, Fraction]]) -> np.ndarray:
    if not edges:
        return np.zeros(n)
    a = np.zeros((n, n))
    for u, v, w in edges:
        a[u, v] = a[v, u] = float(w)
    # shift keeps the leading eigenvector but kills sign oscillation
    m = a + np.eye(n) * float(np.max(np.abs(a)))
    x = np.full(n, 1.0 / math.sqrt(n))
    for _ in range(10000):
        y = m @ x
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            return np.zeros(n)
        y /= norm
        if float(np.max(np.abs(y - x))) < 1e-10:
            x = y
            break
        x = y
    if x[int(np.argmax(np.abs(x)))] < 0:
        x = -x
    return np.clip(x, 0.0, None)


def _clustering(n: int, edges: list[tuple[int, int, Fraction]]) -> np.ndarray:
    if not edges:
        return np.zeros(n)
    w_max = max(w for _, _, w in edges)
    nbrs: list[dict[int, float]] = [{} for _ in range(n)]
    for u, v, w in edges:
        hat = float(w / w_max)
        nbrs[u][v] = hat
        nbrs[v][u] = hat
    out = np.zeros(n)
    for u in range(n):
        ns = sorted(nbrs[u])
        k = len(ns)
        if k < 2:
            continue
        acc = 0.0
        for i in range(k):
            for j in range(i + 1, k):
                v, t = ns[i], ns[j]
                w_vt = nbrs[v].get(t)
                if w_vt is not None:
                    acc += (nbrs[u][v] * nbrs[u][t] * w_vt) ** (1.0 / 3.0)
        out[u] = 2.0 * acc / (k * (k - 1))
    return out


def graph_metrics(
    obj: Scaffold | WeightedGraph, length_mode: str | None = None
) -> MetricReport:
    """Standard node metrics plus the edge-weight map.

    length_mode controls how weights become path lengths for
    betweenness and closeness: "inverse" (1/w, scaffold weights are
    affinities; the default for scaffolds) or "direct" (weights are
    lengths; the default for plain graphs). Degree, strength,
    eigenvector and clustering always use the weights as affinities.
    """
    n, edges = _edge_view(obj)
    if length_mode is None:
        length_mode = "inverse" if isinstance(obj, Scaffold) else "direct"
    degree = np.zeros(n)
    strength = np.zeros(n)
    for u, v, w in edges:
        degree[u] += 1
        degree[v] += 1
        strength[u] += float(w)
        strength[v] += float(w)
    bet, clo = _betweenness_closeness(n, _lengths(edges, length_mode))
    return MetricReport(
        n_vertices=n,
        degree=degree,
        strength=strength,
        betweenness=bet,
        closeness=clo,
        eigenvector=_eigenvector(n, edges),
        clustering=_clustering(n, edges),
        edge_weights={(u, v): float(w) for u, v, w in edges},
    )


def pearson(x, y) -> float | None:
    """Pearson r, or None when undefined (short or constant input)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("length mismatch")
    if x.size < 2 or float(np.std(x)) == 0.0 or float(np.std(y)) == 0.0:
        return None
    return float(np.corrcoef(x, y)[0, 1])


def _midranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of the flattened x, tied values sharing the mean of
    their ranks; all NaN when x holds a NaN.

    Every rank is an exact half, so this equals
    ``scipy.stats.rankdata(x)`` bit for bit.
    """
    x = x.ravel()
    if np.isnan(x).any():
        return np.full(x.shape, np.nan)
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return ((ends - counts + 1 + ends) / 2)[inverse]


def spearman(x, y) -> float | None:
    """Rank correlation via Pearson on midranks; None when undefined."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("length mismatch")
    if x.size < 2:
        return None
    return pearson(_midranks(x), _midranks(y))


# at or below this x, pi^2 / (8 x^2) >= 746 and the Kolmogorov tail is 1.0
_KOLMOGOROV_TINY = math.pi / math.sqrt(746 * 8)


def _kolmogorov_sf(x: float) -> float:
    """P(K > x) for the Kolmogorov limiting distribution K.

    The cephes evaluation that ``scipy.special.kolmogorov`` uses, with
    its operations in the same order, so the two agree bit for bit. For
    x <= 0.82 it sums the theta series in u = exp(-pi^2 / (8 x^2)) and
    returns 1 - P; above, the alternating series in v = exp(-2 x^2),
    4 terms. The result is clipped to [0, 1]; nan falls through every
    comparison and comes back nan.
    """
    if x <= _KOLMOGOROV_TINY:
        return 1.0
    if x <= 0.82:
        # P = w u (1 + u^8 + u^24 + u^48), w = sqrt(2 pi) / x
        w = math.sqrt(2 * math.pi) / x
        logu8 = -math.pi * math.pi / (x * x)
        u = math.exp(logu8 / 8)
        if u == 0:
            p = math.exp(logu8 / 8 + math.log(w))
        else:
            u8 = math.exp(logu8)
            p = 1 + u8**3
            p = 1 + u8 * u8 * p
            p = 1 + u8 * p
            p = w * u * p
        sf = 1 - p
    else:
        # sf = 2 v (1 - v^3 (1 - v^5 (1 - v^7)))
        v = math.exp(-2 * x * x)
        v3 = v**3
        p = 1 - v3 * v3 * v
        p = 1 - v3 * (v * v) * p
        p = 1 - v3 * p
        sf = 2 * v * p
    return min(max(sf, 0.0), 1.0)


def ks_two_sample(x, y) -> tuple[float, float]:
    """Two-sample KS statistic and asymptotic p-value.

    D is the exact sup-distance of the empirical CDFs; the p-value uses
    the Kolmogorov limiting distribution at sqrt(nx*ny/(nx+ny)) * D.
    """
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    nx, ny = x.size, y.size
    if nx == 0 or ny == 0:
        raise ValueError("KS needs nonempty samples")
    grid = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, grid, side="right") / nx
    cdf_y = np.searchsorted(y, grid, side="right") / ny
    d = float(np.max(np.abs(cdf_x - cdf_y)))
    n_eff = nx * ny / (nx + ny)
    return d, _kolmogorov_sf(math.sqrt(n_eff) * d)


def _pair_stats(x, y) -> dict:
    d, p = ks_two_sample(x, y)
    return {
        "pearson": pearson(x, y),
        "spearman": spearman(x, y),
        "ks_stat": d,
        "ks_p": p,
        "ks_inconclusive": p > KS_INCONCLUSIVE_P,
    }


@dataclass(frozen=True)
class ComparisonReport:
    """Per-metric agreement between two scaffolds, with optional
    crossed-null baselines."""

    metrics: dict

    def to_json(self) -> str:
        return json.dumps(self.metrics, indent=2, default=_json_default)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def compare_scaffolds(
    a: Scaffold,
    b: Scaffold,
    nulls: tuple[Scaffold, Scaffold] | None = None,
) -> ComparisonReport:
    """Metric-by-metric agreement between scaffolds a and b.

    nulls, when given, are null-model counterparts (null_a built like
    a, null_b built like b); baselines cross them: a against null_b and
    b against null_a, so each real scaffold is measured against the
    other's structureless twin. Edge weights are compared on the common
    support, with a union-with-zeros variant as a secondary view.
    """
    if a.n_vertices != b.n_vertices:
        raise ValueError("scaffolds live on different vertex sets")
    ma = graph_metrics(a)
    mb = graph_metrics(b)
    # (slot, first, second), in the report's key order
    slots = [("main", ma, mb)]
    if nulls is not None:
        if any(x.n_vertices != a.n_vertices for x in nulls):
            raise ValueError("nulls live on a different vertex set")
        null_a, null_b = map(graph_metrics, nulls)
        slots += [("a_vs_null_b", ma, null_b), ("b_vs_null_a", mb, null_a)]

    def edge_stats(wa: dict, wb: dict, keys) -> dict | None:
        # a weight missing from a map reads 0.0 (only in the union)
        if len(keys) < 2:
            return None
        keys = sorted(keys)
        return _pair_stats([wa.get(e, 0.0) for e in keys], [wb.get(e, 0.0) for e in keys])

    out: dict = {
        name: {slot: _pair_stats(x.vector(name), y.vector(name)) for slot, x, y in slots}
        for name in VERTEX_METRICS
    }
    out["edge_weight"] = {}
    for slot, x, y in slots:
        wa, wb = x.edge_weights, y.edge_weights
        out["edge_weight"][slot] = {
            "intersection": edge_stats(wa, wb, wa.keys() & wb.keys()),
            "union_with_zeros": edge_stats(wa, wb, wa.keys() | wb.keys()),
        }
    return ComparisonReport(metrics=out)


def aggregate_comparisons(reports: list[ComparisonReport]) -> dict:
    """Means over reports per metric and slot, skipping undefined values.

    For each vertex metric and each of main / a_vs_null_b / b_vs_null_a:
    mean pearson, mean spearman (None-aware) and the fraction of runs
    whose KS test was inconclusive.
    """
    out: dict = {}
    slots = ("main", "a_vs_null_b", "b_vs_null_a")
    for name in VERTEX_METRICS:
        out[name] = {}
        for slot in slots:
            rows = [
                r.metrics[name][slot]
                for r in reports
                if slot in r.metrics.get(name, {})
            ]
            if not rows:
                continue
            pear = [r["pearson"] for r in rows if r["pearson"] is not None]
            spear = [r["spearman"] for r in rows if r["spearman"] is not None]
            out[name][slot] = {
                "mean_pearson": sum(pear) / len(pear) if pear else None,
                "mean_spearman": sum(spear) / len(spear) if spear else None,
                "ks_inconclusive_fraction": sum(
                    1 for r in rows if r["ks_inconclusive"]
                )
                / len(rows),
                "n": len(rows),
            }
    return out
