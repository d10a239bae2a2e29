"""Scaffold construction: per-edge aggregation of homology generators.

Three variants over one filtration and its barcode. "loose" counts,
per edge, the barcode's generators that use it. "minimal" does the same
with the minimum-basis representatives of every filtration step, each
basis computed on a prefix of the barcode's complex. The draws
variant splits each count evenly across the tied representatives of a
variant set, in exact rationals.

The per-step bases come from one Horton sweep along the filtration
(``minbasis.HortonSweep``), which carries shortest-path trees, its
index of candidate cycles, the reduced triangle boundaries and known
boundaries from step to step, and logs a summary at INFO when its
chunk is done. With workers > 1 the active steps are
cut into contiguous chunks of near-equal total edge count, one sweep
per chunk, run in a process pool.
Every sweep finds exactly the pool a fresh search would, results are
aggregated in step order either way, and the arithmetic is exact, so
worker count never changes the output.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Iterable

from .complexes import FlagComplex2
from .graph import Filtration, WeightedGraph
from .minbasis import (
    HortonSweep,
    MinimalBasisWithDraws,
    PathologyEvent,
    min_basis_with_draws,
)
from .persistence import Barcode, bars_alive_at

__all__ = [
    "Scaffold",
    "loose_scaffold",
    "minimal_scaffold",
    "minimal_scaffold_with_draws",
    "step_bases",
    "node_strength",
    "rank_nodes",
    "scaffold_to_csv",
    "parse_scaffold_csv",
    "scaffold_report",
]

PROVENANCES = ("loose", "minimal", "minimal_with_draws")


@dataclass(frozen=True)
class Scaffold:
    """Edge-weight summary of a filtration's homology generators.

    ``provenance`` names the variant that made it, or is None when that
    was not recorded, as for a scaffold read back from CSV.
    """

    provenance: str | None
    n_vertices: int
    edge_weights: tuple[tuple[int, int, Fraction], ...]  # sorted, nonzero
    beta1_profile: tuple[tuple[Fraction, int], ...]  # (step, live dim-1 bars)
    pathology_events: tuple[tuple[Fraction, PathologyEvent], ...] = ()
    variant_histogram: tuple[tuple[int, int], ...] = ()  # (set size, count)

    def __post_init__(self) -> None:
        if self.provenance is not None and self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")

    @property
    def n_scaffold_edges(self) -> int:
        return len(self.edge_weights)

    @cached_property
    def strength(self) -> dict[int, Fraction]:
        """Incident weight per vertex (0 if untouched), summed once; read-only."""
        strength = dict.fromkeys(range(self.n_vertices), Fraction(0))
        for u, v, w in self.edge_weights:
            strength[u] += w
            strength[v] += w
        return strength


def _edge_weights(
    g: WeightedGraph, parts: Iterable[tuple[int | Fraction, tuple[int, ...]]]
) -> tuple[tuple[int, int, Fraction], ...]:
    """Scaffold rows from ``(share, edge ids)`` parts: each part adds its
    share to each of its edges. Totals are kept per edge id and turned
    into ``(u, v, weight)`` rows once at the end; ids follow the graph's
    canonical ``(u, v)`` order, so rows sorted by id are sorted by pair.
    Shares are positive, so every total is nonzero."""
    acc: dict[int, int | Fraction] = {}
    for share, eids in parts:
        for eid in eids:
            acc[eid] = acc.get(eid, 0) + share
    edges = g.edges
    return tuple((*edges[eid][:2], Fraction(w)) for eid, w in sorted(acc.items()))


def _check_barcode(f: Filtration, barcode: Barcode) -> None:
    # a barcode of another graph would index that graph's edges
    if barcode.complex.graph != f.source:
        raise ValueError("barcode was computed for a different graph")


def loose_scaffold(
    f: Filtration, barcode: Barcode, include_essential: bool = True
) -> Scaffold:
    """Per-edge count of the barcode's generators using that edge.

    Essential (never-dying) classes are counted by default; pass
    include_essential=False to restrict to finite bars.
    """
    _check_barcode(f, barcode)
    g = f.source
    parts = (
        (1, pair.generator.edges)
        for pair in barcode.in_dim(1)
        if include_essential or pair.death is not None
    )
    return Scaffold(
        provenance="loose",
        n_vertices=g.n_vertices,
        edge_weights=_edge_weights(g, parts),
        beta1_profile=tuple(zip(f.steps, bars_alive_at(barcode, f.steps, 1))),
    )


# the full complex and mu weights, sent to each pool worker once
_worker_input: tuple[FlagComplex2, dict[int, Fraction] | None] | None = None


def _init_worker(cx: FlagComplex2, mu_weights: dict[int, Fraction] | None) -> None:
    global _worker_input
    _worker_input = (cx, mu_weights)


def _sweep_chunk(
    cx: FlagComplex2,
    mu_weights: dict[int, Fraction] | None,
    chunk: list[Fraction],
) -> list[tuple[Fraction, MinimalBasisWithDraws]]:
    """Bases of ascending steps from one Horton sweep over their views."""
    sweep = HortonSweep(cx.at(chunk[-1]), mu_weights)
    bases = [
        (eps, min_basis_with_draws(cx.at(eps), mu_weights, sweep))
        for eps in chunk
    ]
    sweep.log_summary()
    return bases


def _chunk_job(chunk: list[Fraction]) -> list[tuple[Fraction, MinimalBasisWithDraws]]:
    return _sweep_chunk(*_worker_input, chunk)


def _chunk_bounds(costs: list[int], k: int) -> list[int]:
    """Cut points of k nonempty contiguous chunks of costs whose sums
    are as near k-th parts of the total as the order allows."""
    cum = list(accumulate(costs))
    bounds = [0]
    for c in range(1, k):
        target = cum[-1] * c / k
        i = bisect_left(cum, target)  # first prefix sum reaching target
        if i > 0 and target - cum[i - 1] < cum[i] - target:
            i -= 1
        bounds.append(min(max(i + 1, bounds[-1] + 1), len(costs) - k + c))
    return bounds + [len(costs)]


def step_bases(
    f: Filtration,
    barcode: Barcode,
    mu_weights: dict[int, Fraction] | None = None,
    workers: int = 1,
) -> list[tuple[Fraction, MinimalBasisWithDraws]]:
    """Minimum basis per filtration step, skipping steps with no cycles.

    The live-bar profile of the barcode tells which steps carry dim-1
    classes; only those get a basis, on its step's prefix view of the
    barcode's complex. The active steps are cut into min(workers,
    active) contiguous chunks, and each chunk is one Horton sweep. A
    step's work grows with its view's edge count, so the cuts balance
    the chunks' summed edge counts. A single chunk runs in this
    process; more run in a process pool that receives the full complex
    once per worker, and each job only its chunk's steps. Results come
    back in step order either way.
    """
    _check_barcode(f, barcode)
    cx = barcode.complex
    active = [eps for eps, b in zip(f.steps, bars_alive_at(barcode, f.steps, 1)) if b]
    if not active:
        return []
    k = min(max(workers, 1), len(active))
    if k == 1:
        return _sweep_chunk(cx, mu_weights, active)
    # multiprocessing costs every import of the CLI; load it only here
    from concurrent.futures import ProcessPoolExecutor

    bounds = _chunk_bounds([cx.at(eps).n_edges for eps in active], k)
    chunks = [active[bounds[c]:bounds[c + 1]] for c in range(k)]
    with ProcessPoolExecutor(
        max_workers=k, initializer=_init_worker, initargs=(cx, mu_weights)
    ) as pool:
        return [r for part in pool.map(_chunk_job, chunks) for r in part]


def _aggregate_minimal(
    f: Filtration,
    results: list[tuple[Fraction, MinimalBasisWithDraws]],
    draws: bool,
) -> Scaffold:
    g = f.source
    sets = [vs for _, mb in results for vs in mb.variant_sets]
    if draws:
        parts = (
            (Fraction(1, len(vs)), cyc.edges) for vs in sets for cyc in vs.cycles
        )
    else:
        parts = ((1, vs.representative.edges) for vs in sets)
    # steps without a basis job carry no dim-1 class
    beta1 = {eps: mb.beta1 for eps, mb in results}
    return Scaffold(
        provenance="minimal_with_draws" if draws else "minimal",
        n_vertices=g.n_vertices,
        edge_weights=_edge_weights(g, parts),
        beta1_profile=tuple((eps, beta1.get(eps, 0)) for eps in f.steps),
        pathology_events=tuple(
            (eps, ev) for eps, mb in results for ev in mb.pathology_events
        ),
        variant_histogram=tuple(sorted(Counter(map(len, sets)).items())),
    )


def minimal_scaffold(
    f: Filtration, results: list[tuple[Fraction, MinimalBasisWithDraws]]
) -> Scaffold:
    """Per-edge count of the representatives in step_bases results."""
    return _aggregate_minimal(f, results, draws=False)


def minimal_scaffold_with_draws(
    f: Filtration, results: list[tuple[Fraction, MinimalBasisWithDraws]]
) -> Scaffold:
    """Like minimal_scaffold but splitting ties evenly across draws."""
    return _aggregate_minimal(f, results, draws=True)


def node_strength(s: Scaffold) -> dict[int, Fraction]:
    """A copy of ``s.strength``: incident scaffold weight per vertex."""
    return dict(s.strength)


def rank_nodes(s: Scaffold) -> list[tuple[int, float]]:
    """Vertices by descending strength (ties by id), with strength
    relative to the mean over all vertices. Errors on empty scaffolds."""
    if not s.edge_weights:
        raise ValueError("cannot rank nodes of an empty scaffold")
    strength = s.strength
    mean = sum(strength.values(), Fraction(0)) / s.n_vertices
    order = sorted(strength, key=lambda v: (-strength[v], v))
    return [(v, float(strength[v] / mean)) for v in order]


def scaffold_to_csv(s: Scaffold) -> str:
    """Rows u,v,weight_decimal,weight_num,weight_den (exact in last two)."""
    lines = ["u,v,weight_decimal,weight_num,weight_den"]
    for u, v, w in s.edge_weights:
        lines.append(f"{u},{v},{float(w)!r},{w.numerator},{w.denominator}")
    return "\n".join(lines) + "\n"


def parse_scaffold_csv(text: str, n_vertices: int | None = None) -> Scaffold:
    """Read a scaffold CSV back; provenance is not stored in the file,
    so it comes back None.

    Vertex count defaults to max id + 1; pass n_vertices when isolated
    trailing vertices matter. A row must name a vertex pair u < v, with
    ids from 0, at most once, and a positive weight with a nonzero
    denominator, whose weight_decimal is ``repr(float(weight))``; u, v,
    weight_num and weight_den are ASCII digits only. Anything else
    raises ValueError.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "u,v,weight_decimal,weight_num,weight_den":
        raise ValueError("not a scaffold CSV (bad header)")
    acc: dict[tuple[int, int], Fraction] = {}
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 5:
            raise ValueError(f"bad scaffold row {ln!r}")
        u, v, num, den = (int(parts[i]) for i in (0, 1, 3, 4))
        if not 0 <= u < v:
            raise ValueError(f"bad scaffold row {ln!r}: needs 0 <= u < v")
        if den == 0:
            raise ValueError(f"bad scaffold row {ln!r}: zero denominator")
        if (u, v) in acc:
            raise ValueError(f"bad scaffold row {ln!r}: edge ({u}, {v}) repeats")
        w = Fraction(num, den)
        if w <= 0:
            raise ValueError(f"bad scaffold row {ln!r}: weight must be positive")
        # int() has read each of the four, so they are all digits when
        # their concatenation is
        digits = parts[0] + parts[1] + parts[3] + parts[4]
        if not (digits.isdigit() and digits.isascii()):
            raise ValueError(f"bad scaffold row {ln!r}: needs plain ASCII digits")
        try:
            decimal = repr(float(w))
        except OverflowError:  # no float is that large
            decimal = None
        if parts[2].strip() != decimal:
            raise ValueError(f"bad scaffold row {ln!r}: weight_decimal does not match")
        acc[(u, v)] = w
    n = max((v + 1 for _, v in acc), default=0)
    if n_vertices is not None:
        if n_vertices < n:
            raise ValueError(
                f"n_vertices={n_vertices}, but the scaffold names vertex {n - 1}"
            )
        n = n_vertices
    return Scaffold(
        provenance=None,
        n_vertices=n,
        edge_weights=tuple((u, v, w) for (u, v), w in sorted(acc.items())),
        beta1_profile=(),
    )


def scaffold_report(s: Scaffold) -> dict:
    """JSON-ready summary of one scaffold."""
    report: dict[str, object] = {
        "provenance": s.provenance,
        "n_vertices": s.n_vertices,
        "n_scaffold_edges": s.n_scaffold_edges,
        "beta1_profile": [[str(eps), b] for eps, b in s.beta1_profile],
        "variant_histogram": [[size, cnt] for size, cnt in s.variant_histogram],
        "n_pathology_events": len(s.pathology_events),
        "pathology_events": [
            {
                "step": str(eps),
                "level": str(ev.level),
                "n_classes": ev.n_classes,
                "rank_increment": ev.rank_increment,
            }
            for eps, ev in s.pathology_events
        ],
    }
    if s.edge_weights:
        report["ranking_top10"] = [[v, rel] for v, rel in rank_nodes(s)[:10]]
    return report
