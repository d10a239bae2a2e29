"""Scaffold construction: per-edge aggregation of homology generators.

Three variants over one filtration. "loose" counts, per edge, the
persistence generators that use it. "minimal" does the same with the
minimum-basis representatives of every filtration step. The draws
variant splits each count evenly across the tied representatives of a
variant set, in exact rationals.

Per-step basis computations are independent, so they can fan out over a
process pool; results are aggregated in step order either way, and the
arithmetic is exact, so worker count never changes the output.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .complexes import FlagComplex2, flag_complex_at
from .graph import Filtration
from .minbasis import MinimalBasisWithDraws, PathologyEvent, min_basis_with_draws
from .persistence import bars_alive_at, compute_persistence

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
    """Edge-weight summary of a filtration's homology generators."""

    provenance: str
    n_vertices: int
    edge_weights: tuple[tuple[int, int, Fraction], ...]  # sorted, nonzero
    beta1_profile: tuple[tuple[Fraction, int], ...]  # (step, live dim-1 bars)
    pathology_events: tuple[tuple[Fraction, PathologyEvent], ...] = ()
    variant_histogram: tuple[tuple[int, int], ...] = ()  # (set size, count)

    def __post_init__(self) -> None:
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")

    @property
    def n_scaffold_edges(self) -> int:
        return len(self.edge_weights)


def _finalize(
    acc: dict[tuple[int, int], Fraction],
) -> tuple[tuple[int, int, Fraction], ...]:
    return tuple(
        (u, v, w) for (u, v), w in sorted(acc.items()) if w != 0
    )


def loose_scaffold(f: Filtration, include_essential: bool = True) -> Scaffold:
    """Per-edge count of persistence generators using that edge.

    Essential (never-dying) classes are counted by default; pass
    include_essential=False to restrict to finite bars.
    """
    g = f.source
    barcode = compute_persistence(f)
    acc: dict[tuple[int, int], Fraction] = {}
    for pair in barcode.in_dim(1):
        if pair.death is None and not include_essential:
            continue
        assert pair.generator is not None
        for eid in pair.generator.edges:
            u, v, _ = g.edges[eid]
            acc[(u, v)] = acc.get((u, v), Fraction(0)) + 1
    return Scaffold(
        provenance="loose",
        n_vertices=g.n_vertices,
        edge_weights=_finalize(acc),
        beta1_profile=tuple(
            (eps, bars_alive_at(barcode, eps, 1)) for eps in f.steps
        ),
    )


def _step_job(
    args: tuple[FlagComplex2, dict[int, Fraction] | None],
) -> tuple[Fraction, MinimalBasisWithDraws]:
    cx, mu_weights = args
    return cx.epsilon, min_basis_with_draws(cx, mu_weights)


def step_bases(
    f: Filtration,
    mu_weights: dict[int, Fraction] | None = None,
    workers: int = 1,
) -> list[tuple[Fraction, MinimalBasisWithDraws]]:
    """Minimum basis per filtration step, skipping steps with no cycles.

    The live-bar profile of the barcode tells which steps carry dim-1
    classes; only those get a basis job. The full complex is built once
    and each job gets its step's prefix view of it. With workers > 1
    the jobs run in a process pool; results come back in step order
    either way.
    """
    barcode = compute_persistence(f)
    active = [eps for eps in f.steps if bars_alive_at(barcode, eps, 1) > 0]
    if not active:
        return []
    full = flag_complex_at(f.source, f.steps[-1])
    jobs = ((full.at(eps), mu_weights) for eps in active)
    if workers <= 1 or len(active) <= 1:
        return [_step_job(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_step_job, jobs))


def _aggregate_minimal(
    f: Filtration,
    results: list[tuple[Fraction, MinimalBasisWithDraws]],
    draws: bool,
) -> Scaffold:
    g = f.source
    acc: dict[tuple[int, int], Fraction] = {}
    events: list[tuple[Fraction, PathologyEvent]] = []
    hist: Counter[int] = Counter()
    for eps, mb in results:
        for ev in mb.pathology_events:
            events.append((eps, ev))
        for vs in mb.variant_sets:
            hist[len(vs)] += 1
            if draws:
                share = Fraction(1, len(vs))
                cycles = vs.cycles
            else:
                share = Fraction(1)
                cycles = (vs.representative,)
            for cyc in cycles:
                for eid in cyc.edges:
                    u, v, _ = g.edges[eid]
                    acc[(u, v)] = acc.get((u, v), Fraction(0)) + share
    # steps without a basis job carry no dim-1 class
    beta1 = {eps: mb.beta1 for eps, mb in results}
    return Scaffold(
        provenance="minimal_with_draws" if draws else "minimal",
        n_vertices=g.n_vertices,
        edge_weights=_finalize(acc),
        beta1_profile=tuple((eps, beta1.get(eps, 0)) for eps in f.steps),
        pathology_events=tuple(events),
        variant_histogram=tuple(sorted(hist.items())),
    )


def minimal_scaffold(
    f: Filtration,
    mu_weights: dict[int, Fraction] | None = None,
    workers: int = 1,
    results: list[tuple[Fraction, MinimalBasisWithDraws]] | None = None,
) -> Scaffold:
    """Count each step's minimum-basis representatives per edge.

    Pass precomputed step_bases results to avoid recomputation when
    building several variants from one filtration.
    """
    if results is None:
        results = step_bases(f, mu_weights, workers)
    return _aggregate_minimal(f, results, draws=False)


def minimal_scaffold_with_draws(
    f: Filtration,
    mu_weights: dict[int, Fraction] | None = None,
    workers: int = 1,
    results: list[tuple[Fraction, MinimalBasisWithDraws]] | None = None,
) -> Scaffold:
    """Like minimal_scaffold but splitting ties evenly across draws."""
    if results is None:
        results = step_bases(f, mu_weights, workers)
    return _aggregate_minimal(f, results, draws=True)


def node_strength(s: Scaffold) -> dict[int, Fraction]:
    """Sum of incident scaffold weights, for every vertex (0 if untouched)."""
    strength = {v: Fraction(0) for v in range(s.n_vertices)}
    for u, v, w in s.edge_weights:
        strength[u] += w
        strength[v] += w
    return strength


def rank_nodes(s: Scaffold) -> list[tuple[int, float]]:
    """Vertices by descending strength (ties by id), with strength
    relative to the mean over all vertices. Errors on empty scaffolds."""
    if not s.edge_weights:
        raise ValueError("cannot rank nodes of an empty scaffold")
    strength = node_strength(s)
    total = sum(strength.values(), Fraction(0))
    mean = total / s.n_vertices
    order = sorted(strength, key=lambda v: (-strength[v], v))
    return [(v, float(strength[v] / mean)) for v in order]


def scaffold_to_csv(s: Scaffold) -> str:
    """Rows u,v,weight_decimal,weight_num,weight_den (exact in last two)."""
    lines = ["u,v,weight_decimal,weight_num,weight_den"]
    for u, v, w in s.edge_weights:
        lines.append(f"{u},{v},{float(w)!r},{w.numerator},{w.denominator}")
    return "\n".join(lines) + "\n"


def parse_scaffold_csv(text: str, n_vertices: int | None = None) -> Scaffold:
    """Read a scaffold CSV back; provenance is not stored in the file.

    Vertex count defaults to max id + 1; pass n_vertices when isolated
    trailing vertices matter.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "u,v,weight_decimal,weight_num,weight_den":
        raise ValueError("not a scaffold CSV (bad header)")
    acc: list[tuple[int, int, Fraction]] = []
    max_id = -1
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 5:
            raise ValueError(f"bad scaffold row {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        w = Fraction(int(parts[3]), int(parts[4]))
        acc.append((u, v, w))
        max_id = max(max_id, u, v)
    n = max_id + 1 if n_vertices is None else n_vertices
    return Scaffold(
        provenance="loose",  # unknown from file; caller may not care
        n_vertices=n,
        edge_weights=tuple(sorted(acc)),
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
        report["ranking_top10"] = [
            [v, rel] for v, rel in rank_nodes(s)[:10]
        ]
    return report
