"""Outside-in tracing: span recorders around the pipeline's binding sites.

The recorder replaces the names through which the pipeline calls from
one layer into another (the names bound in ``netscaffold.cli`` and
``netscaffold.scaffold``, plus ``flag_complex_at`` as bound in
``netscaffold.persistence``) with wrappers that record a span per call.
Nothing under ``src/`` changes; the originals are put back on exit.

A span is (name, binding site, start, end, parent span, op id). Spans
stay in memory and are written out when the run ends. Per-layer
numbers are computed per op from the spans and the counts the wrappers
read off each call's arguments and result.

Only serial runs can be traced: spans recorded inside pool workers
never reach this process.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from importlib import import_module
from pathlib import Path

# (binding module, bound name, layer). A name a later refactor stops
# calling through, or removes from its binding module, reports 0 calls
# instead of silently moving its time into the caller's self time.
WRAPPED = (
    ("cli", "parse_edge_list", "graph"),
    ("cli", "parse_adjacency", "graph"),
    ("cli", "orient_filtration", "graph"),
    ("cli", "build_filtration", "graph"),
    ("cli", "generate", "randnet"),
    ("cli", "gen_er_null", "randnet"),
    ("cli", "compute_persistence", "persistence"),
    ("cli", "loose_scaffold", "scaffold"),
    ("cli", "step_bases", "scaffold"),
    ("cli", "minimal_scaffold", "scaffold"),
    ("cli", "minimal_scaffold_with_draws", "scaffold"),
    ("cli", "compare_scaffolds", "stats"),
    ("cli", "aggregate_comparisons", "stats"),
    ("scaffold", "compute_persistence", "persistence"),
    ("scaffold", "bars_alive_at", "persistence"),
    ("scaffold", "flag_complex_at", "complexes"),
    ("scaffold", "min_basis_with_draws", "minbasis"),
    ("persistence", "flag_complex_at", "complexes"),
)

ROOT_SPAN = "cli.main"


@dataclass
class Span:
    id: int
    name: str  # "<layer>.<function>"
    site: str  # module the name was called through
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def func(self) -> str:
        return self.name.split(".", 1)[1]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _counts(func: str, args: tuple, result) -> dict[str, int]:
    """Work counts read off one call; cheap, and taken after the span ends."""
    if func == "flag_complex_at":
        return {"edges": result.n_edges, "triangles": result.n_triangles}
    if func == "min_basis_with_draws":
        sets = result.variant_sets
        return {
            "beta1": result.beta1,
            "variant_sets": len(sets),
            "multi_member_sets": sum(1 for vs in sets if len(vs) > 1),
            "draw_members": sum(len(vs) for vs in sets),
            "pathology_events": len(result.pathology_events),
        }
    if func == "compute_persistence":
        return {"bars1": len(result.in_dim(1))}
    if func == "build_filtration":
        return {"edges": result.source.n_edges, "steps": len(result.steps)}
    if func == "step_bases":
        return {"steps": len(args[0].steps)}
    if func in ("generate", "gen_er_null"):
        return {"graphs": 1}
    return {}


class Recorder:
    """In-memory span store for one benchmark run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = 0
        self.step_complexes: list = []  # complexes built per step, for the probe

    def span(self, name: str, site: str, fn, args: tuple, kwargs: dict):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, site, self.op, parent, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            result = fn(*args, **kwargs)
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
        s.counts = _counts(s.func, args, result)
        if s.func == "flag_complex_at" and site == "scaffold":
            self.step_complexes.append(result)
        return result

    def _wrapper(self, name: str, site: str, fn):
        def traced(*args, **kwargs):
            return self.span(name, site, fn, args, kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Swap every binding in WRAPPED for a recording wrapper."""
        saved = []
        try:
            for site, attr, layer in WRAPPED:
                mod = import_module(f"netscaffold.{site}")
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrapper(f"{layer}.{attr}", site, fn))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def write(self, path: Path) -> None:
        """One JSON object per span, one per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def op_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers of one traced op (its spans only). Spans of one
    layer never nest: every wrapped name is called from another layer."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def total(ss) -> float:
        return sum(s.duration for s in ss)

    def self_total(ss) -> float:
        return sum(
            s.duration - total(children.get(s.id, ())) for s in ss
        )

    def count(key: str, ss) -> int:
        return sum(s.counts.get(key, 0) for s in ss)

    def named(*funcs: str, site: str | None = None) -> list[Span]:
        return [
            s for s in spans
            if s.func in funcs and (site is None or s.site == site)
        ]

    def layer(name: str) -> list[Span]:
        return [s for s in spans if s.layer == name]

    m: dict[str, float] = {}
    root = [s for s in spans if s.name == ROOT_SPAN]
    m["cli.s"] = total(root)
    m["cli.self_s"] = self_total(root)

    m["graph.parse_s"] = total(named("parse_edge_list", "parse_adjacency"))
    m["graph.filtration_s"] = total(named("orient_filtration", "build_filtration"))
    filtrations = named("build_filtration")
    m["graph.edges"] = count("edges", filtrations)
    m["graph.steps"] = count("steps", filtrations)

    m["randnet.s"] = total(layer("randnet"))
    m["randnet.graphs"] = count("graphs", layer("randnet"))

    builds = named("flag_complex_at")
    m["complexes.s"] = total(builds)
    m["complexes.calls"] = len(named("flag_complex_at", site="scaffold"))
    m["complexes.full_calls"] = len(named("flag_complex_at", site="persistence"))
    m["complexes.edges_built"] = count("edges", builds)
    m["complexes.triangles_built"] = count("triangles", builds)
    m["complexes.rebuild_ratio"] = (
        m["complexes.edges_built"] / m["graph.edges"] if m["graph.edges"] else 0.0
    )

    pers = named("compute_persistence")
    m["persistence.s"] = total(pers)
    m["persistence.self_s"] = self_total(pers)
    m["persistence.calls"] = len(pers)
    m["persistence.bars1"] = count("bars1", pers)
    m["persistence.bars_alive_s"] = total(named("bars_alive_at"))

    bases = named("min_basis_with_draws")
    m["minbasis.s"] = total(bases)
    m["minbasis.calls"] = len(bases)
    m["minbasis.beta1_total"] = count("beta1", bases)
    m["minbasis.variant_sets"] = count("variant_sets", bases)
    m["minbasis.multi_member_sets"] = count("multi_member_sets", bases)
    m["minbasis.draw_members"] = count("draw_members", bases)
    m["minbasis.draw_ratio"] = (
        m["minbasis.draw_members"] / m["minbasis.variant_sets"]
        if m["minbasis.variant_sets"] else 0.0
    )
    m["minbasis.pathology_events"] = count("pathology_events", bases)

    sweeps = named("step_bases")
    m["scaffold.step_bases_s"] = total(sweeps)
    m["scaffold.step_bases_self_s"] = self_total(sweeps)
    m["scaffold.loose_self_s"] = self_total(named("loose_scaffold"))
    m["scaffold.aggregate_self_s"] = self_total(
        named("minimal_scaffold", "minimal_scaffold_with_draws")
    )
    swept = count("steps", sweeps)
    m["scaffold.active_ratio"] = len(bases) / swept if swept else 0.0

    m["stats.s"] = total(layer("stats"))
    m["stats.calls"] = len(layer("stats"))

    for site, attr, _ in WRAPPED:
        m[f"calls.{site}.{attr}"] = len(named(attr, site=site))
    return m


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
