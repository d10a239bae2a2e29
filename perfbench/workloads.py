"""The four benchmark workloads: seeded inputs, CLI arguments, output checks.

A workload is one kind of ``netscaffold.cli.main`` call, made on
INSTANCES inputs derived from the benchmark seed. Inputs are written to
edge-list files before any timing starts; the program only ever sees
those files (or, for ``family_compare``, an instance seed on its
command line, because ``compare --model`` generates its own graphs).
Several instances per run average out how much the cost of one random
input differs from another's.

Why each workload exists, and which metrics it is expected to move, is
written down in ``README.md`` beside this file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from netscaffold.graph import make_graph, serialize_edge_list
from netscaffold.randnet import (
    correlation_graph,
    gen_er_null,
    gen_ws_weighted,
    spectral_rotation_null,
)
from netscaffold.scaffold import parse_scaffold_csv
from netscaffold.stats import VERTEX_METRICS

DEFAULT_SEED = 0
INSTANCES = 4
COMPARE_SAMPLES = 3

# Digests of every output file of every instance on DEFAULT_SEED,
# recorded from the program as it was when the benchmark was defined.
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def _philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def instance_seed(seed: int, instance: int) -> int:
    # multiples of 10 apart, so compare's per-sample seeds (s, s+1, s+2)
    # never overlap between instances or benchmark seeds
    return 100 * seed + 10 * instance


# ---------------------------------------------------------------------------
# inputs


def _ws_sweep_graph(seed: int):
    # n=28, k=14: 196 distinct weights, about 170 active steps
    return gen_ws_weighted(28, 14, 0.025, seed)


def _tie_draws_graph(seed: int):
    # integer weights 1..4 on ER n=120, m=720: 4 steps, many ties
    topology = gen_er_null(120, 720, seed)
    weights = _philox(seed + 1).integers(1, 5, size=topology.n_edges)
    return make_graph(
        topology.n_vertices,
        [(u, v, int(w)) for (u, v, _), w in zip(topology.edges, weights)],
    )


def _barcode_dense_graph(seed: int):
    # 3-factor model, n=60, rotated to a random basis with its spectrum
    # kept: a complete graph (1770 edges, 34220 triangles)
    n = 60
    loadings = _philox(seed).standard_normal((n, 3))
    cov = loadings @ loadings.T + 0.5 * np.eye(n)
    d = np.sqrt(np.diag(cov))
    return correlation_graph(spectral_rotation_null(cov / np.outer(d, d), seed + 1000))


# ---------------------------------------------------------------------------
# output checks


class CheckFailed(Exception):
    """An operation's outputs break an invariant or a recorded digest."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _check_barcode(out: Path, stem: str) -> int:
    """CSV and JSON barcodes agree bar for bar; returns the bar count."""
    rows = (out / f"{stem}_barcode.csv").read_text().splitlines()
    pairs = json.loads((out / f"{stem}_barcode.json").read_text())["pairs"]
    _require(rows[0] == "dim,birth,death", "barcode CSV header")
    csv_dims = [int(r.split(",")[0]) for r in rows[1:]]
    _require(csv_dims == [p["dim"] for p in pairs], "barcode CSV and JSON disagree")
    return len(pairs)


def _check_scaffold(out: Path, stem: str, warnings: int) -> None:
    report = json.loads((out / f"{stem}_report.json").read_text())
    _check_barcode(out, stem)
    _require(
        sorted(report["scaffolds"]) == ["loose", "minimal", "minimal_draws"],
        "report lists the wrong scaffolds",
    )
    for name, entry in report["scaffolds"].items():
        s = parse_scaffold_csv((out / f"{stem}_{name}.csv").read_text())
        _require(
            s.n_scaffold_edges == entry["n_scaffold_edges"],
            f"{name}: CSV rows differ from the report's edge count",
        )
        if name == "loose":
            continue
        sets = sum(cnt for _, cnt in entry["variant_histogram"])
        beta1 = sum(b for _, b in entry["beta1_profile"])
        _require(sets == beta1, f"{name}: {sets} variant sets for beta1 sum {beta1}")
        _require(
            entry["n_pathology_events"] == warnings,
            f"{name}: {entry['n_pathology_events']} pathology events "
            f"but {warnings} warnings logged",
        )


def _check_compare(out: Path, samples: int) -> None:
    agg = json.loads((out / "comparison.json").read_text())
    _require(sorted(agg) == sorted(VERTEX_METRICS), "comparison metrics")
    for name, slots in agg.items():
        _require(
            sorted(slots) == ["a_vs_null_b", "b_vs_null_a", "main"],
            f"{name}: comparison slots",
        )
        _require(
            all(s["n"] == samples for s in slots.values()),
            f"{name}: not every instance was compared",
        )
    rows = (out / "comparison_rows.csv").read_text().splitlines()
    instances = {int(r.split(",")[0]) for r in rows[1:]}
    _require(instances == set(range(samples)), "comparison rows miss an instance")


def _digests(out: Path) -> dict[str, str]:
    """sha256 of every output file; the report's temp input path is cut
    down to its file name first."""
    result = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name.endswith("_report.json"):
            report = json.loads(data)
            report["input"] = Path(report["input"]).name
            data = json.dumps(report, indent=2).encode()
        result[path.name] = hashlib.sha256(data).hexdigest()
    return result


def check_digests(workload: str, instance: int, out: Path) -> None:
    """Raise CheckFailed unless every output matches its recorded digest."""
    golden = json.loads(GOLDEN_PATH.read_text())[workload][str(instance)]
    got = _digests(out)
    bad = sorted(k for k in golden.keys() | got.keys() if golden.get(k) != got.get(k))
    _require(not bad, f"outputs differ from the recorded digests: {bad}")


def record_digests(workload: str, instance: int, out: Path) -> None:
    golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    golden.setdefault(workload, {})[str(instance)] = _digests(out)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# workload table


@dataclass(frozen=True)
class Workload:
    name: str
    make_graph: Callable[[int], object] | None  # None: the call makes its own graphs
    command: tuple[str, ...]  # subcommand plus fixed flags

    def stem(self, instance: int) -> str:
        return f"{self.name}_{instance}"

    def write_inputs(self, seed: int, into: Path) -> None:
        into.mkdir(parents=True, exist_ok=True)
        if self.make_graph is None:
            return
        for i in range(INSTANCES):
            g = self.make_graph(instance_seed(seed, i))
            (into / f"{self.stem(i)}.csv").write_text(serialize_edge_list(g))

    def argv(self, seed: int, instance: int, inputs: Path, out: Path) -> list[str]:
        args = list(self.command)
        if self.make_graph is not None:
            args += ["--input", str(inputs / f"{self.stem(instance)}.csv")]
        else:
            args += ["--seed", str(instance_seed(seed, instance))]
        return args + ["--output-dir", str(out)]

    def check(self, instance: int, out: Path, warnings: int) -> None:
        """Raise CheckFailed unless the outputs hold the invariants that
        any seed must satisfy; warnings is the number of pathology
        warnings the call logged."""
        if self.command[0] == "scaffold":
            _check_scaffold(out, self.stem(instance), warnings)
        elif self.command[0] == "persistence":
            _require(_check_barcode(out, self.stem(instance)) > 0, "empty barcode")
        else:
            _check_compare(out, COMPARE_SAMPLES)


# Every call is serial. Spans recorded inside pool workers would be lost,
# and on 2 vCPUs the 2-worker step pool doubled the run-to-run spread of
# family_compare (IQR/median 0.26-0.31 against 0.13 serially, over the
# same minutes), past any bound the benchmark can set. family_compare
# draws WS graphs: RGG n=40 graphs varied 2x in cost from seed to seed,
# while WS graphs have a fixed edge count and vary about 10%.
SCAFFOLD = ("scaffold", "--which", "all", "--parallelism", "1")

WORKLOADS = {
    w.name: w
    for w in (
        Workload("ws_sweep", _ws_sweep_graph, SCAFFOLD),
        Workload("tie_draws", _tie_draws_graph, SCAFFOLD),
        Workload(
            "family_compare",
            None,
            (
                "compare", "--model", "ws", "--n", "20", "--k", "10", "--p", "0.025",
                "--sample", str(COMPARE_SAMPLES), "--nulls", "er", "--parallelism", "1",
            ),
        ),
        Workload("barcode_dense", _barcode_dense_graph, ("persistence",)),
    )
}
